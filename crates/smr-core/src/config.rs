//! Tunable parameters shared by all reclamation schemes.

/// How a [`Sharded`](crate::Sharded) domain routes traffic to its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardRouting {
    /// The data structure selects the shard explicitly through
    /// [`SmrHandle::pin_shard`](crate::SmrHandle::pin_shard) before touching
    /// any node of a key partition (e.g. the hash map pins per bucket
    /// group). Safe for **every** scheme, because a node is allocated,
    /// protected and retired under the same shard. A structure that never
    /// pins stays entirely in shard 0.
    #[default]
    ByKey,
    /// `enter`/`leave` cover every shard; `retire` routes each node by a
    /// hash of its address. Needs no structure cooperation, but is only
    /// sound for schemes whose protection is purely enter-scoped (no birth
    /// eras, no per-pointer hazards) — see
    /// [`Smr::shardable_by_pointer`](crate::Smr::shardable_by_pointer).
    ByPointer,
}

impl ShardRouting {
    /// Machine-friendly name (results records, CLI flags).
    pub fn short_label(self) -> &'static str {
        match self {
            ShardRouting::ByKey => "by-key",
            ShardRouting::ByPointer => "by-pointer",
        }
    }

    /// Parses [`ShardRouting::short_label`] back.
    pub fn from_short_label(s: &str) -> Option<Self> {
        match s {
            "by-key" | "key" => Some(ShardRouting::ByKey),
            "by-pointer" | "pointer" | "ptr" => Some(ShardRouting::ByPointer),
            _ => None,
        }
    }
}

/// Configuration for a reclamation domain.
///
/// The defaults follow the parameters used in the Hyaline paper's evaluation
/// (Section 6) scaled to the current machine: the number of Hyaline slots is
/// the next power of two of twice the available parallelism (the paper caps
/// slots at 128 on a 72-core machine), batches hold at least 64 nodes, and
/// the stall-detection threshold is 8192.
///
/// # Example
///
/// ```
/// use smr_core::SmrConfig;
///
/// let cfg = SmrConfig { slots: 8, ..SmrConfig::default() };
/// assert!(cfg.slots.is_power_of_two());
/// ```
///
/// A sharded domain divides the slot budget across shards; each shard is an
/// ordinary single-shard domain built from [`SmrConfig::shard_config`]:
///
/// ```
/// use smr_core::SmrConfig;
///
/// let cfg = SmrConfig { slots: 32, shards: 4, ..SmrConfig::default() };
/// assert_eq!(cfg.slots_per_shard(), 8);
/// // Batches must exceed the *per-shard* slot count, not the total.
/// assert_eq!(cfg.effective_batch_size(), 64.max(8 + 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrConfig {
    /// Number of Hyaline slots (`k`). Must be a power of two: the wrap-around
    /// `Adjs` accounting of Section 3.2 requires `k * Adjs == 0 (mod 2^64)`.
    pub slots: usize,
    /// Minimum number of nodes accumulated locally before a batch is retired
    /// into the slot lists. The effective batch size is
    /// `max(batch_min, slots + 1)`; the Hyaline algorithms require strictly
    /// more nodes per batch than slots.
    pub batch_min: usize,
    /// Every `era_freq` allocations a thread advances the global era clock
    /// (`Freq` in Figure 5). Also used as the epoch-advance frequency for EBR
    /// and the era-advance frequency for HE/IBR.
    pub era_freq: u64,
    /// Minimum retires between scans in the scan-based schemes (EBR, HP, HE,
    /// IBR); the interval doubles with the survivors: after a scan that
    /// leaves `s` nodes pinned, the next one runs `max(scan_threshold, s)`
    /// retires later.
    pub scan_threshold: usize,
    /// Number of protection indices available per thread for pointer-based
    /// schemes (HP, HE). `protect(idx, ..)` requires `idx < max_protect`.
    pub max_protect: usize,
    /// Hyaline-S stall-detection threshold: `enter` skips slots whose `Ack`
    /// counter is at or above this value (the paper suggests 8192).
    pub ack_threshold: i64,
    /// Enable Section 4.3 adaptive slot resizing for Hyaline-S.
    pub adaptive: bool,
    /// Capacity of the thread registry for schemes with per-thread state
    /// (HP, HE, IBR, EBR, Hyaline-1, Hyaline-1S).
    pub max_threads: usize,
    /// Number of shards for a [`Sharded`](crate::Sharded) domain adapter.
    /// Must be a power of two. Plain (unsharded) schemes ignore it; `1`
    /// means "no sharding" everywhere.
    pub shards: usize,
    /// How a [`Sharded`](crate::Sharded) domain routes traffic to shards.
    /// Ignored by plain schemes.
    pub routing: ShardRouting,
    /// Crystalline only: how many CAS attempts `retire` makes on one slot's
    /// retirement list before falling back to the wait-free handoff cell
    /// (`0` forces every insertion through the handoff path, which is useful
    /// for tests). Other schemes ignore it.
    pub handoff_attempts: usize,
    /// Enable the layout-keyed node-recycling layer
    /// ([`smr_core::recycle`](crate::recycle)): reclaimed nodes feed a
    /// per-domain free pool that `alloc` draws from before falling back to
    /// the global allocator. On by default; `false` allocates and frees
    /// every node through malloc.
    pub recycle: bool,
    /// Maximum number of reclaimed nodes retained by each domain's recycle
    /// pool (approximate, split across the pool's cache-padded partitions).
    /// Overflow falls back to the real allocator. Each inner domain of a
    /// [`Sharded`](crate::Sharded) adapter owns a pool of this capacity, so
    /// recycled nodes stay on the shard that freed them. Ignored unless
    /// [`SmrConfig::recycle`] is set.
    pub recycle_capacity: usize,
    /// Capacity of each handle's local recycle magazine, in nodes: a
    /// dispose into a full magazine spills half of it to the shared pool as
    /// one block, and a refill takes at most this many. New blocks hold
    /// `max(recycle_magazine, effective_batch_size())` entries, so one
    /// names a full batch. Ignored unless [`SmrConfig::recycle`] is set.
    pub recycle_magazine: usize,
}

impl SmrConfig {
    /// Configuration with a specific Hyaline slot count.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or not a power of two.
    pub fn with_slots(slots: usize) -> Self {
        assert!(
            slots.is_power_of_two(),
            "slot count must be a power of two, got {slots}"
        );
        Self {
            slots,
            ..Self::default()
        }
    }

    /// The effective minimum batch size:
    /// `max(batch_min, slots_per_shard() + 1)`.
    ///
    /// Section 3.2 requires the number of nodes in a batch to be strictly
    /// greater than the number of slots *of the domain the batch is retired
    /// into*. For a single-shard configuration that is the classic
    /// `max(batch_min, slots + 1)`; for a sharded configuration each inner
    /// domain only owns [`SmrConfig::slots_per_shard`] slots, so batches
    /// (and with them the reclamation latency floor) shrink accordingly.
    ///
    /// **Scheme implementors:** a plain (unwrapped) domain that sizes its
    /// batches from this method must normalize its config through
    /// [`SmrConfig::as_single_shard`] first (as `Hyaline` does) — a config
    /// carrying `shards > 1` destined for a `Sharded` wrapper would
    /// otherwise yield batches smaller than the Section 3.2 requirement of
    /// strictly more nodes than the domain's *full* slot count. Inner
    /// domains built from [`SmrConfig::shard_config`] are already
    /// normalized.
    pub fn effective_batch_size(&self) -> usize {
        self.batch_min.max(self.slots_per_shard() + 1)
    }

    /// Slots owned by each shard: `slots / shards`, floored at 1 (both
    /// counts are powers of two, so the quotient is too).
    pub fn slots_per_shard(&self) -> usize {
        (self.slots / self.shards.max(1)).max(1)
    }

    /// The configuration handed to each inner domain of a
    /// [`Sharded`](crate::Sharded) adapter: the slot budget is divided by
    /// the shard count and the result is a plain single-shard config.
    pub fn shard_config(&self) -> Self {
        Self {
            slots: self.slots_per_shard(),
            shards: 1,
            ..self.clone()
        }
    }

    /// This configuration with sharding stripped (`shards = 1`), keeping the
    /// full slot count. Plain (unsharded) schemes normalize through this so
    /// that a config carrying a `shards` knob for a `Sharded` consumer does
    /// not skew their own batch sizing.
    pub fn as_single_shard(&self) -> Self {
        Self {
            shards: 1,
            ..self.clone()
        }
    }
}

impl Default for SmrConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            slots: (cores * 2).next_power_of_two(),
            batch_min: 64,
            era_freq: 128,
            scan_threshold: 128,
            max_protect: 8,
            ack_threshold: 8192,
            adaptive: false,
            max_threads: 1024,
            shards: 1,
            routing: ShardRouting::ByKey,
            handoff_attempts: 8,
            recycle: true,
            recycle_capacity: 8192,
            recycle_magazine: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_slots_power_of_two() {
        let cfg = SmrConfig::default();
        assert!(cfg.slots.is_power_of_two());
        assert!(cfg.slots >= 2);
    }

    #[test]
    fn effective_batch_size_respects_slots() {
        let cfg = SmrConfig {
            slots: 256,
            batch_min: 64,
            ..SmrConfig::default()
        };
        assert_eq!(cfg.effective_batch_size(), 257);
        let cfg = SmrConfig {
            slots: 4,
            batch_min: 64,
            ..SmrConfig::default()
        };
        assert_eq!(cfg.effective_batch_size(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_slots_rejects_non_power_of_two() {
        let _ = SmrConfig::with_slots(6);
    }

    #[test]
    fn shard_config_divides_the_slot_budget() {
        let cfg = SmrConfig {
            slots: 32,
            shards: 4,
            batch_min: 2,
            ..SmrConfig::default()
        };
        assert_eq!(cfg.slots_per_shard(), 8);
        let inner = cfg.shard_config();
        assert_eq!(inner.slots, 8);
        assert_eq!(inner.shards, 1);
        // The sharded config and its inner config agree on the batch size.
        assert_eq!(cfg.effective_batch_size(), 9);
        assert_eq!(inner.effective_batch_size(), 9);
        // More shards than slots floors at one slot per shard.
        let tiny = SmrConfig {
            slots: 2,
            shards: 8,
            ..SmrConfig::default()
        };
        assert_eq!(tiny.slots_per_shard(), 1);
        assert!(tiny.shard_config().slots.is_power_of_two());
    }

    #[test]
    fn single_shard_batch_size_is_unchanged() {
        // shards = 1 must reproduce the historical max(batch_min, slots+1).
        let cfg = SmrConfig {
            slots: 256,
            batch_min: 64,
            ..SmrConfig::default()
        };
        assert_eq!(cfg.effective_batch_size(), 257);
        let flattened = SmrConfig {
            slots: 256,
            batch_min: 64,
            shards: 8,
            ..SmrConfig::default()
        }
        .as_single_shard();
        assert_eq!(flattened.effective_batch_size(), 257);
    }

    #[test]
    fn routing_labels_round_trip() {
        for r in [ShardRouting::ByKey, ShardRouting::ByPointer] {
            assert_eq!(ShardRouting::from_short_label(r.short_label()), Some(r));
        }
        assert_eq!(ShardRouting::from_short_label("zipf"), None);
    }
}
