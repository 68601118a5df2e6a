//! Tunable parameters shared by all reclamation schemes.

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
    /// **Scheme implementors:** this is a property of the *config*, not of
    /// a live domain. A plain (unwrapped) domain handed a config with
    /// `shards > 1` would get batches sized for one shard, below the
    /// Section 3.2 requirement of strictly more nodes than its own slot
    /// count; a domain whose slot count can change at run time must size
    /// from that count instead (`Hyaline` sizes each batch from its live
    /// `k`, which adaptive resizing widens). Inner domains built from
    /// [`SmrConfig::shard_config`] have `shards == 1`, so for them this is
    /// the classic bound.
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
}
