//! The scheme-agnostic reclamation interface.

use crate::{Atomic, Shared, SmrConfig, SmrStats};

/// A safe-memory-reclamation scheme (a *domain*).
///
/// One value of an `Smr` type owns all reclamation state for one set of
/// nodes (typically one data structure): slot arrays for Hyaline, thread
/// registries for HP/HE/IBR/EBR, the era clock, and the statistics counters.
///
/// Threads interact with the domain through per-thread [`SmrHandle`]s created
/// with [`Smr::handle`]. Handles are cheap to create and drop at any time —
/// for Hyaline this is the *transparency* property the paper emphasizes
/// (threads are "off the hook" after `leave` and never need to be registered
/// or unregistered); for the baseline schemes handle creation registers the
/// thread in a fixed-capacity registry.
///
/// # Example
///
/// ```
/// use smr_core::{Smr, SmrHandle, SmrConfig};
///
/// fn count_unreclaimed<S: Smr<u64>>() -> u64 {
///     let domain = S::with_config(SmrConfig::default());
///     let mut h = domain.handle();
///     h.enter();
///     let node = h.alloc(7);
///     unsafe { h.retire(node) };
///     h.leave();
///     domain.stats().unreclaimed()
/// }
/// ```
///
/// # Scaling past thread-per-handle
///
/// Two adapters compose with any `Smr` implementation:
///
/// * [`Sharded<S>`](crate::Sharded) splits one logical domain into `N`
///   inner domains so retire-list traffic and cross-thread scans touch only
///   one shard (`SmrConfig { shards, routing, .. }` selects the layout).
/// * [`HandlePool<S>`](crate::HandlePool) parks and re-issues handles so
///   short-lived tasks reuse registry slots instead of churning them —
///   required when more tasks than [`SmrConfig::max_threads`] take turns on
///   a registry-based scheme.
///
/// ```
/// use smr_core::{HandlePool, Sharded, Smr, SmrConfig, SmrHandle};
///
/// fn pooled_sharded_churn<S: Smr<u64>>() {
///     let domain: Sharded<S> = Sharded::with_config(SmrConfig {
///         slots: 16,
///         shards: 4,
///         ..SmrConfig::default()
///     });
///     let pool = HandlePool::new(&domain, 2);
///     for _ in 0..8 {
///         // More tasks than pooled handles: checkout blocks, never panics.
///         let mut h = pool.checkout();
///         h.enter();
///         let node = h.alloc(7);
///         unsafe { h.retire(node) };
///         h.leave();
///     } // dropping the guard parks the handle for the next task
/// }
/// ```
pub trait Smr<T: Send + 'static>: Send + Sync + Sized + 'static {
    /// The per-thread handle type. Borrows the domain.
    ///
    /// Handles are `Send`: they hold exclusively owned state (limbo lists,
    /// partial batches, registry indices) plus a shared borrow of the
    /// domain, so a [`HandlePool`](crate::HandlePool) may park a handle
    /// created on one thread and re-issue it to another.
    type Handle<'d>: SmrHandle<T> + Send + 'd
    where
        Self: 'd;

    /// Creates a domain with default configuration.
    fn new() -> Self {
        Self::with_config(SmrConfig::default())
    }

    /// Creates a domain with the given configuration.
    fn with_config(config: SmrConfig) -> Self;

    /// Creates a handle for the calling thread.
    ///
    /// # Panics
    ///
    /// Registry-based schemes panic when more than
    /// [`SmrConfig::max_threads`] handles are simultaneously live.
    fn handle(&self) -> Self::Handle<'_>;

    /// The domain's allocation/retire/free counters.
    fn stats(&self) -> &SmrStats;

    /// A cheap read of the retired-but-not-yet-freed count, safe to call
    /// from hot paths (benchmark sampling loops call it every few hundred
    /// operations per thread).
    ///
    /// For plain domains this is `stats().unreclaimed()`. Aggregating
    /// adapters override it to *sum loads only*: [`Sharded`](crate::Sharded)
    /// must not funnel every sampling thread through writes to one shared
    /// aggregate cache line.
    fn unreclaimed_estimate(&self) -> u64 {
        self.stats().unreclaimed()
    }

    /// Short scheme name as used in the paper's figures
    /// (e.g. `"Hyaline"`, `"Epoch"`, `"HP"`).
    fn name() -> &'static str;

    /// Whether the scheme is *robust*: stalled threads cannot prevent an
    /// unbounded number of retired nodes from being reclaimed (paper §2.3).
    fn robust() -> bool;

    /// Whether [`SmrHandle::trim`] does something beyond `leave`+`enter`
    /// (only the Hyaline variants support real trimming, paper §3.3).
    fn supports_trim() -> bool {
        false
    }

    /// Whether [`SmrHandle::retire`] is *wait-free*: a retiring thread
    /// completes the insertion of its batch into every slot in a bounded
    /// number of its own steps, regardless of how other threads are
    /// scheduled.
    ///
    /// Hyaline's retire is lock-free — a CAS loop per slot can be starved by
    /// concurrent insertions into the same slot list. The Crystalline
    /// variants bound the CAS attempts (see
    /// [`SmrConfig::handoff_attempts`]) and then fall back to an
    /// unconditional swap into a per-slot handoff cell, so retire is
    /// wait-free.
    fn wait_free_retire() -> bool {
        false
    }

    /// Whether traversals must re-validate their window after each new
    /// [`SmrHandle::protect`] and restart when an edge changed.
    ///
    /// Schemes that publish protection *per access* — a hazard pointer (HP),
    /// a single era (HE), or a per-slot access era (Hyaline-S/1S) — only
    /// guard nodes whose retirement starts **after** the publication. A
    /// traversal that walks into an already-unlinked region (e.g. the frozen
    /// chain of a Natarajan–Mittal deletion) can otherwise protect a node
    /// that was retired just before the hazard became visible, and the
    /// reclaimer will free it regardless. This is the paper's §2.4 remark
    /// that robust schemes "require a modification \[26\] that timely retires
    /// deleted list nodes": traversals must never extend protection through
    /// unlinked nodes without re-validating reachability.
    ///
    /// Interval-based schemes (2GE-IBR) reserve `[enter-era, now]`, which
    /// always overlaps the lifetime of any node reachable when the operation
    /// began, and enter-scoped schemes (EBR, Hyaline, Hyaline-1) block all
    /// reclamation since `enter` — neither needs validation.
    fn needs_seek_validation() -> bool {
        false
    }

    /// Whether the scheme tolerates [`ShardRouting::ByPointer`] sharding
    /// (see [`Sharded`](crate::Sharded)): `enter` covers all shards while
    /// each `retire` routes to the shard selected by a hash of the node's
    /// address.
    ///
    /// That is sound only when protection is purely *enter-scoped*: no
    /// per-node metadata stamped at allocation is compared against
    /// shard-local state (birth eras), and `protect` publishes nothing
    /// per-pointer (hazards). Enter-scoped schemes — Hyaline, Hyaline-1,
    /// EBR, Leaky — qualify; era- and pointer-based schemes (Hyaline-S/1S,
    /// HE, IBR, HP) must use `ShardRouting::ByKey` instead, where a
    /// node lives its whole life under one shard.
    ///
    /// [`ShardRouting::ByPointer`]: crate::ShardRouting::ByPointer
    fn shardable_by_pointer() -> bool {
        false
    }
}

/// A per-thread handle to an [`Smr`] domain.
///
/// Every data-structure operation must be bracketed by [`enter`] and
/// [`leave`] (the paper's programming model, Figure 1a). Between them,
/// pointers must be read through [`protect`] before being dereferenced;
/// unlinked nodes are handed back with [`retire`].
///
/// Handles buffer thread-local state (Hyaline batches, limbo lists, hazard
/// slots). Dropping a handle releases everything: Hyaline finalizes partial
/// batches so the dropped thread's retired nodes do not linger — threads are
/// never "on the hook" after they are gone.
///
/// [`enter`]: SmrHandle::enter
/// [`leave`]: SmrHandle::leave
/// [`protect`]: SmrHandle::protect
/// [`retire`]: SmrHandle::retire
pub trait SmrHandle<T> {
    /// Begins an operation: makes a reservation so that nodes retired from
    /// now on by any thread are not reclaimed under us.
    fn enter(&mut self);

    /// Ends an operation: releases the reservation made by
    /// [`SmrHandle::enter`] and lets deferred reclamation proceed.
    fn leave(&mut self);

    /// Routes this handle to the shard owning the key partition identified
    /// by `key_hash` (the low bits select the shard).
    ///
    /// Only [`Sharded`](crate::Sharded) handles under
    /// [`ShardRouting::ByKey`](crate::ShardRouting::ByKey) do anything; for
    /// every plain scheme this is a no-op, so data structures may call it
    /// unconditionally. A key-partitioned structure must pin **before** any
    /// `alloc`/`protect`/`retire` of that partition's nodes (the hash map
    /// pins per bucket); switching shards mid-operation re-enters through
    /// the new shard, which is exactly a `leave` + `enter` on the inner
    /// domains.
    fn pin_shard(&mut self, key_hash: u64) {
        let _ = key_hash;
    }

    /// Logically `leave` immediately followed by `enter`, letting previously
    /// retired nodes be reclaimed without ending the reservation window.
    ///
    /// Hyaline implements the cheaper §3.3 trimming that does not touch the
    /// slot `Head`; for every other scheme this is literally
    /// `self.leave(); self.enter();`.
    fn trim(&mut self) {
        self.leave();
        self.enter();
    }

    /// Allocates a node for `value` and initializes scheme metadata (e.g.
    /// the birth era for HE/IBR/Hyaline-S).
    ///
    /// The returned pointer is exclusively owned by the caller until it is
    /// published into a shared structure.
    fn alloc(&mut self, value: T) -> Shared<T>;

    /// Frees a node that was **never published** to other threads (e.g. an
    /// insert lost its CAS and the caller still exclusively owns the node).
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`SmrHandle::alloc`] on this domain, must never
    /// have been reachable by other threads, and must not be used afterwards.
    unsafe fn dealloc(&mut self, ptr: Shared<T>);

    /// Reads `src` and protects the loaded pointer so it may be dereferenced
    /// until the next [`leave`](SmrHandle::leave) (or until `idx` is reused,
    /// for pointer-based schemes).
    ///
    /// `idx` selects a per-thread protection index for HP/HE
    /// (`idx < SmrConfig::max_protect`); interval- and reference-based
    /// schemes ignore it. The returned value retains `src`'s tag bits.
    fn protect(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T>;

    /// Copies the protection held at index `from` to index `to`, so the
    /// pointer protected at `from` stays protected when `from` is
    /// re-protected with something else.
    ///
    /// Tree searches use this to maintain multi-node seek records (e.g. the
    /// ancestor/successor/parent/leaf window of the Natarajan–Mittal tree)
    /// while the traversal window slides. Schemes without per-index state
    /// (epochs, intervals, Hyaline) need nothing; HP copies the hazard slot.
    fn copy_protection(&mut self, from: usize, to: usize) {
        let _ = (from, to);
    }

    /// Retires a node unlinked from the data structure: it will be freed
    /// once no concurrent operation can still hold a protected reference.
    ///
    /// # Safety
    ///
    /// * `ptr` must come from [`SmrHandle::alloc`] on this same domain.
    /// * It must be unreachable for operations that start after this call.
    /// * It must be retired at most once.
    unsafe fn retire(&mut self, ptr: Shared<T>);

    /// Makes everything retired by this handle eligible for reclamation as
    /// soon as concurrent readers leave (finalizes and inserts Hyaline's
    /// partial batch, forces a scan in scan-based schemes), and publishes
    /// the handle's buffered allocated/retired/freed/deallocated counts.
    /// The handle keeps its recycle magazine, with the pool counters it
    /// buffers: [`HandlePool`](crate::HandlePool) check-in calls this, and
    /// the handle's next allocations should find their memory warm. Only
    /// dropping the handle spills the magazine.
    fn flush(&mut self);
}

#[cfg(test)]
mod tests {
    // The trait is exercised by every scheme crate; here we only check that
    // it stays object-shaped enough for generic use (compile-time test).
    use super::*;

    fn _generic_use<T: Send + 'static, S: Smr<T>>(domain: &S, value: T) {
        let mut h = domain.handle();
        h.enter();
        let p = h.alloc(value);
        // SAFETY: `p` came from this handle's `alloc`, was never published, and
        // is retired once.
        unsafe { h.retire(p) };
        h.leave();
        h.flush();
    }
}
