//! A domain adapter that splits one logical reclamation domain into shards.
//!
//! Hyaline's retire cost is proportional to the slot count (`retire` appends
//! the batch to *every* active slot, Figure 3), and cross-thread state scans
//! in registry-based schemes grow with the registered thread count. A
//! [`Sharded<S>`] domain holds `N` independent inner domains, each sized
//! `slots / N`, so any single operation only ever touches one shard's slots
//! (`ByKey` routing) or spreads its retire traffic over the shards
//! (`ByPointer` routing). This is the partitioning step toward the
//! wait-free-scale designs of Crystalline: reclamation state stops being one
//! global hot spot.
//!
//! Safety rests on a simple ownership discipline: **every node lives its
//! whole life — alloc, publish, protect, retire, free — under one shard.**
//!
//! * Under [`ShardRouting::ByKey`] the *data structure* guarantees that by
//!   pinning the handle ([`SmrHandle::pin_shard`]) to a key partition's
//!   shard before touching its nodes (the hash map pins per bucket group).
//!   Any reader of those nodes is pinned — and therefore entered — in the
//!   same shard, so each shard is a perfectly ordinary single domain.
//! * Under [`ShardRouting::ByPointer`] the shard is a pure function of the
//!   node address, `enter` covers every shard, and correctness additionally
//!   requires the inner scheme's protection to be enter-scoped
//!   ([`Smr::shardable_by_pointer`]); [`Sharded::with_config`] enforces
//!   that at construction.

use crate::{
    Atomic, Shared, ShardRouting, Smr, SmrConfig, SmrHandle, SmrStats,
};

/// A sharded domain: `N` inner `S` domains behind one [`Smr`] facade.
///
/// # Example
///
/// Four shards of eight slots each behave like one 32-slot domain whose
/// retire lists are four times shorter:
///
/// ```
/// use smr_core::{Sharded, Smr, SmrConfig, SmrHandle};
///
/// fn churn<S: Smr<u64>>() {
///     let domain: Sharded<S> = Sharded::with_config(SmrConfig {
///         slots: 32,
///         shards: 4,
///         ..SmrConfig::default()
///     });
///     let mut h = domain.handle();
///     for key in 0..64u64 {
///         h.enter();
///         h.pin_shard(key); // route this key's partition (low bits)
///         let node = h.alloc(key);
///         unsafe { h.retire(node) };
///         h.leave();
///     }
///     h.flush();
///     assert_eq!(domain.shard_count(), 4);
/// }
/// ```
pub struct Sharded<S> {
    shards: Box<[S]>,
    aggregate: SmrStats,
    routing: ShardRouting,
    mask: usize,
}

impl<S> Sharded<S> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inner domain backing shard `i`.
    pub fn shard(&self, i: usize) -> &S {
        &self.shards[i]
    }

    /// The configured routing mode.
    pub fn routing(&self) -> ShardRouting {
        self.routing
    }

    /// Shard owning the node at `addr` under `ByPointer` routing: a
    /// Fibonacci hash of the address so neighboring allocations spread.
    #[inline]
    fn ptr_shard(&self, addr: usize) -> usize {
        (((addr >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) & self.mask
    }
}

impl<S> std::fmt::Debug for Sharded<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.shards.len())
            .field("routing", &self.routing)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, S: Smr<T>> Smr<T> for Sharded<S> {
    type Handle<'d> = ShardedHandle<'d, T, S>;

    /// Builds `config.shards` inner domains, each from
    /// [`SmrConfig::shard_config`] (the slot budget divided per shard).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is not a power of two, or if
    /// `config.routing` is [`ShardRouting::ByPointer`] and the inner scheme
    /// does not support it (see [`Smr::shardable_by_pointer`]).
    fn with_config(config: SmrConfig) -> Self {
        let n = config.shards.max(1);
        assert!(
            n.is_power_of_two(),
            "shard count must be a power of two, got {n}"
        );
        if config.routing == ShardRouting::ByPointer {
            assert!(
                S::shardable_by_pointer(),
                "{} does not support ByPointer shard routing (its protection \
                 is not enter-scoped); use ShardRouting::ByKey",
                S::name()
            );
        }
        let inner_config = config.shard_config();
        Self {
            shards: (0..n).map(|_| S::with_config(inner_config.clone())).collect(),
            aggregate: SmrStats::new(),
            routing: config.routing,
            mask: n - 1,
        }
    }

    fn handle(&self) -> ShardedHandle<'_, T, S> {
        ShardedHandle {
            domain: self,
            inner: self.shards.iter().map(|s| s.handle()).collect(),
            current: 0,
            entered: false,
            pending: false,
            alloc_rr: 0,
        }
    }

    /// Aggregated counters: the shared aggregate is refreshed from the
    /// per-shard statistics at call time (a snapshot — concurrent refreshes
    /// may interleave mid-flight; at quiescence it is exact). Hot paths
    /// that only need the unreclaimed count should use
    /// [`Smr::unreclaimed_estimate`], which performs no shared writes.
    fn stats(&self) -> &SmrStats {
        self.aggregate
            .refresh_from(self.shards.iter().map(|s| s.stats()));
        &self.aggregate
    }

    /// Sums the per-shard counts with loads only: no store into the shared
    /// aggregate, so concurrent samplers do not ping-pong one cache line.
    fn unreclaimed_estimate(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stats().unreclaimed())
            .sum()
    }

    fn name() -> &'static str {
        "Sharded"
    }

    fn robust() -> bool {
        S::robust()
    }

    fn supports_trim() -> bool {
        S::supports_trim()
    }

    fn needs_seek_validation() -> bool {
        S::needs_seek_validation()
    }
}

/// Handle to a [`Sharded`] domain: one inner handle per shard plus the
/// routing state.
pub struct ShardedHandle<'d, T: Send + 'static, S: Smr<T> + 'd> {
    domain: &'d Sharded<S>,
    inner: Vec<S::Handle<'d>>,
    current: usize,
    entered: bool,
    /// `ByKey` only: `enter` was called but no inner reservation has been
    /// made yet — it materializes at the first pin or node access, so an
    /// operation that pins right away performs exactly one inner
    /// enter/leave instead of entering a shard it immediately abandons.
    /// Sound because every node access (`protect`/`alloc`/`retire`) happens
    /// after the materialized enter, which is all the enter-scoped (and
    /// era-certified) safety arguments need.
    pending: bool,
    alloc_rr: usize,
}

impl<'d, T: Send + 'static, S: Smr<T>> ShardedHandle<'d, T, S> {
    /// The shard this handle is currently pinned to (`ByKey` routing).
    pub fn current_shard(&self) -> usize {
        self.current
    }

    /// Materializes a deferred `ByKey` enter on the current shard before a
    /// node access that did not go through [`SmrHandle::pin_shard`].
    #[inline]
    fn ensure_entered(&mut self) {
        if self.pending {
            self.pending = false;
            self.inner[self.current].enter();
        }
    }
}

impl<T: Send + 'static, S: Smr<T>> std::fmt::Debug for ShardedHandle<'_, T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHandle")
            .field("shards", &self.inner.len())
            .field("current", &self.current)
            .field("entered", &self.entered)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, S: Smr<T>> SmrHandle<T> for ShardedHandle<'_, T, S> {
    fn enter(&mut self) {
        match self.domain.routing {
            // ByKey defers the inner enter to the first pin/access: a
            // structure that pins immediately (the hash map) then pays for
            // exactly one inner enter instead of entering a shard the pin
            // abandons one instruction later.
            ShardRouting::ByKey => self.pending = true,
            ShardRouting::ByPointer => {
                for h in &mut self.inner {
                    h.enter();
                }
            }
        }
        self.entered = true;
    }

    fn leave(&mut self) {
        match self.domain.routing {
            ShardRouting::ByKey => {
                if self.pending {
                    // Nothing was accessed: the reservation never existed.
                    self.pending = false;
                } else {
                    self.inner[self.current].leave();
                }
            }
            ShardRouting::ByPointer => {
                for h in &mut self.inner {
                    h.leave();
                }
            }
        }
        self.entered = false;
    }

    fn pin_shard(&mut self, key_hash: u64) {
        if self.domain.routing != ShardRouting::ByKey {
            return; // ByPointer routes at retire; pinning is meaningless
        }
        let target = key_hash as usize & self.domain.mask;
        if self.pending {
            // Materialize the deferred enter directly on the target shard —
            // before the caller touches any of its nodes.
            self.pending = false;
            self.current = target;
            self.inner[target].enter();
            return;
        }
        if target == self.current {
            return;
        }
        if self.entered {
            // Re-enter through the new shard so the reservation covers it
            // before the caller touches any of its nodes.
            self.inner[self.current].leave();
            self.inner[target].enter();
        }
        self.current = target;
    }

    fn trim(&mut self) {
        match self.domain.routing {
            ShardRouting::ByKey => {
                self.ensure_entered();
                self.inner[self.current].trim();
            }
            ShardRouting::ByPointer => {
                for h in &mut self.inner {
                    h.trim();
                }
            }
        }
    }

    fn alloc(&mut self, value: T) -> Shared<T> {
        match self.domain.routing {
            // ByKey: the node belongs to the pinned shard (birth era and
            // retire list must come from the same inner domain).
            ShardRouting::ByKey => {
                self.ensure_entered();
                self.inner[self.current].alloc(value)
            }
            // ByPointer: the inner scheme stamps no shard-local metadata at
            // alloc (enforced at construction), so rotate for stats spread.
            ShardRouting::ByPointer => {
                let s = self.alloc_rr & self.domain.mask;
                self.alloc_rr = self.alloc_rr.wrapping_add(1);
                self.inner[s].alloc(value)
            }
        }
    }

    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        // SAFETY: the caller's contract passes through unchanged. Under
        // `ByKey` the node came from the pinned shard; under `ByPointer` the
        // inner scheme keeps no per-shard node state (checked at
        // construction), so the address's shard may free it.
        unsafe {
            match self.domain.routing {
                ShardRouting::ByKey => self.inner[self.current].dealloc(ptr),
                ShardRouting::ByPointer => {
                    let s = self.domain.ptr_shard(ptr.as_node_ptr() as usize);
                    self.inner[s].dealloc(ptr)
                }
            }
        }
    }

    fn protect(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T> {
        // ByKey: the pinned shard owns every node this operation may load,
        // and the load below happens after the materialized enter.
        // ByPointer: protection is enter-scoped (construction invariant),
        // so any shard's protect is a plain certified load.
        if self.domain.routing == ShardRouting::ByKey {
            self.ensure_entered();
        }
        self.inner[self.current].protect(idx, src)
    }

    fn copy_protection(&mut self, from: usize, to: usize) {
        self.inner[self.current].copy_protection(from, to);
    }

    unsafe fn retire(&mut self, ptr: Shared<T>) {
        // SAFETY: the caller's contract passes through unchanged. Under
        // `ByKey` the pinned shard owns every node this operation reached;
        // under `ByPointer` protection is enter-scoped (checked at
        // construction), so the address's shard sees every reader that could
        // hold the node.
        unsafe {
            match self.domain.routing {
                ShardRouting::ByKey => {
                    self.ensure_entered();
                    self.inner[self.current].retire(ptr)
                }
                ShardRouting::ByPointer => {
                    let s = self.domain.ptr_shard(ptr.as_node_ptr() as usize);
                    self.inner[s].retire(ptr)
                }
            }
        }
    }

    fn flush(&mut self) {
        for h in &mut self.inner {
            h.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A minimal enter-scoped scheme for exercising the adapter without the
    /// scheme crates (which depend on smr-core, not vice versa): retire
    /// frees immediately when no reader is inside, else defers to the next
    /// leave. Single global "reservation" counter per domain.
    struct ToyDomain {
        readers: AtomicU64,
        limbo: std::sync::Mutex<Vec<*mut crate::SmrNode<u64>>>,
        stats: SmrStats,
    }

    // SAFETY: the raw pointers in `limbo` are exclusively owned retired
    // nodes, moved with the Mutex that guards them.
    unsafe impl Send for ToyDomain {}
    // SAFETY: `readers`/`stats` are atomics and `limbo` is Mutex-protected,
    // so shared access from any thread is synchronized.
    unsafe impl Sync for ToyDomain {}

    impl Smr<u64> for ToyDomain {
        type Handle<'d> = ToyHandle<'d>;

        fn with_config(_config: SmrConfig) -> Self {
            Self {
                readers: AtomicU64::new(0),
                limbo: std::sync::Mutex::new(Vec::new()),
                stats: SmrStats::new(),
            }
        }

        fn handle(&self) -> ToyHandle<'_> {
            ToyHandle { domain: self }
        }

        fn stats(&self) -> &SmrStats {
            &self.stats
        }

        fn name() -> &'static str {
            "Toy"
        }

        fn robust() -> bool {
            false
        }

        fn shardable_by_pointer() -> bool {
            true
        }
    }

    struct ToyHandle<'d> {
        domain: &'d ToyDomain,
    }

    impl ToyHandle<'_> {
        fn reclaim_if_quiescent(&mut self) {
            if self.domain.readers.load(Ordering::SeqCst) == 0 {
                let nodes = std::mem::take(&mut *self.domain.limbo.lock().unwrap());
                let n = nodes.len() as u64;
                for node in nodes {
                    // SAFETY: `retire` pushed these nodes, each allocated by
                    // `alloc` with a live payload, and no reader is inside the
                    // toy domain, so none is still referenced.
                    unsafe { crate::SmrNode::dealloc(node, true) };
                }
                self.domain.stats.add_freed(n);
            }
        }
    }

    impl SmrHandle<u64> for ToyHandle<'_> {
        fn enter(&mut self) {
            self.domain.readers.fetch_add(1, Ordering::SeqCst);
        }

        fn leave(&mut self) {
            self.domain.readers.fetch_sub(1, Ordering::SeqCst);
            self.reclaim_if_quiescent();
        }

        fn alloc(&mut self, value: u64) -> Shared<u64> {
            self.domain.stats.add_allocated(1);
            Shared::from_node(crate::SmrNode::alloc(value))
        }

        unsafe fn dealloc(&mut self, ptr: Shared<u64>) {
            self.domain.stats.add_deallocated(1);
            // SAFETY: callers uphold the trait contract: `ptr` came from
            // `alloc` and was never published, so it is freed at once.
            unsafe { crate::SmrNode::dealloc(ptr.as_node_ptr(), true) };
        }

        fn protect(&mut self, _idx: usize, src: &Atomic<u64>) -> Shared<u64> {
            src.load(Ordering::Acquire)
        }

        // SAFETY: the node is only queued; `reclaim_if_quiescent` frees it
        // once no reader is inside the toy domain.
        unsafe fn retire(&mut self, ptr: Shared<u64>) {
            self.domain.stats.add_retired(1);
            self.domain.limbo.lock().unwrap().push(ptr.as_node_ptr());
        }

        fn flush(&mut self) {
            self.reclaim_if_quiescent();
        }
    }

    fn sharded(n: usize, routing: ShardRouting) -> Sharded<ToyDomain> {
        Sharded::with_config(SmrConfig {
            shards: n,
            routing,
            ..SmrConfig::default()
        })
    }

    #[test]
    fn by_key_routes_to_the_pinned_shard() {
        let d = sharded(4, ShardRouting::ByKey);
        let mut h = d.handle();
        for key in 0..8u64 {
            h.enter();
            h.pin_shard(key);
            assert_eq!(h.current_shard(), (key & 3) as usize);
            let node = h.alloc(key);
            // SAFETY: `node` came from this handle's `alloc`, was never
            // published, and is retired once.
            unsafe { h.retire(node) };
            h.leave();
        }
        // Each shard saw exactly its keys' traffic.
        for i in 0..4 {
            assert_eq!(d.shard(i).stats().allocated(), 2, "shard {i}");
            assert_eq!(d.shard(i).stats().retired(), 2, "shard {i}");
        }
        h.flush();
        assert!(d.stats().balanced());
        assert_eq!(d.stats().allocated(), 8);
    }

    #[test]
    fn pin_while_entered_reenters_the_new_shard() {
        let d = sharded(2, ShardRouting::ByKey);
        let mut h = d.handle();
        h.enter();
        // Deferred: no inner reservation exists until the first pin/access.
        assert_eq!(d.shard(0).readers.load(Ordering::SeqCst), 0);
        h.pin_shard(0);
        assert_eq!(d.shard(0).readers.load(Ordering::SeqCst), 1);
        h.pin_shard(1);
        assert_eq!(d.shard(0).readers.load(Ordering::SeqCst), 0);
        assert_eq!(d.shard(1).readers.load(Ordering::SeqCst), 1);
        h.leave();
        assert_eq!(d.shard(1).readers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn unpinned_access_materializes_the_reservation() {
        let d = sharded(2, ShardRouting::ByKey);
        let mut h = d.handle();
        h.enter();
        // A structure that never pins (list/stack/queue) still gets its
        // reservation the moment it first touches a node.
        let link = Atomic::new(h.alloc(9));
        assert_eq!(d.shard(0).readers.load(Ordering::SeqCst), 1);
        let seen = h.protect(0, &link);
        let node = link.swap(Shared::null(), Ordering::AcqRel);
        assert_eq!(seen, node);
        // SAFETY: `node` was just swapped out of `link`, so no later operation
        // can reach it, and it is retired once.
        unsafe { h.retire(node) };
        h.leave();
        assert_eq!(d.shard(0).readers.load(Ordering::SeqCst), 0);
        // An enter/leave pair with no access at all is a no-op.
        h.enter();
        assert_eq!(d.shard(0).readers.load(Ordering::SeqCst), 0);
        h.leave();
        h.flush();
        assert!(d.stats().balanced());
    }

    #[test]
    fn by_pointer_enters_all_shards_and_spreads_retires() {
        let d = sharded(4, ShardRouting::ByPointer);
        let mut h = d.handle();
        h.enter();
        for i in 0..4 {
            assert_eq!(d.shard(i).readers.load(Ordering::SeqCst), 1);
        }
        let mut nodes = Vec::new();
        for i in 0..256u64 {
            nodes.push(h.alloc(i));
        }
        for node in nodes {
            // SAFETY: each node came from this handle's `alloc`, was never
            // published, and is retired once.
            unsafe { h.retire(node) };
        }
        h.leave();
        h.flush();
        // Retires were spread: no shard got everything.
        let max = (0..4).map(|i| d.shard(i).stats().retired()).max().unwrap();
        assert!(max < 256, "pointer hashing routed everything to one shard");
        assert_eq!(d.stats().retired(), 256);
        assert!(d.stats().balanced());
    }

    #[test]
    fn aggregate_stats_sum_across_shards() {
        let d = sharded(2, ShardRouting::ByKey);
        let mut h = d.handle();
        h.enter();
        h.pin_shard(0);
        let a = h.alloc(1);
        // SAFETY: `a` came from this handle's `alloc`, was never published, and
        // is retired once.
        unsafe { h.retire(a) };
        h.pin_shard(1);
        let b = h.alloc(2);
        // SAFETY: `b` came from this handle's `alloc` and was never published.
        unsafe { h.dealloc(b) };
        h.leave();
        let stats = d.stats();
        assert_eq!(stats.allocated(), 2);
        assert_eq!(stats.retired(), 1);
        assert_eq!(stats.deallocated(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = sharded(3, ShardRouting::ByKey);
    }

    struct NotPtrShardable;

    impl Smr<u64> for NotPtrShardable {
        type Handle<'d> = ToyHandle<'d>;
        fn with_config(_: SmrConfig) -> Self {
            NotPtrShardable
        }
        fn handle(&self) -> ToyHandle<'_> {
            unimplemented!()
        }
        fn stats(&self) -> &SmrStats {
            unimplemented!()
        }
        fn name() -> &'static str {
            "NotPtrShardable"
        }
        fn robust() -> bool {
            false
        }
    }

    #[test]
    #[should_panic(expected = "ByPointer")]
    fn by_pointer_rejected_for_unsupported_schemes() {
        let _: Sharded<NotPtrShardable> = Sharded::with_config(SmrConfig {
            shards: 2,
            routing: ShardRouting::ByPointer,
            ..SmrConfig::default()
        });
    }
}
