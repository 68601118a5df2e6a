//! Batch construction and the retired-node header layout.
//!
//! Section 3.2 of the paper: threads accumulate retired nodes into local
//! *batches* and keep a single reference counter per batch. Each node keeps
//! three header words regardless of batch size or slot count:
//!
//! * **word 0** — the per-slot retirement-list `Next` pointer once the node
//!   is used to insert the batch into a slot. Before retirement the same word
//!   holds the node's *birth era* (Hyaline-S; "birth eras share space with
//!   other variables, e.g. Next, as they are not required to survive
//!   retire"). On the batch's dedicated **REFS node** this word is the
//!   batch's `NRef` counter.
//! * **word 1** — `batch_link`: a pointer to the REFS node. On the REFS node
//!   itself this word stores the batch's `Adjs` constant instead (Section
//!   4.3: "the NRef node itself does not need to keep this pointer. Instead,
//!   we use this variable to store the current Adjs value for the batch").
//! * **word 2** — `batch_next`: the chain linking all nodes of the batch,
//!   with the low bit flagging whether the node carries a live payload
//!   (dummy nodes, added when a batch meets more active slots than it has
//!   insertion nodes, do not). On the
//!   REFS node — the chain's tail — this word points back to the chain head
//!   (`First` in the paper's `free_batch(Ref->First)`).

use smr_core::{Magazine, NodeHeader, NodePool, SmrNode, SmrStats};
use std::sync::atomic::Ordering;

/// Header word holding the slot-list `Next` / birth era / `NRef`.
pub(crate) const W_NEXT: usize = 0;
/// Header word holding `batch_link` / the batch `Adjs`.
pub(crate) const W_LINK: usize = 1;
/// Header word holding the `batch_next` chain (low bit: payload-live flag).
pub(crate) const W_CHAIN: usize = 2;

/// Low bit of `W_CHAIN`: set when the node has a live payload.
const LIVE_BIT: usize = 1;

/// Borrows the SMR header embedded in `node`.
///
/// # Safety
///
/// `node` must point to a live `SmrNode<T>` allocation, and the returned
/// reference must not outlive the node's reclamation.
#[inline]
pub(crate) unsafe fn header<'a, T: 'a>(node: *mut SmrNode<T>) -> &'a NodeHeader {
    // SAFETY: the caller guarantees a live node that outlives the borrow.
    unsafe { (*node).header() }
}

/// A thread-local batch under construction.
///
/// The first node pushed becomes the batch's REFS node (the chain tail); all
/// later nodes prepend to the chain and point at the REFS node through
/// `word 1`.
pub(crate) struct LocalBatch<T> {
    chain_head: *mut SmrNode<T>,
    refs_node: *mut SmrNode<T>,
    count: usize,
    min_birth: u64,
}

impl<T> Default for LocalBatch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LocalBatch<T> {
    /// An empty batch.
    pub(crate) fn new() -> Self {
        Self {
            chain_head: std::ptr::null_mut(),
            refs_node: std::ptr::null_mut(),
            count: 0,
            min_birth: u64::MAX,
        }
    }

    /// Number of nodes pushed so far.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Whether no node has been pushed yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds a retired node, whose payload is live, to the batch. Dummies
    /// join only after finalizing ([`FinalizedBatch::extend_with_dummy`]).
    ///
    /// # Safety
    ///
    /// `node` must be exclusively owned (already unlinked and retired) and
    /// must remain untouched until the batch is finalized and inserted.
    pub(crate) unsafe fn push(&mut self, node: *mut SmrNode<T>, birth: u64) {
        // SAFETY: the caller hands over `node` exclusively; it stays live
        // until the batch is inserted and its `NRef` crosses zero.
        unsafe { header(node) }
            .word(W_CHAIN)
            .store(self.chain_head as usize | LIVE_BIT, Ordering::Relaxed);
        if self.refs_node.is_null() {
            self.refs_node = node;
        } else {
            // SAFETY: as above.
            unsafe { header(node) }
                .word(W_LINK)
                .store(self.refs_node as usize, Ordering::Relaxed);
        }
        self.chain_head = node;
        self.count += 1;
        self.min_birth = self.min_birth.min(birth);
    }

    /// Freezes the batch: initializes `NRef` to zero, records the batch's
    /// `Adjs`, and closes the chain cycle (REFS → chain head).
    ///
    /// Returns `(refs_node, chain_head, min_birth)` and resets the batch.
    ///
    /// # Safety
    ///
    /// The batch must be non-empty.
    pub(crate) unsafe fn finalize(&mut self, adjs: usize) -> FinalizedBatch<T> {
        debug_assert!(!self.is_empty());
        let refs = self.refs_node;
        // SAFETY: the batch is non-empty, so `refs` is a pushed node, which
        // this thread still owns: nothing is inserted yet.
        unsafe {
            header(refs).word(W_NEXT).store(0, Ordering::Relaxed); // NRef = 0
            header(refs).word(W_LINK).store(adjs, Ordering::Relaxed);
            header(refs)
                .word(W_CHAIN)
                .store(self.chain_head as usize | LIVE_BIT, Ordering::Relaxed);
        }
        let out = FinalizedBatch {
            refs_node: refs,
            chain_head: self.chain_head,
            min_birth: self.min_birth,
        };
        *self = Self::new();
        out
    }
}

/// A frozen batch ready for insertion into the slot lists.
pub(crate) struct FinalizedBatch<T> {
    /// The REFS node carrying the batch's `NRef` counter (chain tail).
    pub(crate) refs_node: *mut SmrNode<T>,
    /// First node of the chain as finalized: the first insertion node.
    /// Dummies are prepended in front of it, and only REFS' chain word
    /// tracks them.
    pub(crate) chain_head: *mut SmrNode<T>,
    /// Smallest birth era among the batch's retired nodes.
    pub(crate) min_birth: u64,
}

impl<T> FinalizedBatch<T> {
    /// Prepends the payload-less node `dummy` to the chain as one more
    /// insertion node. It writes node words only, so it borrows the batch
    /// shared.
    ///
    /// The insertion loops call this when a slot is active and the chain has
    /// no own node left for it: a partial batch is finalized with only its
    /// own nodes, and a full one can meet more active slots than it was
    /// sized for. Mutating the chain is safe until the batch's last slot
    /// contribution is in, because only the thread whose adjustment brings
    /// `NRef` to zero walks the chain, to free it. On owned slots that is
    /// the final `Inserts` adjustment, and every decrement before it leaves
    /// `NRef` below zero. On shared slots each finished slot adds `Adjs`,
    /// and `j · Adjs ≢ 0 (mod 2^64)` for `0 < j < k`, so `NRef` cannot
    /// reach zero while a slot is still to come; the last one comes in
    /// either through the skipped slots' adjustment or through the last
    /// insertion CAS, after every extension.
    ///
    /// # Safety
    ///
    /// Must only be called by the inserting thread before the last slot's
    /// contribution (its insertion CAS or the final [`adjust_refs`]).
    /// `dummy` must be a fresh payload-less node this thread owns.
    pub(crate) unsafe fn extend_with_dummy(&self, dummy: *mut SmrNode<T>) {
        // SAFETY: before the last slot's contribution `NRef` cannot reach
        // zero, so the REFS node is live; `dummy` is this thread's own.
        unsafe {
            let refs_chain = header(self.refs_node).word(W_CHAIN);
            header(dummy)
                .word(W_LINK)
                .store(self.refs_node as usize, Ordering::Relaxed);
            let head = refs_chain.load(Ordering::Relaxed) & !LIVE_BIT;
            header(dummy).word(W_CHAIN).store(head, Ordering::Relaxed); // live bit clear
            refs_chain.store(dummy as usize | LIVE_BIT, Ordering::Relaxed); // REFS is retired
        }
    }
}

/// The insertion node that follows `node` once a CAS has linked it: a
/// retired node's chain successor (`word 2`, which is `refs` once the
/// batch's own nodes are used up), or `refs` again after a dummy, whose
/// chain successor was used before it. Every node a [`LocalBatch`] holds is
/// a retired payload node, so the live bit tells the two apart.
///
/// # Safety
///
/// `node` must be a live node of the batch whose REFS node is `refs`.
#[inline]
pub(crate) unsafe fn after_insertion<T>(
    node: *mut SmrNode<T>,
    refs: *mut SmrNode<T>,
) -> *mut SmrNode<T> {
    // SAFETY: the caller guarantees `node` is a live node of the batch.
    // ORDERING: Relaxed suffices — only the inserting thread reads the chain
    // here, and it wrote every link itself.
    let chain = unsafe { header(node) }
        .word(W_CHAIN)
        .load(Ordering::Relaxed);
    if chain & LIVE_BIT != 0 {
        (chain & !LIVE_BIT) as *mut SmrNode<T>
    } else {
        refs
    }
}

/// Decrements the `NRef` of the batch `node` belongs to by one (the paper's
/// `traverse` step, Figure 3 line 50). If the counter crosses zero the REFS
/// node is pushed onto `reap` for deferred freeing.
///
/// # Safety
///
/// `node` must be a non-REFS batch node whose batch has been finalized, and
/// the caller must still hold a logical reference to it.
#[inline]
pub(crate) unsafe fn decrement<T>(node: *mut SmrNode<T>, reap: &mut Vec<*mut SmrNode<T>>) {
    // SAFETY: the caller's logical reference keeps `node`, and so its
    // finalized batch's REFS node, live until this decrement lands.
    unsafe {
        let refs = header(node).word(W_LINK).load(Ordering::Acquire) as *mut SmrNode<T>;
        adjust_refs(refs, 1usize.wrapping_neg(), reap);
    }
}

/// Credits the batch `node` belongs to with one slot's completion: its own
/// stored `Adjs` plus `href_snapshot` (the paper's `adjust(node, Adjs +
/// Head.HRef)`, Figure 3 lines 17/39). Reading `Adjs` from the batch's REFS
/// node — rather than a global — is what makes §4.3 adaptive resizing sound:
/// every batch is adjusted with the slot count it was retired under.
///
/// # Safety
///
/// Same requirements as [`decrement`].
#[inline]
pub(crate) unsafe fn adjust_slot_credit<T>(
    node: *mut SmrNode<T>,
    href_snapshot: usize,
    reap: &mut Vec<*mut SmrNode<T>>,
) {
    // SAFETY: as in `decrement`: the caller's reference keeps the batch,
    // and its REFS node, live until the adjustment lands.
    unsafe {
        let refs = header(node).word(W_LINK).load(Ordering::Acquire) as *mut SmrNode<T>;
        let adjs = header(refs).word(W_LINK).load(Ordering::Acquire);
        adjust_refs(refs, adjs.wrapping_add(href_snapshot), reap);
    }
}

/// Adds `val` to a batch's `NRef` given its REFS node directly (the paper's
/// `adjust(batch->FirstNode(), Empty)` / Hyaline-1 `Inserts` adjustment).
///
/// # Safety
///
/// `refs` must be a finalized batch's REFS node.
#[inline]
pub(crate) unsafe fn adjust_refs<T>(
    refs: *mut SmrNode<T>,
    val: usize,
    reap: &mut Vec<*mut SmrNode<T>>,
) {
    // SAFETY: a finalized batch's REFS node lives until its `NRef` crosses
    // zero, which at the earliest is this adjustment.
    let old = unsafe { header(refs) }
        .word(W_NEXT)
        .fetch_add(val, Ordering::AcqRel);
    if old.wrapping_add(val) == 0 {
        reap.push(refs);
    }
}

/// Frees every node of the batch owned by `refs` through the domain's
/// recycle pool, returning how many nodes were freed (dummies included):
/// payloads are dropped immediately (per the chain's live bits) while the
/// node memory is handed to `pool`/`mag` for reuse by subsequent
/// allocations — or, with recycling disabled, straight back to the
/// allocator. This is the hyaline-family half of the common `dispose` hook,
/// and the family's only free loop.
///
/// # Safety
///
/// The batch's `NRef` must have crossed zero: no thread can still reference
/// any node of the batch. `mag` must belong to `pool`.
pub(crate) unsafe fn free_batch_into<T>(
    refs: *mut SmrNode<T>,
    pool: &NodePool,
    mag: &mut Magazine,
    stats: &SmrStats,
) -> u64 {
    // SAFETY: `NRef` crossed zero, so the whole batch is exclusively ours
    // and each node is still allocated until its own `dispose` below.
    let refs_word = unsafe { header(refs) }
        .word(W_CHAIN)
        .load(Ordering::Acquire);
    let mut cur = (refs_word & !LIVE_BIT) as *mut SmrNode<T>;
    let mut freed = 0u64;
    while cur != refs {
        // SAFETY: as above; `cur` is a chain node not yet disposed.
        let w = unsafe { header(cur) }.word(W_CHAIN).load(Ordering::Relaxed);
        let next = (w & !LIVE_BIT) as *mut SmrNode<T>;
        // SAFETY: the batch is exclusively ours (NRef crossed zero) and the
        // live bit says whether this node's payload was ever initialized.
        unsafe { pool.dispose(mag, stats, cur, w & LIVE_BIT != 0) };
        freed += 1;
        cur = next;
    }
    // SAFETY: as above, for the REFS node itself (the chain tail).
    unsafe { pool.dispose(mag, stats, refs, refs_word & LIVE_BIT != 0) };
    freed + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_core::SmrConfig;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// [`free_batch_into`] a pool with recycling off: every node goes
    /// straight back to malloc, so the temporary magazine stays empty.
    ///
    /// # Safety
    ///
    /// [`free_batch_into`]'s contract.
    unsafe fn free_now<T>(refs: *mut SmrNode<T>) -> u64 {
        let pool = NodePool::for_node::<T>(&SmrConfig {
            recycle: false,
            ..SmrConfig::default()
        });
        // SAFETY: the caller upholds `free_batch_into`'s contract, and `pool`
        // made the magazine.
        unsafe { free_batch_into(refs, &pool, &mut pool.magazine(), &SmrStats::new()) }
    }

    /// Counts its drops in its own test's counter: the tests run in
    /// parallel.
    struct Payload(Arc<AtomicU64>);
    impl Drop for Payload {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn batch_chain_and_free() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut batch = LocalBatch::<Payload>::new();
        for i in 0..5 {
            let node = SmrNode::alloc(Payload(Arc::clone(&drops)));
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 100 + i) };
        }
        assert_eq!(batch.count(), 5);
        // SAFETY: all five pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        assert_eq!(fin.min_birth, 100);

        // Chain from head reaches the REFS node in (count - 1) hops.
        let mut cur = fin.chain_head;
        let mut hops = 0;
        while cur != fin.refs_node {
            // SAFETY: `cur` is a live batch node; the chain is fully linked.
            cur = unsafe { after_insertion(cur, fin.refs_node) };
            hops += 1;
        }
        assert_eq!(hops, 4);

        // SAFETY: no other reference to the batch remains; freeing is final.
        let freed = unsafe { free_now(fin.refs_node) };
        assert_eq!(freed, 5);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn dummy_nodes_freed_without_drop() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut batch = LocalBatch::<Payload>::new();
        let real = SmrNode::alloc(Payload(Arc::clone(&drops)));
        // SAFETY: `real` was just allocated and is exclusively owned.
        unsafe { batch.push(real.as_ptr(), 1) };
        // SAFETY: the pushed node is live and unshared.
        let fin = unsafe { batch.finalize(0) };
        for _ in 0..3 {
            // SAFETY: dummy nodes carry no payload; alloc_dummy returns a
            // fresh allocation.
            let dummy = unsafe { SmrNode::<Payload>::alloc_dummy() }.as_ptr();
            // SAFETY: the unpublished batch takes the fresh dummy over.
            unsafe { fin.extend_with_dummy(dummy) };
            // SAFETY: `dummy` is now a live, unshared node of the batch.
            let after = unsafe { after_insertion(dummy, fin.refs_node) };
            assert_eq!(after, fin.refs_node, "a dummy leads back to REFS");
        }
        assert_eq!(fin.min_birth, 1);
        // SAFETY: the batch was never published; this thread owns it outright.
        let freed = unsafe { free_now(fin.refs_node) };
        assert_eq!(freed, 4);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            1,
            "only the real payload drops"
        );
    }

    #[test]
    fn adjust_crosses_zero_exactly_once() {
        let mut batch = LocalBatch::<u32>::new();
        for v in 0..3 {
            let node = SmrNode::alloc(v);
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 0) };
        }
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        let mut reap = Vec::new();
        // Simulate: +5 (insert credit), then five -1 decrements.
        // SAFETY: `refs_node` belongs to the just-finalized batch.
        unsafe { adjust_refs(fin.refs_node, 5, &mut reap) };
        assert!(reap.is_empty());
        for i in 0..5 {
            // SAFETY: the batch stays live until the final decrement below.
            unsafe { decrement(fin.chain_head, &mut reap) };
            assert_eq!(reap.len(), usize::from(i == 4));
        }
        assert_eq!(reap.len(), 1);
        assert_eq!(reap[0], fin.refs_node);
        // SAFETY: NRef crossed zero and no other reference remains.
        unsafe { free_now(fin.refs_node) };
    }

    #[test]
    fn slot_credit_uses_batch_stored_adjs() {
        // Two batches finalized under different slot counts must be adjusted
        // with their own Adjs values (the §4.3 adaptive-resizing invariant).
        let adjs_small = (usize::MAX / 2).wrapping_add(1); // k = 2
        let mut batch = LocalBatch::<u32>::new();
        for v in 0..3 {
            let node = SmrNode::alloc(v);
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 0) };
        }
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(adjs_small) };
        let mut reap = Vec::new();
        // One slot credited with HRef snapshot 1, then one decrement, then
        // the second slot's credit: NRef = 2*Adjs + 1 - 1 = 0 (mod 2^64).
        // SAFETY: `chain_head` is a live node of the finalized batch.
        unsafe { adjust_slot_credit(fin.chain_head, 1, &mut reap) };
        assert!(reap.is_empty());
        // SAFETY: the batch is still live (NRef has not crossed zero yet).
        unsafe { decrement(fin.chain_head, &mut reap) };
        assert!(reap.is_empty());
        // SAFETY: last credit; the batch is freed only via `reap` below.
        unsafe { adjust_slot_credit(fin.chain_head, 0, &mut reap) };
        assert_eq!(reap.len(), 1);
        // SAFETY: NRef crossed zero and no other reference remains.
        unsafe { free_now(fin.refs_node) };
    }

    #[test]
    fn adjust_with_zero_frees_untouched_batch() {
        // The all-slots-empty retire path: Empty = k * Adjs wraps to zero and
        // NRef is still zero, so the batch frees immediately.
        let mut batch = LocalBatch::<u32>::new();
        for v in 0..2 {
            let node = SmrNode::alloc(v);
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 0) };
        }
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        let mut reap = Vec::new();
        // SAFETY: `refs_node` belongs to the just-finalized, unpublished batch.
        unsafe { adjust_refs(fin.refs_node, 0, &mut reap) };
        assert_eq!(reap.len(), 1);
        // SAFETY: NRef is zero and this thread holds the only reference.
        unsafe { free_now(fin.refs_node) };
    }

    #[test]
    fn singleton_batch_free() {
        let mut batch = LocalBatch::<u32>::new();
        let node = SmrNode::alloc(1);
        // SAFETY: `node` was just allocated and is exclusively owned.
        unsafe { batch.push(node.as_ptr(), 0) };
        // SAFETY: the single pushed node is live and unshared.
        let fin = unsafe { batch.finalize(0) };
        // SAFETY: the batch was never published; freeing is safe and final.
        assert_eq!(unsafe { free_now(fin.refs_node) }, 1);
    }
}
