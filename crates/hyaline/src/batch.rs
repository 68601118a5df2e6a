//! Batch construction and the retired-node header layout.
//!
//! Section 3.2 of the paper: threads accumulate retired nodes into local
//! *batches* and keep a single reference counter per batch. Each node keeps
//! three header words regardless of batch size or slot count:
//!
//! * **word 0** — the per-slot retirement-list `Next` pointer once the node
//!   is used to insert the batch into a slot. Before that the same word
//!   holds the node's *birth era* (the era variants; "birth eras share space
//!   with other variables, e.g. Next, as they are not required to survive
//!   retire"). It is read at `retire`, and read again when an active slot's
//!   access era falls inside the batch's birth range and the batch is cut
//!   there ([`LocalBatch::cut_younger`]): nothing overwrites it before the
//!   batch is finalized. On the batch's dedicated **REFS node** this word is
//!   the batch's `NRef` counter.
//! * **word 1** — `batch_link`: a pointer to the REFS node. On the REFS node
//!   itself this word stores the batch's `Adjs` constant instead (Section
//!   4.3: "the NRef node itself does not need to keep this pointer. Instead,
//!   we use this variable to store the current Adjs value for the batch").
//! * **word 2** — on the REFS node, the address of the batch's
//!   [`NodeBlock`]: the array naming every node of the batch, REFS first,
//!   each entry flagged [`NodeBlock::LIVE`] when the node carries a live
//!   payload (dummy nodes, added when a batch meets more active slots than
//!   it has insertion nodes, do not). It stands for the paper's
//!   `BatchNext` chain and its `First` pointer
//!   (`free_batch(Ref->First)`). Word 2 is unused on the other nodes.
//!
//! Freeing a batch reads its block, not its nodes: the block becomes the
//! freeing handle's recycle block whole, up to the magazine's bound
//! ([`NodePool::dispose_block`]), and node memory is read only to drop a payload that needs dropping. A
//! walk over a chain threaded through the nodes costs one dependent miss
//! per node when another core wrote the batch, which is the common case:
//! on `hashmap-stalled` (2 hardware threads of a 2.0 GHz Xeon) freeing a
//! full 64-node batch took a median of ≈ 16,100–16,900 TSC ticks
//! (≈ 8 µs) as a chain walk and ≈ 440–490 ticks from the block. The price is one array per
//! batch in flight, about 8 bytes per node; freed blocks are reused, so a
//! steady state allocates none.

use smr_core::{Magazine, NodeBlock, NodeHeader, NodePool, SmrNode, SmrStats};
use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;

/// Header word holding the slot-list `Next` / birth era / `NRef`.
pub(crate) const W_NEXT: usize = 0;
/// Header word holding `batch_link` / the batch `Adjs`.
pub(crate) const W_LINK: usize = 1;
/// Header word holding, on the REFS node, the batch's block.
const W_BLOCK: usize = 2;

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

/// The birth era in word 0 of the node a block entry names.
///
/// # Safety
///
/// The node is live and its word 0 still holds its birth era: it is pushed
/// to a batch that is not finalized yet.
#[inline]
unsafe fn birth<T>(entry: usize) -> u64 {
    // SAFETY: the caller guarantees a live node.
    unsafe { header((entry & !NodeBlock::LIVE) as *mut SmrNode<T>) }
        .word(W_NEXT)
        .load(Ordering::Relaxed) as u64
}

/// A thread-local batch under construction.
///
/// The first node pushed becomes the batch's REFS node (entry 0 of the
/// block); all later nodes point at the REFS node through `word 1`.
pub(crate) struct LocalBatch<T> {
    /// Names the batch's nodes; taken from the magazine by the first push.
    block: Option<NodeBlock>,
    refs_node: *mut SmrNode<T>,
    min_birth: u64,
    max_birth: u64,
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
            block: None,
            refs_node: std::ptr::null_mut(),
            min_birth: u64::MAX,
            max_birth: 0,
        }
    }

    /// Number of nodes pushed so far.
    pub(crate) fn count(&self) -> usize {
        self.block.as_ref().map_or(0, NodeBlock::len)
    }

    /// Whether no node has been pushed yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.block.is_none()
    }

    /// Adds a retired node, whose payload is live, to the batch; the first
    /// one takes an empty block from `pool` through `mag`. Dummies join
    /// only after finalizing ([`FinalizedBatch::extend_with_dummy`]).
    ///
    /// # Safety
    ///
    /// `node` must be exclusively owned (already unlinked and retired) and
    /// must remain untouched until the batch is finalized and inserted.
    pub(crate) unsafe fn push(
        &mut self,
        node: *mut SmrNode<T>,
        birth: u64,
        pool: &NodePool,
        mag: &mut Magazine,
    ) {
        match &mut self.block {
            Some(block) => {
                // SAFETY: the caller hands over `node` exclusively; it stays
                // live until the batch is inserted and its `NRef` crosses
                // zero.
                unsafe { header(node) }
                    .word(W_LINK)
                    .store(self.refs_node as usize, Ordering::Relaxed);
                block.push(node as usize | NodeBlock::LIVE);
            }
            None => {
                let mut block = pool.block(mag);
                block.push(node as usize | NodeBlock::LIVE);
                self.block = Some(block);
                self.refs_node = node;
            }
        }
        self.min_birth = self.min_birth.min(birth);
        self.max_birth = self.max_birth.max(birth);
    }

    /// The oldest and the youngest birth era among the pushed nodes.
    pub(crate) fn birth_range(&self) -> (u64, u64) {
        (self.min_birth, self.max_birth)
    }

    /// Cuts the batch at `era`: this batch keeps the nodes born at or
    /// before it, and the younger ones move to a batch of their own, named
    /// in an empty block taken from `pool` through `mag`, which is
    /// returned. Each part's first node becomes its REFS node, and every
    /// other node's word 1 is pointed at it; both parts are ordinary
    /// batches with their own birth range, so a slot whose access era is
    /// `era` is entered by the older part only.
    ///
    /// # Safety
    ///
    /// Every node's word 0 must hold the birth era it was pushed with,
    /// which holds in an era domain until [`LocalBatch::finalize`], and
    /// `min_birth <= era < max_birth`, so neither part is empty.
    pub(crate) unsafe fn cut_younger(
        &mut self,
        era: u64,
        pool: &NodePool,
        mag: &mut Magazine,
    ) -> LocalBatch<T> {
        debug_assert!(self.min_birth <= era && era < self.max_birth);
        let mut older = self.block.take().expect("cut of an empty batch");
        let mut younger = pool.block(mag);
        // SAFETY: every entry names a pushed node this thread still owns,
        // its birth era in word 0 (the caller's contract).
        older.move_where(&mut younger, |entry| unsafe { birth::<T>(entry) } > era);
        // SAFETY: as above; `min_birth <= era < max_birth` leaves a node on
        // either side.
        unsafe {
            *self = Self::from_block(older);
            Self::from_block(younger)
        }
    }

    /// The batch of the nodes `block` names: the first becomes REFS, every
    /// other one's word 1 points at it, and the birth range is read back
    /// from word 0.
    ///
    /// # Safety
    ///
    /// `block` is non-empty, and its entries name pushed nodes this thread
    /// owns, each with its birth era in word 0.
    unsafe fn from_block(block: NodeBlock) -> Self {
        let refs_node = (block.entries()[0] & !NodeBlock::LIVE) as *mut SmrNode<T>;
        let (mut min_birth, mut max_birth) = (u64::MAX, 0);
        for (i, &entry) in block.entries().iter().enumerate() {
            // SAFETY: the caller's contract.
            let born = unsafe { birth::<T>(entry) };
            min_birth = min_birth.min(born);
            max_birth = max_birth.max(born);
            if i > 0 {
                // SAFETY: as above: a node this thread owns.
                unsafe { header((entry & !NodeBlock::LIVE) as *mut SmrNode<T>) }
                    .word(W_LINK)
                    .store(refs_node as usize, Ordering::Relaxed);
            }
        }
        Self {
            block: Some(block),
            refs_node,
            min_birth,
            max_birth,
        }
    }

    /// Freezes the batch: initializes `NRef` to zero, records the batch's
    /// `Adjs`, and hands the block to the REFS node.
    ///
    /// Returns the frozen batch and resets this one.
    ///
    /// # Safety
    ///
    /// The batch must be non-empty.
    pub(crate) unsafe fn finalize(&mut self, adjs: usize) -> FinalizedBatch<T> {
        let refs = self.refs_node;
        let block = self.block.take().expect("finalize of an empty batch");
        // SAFETY: the batch is non-empty, so `refs` is a pushed node, which
        // this thread still owns: nothing is inserted yet.
        unsafe {
            header(refs).word(W_NEXT).store(0, Ordering::Relaxed); // NRef = 0
            header(refs).word(W_LINK).store(adjs, Ordering::Relaxed);
            header(refs)
                .word(W_BLOCK)
                .store(block.as_raw(), Ordering::Relaxed);
        }
        let out = FinalizedBatch {
            refs_node: refs,
            block: ManuallyDrop::new(block),
            min_birth: self.min_birth,
        };
        *self = Self::new();
        out
    }
}

/// A frozen batch ready for insertion into the slot lists.
pub(crate) struct FinalizedBatch<T> {
    /// The REFS node carrying the batch's `NRef` counter (entry 0).
    pub(crate) refs_node: *mut SmrNode<T>,
    /// The inserting thread's view of the block the REFS node owns: it
    /// reads insertion nodes from it and appends dummies, and must stop
    /// with the batch's last slot contribution, after which another thread
    /// may free it.
    block: ManuallyDrop<NodeBlock>,
    /// Smallest birth era among the batch's retired nodes.
    pub(crate) min_birth: u64,
}

impl<T> FinalizedBatch<T> {
    /// Entries in the block: REFS, the retired nodes, the dummies so far.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.block.len()
    }

    /// The node entry `i` names.
    ///
    /// # Safety
    ///
    /// Only the inserting thread, before the batch's last slot
    /// contribution; `i < self.len()`.
    #[inline]
    pub(crate) unsafe fn node(&self, i: usize) -> *mut SmrNode<T> {
        (self.block.entries()[i] & !NodeBlock::LIVE) as *mut SmrNode<T>
    }

    /// Appends the payload-less node `dummy` to the block, its live bit
    /// clear, as one more insertion node.
    ///
    /// The insertion loops call this when a slot is active and the block
    /// has no own node left for it: a partial batch is finalized with only
    /// its own nodes, and a full one can meet more active slots than it was
    /// sized for. Mutating the block is safe until the batch's last slot
    /// contribution is in, because only the thread whose adjustment brings
    /// `NRef` to zero reads the block, to free it. On owned slots that is
    /// the final `Inserts` adjustment, and every decrement before it leaves
    /// `NRef` below zero. On shared slots each finished slot adds `Adjs`,
    /// and `j · Adjs ≢ 0 (mod 2^64)` for `0 < j < k`, so `NRef` cannot
    /// reach zero while a slot is still to come; the last one comes in
    /// either through the skipped slots' adjustment or through the last
    /// insertion CAS, after every extension. A block that grows moves, so
    /// the REFS node's word 2 is rewritten with it.
    ///
    /// # Safety
    ///
    /// Must only be called by the inserting thread before the last slot's
    /// contribution (its insertion CAS or the final [`adjust_refs`]).
    /// `dummy` must be a fresh payload-less node this thread owns.
    pub(crate) unsafe fn extend_with_dummy(&mut self, dummy: *mut SmrNode<T>) {
        // SAFETY: before the last slot's contribution `NRef` cannot reach
        // zero, so the REFS node is live; `dummy` is this thread's own.
        unsafe {
            header(dummy)
                .word(W_LINK)
                .store(self.refs_node as usize, Ordering::Relaxed);
        }
        let before = self.block.as_raw();
        self.block.push(dummy as usize); // live bit clear
        if self.block.as_raw() != before {
            // SAFETY: as above, the REFS node is live and ours to write.
            unsafe { header(self.refs_node) }
                .word(W_BLOCK)
                .store(self.block.as_raw(), Ordering::Relaxed);
        }
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
/// recycle pool, returning how many nodes were freed (dummies included).
/// The batch's block goes to [`NodePool::dispose_block`]: payloads flagged
/// live are dropped now, and the block, with the node memory it names,
/// joins `mag` for reuse by subsequent allocations — or, with recycling
/// disabled, the nodes go straight back to the allocator. No node is read
/// to find the next one. This is the hyaline-family half of the common
/// `dispose` hook, and the family's only free path.
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
    // SAFETY: `NRef` crossed zero, so the whole batch, its block included,
    // is exclusively ours; the REFS node is still allocated.
    let block = unsafe { NodeBlock::from_raw(header(refs).word(W_BLOCK).load(Ordering::Acquire)) };
    // SAFETY: as above; each entry names a node of the batch, not yet
    // freed, flagged live exactly when its payload is.
    unsafe { pool.dispose_block::<T>(mag, stats, block) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_core::SmrConfig;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// A pool for nodes of `T` and a magazine of it: batches take their
    /// blocks from it, and frees return nodes to it.
    struct Rig {
        pool: NodePool,
        mag: Magazine,
        stats: SmrStats,
    }

    impl Rig {
        fn new<T>(recycle: bool) -> Self {
            let pool = NodePool::for_node::<T>(&SmrConfig {
                recycle,
                ..SmrConfig::default()
            });
            let mag = pool.magazine();
            Self {
                pool,
                mag,
                stats: SmrStats::new(),
            }
        }

        /// Pushes fresh nodes holding `values` with birth eras from `birth`.
        fn batch<T>(&mut self, values: impl IntoIterator<Item = T>, birth: u64) -> LocalBatch<T> {
            let mut batch = LocalBatch::new();
            for (i, v) in values.into_iter().enumerate() {
                let node = SmrNode::alloc(v);
                // SAFETY: `node` was just allocated and is exclusively owned.
                unsafe { batch.push(node.as_ptr(), birth + i as u64, &self.pool, &mut self.mag) };
            }
            batch
        }

        /// [`free_batch_into`] this rig's pool.
        ///
        /// # Safety
        ///
        /// [`free_batch_into`]'s contract.
        unsafe fn free<T>(&mut self, refs: *mut SmrNode<T>) -> u64 {
            // SAFETY: forwarded; the magazine belongs to the pool.
            unsafe { free_batch_into(refs, &self.pool, &mut self.mag, &self.stats) }
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            self.pool.flush(&mut self.mag, &self.stats);
        }
    }

    /// Counts its drops in its own test's counter: the tests run in
    /// parallel.
    struct Payload(Arc<AtomicU64>);
    impl Drop for Payload {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Allocates `n` nodes from the rig's pool, returning their sorted
    /// addresses, and disposes of them again.
    fn drain_addresses(rig: &mut Rig, drops: &Arc<AtomicU64>, n: usize) -> Vec<usize> {
        let nodes: Vec<_> = (0..n)
            .map(|_| {
                rig.pool
                    .alloc(&mut rig.mag, &rig.stats, Payload(Arc::clone(drops)))
            })
            .collect();
        let mut addrs: Vec<usize> = nodes.iter().map(|n| n.as_ptr() as usize).collect();
        for node in nodes {
            // SAFETY: allocated just above, exclusively owned, payload live.
            unsafe {
                rig.pool
                    .dispose(&mut rig.mag, &rig.stats, node.as_ptr(), true)
            };
        }
        addrs.sort_unstable();
        addrs
    }

    #[test]
    fn batch_chain_and_free() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut rig = Rig::new::<Payload>(true);
        let mut batch = rig.batch((0..5).map(|_| Payload(Arc::clone(&drops))), 100);
        assert_eq!(batch.count(), 5);
        let pushed: Vec<usize> = batch.block.as_ref().unwrap().entries().to_vec();
        // SAFETY: all five pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        assert_eq!(fin.min_birth, 100);
        assert!(batch.is_empty(), "finalize resets the batch");

        // Entries come out in insertion order, REFS first, all live; every
        // other node links to REFS, and REFS names the block.
        assert_eq!(fin.block.entries(), pushed.as_slice());
        assert!(pushed.iter().all(|&e| e & NodeBlock::LIVE != 0));
        // SAFETY: index 0 of a finalized, unpublished batch.
        assert_eq!(unsafe { fin.node(0) }, fin.refs_node);
        for i in 1..fin.len() {
            // SAFETY: the batch is unpublished, so every node is live.
            let link = unsafe { header(fin.node(i)) }
                .word(W_LINK)
                .load(Ordering::Relaxed);
            assert_eq!(link, fin.refs_node as usize);
        }
        // SAFETY: as above.
        let word2 = unsafe { header(fin.refs_node) }
            .word(W_BLOCK)
            .load(Ordering::Relaxed);
        assert_eq!(word2, fin.block.as_raw());

        // SAFETY: no other reference to the batch remains; freeing is final.
        assert_eq!(unsafe { rig.free(fin.refs_node) }, 5);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
        // The pool hands each freed node out exactly once.
        let mut freed: Vec<usize> = pushed.iter().map(|&e| e & !NodeBlock::LIVE).collect();
        freed.sort_unstable();
        assert_eq!(drain_addresses(&mut rig, &drops, 5), freed);
    }

    #[test]
    fn dummy_nodes_freed_without_drop() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut rig = Rig::new::<Payload>(true);
        let mut batch = rig.batch([Payload(Arc::clone(&drops))], 1);
        // SAFETY: the pushed node is live and unshared.
        let mut fin = unsafe { batch.finalize(0) };
        for _ in 0..3 {
            // SAFETY: dummy nodes carry no payload; alloc_dummy returns a
            // fresh allocation.
            let dummy = unsafe { SmrNode::<Payload>::alloc_dummy() }.as_ptr();
            // SAFETY: the unpublished batch takes the fresh dummy over.
            unsafe { fin.extend_with_dummy(dummy) };
            // SAFETY: the last entry is the dummy, a live node of the batch.
            assert_eq!(unsafe { fin.node(fin.len() - 1) }, dummy, "appended last");
            // SAFETY: as above.
            let link = unsafe { header(dummy) }
                .word(W_LINK)
                .load(Ordering::Relaxed);
            assert_eq!(link, fin.refs_node as usize, "a dummy leads to REFS");
        }
        let entries = fin.block.entries().to_vec();
        assert_eq!(entries[0] & NodeBlock::LIVE, NodeBlock::LIVE);
        assert!(
            entries[1..].iter().all(|&e| e & NodeBlock::LIVE == 0),
            "dummies join with their live bit clear"
        );
        assert_eq!(fin.min_birth, 1);
        // SAFETY: the batch was never published; this thread owns it outright.
        assert_eq!(unsafe { rig.free(fin.refs_node) }, 4);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            1,
            "only the real payload drops"
        );
        let mut freed: Vec<usize> = entries.iter().map(|&e| e & !NodeBlock::LIVE).collect();
        freed.sort_unstable();
        assert_eq!(drain_addresses(&mut rig, &drops, 4), freed);
    }

    #[test]
    fn dummies_past_capacity_move_the_block() {
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch([7u32], 0);
        // SAFETY: the pushed node is live and unshared.
        let mut fin = unsafe { batch.finalize(0) };
        let cap = fin.block.capacity();
        for _ in 0..cap {
            // SAFETY: a fresh payload-less node the unpublished batch takes.
            unsafe { fin.extend_with_dummy(SmrNode::<u32>::alloc_dummy().as_ptr()) };
        }
        assert!(fin.block.capacity() > cap, "the block grew");
        // SAFETY: the batch is unpublished, so REFS is live.
        let word2 = unsafe { header(fin.refs_node) }
            .word(W_BLOCK)
            .load(Ordering::Relaxed);
        assert_eq!(word2, fin.block.as_raw(), "REFS names the moved block");
        // SAFETY: never published; freeing is final.
        assert_eq!(unsafe { rig.free(fin.refs_node) }, cap as u64 + 1);
    }

    #[test]
    fn adjust_crosses_zero_exactly_once() {
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch(0..3u32, 0);
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        // SAFETY: index 1 of the finalized, unpublished batch.
        let node = unsafe { fin.node(1) };
        let mut reap = Vec::new();
        // Simulate: +5 (insert credit), then five -1 decrements.
        // SAFETY: `refs_node` belongs to the just-finalized batch.
        unsafe { adjust_refs(fin.refs_node, 5, &mut reap) };
        assert!(reap.is_empty());
        for i in 0..5 {
            // SAFETY: the batch stays live until the final decrement below.
            unsafe { decrement(node, &mut reap) };
            assert_eq!(reap.len(), usize::from(i == 4));
        }
        assert_eq!(reap.len(), 1);
        assert_eq!(reap[0], fin.refs_node);
        // SAFETY: NRef crossed zero and no other reference remains.
        unsafe { rig.free(fin.refs_node) };
    }

    #[test]
    fn slot_credit_uses_batch_stored_adjs() {
        // Two batches finalized under different slot counts must be adjusted
        // with their own Adjs values (the §4.3 adaptive-resizing invariant).
        let adjs_small = (usize::MAX / 2).wrapping_add(1); // k = 2
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch(0..3u32, 0);
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(adjs_small) };
        // SAFETY: index 1 of the finalized, unpublished batch.
        let node = unsafe { fin.node(1) };
        let mut reap = Vec::new();
        // One slot credited with HRef snapshot 1, then one decrement, then
        // the second slot's credit: NRef = 2*Adjs + 1 - 1 = 0 (mod 2^64).
        // SAFETY: `node` is a live node of the finalized batch.
        unsafe { adjust_slot_credit(node, 1, &mut reap) };
        assert!(reap.is_empty());
        // SAFETY: the batch is still live (NRef has not crossed zero yet).
        unsafe { decrement(node, &mut reap) };
        assert!(reap.is_empty());
        // SAFETY: last credit; the batch is freed only via `reap` below.
        unsafe { adjust_slot_credit(node, 0, &mut reap) };
        assert_eq!(reap.len(), 1);
        // SAFETY: NRef crossed zero and no other reference remains.
        unsafe { rig.free(fin.refs_node) };
    }

    #[test]
    fn adjust_with_zero_frees_untouched_batch() {
        // The all-slots-empty retire path: Empty = k * Adjs wraps to zero and
        // NRef is still zero, so the batch frees immediately.
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch(0..2u32, 0);
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        let mut reap = Vec::new();
        // SAFETY: `refs_node` belongs to the just-finalized, unpublished batch.
        unsafe { adjust_refs(fin.refs_node, 0, &mut reap) };
        assert_eq!(reap.len(), 1);
        // SAFETY: NRef is zero and this thread holds the only reference.
        unsafe { rig.free(fin.refs_node) };
    }

    #[test]
    fn singleton_batch_free() {
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch([1u32], 0);
        // SAFETY: the single pushed node is live and unshared.
        let fin = unsafe { batch.finalize(0) };
        // SAFETY: the batch was never published; freeing is safe and final.
        assert_eq!(unsafe { rig.free(fin.refs_node) }, 1);
    }
}
