//! Batch construction and the retired-node header layout.
//!
//! Section 3.2 of the paper: threads accumulate retired nodes into local
//! *batches* and keep a single reference counter per batch. A batch names
//! its nodes in a [`NodeBlock`], and the block's header carries the
//! batch's `NRef` counter and its `Adjs` constant
//! ([`smr_core::BatchWords`]), which the paper keeps in the batch's first
//! node (§4.3). So no node is special: every node keeps the same two
//! header words, and every node can link the batch into a slot.
//!
//! * **word 0** — the per-slot retirement-list `Next` pointer once the node
//!   is used to insert the batch into a slot. Before that the same word
//!   holds the node's *birth era* (the era variants; "birth eras share space
//!   with other variables, e.g. Next, as they are not required to survive
//!   retire"). It is read at `retire`, and read again when an active slot's
//!   access era falls inside the batch's birth range and the batch is cut
//!   there ([`LocalBatch::cut_younger`]): nothing overwrites it before the
//!   batch is finalized.
//! * **word 1** — `batch_link`: the address of the batch's block, through
//!   which a thread holding a reference on the batch reaches its `NRef` and
//!   `Adjs`. A block never moves once any node of its batch is linked: a
//!   block that grows before then relinks its nodes, and past its capacity
//!   a published batch chains an overflow block through the block's header
//!   link, which no chain uses while the batch is live.
//! * **word 2** — unused by the batch family.
//!
//! The block names every node of the batch, each entry flagged
//! [`NodeBlock::LIVE`] when the node carries a live payload (dummy nodes,
//! added when a batch meets more active slots than it has nodes, do not).
//! It stands for the paper's `BatchNext` chain and its `First` pointer
//! (`free_batch(Ref->First)`).
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
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;

/// Header word holding the slot-list `Next` / birth era.
pub(crate) const W_NEXT: usize = 0;
/// Header word holding `batch_link`, the batch's block address.
pub(crate) const W_LINK: usize = 1;

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

/// The node a block entry names.
#[inline]
fn entry_node<T>(entry: usize) -> *mut SmrNode<T> {
    (entry & !NodeBlock::LIVE) as *mut SmrNode<T>
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
    unsafe { header(entry_node::<T>(entry)) }
        .word(W_NEXT)
        .load(Ordering::Relaxed) as u64
}

/// Points word 1 of every node `block` names at `block`, after the block
/// moved or changed hands. Cold: a batch outgrows its block only when it
/// is larger than a full batch.
///
/// # Safety
///
/// Every entry names a live node this thread owns, none linked yet.
#[cold]
#[inline(never)]
unsafe fn relink<T>(block: &NodeBlock) {
    let raw = block.as_raw();
    for &entry in block.entries() {
        // SAFETY: the caller's contract.
        unsafe { header(entry_node::<T>(entry)) }
            .word(W_LINK)
            .store(raw, Ordering::Relaxed);
    }
}

/// A thread-local batch under construction: every node pushed names the
/// batch's block through word 1.
pub(crate) struct LocalBatch<T> {
    /// Names the batch's nodes; taken from the magazine by the first push.
    block: Option<NodeBlock>,
    min_birth: u64,
    max_birth: u64,
    _nodes: PhantomData<*mut SmrNode<T>>,
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
            min_birth: u64::MAX,
            max_birth: 0,
            _nodes: PhantomData,
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
        let block = self.block.get_or_insert_with(|| pool.block(mag));
        if block.len() == block.capacity() {
            block.reserve_total(block.len() + 1);
            // SAFETY: the block names this thread's pushed, unlinked nodes.
            unsafe { relink::<T>(block) };
        }
        // SAFETY: the caller hands over `node` exclusively; it stays live
        // until the batch is inserted and its `NRef` crosses zero.
        unsafe { header(node) }
            .word(W_LINK)
            .store(block.as_raw(), Ordering::Relaxed);
        block.push(node as usize | NodeBlock::LIVE);
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
    /// returned. Both parts are ordinary batches with their own birth
    /// range, so a slot whose access era is `era` is entered by the older
    /// part only.
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

    /// The batch of the nodes `block` names: every one's word 1 is pointed
    /// at the block, and the birth range is read back from word 0.
    ///
    /// # Safety
    ///
    /// `block` is non-empty, and its entries name pushed nodes this thread
    /// owns, each with its birth era in word 0.
    unsafe fn from_block(block: NodeBlock) -> Self {
        let (mut min_birth, mut max_birth) = (u64::MAX, 0);
        for &entry in block.entries() {
            // SAFETY: the caller's contract.
            let born = unsafe { birth::<T>(entry) };
            min_birth = min_birth.min(born);
            max_birth = max_birth.max(born);
        }
        // SAFETY: as above: nodes this thread owns, none linked.
        unsafe { relink::<T>(&block) };
        Self {
            block: Some(block),
            min_birth,
            max_birth,
            _nodes: PhantomData,
        }
    }

    /// Freezes the batch: grows its block to hold `reserve` entries if it
    /// is smaller (the insertions the loop can make, so that it need not
    /// grow once a node is linked), and initializes the block's
    /// [`smr_core::BatchWords`]: `NRef` to zero and `Adjs` to `adjs`.
    ///
    /// Returns the frozen batch and resets this one.
    ///
    /// # Safety
    ///
    /// The batch must be non-empty.
    pub(crate) unsafe fn finalize(&mut self, adjs: usize, reserve: usize) -> FinalizedBatch<T> {
        let mut block = self.block.take().expect("finalize of an empty batch");
        if block.capacity() < reserve {
            block.reserve_total(reserve);
            // SAFETY: nothing is inserted yet: the batch's nodes are this
            // thread's own.
            unsafe { relink::<T>(&block) };
        }
        // The header link names the overflow block, and there is none yet.
        block.set_next(0);
        let words = block.batch();
        words.nref.store(0, Ordering::Relaxed);
        words.adjs.store(adjs, Ordering::Relaxed);
        let out = FinalizedBatch {
            block: ManuallyDrop::new(block),
            overflow: None,
            min_birth: self.min_birth,
            _nodes: PhantomData,
        };
        *self = Self::new();
        out
    }
}

/// A frozen batch ready for insertion into the slot lists.
pub(crate) struct FinalizedBatch<T> {
    /// The inserting thread's view of the batch's block: it reads insertion
    /// nodes from it and appends dummies, and must stop with the batch's
    /// last slot contribution, after which another thread may free it.
    block: ManuallyDrop<NodeBlock>,
    /// Dummies past the block's capacity, in a block the main block's
    /// header link names; `None` while the block has room.
    overflow: Option<ManuallyDrop<NodeBlock>>,
    /// Smallest birth era among the batch's retired nodes.
    pub(crate) min_birth: u64,
    _nodes: PhantomData<*mut SmrNode<T>>,
}

impl<T> FinalizedBatch<T> {
    /// The address of the batch's block: what every node's word 1 names,
    /// and what [`adjust_refs`] and a handoff cell take.
    #[inline]
    pub(crate) fn raw(&self) -> usize {
        self.block.as_raw()
    }

    /// Nodes in the batch: the retired nodes, then the dummies so far.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.block.len() + self.overflow.as_ref().map_or(0, |o| o.len())
    }

    /// The `i`-th node of the batch.
    ///
    /// # Safety
    ///
    /// Only the inserting thread, before the batch's last slot
    /// contribution; `i < self.len()`.
    #[inline]
    pub(crate) unsafe fn node(&self, i: usize) -> *mut SmrNode<T> {
        let own = self.block.len();
        entry_node(if i < own {
            self.block.entries()[i]
        } else {
            self.overflow
                .as_ref()
                .expect("node past the batch")
                .entries()[i - own]
        })
    }

    /// Appends the payload-less node `dummy` to the batch, its live bit
    /// clear, as one more insertion node. Past the block's capacity it goes
    /// to the overflow block, taken from `spare` on first use, so the
    /// block itself never moves: other threads reach `NRef` through it.
    ///
    /// The insertion loops call this when a slot is active and the batch
    /// has no own node left for it: a partial batch is finalized with only
    /// its own nodes, and a full one can meet more active slots than it
    /// has nodes. Mutating the batch is safe until its last slot
    /// contribution is in, because only the thread whose adjustment brings
    /// `NRef` to zero reads the block, to free it. On owned slots that is
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
    pub(crate) unsafe fn extend_with_dummy(
        &mut self,
        dummy: *mut SmrNode<T>,
        spare: impl FnOnce() -> NodeBlock,
    ) {
        let raw = self.block.as_raw();
        // SAFETY: `dummy` is this thread's own.
        unsafe { header(dummy) }
            .word(W_LINK)
            .store(raw, Ordering::Relaxed);
        if self.block.len() < self.block.capacity() {
            self.block.push(dummy as usize); // live bit clear
        } else {
            self.push_overflow(dummy as usize, spare);
        }
        debug_assert_eq!(self.block.as_raw(), raw, "a published batch's block moved");
    }

    /// Appends `entry` to the overflow block. The overflow block may grow,
    /// and so move: only the main block's header link names it, and only
    /// the thread that frees the batch reads that link.
    #[cold]
    #[inline(never)]
    fn push_overflow(&mut self, entry: usize, spare: impl FnOnce() -> NodeBlock) {
        let overflow = self
            .overflow
            .get_or_insert_with(|| ManuallyDrop::new(spare()));
        overflow.push(entry);
        let at = overflow.as_raw();
        self.block.set_next(at);
    }
}

/// Decrements the `NRef` of the batch `node` belongs to by one (the paper's
/// `traverse` step, Figure 3 line 50). If the counter crosses zero the
/// batch's block is pushed onto `reap` for deferred freeing.
///
/// # Safety
///
/// `node` must be a node of a finalized batch, and the caller must still
/// hold a logical reference to it.
#[inline]
pub(crate) unsafe fn decrement<T>(node: *mut SmrNode<T>, reap: &mut Vec<usize>) {
    // SAFETY: the caller's logical reference keeps `node`, and so its
    // finalized batch's block, live until this decrement lands.
    unsafe {
        let raw = header(node).word(W_LINK).load(Ordering::Acquire);
        adjust_refs(raw, 1usize.wrapping_neg(), reap);
    }
}

/// Credits the batch `node` belongs to with one slot's completion: its own
/// stored `Adjs` plus `href_snapshot` (the paper's `adjust(node, Adjs +
/// Head.HRef)`, Figure 3 lines 17/39). Reading `Adjs` from the batch's
/// block — rather than a global — is what makes §4.3 adaptive resizing
/// sound: every batch is adjusted with the slot count it was retired under.
///
/// # Safety
///
/// Same requirements as [`decrement`].
#[inline]
pub(crate) unsafe fn adjust_slot_credit<T>(
    node: *mut SmrNode<T>,
    href_snapshot: usize,
    reap: &mut Vec<usize>,
) {
    // SAFETY: as in `decrement`: the caller's reference keeps the batch,
    // and its block, live until the adjustment lands.
    unsafe {
        let raw = header(node).word(W_LINK).load(Ordering::Acquire);
        let adjs = NodeBlock::batch_at(raw).adjs.load(Ordering::Acquire);
        adjust_refs(raw, adjs.wrapping_add(href_snapshot), reap);
    }
}

/// Adds `val` to the `NRef` of the batch whose block is at `raw` (the
/// paper's `adjust(batch->FirstNode(), Empty)` / Hyaline-1 `Inserts`
/// adjustment).
///
/// # Safety
///
/// `raw` must be a finalized batch's block, on which the caller still
/// holds the reference (or the credit) this adjustment gives.
#[inline]
pub(crate) unsafe fn adjust_refs(raw: usize, val: usize, reap: &mut Vec<usize>) {
    // SAFETY: a finalized batch's block lives until its `NRef` crosses
    // zero, which at the earliest is this adjustment, and it never moves
    // once a node of the batch is linked.
    let old = unsafe { NodeBlock::batch_at(raw) }
        .nref
        .fetch_add(val, Ordering::AcqRel);
    if old.wrapping_add(val) == 0 {
        reap.push(raw);
    }
}

/// Frees every node of the batch whose block is at `raw` through the
/// domain's recycle pool, returning how many nodes were freed (dummies
/// included). The block, and the overflow block its header link may name,
/// go to [`NodePool::dispose_block`]: payloads flagged live are dropped
/// now, and each block, with the node memory it names, joins `mag` for
/// reuse by subsequent allocations — or, with recycling disabled, the nodes
/// go straight back to the allocator. No node is read to find the next
/// one. This is the hyaline-family half of the common `dispose` hook, and
/// the family's only free path.
///
/// # Safety
///
/// The batch's `NRef` must have crossed zero: no thread can still reference
/// any node of the batch. `mag` must belong to `pool`.
pub(crate) unsafe fn free_batch_into<T>(
    raw: usize,
    pool: &NodePool,
    mag: &mut Magazine,
    stats: &SmrStats,
) -> u64 {
    // SAFETY: `NRef` crossed zero, so the whole batch, its blocks included,
    // is exclusively ours.
    let mut block = unsafe { NodeBlock::from_raw(raw) };
    let overflow = block.next();
    let mut freed = 0;
    if overflow != 0 {
        block.set_next(0);
        // SAFETY: as above; the overflow block is the batch's too, and each
        // entry names a node of the batch, not yet freed, flagged live
        // exactly when its payload is (never: only dummies overflow).
        freed = unsafe { pool.dispose_block::<T>(mag, stats, NodeBlock::from_raw(overflow)) };
    }
    // SAFETY: as above.
    freed + unsafe { pool.dispose_block::<T>(mag, stats, block) }
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

        /// Appends a fresh dummy to `fin`, taking an overflow block from
        /// this rig's pool when the batch's block is full.
        ///
        /// # Safety
        ///
        /// [`FinalizedBatch::extend_with_dummy`]'s contract, but for the
        /// dummy, which this makes.
        unsafe fn dummy<T>(&mut self, fin: &mut FinalizedBatch<T>) -> *mut SmrNode<T> {
            // SAFETY: dummy nodes carry no payload, and the batch frees it
            // with its live bit clear.
            let dummy = unsafe { SmrNode::<T>::alloc_dummy() }.as_ptr();
            let (pool, mag) = (&self.pool, &mut self.mag);
            // SAFETY: forwarded; `dummy` is fresh and ours.
            unsafe { fin.extend_with_dummy(dummy, || pool.block(mag)) };
            dummy
        }

        /// [`free_batch_into`] this rig's pool.
        ///
        /// # Safety
        ///
        /// [`free_batch_into`]'s contract.
        unsafe fn free<T>(&mut self, raw: usize) -> u64 {
            // SAFETY: forwarded; the magazine belongs to the pool.
            unsafe { free_batch_into::<T>(raw, &self.pool, &mut self.mag, &self.stats) }
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

    /// Word 1 of every node of `fin`: the block each one names.
    fn links<T>(fin: &FinalizedBatch<T>) -> Vec<usize> {
        (0..fin.len())
            .map(|i| {
                // SAFETY: the batch is unpublished, so every node is live.
                let link = unsafe { header(fin.node(i)) }.word(W_LINK);
                link.load(Ordering::Relaxed)
            })
            .collect()
    }

    #[test]
    fn batch_chain_and_free() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut rig = Rig::new::<Payload>(true);
        let mut batch = rig.batch((0..5).map(|_| Payload(Arc::clone(&drops))), 100);
        assert_eq!(batch.count(), 5);
        let pushed: Vec<usize> = batch.block.as_ref().unwrap().entries().to_vec();
        // SAFETY: all five pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(42, 0) };
        assert_eq!(fin.min_birth, 100);
        assert!(batch.is_empty(), "finalize resets the batch");

        // Entries come out in insertion order, all live; every node links
        // to the block, whose header holds `NRef` and `Adjs`.
        assert_eq!(fin.block.entries(), pushed.as_slice());
        assert!(pushed.iter().all(|&e| e & NodeBlock::LIVE != 0));
        assert_eq!(links(&fin), vec![fin.raw(); 5]);
        assert_eq!(fin.block.batch().nref.load(Ordering::Relaxed), 0);
        assert_eq!(fin.block.batch().adjs.load(Ordering::Relaxed), 42);

        // SAFETY: no other reference to the batch remains; freeing is final.
        assert_eq!(unsafe { rig.free::<Payload>(fin.raw()) }, 5);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
        // The pool hands each freed node out exactly once.
        let mut freed: Vec<usize> = pushed.iter().map(|&e| e & !NodeBlock::LIVE).collect();
        freed.sort_unstable();
        assert_eq!(drain_addresses(&mut rig, &drops, 5), freed);
    }

    /// A block that grows before the batch is published moves, and takes
    /// its nodes' links along: at a push past its capacity, and at a
    /// finalize that reserves more room than it has.
    #[test]
    fn growing_before_publication_relinks_every_node() {
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch(0..1u32, 0);
        let cap = batch.block.as_ref().unwrap().capacity();
        for v in 1..=cap as u32 {
            let node = SmrNode::alloc(v);
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 0, &rig.pool, &mut rig.mag) };
        }
        assert!(
            batch.block.as_ref().unwrap().capacity() > cap,
            "grew at a push"
        );
        let reserve = 4 * batch.block.as_ref().unwrap().capacity();
        // SAFETY: every pushed node is live and unshared.
        let fin = unsafe { batch.finalize(0, reserve) };
        assert!(fin.block.capacity() >= reserve, "grew at finalize");
        assert_eq!(links(&fin), vec![fin.raw(); cap + 1]);
        // SAFETY: never published; freeing is final.
        assert_eq!(unsafe { rig.free::<u32>(fin.raw()) }, cap as u64 + 1);
    }

    #[test]
    fn dummy_nodes_freed_without_drop() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut rig = Rig::new::<Payload>(true);
        let mut batch = rig.batch([Payload(Arc::clone(&drops))], 1);
        // SAFETY: the pushed node is live and unshared.
        let mut fin = unsafe { batch.finalize(0, 0) };
        for _ in 0..3 {
            // SAFETY: the batch is unpublished; this thread inserts it.
            let dummy = unsafe { rig.dummy(&mut fin) };
            // SAFETY: the last node is the dummy, a live node of the batch.
            assert_eq!(unsafe { fin.node(fin.len() - 1) }, dummy, "appended last");
        }
        assert_eq!(
            links(&fin),
            vec![fin.raw(); 4],
            "a dummy links to the block"
        );
        let entries = fin.block.entries().to_vec();
        assert_eq!(entries[0] & NodeBlock::LIVE, NodeBlock::LIVE);
        assert!(
            entries[1..].iter().all(|&e| e & NodeBlock::LIVE == 0),
            "dummies join with their live bit clear"
        );
        assert_eq!(fin.min_birth, 1);
        // SAFETY: the batch was never published; this thread owns it outright.
        assert_eq!(unsafe { rig.free::<Payload>(fin.raw()) }, 4);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            1,
            "only the real payload drops"
        );
        let mut freed: Vec<usize> = entries.iter().map(|&e| e & !NodeBlock::LIVE).collect();
        freed.sort_unstable();
        assert_eq!(drain_addresses(&mut rig, &drops, 4), freed);
    }

    /// Once a node of a batch is linked, other threads reach `NRef` through
    /// the block, so the block must not move: dummies past its capacity go
    /// to an overflow block, and the block stays where every node's word 1
    /// says it is.
    #[test]
    fn dummies_past_capacity_move_the_block() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut rig = Rig::new::<Payload>(true);
        let mut batch = rig.batch([Payload(Arc::clone(&drops))], 0);
        // SAFETY: the pushed node is live and unshared.
        let mut fin = unsafe { batch.finalize(0, 0) };
        let (raw, cap) = (fin.raw(), fin.block.capacity());
        let mut reap = Vec::new();
        // Node 0 is linked into an owned slot, and that slot's owner leaves
        // at once: its decrement lands before the insertion count.
        // SAFETY: node 0 belongs to the finalized batch, which is live.
        unsafe { decrement(fin.node(0), &mut reap) };
        // Then the batch meets `2 · cap` more active slots.
        let dummies = 2 * cap;
        for _ in 0..dummies {
            // SAFETY: the final adjustment below is still to come.
            unsafe { rig.dummy(&mut fin) };
        }
        assert_eq!(fin.raw(), raw, "the block did not move");
        assert_eq!(fin.block.capacity(), cap, "nor grow");
        assert_eq!(fin.len(), 1 + dummies);
        assert_eq!(
            links(&fin),
            vec![raw; 1 + dummies],
            "every node names the block"
        );
        let nodes: Vec<_> = (1..fin.len())
            // SAFETY: every node is still live: the batch holds references.
            .map(|i| unsafe { fin.node(i) })
            .collect();
        // The `Inserts` adjustment, then every other slot owner's decrement:
        // `NRef` crosses zero exactly once, at the last.
        // SAFETY: the batch lacks this credit, so it is live.
        unsafe { adjust_refs(raw, 1 + dummies, &mut reap) };
        for (i, &node) in nodes.iter().enumerate() {
            assert!(reap.is_empty(), "crossed zero early, before decrement {i}");
            // SAFETY: this decrement's reference keeps the batch live.
            unsafe { decrement(node, &mut reap) };
        }
        assert_eq!(reap, [raw], "crossed zero exactly once");
        let mut all: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
        // SAFETY: the batch is still ours to read: `reap` holds it.
        all.push(unsafe { fin.node(0) } as usize);
        all.sort_unstable();
        // SAFETY: NRef crossed zero and no other reference remains.
        assert_eq!(unsafe { rig.free::<Payload>(raw) }, 1 + dummies as u64);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "only the payload drops");
        assert_eq!(
            drain_addresses(&mut rig, &drops, 1 + dummies),
            all,
            "freeing returns every node, the overflow's included"
        );
    }

    #[test]
    fn adjust_crosses_zero_exactly_once() {
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch(0..3u32, 0);
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0, 0) };
        // SAFETY: node 1 of the finalized, unpublished batch.
        let node = unsafe { fin.node(1) };
        let mut reap = Vec::new();
        // Simulate: +5 (insert credit), then five -1 decrements.
        // SAFETY: `fin` is the just-finalized batch.
        unsafe { adjust_refs(fin.raw(), 5, &mut reap) };
        assert!(reap.is_empty());
        for i in 0..5 {
            // SAFETY: the batch stays live until the final decrement below.
            unsafe { decrement(node, &mut reap) };
            assert_eq!(reap.len(), usize::from(i == 4));
        }
        assert_eq!(reap, [fin.raw()]);
        // SAFETY: NRef crossed zero and no other reference remains.
        unsafe { rig.free::<u32>(fin.raw()) };
    }

    #[test]
    fn slot_credit_uses_batch_stored_adjs() {
        // Two batches finalized under different slot counts must be adjusted
        // with their own Adjs values (the §4.3 adaptive-resizing invariant).
        let adjs_small = (usize::MAX / 2).wrapping_add(1); // k = 2
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch(0..3u32, 0);
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(adjs_small, 2) };
        // SAFETY: node 1 of the finalized, unpublished batch.
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
        unsafe { rig.free::<u32>(fin.raw()) };
    }

    #[test]
    fn adjust_with_zero_frees_untouched_batch() {
        // The all-slots-empty retire path: Empty = k * Adjs wraps to zero and
        // NRef is still zero, so the batch frees immediately.
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch(0..2u32, 0);
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0, 0) };
        let mut reap = Vec::new();
        // SAFETY: `fin` is the just-finalized, unpublished batch.
        unsafe { adjust_refs(fin.raw(), 0, &mut reap) };
        assert_eq!(reap.len(), 1);
        // SAFETY: NRef is zero and this thread holds the only reference.
        unsafe { rig.free::<u32>(fin.raw()) };
    }

    #[test]
    fn singleton_batch_free() {
        let mut rig = Rig::new::<u32>(false);
        let mut batch = rig.batch([1u32], 0);
        // SAFETY: the single pushed node is live and unshared.
        let fin = unsafe { batch.finalize(0, 0) };
        // SAFETY: the batch was never published; freeing is safe and final.
        assert_eq!(unsafe { rig.free::<u32>(fin.raw()) }, 1);
    }
}
