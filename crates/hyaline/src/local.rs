//! The half of a handle that no variant changes.
//!
//! Between the slot heads and the allocator every variant, the Crystalline
//! settings included, does the same things: it collects retired nodes into
//! a [`LocalBatch`], walks retirement sublists decrementing `NRef`s, frees
//! the batches that reached zero, hands out insertion nodes and the spare
//! dummies past them, stamps birth eras, and buffers statistics and recycled
//! memory. [`Local`] and [`Insertions`] are that state and those steps,
//! written once; what a variant adds is how batches reach the slot heads.

use smr_core::{EraClock, LocalStats, Magazine, NodePool, Shared, SmrNode, SmrStats};
use std::sync::atomic::Ordering;

use crate::batch::{decrement, free_batch_into, header, FinalizedBatch, LocalBatch, W_NEXT};

/// The variant-independent per-handle state.
pub(crate) struct Local<'d, T> {
    pool: &'d NodePool,
    stats: &'d SmrStats,
    /// The batch under construction.
    pub(crate) batch: LocalBatch<T>,
    /// Blocks of the batches whose `NRef` crossed zero, freed by
    /// [`Local::drain`].
    pub(crate) reap: Vec<usize>,
    local_stats: LocalStats,
    mag: Magazine,
    allocs: u64,
}

impl<'d, T> Local<'d, T> {
    /// Empty state for a handle of the domain owning `pool` and `stats`.
    pub(crate) fn new(pool: &'d NodePool, stats: &'d SmrStats) -> Self {
        Self {
            pool,
            stats,
            batch: LocalBatch::new(),
            reap: Vec::new(),
            local_stats: LocalStats::new(),
            mag: pool.magazine(),
            allocs: 0,
        }
    }

    /// Walks the retirement sublist from `next` down to (and including)
    /// `handle`, decrementing each batch's `NRef` (Figure 3, `traverse`).
    /// Returns the number of loop iterations, a terminating null hop
    /// included: Figure 5 subtracts exactly that from the slot's `Ack`,
    /// balancing the `HRef` snapshots `retire` added.
    ///
    /// # Safety
    ///
    /// `next` must be a node the caller's slot reference still pins — the
    /// detached head, or a `Next` link read while the reference was held —
    /// so every node on the sublist is live until its decrement below.
    pub(crate) unsafe fn traverse(
        &mut self,
        mut next: *mut SmrNode<T>,
        handle: *mut SmrNode<T>,
    ) -> i64 {
        let mut count = 0;
        loop {
            let curr = next;
            count += 1;
            if curr.is_null() {
                break;
            }
            // Read the link *before* the decrement: our decrement may be the
            // batch's last, after which the node may be freed by `drain`.
            // SAFETY: the caller's slot reference pins `curr` until this
            // decrement, which frees nothing: it only reaps.
            unsafe {
                next = header(curr).word(W_NEXT).load(Ordering::Acquire) as *mut SmrNode<T>;
                decrement(curr, &mut self.reap);
            }
            if curr == handle {
                break;
            }
        }
        count
    }

    /// Frees all reaped batches, oldest first (the paper's deferred
    /// deallocation list that reverses LIFO reaping into FIFO freeing).
    /// Most calls find nothing reaped, so that check is all a caller
    /// inlines.
    #[inline]
    pub(crate) fn drain(&mut self) {
        if !self.reap.is_empty() {
            self.free_reaped();
        }
    }

    #[inline(never)]
    fn free_reaped(&mut self) {
        let mut freed = 0;
        // `drain(..)` keeps the list's capacity for the next burst.
        for raw in self.reap.drain(..) {
            // SAFETY: a block enters `reap` only when its batch's NRef
            // crossed zero, so no thread can still reference the batch.
            freed += unsafe { free_batch_into::<T>(raw, self.pool, &mut self.mag, self.stats) };
        }
        self.local_stats.on_free(self.stats, freed);
    }

    /// Allocates a payload-less dummy node through the recycle pool and
    /// appends it to `fin` ([`FinalizedBatch::extend_with_dummy`], which
    /// takes an overflow block from the pool when the batch's is full),
    /// counted as allocated and retired in one step. This is the only way a
    /// dummy enters a batch (Section 2.4: a partial batch "can be
    /// immediately finalized by allocating a finite number of dummy nodes";
    /// here only as many as active slots need).
    ///
    /// # Safety
    ///
    /// [`FinalizedBatch::extend_with_dummy`]'s contract: only the inserting
    /// thread, before the batch's last slot contribution.
    pub(crate) unsafe fn spare_dummy(&mut self, fin: &mut FinalizedBatch<T>) {
        // SAFETY: the dummy's payload is never read, and it is freed with
        // the batch, whose block marks it payload-less.
        let dummy = unsafe { self.pool.alloc_dummy::<T>(&mut self.mag, self.stats) }.as_ptr();
        self.local_stats.on_alloc(self.stats);
        self.local_stats.on_retire(self.stats);
        let (pool, mag) = (self.pool, &mut self.mag);
        // SAFETY: the caller is the inserting thread, before the batch's last
        // slot contribution, and `dummy` is fresh and ours.
        unsafe { fin.extend_with_dummy(dummy, || pool.block(mag)) };
    }

    /// Counts one allocation; `true` on every `freq`-th, when Figure 5's
    /// `init_node` advances the era clock before [`Local::alloc`].
    pub(crate) fn era_due(&mut self, freq: u64) -> bool {
        self.allocs += 1;
        self.allocs.is_multiple_of(freq)
    }

    /// Allocates a node for `value`. With `era`, stamps the node's birth
    /// era, which shares the header word with `Next` because it need not
    /// survive `retire`.
    ///
    /// `#[inline]`, like [`Local::retire`]: both run once per call, and
    /// without the hint whether they inline depends on which codegen unit
    /// the caller's instance lands in (`hyaline.alloc_retire_ns` read ~25 %
    /// higher when they did not).
    #[inline]
    pub(crate) fn alloc(&mut self, value: T, era: Option<&EraClock>) -> Shared<T> {
        self.local_stats.on_alloc(self.stats);
        let node = self.pool.alloc(&mut self.mag, self.stats, value);
        if let Some(era) = era {
            // SAFETY: `node` is a fresh, unshared allocation; stamping its
            // birth era in the header word races with nobody.
            unsafe {
                (*node.as_ptr())
                    .header()
                    .word(W_NEXT)
                    .store(era.current() as usize, Ordering::Relaxed);
            }
        }
        Shared::from_node(node)
    }

    /// Adds a retired node to the batch, reading back the birth era that
    /// [`Local::alloc`] stamped when `eras` is set. Returns the batch's new
    /// node count.
    ///
    /// # Safety
    ///
    /// The [`SmrHandle::retire`](smr_core::SmrHandle::retire) contract:
    /// `ptr` is unlinked from every shared structure and retired once.
    #[inline]
    pub(crate) unsafe fn retire(&mut self, ptr: Shared<T>, eras: bool) -> usize {
        let node = ptr.as_node_ptr();
        let birth = if eras {
            // SAFETY: the caller retires `node` once, after unlinking it, so it
            // is live and this thread now owns it.
            unsafe { header(node) }.word(W_NEXT).load(Ordering::Relaxed) as u64
        } else {
            0
        };
        self.local_stats.on_retire(self.stats);
        // SAFETY: as above: unlinked, retired once, and ours until the batch
        // is inserted.
        unsafe { self.batch.push(node, birth, self.pool, &mut self.mag) };
        self.batch.count()
    }

    /// Cuts the batch under construction at `era`
    /// ([`LocalBatch::cut_younger`]), returning the part born at or before
    /// it; the younger part stays under construction.
    ///
    /// # Safety
    ///
    /// [`LocalBatch::cut_younger`]'s contract.
    pub(crate) unsafe fn cut_batch(&mut self, era: u64) -> LocalBatch<T> {
        // SAFETY: forwarded.
        let younger = unsafe { self.batch.cut_younger(era, self.pool, &mut self.mag) };
        std::mem::replace(&mut self.batch, younger)
    }

    /// Frees a node that was never published.
    ///
    /// # Safety
    ///
    /// The [`SmrHandle::dealloc`](smr_core::SmrHandle::dealloc) contract:
    /// this thread owns `ptr` outright.
    pub(crate) unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        self.local_stats.on_dealloc(self.stats);
        // SAFETY: this thread owns the never-published node, whose payload is
        // live, and frees it once.
        unsafe {
            self.pool
                .dispose(&mut self.mag, self.stats, ptr.as_node_ptr(), true);
        }
    }

    /// Publishes the buffered core statistics and leaves the magazine
    /// alone: a `HandlePool` check-in flushes before parking, and the
    /// worker that re-takes the handle allocates from it next.
    ///
    /// The magazine's pool counters stay buffered too; they reach `stats()`
    /// every 64 pool events and when the handle drops. Publishing them here
    /// would cost a flush one RMW per counter on lines every handle writes.
    /// In one rotation of six traced runs each, `hyaline.flush_partial_ns`
    /// and `trace.kv-service.checkin_self_ns` read ~83 and ~207 ns with the
    /// publication, ~73 and ~206 on the malloc path, and ~68 and ~182
    /// without it.
    pub(crate) fn flush(&mut self) {
        self.local_stats.flush(self.stats);
    }

    /// Spills the magazine back to the shared partitions and publishes
    /// everything buffered. Handle drop and domain teardown only.
    pub(crate) fn spill(&mut self) {
        self.pool.flush(&mut self.mag, self.stats);
        self.local_stats.flush(self.stats);
    }
}

/// The nodes one batch's insertions link, in order: the batch's own nodes,
/// then one spare dummy per insertion past them, appended on demand. So an
/// `n`-node batch entering `a` slots costs `max(0, a − n)` dummies, and
/// none when no slot is active. A node a CAS linked into one slot's
/// list is never offered again: its `Next` word is that list's link, and a
/// second list would overwrite it. The cursor is one batch index, which
/// keeps the insertion loops' counters in registers and reads no node.
pub(crate) struct Insertions {
    /// Index of the node on offer; the batch's length once its nodes are
    /// used up.
    next: usize,
}

impl Insertions {
    pub(crate) fn new() -> Self {
        Self { next: 0 }
    }

    /// The node the next insertion attempt links. A failed CAS is offered
    /// the same node again, so a spare is made at most once per insertion.
    ///
    /// # Safety
    ///
    /// [`Local::spare_dummy`]'s contract, with `fin` the batch `self` was
    /// made for.
    #[inline]
    pub(crate) unsafe fn node<T>(
        &mut self,
        fin: &mut FinalizedBatch<T>,
        local: &mut Local<'_, T>,
    ) -> *mut SmrNode<T> {
        if self.next == fin.len() {
            // SAFETY: the caller upholds `spare_dummy`'s contract for `fin`.
            unsafe { local.spare_dummy(fin) };
        }
        // SAFETY: as above; `next < fin.len()` now.
        unsafe { fin.node(self.next) }
    }

    /// Records that a CAS linked the node [`Insertions::node`] last
    /// returned.
    #[inline]
    pub(crate) fn linked(&mut self) {
        self.next += 1;
    }
}
