//! Layout-keyed node recycling: reclamation feeds allocation.
//!
//! Every reclamation scheme in the workspace ultimately frees nodes through
//! the global allocator, so at high thread counts the benchmarks measure
//! malloc contention as much as SMR cost. This module converts the reclaim
//! path into the allocator's fast path: reclaimed [`SmrNode`] memory is
//! pushed into a per-domain [`NodePool`] (cache-padded partitions of
//! Treiber-style lock-free free lists) and `alloc` draws from the pool
//! before falling back to the global allocator.
//!
//! # Design
//!
//! * **Layout keyed, not type stable.** A pool recycles *memory*, never
//!   values: [`NodePool::dispose`] drops the payload immediately (so `Drop`
//!   side effects run exactly when the scheme frees the node) and only the
//!   raw allocation is retained. Pools are keyed by the [`Layout`] of the
//!   concrete `SmrNode<T>`; an allocation or disposal whose layout does not
//!   match the pool's key silently falls through to the global allocator, so
//!   a mixed-type domain can never hand out memory of the wrong size or
//!   alignment. Reused memory gets a freshly zeroed
//!   [`NodeHeader`](crate::NodeHeader) and keeps
//!   the original allocation's alignment, so the
//!   [`TAG_BITS`](crate::TAG_BITS) invariant is preserved for free.
//! * **Magazines.** Each handle owns a bounded [`Magazine`] — a small
//!   exclusively-owned cache refilled from / spilled to the shared partition
//!   in blocks, so the common dispose→alloc round trip touches no shared
//!   cache line at all. A refill detaches a partition's *entire* chain with
//!   one `swap` and keeps it as a private reserve consumed lazily: walking
//!   the chain up front to push a remainder back would serially
//!   pointer-chase every cold node in it, which costs more than recycling
//!   saves when frees arrive in large bursts. Magazines also buffer the pool's hit/miss/recycled
//!   statistics and flush them to [`SmrStats`] in batches, like
//!   [`LocalStats`](crate::LocalStats) does for the core counters.
//! * **No ABA by construction.** The shared free list supports exactly two
//!   operations: [`push_block`](NodePool) (a CAS-loop prepend of an
//!   exclusively-owned chain) and `take_all` (an unconditional `swap` of the
//!   head to null). The classic Treiber *pop-one* — read `head`, read
//!   `head->next`, CAS `head → next` — is deliberately not implemented: a
//!   node popped by another thread can be handed out, live anywhere, and be
//!   pushed back while our CAS still compares equal, splicing its stale
//!   `next` (now an in-use node) back into the list. `take_all` has no such
//!   window: the moment the swap returns, the entire chain is unreachable
//!   from the shared head, so walking its link words reads exclusively-owned
//!   memory and no CAS ever validates against state another thread can
//!   recycle. `push_block` only *writes* the tail link of a chain it owns
//!   and never dereferences shared nodes. `interleave::recycle` model-checks
//!   this argument and demonstrates the pop-one trap via a fault-injected
//!   mutant.
//! * **Bounded.** Partitions cap their (approximate) length at
//!   [`SmrConfig::recycle_capacity`]` / partitions`; a spill that finds its
//!   partition full frees the block through the real allocator, so a burst
//!   of retirements cannot pin unbounded memory. The pool itself frees every
//!   cached allocation on `Drop`.
//! * **A parked handle keeps its magazine.** A handle's
//!   [`SmrHandle::flush`](crate::SmrHandle::flush) — what a
//!   [`HandlePool`](crate::HandlePool) check-in runs — leaves the magazine,
//!   nodes and buffered counters alike, where it is; only dropping the
//!   handle spills it ([`NodePool::flush`]). A pooled worker re-takes the
//!   handle it parked, so its next allocations hit a warm magazine instead
//!   of a shared partition.
//!   What a parked handle holds back is bounded: at most
//!   [`SmrConfig::recycle_magazine`] nodes in the magazine plus one detached
//!   reserve chain, and the reserve is at most one partition — the
//!   partition's cap, about `recycle_capacity / 8`, plus the one block whose
//!   push crossed it (under races the advisory `len` can let a partition
//!   overshoot by a few more blocks).
//!
//! Recycling is **on by default** ([`SmrConfig::recycle`]). Turned off, a
//! pool routes straight to [`SmrNode::alloc`]/[`SmrNode::dealloc`], the
//! allocate/free-through-malloc path.

use crate::config::SmrConfig;
use crate::header::SmrNode;
use crate::stats::SmrStats;
use crossbeam_utils::CachePadded;
use std::alloc::{dealloc, Layout};
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared free-list partitions per pool. A power of two so round-robin
/// assignment of magazines to partitions stays a mask.
const PARTITIONS: usize = 8;

/// One cache-padded free-list partition.
///
/// `head` is the address of the first free node (0 = empty); each free node
/// stores the address of the next in header word 0 (the node is unreachable
/// while pooled, so the scheme's use of that word does not conflict). `len`
/// is an approximate element count used only for capacity bounding.
#[derive(Debug, Default)]
struct Partition {
    head: AtomicUsize,
    len: AtomicUsize,
}

/// A layout-keyed pool of recycled [`SmrNode`] allocations for one domain.
///
/// Built by each scheme from its [`SmrConfig`]; handles interact with it
/// through their [`Magazine`]. See the [module docs](self) for the design.
pub struct NodePool {
    layout: Layout,
    enabled: bool,
    magazine_cap: usize,
    partition_cap: usize,
    partitions: Box<[CachePadded<Partition>]>,
    next_partition: AtomicUsize,
}

impl NodePool {
    /// A pool recycling nodes of payload type `T`, configured (and possibly
    /// disabled) by `config`'s recycle knobs.
    pub fn for_node<T>(config: &SmrConfig) -> Self {
        Self::with_layout(
            Layout::new::<SmrNode<T>>(),
            config.recycle,
            config.recycle_capacity,
            config.recycle_magazine,
        )
    }

    fn with_layout(layout: Layout, enabled: bool, capacity: usize, magazine: usize) -> Self {
        Self {
            layout,
            enabled,
            magazine_cap: magazine.max(1),
            partition_cap: capacity.div_ceil(PARTITIONS),
            partitions: (0..PARTITIONS)
                .map(|_| CachePadded::new(Partition::default()))
                .collect(),
            next_partition: AtomicUsize::new(0),
        }
    }

    /// Whether recycling is enabled for this pool.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh magazine bound to one of this pool's partitions (round-robin,
    /// so concurrent handles spread across partitions).
    pub fn magazine(&self) -> Magazine {
        Magazine {
            partition: self.next_partition.fetch_add(1, Ordering::Relaxed) & (PARTITIONS - 1),
            items: Vec::new(),
            reserve: 0,
            hits: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// Allocates a node holding `value`, reusing pooled memory when possible.
    ///
    /// Falls back to [`SmrNode::alloc`] when the pool is disabled, empty, or
    /// keyed to a different layout.
    pub fn alloc<T>(&self, mag: &mut Magazine, shared: &SmrStats, value: T) -> NonNull<SmrNode<T>> {
        if !self.usable_for::<T>() {
            return SmrNode::alloc(value);
        }
        match self.grab(mag, shared) {
            // SAFETY: `raw` came out of this pool, whose key equals
            // `Layout::new::<SmrNode<T>>()` (checked by `usable_for`), and
            // pooled memory is exclusively owned by whoever popped it.
            Some(raw) => unsafe { SmrNode::renew(raw as *mut u8, value) },
            None => SmrNode::alloc(value),
        }
    }

    /// Allocates a payload-less dummy node (see [`SmrNode::alloc_dummy`]),
    /// reusing pooled memory when possible.
    ///
    /// # Safety
    ///
    /// Same contract as [`SmrNode::alloc_dummy`]: the payload must never be
    /// read and the node must be released with `drop_payload = false`.
    pub unsafe fn alloc_dummy<T>(&self, mag: &mut Magazine, shared: &SmrStats) -> NonNull<SmrNode<T>> {
        if !self.usable_for::<T>() {
            // SAFETY: forwarded caller contract.
            return unsafe { SmrNode::alloc_dummy() };
        }
        match self.grab(mag, shared) {
            // SAFETY: layout match checked by `usable_for`; pooled memory is
            // exclusively owned by whoever popped it. The payload contract
            // is forwarded from the caller.
            Some(raw) => unsafe { SmrNode::renew_dummy(raw as *mut u8) },
            // SAFETY: forwarded caller contract.
            None => unsafe { SmrNode::alloc_dummy() },
        }
    }

    /// The common disposal hook for every scheme's reclaim path: drops the
    /// payload immediately (when `drop_payload`), then recycles the node's
    /// memory into `mag`/the pool instead of freeing it.
    ///
    /// Falls back to [`SmrNode::dealloc`] when the pool is disabled or keyed
    /// to a different layout, and to the real allocator when both the
    /// magazine and the partition are full.
    ///
    /// # Safety
    ///
    /// Same contract as [`SmrNode::dealloc`]: `node` must be exclusively
    /// owned and not yet freed, and `drop_payload` must be `true` exactly
    /// when the node holds a live payload.
    pub unsafe fn dispose<T>(
        &self,
        mag: &mut Magazine,
        shared: &SmrStats,
        node: *mut SmrNode<T>,
        drop_payload: bool,
    ) {
        if !self.usable_for::<T>() {
            // SAFETY: forwarded caller contract.
            unsafe { SmrNode::dealloc(node, drop_payload) };
            return;
        }
        if drop_payload {
            // SAFETY: caller owns the node and asserts the payload is live.
            unsafe { SmrNode::drop_value_in_place(node) };
        }
        mag.items.push(node as usize);
        mag.recycled += 1;
        if mag.items.len() > self.magazine_cap {
            self.spill_down(mag, self.magazine_cap / 2);
        }
        mag.maybe_flush_counts(shared);
    }

    /// Spills the whole magazine, reserve included, back to the pool and
    /// publishes its buffered statistics. Schemes call this when a handle
    /// is dropped, so a retired handle never strands pool capacity; a
    /// parked one keeps its magazine (see the [module docs](self)).
    pub fn flush(&self, mag: &mut Magazine, shared: &SmrStats) {
        // Drain the private reserve in magazine-sized chunks so each spill
        // re-checks the partition's capacity bound.
        loop {
            self.spill_down(mag, 0);
            if mag.reserve == 0 {
                break;
            }
            mag.draw_reserve(self.magazine_cap);
        }
        mag.flush_counts(shared);
    }

    fn usable_for<T>(&self) -> bool {
        self.enabled && Layout::new::<SmrNode<T>>() == self.layout
    }

    /// Pops one recycled allocation, refilling the magazine from the shared
    /// partitions when it is empty. Returns `None` on a pool miss.
    fn grab(&self, mag: &mut Magazine, shared: &SmrStats) -> Option<usize> {
        if mag.items.is_empty() {
            self.refill(mag);
        }
        let raw = mag.items.pop();
        match raw {
            Some(_) => mag.hits += 1,
            None => mag.misses += 1,
        }
        mag.maybe_flush_counts(shared);
        raw
    }

    /// Moves magazine entries beyond `keep` into the shared partition as one
    /// linked block — or frees them for real when the partition is at
    /// capacity, so the pool's footprint stays bounded.
    fn spill_down(&self, mag: &mut Magazine, keep: usize) {
        if mag.items.len() <= keep {
            return;
        }
        let part = &self.partitions[mag.partition];
        let overflowing = part.len.load(Ordering::Relaxed) >= self.partition_cap;
        let mut head = 0usize;
        let mut tail = 0usize;
        let mut n = 0usize;
        while mag.items.len() > keep {
            let raw = mag.items.pop().expect("len > keep implies non-empty");
            if overflowing {
                // SAFETY: `raw` is an exclusively-owned allocation of
                // `self.layout` whose payload was already dropped on
                // `dispose`; freeing the raw memory releases it fully.
                unsafe { dealloc(raw as *mut u8, self.layout) };
                continue;
            }
            // Chain the block locally before a single shared push: the link
            // lives in header word 0 of the (unreachable) node.
            // SAFETY: `raw` is exclusively ours until `push_block` publishes
            // it; header word 0 is at offset 0 and valid for atomic access.
            unsafe { (*(raw as *const AtomicUsize)).store(head, Ordering::Relaxed) };
            if head == 0 {
                tail = raw;
            }
            head = raw;
            n += 1;
        }
        if n > 0 {
            self.push_block(part, head, tail, n);
        }
    }

    /// Prepends an exclusively-owned chain (`head..=tail`, `n` nodes) onto
    /// the partition's free list.
    ///
    /// ABA-free: the CAS only ever *writes* the chain's tail link (memory we
    /// own until the CAS succeeds) and never dereferences the observed head,
    /// so a stale comparand can only cost a retry, never a corrupt splice.
    fn push_block(&self, part: &Partition, head: usize, tail: usize, n: usize) {
        debug_assert!(head != 0 && tail != 0 && n > 0);
        // SAFETY: `tail` is part of the not-yet-published chain we own; its
        // header word 0 is at offset 0 and valid for atomic access.
        let tail_link = unsafe { &*(tail as *const AtomicUsize) };
        let mut cur = part.head.load(Ordering::Relaxed);
        loop {
            tail_link.store(cur, Ordering::Relaxed);
            // Release publishes the chain's link words to the next take_all.
            match part
                .head
                .compare_exchange_weak(cur, head, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        part.len.fetch_add(n, Ordering::Relaxed);
    }

    /// Refills an empty magazine: draws from the magazine's private reserve
    /// chain first, then detaches a whole partition chain with one `swap`
    /// (trying the magazine's own partition first, then the others) and
    /// parks it as the new reserve.
    ///
    /// The detached chain is deliberately **not** walked to split off a
    /// remainder and push it back: finding the remainder's tail would be a
    /// serial pointer-chase over every cold node in the chain — O(partition
    /// residency) cache misses per refill, which measurably dominates the
    /// whole recycling win for schemes that free in large bursts (Hyaline
    /// batches, epoch scans build partition chains thousands of nodes
    /// long). Keeping the chain as a lazily-consumed reserve means a refill
    /// only ever touches the nodes it actually hands out.
    ///
    /// A refill that finds every partition empty costs the miss one load
    /// per partition on top of the allocator. Where nothing is ever freed —
    /// Epoch with a reader parked inside an operation — every allocation
    /// pays it: an `alloc` + `retire` loop there reads 6–13 ns (15–25 %)
    /// slower with recycling on, on a 2.1 GHz Xeon, and skipping the scan
    /// recovers about half of that. It is kept as the price of recycling by
    /// default, rather than buying a shared "pool is empty" word that every
    /// spill would have to write or a back-off that would turn hits into
    /// misses.
    fn refill(&self, mag: &mut Magazine) {
        debug_assert!(mag.items.is_empty());
        let want = (self.magazine_cap / 2).max(1);
        mag.draw_reserve(want);
        if !mag.items.is_empty() {
            return;
        }
        for i in 0..self.partitions.len() {
            let idx = (mag.partition + i) & (PARTITIONS - 1);
            let part = &self.partitions[idx];
            if part.head.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // Acquire pairs with the Release publish in `push_block`; from
            // here the entire detached chain is exclusively ours, which is
            // what makes walking its link words safe (see module docs).
            let chain = part.head.swap(0, Ordering::Acquire);
            if chain == 0 {
                continue;
            }
            // The approximate `len` is zeroed wholesale rather than walked:
            // a push whose CAS lands between the two swaps can lose its
            // count, transiently under-counting the partition. `len` only
            // bounds capacity (saturating, advisory), so the trade is the
            // same one the counter already makes.
            part.len.swap(0, Ordering::Relaxed);
            mag.reserve = chain;
            mag.draw_reserve(want);
            return;
        }
    }
}

impl fmt::Debug for NodePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodePool")
            .field("layout", &self.layout)
            .field("enabled", &self.enabled)
            .field("magazine_cap", &self.magazine_cap)
            .field("partition_cap", &self.partition_cap)
            .finish_non_exhaustive()
    }
}

// SAFETY: the pool only stores addresses of exclusively-owned allocations;
// all shared mutation goes through atomics.
unsafe impl Send for NodePool {}
// SAFETY: as above — `push_block`/`take_all` are the only shared-list
// operations and both are atomic on `Partition::head`.
unsafe impl Sync for NodePool {}

impl Drop for NodePool {
    fn drop(&mut self) {
        // `&mut self`: no handle can race us, so plain walks are fine.
        for part in self.partitions.iter() {
            let mut cur = part.head.load(Ordering::Relaxed);
            while cur != 0 {
                // SAFETY: every pooled address is an exclusively-owned
                // allocation of `self.layout` whose payload was dropped
                // before it entered the pool.
                // ORDERING: `&mut self` proves the partitions are quiescent
                // (no concurrent pushers), so Relaxed link loads suffice.
                let next = unsafe { (*(cur as *const AtomicUsize)).load(Ordering::Relaxed) };
                // SAFETY: as above.
                unsafe { dealloc(cur as *mut u8, self.layout) };
                cur = next;
            }
        }
    }
}

/// How many buffered statistic events a magazine holds before flushing to
/// the shared [`SmrStats`] (mirrors `LocalStats`' batching).
const STAT_FLUSH_EVERY: u64 = 64;

/// A handle-local bounded cache of recycled allocations (plus buffered pool
/// statistics), created by [`NodePool::magazine`].
///
/// A magazine must be flushed back to its pool (via [`NodePool::flush`])
/// before it is dropped; schemes do this in their handle `Drop`. A handle's
/// `flush()` — and with it a [`HandlePool`](crate::HandlePool) check-in —
/// leaves the magazine alone, so a parked handle keeps its cached nodes
/// (bounded as the [module docs](self) state).
pub struct Magazine {
    partition: usize,
    /// Addresses of exclusively-owned allocations (stored as `usize`, like
    /// the tagged [`Shared`](crate::Shared) representation).
    items: Vec<usize>,
    /// Head of a private free chain detached wholesale from a partition by
    /// `refill` (0 = empty) and consumed lazily — see `NodePool::refill`
    /// for why the chain is never walked up front.
    reserve: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl Magazine {
    /// Nodes currently cached in this magazine.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the magazine holds no cached nodes.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Moves up to `want` nodes from the private reserve chain into
    /// `items`, touching only the nodes it hands out.
    fn draw_reserve(&mut self, want: usize) {
        while self.reserve != 0 && self.items.len() < want {
            let raw = self.reserve;
            // SAFETY: the reserve chain was detached from a partition by
            // `refill` and is exclusively owned by this magazine; header
            // word 0 of each node holds the next-free link.
            // ORDERING: the detaching swap in `refill` was Acquire, which
            // already ordered these link words; private reads are Relaxed.
            self.reserve = unsafe { (*(raw as *const AtomicUsize)).load(Ordering::Relaxed) };
            self.items.push(raw);
        }
    }

    #[inline]
    fn maybe_flush_counts(&mut self, shared: &SmrStats) {
        if self.hits + self.misses + self.recycled >= STAT_FLUSH_EVERY {
            self.flush_counts(shared);
        }
    }

    fn flush_counts(&mut self, shared: &SmrStats) {
        if self.hits > 0 {
            shared.add_pool_hits(self.hits);
            self.hits = 0;
        }
        if self.misses > 0 {
            shared.add_pool_misses(self.misses);
            self.misses = 0;
        }
        if self.recycled > 0 {
            shared.add_recycled(self.recycled);
            self.recycled = 0;
        }
    }
}

impl fmt::Debug for Magazine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Magazine")
            .field("partition", &self.partition)
            .field("cached", &self.items.len())
            .finish_non_exhaustive()
    }
}

// SAFETY: a magazine's cached addresses are exclusively owned by it; moving
// the magazine to another thread moves that ownership wholesale.
unsafe impl Send for Magazine {}

impl Drop for Magazine {
    fn drop(&mut self) {
        // A non-empty magazine at drop is a scheme bug (its handle failed to
        // flush) and would leak the cached nodes. Only a leak — never UB —
        // so debug-assert rather than abort release builds, and stay quiet
        // during unwinds where the flush legitimately never ran.
        if !std::thread::panicking() {
            debug_assert!(
                self.items.is_empty() && self.reserve == 0,
                "magazine dropped with {} cached nodes (reserve head {:#x}); the \
                 owning handle must flush it back to its NodePool first",
                self.items.len(),
                self.reserve
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static DROPS: AtomicU64 = AtomicU64::new(0);
    struct CountsDrops(#[allow(dead_code)] u64);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn cfg(capacity: usize, magazine: usize) -> SmrConfig {
        SmrConfig {
            recycle: true,
            recycle_capacity: capacity,
            recycle_magazine: magazine,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn disabled_pool_routes_to_global_allocator() {
        let pool = NodePool::for_node::<u64>(&SmrConfig {
            recycle: false,
            ..SmrConfig::default()
        });
        assert!(!pool.enabled());
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let node = pool.alloc(&mut mag, &stats, 7u64);
        // SAFETY: node freshly allocated above, exclusively owned.
        unsafe { pool.dispose(&mut mag, &stats, node.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(stats.pool_hits(), 0);
        assert_eq!(stats.pool_misses(), 0);
        assert_eq!(stats.recycled(), 0);
    }

    #[test]
    fn dispose_then_alloc_reuses_memory_and_drops_payload_once() {
        let pool = NodePool::for_node::<CountsDrops>(&cfg(1024, 8));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        DROPS.store(0, Ordering::Relaxed);
        let node = pool.alloc(&mut mag, &stats, CountsDrops(1));
        let addr = node.as_ptr() as usize;
        // Dirty the header so reuse proves it is re-zeroed.
        // SAFETY: `node` was just allocated and is exclusively owned.
        unsafe { node.as_ref() }
            .header()
            .word(2)
            .store(0xdead, Ordering::Relaxed);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, node.as_ptr(), true) };
        assert_eq!(DROPS.load(Ordering::Relaxed), 1, "payload dropped eagerly");
        let reused = pool.alloc(&mut mag, &stats, CountsDrops(2));
        assert_eq!(reused.as_ptr() as usize, addr, "memory reused");
        for w in 0..crate::NodeHeader::WORDS {
            assert_eq!(
                // SAFETY: `reused` was just allocated and is exclusively owned.
                unsafe { reused.as_ref() }.header().word(w).load(Ordering::Relaxed),
                0,
                "header word {w} re-zeroed on reuse"
            );
        }
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, reused.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
        assert_eq!(stats.pool_hits(), 1);
        assert_eq!(stats.pool_misses(), 1);
        assert_eq!(stats.recycled(), 2);
    }

    #[test]
    fn layout_mismatch_falls_through() {
        // Pool keyed to u64 nodes; a [u64; 16] node must bypass it entirely.
        let pool = NodePool::for_node::<u64>(&cfg(1024, 8));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let big = pool.alloc(&mut mag, &stats, [7u64; 16]);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, big.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(stats.pool_hits() + stats.pool_misses() + stats.recycled(), 0);
        assert!(mag.is_empty(), "mismatched node never entered the magazine");
    }

    #[test]
    fn capacity_overflow_frees_for_real() {
        // Zero capacity: every spill must hit the real allocator; nothing is
        // retained, so later allocations are all misses.
        let pool = NodePool::for_node::<u64>(&cfg(0, 2));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let nodes: Vec<_> = (0..64).map(|i| pool.alloc(&mut mag, &stats, i as u64)).collect();
        for n in nodes {
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        }
        pool.flush(&mut mag, &stats);
        assert!(mag.is_empty());
        let n = pool.alloc(&mut mag, &stats, 0u64);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(stats.pool_hits(), 0, "zero-capacity pool can never hit");
    }

    #[test]
    fn cross_magazine_recycle_through_shared_partition() {
        let pool = NodePool::for_node::<u64>(&cfg(1024, 4));
        let stats = SmrStats::new();
        let mut producer = pool.magazine();
        let mut addrs = Vec::new();
        for i in 0..32 {
            let n = pool.alloc(&mut producer, &stats, i as u64);
            addrs.push(n.as_ptr() as usize);
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut producer, &stats, n.as_ptr(), true) };
        }
        pool.flush(&mut producer, &stats);
        // A different magazine (different partition assignment) must still
        // find the spilled nodes by scanning partitions.
        let mut consumer = pool.magazine();
        let n = pool.alloc(&mut consumer, &stats, 99u64);
        assert!(
            addrs.contains(&(n.as_ptr() as usize)),
            "consumer reused producer's memory"
        );
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut consumer, &stats, n.as_ptr(), true) };
        pool.flush(&mut consumer, &stats);
    }

    #[test]
    fn pool_drop_frees_cached_nodes() {
        DROPS.store(0, Ordering::Relaxed);
        let pool = NodePool::for_node::<CountsDrops>(&cfg(1024, 4));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        for i in 0..32 {
            let n = pool.alloc(&mut mag, &stats, CountsDrops(i));
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        }
        pool.flush(&mut mag, &stats);
        assert_eq!(DROPS.load(Ordering::Relaxed), 32, "payloads dropped at dispose");
        drop(mag);
        drop(pool); // must free the 32 cached allocations (leak-checked under Miri/asan)
    }

    #[test]
    fn concurrent_producers_and_consumers_balance() {
        let pool = NodePool::for_node::<u64>(&cfg(4096, 8));
        let stats = SmrStats::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(|| {
                    let mut mag = pool.magazine();
                    let mut live = Vec::new();
                    for i in 0..2000u64 {
                        live.push(pool.alloc(&mut mag, &stats, i));
                        if live.len() > 16 {
                            let n: NonNull<SmrNode<u64>> = live.swap_remove(0);
                            // SAFETY: exclusively owned, live payload.
                            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
                        }
                    }
                    for n in live {
                        // SAFETY: exclusively owned, live payload.
                        unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
                    }
                    pool.flush(&mut mag, &stats);
                    let _ = t;
                });
            }
        });
        assert_eq!(stats.pool_hits() + stats.pool_misses(), 8000);
        assert_eq!(stats.recycled(), 8000);
        assert!(stats.pool_hits() > 0, "cross-thread reuse must occur");
    }

    /// Nodes in the magazine's private reserve chain.
    fn reserve_len(mag: &Magazine) -> usize {
        let mut n = 0;
        let mut cur = mag.reserve;
        while cur != 0 {
            n += 1;
            // SAFETY: the reserve chain is exclusively owned by `mag`; header
            // word 0 of each node holds the next-free link.
            // ORDERING: single-threaded test; the chain is private.
            cur = unsafe { (*(cur as *const AtomicUsize)).load(Ordering::Relaxed) };
        }
        n
    }

    /// The module docs' bound on what a parked handle holds back: after
    /// any mix of allocation and disposal bursts, at most
    /// `recycle_magazine` cached nodes plus a reserve no longer than one
    /// partition (its cap plus the one block whose push crossed it).
    #[test]
    fn parked_magazine_retention_is_bounded() {
        const CAPACITY: usize = 256;
        const MAGAZINE: usize = 8;
        let pool = NodePool::for_node::<u64>(&cfg(CAPACITY, MAGAZINE));
        let partition_cap = CAPACITY.div_ceil(PARTITIONS);
        let stats = SmrStats::new();
        let mut mags = [pool.magazine(), pool.magazine()];
        let mut saw_reserve = false;
        for (round, burst) in [1u64, 7, 64, 300, 3, 1_000, 17, 40, 5].into_iter().enumerate() {
            let mag = &mut mags[round % 2];
            let nodes: Vec<_> = (0..burst).map(|v| pool.alloc(mag, &stats, v)).collect();
            for n in nodes {
                // SAFETY: exclusively owned, live payload.
                unsafe { pool.dispose(mag, &stats, n.as_ptr(), true) };
            }
            let reserve = reserve_len(mag);
            saw_reserve |= reserve > 0;
            assert!(mag.len() <= MAGAZINE, "round {round}: {} cached", mag.len());
            assert!(
                reserve <= partition_cap + MAGAZINE,
                "round {round}: reserve of {reserve} nodes exceeds one partition"
            );
        }
        assert!(saw_reserve, "no burst left a reserve behind");
        for mag in &mut mags {
            pool.flush(mag, &stats);
        }
        assert_eq!(stats.pool_hits() + stats.pool_misses(), stats.recycled());
    }

    #[test]
    fn flush_is_idempotent_and_unstrands_capacity() {
        let pool = NodePool::for_node::<u64>(&cfg(1024, 64));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        for i in 0..16 {
            let n = pool.alloc(&mut mag, &stats, i as u64);
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        }
        assert!(!mag.is_empty(), "magazine caches below its capacity");
        pool.flush(&mut mag, &stats);
        assert!(mag.is_empty(), "flush spills everything");
        pool.flush(&mut mag, &stats);
        assert!(mag.is_empty());
        // Another magazine can now see the capacity.
        let mut other = pool.magazine();
        let n = pool.alloc(&mut other, &stats, 7u64);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut other, &stats, n.as_ptr(), true) };
        pool.flush(&mut other, &stats);
        assert!(stats.pool_hits() >= 1);
    }
}
