//! Layout-keyed node recycling: reclamation feeds allocation.
//!
//! Every reclamation scheme in the workspace ultimately frees nodes through
//! the global allocator, so at high thread counts the benchmarks measure
//! malloc contention as much as SMR cost. This module converts the reclaim
//! path into the allocator's fast path: reclaimed [`SmrNode`] memory is
//! pushed into a per-domain [`NodePool`] (cache-padded partitions of
//! Treiber-style lock-free lists of [`NodeBlock`]s) and `alloc` draws from
//! the pool before falling back to the global allocator.
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
//! * **Blocks, not node chains.** Free nodes are named by address in
//!   [`NodeBlock`]s — arrays of `max(recycle_magazine,
//!   effective_batch_size())` entries that chain through their own headers
//!   — and the pool moves whole blocks. Nothing is ever written into a free
//!   node to link it, and no loop reads a node to find the next one: a
//!   Hyaline batch's block, which already names its nodes, becomes the
//!   freeing handle's allocation block as it is, or its few entries are
//!   copied into that block ([`NodePool::dispose_block`]).
//! * **Magazines.** Each handle owns a bounded [`Magazine`]: the block it
//!   allocates from and disposes into (`items`, at most
//!   [`SmrConfig::recycle_magazine`] nodes), a private reserve and a few
//!   empty spare blocks. The common dispose→alloc round trip touches no
//!   shared cache line at all. A dispose into a full magazine spills its
//!   newer half as one block, so allocations and disposals alternating at
//!   the bound do not spill on every call. A refill takes the reserve's
//!   next block, else detaches a partition's *entire* chain with one `swap`
//!   and keeps it as the reserve; each step follows one block link, so a
//!   refill reads only the nodes it hands out. Spare blocks are what a
//!   batch names its nodes in. A batch's block comes from the retiring
//!   handle and goes to the magazine of the handle that frees it, so a
//!   magazine with more spares than it keeps gives them to the pool's
//!   shared list of empty blocks, and one that runs out takes that whole
//!   list: in a steady state almost no block is allocated (on
//!   `kv-service`, ~3–4k block allocations per 1.5 s trial instead of
//!   ~100k without the list). Magazines also buffer the pool's
//!   hit/miss/recycled statistics and flush them to [`SmrStats`] in
//!   batches, like [`LocalStats`](crate::LocalStats) does for the core
//!   counters.
//! * **No ABA by construction.** The shared lists — the partitions and
//!   the list of empty blocks — support exactly two operations:
//!   [`push_block`](NodePool) (a CAS-loop prepend of an exclusively-owned
//!   block) and `take_all` (an unconditional `swap` of the head to null). The classic Treiber *pop-one* — read `head`, read
//!   `head->next`, CAS `head → next` — is deliberately not implemented: a
//!   block popped by another thread can be handed out, emptied, refilled
//!   and pushed back while our CAS still compares equal, splicing its stale
//!   `next` (now a block in use) back into the list. `take_all` has no such
//!   window: the moment the swap returns, the entire chain is unreachable
//!   from the shared head, so reading its block links reads
//!   exclusively-owned memory and no CAS ever validates against state
//!   another thread can recycle. `push_block` only *writes* the link of a
//!   block it owns and never dereferences shared blocks.
//!   `interleave::recycle` model-checks this argument and demonstrates the
//!   pop-one trap via a fault-injected mutant.
//! * **Bounded.** Partitions cap their (approximate) length at
//!   [`SmrConfig::recycle_capacity`]` / partitions` nodes; a spill that
//!   finds its partition full frees the block's nodes through the real
//!   allocator, so a burst of retirements cannot pin unbounded memory. The
//!   list of empty blocks holds at most 8 of them. The pool itself frees
//!   every cached allocation on `Drop`.
//! * **A parked handle keeps its magazine.** A handle's
//!   [`SmrHandle::flush`](crate::SmrHandle::flush) — what a
//!   [`HandlePool`](crate::HandlePool) check-in runs — leaves the magazine,
//!   nodes and buffered counters alike, where it is; only dropping the
//!   handle spills it ([`NodePool::flush`]). A pooled worker re-takes the
//!   handle it parked, so its next allocations hit a warm magazine instead
//!   of a shared partition.
//!   What a parked handle holds back is bounded: at most
//!   [`SmrConfig::recycle_magazine`] nodes in `items` — a batch block
//!   larger than that (a batch outgrows it from 64 slots per shard on)
//!   keeps only that many and spills or reserves the rest — plus one
//!   detached reserve, and the reserve is at most one partition: the
//!   partition's cap, about `recycle_capacity / 8`, plus the one block
//!   whose push crossed it (under races the advisory `len` can let a
//!   partition overshoot by a few more blocks). Its empty spare blocks are
//!   at most 4, or the shared list's 8 right after it took that list.
//!
//! Recycling is **on by default** ([`SmrConfig::recycle`]). Turned off, a
//! pool routes straight to [`SmrNode::alloc`]/[`SmrNode::dealloc`], the
//! allocate/free-through-malloc path; blocks still circulate for batches.

use crate::block::{Chain, NodeBlock};
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

/// Empty blocks a magazine keeps for its next batch or its next `items`
/// block; an emptied block beyond them goes to the pool's shared list.
const SPARES: usize = 4;

/// Empty blocks the pool's shared list holds; one given back beyond them
/// goes to the allocator.
const SHARED_SPARES: usize = 2 * SPARES;

/// One cache-padded free-list partition, or the list of empty blocks.
///
/// `head` is the address of the first free [`NodeBlock`] (0 = empty); each
/// block stores the address of the next in its own header, so no pooled
/// node is ever written to link it. `len` is an approximate count of the
/// nodes (of the blocks, on the empty list) used only for capacity
/// bounding.
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
    /// Most nodes a magazine's `items` block holds.
    magazine_cap: usize,
    /// Capacity of a new block: room for a full batch or a full magazine.
    block_cap: usize,
    partition_cap: usize,
    partitions: Box<[CachePadded<Partition>]>,
    /// Empty blocks handed back by magazines with more than [`SPARES`].
    spares: CachePadded<Partition>,
    next_partition: AtomicUsize,
}

impl NodePool {
    /// A pool recycling nodes of payload type `T`, configured (and possibly
    /// disabled) by `config`'s recycle knobs. Its blocks hold
    /// `max(recycle_magazine, effective_batch_size())` nodes, so one block
    /// names a full batch.
    pub fn for_node<T>(config: &SmrConfig) -> Self {
        Self::with_layout(
            Layout::new::<SmrNode<T>>(),
            config.recycle,
            config.recycle_capacity,
            config.recycle_magazine,
            config.effective_batch_size(),
        )
    }

    fn with_layout(
        layout: Layout,
        enabled: bool,
        capacity: usize,
        magazine: usize,
        batch: usize,
    ) -> Self {
        let magazine_cap = magazine.max(1);
        Self {
            layout,
            enabled,
            magazine_cap,
            block_cap: magazine_cap.max(batch),
            partition_cap: capacity.div_ceil(PARTITIONS),
            partitions: (0..PARTITIONS)
                .map(|_| CachePadded::new(Partition::default()))
                .collect(),
            spares: CachePadded::new(Partition::default()),
            next_partition: AtomicUsize::new(0),
        }
    }

    /// Whether recycling is enabled for this pool.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh magazine bound to one of this pool's partitions (round-robin,
    /// so concurrent handles spread across partitions). It allocates nothing
    /// until it first caches a node.
    pub fn magazine(&self) -> Magazine {
        Magazine {
            partition: self.next_partition.fetch_add(1, Ordering::Relaxed) & (PARTITIONS - 1),
            items: None,
            reserve: Chain::default(),
            spares: Chain::default(),
            spare_count: 0,
            hits: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// An empty block for a batch to name its nodes in (see
    /// `NodePool::spare`). Blocks circulate whether or not recycling is on,
    /// so a steady state allocates none.
    #[inline]
    pub fn block(&self, mag: &mut Magazine) -> NodeBlock {
        self.spare(mag)
    }

    /// Allocates a node holding `value`, reusing pooled memory when possible.
    ///
    /// Falls back to [`SmrNode::alloc`] when the pool is disabled, empty, or
    /// keyed to a different layout.
    pub fn alloc<T>(&self, mag: &mut Magazine, shared: &SmrStats, value: T) -> NonNull<SmrNode<T>> {
        if !self.usable_for::<T>() {
            return SmrNode::alloc(value);
        }
        match self.grab::<T>(mag, shared) {
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
        match self.grab::<T>(mag, shared) {
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
        match &mut mag.items {
            Some(items) if items.len() < self.magazine_cap => items.push(node as usize),
            _ => self.dispose_into_full(mag, node as usize),
        }
        mag.recycled += 1;
        mag.maybe_flush_counts(shared);
    }

    /// Frees every node `block` names, returning how many: payloads flagged
    /// [`NodeBlock::LIVE`] are dropped now, and the block joins `mag` with
    /// the memory it names. Node memory is read only to drop a live payload
    /// of a type that needs dropping. With the pool disabled or keyed to
    /// another layout the nodes go back to the allocator and the emptied
    /// block becomes one of `mag`'s spares.
    ///
    /// # Safety
    ///
    /// Every entry must name an exclusively owned, not yet freed
    /// `SmrNode<T>`, flagged `LIVE` exactly when its payload is live.
    pub unsafe fn dispose_block<T>(
        &self,
        mag: &mut Magazine,
        shared: &SmrStats,
        mut block: NodeBlock,
    ) -> u64 {
        let n = block.len();
        if !self.usable_for::<T>() {
            for &entry in block.entries() {
                let node = (entry & !NodeBlock::LIVE) as *mut SmrNode<T>;
                // SAFETY: the caller hands over every entry's node, flagged
                // live exactly when its payload is.
                unsafe { SmrNode::dealloc(node, entry & NodeBlock::LIVE != 0) };
            }
            block.clear();
            self.give_spare(mag, block);
            return n as u64;
        }
        if std::mem::needs_drop::<T>() {
            for &entry in block.entries() {
                if entry & NodeBlock::LIVE != 0 {
                    // SAFETY: as above; the flag says the payload is live.
                    unsafe {
                        SmrNode::drop_value_in_place((entry & !NodeBlock::LIVE) as *mut SmrNode<T>)
                    };
                }
            }
        }
        mag.recycled += n as u64;
        self.take_in(mag, block);
        mag.maybe_flush_counts(shared);
        n as u64
    }

    /// Spills the whole magazine, reserve included, back to the pool, frees
    /// its spare blocks and publishes its buffered statistics. Schemes call
    /// this when a handle is dropped, so a retired handle never strands pool
    /// capacity; a parked one keeps its magazine (see the
    /// [module docs](self)).
    pub fn flush(&self, mag: &mut Magazine, shared: &SmrStats) {
        // One block per spill, so each re-checks the partition's bound.
        if let Some(items) = mag.items.take() {
            self.spill(mag, items);
        }
        while let Some(block) = mag.reserve.pop() {
            self.spill(mag, block);
        }
        mag.drop_spares();
        mag.flush_counts(shared);
    }

    fn usable_for<T>(&self) -> bool {
        self.enabled && Layout::new::<SmrNode<T>>() == self.layout
    }

    /// Pops one recycled allocation, refilling the magazine from the shared
    /// partitions when it is empty. Returns `None` on a pool miss.
    ///
    /// The next allocation's node is prefetched. A block often names nodes
    /// another core freed, and no free touches them any more, so without
    /// the hint the first write of every reused node would stall on a miss.
    fn grab<T>(&self, mag: &mut Magazine, shared: &SmrStats) -> Option<usize> {
        let raw = match mag.items.as_mut().and_then(NodeBlock::pop) {
            Some(raw) => Some(raw),
            None => self.refill(mag),
        };
        if let Some(&next) = mag.items.as_ref().and_then(|items| items.entries().last()) {
            SmrNode::<T>::prefetch((next & !NodeBlock::LIVE) as *const SmrNode<T>);
        }
        match raw {
            Some(_) => mag.hits += 1,
            None => mag.misses += 1,
        }
        mag.maybe_flush_counts(shared);
        raw.map(|entry| entry & !NodeBlock::LIVE)
    }

    /// `dispose` into a full (or absent) `items` block: the newer half of
    /// a full block spills as one block, as the magazine bound demands, and
    /// the entry joins the older half; an absent one is a spare block.
    /// Spilling only half keeps allocations and disposals alternating at
    /// the bound from spilling or refilling on every call.
    fn dispose_into_full(&self, mag: &mut Magazine, entry: usize) {
        let mut items = match mag.items.take() {
            Some(mut items) => {
                let newer = self.split_off(mag, &mut items, self.magazine_cap / 2);
                self.spill(mag, newer);
                items
            }
            None => self.spare(mag),
        };
        items.push(entry);
        mag.items = Some(items);
    }

    /// Adds a block of free nodes to the magazine. A small block (a
    /// partial batch's few nodes) is merged into `items` as `dispose`
    /// would add its nodes one by one: if they do not fit, the newer half
    /// of `items` spills first. A larger block replaces `items`, whose
    /// nodes spill as one block, and entries past the magazine's bound —
    /// only a batch larger than the magazine has them — spill as another.
    fn take_in(&self, mag: &mut Magazine, mut block: NodeBlock) {
        let keep = self.magazine_cap / 2;
        match mag.items.take() {
            Some(mut items)
                if !items.is_empty() && block.len() <= self.magazine_cap - keep =>
            {
                if items.len() + block.len() > self.magazine_cap {
                    let newer = self.split_off(mag, &mut items, keep);
                    self.spill(mag, newer);
                }
                items.extend_from_slice(block.entries());
                block.clear();
                self.give_spare(mag, block);
                mag.items = Some(items);
            }
            old => {
                match old {
                    Some(old) if old.is_empty() => self.give_spare(mag, old),
                    Some(old) => self.spill(mag, old),
                    None => {}
                }
                if block.len() > self.magazine_cap {
                    let excess = self.split_off(mag, &mut block, self.magazine_cap);
                    self.spill(mag, excess);
                }
                mag.items = Some(block);
            }
        }
    }

    /// An empty block: one of `mag`'s spares, else its emptied `items`
    /// block, else the blocks other magazines gave back (the shared list's
    /// whole chain, detached with one `swap` like a partition's, becomes
    /// `mag`'s spares), else a new one.
    fn spare(&self, mag: &mut Magazine) -> NodeBlock {
        if let Some(block) = mag.pop_spare() {
            return block;
        }
        if let Some(block) = mag.items.take_if(|items| items.is_empty()) {
            return block;
        }
        if self.spares.head.load(Ordering::Relaxed) != 0 {
            // Acquire pairs with the Release publish in `push_block`.
            let head = self.spares.head.swap(0, Ordering::Acquire);
            self.spares.len.swap(0, Ordering::Relaxed);
            // SAFETY: the swap made every block on the chain ours.
            mag.spares = unsafe { Chain::from_raw(head) };
            mag.spare_count = mag.spares.blocks();
            if let Some(block) = mag.pop_spare() {
                return block;
            }
        }
        NodeBlock::with_capacity(self.block_cap)
    }

    /// Keeps an emptied block as one of `mag`'s spares. Past [`SPARES`]
    /// it goes to the pool's shared list, where a magazine that runs out
    /// finds it, or to the allocator when that list holds
    /// [`SHARED_SPARES`]. A freed batch's block stays with the handle that
    /// freed it, so without the list the handles that retire would
    /// allocate a block per batch and the handles that free would drop one
    /// per batch.
    fn give_spare(&self, mag: &mut Magazine, block: NodeBlock) {
        debug_assert!(block.is_empty(), "a spare names no node");
        if mag.spare_count < SPARES {
            mag.spares.push(block);
            mag.spare_count += 1;
        } else if self.spares.len.load(Ordering::Relaxed) < SHARED_SPARES {
            self.push_block(&self.spares, block);
        }
    }

    /// Moves `block`'s entries past the oldest `keep` into a spare block,
    /// copying addresses only.
    fn split_off(&self, mag: &mut Magazine, block: &mut NodeBlock, keep: usize) -> NodeBlock {
        let mut tail = self.spare(mag);
        tail.extend_from_slice(&block.entries()[keep..]);
        block.truncate(keep);
        tail
    }

    /// Moves one block to the magazine's shared partition — or, when the
    /// partition is at capacity, frees its nodes for real and keeps the
    /// emptied block as a spare, so the pool's footprint stays bounded.
    fn spill(&self, mag: &mut Magazine, mut block: NodeBlock) {
        let part = &self.partitions[mag.partition];
        if !block.is_empty() && part.len.load(Ordering::Relaxed) < self.partition_cap {
            self.push_block(part, block);
            return;
        }
        for &entry in block.entries() {
            // SAFETY: every entry names an exclusively-owned allocation of
            // `self.layout` whose payload was already dropped, so freeing
            // the raw memory releases it fully.
            unsafe { dealloc((entry & !NodeBlock::LIVE) as *mut u8, self.layout) };
        }
        block.clear();
        self.give_spare(mag, block);
    }

    /// Prepends an exclusively-owned block onto a partition's free list or
    /// onto the list of empty blocks.
    ///
    /// ABA-free: the CAS only ever *writes* the block's own link (memory we
    /// own until the CAS succeeds) and never dereferences the observed head,
    /// so a stale comparand can only cost a retry, never a corrupt splice.
    fn push_block(&self, part: &Partition, mut block: NodeBlock) {
        let n = block.len();
        let raw = block.as_raw();
        let mut cur = part.head.load(Ordering::Relaxed);
        loop {
            block.set_next(cur);
            // Release publishes the block's link and entries to the next
            // take_all.
            match part
                .head
                .compare_exchange_weak(cur, raw, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        // The list owns the block now.
        let _ = block.into_raw();
        // An empty block counts as one: the empty list's `len` counts blocks.
        part.len.fetch_add(n.max(1), Ordering::Relaxed);
    }

    /// Refills an empty magazine and pops one node: the private reserve's
    /// next block comes first, and else a whole partition chain, detached
    /// with one `swap` (the magazine's own partition first, then the
    /// others), becomes the new reserve. The emptied `items` block becomes
    /// a spare, and entries of the taken block past the magazine's bound go
    /// back on the reserve as a block of their own.
    ///
    /// Every step moves a block by its header link: no node is read to find
    /// the next one, and a refill touches only the nodes it hands out.
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
    fn refill(&self, mag: &mut Magazine) -> Option<usize> {
        let mut block = match mag.reserve.pop() {
            Some(block) => block,
            None => {
                self.detach(mag);
                mag.reserve.pop()?
            }
        };
        debug_assert!(!block.is_empty(), "only non-empty blocks are pooled");
        if let Some(empty) = mag.items.take() {
            self.give_spare(mag, empty);
        }
        if block.len() > self.magazine_cap {
            let excess = self.split_off(mag, &mut block, self.magazine_cap);
            mag.reserve.push(excess);
        }
        let raw = block.pop();
        mag.items = Some(block);
        raw
    }

    /// Detaches a whole partition chain into `mag`'s empty reserve.
    fn detach(&self, mag: &mut Magazine) {
        for i in 0..self.partitions.len() {
            let part = &self.partitions[(mag.partition + i) & (PARTITIONS - 1)];
            if part.head.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // Acquire pairs with the Release publish in `push_block`; from
            // here the entire detached chain is exclusively ours, which is
            // what makes reading its block links safe (see module docs).
            let chain = part.head.swap(0, Ordering::Acquire);
            if chain == 0 {
                continue;
            }
            // The approximate `len` is zeroed wholesale rather than summed:
            // a push whose CAS lands between the two swaps can lose its
            // count, transiently under-counting the partition. `len` only
            // bounds capacity (saturating, advisory), so the trade is the
            // same one the counter already makes.
            part.len.swap(0, Ordering::Relaxed);
            // SAFETY: the swap made every block on the chain ours.
            mag.reserve = unsafe { Chain::from_raw(chain) };
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
            .field("block_cap", &self.block_cap)
            .field("partition_cap", &self.partition_cap)
            .finish_non_exhaustive()
    }
}

// SAFETY: the pool only stores addresses of exclusively-owned blocks and
// allocations; all shared mutation goes through atomics.
unsafe impl Send for NodePool {}
// SAFETY: as above — `push_block`/`take_all` are the only shared-list
// operations and both are atomic on `Partition::head`.
unsafe impl Sync for NodePool {}

impl Drop for NodePool {
    fn drop(&mut self) {
        // `&mut self`: no handle can race us, so plain walks are fine.
        for part in self.partitions.iter().chain([&self.spares]) {
            // ORDERING: `&mut self` proves the partitions are quiescent (no
            // concurrent pushers), so a Relaxed head load suffices.
            let head = part.head.load(Ordering::Relaxed);
            // SAFETY: as above, every block on the chain is ours now.
            let mut chain = unsafe { Chain::from_raw(head) };
            while let Some(block) = chain.pop() {
                for &entry in block.entries() {
                    // SAFETY: every pooled entry names an exclusively-owned
                    // allocation of `self.layout` whose payload was dropped
                    // before it entered the pool.
                    unsafe { dealloc((entry & !NodeBlock::LIVE) as *mut u8, self.layout) };
                }
            }
        }
    }
}

/// How many buffered statistic events a magazine holds before flushing to
/// the shared [`SmrStats`] (mirrors `LocalStats`' batching).
const STAT_FLUSH_EVERY: u64 = 64;

/// A handle-local bounded cache of recycled allocations and empty blocks
/// (plus buffered pool statistics), created by [`NodePool::magazine`].
///
/// A magazine must be flushed back to its pool (via [`NodePool::flush`])
/// before it is dropped; schemes do this in their handle `Drop`. A handle's
/// `flush()` — and with it a [`HandlePool`](crate::HandlePool) check-in —
/// leaves the magazine alone, so a parked handle keeps its cached nodes
/// (bounded as the [module docs](self) state).
pub struct Magazine {
    partition: usize,
    /// The block allocations pop from and disposals push onto, holding at
    /// most [`SmrConfig::recycle_magazine`] nodes.
    items: Option<NodeBlock>,
    /// Blocks detached wholesale from a partition by `refill`, handed out
    /// one at a time.
    reserve: Chain,
    /// Empty blocks, at most [`SPARES`]: the next batch's, the next `items`.
    spares: Chain,
    spare_count: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl Magazine {
    /// Nodes cached in this magazine outside its reserve.
    pub fn len(&self) -> usize {
        self.items.as_ref().map_or(0, NodeBlock::len)
    }

    /// Whether the magazine holds no cached nodes outside its reserve.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn pop_spare(&mut self) -> Option<NodeBlock> {
        let block = self.spares.pop()?;
        self.spare_count -= 1;
        Some(block)
    }

    fn drop_spares(&mut self) {
        while self.spares.pop().is_some() {}
        self.spare_count = 0;
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
            .field("cached", &self.len())
            .field("spares", &self.spare_count)
            .finish_non_exhaustive()
    }
}

// SAFETY: a magazine's blocks, and the nodes they name, are exclusively
// owned by it; moving the magazine to another thread moves that ownership
// wholesale.
unsafe impl Send for Magazine {}

impl Drop for Magazine {
    fn drop(&mut self) {
        // A magazine still caching nodes at drop is a scheme bug (its handle
        // failed to flush) and would leak them. Only a leak — never UB — so
        // debug-assert rather than abort release builds, and stay quiet
        // during unwinds where the flush legitimately never ran.
        if !std::thread::panicking() {
            debug_assert!(
                self.is_empty() && self.reserve.is_empty(),
                "magazine dropped with {} cached nodes (reserve empty: {}); the \
                 owning handle must flush it back to its NodePool first",
                self.len(),
                self.reserve.is_empty()
            );
        }
        self.drop_spares();
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

    /// One slot and two-node batches, so `magazine` alone sizes the blocks.
    fn cfg(capacity: usize, magazine: usize) -> SmrConfig {
        SmrConfig {
            slots: 1,
            batch_min: 2,
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

    /// The module docs' bound on what a parked handle holds back: after
    /// any mix of allocation bursts and disposals — node by node, as
    /// batch-sized blocks, and as blocks that grew past their capacity — at
    /// most `recycle_magazine` cached nodes, plus a reserve no larger than
    /// one partition (its cap plus the one block whose push crossed it).
    /// Both bounds are in nodes. One row has batches smaller than the
    /// magazine; in the other `effective_batch_size()` exceeds
    /// `recycle_magazine` and so decides the block size, as it does by
    /// default from 64 slots per shard on.
    #[test]
    fn parked_magazine_retention_is_bounded() {
        const CAPACITY: usize = 256;
        const MAGAZINE: usize = 8;
        for batch_min in [2, 3 * MAGAZINE] {
            let config = SmrConfig {
                batch_min,
                ..cfg(CAPACITY, MAGAZINE)
            };
            let batch = config.effective_batch_size();
            let pool = NodePool::for_node::<u64>(&config);
            assert_eq!(pool.block_cap, MAGAZINE.max(batch));
            // A block that doubled once: the largest one this test frees.
            let grown = 2 * pool.block_cap;
            let partition_cap = CAPACITY.div_ceil(PARTITIONS);
            let stats = SmrStats::new();
            let mut mags = [pool.magazine(), pool.magazine()];
            let mut saw_reserve = false;
            let bursts = [1u64, 7, 64, 300, 3, 1_000, 17, 40, 5, 90, 2, 500];
            for (round, burst) in bursts.into_iter().enumerate() {
                let mag = &mut mags[round % 2];
                let nodes: Vec<_> = (0..burst).map(|v| pool.alloc(mag, &stats, v)).collect();
                let chunk = match round % 3 {
                    0 => 0,
                    1 => batch,
                    _ => grown,
                };
                if chunk == 0 {
                    for n in nodes {
                        // SAFETY: exclusively owned, live payload.
                        unsafe { pool.dispose(mag, &stats, n.as_ptr(), true) };
                    }
                } else {
                    for part in nodes.chunks(chunk) {
                        let mut block = pool.block(mag);
                        for n in part {
                            block.push(n.as_ptr() as usize | NodeBlock::LIVE);
                        }
                        // SAFETY: every entry is an exclusively-owned node
                        // with a live payload.
                        unsafe { pool.dispose_block::<u64>(mag, &stats, block) };
                    }
                }
                let reserve = mag.reserve.entry_count();
                saw_reserve |= reserve > 0;
                assert!(
                    mag.len() <= MAGAZINE,
                    "batch {batch}, round {round}: {} cached",
                    mag.len()
                );
                assert!(
                    reserve <= partition_cap + grown,
                    "batch {batch}, round {round}: reserve of {reserve} nodes exceeds one partition"
                );
                assert!(
                    mag.spare_count <= SHARED_SPARES,
                    "batch {batch}, round {round}: {} spares",
                    mag.spare_count
                );
            }
            assert!(saw_reserve, "batch {batch}: no burst left a reserve behind");
            for mag in &mut mags {
                pool.flush(mag, &stats);
            }
            assert_eq!(stats.pool_hits() + stats.pool_misses(), stats.recycled());
        }
    }

    /// A freed batch's block joins the magazine whole: its nodes come back
    /// out of the pool exactly once each, only live payloads drop, and a
    /// partial batch's few nodes merge into the allocation block.
    #[test]
    fn dispose_block_hands_every_node_back_once() {
        // Its own counter: the other tests share `DROPS` and reset it.
        static BLOCK_DROPS: AtomicU64 = AtomicU64::new(0);
        struct Counted(#[allow(dead_code)] u64);
        impl Drop for Counted {
            fn drop(&mut self) {
                BLOCK_DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let pool = NodePool::for_node::<Counted>(&cfg(1024, 8));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let mut block = pool.block(&mut mag);
        let mut addrs = Vec::new();
        for i in 0..6 {
            let node = pool.alloc(&mut mag, &stats, Counted(i));
            addrs.push(node.as_ptr() as usize);
            block.push(node.as_ptr() as usize | NodeBlock::LIVE);
        }
        for _ in 0..2 {
            // SAFETY: the dummy's payload is never read; the block frees it
            // without a drop (its live bit is clear).
            let dummy = unsafe { pool.alloc_dummy::<Counted>(&mut mag, &stats) };
            addrs.push(dummy.as_ptr() as usize);
            block.push(dummy.as_ptr() as usize);
        }
        // SAFETY: every entry is an exclusively-owned node, flagged live
        // exactly when its payload is.
        let freed = unsafe { pool.dispose_block::<Counted>(&mut mag, &stats, block) };
        assert_eq!(freed, 8);
        assert_eq!(
            BLOCK_DROPS.load(Ordering::Relaxed),
            6,
            "only live payloads drop"
        );
        assert_eq!(mag.len(), 8);
        let mut reused: Vec<usize> = (0..8)
            .map(|i| pool.alloc(&mut mag, &stats, Counted(100 + i)).as_ptr() as usize)
            .collect();
        reused.sort_unstable();
        addrs.sort_unstable();
        assert_eq!(reused, addrs, "every node comes back exactly once");
        for raw in reused {
            // SAFETY: each was just allocated above and is exclusively owned.
            unsafe { pool.dispose(&mut mag, &stats, raw as *mut SmrNode<Counted>, true) };
        }
        // A two-node block merges into the non-empty allocation block.
        let mut small = pool.block(&mut mag);
        for i in 0..2 {
            small.push(
                pool.alloc(&mut mag, &stats, Counted(200 + i)).as_ptr() as usize | NodeBlock::LIVE,
            );
        }
        let (before, spares) = (mag.len(), mag.spare_count);
        // SAFETY: as above.
        unsafe { pool.dispose_block::<Counted>(&mut mag, &stats, small) };
        assert_eq!(mag.len(), before + 2);
        assert_eq!(
            mag.spare_count,
            (spares + 1).min(SPARES),
            "the merged block's array becomes a spare"
        );
        // Into a full magazine, a small block's entries merge after the
        // newer half spills, as node-by-node disposal would do.
        assert_eq!(mag.len(), 8);
        let mut more = pool.block(&mut mag);
        for i in 0..2 {
            more.push(
                pool.alloc(&mut mag, &stats, Counted(300 + i)).as_ptr() as usize | NodeBlock::LIVE,
            );
        }
        assert_eq!(mag.len(), 6);
        // SAFETY: as above.
        unsafe { pool.dispose_block::<Counted>(&mut mag, &stats, more) };
        assert_eq!(mag.len(), 8);
        let mut two = pool.block(&mut mag);
        for i in 0..2 {
            // Fresh nodes from the allocator, so the magazine stays full.
            let node = SmrNode::alloc(Counted(400 + i));
            two.push(node.as_ptr() as usize | NodeBlock::LIVE);
        }
        // SAFETY: as above.
        unsafe { pool.dispose_block::<Counted>(&mut mag, &stats, two) };
        assert_eq!(mag.len(), 8 / 2 + 2, "the newer half spilled, then the block merged");
        pool.flush(&mut mag, &stats);
        assert_eq!(BLOCK_DROPS.load(Ordering::Relaxed), 20);
        // The last two nodes came from the allocator, not the pool.
        assert_eq!(stats.pool_hits() + stats.pool_misses() + 2, stats.recycled());
    }

    /// A magazine keeps [`SPARES`] empty blocks and gives the rest to
    /// the pool's shared list, up to [`SHARED_SPARES`]; a magazine that runs
    /// out takes the whole list instead of allocating.
    #[test]
    fn surplus_spares_go_to_a_magazine_that_runs_out() {
        let pool = NodePool::for_node::<u64>(&cfg(1024, 8));
        let (mut freeing, mut retiring) = (pool.magazine(), pool.magazine());
        let blocks: Vec<NodeBlock> = (0..SPARES + SHARED_SPARES + 1)
            .map(|_| NodeBlock::with_capacity(pool.block_cap))
            .collect();
        let given: Vec<usize> = blocks[SPARES..SPARES + SHARED_SPARES]
            .iter()
            .map(NodeBlock::as_raw)
            .collect();
        for block in blocks {
            pool.give_spare(&mut freeing, block);
        }
        assert_eq!(freeing.spare_count, SPARES);
        assert_eq!(pool.spares.len.load(Ordering::Relaxed), SHARED_SPARES);
        let first = pool.block(&mut retiring);
        assert!(given.contains(&first.as_raw()), "a given-back block");
        assert_eq!(retiring.spare_count, SHARED_SPARES - 1);
        assert_eq!(pool.spares.head.load(Ordering::Relaxed), 0, "list taken whole");
        let stats = SmrStats::new();
        pool.give_spare(&mut retiring, first);
        pool.flush(&mut freeing, &stats);
        pool.flush(&mut retiring, &stats);
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
