//! The one registry-and-scan reclaimer behind Epoch, HP, HE and IBR.
//!
//! All four schemes have the same shape: a handle claims a per-thread
//! *block* in a fixed registry and publishes its protection there; retired
//! nodes wait in a handle-local limbo `Vec`; a *scan* snapshots every
//! claimed block and frees the limbo nodes the snapshot does not pin. They
//! differ only in what the block holds and in the pin predicate, which is
//! what a [`Policy`] states. Everything else — [`Domain`], [`Handle`], the
//! limbo, the orphan hand-off, the scan and its cadence — exists once, here.
//!
//! # Scan cadence
//!
//! `retire` scans when the limbo reaches `next_scan`, and every scan sets
//! `next_scan = survivors + max(scan_threshold, survivors)`. A scan over `n`
//! nodes is therefore paid for by at least `n / 2` new retires (amortised
//! O(1) limbo visits per retire even when a stalled reader pins everything),
//! and a robust scheme's limbo never exceeds twice what is pinned plus
//! `scan_threshold`. `flush` and handle drop go through the same scan, and
//! adopted orphans are survivors like any other node, so inheriting a dead
//! handle's pinned chain does not make every later retire rescan it.
//!
//! A scan reads claimed blocks only: `SlotRegistry::iter_claimed` stops at
//! the registry's high-water mark, so the default `max_threads: 1024` costs
//! construction memory, not scan time.
//!
//! # Orphans
//!
//! When a handle is dropped while other threads still pin some of its limbo,
//! those nodes cannot be freed yet; classic implementations make
//! unregistration *blocking* (the paper calls this out as a transparency
//! failure, Section 2.4). To keep handle drop non-blocking — and tests
//! deadlock-free — a dying handle pushes its remaining limbo onto a
//! lock-free [`OrphanList`] that the next scan of any handle adopts.

use crossbeam_utils::CachePadded;
use smr_core::{
    Atomic, EraClock, LocalStats, Magazine, NodeHeader, NodePool, Shared, SlotRegistry, Smr,
    SmrConfig, SmrHandle, SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicPtr, Ordering};

/// Header word chaining orphaned nodes; words 1 and 2 are the policy's.
const W_CHAIN_NEXT: usize = 0;
/// Header word: birth era (set at allocation, survives until free).
const W_BIRTH: usize = 1;
/// Header word: retire era (or epoch).
const W_RETIRE: usize = 2;

/// The `[birth, retire]` stamps of a retired node (0 where never stamped).
#[inline]
pub(crate) fn lifetime(header: &NodeHeader) -> (u64, u64) {
    (
        header.word(W_BIRTH).load(Ordering::Relaxed) as u64,
        header.word(W_RETIRE).load(Ordering::Relaxed) as u64,
    )
}

/// The domain's era (or epoch) clock and its advance frequency.
#[derive(Debug)]
pub struct Clock {
    era: EraClock,
    freq: u64,
}

impl Clock {
    /// The current era.
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.era.current()
    }

    /// Counts one event in the caller's `counter`; every
    /// [`SmrConfig::era_freq`]-th event advances the clock.
    #[inline]
    pub(crate) fn tick(&self, counter: &mut u64) {
        *counter += 1;
        if counter.is_multiple_of(self.freq) {
            self.era.advance();
        }
    }
}

/// What distinguishes one registry scheme from another: the published
/// per-thread block, what the operations store in it, which header words
/// `alloc`/`retire` stamp, and when a scan must keep a node.
///
/// Policies are zero-sized markers; every hook is a static function the
/// core calls with the caller's own block and handle-private state.
pub trait Policy: 'static {
    /// One thread's published protection, read by every scan.
    type Block: Send + Sync;
    /// Handle-private state (operation counters, cached words).
    type Local: Default + Send;
    /// What a scan collects from the claimed blocks.
    type Snapshot;

    /// [`Smr::name`].
    const NAME: &'static str;
    /// [`Smr::robust`].
    const ROBUST: bool;
    /// [`Smr::needs_seek_validation`].
    const NEEDS_SEEK_VALIDATION: bool = false;
    /// Whether `alloc` stamps the node's birth era (and counts the
    /// allocation toward the clock's next advance).
    const STAMPS_BIRTH: bool;
    /// Whether `retire` stamps the node's retire era.
    const STAMPS_RETIRE: bool;

    /// A block that protects nothing.
    fn block(config: &SmrConfig) -> Self::Block;

    /// [`SmrHandle::enter`].
    fn enter(_clock: &Clock, _block: &Self::Block, _local: &mut Self::Local) {}

    /// [`SmrHandle::leave`]; handle drop runs it too, so it must withdraw
    /// everything the handle published.
    fn leave(block: &Self::Block, local: &mut Self::Local);

    /// [`SmrHandle::protect`].
    fn protect<T>(
        clock: &Clock,
        block: &Self::Block,
        local: &mut Self::Local,
        idx: usize,
        src: &Atomic<T>,
    ) -> Shared<T>;

    /// [`SmrHandle::copy_protection`].
    fn copy_protection(_block: &Self::Block, _from: usize, _to: usize) {}

    /// Reads the claimed blocks once, after the scan's fence.
    fn snapshot<'a>(blocks: impl Iterator<Item = &'a Self::Block>) -> Self::Snapshot;

    /// Whether the snapshot still protects the retired node at address
    /// `node` whose stamps [`lifetime`] reads from `header`; a scan frees
    /// exactly the others.
    fn pinned(snapshot: &Self::Snapshot, node: usize, header: &NodeHeader) -> bool;
}

/// A reclamation domain: the registry of per-thread blocks, the clock, the
/// orphan list and the node pool. `Ebr`, `Hp`, `He` and `Ibr` are aliases
/// of this type with their policy filled in.
pub struct Domain<T: Send + 'static, P: Policy> {
    blocks: Box<[CachePadded<P::Block>]>,
    registry: SlotRegistry,
    clock: Clock,
    scan_threshold: usize,
    orphans: OrphanList<T>,
    stats: SmrStats,
    pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send + 'static, P: Policy> std::fmt::Debug for Domain<T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("scheme", &P::NAME)
            .field("era", &self.clock.now())
            .field("registered", &self.registry.claimed())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, P: Policy> Smr<T> for Domain<T, P> {
    type Handle<'d> = Handle<'d, T, P>;

    fn with_config(config: SmrConfig) -> Self {
        Self {
            blocks: (0..config.max_threads)
                .map(|_| CachePadded::new(P::block(&config)))
                .collect(),
            registry: SlotRegistry::new(config.max_threads),
            clock: Clock {
                era: EraClock::new(),
                freq: config.era_freq,
            },
            scan_threshold: config.scan_threshold,
            orphans: OrphanList::new(),
            stats: SmrStats::new(),
            pool: NodePool::for_node::<T>(&config),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> Handle<'_, T, P> {
        Handle {
            slot: self.registry.claim(),
            domain: self,
            local: P::Local::default(),
            allocs: 0,
            limbo: Vec::new(),
            next_scan: self.scan_threshold,
            visited: 0,
            local_stats: LocalStats::new(),
            mag: self.pool.magazine(),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        P::NAME
    }

    fn robust() -> bool {
        P::ROBUST
    }

    fn needs_seek_validation() -> bool {
        P::NEEDS_SEEK_VALIDATION
    }
}

impl<T: Send + 'static, P: Policy> Drop for Domain<T, P> {
    fn drop(&mut self) {
        // All handles are gone; everything left is orphaned and safe.
        let mut freed = 0;
        // SAFETY: `&mut self` owns the detached chain, nothing is published
        // any more, and each node is freed exactly once.
        unsafe {
            OrphanList::for_each_owned(self.orphans.take_all(), |node| {
                SmrNode::dealloc(node, true);
                freed += 1;
            });
        }
        self.stats.add_freed(freed);
    }
}

/// Per-thread handle to a [`Domain`]: its registry slot, the policy's
/// private state and the limbo list.
pub struct Handle<'d, T: Send + 'static, P: Policy> {
    domain: &'d Domain<T, P>,
    slot: usize,
    local: P::Local,
    /// Allocations so far (drives the era clock when the policy stamps
    /// birth eras).
    allocs: u64,
    limbo: Vec<*mut SmrNode<T>>,
    /// Limbo length at which `retire` scans next.
    next_scan: usize,
    /// Limbo nodes examined by this handle's scans so far.
    pub(crate) visited: u64,
    local_stats: LocalStats,
    mag: Magazine,
}

// SAFETY: the limbo list holds exclusively owned retired nodes, the registry
// slot index stays valid wherever the handle runs (the handle remains the
// block's only writer), `P::Local` is `Send`, and the domain borrow is
// `Sync`. A parked handle may therefore move between tasks.
unsafe impl<T: Send + 'static, P: Policy> Send for Handle<'_, T, P> {}

impl<T: Send + 'static, P: Policy> std::fmt::Debug for Handle<'_, T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("scheme", &P::NAME)
            .field("slot", &self.slot)
            .field("limbo", &self.limbo.len())
            .field("next_scan", &self.next_scan)
            .field("visited", &self.visited)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, P: Policy> Handle<'_, T, P> {
    /// Length of the limbo list (retired by or adopted into this handle and
    /// not yet freed).
    #[cfg(test)]
    pub(crate) fn limbo_len(&self) -> usize {
        self.limbo.len()
    }

    /// Adopts any orphaned chains into our limbo list.
    fn adopt_orphans(&mut self) {
        let chain = self.domain.orphans.take_all();
        // SAFETY: `take_all` handed us the whole chain; nobody else holds it.
        unsafe { OrphanList::for_each_owned(chain, |node| self.limbo.push(node)) };
    }

    /// Frees every limbo node (ours and adopted) that the claimed blocks do
    /// not pin, and schedules the next scan from what survived.
    fn scan(&mut self) {
        self.adopt_orphans();
        fence(Ordering::SeqCst);
        let domain = self.domain;
        let snapshot = P::snapshot(domain.registry.iter_claimed().map(|i| &*domain.blocks[i]));
        let mag = &mut self.mag;
        let before = self.limbo.len();
        self.limbo.retain(|&node| {
            // SAFETY: limbo nodes are retired and exclusively ours until
            // freed; the header outlives the payload.
            let pinned = P::pinned(&snapshot, node as usize, unsafe { (*node).header() });
            if !pinned {
                // SAFETY: unlinked before `retire`, and no published
                // protection covers it: no thread can still reach the node.
                unsafe { domain.pool.dispose(mag, &domain.stats, node, true) };
            }
            pinned
        });
        let survivors = self.limbo.len();
        if survivors < before {
            self.local_stats
                .on_free(&domain.stats, (before - survivors) as u64);
        }
        self.visited += before as u64;
        self.next_scan = survivors + survivors.max(domain.scan_threshold);
    }
}

impl<T: Send + 'static, P: Policy> SmrHandle<T> for Handle<'_, T, P> {
    fn enter(&mut self) {
        let domain = self.domain;
        P::enter(&domain.clock, &domain.blocks[self.slot], &mut self.local);
    }

    fn leave(&mut self) {
        P::leave(&self.domain.blocks[self.slot], &mut self.local);
    }

    fn alloc(&mut self, value: T) -> Shared<T> {
        let domain = self.domain;
        self.local_stats.on_alloc(&domain.stats);
        let node = domain.pool.alloc(&mut self.mag, &domain.stats, value);
        if P::STAMPS_BIRTH {
            domain.clock.tick(&mut self.allocs);
            // SAFETY: the pool returned a live node nobody else has seen yet.
            unsafe { node.as_ref() }
                .header()
                .word(W_BIRTH)
                .store(domain.clock.now() as usize, Ordering::Relaxed);
        }
        Shared::from_node(node)
    }

    // SAFETY: per the `SmrHandle::dealloc` contract the node was never
    // published, so this thread owns it outright and may free it in place.
    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        let domain = self.domain;
        self.local_stats.on_dealloc(&domain.stats);
        // SAFETY: as above.
        unsafe {
            domain
                .pool
                .dispose(&mut self.mag, &domain.stats, ptr.as_node_ptr(), true)
        };
    }

    /// # Panics
    ///
    /// HP and HE panic if `idx` is not below [`SmrConfig::max_protect`].
    fn protect(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T> {
        let domain = self.domain;
        let block = &domain.blocks[self.slot];
        P::protect(&domain.clock, block, &mut self.local, idx, src)
    }

    fn copy_protection(&mut self, from: usize, to: usize) {
        P::copy_protection(&self.domain.blocks[self.slot], from, to);
    }

    // SAFETY: per the `SmrHandle::retire` contract the node is a live one
    // from this domain's `alloc`, unlinked from every shared structure and
    // retired once, so the limbo owns it until a scan frees it.
    unsafe fn retire(&mut self, ptr: Shared<T>) {
        let domain = self.domain;
        let node = ptr.as_node_ptr();
        if P::STAMPS_RETIRE {
            // SAFETY: live, as above.
            unsafe { (*node).header() }
                .word(W_RETIRE)
                .store(domain.clock.now() as usize, Ordering::Relaxed);
        }
        self.local_stats.on_retire(&domain.stats);
        self.limbo.push(node);
        if self.limbo.len() >= self.next_scan {
            self.scan();
        }
    }

    /// Scans and publishes the core statistics. The magazine, with its
    /// buffered pool counters, stays with the handle until it drops.
    fn flush(&mut self) {
        self.scan();
        self.local_stats.flush(&self.domain.stats);
    }
}

impl<T: Send + 'static, P: Policy> Drop for Handle<'_, T, P> {
    fn drop(&mut self) {
        let domain = self.domain;
        P::leave(&domain.blocks[self.slot], &mut self.local);
        self.scan();
        // SAFETY: the limbo nodes are exclusively ours, so their chain word
        // may be rewritten and the linked chain handed over whole.
        unsafe {
            if let Some((head, tail)) = link_chain(&self.limbo) {
                // Still-pinned nodes outlive us; hand them to future scanners.
                domain.orphans.push_chain(head, tail);
            }
        }
        domain.pool.flush(&mut self.mag, &domain.stats);
        self.local_stats.flush(&domain.stats);
        domain.registry.release(self.slot);
    }
}

/// A lock-free stack of orphaned node chains.
pub(crate) struct OrphanList<T> {
    head: AtomicPtr<SmrNode<T>>,
}

impl<T> OrphanList<T> {
    pub(crate) fn new() -> Self {
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Pushes a chain of nodes linked through header word 0.
    ///
    /// # Safety
    ///
    /// `head..=tail` must be a valid chain of exclusively owned retired
    /// nodes; `tail`'s word 0 is overwritten.
    pub(crate) unsafe fn push_chain(&self, head: *mut SmrNode<T>, tail: *mut SmrNode<T>) {
        debug_assert!(!head.is_null() && !tail.is_null());
        let mut old = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `tail` is live and ours until the CAS below publishes it.
            unsafe { (*tail).header() }
                .word(W_CHAIN_NEXT)
                .store(old as usize, Ordering::Relaxed);
            match self
                .head
                .compare_exchange_weak(old, head, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(now) => old = now,
            }
        }
    }

    /// Detaches the entire orphan list, returning the chain head (possibly
    /// null). The caller takes ownership of every node in the chain.
    pub(crate) fn take_all(&self) -> *mut SmrNode<T> {
        self.head.swap(std::ptr::null_mut(), Ordering::AcqRel)
    }

    /// Walks a chain taken by [`OrphanList::take_all`], invoking `f` on each
    /// node (the next link is read before `f` runs, so `f` may free the node).
    ///
    /// # Safety
    ///
    /// `head` must be a chain returned by `take_all` that the caller owns.
    pub(crate) unsafe fn for_each_owned(
        mut head: *mut SmrNode<T>,
        mut f: impl FnMut(*mut SmrNode<T>),
    ) {
        while !head.is_null() {
            // SAFETY: the caller owns every node of the chain.
            let header = unsafe { (*head).header() };
            // ORDERING: the `AcqRel` swap in `take_all` already ordered this
            // read after the pusher's link stores.
            let next = header.word(W_CHAIN_NEXT).load(Ordering::Relaxed) as *mut _;
            f(head);
            head = next;
        }
    }
}

/// Links a limbo vector into a chain through header word 0 and returns
/// `(head, tail)`; helper for handing nodes to an [`OrphanList`].
///
/// # Safety
///
/// The nodes must be exclusively owned; word 0 of each is overwritten.
/// Other header words (retire epochs / eras) are preserved.
pub(crate) unsafe fn link_chain<T>(
    nodes: &[*mut SmrNode<T>],
) -> Option<(*mut SmrNode<T>, *mut SmrNode<T>)> {
    let (&head, rest) = nodes.split_first()?;
    let mut prev = head;
    for &node in rest {
        // SAFETY: `prev` is one of the caller's exclusively owned nodes.
        unsafe { (*prev).header() }
            .word(W_CHAIN_NEXT)
            .store(node as usize, Ordering::Relaxed);
        prev = node;
    }
    Some((head, prev))
}

/// The scan-cost case every registry policy runs in its `tests` module; it
/// reads the writer's limbo and visit counters, so it cannot be a
/// conformance case.
#[cfg(test)]
pub(crate) mod tests {
    use super::{Domain, Policy};
    use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
    use std::sync::atomic::Ordering;
    use std::sync::Barrier;

    /// A reader parked inside an operation pins the writer's garbage: it
    /// entered before the writer's first retire (which is all Epoch and IBR
    /// need) and holds `protect` on `PINS` published-then-retired nodes, more
    /// than `scan_threshold` (the only way a hazard scheme's limbo stays over
    /// the floor). The writer's scans must still visit O(1) limbo nodes per
    /// retire — rescanning the pinned limbo on every retire visits ~n²/2 under
    /// Epoch and ~`PINS`·n under the others — and a robust scheme's limbo must
    /// stay within twice what is pinned plus the floor.
    pub(crate) fn scan_work_is_amortised<P: Policy>() {
        const PINS: usize = 8;
        let config = SmrConfig {
            era_freq: 32,
            scan_threshold: 4,
            max_protect: PINS,
            max_threads: 32,
            ..SmrConfig::default()
        };
        for churned in [1u64 << 12, 1 << 15] {
            let d = &Domain::<u64, P>::with_config(config.clone());
            let links: &Vec<Atomic<u64>> = &(0..PINS).map(|_| Atomic::null()).collect();
            let published = &Barrier::new(2);
            let protected = &Barrier::new(2);
            let done = &Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut reader = d.handle();
                    reader.enter();
                    published.wait();
                    for (idx, link) in links.iter().enumerate() {
                        let _ = reader.protect(idx, link);
                    }
                    protected.wait();
                    done.wait();
                    reader.leave();
                });
                let mut writer = d.handle();
                for (v, link) in links.iter().enumerate() {
                    link.store(writer.alloc(v as u64), Ordering::Release);
                }
                published.wait();
                protected.wait();
                writer.enter();
                for link in links {
                    // SAFETY: just unlinked, retired once.
                    unsafe { writer.retire(link.swap(Shared::null(), Ordering::AcqRel)) };
                }
                writer.leave();
                // Outside an operation, so the writer's own reservation pins
                // nothing and the pinned set only grows: its final size is its peak.
                let mut max_limbo = 0;
                for v in 0..churned {
                    let node = writer.alloc(v);
                    // SAFETY: never published, retired once.
                    unsafe { writer.retire(node) };
                    max_limbo = max_limbo.max(writer.limbo_len());
                }
                writer.flush();
                let (retires, pinned) = (churned + PINS as u64, writer.limbo_len());
                done.wait(); // release the reader before any assert can unwind
                assert!(pinned >= PINS, "{}: only {pinned} nodes pinned", P::NAME);
                assert!(
                    writer.visited <= 4 * retires,
                    "{}: {} limbo visits for {retires} retires",
                    P::NAME,
                    writer.visited
                );
                if P::ROBUST {
                    assert!(
                        max_limbo <= 2 * pinned + config.scan_threshold,
                        "{}: limbo reached {max_limbo} with {pinned} pinned",
                        P::NAME
                    );
                }
            });
        }
    }
}
