//! Crystalline: wait-free memory reclamation atop the Hyaline batch core.
//!
//! This crate implements the repo's third scheme family (after the Hyaline
//! variants and the classic baselines), following *"Crystalline: Fast and
//! Memory Efficient Wait-Free Reclamation"* (Nikolaev & Ravindran — the same
//! author lineage as Hyaline). It reuses the Hyaline batch/reference-counting
//! skeleton (`hyaline::batch`: one `NRef` counter per batch of retired nodes,
//! three header words per node), the per-handle half every Hyaline variant
//! shares (`hyaline::local`: batch, traverse, free loop, padding, era stamp,
//! flush) and the robust per-thread-slot layout of Hyaline-1S (birth eras +
//! per-slot access eras), then removes the two places where Hyaline's
//! progress is merely lock-free:
//!
//! * **Wait-free `retire` — [`CrystallineL`].** Hyaline inserts a batch into
//!   each active slot's retirement list with a CAS loop, which concurrent
//!   inserters can starve. Crystalline bounds the attempts
//!   ([`SmrConfig::handoff_attempts`]) and then *hands the batch off*: one
//!   unconditional `swap` deposits the batch's REFS pointer into the slot's
//!   dedicated *handoff cell*, tagged with the slot's 16-bit occupancy
//!   sequence. The cell entry carries one `NRef` reference, exactly like a
//!   list insertion; the slot's owner collects it at `leave`. A later
//!   retirer that displaces the entry releases its reference only when the
//!   tag proves the deposit-time occupancy has ended — otherwise it *adopts*
//!   the entry and retries after the occupancy sequence advances (spilling
//!   to a domain-wide orphan list if the handle drops first). Wrap-around of
//!   the 16-bit tag errs only in the conservative direction: equal tags keep
//!   the reference alive, never release it early.
//!
//! * **Helped `protect` — [`CrystallineW`].** An era-based protect loop
//!   terminates only when the global era stays put across one pointer load;
//!   threads that keep advancing the era can starve it. Crystalline-W gives
//!   every slot a *state/result* word pair: after a bounded fast path the
//!   owner publishes a request (`req`), and any thread about to advance the
//!   era first *helps* — it raises the slot's access era with a CAS-max
//!   `touch` and then certifies the raised era into `result`. The owner
//!   consumes the certificate by reloading the pointer and checking the era
//!   did not pass the certified value, so the protection invariant (access
//!   era published before the load it covers) is exactly the one Hyaline-1S
//!   establishes for itself. Helpers touch only the domain's own slot words
//!   — never memory owned by the data structure — so helping cannot
//!   use-after-free by construction. A per-slot monotone request sequence
//!   defeats stale certificates from helpers of an earlier request.
//!
//! Both variants implement [`smr_core::Smr`], so every `lockfree-ds`
//! structure, `Sharded` adapter, `HandlePool`, and the async `TaskGuard`
//! path work unchanged. Like Hyaline-1S they are *robust*: a stalled
//! reader's access era goes stale and retirement skips its slot, so the
//! peak retired-but-unreclaimed count stays bounded under stalls (the
//! `stalled-reader` sweep in `bench-harness` records this directly).
//!
//! The handoff and helping protocols are exhaustively model-checked in
//! `interleave::crystalline`, including fault-injected variants (releasing
//! a displaced entry without the tag check, forgetting the handoff's `NRef`
//! reference, certifying before touching) that the checker must catch.
//!
//! # Quick start
//!
//! ```
//! use crystalline::CrystallineL;
//! use smr_core::{Smr, SmrHandle};
//!
//! let domain: CrystallineL<u32> = CrystallineL::new();
//! let mut h = domain.handle();
//! h.enter();
//! let node = h.alloc(7);
//! unsafe { h.retire(node) };
//! h.leave();
//! ```

#![warn(missing_docs)]

use crossbeam_utils::CachePadded;
use hyaline::batch::{adjust_refs, chain_next, free_batch, header, FinalizedBatch, W_NEXT};
use hyaline::head::{AtomicHead1, Head1Word, HeadWord};
use hyaline::local::Local;
use smr_core::{
    Atomic, EraClock, LocalStats, NodePool, Shared, SlotRegistry, Smr, SmrConfig, SmrHandle,
    SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bit 63 of a slot's `result` word: set while the request is unanswered
/// (the low bits then carry the request sequence). Clear once a helper has
/// certified an era (the word then *is* the certified era, which never
/// reaches 2^63 in practice).
const EMPTY_BIT: u64 = 1 << 63;

/// Low bits of a `result`/`req` word: the request sequence.
const SEQ_MASK: u64 = EMPTY_BIT - 1;

/// Low 16 bits of the occupancy sequence used as the handoff-cell tag
/// (packed beside the 48-bit REFS pointer, like the Hyaline head word).
const TAG_MASK: u64 = 0xffff;

/// Fast-path rounds of the Crystalline-W protect loop before the owner
/// publishes a help request.
const PROTECT_FAST_ROUNDS: usize = 8;

/// Raises `access` to at least `era` (the paper's CAS-max `touch`).
///
/// Unlike Hyaline-1S's plain owner store this never moves the era
/// *backward*, which matters in Crystalline-W where helpers also raise it:
/// a plain owner store could undo a helper's raise and let a retirer skip
/// the slot while the owner holds a helper-certified pointer.
fn touch_max(access: &AtomicU64, era: u64) {
    let mut cur = access.load(Ordering::SeqCst);
    while cur < era {
        match access.compare_exchange_weak(cur, era, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

/// One Crystalline slot: the Hyaline-1S head/access pair plus the wait-free
/// machinery — the occupancy sequence, the handoff cell, and the
/// Crystalline-W state/result words.
#[derive(Debug)]
struct CrystalSlot {
    /// Retirement-list head + active bit (identical to Hyaline-1S).
    head: AtomicHead1,
    /// The owner's access era; in Crystalline-W helpers raise it too.
    access: AtomicU64,
    /// Occupancy sequence, bumped by the owner at `leave`. Its low 16 bits
    /// tag handoff-cell entries so displacers can tell whether the
    /// deposit-time occupancy has ended.
    seq: AtomicU64,
    /// The handoff cell: a [`HeadWord`]-packed (16-bit tag | 48-bit REFS
    /// pointer) entry, or 0 when empty. Each non-empty entry holds one
    /// `NRef` reference on its batch.
    handoff: AtomicUsize,
    /// Crystalline-W: pending request sequence (0 = no request).
    req: AtomicU64,
    /// Crystalline-W: `EMPTY_BIT | seq` while pending, the certified era
    /// once helped.
    result: AtomicU64,
    /// Crystalline-W: monotone request counter. Lives in the slot (not the
    /// handle) so sequences never repeat across handle reuse of the slot.
    help_seq: AtomicU64,
}

impl CrystalSlot {
    fn new() -> Self {
        Self {
            head: AtomicHead1::new(),
            access: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            handoff: AtomicUsize::new(0),
            req: AtomicU64::new(0),
            result: AtomicU64::new(0),
            help_seq: AtomicU64::new(0),
        }
    }
}

/// An adopted handoff entry: `(slot index, deposit-time tag, REFS node)`.
/// The reference is released once the slot's occupancy sequence moves past
/// the tag; until then the batch is conservatively kept alive.
type Adopted<T> = (usize, usize, *mut SmrNode<T>);

/// A Crystalline reclamation domain. `HELPING = false` is
/// [`CrystallineL`] (wait-free retire); `HELPING = true` is
/// [`CrystallineW`] (additionally helps stalled protect loops).
pub struct Crystalline<T: Send + 'static, const HELPING: bool> {
    slots: Box<[CachePadded<CrystalSlot>]>,
    registry: SlotRegistry,
    era: EraClock,
    era_freq: u64,
    batch_min: usize,
    handoff_attempts: usize,
    /// Adopted entries whose handle dropped before the guarded occupancy
    /// ended. Swept opportunistically by draining handles and finally at
    /// domain drop. REFS pointers are stored as `usize` so the domain stays
    /// auto-`Send`/`Sync`.
    orphans: Mutex<Vec<(usize, usize, usize)>>,
    stats: SmrStats,
    pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

/// Crystalline-L: wait-free retire via the per-slot handoff cell.
pub type CrystallineL<T> = Crystalline<T, false>;

/// Crystalline-W: Crystalline-L plus wait-free helping of protect loops
/// through the per-slot state/result words.
pub type CrystallineW<T> = Crystalline<T, true>;

impl<T: Send + 'static, const HELPING: bool> std::fmt::Debug for Crystalline<T, HELPING> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(if HELPING {
            "CrystallineW"
        } else {
            "CrystallineL"
        })
        .field("capacity", &self.slots.len())
        .field("registered", &self.registry.claimed())
        .field("era", &self.era.current())
        .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, const HELPING: bool> Crystalline<T, HELPING> {
    /// Completes pending protect requests before the caller advances the
    /// era: raise the slot's access to the current era, then certify it.
    /// Era advancers are exactly the threads that can starve a protect
    /// loop, so they help first (Crystalline-W's helping rule).
    fn help_pending(&self) {
        for idx in self.registry.iter_claimed() {
            let slot = &self.slots[idx];
            let rseq = slot.req.load(Ordering::Acquire);
            if rseq == 0 {
                continue;
            }
            let r = slot.result.load(Ordering::Acquire);
            if r & EMPTY_BIT == 0 || (r & SEQ_MASK) != rseq {
                // Already certified, or the owner is between re-arming the
                // result word and publishing the new request.
                continue;
            }
            let e = self.era.current();
            debug_assert_eq!(e & EMPTY_BIT, 0, "era overflowed into the EMPTY bit");
            touch_max(&slot.access, e);
            fence(Ordering::SeqCst);
            // Certify only the exact request we observed: a stale helper of
            // an earlier request cannot match the current `EMPTY | seq`.
            let _ = slot
                .result
                .compare_exchange(r, e, Ordering::AcqRel, Ordering::Relaxed);
        }
    }
}

impl<T: Send + 'static, const HELPING: bool> Smr<T> for Crystalline<T, HELPING> {
    type Handle<'d> = CrystallineHandle<'d, T, HELPING>;

    fn with_config(config: SmrConfig) -> Self {
        let capacity = config.max_threads;
        Self {
            slots: (0..capacity)
                .map(|_| CachePadded::new(CrystalSlot::new()))
                .collect(),
            registry: SlotRegistry::new(capacity),
            era: EraClock::new(),
            era_freq: config.era_freq,
            batch_min: config.batch_min,
            handoff_attempts: config.handoff_attempts,
            orphans: Mutex::new(Vec::new()),
            stats: SmrStats::new(),
            pool: NodePool::for_node::<T>(&config),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> CrystallineHandle<'_, T, HELPING> {
        CrystallineHandle {
            slot: self.registry.claim(),
            domain: self,
            handle: ptr::null_mut(),
            active: false,
            adopted: Vec::new(),
            access_cache: 0,
            local: Local::new(&self.pool, &self.stats),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        if HELPING {
            "Crystalline-W"
        } else {
            "Crystalline-L"
        }
    }

    fn robust() -> bool {
        true
    }

    fn supports_trim() -> bool {
        true
    }

    fn needs_seek_validation() -> bool {
        // Era scheme: same reasoning as Hyaline-S/1S — era-skipped batches
        // are not covered by a later deref, so traversals must re-validate.
        true
    }

    fn wait_free_retire() -> bool {
        true
    }
}

impl<T: Send + 'static, const HELPING: bool> Drop for Crystalline<T, HELPING> {
    fn drop(&mut self) {
        // Every handle borrows the domain, so all of them have been dropped:
        // every occupancy has ended, every list has been traversed, and the
        // only outstanding NRef references live in handoff cells and the
        // orphan list. Release them all; every batch then crosses zero.
        let mut reap: Vec<*mut SmrNode<T>> = Vec::new();
        for slot in self.slots.iter() {
            debug_assert_eq!(
                slot.head.load(Ordering::Acquire),
                Head1Word::EMPTY,
                "Crystalline domain dropped with a non-empty slot"
            );
            let cell = HeadWord(slot.handoff.swap(0, Ordering::Acquire));
            let refs = cell.ptr::<SmrNode<T>>();
            if !refs.is_null() {
                // SAFETY: no occupancy survives (all handles dropped), so no
                // reader the cell entry guards can still reference the
                // batch; releasing its reference is final and safe.
                unsafe { adjust_refs(refs, 1usize.wrapping_neg(), &mut reap) };
            }
        }
        let orphans = std::mem::take(
            &mut *self
                .orphans
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for (_, _, refs_bits) in orphans {
            // SAFETY: as above — quiescent teardown; the orphaned entry's
            // reference is the last obstacle to the batch crossing zero.
            unsafe { adjust_refs(refs_bits as *mut SmrNode<T>, 1usize.wrapping_neg(), &mut reap) };
        }
        let mut freed = 0u64;
        for refs in reap {
            // SAFETY: the batch's NRef crossed zero above; no thread can
            // still reference any of its nodes.
            freed += unsafe { free_batch(refs) };
        }
        if freed > 0 {
            let mut ls = LocalStats::new();
            ls.on_free(&self.stats, freed);
            ls.flush(&self.stats);
        }
    }
}

/// Per-thread handle to a [`Crystalline`] domain; owns one slot.
pub struct CrystallineHandle<'d, T: Send + 'static, const HELPING: bool> {
    domain: &'d Crystalline<T, HELPING>,
    slot: usize,
    handle: *mut SmrNode<T>,
    active: bool,
    adopted: Vec<Adopted<T>>,
    /// Lower bound on our slot's access era. Exact in Crystalline-L (the
    /// handle is the sole writer); in Crystalline-W helpers may have raised
    /// the real value further, which only strengthens protection.
    access_cache: u64,
    /// The Hyaline half: batch, reap list, statistics, magazine.
    local: Local<'d, T>,
}

// SAFETY: owned raw node pointers (the local batch, reap list and magazine
// inside `local`, adopted handoff entries, slot head snapshot) plus plain
// counters and `Sync` domain, pool and stats borrows; the cached access era
// is a lower bound that remains valid from any thread (only this handle and
// — in Crystalline-W — helpers write the slot's access, and helpers only
// raise it). Nothing is thread-affine.
unsafe impl<T: Send + 'static, const HELPING: bool> Send for CrystallineHandle<'_, T, HELPING> {}

impl<T: Send + 'static, const HELPING: bool> std::fmt::Debug
    for CrystallineHandle<'_, T, HELPING>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrystallineHandle")
            .field("slot", &self.slot)
            .field("active", &self.active)
            .field("adopted", &self.adopted.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, const HELPING: bool> CrystallineHandle<'_, T, HELPING> {
    /// The dedicated slot owned by this handle.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Adopted handoff entries still held (test/diagnostic accessor).
    pub fn adopted_len(&self) -> usize {
        self.adopted.len()
    }

    /// Disposes of a displaced handoff entry: releases its batch reference
    /// when the tag proves the deposit-time occupancy ended, otherwise
    /// adopts it for a later retry.
    ///
    /// The entry is this handle's sole responsibility from the moment the
    /// swap returned it — the slot owner will never see it again.
    fn release_or_adopt(&mut self, idx: usize, prev: HeadWord) {
        let refs = prev.ptr::<SmrNode<T>>();
        if refs.is_null() {
            return;
        }
        let tag = prev.refs();
        let now = (self.domain.slots[idx].seq.load(Ordering::SeqCst) & TAG_MASK) as usize;
        if now != tag {
            // The occupancy the entry was deposited under has ended (tag
            // mismatch implies at least one `leave` since the deposit), so
            // no reader it guards can still reference the batch.
            // SAFETY: the entry holds exactly one NRef reference and we are
            // its sole owner after the displacing swap; the deposit-time
            // occupant has left, so releasing cannot free a batch any
            // protected reader still uses.
            unsafe { adjust_refs(refs, 1usize.wrapping_neg(), &mut self.local.reap) };
        } else {
            // Same low 16 bits: the occupancy *may* still be the one the
            // entry guards (a 2^16-leave wrap also lands here, which only
            // delays the release). Hold the reference and retry later.
            self.adopted.push((idx, tag, refs));
        }
    }

    /// Releases every adopted entry whose guarded occupancy has ended.
    fn retry_adopted(&mut self) {
        if self.adopted.is_empty() {
            return;
        }
        let mut still = Vec::new();
        for (idx, tag, refs) in std::mem::take(&mut self.adopted) {
            let now = (self.domain.slots[idx].seq.load(Ordering::SeqCst) & TAG_MASK) as usize;
            if now != tag {
                // SAFETY: same argument as `release_or_adopt`'s release arm
                // — the guarded occupancy ended, the reference is ours.
                unsafe { adjust_refs(refs, 1usize.wrapping_neg(), &mut self.local.reap) };
            } else {
                still.push((idx, tag, refs));
            }
        }
        self.adopted = still;
    }

    /// Opportunistically releases matured orphaned entries (adopted entries
    /// whose handle dropped before the guarded occupancy ended). Skips the
    /// sweep entirely when the lock is contended — orphans are rare and the
    /// domain's `Drop` sweeps whatever remains.
    fn sweep_orphans(&mut self) {
        let Ok(mut orphans) = self.domain.orphans.try_lock() else {
            return;
        };
        if orphans.is_empty() {
            return;
        }
        let mut still = Vec::new();
        for (idx, tag, refs_bits) in orphans.drain(..) {
            let now = (self.domain.slots[idx].seq.load(Ordering::SeqCst) & TAG_MASK) as usize;
            if now != tag {
                // SAFETY: same argument as `release_or_adopt`'s release arm;
                // ownership of the entry passed to the orphan list when the
                // adopting handle dropped, and we hold the list's lock.
                unsafe {
                    adjust_refs(
                        refs_bits as *mut SmrNode<T>,
                        1usize.wrapping_neg(),
                        &mut self.local.reap,
                    )
                };
            } else {
                still.push((idx, tag, refs_bits));
            }
        }
        *orphans = still;
    }

    /// Inserts a finalized batch into every slot that is active *and*
    /// era-fresh enough to possibly reference it, counting insertions.
    ///
    /// Unlike Hyaline-1S this is **wait-free**: after
    /// `handoff_attempts` failed CASes on one slot the batch is deposited
    /// into the slot's handoff cell with a single unconditional swap. The
    /// cell entry carries one NRef reference (counted in `inserts` like a
    /// list insertion); a displaced previous entry is handled by
    /// [`release_or_adopt`](Self::release_or_adopt).
    ///
    /// # Safety
    ///
    /// `fin` must come from this handle's own `LocalBatch::finalize` and be
    /// unpublished: no other thread may have seen any chain node yet.
    unsafe fn insert_batch(&mut self, mut fin: FinalizedBatch<T>) {
        let domain = self.domain;
        fence(Ordering::SeqCst);
        let mut insert_node = fin.chain_head;
        // Once the chain is exhausted, remaining slots each take a fresh
        // dummy; a node already linked into one slot list must never be
        // pushed onto a second one. Handoffs consume no chain node at all —
        // the cell holds the REFS pointer directly.
        let mut spare: *mut SmrNode<T> = ptr::null_mut();
        let mut inserts: usize = 0;
        for idx in domain.registry.iter_claimed() {
            let slot = &domain.slots[idx];
            let mut attempts = 0usize;
            loop {
                let head = slot.head.load(Ordering::Acquire);
                let access = slot.access.load(Ordering::SeqCst);
                if !head.active() || access < fin.min_birth {
                    break;
                }
                if attempts >= domain.handoff_attempts {
                    // Wait-free handoff. Read the occupancy tag *after* the
                    // activity check: any occupant that could reference the
                    // batch is either the tagged occupancy (the entry is
                    // released only once the tag moves past it) or has
                    // already left (releasing is then safe regardless).
                    let tag = (slot.seq.load(Ordering::SeqCst) & TAG_MASK) as usize;
                    inserts += 1;
                    let prev = HeadWord(
                        slot.handoff
                            .swap(HeadWord::pack(tag, fin.refs_node as usize).0, Ordering::AcqRel),
                    );
                    self.release_or_adopt(idx, prev);
                    break;
                }
                let node = if insert_node != fin.refs_node {
                    insert_node
                } else {
                    if spare.is_null() {
                        spare = self.local.spare_dummy(&mut fin);
                    }
                    spare
                };
                header(node)
                    .word(W_NEXT)
                    .store(head.ptr::<SmrNode<T>>() as usize, Ordering::Relaxed);
                let new = Head1Word::pack(true, node);
                if slot
                    .head
                    .compare_exchange(head, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    inserts += 1;
                    if node == insert_node {
                        insert_node = chain_next(insert_node);
                    } else {
                        spare = ptr::null_mut(); // dummy consumed
                    }
                    break;
                }
                attempts += 1;
            }
        }
        adjust_refs(fin.refs_node, inserts, &mut self.local.reap);
    }

    fn finalize_partial(&mut self) {
        if self.local.batch.is_empty() {
            return;
        }
        // REFS + one insertion candidate; `insert_batch` extends on demand.
        self.local.pad_batch(2);
        // SAFETY: all batch nodes are owned by this handle and unpublished.
        let fin = unsafe { self.local.batch.finalize(0) };
        // SAFETY: `fin` is this handle's own freshly finalized batch.
        unsafe { self.insert_batch(fin) };
    }

    fn drain(&mut self) {
        self.retry_adopted();
        self.sweep_orphans();
        self.local.drain();
    }

    /// Crystalline-W slow-path protect: publish a request, let era
    /// advancers certify a raised access era, consume the certificate.
    fn protect_slow(&mut self, src: &Atomic<T>) -> Shared<T> {
        let domain = self.domain;
        let slot = &domain.slots[self.slot];
        loop {
            // Arm a fresh request: result word first (EMPTY | seq), then the
            // request itself — helpers check them in the same order. The
            // sequence is slot-resident and monotone, so a certificate can
            // never be matched to a request it was not produced for.
            let mut seq = slot.help_seq.load(Ordering::Relaxed).wrapping_add(1) & SEQ_MASK;
            if seq == 0 {
                seq = 1; // keep `req` distinguishable from "no request"
            }
            slot.help_seq.store(seq, Ordering::Relaxed);
            slot.result.store(EMPTY_BIT | seq, Ordering::SeqCst);
            slot.req.store(seq, Ordering::SeqCst);
            loop {
                let r = slot.result.load(Ordering::Acquire);
                if r & EMPTY_BIT == 0 {
                    // Certified: a helper raised our access to at least `r`
                    // *before* writing the certificate, so the reservation
                    // is already published. Reload the pointer under it.
                    self.access_cache = self.access_cache.max(r);
                    fence(Ordering::SeqCst);
                    let node = src.load(Ordering::Acquire);
                    if domain.era.current() <= r {
                        // era-at-load <= current era <= certified era <=
                        // published access: the protection invariant holds.
                        slot.req.store(0, Ordering::SeqCst);
                        return node;
                    }
                    break; // stale certificate — re-arm with a fresh seq
                }
                // Self-help one round (publish, then reload): liveness does
                // not depend on other threads allocating.
                let e = domain.era.current();
                touch_max(&slot.access, e);
                fence(Ordering::SeqCst);
                self.access_cache = self.access_cache.max(e);
                let node = src.load(Ordering::Acquire);
                if domain.era.current() == e {
                    slot.req.store(0, Ordering::SeqCst);
                    return node;
                }
            }
        }
    }
}

impl<T: Send + 'static, const HELPING: bool> SmrHandle<T> for CrystallineHandle<'_, T, HELPING> {
    fn enter(&mut self) {
        debug_assert!(!self.active, "enter while already inside an operation");
        self.domain.slots[self.slot].head.enter();
        self.handle = ptr::null_mut();
        self.active = true;
    }

    fn leave(&mut self) {
        debug_assert!(self.active, "leave without a matching enter");
        self.active = false;
        let slot = &self.domain.slots[self.slot];
        let old = slot.head.leave();
        // End this occupancy *before* collecting the cell: displacers
        // holding entries tagged with the old sequence may release them as
        // soon as the bump is visible, and any entry deposited after our
        // collect (by a retirer that saw a stale active head) becomes
        // releasable the same way.
        slot.seq.fetch_add(1, Ordering::SeqCst);
        let cell = HeadWord(slot.handoff.swap(0, Ordering::AcqRel));
        let cell_refs = cell.ptr::<SmrNode<T>>();
        if !cell_refs.is_null() {
            // SAFETY: the entry's deposit-time occupant is either this
            // handle (now leaving — by the SMR contract it no longer
            // dereferences protected pointers) or an earlier occupancy that
            // already left; releasing the cell's reference is safe.
            unsafe { adjust_refs(cell_refs, 1usize.wrapping_neg(), &mut self.local.reap) };
        }
        let head: *mut SmrNode<T> = old.ptr();
        if !head.is_null() {
            // SAFETY: `leave` detached the list; its nodes stay live until
            // this traversal applies our decrement to each batch.
            unsafe { self.local.traverse(head, self.handle) };
        }
        self.handle = ptr::null_mut();
        self.drain();
    }

    fn trim(&mut self) {
        debug_assert!(self.active, "trim outside an operation");
        // §3.3-style trim of the retirement list only. The handoff cell is
        // deliberately *not* collected: its entry may guard pointers this
        // very occupancy read after the trim point, and the release
        // condition (occupancy sequence advanced) cannot hold while we are
        // still inside the operation.
        let head = self.domain.slots[self.slot].head.load(Ordering::Acquire);
        let curr: *mut SmrNode<T> = head.ptr();
        if curr != self.handle {
            debug_assert!(!curr.is_null());
            // SAFETY: we are still inside the operation, so the head and its
            // sublist are pinned by our slot's active reference.
            let next =
                unsafe { header(curr).word(W_NEXT).load(Ordering::Acquire) } as *mut SmrNode<T>;
            // SAFETY: as above — the sublist is pinned until traversed.
            unsafe { self.local.traverse(next, self.handle) };
            self.handle = curr;
        }
        self.drain();
    }

    fn alloc(&mut self, value: T) -> Shared<T> {
        let domain = self.domain;
        if self.local.era_due(domain.era_freq) {
            if HELPING {
                // Crystalline-W: complete pending protect requests before
                // advancing the era — advancers are the threads that can
                // starve a protect loop, so they help first.
                domain.help_pending();
            }
            domain.era.advance();
        }
        self.local.alloc(value, Some(&domain.era))
    }

    // SAFETY: per the `SmrHandle::dealloc` contract the node was never
    // published, so this thread owns it outright and may free it in place.
    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        self.local.dealloc(ptr);
    }

    fn protect(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        let domain = self.domain;
        let slot = &domain.slots[self.slot];
        if !HELPING {
            // Crystalline-L: exactly the Hyaline-1S loop. The handle is the
            // slot's only access writer, so a plain store suffices and the
            // cache is exact.
            loop {
                let node = src.load(Ordering::Acquire);
                let alloc = domain.era.current();
                if self.access_cache >= alloc {
                    return node;
                }
                slot.access.store(alloc, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                self.access_cache = alloc;
            }
        }
        // Crystalline-W fast path: identical shape, but *all* access
        // updates are CAS-max touches — a plain owner store could move the
        // access era backward past a helper's raise and un-protect a
        // helper-certified pointer.
        for _ in 0..PROTECT_FAST_ROUNDS {
            let node = src.load(Ordering::Acquire);
            let e = domain.era.current();
            if self.access_cache >= e {
                return node;
            }
            touch_max(&slot.access, e);
            fence(Ordering::SeqCst);
            self.access_cache = self.access_cache.max(e);
        }
        self.protect_slow(src)
    }

    // SAFETY: per the `SmrHandle::retire` contract the node is unlinked from
    // every shared structure, so batching it for deferred free is sound.
    unsafe fn retire(&mut self, ptr: Shared<T>) {
        debug_assert!(self.active, "retire outside an operation");
        let domain = self.domain;
        let target = domain.batch_min.max(domain.registry.claimed() + 1);
        if self.local.retire(ptr, true) >= target {
            let fin = self.local.batch.finalize(0);
            self.insert_batch(fin);
            self.drain();
        }
    }

    fn flush(&mut self) {
        self.finalize_partial();
        self.drain();
        self.local.flush();
    }
}

impl<T: Send + 'static, const HELPING: bool> Drop for CrystallineHandle<'_, T, HELPING> {
    fn drop(&mut self) {
        if self.active {
            self.leave();
        }
        self.finalize_partial();
        self.drain();
        if !self.adopted.is_empty() {
            // Entries still guarding a live occupancy outlive this handle:
            // pass their references to the domain's orphan list, swept by
            // other handles' drains and finally by the domain's Drop.
            let mut orphans = self
                .domain
                .orphans
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for (idx, tag, refs) in self.adopted.drain(..) {
                orphans.push((idx, tag, refs as usize));
            }
        }
        self.local.flush();
        self.domain.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn small_config() -> SmrConfig {
        SmrConfig {
            batch_min: 4,
            era_freq: 4,
            max_threads: 32,
            ..SmrConfig::default()
        }
    }

    /// Payload that counts drops through a shared counter, so tests can
    /// assert exact reclamation balance even after the domain is gone.
    struct Counted(Arc<AtomicU64>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn capability_flags() {
        assert_eq!(<CrystallineL<u64> as Smr<u64>>::name(), "Crystalline-L");
        assert_eq!(<CrystallineW<u64> as Smr<u64>>::name(), "Crystalline-W");
        assert!(<CrystallineL<u64> as Smr<u64>>::robust());
        assert!(<CrystallineL<u64> as Smr<u64>>::wait_free_retire());
        assert!(<CrystallineW<u64> as Smr<u64>>::wait_free_retire());
        assert!(<CrystallineL<u64> as Smr<u64>>::supports_trim());
        assert!(<CrystallineL<u64> as Smr<u64>>::needs_seek_validation());
        assert!(!<CrystallineL<u64> as Smr<u64>>::shardable_by_pointer());
    }

    #[test]
    fn touch_max_never_lowers() {
        let a = AtomicU64::new(10);
        touch_max(&a, 5);
        assert_eq!(a.load(Ordering::SeqCst), 10);
        touch_max(&a, 17);
        assert_eq!(a.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn single_thread_reclaims_everything() {
        let d: CrystallineL<u64> = Crystalline::with_config(small_config());
        {
            let mut h = d.handle();
            for i in 0..200u64 {
                h.enter();
                let node = h.alloc(i);
                // SAFETY: `node` was never published; no other reference exists.
                unsafe { h.retire(node) };
                h.leave();
            }
        }
        assert!(d.stats().balanced());
        assert_eq!(d.stats().allocated(), d.stats().freed());
    }

    #[test]
    fn forced_handoff_single_thread_reclaims_everything() {
        // handoff_attempts = 0: every insertion into an active slot goes
        // through the handoff cell, exercising deposit, displacement,
        // adoption (own occupancy) and release at leave.
        let d: CrystallineL<u64> = Crystalline::with_config(SmrConfig {
            handoff_attempts: 0,
            ..small_config()
        });
        {
            let mut h = d.handle();
            for i in 0..500u64 {
                h.enter();
                let node = h.alloc(i);
                // SAFETY: `node` was never published; no other reference exists.
                unsafe { h.retire(node) };
                h.leave();
            }
        }
        assert!(d.stats().balanced());
        assert_eq!(d.stats().allocated(), d.stats().freed());
    }

    #[test]
    fn stalled_thread_is_skipped_by_era() {
        let d = &CrystallineL::<u64>::with_config(small_config());
        let entered = &std::sync::Barrier::new(2);
        let done = &std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut stalled = d.handle();
                stalled.enter();
                entered.wait();
                done.wait();
                stalled.leave();
            });
            entered.wait();
            let mut worker = d.handle();
            for i in 0..10_000u64 {
                worker.enter();
                let node = worker.alloc(i);
                // SAFETY: `node` was never published; no other reference exists.
                unsafe { worker.retire(node) };
                worker.leave();
            }
            worker.flush();
            let unreclaimed = d.stats().unreclaimed();
            assert!(
                unreclaimed < 1_000,
                "stalled thread pinned {unreclaimed} nodes; Crystalline must be robust"
            );
            done.wait();
        });
        assert!(d.stats().balanced());
    }

    #[test]
    fn fresh_reader_is_tracked_not_skipped() {
        let d = &CrystallineW::<u64>::with_config(small_config());
        let published = &std::sync::Barrier::new(2);
        let protected = &std::sync::Barrier::new(2);
        let release = &std::sync::Barrier::new(2);
        let link = &Atomic::<u64>::null();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut reader = d.handle();
                reader.enter();
                published.wait();
                let seen = reader.protect(0, link);
                assert!(!seen.is_null());
                // SAFETY: `seen` came from `protect` inside the operation.
                assert_eq!(unsafe { *seen.deref() }, 42);
                protected.wait();
                release.wait();
                // SAFETY: still protected — the era reservation pins `seen`.
                assert_eq!(unsafe { *seen.deref() }, 42);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(42);
            link.store(node, Ordering::Release);
            published.wait();
            protected.wait();
            let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
            // SAFETY: the swap unlinked the node from the only shared link.
            unsafe { writer.retire(unlinked) };
            writer.leave();
            writer.flush();
            release.wait();
        });
        assert!(d.stats().balanced());
        assert_eq!(d.stats().allocated(), d.stats().freed());
    }

    #[test]
    fn multithreaded_stress_l() {
        let d = &CrystallineL::<u64>::with_config(small_config());
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    let mut h = d.handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        let node = h.alloc(t * 1_000_000 + i);
                        // SAFETY: the node is thread-local until retired.
                        unsafe { h.retire(node) };
                        h.leave();
                    }
                });
            }
        });
        assert!(d.stats().balanced());
        assert_eq!(d.stats().allocated(), d.stats().freed());
    }

    #[test]
    fn multithreaded_stress_w_with_eager_eras() {
        // era_freq = 1 makes every alloc an era advance, so the helping
        // path runs constantly alongside protects.
        let d = &CrystallineW::<u64>::with_config(SmrConfig {
            era_freq: 1,
            ..small_config()
        });
        let link = &Atomic::<u64>::null();
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    let mut h = d.handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        let node = h.alloc(t * 1_000_000 + i);
                        let old = link.swap(node, Ordering::AcqRel);
                        let _seen = h.protect(0, link);
                        if !old.is_null() {
                            // SAFETY: the swap took the only shared link to
                            // `old`; it is unreachable for later operations.
                            unsafe { h.retire(old) };
                        }
                        h.leave();
                    }
                });
            }
        });
        // Tear down the last published node.
        let mut h = d.handle();
        h.enter();
        let last = link.swap(Shared::null(), Ordering::AcqRel);
        if !last.is_null() {
            // SAFETY: the swap unlinked the node from the only shared link.
            unsafe { h.retire(last) };
        }
        h.leave();
        drop(h);
        assert!(d.stats().balanced());
        assert_eq!(d.stats().allocated(), d.stats().freed());
    }

    #[test]
    fn contended_forced_handoff_drops_every_payload() {
        // All insertions go through handoff cells under real contention;
        // exact payload-drop balance is checked after the domain drops
        // (floating cell entries and orphans are swept by then).
        let drops = Arc::new(AtomicU64::new(0));
        let allocs = AtomicU64::new(0);
        {
            let d = &CrystallineW::<Counted>::with_config(SmrConfig {
                handoff_attempts: 0,
                batch_min: 4,
                era_freq: 4,
                max_threads: 32,
                ..SmrConfig::default()
            });
            let link = &Atomic::<Counted>::null();
            let allocs = &allocs;
            let drops2 = &drops;
            std::thread::scope(|s| {
                for _ in 0..6 {
                    s.spawn(move || {
                        let mut h = d.handle();
                        for _ in 0..1_500 {
                            h.enter();
                            let node = h.alloc(Counted(Arc::clone(drops2)));
                            allocs.fetch_add(1, Ordering::Relaxed);
                            let old = link.swap(node, Ordering::AcqRel);
                            if !old.is_null() {
                                // SAFETY: the swap took the only shared link
                                // to `old`.
                                unsafe { h.retire(old) };
                            }
                            h.leave();
                        }
                    });
                }
            });
            let mut h = d.handle();
            h.enter();
            let last = link.swap(Shared::null(), Ordering::AcqRel);
            if !last.is_null() {
                // SAFETY: the swap unlinked the node from the only shared link.
                unsafe { h.retire(last) };
            }
            h.leave();
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            allocs.load(Ordering::Relaxed),
            "every allocated payload must drop exactly once by domain teardown"
        );
    }

    #[test]
    fn trim_reclaims_mid_operation() {
        let d: CrystallineL<u64> = Crystalline::with_config(small_config());
        let mut h = d.handle();
        h.enter();
        for i in 0..64u64 {
            let node = h.alloc(i);
            // SAFETY: `node` was never published; no other reference exists.
            unsafe { h.retire(node) };
        }
        h.flush();
        h.trim();
        h.leave();
        drop(h);
        assert!(d.stats().balanced());
    }
}
