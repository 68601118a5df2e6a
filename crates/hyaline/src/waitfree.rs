//! What Crystalline adds to Hyaline-1S, and nothing else.
//!
//! *"Crystalline: Fast and Memory Efficient Wait-Free Reclamation"* removes
//! the two places where Hyaline-1S is merely lock-free, and `domain.rs`
//! switches each in with one constant (the [`Crystalline`](crate::Crystalline)
//! alias's docs have the protocols in full; `interleave::crystalline`
//! model-checks them):
//!
//! * `HANDOFF` (Crystalline-L) — `retire`'s per-slot CAS loop can lose to
//!   other inserters forever. After
//!   [`handoff_attempts`](smr_core::SmrConfig::handoff_attempts) failures
//!   [`Handle::hand_off`] swaps the batch into the slot's tagged *handoff
//!   cell*, which holds one `NRef` reference until the slot's owner collects
//!   it at `leave` ([`Handle::collect_handoff`]). A displaced entry is
//!   released only once its tag proves the deposit-time occupancy over, and
//!   until then adopted: retried on every drain, orphaned to the domain if
//!   the handle drops first.
//! * `HELPING` (Crystalline-W) — the era `protect` loop ends only when the
//!   clock stands still across one pointer load. After
//!   [`PROTECT_FAST_ROUNDS`] the owner publishes a request
//!   ([`Handle::protect_slow`]), and whoever is about to advance the clock
//!   first raises the requester's access era and certifies it
//!   ([`Domain::help_pending`]). Helpers touch slot words only.
//!
//! # What it costs over Hyaline-1S
//!
//! ROADMAP price-list item 4 asked where `crystalline-w.*` loses a factor
//! of two to `hyaline-s.*`. The table is every atomic operation the two
//! switches add on the probed paths. A scratch ladder over the three
//! settings (one handle, no contention, 4 M calls each, on 2 hardware
//! threads of a shared 2.1 GHz Xeon container host) read `enter` + `leave`
//! 16.9 ns (Hyaline-1S) → 47.9 (L) → 47.9 (W), `alloc` + `retire` 34.3 →
//! 66.8 → 66.8 and `protect` 1.36 → 1.36 → 2.41. So the factor is
//! `HANDOFF`'s four locked instructions in `leave`, about 8 ns each there;
//! `HELPING` is a nanosecond per `protect` call and nothing else until an
//! era moves. The sequence bump and the cell swap are the protocol. The
//! orphan-list lock pair is not — an emptiness flag in front of it is the
//! one cheap cut left.
//!
//! | path | Hyaline-1S | `HANDOFF` adds | `HELPING` adds |
//! |---|---|---|---|
//! | `enter` + `leave` | store; swap | `SeqCst` `fetch_add` on `seq`; `AcqRel` swap on the cell; the drain's `try_lock` + unlock of the orphan list (also paid by each `retire`/`flush`/`trim` that drains) | — |
//! | `alloc` + `retire` | per claimed slot a head load, an access load if active, a CAS; one `fetch_add` on `NRef` | a `seq` load and a swap, only for a slot whose CAS failed `handoff_attempts` times | every `era_freq`-th `alloc`: a sweep of the claimed slots' `req` words before the clock advances |
//! | `protect` | when the era moved: owner store + fence | — | CAS-max for the store; a request and its certificate after 8 rounds in one call |

use smr_core::{Atomic, Shared, SmrNode};
use std::sync::atomic::{fence, Ordering};

use crate::batch::adjust_refs;
use crate::domain::{touch, Domain, Handle};
use crate::head::HeadWord;
use crate::local::Local;
use crate::slots::SlotDirectory;

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

/// Rounds of the protect loop before a Crystalline-W owner publishes a help
/// request.
pub(crate) const PROTECT_FAST_ROUNDS: usize = 8;

/// The `NRef` delta that gives back the one reference an entry holds.
const RELEASE: usize = 1usize.wrapping_neg();

/// An adopted handoff entry: `(slot index, deposit-time tag, REFS node)`.
/// The reference is released once the slot's occupancy sequence moves past
/// the tag; until then the batch is conservatively kept alive.
pub(crate) type Adopted<T> = (usize, usize, *mut SmrNode<T>);

/// Releases a displaced entry's batch reference if the tag proves the
/// occupancy it was deposited under has ended (a mismatch implies at least
/// one `leave` since the deposit, so no reader it guards can still
/// reference the batch). Equal low 16 bits mean the occupancy *may* still be
/// the guarded one — a 2^16-leave wrap also lands here, which only delays
/// the release — and the entry is kept: returns `false`.
///
/// # Safety
///
/// The caller must own the entry and its one `NRef` reference: it displaced
/// it, adopted it, or holds the orphan list's lock.
unsafe fn release_if_ended<T>(
    dir: &SlotDirectory,
    (idx, tag, refs): Adopted<T>,
    reap: &mut Vec<*mut SmrNode<T>>,
) -> bool {
    let now = (dir.slot(idx).seq.load(Ordering::SeqCst) & TAG_MASK) as usize;
    if now == tag {
        return false;
    }
    // SAFETY: the entry's `NRef` reference is ours, so the batch is live
    // until this release.
    unsafe { adjust_refs(refs, RELEASE, reap) };
    true
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool>
    Domain<T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    /// Completes pending protect requests before the caller advances the
    /// era: raise the slot's access to the current era, then certify it.
    pub(crate) fn help_pending(&self) {
        for idx in self.registry.iter_claimed() {
            let slot = self.dir.slot(idx);
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
            touch(slot, e);
            fence(Ordering::SeqCst);
            // Certify only the exact request we observed: a stale helper of
            // an earlier request cannot match the current `EMPTY | seq`.
            let _ = slot
                .result
                .compare_exchange(r, e, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    /// Domain teardown. Every handle borrowed the domain, so every
    /// occupancy has ended and every list has been traversed: the only
    /// outstanding `NRef` references live in handoff cells and the orphan
    /// list. Releasing them all brings every batch across zero.
    pub(crate) fn sweep_teardown(&self) {
        let mut local = Local::<T>::new(&self.pool, &self.stats);
        for i in 0..self.dir.k() {
            let cell = HeadWord(self.dir.slot(i).handoff.swap(0, Ordering::Acquire));
            let refs = cell.ptr::<SmrNode<T>>();
            if !refs.is_null() {
                // SAFETY: no occupancy survives (all handles dropped), so no
                // reader the cell entry guards can still reference the
                // batch; releasing its reference is final and safe.
                unsafe { adjust_refs(refs, RELEASE, &mut local.reap) };
            }
        }
        let mut orphans = self.orphans.lock().unwrap_or_else(|p| p.into_inner());
        for (_, _, refs_bits) in orphans.drain(..) {
            // SAFETY: as above — quiescent teardown; the orphaned entry's
            // reference is the last obstacle to the batch crossing zero.
            unsafe { adjust_refs(refs_bits as *mut SmrNode<T>, RELEASE, &mut local.reap) };
        }
        local.drain();
        local.spill();
    }
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool>
    Handle<'_, T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    /// The wait-free arm of `insert_owned`: one unconditional swap puts the
    /// batch into slot `idx`'s handoff cell. The caller counts it as an
    /// insertion.
    pub(crate) fn hand_off(&mut self, idx: usize, refs: *mut SmrNode<T>) {
        let slot = self.domain.dir.slot(idx);
        // Read the occupancy tag *after* the caller's activity check: any
        // occupant that could reference the batch is either the tagged
        // occupancy (the entry is released only once the tag moves past it)
        // or has already left (releasing is then safe regardless).
        let tag = (slot.seq.load(Ordering::SeqCst) & TAG_MASK) as usize;
        let entry = HeadWord::pack(tag, refs as usize).0;
        let prev = HeadWord(slot.handoff.swap(entry, Ordering::AcqRel));
        self.release_or_adopt(idx, prev);
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
        let entry = (idx, prev.refs(), refs);
        // SAFETY: the entry holds exactly one NRef reference and we are its
        // sole owner after the displacing swap.
        if !unsafe { release_if_ended(&self.domain.dir, entry, &mut self.local.reap) } {
            self.adopted.push(entry);
        }
    }

    /// Releases every adopted entry whose guarded occupancy has ended.
    pub(crate) fn retry_adopted(&mut self) {
        if self.adopted.is_empty() {
            return;
        }
        let (dir, reap) = (&self.domain.dir, &mut self.local.reap);
        self.adopted.retain(|&entry| {
            // SAFETY: adopting made the entry, and its reference, ours.
            !unsafe { release_if_ended(dir, entry, reap) }
        });
    }

    /// Opportunistically releases matured orphaned entries (adopted entries
    /// whose handle dropped before the guarded occupancy ended). Skips the
    /// sweep entirely when the lock is contended — orphans are rare and the
    /// domain's `Drop` sweeps whatever remains.
    pub(crate) fn sweep_orphans(&mut self) {
        let Ok(mut orphans) = self.domain.orphans.try_lock() else {
            return;
        };
        let (dir, reap) = (&self.domain.dir, &mut self.local.reap);
        orphans.retain(|&(idx, tag, refs_bits)| {
            let entry = (idx, tag, refs_bits as *mut SmrNode<T>);
            // SAFETY: ownership of the entry passed to the orphan list when
            // the adopting handle dropped, and we hold the list's lock.
            !unsafe { release_if_ended(dir, entry, reap) }
        });
    }

    /// `leave`'s extra step, after the head swap: end this occupancy, then
    /// collect the handoff cell.
    pub(crate) fn collect_handoff(&mut self) {
        let slot = self.domain.dir.slot(self.slot);
        // End this occupancy *before* collecting the cell: displacers
        // holding entries tagged with the old sequence may release them as
        // soon as the bump is visible, and any entry deposited after our
        // collect (by a retirer that saw a stale active head) becomes
        // releasable the same way.
        slot.seq.fetch_add(1, Ordering::SeqCst);
        let cell = HeadWord(slot.handoff.swap(0, Ordering::AcqRel));
        let refs = cell.ptr::<SmrNode<T>>();
        if !refs.is_null() {
            // SAFETY: the entry's deposit-time occupant is either this
            // handle (now leaving — by the SMR contract it no longer
            // dereferences protected pointers) or an earlier occupancy that
            // already left; releasing the cell's reference is safe.
            unsafe { adjust_refs(refs, RELEASE, &mut self.local.reap) };
        }
    }

    /// Handle drop: entries still guarding a live occupancy outlive this
    /// handle. Their references pass to the domain's orphan list, swept by
    /// other handles' drains and finally by the domain's `Drop`.
    pub(crate) fn orphan_adopted(&mut self) {
        if self.adopted.is_empty() {
            return;
        }
        let mut orphans = self
            .domain
            .orphans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        orphans.extend(
            self.adopted
                .drain(..)
                .map(|(i, tag, refs)| (i, tag, refs as usize)),
        );
    }

    /// Crystalline-W slow-path protect: publish a request, let era
    /// advancers certify a raised access era, consume the certificate.
    pub(crate) fn protect_slow(&mut self, src: &Atomic<T>) -> Shared<T> {
        let domain = self.domain;
        let slot = domain.dir.slot(self.slot);
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
                self.access_cache = touch(slot, e);
                fence(Ordering::SeqCst);
                let node = src.load(Ordering::Acquire);
                if domain.era.current() == e {
                    slot.req.store(0, Ordering::SeqCst);
                    return node;
                }
            }
        }
    }
}
