//! A software model of single-width LL/SC and the Figure 7 head operations.
//!
//! Section 4.4 of the paper ports Hyaline to PPC/MIPS, which offer only
//! *single-width* LL/SC: the trick is that the LL **reservation granule** is
//! larger than one word (an L1 line or more), so placing `HRef` and `HPtr`
//! in the same granule makes an SC on either word fail if the *other* word
//! changed too ("false sharing" used productively). An ordinary load,
//! ordered by an artificial data dependency, reads the second word between
//! the LL and the SC.
//!
//! We cannot execute PPC/MIPS assembly here, so this module models the
//! semantics instead: a [`Granule`] holds two 32-bit words in one
//! `AtomicU64`; `ll` takes a reservation over the *whole* granule and `sc`
//! succeeds only if nothing in the granule changed — exactly the property
//! Figure 7 relies on. On top of the model, [`dw_faa`], [`dw_cas_ref`] and
//! [`dw_cas_ptr`] implement Figure 7 verbatim, and [`LlscHead`] drives them
//! through Hyaline's enter/leave/retire head transitions so the §4.4
//! protocol (including the delayed `HPtr := Null` on `HRef == 0`) is
//! exercised by tests.
//!
//! This is an algorithm-logic model, not a reclamation backend: the
//! "pointer" half is an opaque 32-bit id.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which word of the granule an operation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Word {
    /// The reference-count word (`HRef`).
    Ref,
    /// The pointer word (`HPtr`).
    Ptr,
}

/// A decoded `[HRef, HPtr]` pair stored in one granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pair {
    /// Reference count.
    pub href: u32,
    /// Opaque pointer id (0 = null).
    pub hptr: u32,
}

impl Pair {
    fn pack(self) -> u64 {
        (u64::from(self.href) << 32) | u64::from(self.hptr)
    }

    fn unpack(raw: u64) -> Self {
        Pair {
            href: (raw >> 32) as u32,
            hptr: raw as u32,
        }
    }

    fn word(self, which: Word) -> u32 {
        match which {
            Word::Ref => self.href,
            Word::Ptr => self.hptr,
        }
    }

    fn with_word(mut self, which: Word, value: u32) -> Self {
        match which {
            Word::Ref => self.href = value,
            Word::Ptr => self.hptr = value,
        }
        self
    }
}

/// An LL reservation: the granule snapshot taken by [`Granule::ll`].
///
/// `sc` succeeds only if the whole granule still equals this snapshot —
/// modeling a reservation granule that covers both words. Two reservations
/// compare equal when they would let the same `sc` succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reservation {
    snapshot: u64,
    word: Word,
}

/// A two-word reservation granule.
#[derive(Debug, Default)]
pub struct Granule(AtomicU64);

impl Granule {
    /// A granule holding `[0, 0]`.
    pub const fn new() -> Self {
        Granule(AtomicU64::new(0))
    }

    /// Load-linked on one word: returns its value and a reservation over
    /// the whole granule.
    pub fn ll(&self, word: Word) -> (u32, Reservation) {
        let snapshot = self.0.load(Ordering::SeqCst);
        (
            Pair::unpack(snapshot).word(word),
            Reservation { snapshot, word },
        )
    }

    /// Ordinary load of the *other* word, as Figure 7's `Load` (the inline
    /// assembly orders it after the LL with a data dependency; the model
    /// uses an acquire load).
    pub fn load_other(&self, word: Word) -> u32 {
        let raw = self.0.load(Ordering::Acquire);
        let other = match word {
            Word::Ref => Word::Ptr,
            Word::Ptr => Word::Ref,
        };
        Pair::unpack(raw).word(other)
    }

    /// Loads the full pair (test/assertion helper; real hardware cannot do
    /// this atomically, which is the entire point of Figure 7).
    pub fn load_pair(&self) -> Pair {
        Pair::unpack(self.0.load(Ordering::SeqCst))
    }

    /// Store-conditional: writes `value` into the reserved word iff the
    /// whole granule is unchanged since the reservation's LL.
    pub fn sc(&self, res: Reservation, value: u32) -> bool {
        let new = Pair::unpack(res.snapshot).with_word(res.word, value);
        self.0
            .compare_exchange(res.snapshot, new.pack(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

/// Figure 7's `dwFAA`: increments `HRef` while `HPtr` remains intact,
/// returning the pair observed before the increment.
pub fn dw_faa(head: &Granule, ref_addend: u32) -> Pair {
    loop {
        let (href, res) = head.ll(Word::Ref);
        let hptr = head.load_other(Word::Ref);
        let value = href.wrapping_add(ref_addend);
        if head.sc(res, value) {
            // Double-width load atomicity is guaranteed when SC succeeds.
            return Pair { href, hptr };
        }
    }
}

/// Figure 7's `dwCAS_Ref`: replaces the pair's `HRef` if the whole pair
/// matches `expected`. Sporadic (weak) failure is allowed by the caller.
pub fn dw_cas_ref(head: &Granule, expected: Pair, new_href: u32) -> bool {
    let (href, res) = head.ll(Word::Ref);
    let hptr = head.load_other(Word::Ref);
    if (Pair { href, hptr }) != expected {
        return false;
    }
    head.sc(res, new_href)
}

/// Figure 7's `dwCAS_Ptr`: replaces the pair's `HPtr` if the whole pair
/// matches `expected`.
pub fn dw_cas_ptr(head: &Granule, expected: Pair, new_hptr: u32) -> bool {
    let (hptr, res) = head.ll(Word::Ptr);
    let href = head.load_other(Word::Ptr);
    if (Pair { href, hptr }) != expected {
        return false;
    }
    head.sc(res, new_hptr)
}

/// A Hyaline slot head driven exclusively through the LL/SC operations,
/// following the §4.4 protocol: `leave` first drops `HRef` (keeping `HPtr`
/// intact even at zero), then a second CAS clears `HPtr` "if the object is
/// still unclaimed by any concurrent enter".
#[derive(Debug, Default)]
pub struct LlscHead {
    granule: Granule,
}

impl LlscHead {
    /// An empty head.
    pub const fn new() -> Self {
        LlscHead {
            granule: Granule::new(),
        }
    }

    /// The current `[HRef, HPtr]` pair (for assertions).
    pub fn pair(&self) -> Pair {
        self.granule.load_pair()
    }

    /// `enter`: FAA on `HRef`, returning the handle (`HPtr` snapshot).
    pub fn enter(&self) -> u32 {
        dw_faa(&self.granule, 1).hptr
    }

    /// `retire`'s push: replace `HPtr` with `new_ptr`, expecting the exact
    /// pair. Returns the observed pair on failure.
    ///
    /// # Errors
    ///
    /// Returns the currently observed pair when the CAS did not commit
    /// (including sporadic SC failures — retry with the fresh pair).
    pub fn push(&self, expected: Pair, new_ptr: u32) -> Result<(), Pair> {
        if dw_cas_ptr(&self.granule, expected, new_ptr) {
            Ok(())
        } else {
            Err(self.pair())
        }
    }

    /// `leave`: decrement `HRef`; when it reaches zero, additionally try to
    /// claim the list by nulling `HPtr`. Returns `(old_pair,
    /// claimed_list_ptr)` where the pointer is nonzero iff this leave
    /// detached a non-empty list.
    pub fn leave(&self) -> (Pair, u32) {
        // Strong CAS loop on the ref word (weak failures just retry).
        let old = loop {
            let cur = self.pair();
            debug_assert!(cur.href > 0, "leave without enter");
            if dw_cas_ref(&self.granule, cur, cur.href - 1) {
                break cur;
            }
        };
        if old.href == 1 && old.hptr != 0 {
            // HRef hit zero: claim the list unless a concurrent enter
            // arrived. Single-width atomicity on failure is fine — a false
            // negative would require HRef to no longer be zero.
            let expect = Pair {
                href: 0,
                hptr: old.hptr,
            };
            if dw_cas_ptr(&self.granule, expect, 0) {
                return (old, old.hptr);
            }
        }
        (old, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_fails_if_other_word_changed() {
        // The false-sharing property Figure 7 depends on: a reservation on
        // HRef is lost when HPtr changes.
        let g = Granule::new();
        let (val, res) = g.ll(Word::Ref);
        assert_eq!(val, 0);
        assert!(dw_cas_ptr(&g, Pair { href: 0, hptr: 0 }, 7));
        assert!(!g.sc(res, val + 1), "SC must fail: granule changed");
        assert_eq!(g.load_pair(), Pair { href: 0, hptr: 7 });
    }

    #[test]
    fn dw_faa_preserves_pointer() {
        let g = Granule::new();
        assert!(dw_cas_ptr(&g, Pair::default(), 99));
        let old = dw_faa(&g, 1);
        assert_eq!(old, Pair { href: 0, hptr: 99 });
        assert_eq!(g.load_pair(), Pair { href: 1, hptr: 99 });
    }

    #[test]
    fn dw_cas_checks_both_words() {
        let g = Granule::new();
        dw_faa(&g, 2);
        // Wrong HRef in expected -> both flavors fail.
        assert!(!dw_cas_ptr(&g, Pair { href: 1, hptr: 0 }, 5));
        assert!(!dw_cas_ref(&g, Pair { href: 1, hptr: 0 }, 5));
        // Correct pair -> succeeds.
        assert!(dw_cas_ptr(&g, Pair { href: 2, hptr: 0 }, 5));
        assert_eq!(g.load_pair(), Pair { href: 2, hptr: 5 });
    }

    #[test]
    fn head_enter_leave_protocol() {
        let head = LlscHead::new();
        let handle = head.enter();
        assert_eq!(handle, 0);
        // Push two "nodes".
        let mut cur = head.pair();
        loop {
            match head.push(cur, 11) {
                Ok(()) => break,
                Err(seen) => cur = seen,
            }
        }
        assert_eq!(head.pair(), Pair { href: 1, hptr: 11 });
        let (old, claimed) = head.leave();
        assert_eq!(old, Pair { href: 1, hptr: 11 });
        assert_eq!(claimed, 11, "last leaver claims the list");
        assert_eq!(head.pair(), Pair { href: 0, hptr: 0 });
    }

    #[test]
    fn concurrent_enter_prevents_list_claim() {
        // §4.4: leave keeps HPtr intact at HRef == 0 and only a second CAS
        // clears it "if the object is still unclaimed by any concurrent
        // enter". Model the interleaving: T1 is about to claim, T2 enters.
        let head = LlscHead::new();
        head.enter();
        let mut cur = head.pair();
        while let Err(seen) = head.push(cur, 42) {
            cur = seen;
        }
        // T1 drops HRef to zero by hand (first half of leave)...
        assert!(dw_cas_ref(&head.granule, Pair { href: 1, hptr: 42 }, 0));
        // ...T2 enters before T1's claim CAS:
        let t2_handle = head.enter();
        assert_eq!(t2_handle, 42, "T2 adopted the still-intact list");
        // T1's claim must now fail: HRef is no longer zero.
        assert!(!dw_cas_ptr(&head.granule, Pair { href: 0, hptr: 42 }, 0));
        assert_eq!(head.pair(), Pair { href: 1, hptr: 42 });
    }

    #[test]
    fn concurrent_faa_all_counted() {
        let head = &LlscHead::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        head.enter();
                    }
                });
            }
        });
        assert_eq!(head.pair().href, 4000);
    }

    #[test]
    fn concurrent_push_and_leave_keeps_pair_consistent() {
        // Hammer the head with enters, pushes and leaves; the pair must
        // never tear (href and hptr always a value some thread wrote).
        let head = &LlscHead::new();
        std::thread::scope(|s| {
            for t in 1..=4u32 {
                s.spawn(move || {
                    for i in 0..2_000u32 {
                        head.enter();
                        let mut cur = head.pair();
                        // Push a tagged id unless someone claimed the list.
                        loop {
                            if cur.href == 0 {
                                break;
                            }
                            match head.push(cur, t * 100_000 + i) {
                                Ok(()) => break,
                                Err(seen) => cur = seen,
                            }
                        }
                        head.leave();
                    }
                });
            }
        });
        let final_pair = head.pair();
        assert_eq!(final_pair.href, 0);
        assert_eq!(final_pair.hptr, 0, "last leaver must claim the list");
    }
}
