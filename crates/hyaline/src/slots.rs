//! The slot table every variant keeps its heads in: the adaptive directory
//! of Section 4.3 (Figure 6). Only Hyaline-S with `adaptive` set ever grows
//! it; the other variants build it with `max_k == k_min`.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::head::AtomicHead;

/// One slot: the list head (Figure 3 or Figure 4 encoding), the access era
/// of the era variants, Hyaline-S's stall-detection `Ack` counter (Figure 5)
/// and the five words only Crystalline touches ([`crate::waitfree`]). All
/// eight share the one padded line a slot has always had, so the Hyaline
/// variants pay nothing for the last five.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) head: AtomicHead,
    /// In Crystalline-W helpers raise it too, so there it only ever rises.
    pub(crate) access: AtomicU64,
    pub(crate) ack: AtomicI64,
    /// `HANDOFF`: occupancy sequence, bumped by the owner at `leave`. Its
    /// low 16 bits tag handoff-cell entries so displacers can tell whether
    /// the deposit-time occupancy has ended.
    pub(crate) seq: AtomicU64,
    /// `HANDOFF`: the handoff cell, a [`HeadWord`](crate::head::HeadWord)-
    /// packed (16-bit tag | 48-bit REFS pointer) entry, or 0 when empty.
    /// Each non-empty entry holds one `NRef` reference on its batch.
    pub(crate) handoff: AtomicUsize,
    /// `HELPING`: pending request sequence (0 = no request).
    pub(crate) req: AtomicU64,
    /// `HELPING`: `EMPTY_BIT | seq` while pending, the certified era once
    /// helped.
    pub(crate) result: AtomicU64,
    /// `HELPING`: monotone request counter. Lives in the slot (not the
    /// handle) so sequences never repeat across handle reuse of the slot.
    pub(crate) help_seq: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            head: AtomicHead::new(),
            access: AtomicU64::new(0),
            ack: AtomicI64::new(0),
            seq: AtomicU64::new(0),
            handoff: AtomicUsize::new(0),
            req: AtomicU64::new(0),
            result: AtomicU64::new(0),
            help_seq: AtomicU64::new(0),
        }
    }
}

/// Maximum number of directory entries: with doubling growth from `k_min`,
/// 64 entries can never be exceeded on a 64-bit machine (Figure 6: "the
/// number of directory entries is small and fixed, t ≤ 64").
const DIR_ENTRIES: usize = 64;

/// The Section 4.3 directory of slot banks.
///
/// Entry 0 holds the initial `k_min` slots; entry `s ≥ 1` holds slots
/// `[2^(s-1)·k_min, 2^s·k_min)`. Growing doubles the total slot count by
/// CAS-installing one new bank; the arrays already handed out are never
/// moved, so readers need no synchronization beyond an acquire load.
pub(crate) struct SlotDirectory {
    banks: [AtomicPtr<CachePadded<Slot>>; DIR_ENTRIES],
    k_min: usize,
    k: AtomicUsize,
    max_k: usize,
}

impl SlotDirectory {
    /// Creates a directory with `k_min` initial slots, growable up to
    /// `max_k`. `max_k == k_min` disables growth; a growable directory
    /// needs both to be powers of two.
    pub(crate) fn new(k_min: usize, max_k: usize) -> Self {
        assert!(max_k == k_min || (k_min.is_power_of_two() && max_k.is_power_of_two()));
        assert!(max_k >= k_min);
        let dir = Self {
            banks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            k_min,
            k: AtomicUsize::new(k_min),
            max_k,
        };
        let bank0 = Self::alloc_bank(k_min);
        dir.banks[0].store(bank0, Ordering::Release);
        dir
    }

    fn alloc_bank(len: usize) -> *mut CachePadded<Slot> {
        let bank: Box<[CachePadded<Slot>]> =
            (0..len).map(|_| CachePadded::new(Slot::new())).collect();
        Box::into_raw(bank) as *mut CachePadded<Slot>
    }

    /// Size of directory bank `s`.
    fn bank_len(&self, s: usize) -> usize {
        if s == 0 {
            self.k_min
        } else {
            (1 << (s - 1)) * self.k_min
        }
    }

    /// First slot index covered by bank `s`.
    fn bank_base(&self, s: usize) -> usize {
        if s == 0 {
            0
        } else {
            (1 << (s - 1)) * self.k_min
        }
    }

    /// Directory entry covering slot `i` (Figure 6's `s = log2(⌊i/k_min⌋)+1`
    /// with `log2(0) = -1`). Bank 0 is one compare away; past it — only in
    /// a grown, hence power-of-two, directory — the quotient is a shift, so
    /// no variant's `enter` pays an integer division for the lookup.
    #[inline]
    fn bank_index(&self, i: usize) -> usize {
        if i < self.k_min {
            0
        } else {
            let q = i >> self.k_min.trailing_zeros();
            (usize::BITS - q.leading_zeros()) as usize
        }
    }

    /// The current slot count `k`.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.k.load(Ordering::Acquire)
    }

    /// Access to slot `i`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `i` is outside the current `k`.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> &Slot {
        let s = self.bank_index(i);
        let base = self.bank_base(s);
        debug_assert!(i < self.k());
        let bank = self.banks[s].load(Ordering::Acquire);
        debug_assert!(!bank.is_null());
        // SAFETY: `i < k` implies this bank was installed (banks are only
        // published together with the grown `k`), and banks are never freed
        // before the directory itself drops.
        unsafe { &*bank.add(i - base) }
    }

    /// Doubles the slot count (Section 4.3). Returns `true` if the count
    /// grew (by us or a racing thread), `false` at the `max_k` cap.
    pub(crate) fn grow(&self) -> bool {
        let k = self.k();
        if k >= self.max_k {
            return false;
        }
        let s = self.bank_index(k); // the bank that starts at slot k
        debug_assert_eq!(self.bank_base(s), k);
        if self.banks[s].load(Ordering::Acquire).is_null() {
            let candidate = Self::alloc_bank(self.bank_len(s));
            if self.banks[s]
                .compare_exchange(
                    std::ptr::null_mut(),
                    candidate,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                // SAFETY: the CAS failed, so `candidate` was never published
                // and this thread still owns it exclusively.
                unsafe { Self::drop_bank(candidate, self.bank_len(s)) };
            }
        }
        // Publish the new count; racing growers agree on the same value.
        let _ = self
            .k
            .compare_exchange(k, k * 2, Ordering::AcqRel, Ordering::Acquire);
        true
    }

    /// Frees a slot bank.
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must describe a bank from `alloc_bank` that is no longer
    /// reachable by any thread.
    unsafe fn drop_bank(ptr: *mut CachePadded<Slot>, len: usize) {
        // SAFETY: `alloc_bank` leaked this boxed slice of `len` slots, and no
        // thread can reach it any more.
        drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) });
    }
}

impl Drop for SlotDirectory {
    fn drop(&mut self) {
        for s in 0..DIR_ENTRIES {
            let ptr = self.banks[s].load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: we hold `&mut self`, so no thread can still reach
                // any bank; each installed bank is freed exactly once.
                unsafe { Self::drop_bank(ptr, self.bank_len(s)) };
            }
        }
    }
}

impl std::fmt::Debug for SlotDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotDirectory")
            .field("k_min", &self.k_min)
            .field("k", &self.k())
            .field("max_k", &self.max_k)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_fits_its_padded_line() {
        // Eight words of sixteen: a field that spills past the line would
        // silently double every directory bank.
        assert_eq!(std::mem::size_of::<CachePadded<Slot>>(), 128);
    }

    #[test]
    fn directory_indexing_matches_figure6() {
        let dir = SlotDirectory::new(4, 64);
        assert_eq!(dir.bank_index(0), 0);
        assert_eq!(dir.bank_index(3), 0);
        assert_eq!(dir.bank_index(4), 1); // first grown bank
        assert_eq!(dir.bank_index(7), 1);
        assert_eq!(dir.bank_index(8), 2);
        assert_eq!(dir.bank_index(15), 2);
        assert_eq!(dir.bank_index(16), 3);
        assert_eq!(dir.bank_base(1), 4);
        assert_eq!(dir.bank_len(1), 4);
        assert_eq!(dir.bank_base(2), 8);
        assert_eq!(dir.bank_len(2), 8);
    }

    #[test]
    fn directory_grow_doubles_k() {
        let dir = SlotDirectory::new(4, 32);
        assert_eq!(dir.k(), 4);
        assert!(dir.grow());
        assert_eq!(dir.k(), 8);
        assert!(dir.grow());
        assert_eq!(dir.k(), 16);
        assert!(dir.grow());
        assert_eq!(dir.k(), 32);
        assert!(!dir.grow(), "capped at max_k");
        // Every slot is addressable and distinct.
        let mut seen = std::collections::HashSet::new();
        for i in 0..dir.k() {
            seen.insert(dir.slot(i) as *const _ as usize);
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn directory_concurrent_grow_is_safe() {
        let dir = &SlotDirectory::new(2, 128);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| while dir.grow() {});
            }
        });
        assert_eq!(dir.k(), 128);
        for i in 0..128 {
            dir.slot(i).ack.store(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn non_adaptive_directory_never_grows() {
        // A fixed directory may have any size (Hyaline-1 sizes it by
        // `max_threads`): every slot is in bank 0.
        for k in [8, 12] {
            let dir = SlotDirectory::new(k, k);
            assert!(!dir.grow());
            assert_eq!(dir.k(), k);
            assert_eq!(dir.bank_index(k - 1), 0);
            dir.slot(k - 1).ack.store(1, Ordering::Relaxed);
        }
    }
}
