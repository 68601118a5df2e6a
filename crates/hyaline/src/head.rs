//! The per-slot `Head` tuple: a reference counter packed with a list pointer.
//!
//! The paper's general algorithm updates the `[HRef, HPtr]` tuple with
//! double-width CAS (`cmpxchg16b`). Stable Rust has no 128-bit atomics, so we
//! use the representation the paper itself prescribes for machines without
//! double-width RMW (Section 2.4): the reference count is *squeezed into the
//! pointer word* — a 16-bit `HRef` in the high bits and a 48-bit canonical
//! x86-64 user-space pointer in the low bits. The tuple is still read,
//! written, CASed and fetch-added as a single atomic word, so the algorithm's
//! state machine is unchanged. The price is a cap of 65 535 concurrent
//! `enter`s per slot, which is far beyond the paper's 144-thread experiments.
//!
//! [`AtomicHead1`] is the specialized single-width head of Hyaline-1
//! (Figure 4): because each thread owns its slot exclusively, `HRef` is a
//! single bit merged into the pointer's low bits.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of low bits holding the pointer in a packed head word.
pub const PTR_BITS: u32 = 48;

/// Mask selecting the pointer bits.
pub const PTR_MASK: usize = (1 << PTR_BITS) - 1;

/// The increment `enter` applies: +1 in the `HRef` field.
pub const REF_UNIT: usize = 1 << PTR_BITS;

/// Maximum representable `HRef` value.
pub const MAX_REFS: usize = (1 << (usize::BITS - PTR_BITS)) - 1;

/// A decoded `[HRef, HPtr]` tuple.
///
/// # Example
///
/// ```
/// use hyaline::head::HeadWord;
///
/// let w = HeadWord::pack(3, std::ptr::null_mut::<u8>() as usize);
/// assert_eq!(w.refs(), 3);
/// assert_eq!(w.ptr_bits(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadWord(pub usize);

impl HeadWord {
    /// An empty head: no threads, no list.
    pub const EMPTY: HeadWord = HeadWord(0);

    /// Packs a reference count and pointer bits into one word.
    ///
    /// # Panics
    ///
    /// Debug-panics if either field overflows its bit range.
    #[inline]
    pub fn pack(refs: usize, ptr_bits: usize) -> Self {
        debug_assert!(refs <= MAX_REFS, "HRef overflow: {refs}");
        debug_assert_eq!(
            ptr_bits & !PTR_MASK,
            0,
            "pointer {ptr_bits:#x} does not fit in {PTR_BITS} bits"
        );
        HeadWord((refs << PTR_BITS) | ptr_bits)
    }

    /// The `HRef` field: number of active threads in this slot.
    #[inline]
    pub fn refs(self) -> usize {
        self.0 >> PTR_BITS
    }

    /// The `HPtr` field as raw bits.
    #[inline]
    pub fn ptr_bits(self) -> usize {
        self.0 & PTR_MASK
    }

    /// The `HPtr` field as a typed pointer.
    #[inline]
    pub fn ptr<N>(self) -> *mut N {
        self.ptr_bits() as *mut N
    }

    /// This word with the pointer replaced.
    #[inline]
    pub fn with_ptr<N>(self, ptr: *mut N) -> Self {
        Self::pack(self.refs(), ptr as usize)
    }

    /// This word with the reference count replaced.
    #[inline]
    pub fn with_refs(self, refs: usize) -> Self {
        Self::pack(refs, self.ptr_bits())
    }
}

/// The atomic per-slot head word. Its own methods speak the `[HRef, HPtr]`
/// encoding of Hyaline and Hyaline-S; [`AtomicHead::single`] is the same
/// word under the Hyaline-1/Hyaline-1S encoding.
#[derive(Debug, Default)]
pub struct AtomicHead(AtomicHead1);

impl AtomicHead {
    /// An empty head.
    pub const fn new() -> Self {
        AtomicHead(AtomicHead1::new())
    }

    /// The word under Figure 4's single-bit encoding. A domain drives all
    /// its slots through one encoding for its whole life; both agree that
    /// zero is the empty, inactive head.
    #[inline]
    pub fn single(&self) -> &AtomicHead1 {
        &self.0
    }

    /// Loads the current tuple.
    #[inline]
    pub fn load(&self, order: Ordering) -> HeadWord {
        HeadWord(self.0 .0.load(order))
    }

    /// The paper's `enter` FAA: atomically increments `HRef` and returns the
    /// previous tuple (whose `HPtr` becomes the thread's handle).
    ///
    /// A single `fetch_add` of [`REF_UNIT`] cannot carry into the pointer
    /// bits, so `HPtr` is read and preserved atomically.
    #[inline]
    pub fn enter_faa(&self) -> HeadWord {
        let old = HeadWord(self.0 .0.fetch_add(REF_UNIT, Ordering::AcqRel));
        debug_assert!(old.refs() < MAX_REFS, "too many concurrent enters");
        old
    }

    /// Single-word CAS on the whole tuple.
    ///
    /// # Errors
    ///
    /// Returns the observed tuple as `Err` when it differs from `current`.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: HeadWord,
        new: HeadWord,
        success: Ordering,
        failure: Ordering,
    ) -> Result<HeadWord, HeadWord> {
        (self.0 .0)
            .compare_exchange(current.0, new.0, success, failure)
            .map(HeadWord)
            .map_err(HeadWord)
    }
}

/// The single-width head of Hyaline-1/Hyaline-1S: bit 0 is `HRef` (the slot
/// owner is active), the remaining bits are the node pointer (nodes are
/// 8-byte aligned, so bits 0–2 of real addresses are zero).
#[derive(Debug, Default)]
pub struct AtomicHead1(AtomicUsize);

/// A decoded Hyaline-1 head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head1Word(pub usize);

impl Head1Word {
    /// Inactive, empty.
    pub const EMPTY: Head1Word = Head1Word(0);
    /// Active, empty list — the value `enter` stores.
    pub const ACTIVE_EMPTY: Head1Word = Head1Word(1);

    /// Packs an active bit and node pointer.
    #[inline]
    pub fn pack<N>(active: bool, ptr: *mut N) -> Self {
        debug_assert_eq!(ptr as usize & 1, 0);
        Head1Word(ptr as usize | usize::from(active))
    }

    /// Whether the slot owner is inside an operation.
    #[inline]
    pub fn active(self) -> bool {
        self.0 & 1 != 0
    }

    /// The list pointer.
    #[inline]
    pub fn ptr<N>(self) -> *mut N {
        (self.0 & !1) as *mut N
    }
}

impl AtomicHead1 {
    /// An inactive, empty head.
    pub const fn new() -> Self {
        AtomicHead1(AtomicUsize::new(0))
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self, order: Ordering) -> Head1Word {
        Head1Word(self.0.load(order))
    }

    /// Wait-free `enter`: marks the slot active with an empty list.
    ///
    /// Uses a `SeqCst` swap so the activity bit is globally ordered before
    /// the thread's subsequent pointer loads (the same store-load barrier
    /// EBR needs; the paper notes Hyaline-1's enter/leave are "memory writes
    /// with barriers, just like EBR").
    #[inline]
    pub fn enter(&self) {
        self.0.swap(Head1Word::ACTIVE_EMPTY.0, Ordering::SeqCst);
    }

    /// Wait-free `leave`: atomically detaches the whole list and marks the
    /// slot inactive, returning the previous value.
    #[inline]
    pub fn leave(&self) -> Head1Word {
        Head1Word(self.0.swap(0, Ordering::AcqRel))
    }

    /// Single-word CAS used by `retire` to push a node.
    ///
    /// # Errors
    ///
    /// Returns the observed value as `Err` when it differs from `current`.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Head1Word,
        new: Head1Word,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Head1Word, Head1Word> {
        self.0
            .compare_exchange(current.0, new.0, success, failure)
            .map(Head1Word)
            .map_err(Head1Word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let ptr_bits = 0x0000_7fff_dead_bee8usize;
        let w = HeadWord::pack(42, ptr_bits);
        assert_eq!(w.refs(), 42);
        assert_eq!(w.ptr_bits(), ptr_bits);
    }

    #[test]
    fn enter_faa_increments_refs_only() {
        let head = AtomicHead::new();
        let before = head.enter_faa();
        assert_eq!(before, HeadWord::EMPTY);
        let now = head.load(Ordering::Relaxed);
        assert_eq!(now.refs(), 1);
        assert_eq!(now.ptr_bits(), 0);
    }

    #[test]
    fn enter_faa_preserves_pointer() {
        let head = AtomicHead::new();
        let fake_ptr = 0x7000_0000_1238usize;
        head.compare_exchange(
            HeadWord::EMPTY,
            HeadWord::pack(0, fake_ptr),
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .unwrap();
        let before = head.enter_faa();
        assert_eq!(before.ptr_bits(), fake_ptr);
        assert_eq!(head.load(Ordering::Relaxed).ptr_bits(), fake_ptr);
        assert_eq!(head.load(Ordering::Relaxed).refs(), 1);
    }

    #[test]
    fn max_refs_is_16_bits() {
        assert_eq!(MAX_REFS, 0xffff);
    }

    #[test]
    fn concurrent_enters_sum() {
        let head = AtomicHead::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        head.enter_faa();
                    }
                });
            }
        });
        assert_eq!(head.load(Ordering::Relaxed).refs(), 800);
    }

    #[test]
    fn head1_roundtrip() {
        let h = AtomicHead1::new();
        assert!(!h.load(Ordering::Relaxed).active());
        h.enter();
        let w = h.load(Ordering::Relaxed);
        assert!(w.active());
        assert!(w.ptr::<u8>().is_null());
        let old = h.leave();
        assert!(old.active());
        assert!(!h.load(Ordering::Relaxed).active());
    }

    #[test]
    fn head1_cas_push() {
        let h = AtomicHead1::new();
        h.enter();
        let node = 0x1000usize as *mut u8;
        let cur = h.load(Ordering::Relaxed);
        h.compare_exchange(
            cur,
            Head1Word::pack(true, node),
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .unwrap();
        let w = h.load(Ordering::Relaxed);
        assert!(w.active());
        assert_eq!(w.ptr::<u8>(), node);
    }
}
