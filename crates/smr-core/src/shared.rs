//! Tagged shared pointers to reclaimable nodes.

use std::fmt;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::header::{NodeHeader, SmrNode};
use crate::TAG_MASK;

/// A tagged pointer to an [`SmrNode<T>`], possibly null.
///
/// The low [`TAG_BITS`](crate::TAG_BITS) bits carry a tag; Harris-style lists
/// use bit 0 as the logical-deletion mark and the Natarajan–Mittal tree uses
/// bits 0/1 as its flag/tag pair. A `Shared` is just a word: copying it does
/// not assert any protection. Dereferencing requires the pointer to have been
/// obtained through [`SmrHandle::protect`](crate::SmrHandle::protect) (or to
/// be otherwise known reachable) and is therefore `unsafe`.
///
/// # Example
///
/// ```
/// use smr_core::Shared;
///
/// let null = Shared::<u64>::null();
/// assert!(null.is_null());
/// let marked = null.with_tag(1);
/// assert_eq!(marked.tag(), 1);
/// assert!(marked.is_null(), "tags do not affect nullness");
/// ```
pub struct Shared<T> {
    raw: usize,
    _marker: PhantomData<*mut SmrNode<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

impl<T> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Shared<T> {}

impl<T> std::hash::Hash for Shared<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<T> Default for Shared<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("ptr", &(self.untagged().raw as *const ()))
            .field("tag", &self.tag())
            .finish()
    }
}

impl<T> fmt::Pointer for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Pointer::fmt(&(self.untagged().raw as *const ()), f)
    }
}

impl<T> Shared<T> {
    /// The null pointer with a zero tag.
    #[inline]
    pub const fn null() -> Self {
        Self {
            raw: 0,
            _marker: PhantomData,
        }
    }

    /// Wraps a node pointer produced by [`SmrNode::alloc`].
    #[inline]
    pub fn from_node(node: NonNull<SmrNode<T>>) -> Self {
        let raw = node.as_ptr() as usize;
        debug_assert_eq!(raw & TAG_MASK, 0, "node pointers must be aligned");
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// Reconstructs a `Shared` from its raw representation
    /// (see [`Shared::as_raw`]).
    #[inline]
    pub const fn from_raw(raw: usize) -> Self {
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// The raw representation: pointer bits plus tag bits.
    #[inline]
    pub const fn as_raw(self) -> usize {
        self.raw
    }

    /// The tag stored in the low bits.
    #[inline]
    pub const fn tag(self) -> usize {
        self.raw & TAG_MASK
    }

    /// This pointer with its tag replaced by `tag`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `tag` exceeds [`TAG_MASK`](crate::TAG_MASK).
    #[inline]
    pub fn with_tag(self, tag: usize) -> Self {
        debug_assert!(tag <= TAG_MASK, "tag {tag} does not fit in the tag bits");
        Self::from_raw((self.raw & !TAG_MASK) | tag)
    }

    /// This pointer with a zero tag.
    #[inline]
    pub fn untagged(self) -> Self {
        Self::from_raw(self.raw & !TAG_MASK)
    }

    /// Whether the pointer part (ignoring the tag) is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self.raw & !TAG_MASK == 0
    }

    /// The untagged node pointer.
    #[inline]
    pub fn as_node_ptr(self) -> *mut SmrNode<T> {
        (self.raw & !TAG_MASK) as *mut SmrNode<T>
    }

    /// A reference to the node.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and protected (or otherwise known not to
    /// have been reclaimed) for the duration of the returned borrow. The
    /// caller chooses the lifetime.
    #[inline]
    pub unsafe fn deref_node<'g>(self) -> &'g SmrNode<T>
    where
        T: 'g,
    {
        debug_assert!(!self.is_null());
        // SAFETY: the caller guarantees a non-null pointer to a node that is
        // not reclaimed while the borrow lives.
        unsafe { &*self.as_node_ptr() }
    }

    /// A reference to the node's payload.
    ///
    /// # Safety
    ///
    /// Same requirements as [`Shared::deref_node`].
    #[inline]
    pub unsafe fn deref<'g>(self) -> &'g T
    where
        T: 'g,
    {
        // SAFETY: the caller's contract is `deref_node`'s.
        unsafe { self.deref_node() }.value()
    }

    /// A reference to the node's header.
    ///
    /// # Safety
    ///
    /// Same requirements as [`Shared::deref_node`].
    #[inline]
    pub unsafe fn header<'g>(self) -> &'g NodeHeader
    where
        T: 'g,
    {
        // SAFETY: the caller's contract is `deref_node`'s.
        unsafe { self.deref_node() }.header()
    }
}

/// An atomic, taggable pointer to an [`SmrNode<T>`].
///
/// This is the link type used inside lock-free data structures. All methods
/// operate on [`Shared`] values; dereferencing what is loaded requires
/// protection through an [`SmrHandle`](crate::SmrHandle).
///
/// # Example
///
/// ```
/// use smr_core::{Atomic, Shared};
/// use std::sync::atomic::Ordering;
///
/// let link = Atomic::<u32>::null();
/// assert!(link.load(Ordering::Acquire).is_null());
/// ```
pub struct Atomic<T> {
    raw: AtomicUsize,
    _marker: PhantomData<*mut SmrNode<T>>,
}

// SAFETY: an `Atomic<T>` is a shared link to nodes that may be accessed and
// reclaimed from any thread, so it is Send exactly when the payload is both
// Send and Sync; the link itself is a single atomic word.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: as above — all concurrent access goes through atomic operations
// on the raw word, and payload access requires `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shared = Shared::<T>::from_raw(self.raw.load(Ordering::Relaxed));
        f.debug_tuple("Atomic").field(&shared).finish()
    }
}

impl<T> Atomic<T> {
    /// A null link.
    pub const fn null() -> Self {
        Self {
            raw: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// A link initially pointing at `shared`.
    pub fn new(shared: Shared<T>) -> Self {
        Self {
            raw: AtomicUsize::new(shared.as_raw()),
            _marker: PhantomData,
        }
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self, order: Ordering) -> Shared<T> {
        Shared::from_raw(self.raw.load(order))
    }

    /// Stores `shared`.
    #[inline]
    pub fn store(&self, shared: Shared<T>, order: Ordering) {
        self.raw.store(shared.as_raw(), order);
    }

    /// Atomically swaps in `shared`, returning the previous value.
    #[inline]
    pub fn swap(&self, shared: Shared<T>, order: Ordering) -> Shared<T> {
        Shared::from_raw(self.raw.swap(shared.as_raw(), order))
    }

    /// Compare-and-exchange: replaces `current` with `new`.
    ///
    /// # Errors
    ///
    /// Returns the actual value as `Err` when it differs from `current`.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        self.raw
            .compare_exchange(current.as_raw(), new.as_raw(), success, failure)
            .map(Shared::from_raw)
            .map_err(Shared::from_raw)
    }

    /// Weak compare-and-exchange (may fail spuriously).
    ///
    /// # Errors
    ///
    /// Returns the actual value as `Err` when the exchange did not happen.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        self.raw
            .compare_exchange_weak(current.as_raw(), new.as_raw(), success, failure)
            .map(Shared::from_raw)
            .map_err(Shared::from_raw)
    }

    /// Atomically ORs tag bits into the stored value, returning the previous
    /// value. Useful for marking (`fetch_or(1)` sets the deletion mark).
    ///
    /// # Panics
    ///
    /// Debug-panics if `tag` exceeds [`TAG_MASK`](crate::TAG_MASK).
    #[inline]
    pub fn fetch_or_tag(&self, tag: usize, order: Ordering) -> Shared<T> {
        debug_assert!(tag <= TAG_MASK);
        Shared::from_raw(self.raw.fetch_or(tag, order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        let s = Shared::<u64>::null();
        assert!(s.is_null());
        assert_eq!(s.tag(), 0);
        assert_eq!(s.as_raw(), 0);
    }

    #[test]
    fn tag_operations() {
        let node = SmrNode::alloc(5u64);
        let s = Shared::from_node(node);
        assert_eq!(s.tag(), 0);
        let marked = s.with_tag(1);
        assert_eq!(marked.tag(), 1);
        assert_eq!(marked.untagged(), s);
        assert_eq!(marked.as_node_ptr(), node.as_ptr());
        assert!(!marked.is_null());
        // SAFETY: allocated by `alloc` (live payload), freed once, never
        // shared.
        unsafe { SmrNode::dealloc(node.as_ptr(), true) };
    }

    #[test]
    fn deref_reads_payload() {
        let node = SmrNode::alloc(123u64);
        let s = Shared::from_node(node);
        // SAFETY: `node` is live until the `dealloc` below.
        assert_eq!(unsafe { *s.deref() }, 123);
        // SAFETY: allocated by `alloc` (live payload), freed once, never
        // shared.
        unsafe { SmrNode::dealloc(node.as_ptr(), true) };
    }

    #[test]
    fn atomic_cas_and_mark() {
        let node = SmrNode::alloc(1u64);
        let s = Shared::from_node(node);
        let link = Atomic::new(s);

        // Mark it.
        let prev = link.fetch_or_tag(1, Ordering::AcqRel);
        assert_eq!(prev, s);
        let cur = link.load(Ordering::Acquire);
        assert_eq!(cur, s.with_tag(1));

        // CAS with the wrong expected value fails.
        assert!(link
            .compare_exchange(s, Shared::null(), Ordering::AcqRel, Ordering::Acquire)
            .is_err());
        // CAS with the marked value succeeds.
        assert!(link
            .compare_exchange(
                s.with_tag(1),
                Shared::null(),
                Ordering::AcqRel,
                Ordering::Acquire
            )
            .is_ok());
        assert!(link.load(Ordering::Acquire).is_null());
        // SAFETY: allocated by `alloc` (live payload); `link` no longer holds
        // it and it is freed once.
        unsafe { SmrNode::dealloc(node.as_ptr(), true) };
    }

    #[test]
    fn swap_returns_previous() {
        let link = Atomic::<u64>::null();
        let node = SmrNode::alloc(9u64);
        let s = Shared::from_node(node);
        assert!(link.swap(s, Ordering::AcqRel).is_null());
        assert_eq!(link.swap(Shared::null(), Ordering::AcqRel), s);
        // SAFETY: allocated by `alloc` (live payload); `link` no longer holds
        // it and it is freed once.
        unsafe { SmrNode::dealloc(node.as_ptr(), true) };
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let s = Shared::<u8>::null();
        assert!(!format!("{s:?}").is_empty());
        let a = Atomic::<u8>::null();
        assert!(!format!("{a:?}").is_empty());
    }
}
