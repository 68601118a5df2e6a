//! The universal node header and node allocation helpers.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::{self, NonNull};
use std::sync::atomic::AtomicUsize;

/// The universal three-word header placed in front of every reclaimable node.
///
/// Every scheme in the workspace interprets the three words differently; the
/// header itself is deliberately scheme-agnostic and only offers raw word
/// access. Keeping one header for all schemes keeps per-node memory identical
/// across schemes, which the Hyaline paper calls out as the fair comparison
/// point ("Hyaline-(1)S requires three CPU words which is equivalent to
/// HE/IBR for 64-bit CPUs", Section 2.4).
///
/// | word | Hyaline(-1,-S,-1S) | EBR | HP | HE / IBR |
/// |------|---------------------|-----|----|----------|
/// | 0 | slot-list `Next` / birth era | limbo next | retired next | retired next |
/// | 1 | `batch_link` → the batch's `NodeBlock`, which holds its `NRef` and `Adjs` | retire epoch | — | birth era |
/// | 2 | unused | — | — | retire era |
///
/// # Example
///
/// ```
/// use smr_core::NodeHeader;
/// use std::sync::atomic::Ordering;
///
/// let header = NodeHeader::new();
/// header.word(1).store(42, Ordering::Relaxed);
/// assert_eq!(header.word(1).load(Ordering::Relaxed), 42);
/// ```
#[repr(C)]
#[derive(Debug, Default)]
pub struct NodeHeader {
    words: [AtomicUsize; 3],
}

impl NodeHeader {
    /// Number of words in the header.
    pub const WORDS: usize = 3;

    /// A zero-initialized header.
    pub fn new() -> Self {
        Self {
            words: [
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            ],
        }
    }

    /// Raw access to header word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NodeHeader::WORDS`.
    #[inline]
    pub fn word(&self, i: usize) -> &AtomicUsize {
        &self.words[i]
    }
}

/// A heap node managed by a reclamation scheme: the universal header followed
/// by the user payload.
///
/// Nodes are created with [`SmrNode::alloc`] and destroyed with
/// [`SmrNode::dealloc`]; reclamation schemes do both on behalf of their
/// callers (via [`SmrHandle::alloc`](crate::SmrHandle::alloc) and
/// [`SmrHandle::retire`](crate::SmrHandle::retire)).
///
/// The payload may be *absent*: Hyaline inserts a batch with more entered
/// slots than own nodes by adding payload-less dummy nodes (Section 2.4 of
/// the paper), which are allocated with [`SmrNode::alloc_dummy`] and freed
/// with `dealloc(ptr, false)`.
#[repr(C)]
pub struct SmrNode<T> {
    header: NodeHeader,
    value: ManuallyDrop<T>,
}

impl<T> SmrNode<T> {
    fn layout() -> Layout {
        Layout::new::<SmrNode<T>>()
    }

    /// Allocates a node holding `value`, with a zeroed header.
    pub fn alloc(value: T) -> NonNull<SmrNode<T>> {
        let node = Self::alloc_raw();
        // SAFETY: `alloc_raw` returned a fresh, exclusively owned allocation
        // with `SmrNode<T>`'s layout; its payload slot is uninitialized, so
        // writing it (without reading or dropping the old bytes) is sound.
        unsafe {
            ptr::addr_of_mut!((*node.as_ptr()).value).write(ManuallyDrop::new(value));
        }
        node
    }

    /// Allocates a *dummy* node: the header is zeroed, the payload is left
    /// uninitialized.
    ///
    /// # Safety
    ///
    /// The caller must never read the payload of a dummy node and must free
    /// it with `dealloc(ptr, false)` so the payload is not dropped.
    pub unsafe fn alloc_dummy() -> NonNull<SmrNode<T>> {
        Self::alloc_raw()
    }

    fn alloc_raw() -> NonNull<SmrNode<T>> {
        let layout = Self::layout();
        debug_assert!(layout.align() >= 1 << crate::TAG_BITS);
        // SAFETY: `layout` is `SmrNode<T>`'s, which is never zero-sized (the
        // header alone is three words); a null return is handled below.
        let raw = unsafe { alloc(layout) } as *mut SmrNode<T>;
        let Some(node) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        // SAFETY: `node` is non-null and was just allocated with this
        // layout, so its header field is in bounds and exclusively ours.
        unsafe {
            ptr::addr_of_mut!((*node.as_ptr()).header).write(NodeHeader::new());
        }
        node
    }

    /// Re-initializes a recycled allocation as a node holding `value`: the
    /// header is re-zeroed (no scheme state survives reuse) and the payload
    /// written fresh. The recycling layer (`smr_core::recycle`) uses this to
    /// reuse memory without assuming type stability.
    ///
    /// # Safety
    ///
    /// `raw` must be an exclusively-owned allocation with the exact layout
    /// of `SmrNode<T>` whose previous payload (if any) was already dropped.
    #[inline]
    pub(crate) unsafe fn renew(raw: *mut u8, value: T) -> NonNull<SmrNode<T>> {
        // SAFETY: the caller's contract for `renew` covers `renew_dummy`'s.
        let node = unsafe { Self::renew_dummy(raw) };
        // SAFETY: `node` is exclusively ours with `SmrNode<T>`'s layout, and
        // its old payload was already dropped, so nothing live is overwritten.
        unsafe { ptr::addr_of_mut!((*node.as_ptr()).value).write(ManuallyDrop::new(value)) };
        node
    }

    /// [`SmrNode::renew`] without writing a payload (recycled counterpart of
    /// [`SmrNode::alloc_dummy`]).
    ///
    /// # Safety
    ///
    /// Same ownership/layout contract as [`SmrNode::renew`]; additionally the
    /// caller must never read the payload and must release the node with
    /// `drop_payload = false`.
    #[inline]
    pub(crate) unsafe fn renew_dummy(raw: *mut u8) -> NonNull<SmrNode<T>> {
        debug_assert!(!raw.is_null());
        debug_assert_eq!(raw as usize & crate::TAG_MASK, 0);
        let node = raw as *mut SmrNode<T>;
        // SAFETY: the caller hands over an exclusively owned, non-null
        // allocation with `SmrNode<T>`'s layout, so the header is in bounds.
        unsafe {
            ptr::addr_of_mut!((*node).header).write(NodeHeader::new());
            NonNull::new_unchecked(node)
        }
    }

    /// Frees a node previously created by [`SmrNode::alloc`] or
    /// [`SmrNode::alloc_dummy`].
    ///
    /// # Safety
    ///
    /// * `node` must have been returned by `alloc`/`alloc_dummy` and not yet
    ///   freed, and no other reference to it may exist.
    /// * `drop_payload` must be `true` exactly when the node was created by
    ///   [`SmrNode::alloc`] (it has a live payload).
    pub unsafe fn dealloc(node: *mut SmrNode<T>, drop_payload: bool) {
        if drop_payload {
            // SAFETY: the caller says the payload is live, and no other
            // reference to the node exists.
            unsafe { ManuallyDrop::drop(&mut (*node).value) };
        }
        // SAFETY: per the caller's contract `node` is a live allocation with
        // this layout, freed only here.
        unsafe { dealloc(node as *mut u8, Self::layout()) };
    }

    /// Drops the payload in place without freeing the node's memory.
    ///
    /// # Safety
    ///
    /// The caller must exclusively own the payload, which must be live; it
    /// must not be read again until the node is re-initialized with a new
    /// payload (as the recycle pool does when it hands the memory out).
    #[inline]
    pub unsafe fn drop_value_in_place(node: *mut SmrNode<T>) {
        // SAFETY: the caller owns the live payload exclusively and will not
        // read it again before the node is re-initialized.
        unsafe { ManuallyDrop::drop(&mut (*node).value) };
    }

    /// Asks the cache for the payload of the node at `node`: both its first
    /// and its last byte, since a payload can straddle two cache lines. A
    /// prefetch is a hint, not an access: `node` is never dereferenced, and
    /// may be dangling, already freed or a recycled allocation.
    ///
    /// Both prefetches are issued unconditionally. Skipping the second when
    /// the two bytes share a line is a data-dependent branch that
    /// mispredicts and costs more than the duplicate hint. A no-op off
    /// x86-64.
    #[inline(always)]
    pub(crate) fn prefetch(node: *const SmrNode<T>) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let first = node
                .cast::<u8>()
                .wrapping_add(std::mem::offset_of!(SmrNode<T>, value));
            let last = first.wrapping_add(std::mem::size_of::<T>().max(1) - 1);
            // SAFETY: `prefetcht0` never faults and has no architectural
            // effect, whatever the address; the pointers are only computed
            // with wrapping arithmetic and never dereferenced.
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(first.cast());
                _mm_prefetch::<_MM_HINT_T0>(last.cast());
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let _ = node;
    }

    /// The node's header.
    #[inline]
    pub fn header(&self) -> &NodeHeader {
        &self.header
    }

    /// The node's payload.
    ///
    /// The returned reference is only meaningful for nodes created with
    /// [`SmrNode::alloc`]; reclamation schemes never expose dummy nodes to
    /// data-structure code.
    #[inline]
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for SmrNode<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmrNode")
            .field("header", &self.header)
            .field("value", &*self.value)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Counts its drops into a counter of the test's own, so tests running
    /// on parallel threads cannot see each other's drops.
    struct CountsDrops(Arc<AtomicU64>);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn header_words_independent() {
        let h = NodeHeader::new();
        h.word(0).store(1, Ordering::Relaxed);
        h.word(1).store(2, Ordering::Relaxed);
        h.word(2).store(3, Ordering::Relaxed);
        assert_eq!(h.word(0).load(Ordering::Relaxed), 1);
        assert_eq!(h.word(1).load(Ordering::Relaxed), 2);
        assert_eq!(h.word(2).load(Ordering::Relaxed), 3);
    }

    #[test]
    fn header_is_first_field() {
        // The reclamation schemes cast between node and header pointers; the
        // header must live at offset zero.
        let node = SmrNode::alloc(7u32);
        let node_addr = node.as_ptr() as usize;
        // SAFETY: `node` is live and initialized by `alloc` above.
        let header_addr = unsafe { node.as_ref().header() as *const _ as usize };
        assert_eq!(node_addr, header_addr);
        // SAFETY: allocated by `alloc` (live payload), freed once, unshared.
        unsafe { SmrNode::dealloc(node.as_ptr(), true) };
    }

    #[test]
    fn alloc_dealloc_drops_payload_once() {
        let drops = Arc::new(AtomicU64::new(0));
        let node = SmrNode::alloc(CountsDrops(Arc::clone(&drops)));
        // SAFETY: allocated by `alloc` (live payload), freed once, unshared.
        unsafe { SmrNode::dealloc(node.as_ptr(), true) };
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dummy_nodes_do_not_drop_payload() {
        let drops = Arc::new(AtomicU64::new(0));
        let live = SmrNode::alloc(CountsDrops(Arc::clone(&drops)));
        // SAFETY: the dummy's payload is never read, and it is freed below
        // with `drop_payload = false`.
        let dummy = unsafe { SmrNode::<CountsDrops>::alloc_dummy() };
        // SAFETY: allocated by `alloc_dummy` (no payload), freed once.
        unsafe { SmrNode::dealloc(dummy.as_ptr(), false) };
        // SAFETY: allocated by `alloc` (live payload), freed once, unshared.
        unsafe { SmrNode::dealloc(live.as_ptr(), true) };
        assert_eq!(
            drops.load(Ordering::Relaxed),
            1,
            "only the live payload drops"
        );
    }

    #[test]
    fn node_alignment_leaves_tag_bits() {
        for _ in 0..64 {
            let node = SmrNode::alloc(0u8);
            assert_eq!(node.as_ptr() as usize & crate::TAG_MASK, 0);
            // SAFETY: allocated by `alloc` (live payload), freed once.
            unsafe { SmrNode::dealloc(node.as_ptr(), true) };
        }
    }

    #[test]
    fn value_roundtrip() {
        let node = SmrNode::alloc(String::from("hyaline"));
        // SAFETY: `node` is live and initialized by `alloc` above.
        assert_eq!(unsafe { node.as_ref() }.value(), "hyaline");
        // SAFETY: allocated by `alloc` (live payload), freed once, unshared.
        unsafe { SmrNode::dealloc(node.as_ptr(), true) };
    }
}
