//! [`NodeBlock`]: an array of node addresses that moves as one unit.

use std::alloc::{alloc, dealloc, handle_alloc_error, realloc, Layout};
use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;

/// The block header; the entries follow it in the same allocation.
#[repr(C)]
struct Header {
    /// The next block of the chain this block is on (0 ends it).
    next: usize,
    len: usize,
    cap: usize,
}

/// A growable array of node addresses with an intrusive chain link.
///
/// A Hyaline batch names its nodes in one block (`hyaline`'s `batch.rs`),
/// and the recycle pool ([`NodePool`](crate::NodePool)) caches free nodes
/// in blocks: a magazine allocates from one block, and it spills, refills
/// and takes in freed batches a whole block at a time. So freeing or moving
/// `n` nodes reads one contiguous array instead of chasing `n` link words
/// scattered over `n` nodes, each a cache miss when another core wrote it
/// last.
///
/// A block is one allocation: a three-word header (a chain link, the
/// length, the capacity) followed by the entries. An entry is a node
/// address whose low bit may be [`NodeBlock::LIVE`]: set while the node
/// holds a live payload (a retired node), clear for a payload-less dummy and
/// for recycled memory. Blocks chain through their header link — a pool
/// partition, the pool's list of empty blocks, a magazine's reserve and its
/// spare blocks are such chains — so no node is ever written to link free
/// memory.
///
/// Dropping a block frees the array, never the nodes it names: whoever
/// owns the block disposes of its entries first.
pub struct NodeBlock(NonNull<Header>);

impl NodeBlock {
    /// Low bit of an entry: the node's payload is live and must be dropped
    /// when the node is freed.
    pub const LIVE: usize = 1;

    /// The header, then the entries. Natural alignment: a line-aligned
    /// block would keep a small batch's entries on the header's line, but
    /// over-aligned requests take the allocator's slow `memalign` path and
    /// fragment the heap every node allocation shares.
    fn layout(cap: usize) -> Layout {
        Layout::new::<Header>()
            .extend(Layout::array::<usize>(cap).expect("block capacity overflows"))
            .expect("block layout overflows")
            .0
            .pad_to_align()
    }

    /// An empty block with room for `cap` entries (at least one).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        let layout = Self::layout(cap);
        // SAFETY: the layout is non-zero-sized: it holds a header.
        let raw = unsafe { alloc(layout) }.cast::<Header>();
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        // SAFETY: `ptr` is a fresh allocation laid out for a header first.
        unsafe {
            ptr.as_ptr().write(Header {
                next: 0,
                len: 0,
                cap,
            })
        };
        Self(ptr)
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: `self` owns a live block, whose allocation starts with an
        // initialized header.
        unsafe { self.0.as_ref() }
    }

    #[inline]
    fn header_mut(&mut self) -> &mut Header {
        // SAFETY: as in `header`; `&mut self` makes the access exclusive.
        unsafe { self.0.as_mut() }
    }

    /// The first entry: `Layout::extend` puts the `usize` array right after
    /// the 24-byte header, which is already `usize`-aligned.
    #[inline]
    fn base(&self) -> *mut usize {
        // SAFETY: one header past the start is still inside the allocation
        // (or one past its end for a zero-entry view, which is never read).
        unsafe { self.0.as_ptr().add(1) }.cast::<usize>()
    }

    /// Entries in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.header().len
    }

    /// Whether the block holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries the block holds before it must grow.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.header().cap
    }

    /// The entries, oldest first.
    #[inline]
    pub fn entries(&self) -> &[usize] {
        // SAFETY: the first `len` entries are initialized and lie inside
        // the allocation, which `&self` keeps alive and unaliased by writes.
        unsafe { std::slice::from_raw_parts(self.base(), self.len()) }
    }

    /// Appends `entry`, growing the array when it is full.
    #[inline]
    pub fn push(&mut self, entry: usize) {
        let len = self.len();
        if len == self.capacity() {
            self.grow();
        }
        // SAFETY: `len < cap` now, so the slot lies inside the allocation,
        // which `&mut self` owns exclusively.
        unsafe { self.base().add(len).write(entry) };
        self.header_mut().len = len + 1;
    }

    /// Appends every entry of `entries` in order, growing the array as
    /// needed.
    #[inline]
    pub(crate) fn extend_from_slice(&mut self, entries: &[usize]) {
        let len = self.len();
        while self.capacity() - len < entries.len() {
            self.grow();
        }
        // SAFETY: `len + entries.len() <= cap` now, so the destination lies
        // inside the allocation `&mut self` owns; `entries` is borrowed from
        // elsewhere, so the ranges cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(entries.as_ptr(), self.base().add(len), entries.len())
        };
        self.header_mut().len = len + entries.len();
    }

    /// Moves every entry `moves` picks to the end of `into`, copying
    /// addresses only; both blocks keep their entries' relative order.
    pub fn move_where(&mut self, into: &mut NodeBlock, mut moves: impl FnMut(usize) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            // SAFETY: `i < len`, so the entry is initialized and in bounds.
            let entry = unsafe { self.base().add(i).read() };
            if moves(entry) {
                into.push(entry);
            } else {
                // SAFETY: `kept <= i`, so the write lands on an entry already
                // read; `&mut self` owns the array.
                unsafe { self.base().add(kept).write(entry) };
                kept += 1;
            }
        }
        self.header_mut().len = kept;
    }

    /// Keeps only the oldest `len` entries.
    #[inline]
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.header_mut().len = len;
        }
    }

    /// Removes and returns the newest entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let len = self.len().checked_sub(1)?;
        self.header_mut().len = len;
        // SAFETY: entry `len` was initialized by a push and is in bounds.
        Some(unsafe { self.base().add(len).read() })
    }

    /// Forgets every entry (the nodes they name are the caller's concern).
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.header_mut().len = 0;
    }

    /// Doubles the capacity. Cold: blocks are sized for a full batch, so
    /// only a batch that meets more slots than it was sized for grows one.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let cap = self.capacity();
        let new_cap = cap.checked_mul(2).expect("block capacity overflows");
        let (old, new) = (Self::layout(cap), Self::layout(new_cap));
        // SAFETY: the block was allocated with `old`, and `new` has the same
        // alignment and a non-zero size.
        let raw = unsafe { realloc(self.0.as_ptr().cast(), old, new.size()) }.cast::<Header>();
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(new)
        };
        self.0 = ptr;
        self.header_mut().cap = new_cap;
    }

    /// The block's address, without giving up ownership: what a header
    /// word stores to name the block.
    #[inline]
    pub fn as_raw(&self) -> usize {
        self.0.as_ptr() as usize
    }

    /// Gives up ownership, returning the address [`NodeBlock::from_raw`]
    /// takes back.
    #[inline]
    pub(crate) fn into_raw(self) -> usize {
        ManuallyDrop::new(self).as_raw()
    }

    /// Takes back ownership of the block at `raw`.
    ///
    /// # Safety
    ///
    /// `raw` must be the [`as_raw`](NodeBlock::as_raw) address of a block
    /// whose owner gave it up without dropping it, and nothing else may own
    /// or access the block from here on.
    #[inline]
    pub unsafe fn from_raw(raw: usize) -> Self {
        debug_assert!(raw != 0, "null block");
        // SAFETY: the caller passes the address of a live block it owns.
        Self(unsafe { NonNull::new_unchecked(raw as *mut Header) })
    }

    /// The chain link.
    #[inline]
    pub(crate) fn next(&self) -> usize {
        self.header().next
    }

    #[inline]
    pub(crate) fn set_next(&mut self, next: usize) {
        self.header_mut().next = next;
    }
}

impl Drop for NodeBlock {
    fn drop(&mut self) {
        // SAFETY: `self` owns the allocation, made with this layout.
        unsafe { dealloc(self.0.as_ptr().cast(), Self::layout(self.capacity())) };
    }
}

// SAFETY: a block exclusively owns its array; moving it to another thread
// moves that ownership wholesale.
unsafe impl Send for NodeBlock {}

impl fmt::Debug for NodeBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeBlock")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

/// A stack of owned blocks linked through their headers. It has no `Drop`:
/// its owner empties it, because the blocks may name nodes.
#[derive(Debug, Default)]
pub(crate) struct Chain {
    /// The top block's address (0 = empty).
    head: usize,
}

impl Chain {
    /// The chain whose top block is at `head` (0 for none).
    ///
    /// # Safety
    ///
    /// Every block reachable from `head` must be owned by the caller and
    /// passes to the chain.
    pub(crate) unsafe fn from_raw(head: usize) -> Self {
        Self { head }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// Entries on the chain's blocks, counted through the block headers.
    #[cfg(test)]
    pub(crate) fn entry_count(&self) -> usize {
        let (mut n, mut cur) = (0, self.head);
        while cur != 0 {
            // SAFETY: the chain owns the block; the view is never dropped,
            // so the chain keeps it.
            let block = ManuallyDrop::new(unsafe { NodeBlock::from_raw(cur) });
            n += block.len();
            cur = block.next();
        }
        n
    }

    /// Blocks on the chain, counted through their header links.
    pub(crate) fn blocks(&self) -> usize {
        let (mut n, mut cur) = (0, self.head);
        while cur != 0 {
            // SAFETY: the chain owns the block; the view is never dropped,
            // so the chain keeps it.
            cur = ManuallyDrop::new(unsafe { NodeBlock::from_raw(cur) }).next();
            n += 1;
        }
        n
    }

    pub(crate) fn push(&mut self, mut block: NodeBlock) {
        block.set_next(self.head);
        self.head = block.into_raw();
    }

    pub(crate) fn pop(&mut self) -> Option<NodeBlock> {
        if self.head == 0 {
            return None;
        }
        // SAFETY: the chain owns every block on it, and unlinking the top
        // one hands its ownership to the caller.
        let block = unsafe { NodeBlock::from_raw(self.head) };
        self.head = block.next();
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_and_grow_keep_entries_in_order() {
        let mut block = NodeBlock::with_capacity(2);
        for e in [8usize, 16, 24 | NodeBlock::LIVE, 32] {
            block.push(e);
        }
        assert!(block.capacity() >= 4, "grew past its first capacity");
        assert_eq!(block.entries(), &[8, 16, 24 | NodeBlock::LIVE, 32]);
        let mut other = NodeBlock::with_capacity(1);
        other.extend_from_slice(&block.entries()[1..]);
        assert_eq!(other.entries(), &[16, 24 | NodeBlock::LIVE, 32]);
        other.truncate(1);
        assert_eq!(other.entries(), &[16]);
        assert_eq!(block.pop(), Some(32));
        block.clear();
        assert_eq!(block.pop(), None);
    }

    #[test]
    fn move_where_splits_in_order() {
        let mut block = NodeBlock::with_capacity(8);
        for e in [8usize, 16 | NodeBlock::LIVE, 24, 32 | NodeBlock::LIVE, 40] {
            block.push(e);
        }
        let mut into = NodeBlock::with_capacity(1);
        into.push(48);
        block.move_where(&mut into, |e| e & NodeBlock::LIVE != 0);
        assert_eq!(block.entries(), &[8, 24, 40]);
        assert_eq!(
            into.entries(),
            &[48, 16 | NodeBlock::LIVE, 32 | NodeBlock::LIVE],
            "appended after what `into` held, grown as needed"
        );
        block.move_where(&mut into, |_| false);
        assert_eq!(block.entries(), &[8, 24, 40], "moving nothing keeps all");
    }

    #[test]
    fn chain_pops_blocks_by_their_links() {
        let mut head = 0;
        for n in 1..=3 {
            let mut block = NodeBlock::with_capacity(4);
            block.push(n * 8);
            block.set_next(head);
            head = block.into_raw();
        }
        // SAFETY: every block on the chain came from `into_raw` and passes
        // to the chain once.
        let mut chain = unsafe { Chain::from_raw(head) };
        let tops: Vec<usize> = std::iter::from_fn(|| chain.pop())
            .map(|b| b.entries()[0])
            .collect();
        assert_eq!(tops, [24, 16, 8]);
        assert!(chain.is_empty());
    }
}
