//! Typed-pointer layer over [`Smr`]/[`SmrHandle`]: `pin()` → [`Guard`],
//! lifetime-branded [`Shared<'g, T>`] with *safe* dereferencing, and a typed
//! [`Atomic<T>`] whose `load` routes through `SmrHandle::protect`.
//!
//! The raw layer ([`crate::Atomic`]/[`crate::Shared`]) is deliberately
//! minimal: every load that will be dereferenced must be paired with a
//! protection index by hand, every dereference is `unsafe`, and every
//! structure re-derives the same justification ("this pointer was protected
//! two lines up"). This module centralizes that argument once so a lock-free
//! structure is written almost entirely in safe code — the only `unsafe`
//! left in a well-behaved structure is the *retire-safety* argument
//! ([`Guard::defer_retire`]: "this node is unlinked and unreachable"), which
//! genuinely is structure-specific.
//!
//! # The safety argument, once
//!
//! A [`Shared<'g, T>`] is only obtainable from [`Atomic::load`], which
//! published a protection for it through [`SmrHandle::protect`] on the guard
//! borrowed for `'g` (or from an explicitly `unsafe` promotion whose caller
//! vouched for liveness — [`Ptr::as_shared`]). The `'g` brand is an
//! immutable borrow of the [`Guard`], so everything that could invalidate
//! protections ends `'g` first at compile time:
//!
//! * dropping the guard (an owning guard calls `leave`),
//! * [`Guard::repin`] / [`Guard::pin_shard`] / [`Guard::handle_mut`] — all
//!   take `&mut self`.
//!
//! Two obligations remain with the structure, exactly as in the raw layer
//! (they are *contracts*, not compiler-checked):
//!
//! * **bracketing** — operations run between `enter` and `leave`. [`pin`]
//!   does this automatically; [`Guard::over`] wraps a handle the caller has
//!   already entered (the long-standing "must be called between `enter` and
//!   `leave`" contract of every structure method).
//! * **index discipline** — a protection index is not reloaded while an
//!   earlier `Shared` obtained through the same index is still dereferenced
//!   (schemes whose protection is per-access, e.g. HP/HE, only cover the
//!   *latest* pointer at each index; interval schemes cover everything since
//!   `enter`). Structures that cannot bound their index usage (snapshot
//!   traversals) must declare the per-access schemes unsupported, exactly as
//!   the Bonsai benchmark structure does.
//!
//! # Hints
//!
//! [`Ptr::prefetch`] asks the cache for a node's payload. It is **not a
//! load**: it never faults, reads nothing and needs no protection, so it is
//! safe on any `Ptr`, including an unprotected [`Atomic::fetch`] of a node
//! that may already be retired or freed. A descent that will take one of a
//! few known next nodes (a tree's two children) can ask for all of them
//! before it compares; the Natarajan–Mittal `seek` does.
//!
//! # Example
//!
//! ```
//! use smr_core::typed::{pin, Atomic, Guard};
//! use smr_core::{Smr, SmrHandle};
//!
//! // Compile-only sketch (schemes live in downstream crates): a counter
//! // cell that readers dereference through a protected load.
//! fn read_through<S: Smr<u64>>(domain: &S, cell: &Atomic<u64>) -> Option<u64> {
//!     let guard = pin(domain);
//!     let shared = cell.load(0, &guard);
//!     shared.as_ref().copied()
//! }
//! ```

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

use crate::{Smr, SmrHandle};

/// An unbranded tagged pointer value: the currency of stores, swaps and
/// compare-exchange operands.
///
/// A `Ptr` carries no protection evidence, so it cannot be dereferenced in
/// safe code — it is what an unprotected [`Atomic::fetch`] returns and what
/// CAS failure hands back. Compare it against [`Shared`]s, store it, or
/// re-load it through [`Atomic::load`] to get something dereferenceable.
pub struct Ptr<T> {
    raw: crate::Shared<T>,
}

impl<T> Clone for Ptr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Ptr<T> {}

impl<T> PartialEq for Ptr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Ptr<T> {}

impl<T> Default for Ptr<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Ptr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Ptr").field(&self.raw).finish()
    }
}

impl<T> Ptr<T> {
    /// The null pointer.
    pub const fn null() -> Self {
        Ptr {
            raw: crate::Shared::null(),
        }
    }

    /// Wraps a raw-layer pointer (interop escape hatch).
    pub const fn from_raw(raw: crate::Shared<T>) -> Self {
        Ptr { raw }
    }

    /// The raw-layer pointer (interop escape hatch).
    pub const fn into_raw(self) -> crate::Shared<T> {
        self.raw
    }

    /// The tag bits.
    pub fn tag(self) -> usize {
        self.raw.tag()
    }

    /// The same pointer with `tag` as its tag bits.
    pub fn with_tag(self, tag: usize) -> Self {
        Ptr {
            raw: self.raw.with_tag(tag),
        }
    }

    /// The same pointer with the tag cleared.
    pub fn untagged(self) -> Self {
        Ptr {
            raw: self.raw.untagged(),
        }
    }

    /// Whether the (untagged) pointer is null.
    pub fn is_null(self) -> bool {
        self.raw.is_null()
    }

    /// Hints the CPU to start fetching the pointee's cache lines, so a
    /// later protected [`Atomic::load`] and dereference find them warm.
    ///
    /// Not a load: it never faults, reads nothing and needs no protection,
    /// so it may be called on a pointer that could not be dereferenced —
    /// an unprotected [`Atomic::fetch`] of a node that may already be
    /// retired or freed. Null (with any tag) does nothing. Use it where a
    /// descent is about to take one of a few known next nodes and can ask
    /// for all of them before it decides which.
    #[inline]
    pub fn prefetch(self) {
        if !self.raw.is_null() {
            crate::SmrNode::prefetch(self.raw.as_node_ptr());
        }
    }

    /// A reference to the pointee, without protection evidence.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and the node known live for the whole
    /// borrow by an argument *outside* the protection system: it is a
    /// never-retired sentinel, the caller holds it exclusively (a write-set
    /// node not yet published, an unlinked chain owned by the retirer, a
    /// `Drop` with `&mut self`), or equivalent.
    pub unsafe fn deref<'a>(self) -> &'a T
    where
        T: 'a,
    {
        // SAFETY: the caller vouches the node is non-null and live for the
        // whole borrow.
        unsafe { self.raw.deref() }
    }

    /// Promotes to a branded [`Shared`] without going through a protected
    /// load.
    ///
    /// # Safety
    ///
    /// The caller vouches that the node is live — and stays live for as long
    /// as `'g` protections do — by an argument outside the protection
    /// system (see [`Ptr::deref`]); typical uses are never-retired sentinels
    /// and write-set nodes the current thread still owns.
    pub unsafe fn as_shared<'g, 'h, H>(self, _guard: &'g Guard<'h, T, H>) -> Shared<'g, T>
    where
        H: SmrHandle<T>,
    {
        Shared {
            raw: self.raw,
            _brand: PhantomData,
        }
    }
}

/// A protected, lifetime-branded pointer: the result of [`Atomic::load`].
///
/// The brand `'g` is an immutable borrow of the [`Guard`] the load went
/// through, which is what makes [`Shared::as_ref`]/[`Shared::deref`] *safe*
/// — see the module docs for the full argument.
pub struct Shared<'g, T> {
    raw: crate::Shared<T>,
    _brand: PhantomData<&'g ()>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> PartialEq<Ptr<T>> for Shared<'_, T> {
    fn eq(&self, other: &Ptr<T>) -> bool {
        self.raw == other.raw
    }
}

impl<T> PartialEq<Shared<'_, T>> for Ptr<T> {
    fn eq(&self, other: &Shared<'_, T>) -> bool {
        self.raw == other.raw
    }
}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shared").field(&self.raw).finish()
    }
}

impl<'g, T> From<Shared<'g, T>> for Ptr<T> {
    fn from(s: Shared<'g, T>) -> Ptr<T> {
        Ptr { raw: s.raw }
    }
}

impl<'g, T> Shared<'g, T> {
    /// The null pointer (dereferencing yields `None`, so any brand is fine).
    pub fn null() -> Self {
        Shared {
            raw: crate::Shared::null(),
            _brand: PhantomData,
        }
    }

    /// Forgets the protection evidence, leaving a plain pointer value.
    pub fn as_ptr(self) -> Ptr<T> {
        Ptr { raw: self.raw }
    }

    /// The tag bits.
    pub fn tag(self) -> usize {
        self.raw.tag()
    }

    /// The same (still protected) pointer with `tag` as its tag bits.
    pub fn with_tag(self, tag: usize) -> Self {
        Shared {
            raw: self.raw.with_tag(tag),
            _brand: PhantomData,
        }
    }

    /// The same (still protected) pointer with the tag cleared.
    pub fn untagged(self) -> Self {
        Shared {
            raw: self.raw.untagged(),
            _brand: PhantomData,
        }
    }

    /// Whether the (untagged) pointer is null.
    pub fn is_null(self) -> bool {
        self.raw.is_null()
    }

    /// A reference to the pointee, or `None` for null.
    // Not `AsRef`: the borrow is `'g` (the guard), not the receiver.
    #[allow(clippy::should_implement_trait)]
    pub fn as_ref(self) -> Option<&'g T>
    where
        T: 'g,
    {
        if self.raw.is_null() {
            None
        } else {
            // SAFETY: a non-null `Shared<'g, T>` was obtained from a
            // protected load on the guard borrowed for `'g` (or an `unsafe`
            // promotion whose caller vouched for liveness), and everything
            // that could invalidate that protection takes `&mut` on the
            // guard, ending `'g` first — the module-level argument.
            Some(unsafe { self.raw.deref() })
        }
    }

    /// A reference to the pointee; panics on null.
    #[allow(clippy::should_implement_trait)]
    pub fn deref(self) -> &'g T
    where
        T: 'g,
    {
        self.as_ref().expect("dereferenced a null Shared")
    }
}

/// An exclusively owned, not-yet-published node from [`Guard::alloc`].
///
/// There is no `Drop` glue: an `Owned` ends its life either by publication
/// (a successful [`Atomic::compare_exchange_owned`], or [`Owned::into_ptr`]
/// when publication happens through a plain store) or by handing it back
/// with the safe [`Guard::discard`]. Simply dropping it leaks the node.
#[must_use = "an Owned node must be published or passed to Guard::discard; dropping it leaks"]
pub struct Owned<T> {
    raw: crate::Shared<T>,
}

impl<T> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Owned").field(&self.raw).finish()
    }
}

impl<T> AsRef<T> for Owned<T> {
    /// A reference to the payload (exclusive until publication).
    fn as_ref(&self) -> &T {
        // SAFETY: the node came from `Guard::alloc` and has not been
        // published yet — this thread owns it exclusively, and it is freed
        // only by consuming `self` (publication or `Guard::discard`).
        unsafe { self.raw.deref() }
    }
}

impl<T> Owned<T> {
    /// The node's address as a plain pointer value (e.g. to pre-wire links
    /// or to compare after publication). Does not relinquish ownership.
    pub fn ptr(&self) -> Ptr<T> {
        Ptr { raw: self.raw }
    }

    /// Relinquishes ownership, returning the address: the escape hatch for
    /// publication sites that are not a compare-exchange (initial stores of
    /// sentinels, build-then-publish write sets).
    pub fn into_ptr(self) -> Ptr<T> {
        Ptr { raw: self.raw }
    }
}

/// How a [`Guard`] holds its handle: owning (from [`pin`], paired with
/// `enter`/`leave`) or borrowing (from [`Guard::over`], bracketing left to
/// the caller).
enum Hold<'h, H> {
    Owned(H),
    Borrowed(&'h mut H),
}

impl<H> Hold<'_, H> {
    fn handle(&mut self) -> &mut H {
        match self {
            Hold::Owned(h) => h,
            Hold::Borrowed(h) => h,
        }
    }
}

/// A pinned reclamation context: the capability to load-and-protect
/// ([`Atomic::load`]), allocate ([`Guard::alloc`]) and retire
/// ([`Guard::defer_retire`]) against one [`SmrHandle`].
///
/// Obtain one with [`pin`] (owns a fresh handle, `enter`s now, `leave`s on
/// drop) or [`Guard::over`] (borrows a handle the caller already entered —
/// the form every `lockfree-ds` structure method uses internally, so the
/// public `&mut S::Handle<'_>` signatures keep composing with
/// [`crate::HandlePool`], [`crate::Sharded`] and async task guards).
///
/// Interior mutability (the handle sits in an [`UnsafeCell`]) is what lets
/// `load` take `&self` so that many [`Shared`]s can be live at once; the
/// cell makes `Guard` `!Sync`, and no method hands out a reference into the
/// handle, so the exclusive borrows inside never overlap.
pub struct Guard<'h, T, H: SmrHandle<T>> {
    hold: UnsafeCell<Hold<'h, H>>,
    _value: PhantomData<fn(T) -> T>,
}

impl<T, H: SmrHandle<T>> fmt::Debug for Guard<'_, T, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // SAFETY: short-lived shared read of the discriminant; `Guard` is
        // `!Sync` and no other borrow of the hold is live inside `fmt`.
        let owned = matches!(unsafe { &*self.hold.get() }, Hold::Owned(_));
        f.debug_struct("Guard").field("owned", &owned).finish()
    }
}

/// Pins `domain`: takes a fresh handle, `enter`s, and returns the owning
/// [`Guard`]. Dropping the guard `leave`s.
///
/// This is the whole-operation form. Structures internally use
/// [`Guard::over`] so callers keep control of `enter`/`leave` granularity
/// (and of *which* handle — pooled, sharded, task-scoped — is used).
pub fn pin<T, S>(domain: &S) -> Guard<'_, T, S::Handle<'_>>
where
    T: Send + 'static,
    S: Smr<T>,
{
    let mut handle = domain.handle();
    handle.enter();
    Guard {
        hold: UnsafeCell::new(Hold::Owned(handle)),
        _value: PhantomData,
    }
}

impl<'h, T, H: SmrHandle<T>> Guard<'h, T, H> {
    /// Wraps a handle the caller has already `enter`ed; bracketing stays
    /// with the caller (nothing happens on drop).
    ///
    /// Contract (inherited from the raw layer, same as every structure
    /// method's "must be called between `enter` and `leave`"): protected
    /// loads and dereferences are only meaningful while the handle is
    /// inside an operation bracket.
    pub fn over(handle: &'h mut H) -> Self {
        Guard {
            hold: UnsafeCell::new(Hold::Borrowed(handle)),
            _value: PhantomData,
        }
    }

    /// Runs `f` with the exclusive handle borrow. Private: callers are the
    /// methods below and `Atomic::load`, none of which re-enter.
    fn with<R>(&self, f: impl FnOnce(&mut H) -> R) -> R {
        // SAFETY: `Guard` is `!Sync` (UnsafeCell field), so only this thread
        // is here; every caller is a non-reentrant method of this module, so
        // the exclusive borrow ends before any other borrow can start.
        let hold = unsafe { &mut *self.hold.get() };
        f(hold.handle())
    }

    /// Allocates a node in the guard's domain, exclusively owned until
    /// published.
    pub fn alloc(&self, value: T) -> Owned<T> {
        Owned {
            raw: self.with(|h| h.alloc(value)),
        }
    }

    /// Frees a node that was never published. Safe: an [`Owned`] is
    /// exclusively held by construction.
    pub fn discard(&self, owned: Owned<T>) {
        // SAFETY: `owned` came from `Guard::alloc` and was never published
        // (publication consumes the `Owned`), so this thread still has
        // exclusive access and nobody else can observe the node.
        self.with(|h| unsafe { h.dealloc(owned.raw) });
    }

    /// Retires a node: hands it to the reclamation scheme to be freed once
    /// no protection can cover it. Tag bits are stripped.
    ///
    /// # Safety
    ///
    /// The retire-safety argument — the one piece of `unsafe` a structure
    /// keeps: the node must be unlinked from every shared location (no new
    /// references can be obtained once current protections expire), and it
    /// must be retired at most once.
    pub unsafe fn defer_retire(&self, ptr: impl Into<Ptr<T>>) {
        let raw = ptr.into().raw.untagged();
        // SAFETY: the caller's unlink argument is `retire`'s contract, and
        // the guard's handle belongs to the domain that allocated the node.
        self.with(|h| unsafe { h.retire(raw) });
    }

    /// Frees a node immediately, bypassing reclamation. Tag bits are
    /// stripped.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to the node and know that no
    /// other thread can hold or obtain a reference — e.g. `Drop` teardown
    /// with `&mut self`, or rollback of nodes that were never published
    /// (where the safe [`Guard::discard`] does not fit because ownership
    /// was dissolved into raw links).
    pub unsafe fn dealloc(&self, ptr: impl Into<Ptr<T>>) {
        let raw = ptr.into().raw.untagged();
        // SAFETY: the caller has exclusive access and no thread can reach
        // the node, which is `dealloc`'s contract.
        self.with(|h| unsafe { h.dealloc(raw) });
    }

    /// Copies the protection at index `from` onto index `to` (hand-over-hand
    /// traversals). No-op for schemes without per-index protection.
    pub fn copy_protection(&self, from: usize, to: usize) {
        self.with(|h| h.copy_protection(from, to));
    }

    /// Routes [`SmrHandle::pin_shard`]. Takes `&mut self`: re-pinning can
    /// re-enter on a different shard, so outstanding [`Shared`]s (which
    /// borrow `self`) must be gone first.
    pub fn pin_shard(&mut self, key_hash: u64) {
        self.hold.get_mut().handle().pin_shard(key_hash);
    }

    /// Routes [`SmrHandle::trim`] (momentarily exits the operation so
    /// reclamation can catch up). Takes `&mut self`: trimming invalidates
    /// every outstanding protection.
    pub fn repin(&mut self) {
        self.hold.get_mut().handle().trim();
    }

    /// Routes [`SmrHandle::flush`]: push deferred retirements out even if
    /// the scheme's batch threshold has not been reached.
    pub fn flush(&self) {
        self.with(|h| h.flush());
    }

    /// The underlying handle. Takes `&mut self`: raw handle operations can
    /// invalidate protections, so no [`Shared`] may outlive the call.
    pub fn handle_mut(&mut self) -> &mut H {
        self.hold.get_mut().handle()
    }
}

impl<T, H: SmrHandle<T>> Drop for Guard<'_, T, H> {
    fn drop(&mut self) {
        if let Hold::Owned(h) = self.hold.get_mut() {
            h.leave();
        }
    }
}

/// A typed atomic link between nodes of a lock-free structure.
///
/// Wraps [`crate::Atomic`] with fixed conservative orderings (loads are
/// `Acquire`, stores `Release`, read-modify-writes `AcqRel`) so structures
/// carry no per-site ordering decisions, and with the [`Shared`]/[`Ptr`]
/// typing: only [`Atomic::load`] — which routes through
/// [`SmrHandle::protect`] — yields a dereferenceable pointer.
pub struct Atomic<T> {
    raw: crate::Atomic<T>,
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("typed::Atomic").field(&self.raw).finish()
    }
}

impl<T> Atomic<T> {
    /// A null link.
    pub const fn null() -> Self {
        Atomic {
            raw: crate::Atomic::null(),
        }
    }

    /// A link initialized to `ptr`.
    pub fn new(ptr: impl Into<Ptr<T>>) -> Self {
        Atomic {
            raw: crate::Atomic::new(ptr.into().raw),
        }
    }

    /// Protected load: publishes protection index `idx` for the loaded
    /// pointer through the guard, returning a dereferenceable
    /// [`Shared<'g, T>`] branded by the guard borrow.
    ///
    /// Schemes for which [`Smr::needs_seek_validation`] holds additionally
    /// require the structure's usual window re-validation before trusting a
    /// pointer loaded from a link that may itself have been unlinked.
    pub fn load<'g, 'h, H>(&self, idx: usize, guard: &'g Guard<'h, T, H>) -> Shared<'g, T>
    where
        H: SmrHandle<T>,
    {
        Shared {
            raw: guard.with(|h| h.protect(idx, &self.raw)),
            _brand: PhantomData,
        }
    }

    /// Unprotected `Acquire` load. The result cannot be dereferenced in
    /// safe code — use it to validate windows and seed compare-exchanges.
    pub fn fetch(&self) -> Ptr<T> {
        Ptr {
            raw: self.raw.load(Ordering::Acquire),
        }
    }

    /// `Release` store.
    pub fn store(&self, ptr: impl Into<Ptr<T>>) {
        self.raw.store(ptr.into().raw, Ordering::Release);
    }

    /// `AcqRel` swap, returning the displaced pointer.
    pub fn swap(&self, ptr: impl Into<Ptr<T>>) -> Ptr<T> {
        Ptr {
            raw: self.raw.swap(ptr.into().raw, Ordering::AcqRel),
        }
    }

    /// `AcqRel`/`Acquire` compare-exchange. On failure the displaced
    /// (actually observed) pointer comes back in `Err`.
    pub fn compare_exchange(
        &self,
        current: impl Into<Ptr<T>>,
        new: impl Into<Ptr<T>>,
    ) -> Result<(), Ptr<T>> {
        self.raw
            .compare_exchange(
                current.into().raw,
                new.into().raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
            .map_err(|seen| Ptr { raw: seen })
    }

    /// Weak variant of [`Atomic::compare_exchange`] (may fail spuriously;
    /// use in retry loops).
    pub fn compare_exchange_weak(
        &self,
        current: impl Into<Ptr<T>>,
        new: impl Into<Ptr<T>>,
    ) -> Result<(), Ptr<T>> {
        self.raw
            .compare_exchange_weak(
                current.into().raw,
                new.into().raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
            .map_err(|seen| Ptr { raw: seen })
    }

    /// Publishing compare-exchange: on success the [`Owned`] is consumed
    /// and its address returned; on failure ownership comes back with the
    /// observed pointer.
    #[allow(clippy::type_complexity)]
    pub fn compare_exchange_owned(
        &self,
        current: impl Into<Ptr<T>>,
        new: Owned<T>,
    ) -> Result<Ptr<T>, (Ptr<T>, Owned<T>)> {
        let published = new.ptr();
        match self.compare_exchange(current, published) {
            Ok(()) => Ok(published),
            Err(seen) => Err((seen, new)),
        }
    }

    /// Weak variant of [`Atomic::compare_exchange_owned`].
    #[allow(clippy::type_complexity)]
    pub fn compare_exchange_weak_owned(
        &self,
        current: impl Into<Ptr<T>>,
        new: Owned<T>,
    ) -> Result<Ptr<T>, (Ptr<T>, Owned<T>)> {
        let published = new.ptr();
        match self.compare_exchange_weak(current, published) {
            Ok(()) => Ok(published),
            Err(seen) => Err((seen, new)),
        }
    }

    /// `AcqRel` tag fetch-or (logical deletion marks), returning the prior
    /// value.
    pub fn fetch_or_tag(&self, tag: usize) -> Ptr<T> {
        Ptr {
            raw: self.raw.fetch_or_tag(tag, Ordering::AcqRel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmrConfig;

    // Scheme crates sit downstream of smr-core, so (as in `smr::tests`)
    // these are compile-only checks that the typed surface composes over
    // any scheme; runtime coverage lives in lockfree-ds and smr-testkit.
    #[allow(dead_code)]
    fn typed_surface_composes<S: Smr<u64>>(domain: &S) {
        let link = Atomic::<u64>::null();
        let guard = pin(domain);
        let s = link.load(0, &guard);
        assert!(s.as_ref().is_none());
        let owned = guard.alloc(7);
        assert_eq!(*owned.as_ref(), 7);
        match link.compare_exchange_owned(Ptr::null(), owned) {
            Ok(published) => {
                let again = link.load(1, &guard);
                assert!(again == published);
                // SAFETY: this thread published the node and is the only
                // one that ever unlinks it in this scoped check.
                unsafe { guard.defer_retire(link.swap(Ptr::null())) };
            }
            Err((_, owned)) => guard.discard(owned),
        }
        guard.flush();
    }

    #[allow(dead_code)]
    fn borrowing_guard_composes<S: Smr<u64>>(domain: &S) {
        let mut handle = domain.handle();
        handle.enter();
        {
            let mut guard = Guard::<u64, _>::over(&mut handle);
            guard.copy_protection(0, 1);
            guard.pin_shard(3);
            guard.repin();
            let _ = format!("{guard:?}");
        }
        handle.leave();
    }

    #[allow(dead_code)]
    fn config_is_reachable() -> SmrConfig {
        SmrConfig::default()
    }

    #[test]
    fn ptr_tagging_round_trips() {
        let p = Ptr::<u64>::null().with_tag(1);
        assert_eq!(p.tag(), 1);
        assert_eq!(p.untagged().tag(), 0);
        assert!(p.is_null());
        assert_eq!(p.untagged(), Ptr::null());
        let s = Shared::<'_, u64>::null().with_tag(1);
        assert_eq!(s.tag(), 1);
        assert!(s.untagged().is_null());
        assert!(s.as_ptr() == s);
        assert!(s.untagged().as_ref().is_none());
        assert!(format!("{:?}", Ptr::<u64>::default()).starts_with("Ptr"));
    }

    #[test]
    #[should_panic(expected = "dereferenced a null Shared")]
    fn null_deref_panics() {
        let _ = Shared::<'_, u64>::null().deref();
    }

    fn node_ptr<T>(value: T) -> Ptr<T> {
        Ptr::from_raw(crate::Shared::from_node(crate::SmrNode::alloc(value)))
    }

    fn free<T>(p: Ptr<T>) {
        // SAFETY: `p` came from `node_ptr` and is freed exactly once.
        unsafe { crate::SmrNode::dealloc(p.into_raw().as_node_ptr(), true) };
    }

    #[test]
    fn prefetch_null_is_a_no_op() {
        Ptr::<u64>::null().prefetch();
        Ptr::<u64>::null().with_tag(crate::TAG_MASK).prefetch();
    }

    #[test]
    fn prefetch_tagged_pointer() {
        let p = node_ptr(7u64);
        p.with_tag(1).prefetch();
        p.with_tag(crate::TAG_MASK).prefetch();
        free(p);
    }

    #[test]
    fn prefetch_zero_sized_payload() {
        let p = node_ptr(());
        p.prefetch();
        free(p);
    }

    #[test]
    fn prefetch_payload_wider_than_a_line() {
        let p = node_ptr([7u64; 32]);
        p.prefetch();
        free(p);
    }

    #[test]
    fn prefetch_released_node() {
        let p = node_ptr([7u64; 32]);
        free(p);
        // The memory is back with the allocator: a prefetch reads nothing.
        p.prefetch();
        p.with_tag(1).prefetch();
    }
}
