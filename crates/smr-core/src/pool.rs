//! A pool that parks and re-issues [`SmrHandle`]s across tasks.
//!
//! Handles are cheap for Hyaline — that is the paper's *transparency*
//! property — but registry-based schemes (EBR, HP, HE, IBR, Hyaline-1/1S)
//! claim a slot per live handle and panic past
//! [`SmrConfig::max_threads`](crate::SmrConfig::max_threads). Task-per-core
//! runtimes and oversubscribed thread pools run far more short-lived tasks
//! than that; a [`HandlePool`] caps the number of live handles and lets
//! tasks take turns: checkout hands out a parked handle (or creates one
//! while under the cap) and waits when everything is checked out, instead
//! of exploding the registry.
//!
//! Checkout comes in three flavours: blocking [`HandlePool::checkout`] for
//! thread-per-task callers, non-blocking [`HandlePool::try_check_out`] for
//! probing availability without burning a thread, and the async
//! [`HandlePool::check_out`] future for task-per-core runtimes —
//! oversubscribed tasks *await* a handle through a FIFO-fair waker queue
//! instead of blocking an executor worker thread. Async waiters are served
//! strictly in arrival order; blocking and `try` checkouts barge past the
//! queue (they are expected on dedicated threads, not executor workers).
//!
//! Returning a handle normally flushes it first, so a parked handle never
//! sits on a partial batch or an unscanned limbo list while nobody is
//! driving it. A background reclaimer (such as `smr-async`'s per-shard
//! tasks) can take that flush off the hot path instead:
//! [`PooledHandle::check_in_dirty`] parks the handle *without* flushing and
//! [`HandlePool::flush_one_dirty`] lets the reclaimer perform the deferred
//! flush later. Checkout happily re-issues dirty handles — their batches
//! simply keep accumulating, exactly as if one task had kept the handle —
//! so deferred flushing never reduces availability.
//!
//! # Layout: one slot per handle, a mutex only for waiting
//!
//! The pool is a fixed array of `capacity` cache-padded slots. A slot is a
//! state word — `VACANT` (no handle created yet), `HELD` (checked out,
//! being created or being flushed), `CLEAN` or `DIRTY` (parked) — next to
//! the handle itself, which never moves: a [`PooledHandle`] is a reference
//! to its slot and checks in by storing the slot's new state. There is no
//! stack of pointers to pop, so there is no ABA to defend against (the
//! shape `recycle`'s partitions use): the only transitions *into* `HELD`
//! are compare-exchanges, and only the holder leaves it.
//!
//! A claim scans from a thread-local hint — the slot this thread used last
//! — so a worker thread re-takes the handle whose batch, magazine and slot
//! line are already in its cache, and two workers settle on two different
//! slots and stop sharing a cache line at all.
//!
//! The `Mutex`, the `Condvar` and the FIFO queue of async waiters exist
//! only for *waiting*, behind one atomic `waiting` counter (blocked threads
//! plus queued futures, changed only under the mutex, read without it):
//!
//! * a check-in **publishes its slot, then reads `waiting`** and takes the
//!   mutex to wake somebody only when it is non-zero;
//! * a waiter **registers and bumps `waiting` under the mutex, then scans
//!   the slots again** before it sleeps or returns `Pending`.
//!
//! All four accesses are `SeqCst`, so of a racing check-in and waiter at
//! least one sees the other (`interleave::pool` steps the handshake action
//! by action and catches the swapped order as a deadlock). A fresh async
//! `check_out` takes the fast path only while `waiting == 0`; otherwise it
//! queues behind the futures already waiting, which keeps the FIFO order.
//! Wakers are cloned under the mutex and woken after it is released, and
//! the condvar is notified only when a thread is asleep on it — with no
//! sleeper `notify_one` is still a `futex_wake` system call.
//!
//! # What a call costs
//!
//! Counted per call while nobody waits — [`HandlePool::slow_path`] then
//! stays at zero, which the tests assert over 10,000 cycles of each. The
//! second column is the pool this replaced: `Vec`s of parked and dirty
//! handles under one `Mutex`, every signal a `notify_one` under the lock.
//!
//! | call | before: locks / system calls | now |
//! |------|------------------------------|-----|
//! | `checkout`, `try_check_out` | 1 / 0 | one compare-exchange |
//! | `check_out` poll, handle parked | 1 / 1 | one load, one compare-exchange |
//! | check-in (drop) | 1 / 1 | flush, one store, one load |
//! | `check_in_dirty` | 1 / 1 | one store, one load |
//! | `flush_one_dirty` | 2 / 1 | one compare-exchange, then a check-in |
//! | `smr-async`'s deferred guard, queue refuses | 3 + 1 (queue) / 2 | one load, then a check-in |
//!
//! Measured with `benchmark … run --trace 1` on a shared 2-thread host,
//! four runs of the parent and three of this code (CHANGES.md, PR 22, has
//! every row): `pool.checkout_checkin_ns` 230–241 → 23–24,
//! `pool.checkout_contended_ns` 1,028–1,366 → 23 (two threads settle on
//! two slots), `taskguard.acquire_release_ns` 427–462 → 25, and of a
//! traced `kv-service` request `checkout` 318–335 → 54 and `checkin`
//! 1,325–1,431 → 312–337 ns.
//!
//! The slot array had to earn its place against the smaller change: the
//! same three steps — counted sleepers, wake after unlock, a worker
//! re-taking its own handle — with the `Vec`s and the mutex kept, under
//! the same `smr-async`. That version read `kv-service` `throughput_mops` 13.43 (quartiles 13.28 –
//! 13.50) against the slot array's 14.69 (14.58 – 14.84) in ten
//! alternating 33 s pairs, the slot array winning all ten, with
//! `pool.checkout_contended_ns` 712 against 23 and
//! `trace.kv-service.checkin_self_ns` 448 against 329; the parent of both
//! reads 8.03.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use crossbeam_utils::CachePadded;

use crate::{Smr, SmrHandle};

/// No handle has been created in the slot; claiming it creates one.
const VACANT: usize = 0;
/// Somebody owns the slot's cell: a [`PooledHandle`], a creation in
/// progress, or [`HandlePool::flush_one_dirty`].
const HELD: usize = 1;
/// A flushed handle is parked in the slot.
const CLEAN: usize = 2;
/// A handle parked by [`PooledHandle::check_in_dirty`] still owes a flush.
const DIRTY: usize = 3;

thread_local! {
    /// The slot index this thread claimed last, in whichever pool: where
    /// its next claim starts scanning. One word for every pool type (a
    /// generic `thread_local` cannot exist), and only ever a hint.
    static LAST_SLOT: Cell<usize> = const { Cell::new(0) };
}

struct Slot<H> {
    state: AtomicUsize,
    /// The slot's handle, `Some` from its creation on. Owned by whoever
    /// moved `state` to `HELD`.
    cell: UnsafeCell<Option<H>>,
}

// SAFETY: `state` is an atomic. `cell` is only touched by the one party
// that moved `state` to `HELD` (a compare-exchange) until that party stores
// another state, so a shared `Slot` hands its handle from thread to thread
// but never to two at once — which needs `H: Send`, like a `Mutex<H>`.
unsafe impl<H: Send> Sync for Slot<H> {}

/// One pending async checkout, FIFO-ordered by arrival.
struct PoolWaiter {
    ticket: u64,
    waker: Waker,
}

/// Everything about waiting, under the pool's only mutex.
#[derive(Default)]
struct Waiters {
    /// Pending [`CheckOut`] futures in arrival order; only the front waiter
    /// may take a handle, which makes the async path FIFO-fair.
    queue: VecDeque<PoolWaiter>,
    next_ticket: u64,
    /// Threads inside [`HandlePool::checkout`]'s condvar wait. Changed only
    /// under this mutex, which the wait releases, so it is exact.
    sleepers: usize,
    counts: SlowPath,
}

/// How often a [`HandlePool`] left its lock-free path, from
/// [`HandlePool::slow_path`]: the counters a service reads to show that
/// its request path never waits and never enters the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowPath {
    /// Acquisitions of the waiting mutex.
    pub locks: u64,
    /// `Condvar::notify_one` calls — each a `futex_wake` system call.
    pub notifies: u64,
    /// Async waiters woken.
    pub wakes: u64,
}

/// A pool of reusable handles over one domain.
///
/// # Example
///
/// Sixteen tasks share two handles on a registry-capped scheme:
///
/// ```
/// use smr_core::{HandlePool, Smr, SmrConfig, SmrHandle};
///
/// fn oversubscribed<S: Smr<u64>>(domain: &S) {
///     let pool = HandlePool::new(domain, 2);
///     std::thread::scope(|scope| {
///         for t in 0..16u64 {
///             let pool = &pool;
///             scope.spawn(move || {
///                 let mut h = pool.checkout(); // blocks, never panics
///                 h.enter();
///                 let node = h.alloc(t);
///                 unsafe { h.retire(node) }; // SAFETY: node is unshared, no readers.
///                 h.leave();
///             }); // guard drop flushes and parks the handle
///         }
///     });
///     assert!(pool.issued() <= 2);
/// }
/// ```
pub struct HandlePool<'d, T: Send + 'static, S: Smr<T>> {
    domain: &'d S,
    slots: Box<[CachePadded<Slot<S::Handle<'d>>>]>,
    /// Blocked threads plus queued futures; see the module docs.
    waiting: AtomicUsize,
    waiters: Mutex<Waiters>,
    available: Condvar,
}

impl<'d, T: Send + 'static, S: Smr<T>> HandlePool<'d, T, S> {
    /// A pool issuing at most `capacity` concurrent handles on `domain`.
    ///
    /// For registry-based schemes, `capacity` should not exceed the
    /// domain's `max_threads` minus any handles used outside the pool.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(domain: &'d S, capacity: usize) -> Self {
        assert!(capacity > 0, "a handle pool needs a nonzero capacity");
        Self {
            domain,
            slots: (0..capacity)
                .map(|_| {
                    CachePadded::new(Slot {
                        state: AtomicUsize::new(VACANT),
                        cell: UnsafeCell::new(None),
                    })
                })
                .collect(),
            waiting: AtomicUsize::new(0),
            waiters: Mutex::default(),
            available: Condvar::new(),
        }
    }

    /// The maximum number of concurrently issued handles.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Handles created so far (parked or checked out). Never exceeds
    /// [`HandlePool::capacity`].
    pub fn issued(&self) -> usize {
        self.count(|state| state != VACANT)
    }

    /// Handles currently parked and ready for immediate checkout
    /// (flushed and dirty alike).
    pub fn parked(&self) -> usize {
        self.count(|state| state == CLEAN || state == DIRTY)
    }

    /// Handles currently held by callers: created minus parked. The
    /// companion of [`HandlePool::capacity`] for load probes — a service
    /// can shed work when `checked_out() == capacity()`.
    pub fn checked_out(&self) -> usize {
        self.count(|state| state == HELD)
    }

    /// Handles parked via [`PooledHandle::check_in_dirty`] that still owe
    /// a deferred flush.
    pub fn dirty(&self) -> usize {
        self.count(|state| state == DIRTY)
    }

    /// How often the pool has taken its waiting mutex, notified its
    /// condvar and woken an async waiter so far.
    pub fn slow_path(&self) -> SlowPath {
        let waiters = self.waiters.lock().unwrap_or_else(|p| p.into_inner());
        waiters.counts
    }

    fn count(&self, wanted: impl Fn(usize) -> bool) -> usize {
        let states = self.slots.iter().map(|s| s.state.load(Ordering::SeqCst));
        states.filter(|&state| wanted(state)).count()
    }

    fn lock(&self) -> MutexGuard<'_, Waiters> {
        // A task panicking mid-operation poisons the mutex; the waiter
        // state is never left half-updated, so keep serving the others.
        let mut waiters = self.waiters.lock().unwrap_or_else(|p| p.into_inner());
        waiters.counts.locks += 1;
        waiters
    }

    /// Claims the first slot from `start` round that is parked (or, with
    /// `parked` false, vacant) by moving it to `HELD`.
    fn claim_from(&self, start: usize, parked: bool) -> Option<usize> {
        (start..self.slots.len()).chain(0..start).find(|&i| {
            let state = &self.slots[i].state;
            let seen = state.load(Ordering::SeqCst);
            let wanted = if parked {
                seen == CLEAN || seen == DIRTY
            } else {
                seen == VACANT
            };
            wanted
                && state
                    .compare_exchange(seen, HELD, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
        })
    }

    /// Claims a parked handle's slot, or failing that a vacant one; `None`
    /// when every slot is held. Never waits, and creates nothing: callers
    /// that hold the waiting mutex release it before [`Claim::issue`].
    fn try_claim(&self) -> Option<Claim<'_, 'd, T, S>> {
        let hint = LAST_SLOT.get();
        let start = if hint < self.slots.len() { hint } else { 0 };
        let (index, vacant) = match self.claim_from(start, true) {
            Some(index) => (index, false),
            None => (self.claim_from(start, false)?, true),
        };
        if index != hint {
            LAST_SLOT.set(index);
        }
        Some(Claim {
            pool: self,
            slot: &self.slots[index],
            vacant,
        })
    }

    /// Takes a handle, blocking until one is parked or the pool is under
    /// its creation cap.
    ///
    /// The caller must return the handle outside of an operation (after
    /// `leave`): a handle parked mid-operation would hold its reservation —
    /// and pin reclamation — for as long as it sits in the pool.
    pub fn checkout(&self) -> PooledHandle<'_, 'd, T, S> {
        match self.try_claim() {
            Some(claim) => claim.issue(),
            None => self.checkout_blocking(),
        }
    }

    #[cold]
    fn checkout_blocking(&self) -> PooledHandle<'_, 'd, T, S> {
        let mut waiters = self.lock();
        waiters.sleepers += 1;
        self.waiting.fetch_add(1, Ordering::SeqCst);
        // Scanning only after the bump is the waiter's half of the
        // handshake: a check-in that read `waiting == 0` published its
        // slot before the bump, so this scan sees it.
        let claim = loop {
            if let Some(claim) = self.try_claim() {
                break claim;
            }
            waiters = self
                .available
                .wait(waiters)
                .unwrap_or_else(|p| p.into_inner());
        };
        waiters.sleepers -= 1;
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        drop(waiters);
        claim.issue()
    }

    /// Takes a handle if one is immediately available (parked, or the pool
    /// is under its cap); `None` when the pool is exhausted.
    pub fn try_check_out(&self) -> Option<PooledHandle<'_, 'd, T, S>> {
        self.try_claim().map(Claim::issue)
    }

    /// Asynchronously takes a handle: resolves once one is parked or the
    /// pool is under its creation cap, without blocking the polling thread.
    ///
    /// Waiters are served FIFO — the future that started awaiting first
    /// gets the next handle — so an oversubscribed executor cannot starve
    /// an old task behind a stream of new ones. Dropping the future before
    /// it resolves (task cancellation) releases its queue slot and passes
    /// any pending availability signal to the next waiter; no capacity is
    /// ever held by a cancelled checkout.
    ///
    /// As with [`HandlePool::checkout`], the resolved handle must be
    /// returned outside of an operation.
    pub fn check_out(&self) -> CheckOut<'_, 'd, T, S> {
        CheckOut {
            pool: self,
            ticket: None,
        }
    }

    /// Creates the handle of a slot just claimed `VACANT` → `HELD` (outside
    /// any lock: registry claiming can contend). If creation panics — e.g.
    /// the scheme's registry is exhausted by handles living outside the
    /// pool — the slot goes back to `VACANT` and a waiter is woken, so the
    /// panic cannot permanently shrink the pool.
    fn create(&self, slot: &Slot<S::Handle<'d>>) {
        struct Rollback<'r, 'd, T: Send + 'static, S: Smr<T>> {
            pool: &'r HandlePool<'d, T, S>,
            slot: &'r Slot<S::Handle<'d>>,
        }
        impl<T: Send + 'static, S: Smr<T>> Drop for Rollback<'_, '_, T, S> {
            fn drop(&mut self) {
                self.pool.publish(self.slot, VACANT);
            }
        }
        let rollback = Rollback { pool: self, slot };
        let handle = self.domain.handle();
        #[expect(
            clippy::mem_forget,
            reason = "disarms the rollback guard: the slot now holds a handle"
        )]
        std::mem::forget(rollback);
        // SAFETY: the caller holds the slot, so nobody else reads or
        // writes its cell.
        unsafe { *slot.cell.get() = Some(handle) };
    }

    /// Gives up a held slot: stores its new state, then — the check-in's
    /// half of the handshake — reads `waiting` and passes a signal on only
    /// if somebody is waiting.
    fn publish(&self, slot: &Slot<S::Handle<'d>>, state: usize) {
        slot.state.store(state, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) != 0 {
            self.signal(self.lock());
        }
    }

    /// Passes an availability signal on and releases the mutex: wakes the
    /// front async waiter (only the front may take, preserving FIFO order)
    /// and one blocked thread, if there is anything to take. Called
    /// whenever a slot is published while somebody waits, or a waiter
    /// leaves the queue — a woken waiter that disappears (cancelled
    /// future) must hand the signal on, or the availability it absorbed
    /// would be lost. The waker is cloned under the mutex and woken after
    /// it: a waker may take locks of its own (the `smr-async` executor's
    /// injector), or come straight back to this pool.
    #[cold]
    fn signal(&self, mut waiters: MutexGuard<'_, Waiters>) {
        if self.count(|state| state != HELD) == 0 {
            return;
        }
        let waker = waiters.queue.front().map(|front| front.waker.clone());
        let notify = waiters.sleepers > 0;
        waiters.counts.wakes += u64::from(waker.is_some());
        waiters.counts.notifies += u64::from(notify);
        drop(waiters);
        if let Some(waker) = waker {
            waker.wake();
        }
        if notify {
            self.available.notify_one();
        }
    }

    /// Flushes one dirty handle, if any, and parks it clean. Returns
    /// whether a handle was flushed.
    ///
    /// This is the reclaimer half of the deferred-flush protocol: tasks
    /// check handles in dirty (cheap), a background reclaimer calls this
    /// off the hot path. The handle is held out of the pool only for the
    /// duration of the flush; checkout keeps serving the rest.
    pub fn flush_one_dirty(&self) -> bool {
        let claimed = self.slots.iter().find(|slot| {
            slot.state.load(Ordering::SeqCst) == DIRTY
                && slot
                    .state
                    .compare_exchange(DIRTY, HELD, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
        });
        let Some(slot) = claimed else {
            return false;
        };
        // The rest is a plain check-in: flush, then park clean.
        drop(PooledHandle {
            pool: self,
            slot,
            _handle: PhantomData,
        });
        true
    }

    /// Flushes every currently dirty handle (see
    /// [`HandlePool::flush_one_dirty`]); returns how many were flushed.
    /// Used by shutdown paths that must not leave deferred batches behind.
    pub fn flush_dirty(&self) -> usize {
        let mut flushed = 0;
        while self.flush_one_dirty() {
            flushed += 1;
        }
        flushed
    }
}

impl<T: Send + 'static, S: Smr<T>> std::fmt::Debug for HandlePool<'_, T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlePool")
            .field("scheme", &S::name())
            .field("capacity", &self.capacity())
            .field("issued", &self.issued())
            .field("parked", &self.parked())
            .field("dirty", &self.dirty())
            .field("waiting", &self.waiting.load(Ordering::SeqCst))
            .finish()
    }
}

/// A slot moved to `HELD` on behalf of a checkout that has not been handed
/// its guard yet.
struct Claim<'p, 'd, T: Send + 'static, S: Smr<T>> {
    pool: &'p HandlePool<'d, T, S>,
    slot: &'p Slot<S::Handle<'d>>,
    /// The slot was `VACANT`: its handle still has to be created.
    vacant: bool,
}

impl<'p, 'd, T: Send + 'static, S: Smr<T>> Claim<'p, 'd, T, S> {
    fn issue(self) -> PooledHandle<'p, 'd, T, S> {
        if self.vacant {
            self.pool.create(self.slot);
        }
        PooledHandle {
            pool: self.pool,
            slot: self.slot,
            _handle: PhantomData,
        }
    }
}

/// The future returned by [`HandlePool::check_out`].
///
/// Resolves on its first poll when nobody is waiting and a handle is
/// available. Otherwise it registers itself in the pool's FIFO waiter
/// queue and resolves to a [`PooledHandle`] once it reaches the front of
/// the queue and a handle (or capacity slot) frees up. Dropping the future
/// deregisters it and forwards any pending wake to the next waiter, so
/// cancelled tasks never strand the queue.
pub struct CheckOut<'p, 'd, T: Send + 'static, S: Smr<T>> {
    pool: &'p HandlePool<'d, T, S>,
    ticket: Option<u64>,
}

impl<T: Send + 'static, S: Smr<T>> std::fmt::Debug for CheckOut<'_, '_, T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckOut")
            .field("scheme", &S::name())
            .field("queued", &self.ticket.is_some())
            .finish()
    }
}

impl<'p, 'd, T: Send + 'static, S: Smr<T>> CheckOut<'p, 'd, T, S> {
    /// Removes this future's waiter entry (no-op if never registered).
    fn deregister(&mut self, waiters: &mut Waiters) {
        if let Some(ticket) = self.ticket.take() {
            waiters.queue.retain(|w| w.ticket != ticket);
            self.pool.waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The poll of a future that is queued or has to queue: everything
    /// happens under the waiting mutex, the same one a check-in takes
    /// before it wakes anybody.
    #[cold]
    fn poll_queued(&mut self, cx: &mut Context<'_>) -> Poll<PooledHandle<'p, 'd, T, S>> {
        let pool = self.pool;
        let mut waiters = pool.lock();
        let ticket = match self.ticket {
            Some(ticket) => ticket,
            None => {
                let ticket = waiters.next_ticket;
                waiters.next_ticket += 1;
                waiters.queue.push_back(PoolWaiter {
                    ticket,
                    waker: cx.waker().clone(),
                });
                // The claim below comes after this bump: the waiter's half
                // of the handshake, as in `checkout_blocking`.
                pool.waiting.fetch_add(1, Ordering::SeqCst);
                self.ticket = Some(ticket);
                ticket
            }
        };
        // FIFO fairness: only the front of the queue may take a handle.
        if waiters.queue.front().is_some_and(|w| w.ticket == ticket) {
            if let Some(claim) = pool.try_claim() {
                self.deregister(&mut waiters);
                // Hand any *remaining* availability to the next waiter.
                pool.signal(waiters);
                return Poll::Ready(claim.issue());
            }
        }
        if let Some(w) = waiters.queue.iter_mut().find(|w| w.ticket == ticket) {
            w.waker.clone_from(cx.waker());
        }
        Poll::Pending
    }
}

impl<'p, 'd, T: Send + 'static, S: Smr<T>> Future for CheckOut<'p, 'd, T, S> {
    type Output = PooledHandle<'p, 'd, T, S>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // No self-references: the future is plain data, hence Unpin.
        let this = self.get_mut();
        // With nobody queued or asleep a fresh future overtakes nobody.
        if this.ticket.is_none() && this.pool.waiting.load(Ordering::SeqCst) == 0 {
            if let Some(claim) = this.pool.try_claim() {
                return Poll::Ready(claim.issue());
            }
        }
        this.poll_queued(cx)
    }
}

impl<T: Send + 'static, S: Smr<T>> Drop for CheckOut<'_, '_, T, S> {
    fn drop(&mut self) {
        if self.ticket.is_none() {
            return;
        }
        let mut waiters = self.pool.lock();
        self.deregister(&mut waiters);
        // A check-in may have woken this future right before it was
        // cancelled; that signal would otherwise be lost with the handle
        // sitting parked, so pass it on.
        self.pool.signal(waiters);
    }
}

/// A checked-out handle; dereferences to `S::Handle` and parks it back into
/// the pool on drop (flushing first).
pub struct PooledHandle<'p, 'd, T: Send + 'static, S: Smr<T>> {
    pool: &'p HandlePool<'d, T, S>,
    /// The slot this guard holds; its handle stays in place.
    slot: &'p Slot<S::Handle<'d>>,
    /// The guard *is* exclusive access to the handle: `Send` and `Sync`
    /// exactly when `&mut Handle` is, not when a shared `Slot` is.
    _handle: PhantomData<&'p mut S::Handle<'d>>,
}

impl<T: Send + 'static, S: Smr<T>> PooledHandle<'_, '_, T, S> {
    /// Returns the handle to the pool *without* flushing it.
    ///
    /// The deferred-flush half of the reclaimer protocol: the task-side
    /// check-in becomes one store, and a background reclaimer performs
    /// the flush later via [`HandlePool::flush_one_dirty`]. The caller (or
    /// its reclaimer) is responsible for ensuring dirty handles are
    /// eventually flushed — on an orderly shutdown, drain with
    /// [`HandlePool::flush_dirty`]. As with a plain drop, the handle must
    /// be outside an operation (after `leave`).
    pub fn check_in_dirty(self) {
        // Not dropped: the drop would flush.
        let this = ManuallyDrop::new(self);
        this.pool.publish(this.slot, DIRTY);
    }
}

impl<T: Send + 'static, S: Smr<T>> std::fmt::Debug for PooledHandle<'_, '_, T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledHandle")
            .field("scheme", &S::name())
            .finish_non_exhaustive()
    }
}

impl<'d, T: Send + 'static, S: Smr<T>> Deref for PooledHandle<'_, 'd, T, S> {
    type Target = S::Handle<'d>;

    fn deref(&self) -> &Self::Target {
        // SAFETY: this guard holds the slot from its claim to its drop, so
        // nobody else touches the cell.
        unsafe { &*self.slot.cell.get() }
            .as_ref()
            .expect("a held slot has a handle")
    }
}

impl<T: Send + 'static, S: Smr<T>> DerefMut for PooledHandle<'_, '_, T, S> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { &mut *self.slot.cell.get() }
            .as_mut()
            .expect("a held slot has a handle")
    }
}

impl<T: Send + 'static, S: Smr<T>> Drop for PooledHandle<'_, '_, T, S> {
    fn drop(&mut self) {
        // Push retired nodes out so nothing lingers while the handle
        // parks: the flush comes before the slot is visible again.
        self.flush();
        self.pool.publish(self.slot, CLEAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atomic, Shared, SmrConfig, SmrStats};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    /// Registry-like toy scheme: counts live handles and panics past the
    /// configured cap, mirroring `SlotRegistry::claim`.
    struct CappedDomain {
        live: AtomicUsize,
        cap: usize,
        flushes: AtomicUsize,
        stats: SmrStats,
    }

    impl Smr<u64> for CappedDomain {
        type Handle<'d> = CappedHandle<'d>;

        fn with_config(config: SmrConfig) -> Self {
            Self {
                live: AtomicUsize::new(0),
                cap: config.max_threads,
                flushes: AtomicUsize::new(0),
                stats: SmrStats::new(),
            }
        }

        fn handle(&self) -> CappedHandle<'_> {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            assert!(
                now <= self.cap,
                "registry exhausted: {now} concurrent handles"
            );
            CappedHandle { domain: self }
        }

        fn stats(&self) -> &SmrStats {
            &self.stats
        }

        fn name() -> &'static str {
            "Capped"
        }

        fn robust() -> bool {
            false
        }
    }

    struct CappedHandle<'d> {
        domain: &'d CappedDomain,
    }

    impl Drop for CappedHandle<'_> {
        fn drop(&mut self) {
            self.domain.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl SmrHandle<u64> for CappedHandle<'_> {
        fn enter(&mut self) {}
        fn leave(&mut self) {}

        fn alloc(&mut self, value: u64) -> Shared<u64> {
            self.domain.stats.add_allocated(1);
            Shared::from_node(crate::SmrNode::alloc(value))
        }

        unsafe fn dealloc(&mut self, ptr: Shared<u64>) {
            self.domain.stats.add_deallocated(1);
            // SAFETY: callers uphold the trait contract (ptr came from
            // `alloc` and is not reachable); the toy domain frees it at once.
            unsafe { crate::SmrNode::dealloc(ptr.as_node_ptr(), true) };
        }

        fn protect(&mut self, _idx: usize, src: &Atomic<u64>) -> Shared<u64> {
            src.load(Ordering::Acquire)
        }

        unsafe fn retire(&mut self, ptr: Shared<u64>) {
            self.domain.stats.add_retired(1);
            self.domain.stats.add_freed(1);
            // SAFETY: these tests never share nodes across handles, so a
            // retired node has no readers and can be freed on the spot.
            unsafe { crate::SmrNode::dealloc(ptr.as_node_ptr(), true) };
        }

        fn flush(&mut self) {
            self.domain.flushes.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn domain(cap: usize) -> CappedDomain {
        CappedDomain::with_config(SmrConfig {
            max_threads: cap,
            ..SmrConfig::default()
        })
    }

    /// A waker that records having been woken.
    struct Flag(AtomicBool);

    impl Flag {
        fn pair() -> (Arc<Flag>, Waker) {
            let flag = Arc::new(Flag(AtomicBool::new(false)));
            let waker = Waker::from(Arc::clone(&flag));
            (flag, waker)
        }

        fn woken(&self) -> bool {
            self.0.swap(false, Ordering::SeqCst)
        }
    }

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
        let mut cx = Context::from_waker(waker);
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn checkout_reuses_parked_handles() {
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        for i in 0..10u64 {
            let mut h = pool.checkout();
            h.enter();
            let node = h.alloc(i);
            // SAFETY: `node` is unshared and has no readers.
            unsafe { h.retire(node) };
            h.leave();
        }
        assert_eq!(pool.issued(), 1, "ten sequential tasks shared one handle");
        assert_eq!(pool.parked(), 1);
        assert_eq!(pool.checked_out(), 0);
        assert_eq!(d.stats.allocated(), 10);
    }

    #[test]
    fn try_check_out_reports_exhaustion() {
        let d = domain(2);
        let pool = HandlePool::new(&d, 2);
        let a = pool.try_check_out().expect("first");
        let b = pool.try_check_out().expect("second");
        assert!(pool.try_check_out().is_none(), "pool must be exhausted");
        assert_eq!(pool.checked_out(), 2);
        assert_eq!(pool.capacity(), 2);
        drop(a);
        assert_eq!(pool.checked_out(), 1);
        assert!(pool.try_check_out().is_some(), "returned handle reusable");
        drop(b);
    }

    #[test]
    fn more_tasks_than_capacity_block_and_complete() {
        let d = domain(2);
        let pool = &HandlePool::new(&d, 2);
        let completed = &AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..16u64 {
                scope.spawn(move || {
                    let mut h = pool.checkout();
                    h.enter();
                    let node = h.alloc(t);
                    // SAFETY: `node` is unshared and has no readers.
                    unsafe { h.retire(node) };
                    h.leave();
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(completed.load(Ordering::SeqCst), 16);
        assert!(pool.issued() <= 2, "cap exceeded: {}", pool.issued());
        assert_eq!(d.stats.allocated(), 16);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_rejected() {
        let d = domain(1);
        let _ = HandlePool::new(&d, 0);
    }

    #[test]
    fn failed_handle_creation_rolls_back_the_capacity_slot() {
        // The underlying registry has room for 1 handle but the pool
        // believes it may create 2: the second creation panics inside the
        // domain. The reserved `issued` slot must be rolled back, so the
        // pool keeps serving tasks with the one real handle.
        let d = domain(1);
        let pool = HandlePool::new(&d, 2);
        let first = pool.checkout();
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.checkout();
        }));
        assert!(second.is_err(), "second creation must panic");
        assert_eq!(pool.issued(), 1, "panicked creation leaked a slot");
        drop(first);
        // Not hung: the parked handle (and the rolled-back slot) serve us.
        let _again = pool.checkout();
    }

    #[test]
    fn panicked_task_returns_its_handle() {
        let d = domain(1);
        let pool = &HandlePool::new(&d, 1);
        let result = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    let _h = pool.checkout();
                    panic!("task died mid-checkout");
                })
                .join()
        });
        assert!(result.is_err());
        // The guard's Drop ran during unwind: the handle is parked again.
        assert_eq!(pool.parked(), 1);
        let _h = pool.try_check_out().expect("handle survives a panic");
    }

    #[test]
    fn async_check_out_resolves_immediately_when_available() {
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        let (_flag, waker) = Flag::pair();
        let mut fut = pool.check_out();
        let Poll::Ready(h) = poll_once(&mut fut, &waker) else {
            panic!("empty pool under cap must resolve on first poll");
        };
        assert_eq!(pool.checked_out(), 1);
        drop(h);
        assert_eq!(pool.parked(), 1);
    }

    #[test]
    fn async_check_out_is_fifo_fair() {
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        let held = pool.checkout();

        let (flag_a, waker_a) = Flag::pair();
        let (flag_b, waker_b) = Flag::pair();
        let mut a = pool.check_out();
        let mut b = pool.check_out();
        assert!(poll_once(&mut a, &waker_a).is_pending());
        assert!(poll_once(&mut b, &waker_b).is_pending());

        drop(held); // check-in wakes the front waiter (a)
        assert!(flag_a.woken(), "front waiter must be woken by check-in");

        // b polls first (executor scheduling artifact) — but a is the front
        // of the queue, so b must stay pending.
        assert!(poll_once(&mut b, &waker_b).is_pending());
        let Poll::Ready(handle_a) = poll_once(&mut a, &waker_a) else {
            panic!("front waiter must resolve");
        };

        drop(handle_a); // wakes b, now the front
        assert!(flag_b.woken());
        let Poll::Ready(_handle_b) = poll_once(&mut b, &waker_b) else {
            panic!("second waiter must resolve after the first returns");
        };
        assert_eq!(pool.issued(), 1, "everything shared the single handle");
    }

    #[test]
    fn cancelled_check_out_releases_its_waker_slot() {
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        let held = pool.checkout();

        let (_flag, waker) = Flag::pair();
        let mut fut = pool.check_out();
        assert!(poll_once(&mut fut, &waker).is_pending());
        drop(fut); // cancelled mid-await

        drop(held);
        // No leaked queue entry, no leaked capacity: immediate reuse works.
        assert_eq!(pool.checked_out(), 0);
        let _h = pool.try_check_out().expect("pool fully available again");
        assert_eq!(pool.issued(), 1);
    }

    #[test]
    fn cancelling_a_woken_waiter_passes_the_signal_on() {
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        let held = pool.checkout();

        let (flag_a, waker_a) = Flag::pair();
        let (flag_b, waker_b) = Flag::pair();
        let mut a = pool.check_out();
        let mut b = pool.check_out();
        assert!(poll_once(&mut a, &waker_a).is_pending());
        assert!(poll_once(&mut b, &waker_b).is_pending());

        drop(held);
        assert!(flag_a.woken(), "a absorbed the availability signal");
        assert!(!flag_b.woken());

        // a is cancelled after being woken but before re-polling: its drop
        // must forward the signal, or b waits forever on a parked handle.
        drop(a);
        assert!(flag_b.woken(), "cancelled waiter must pass the baton");
        let Poll::Ready(_h) = poll_once(&mut b, &waker_b) else {
            panic!("b must resolve after the baton pass");
        };
    }

    #[test]
    fn check_in_dirty_defers_the_flush_to_the_pool() {
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        pool.checkout().check_in_dirty();
        assert_eq!(pool.dirty(), 1);
        assert_eq!(
            d.flushes.load(Ordering::SeqCst),
            0,
            "dirty check-in must not flush on the task's path"
        );
        assert!(pool.flush_one_dirty(), "one dirty handle to flush");
        assert!(!pool.flush_one_dirty(), "queue drained");
        assert_eq!(pool.dirty(), 0);
        assert_eq!(pool.parked(), 1);
        assert_eq!(d.flushes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn checkout_serves_dirty_handles() {
        // A dirty handle is still a perfectly good handle: re-issuing it is
        // the same as one task having kept it across two operations.
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        pool.checkout().check_in_dirty();
        assert_eq!(pool.dirty(), 1);
        let h = pool.try_check_out().expect("dirty handle is available");
        assert_eq!(pool.dirty(), 0);
        drop(h);
        // Plain drop flushed it: nothing dirty remains.
        assert_eq!(pool.dirty(), 0);
        assert_eq!(pool.flush_dirty(), 0);
    }

    #[test]
    fn flush_dirty_drains_everything_for_shutdown() {
        let d = domain(3);
        let pool = HandlePool::new(&d, 3);
        let (a, b, c) = (pool.checkout(), pool.checkout(), pool.checkout());
        a.check_in_dirty();
        b.check_in_dirty();
        c.check_in_dirty();
        assert_eq!(pool.dirty(), 3);
        assert_eq!(pool.flush_dirty(), 3);
        assert_eq!(pool.dirty(), 0);
        assert_eq!(pool.parked(), 3);
        assert_eq!(d.flushes.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn async_check_out_waits_for_dirty_handles_too() {
        let d = domain(1);
        let pool = HandlePool::new(&d, 1);
        let held = pool.checkout();
        let (flag, waker) = Flag::pair();
        let mut fut = pool.check_out();
        assert!(poll_once(&mut fut, &waker).is_pending());
        held.check_in_dirty(); // dirty check-in must also wake waiters
        assert!(flag.woken());
        let Poll::Ready(_h) = poll_once(&mut fut, &waker) else {
            panic!("dirty handle must satisfy an async waiter");
        };
    }

    #[test]
    fn async_oversubscription_on_threads_completes() {
        // 16 blocking threads each driving an async checkout via manual
        // polling (park/unpark) against a 2-handle pool: the waker queue
        // and the condvar path coexist without lost wakeups.
        let d = domain(2);
        let pool = &HandlePool::new(&d, 2);
        let completed = &AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..16u64 {
                scope.spawn(move || {
                    // Busy-poll with a flag waker: a minimal single-future
                    // executor (yields via thread::yield_now, not sleep).
                    let (flag, waker) = Flag::pair();
                    let mut fut = pool.check_out();
                    let mut h = loop {
                        match poll_once(&mut fut, &waker) {
                            Poll::Ready(h) => break h,
                            Poll::Pending => {
                                while !flag.woken() {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    };
                    h.enter();
                    let node = h.alloc(t);
                    // SAFETY: `node` is unshared and has no readers.
                    unsafe { h.retire(node) };
                    h.leave();
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(completed.load(Ordering::SeqCst), 16);
        assert!(pool.issued() <= 2);
        assert_eq!(d.stats.allocated(), 16);
    }

    #[test]
    fn uncontended_cycles_never_leave_the_fast_path() {
        let d = domain(2);
        let pool = HandlePool::new(&d, 2);
        let (_flag, waker) = Flag::pair();
        for _ in 0..10_000 {
            drop(pool.checkout());
            let Poll::Ready(h) = poll_once(&mut pool.check_out(), &waker) else {
                panic!("an idle pool resolves on the first poll");
            };
            h.check_in_dirty();
            assert!(pool.flush_one_dirty());
            drop(pool.try_check_out().expect("idle pool"));
        }
        assert_eq!(pool.issued(), 1, "one thread keeps re-taking its own slot");
        assert_eq!(
            pool.slow_path(),
            SlowPath::default(),
            "no mutex, no condvar notification, no wake without a waiter"
        );
    }

    #[test]
    fn blocked_checkout_is_woken_by_one_notification() {
        let d = domain(1);
        let pool = &HandlePool::new(&d, 1);
        let held = pool.checkout();
        std::thread::scope(|scope| {
            let blocked = scope.spawn(move || drop(pool.checkout()));
            // The waiting mutex is free again only once the thread is
            // inside the condvar wait.
            while pool.waiters.lock().unwrap().sleepers == 0 {
                std::thread::yield_now();
            }
            assert_eq!(pool.slow_path().notifies, 0);
            drop(held);
            blocked.join().unwrap();
        });
        let counts = pool.slow_path();
        assert_eq!(counts.notifies, 1, "one sleeper, one notification");
        assert_eq!(counts.wakes, 0);
        // Nobody waits any more: the next cycle is lock-free again.
        drop(pool.checkout());
        assert_eq!(pool.slow_path(), counts);
    }

    /// A waker that takes the pool's waiting mutex when woken, as any waker
    /// that comes back to the pool (or holds a lock the pool's callers
    /// hold) does.
    struct Reentrant {
        pool: &'static HandlePool<'static, u64, CappedDomain>,
        wakes: AtomicUsize,
    }

    impl Wake for Reentrant {
        fn wake(self: Arc<Self>) {
            self.pool.slow_path();
            self.wakes.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn wakers_are_woken_outside_the_pool_lock() {
        let d: &'static CappedDomain = Box::leak(Box::new(domain(1)));
        let pool: &'static HandlePool<'static, u64, CappedDomain> =
            Box::leak(Box::new(HandlePool::new(d, 1)));
        let reentrant = Arc::new(Reentrant {
            pool,
            wakes: AtomicUsize::new(0),
        });
        let waker = Waker::from(Arc::clone(&reentrant));
        let woken = || reentrant.wakes.swap(0, Ordering::SeqCst);

        // Check-in, dirty check-in and the deferred flush.
        let held = pool.checkout();
        let mut a = pool.check_out();
        assert!(poll_once(&mut a, &waker).is_pending());
        drop(held);
        assert_eq!(woken(), 1);
        let Poll::Ready(held) = poll_once(&mut a, &waker) else {
            panic!("the woken waiter takes the handle");
        };
        let mut b = pool.check_out();
        assert!(poll_once(&mut b, &waker).is_pending());
        held.check_in_dirty();
        assert_eq!(woken(), 1);
        assert!(pool.flush_one_dirty());
        assert_eq!(woken(), 1);

        // A waiter that leaves the queue hands the signal on: by resolving
        // (nothing is left to take, so nobody is woken) and by being
        // cancelled.
        let mut c = pool.check_out();
        assert!(poll_once(&mut c, &waker).is_pending());
        let Poll::Ready(held) = poll_once(&mut b, &waker) else {
            panic!("b is at the front");
        };
        assert_eq!(woken(), 0);
        let mut e = pool.check_out();
        assert!(poll_once(&mut e, &waker).is_pending());
        drop(held);
        assert_eq!(woken(), 1);
        drop(c);
        assert_eq!(woken(), 1, "the cancelled front waiter wakes the next");
        assert!(poll_once(&mut e, &waker).is_ready());
    }
}
