//! A dependency-free scoped multi-worker executor.
//!
//! The workspace builds offline, so instead of tokio this module provides
//! the minimal executor the SMR service layer needs: a fixed pool of worker
//! threads, each polling tasks from its own run queue. There is no I/O
//! reactor and no timer wheel — every wakeup comes from another task (or
//! from a domain-side waker such as [`smr_core::HandlePool::check_out`]),
//! which is exactly the shape of an SMR service workload.
//!
//! Two properties matter for the service layer and drive the design:
//!
//! * **Borrowed tasks.** Service tasks borrow the reclamation domain, the
//!   [`smr_core::HandlePool`], and the data structure from the caller's
//!   stack frame; requiring `'static` futures would force `Arc`-wrapping
//!   every domain. [`scope`] therefore mirrors [`std::thread::scope`]: all
//!   tasks are guaranteed to have run to completion (and their futures
//!   dropped) before `scope` returns, so futures may borrow anything that
//!   outlives the call.
//! * **No blocking primitives in task context.** Workers park on a
//!   [`Condvar`] when no queue holds a task; tasks themselves must never
//!   call `thread::sleep`/`thread::park` (the crate forbids clippy's
//!   `disallowed_methods`) — they
//!   yield with [`yield_now`] or await a waker-backed primitive instead.
//!
//! Worker threads are OS threads, so `scope(workers, ..)` with `workers >=
//! 1` makes progress even on a single-core host; tens of thousands of
//! cooperative tasks multiplex over that fixed worker set.
//!
//! Every thread of a scope — each worker, and the owner while it helps —
//! has its own run queue. A task woken while it is being polled (what
//! [`yield_now`] does to itself) goes to the back of its poller's queue:
//! a yield is one uncontended lock and touches no other core's lines.
//! [`Spawner::spawn`] places tasks round-robin on the workers' queues, so
//! a fleet starts balanced. A wake from outside a poll — a
//! [`smr_core::HandlePool`] waiter, a [`oneshot`](crate::sync::oneshot),
//! a [`DrainQueue`](crate::DrainQueue) consumer — goes to the shared
//! injector instead. A thread looking for work takes from the injector
//! first whenever its lock-free length word says it is non-empty, then
//! from its own queue, then steals the oldest task of another thread's
//! queue, and only then sleeps.
//!
//! A loaded executor stays out of the kernel. The injector counts the
//! threads asleep on its condvar (under the mutex the wait releases, so
//! exactly) and a spawn or foreign wake notifies only when one of them has
//! no wake-up on its way yet: `Condvar::notify_one` with nobody to wake is
//! still a `futex_wake` system call, and with a few hundred runnable tasks
//! nobody ever sleeps. A spawn places its task under the injector mutex
//! (lock order injector → run queue), and a thread's last look at every
//! queue before it sleeps holds that mutex too, so a spawn never lands
//! unseen behind a sleeping worker. A yield needs no such care: its
//! poller is awake.
//!
//! Measured with the benchmark's probes (`run --trace 1`, 2 hardware
//! threads of a shared Xeon 2.10 GHz container host), against the single
//! shared FIFO this replaced: `executor.yield_ns` 57–84 (was 266–360) and
//! `trace.kv-service.yield_resume_ns` 207–242 (was 323–431). On about
//! every other request the FIFO's next task, its future and the
//! injector's lines had last been touched by the other core.

use std::collections::VecDeque;
use std::future::Future;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Foreign wakes and who is asleep waiting for work, under one mutex.
#[derive(Default)]
struct Injector {
    /// FIFO of tasks woken from outside their own poll.
    queue: VecDeque<Arc<Task>>,
    /// Threads inside a wait on [`Shared::available`]. Changed only under
    /// this mutex, which the wait releases, so it is exact.
    sleepers: usize,
    /// Sleepers notified but not yet awake: a push notifies only if some
    /// sleeper has no wake-up on its way, or a burst of spawns would make
    /// a `futex_wake` each.
    waking: usize,
    /// The worker whose queue the next spawn lands in.
    next: usize,
    /// `notify_one` calls made by spawns and foreign wakes, for the tests
    /// that show a busy executor makes none.
    #[cfg(test)]
    notifies: u64,
    /// Waits on [`Shared::available`] that have ended.
    #[cfg(test)]
    sleeps: u64,
}

/// One thread's run queue, on cache lines of its own.
#[derive(Default)]
#[repr(align(128))]
struct RunQueue {
    tasks: Mutex<VecDeque<Arc<Task>>>,
    /// Tasks polled by this queue's thread, for the balance tests.
    #[cfg(test)]
    polls: std::sync::atomic::AtomicU64,
}

impl RunQueue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Arc<Task>>> {
        self.tasks.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// State shared between the scope owner, the workers, and every task waker.
struct Shared {
    injector: Mutex<Injector>,
    /// `injector.queue.len()`, written under its mutex and read without it.
    injected: AtomicUsize,
    /// One per worker, then the owner's.
    queues: Box<[RunQueue]>,
    /// Signalled when a task is placed while somebody sleeps, when the
    /// scope quiesces, and when shutdown begins.
    available: Condvar,
    /// Tasks spawned but not yet run to completion.
    live: AtomicUsize,
    /// Set once the scope has quiesced; workers exit when they see it.
    shutdown: AtomicBool,
    /// First panic payload captured from a task, re-raised at scope exit.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Shared {
    fn new(workers: usize) -> Self {
        Shared {
            injector: Mutex::default(),
            injected: AtomicUsize::new(0),
            queues: (0..=workers).map(|_| RunQueue::default()).collect(),
            available: Condvar::new(),
            live: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    fn lock_injector(&self) -> MutexGuard<'_, Injector> {
        // Poisoning only happens if a worker panicked outside catch_unwind;
        // the queue itself is always in a consistent state.
        self.injector.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Places a spawned task (`spawned`) on the next worker's queue, or a
    /// woken one in the injector. With every thread busy — the steady
    /// state of a loaded service — that is no system call: a sleeper is
    /// notified only if one is owed a wake-up, after the lock is released.
    fn push(&self, task: Arc<Task>, spawned: bool) {
        let mut injector = self.lock_injector();
        if spawned {
            let worker = injector.next;
            injector.next = (worker + 1) % (self.queues.len() - 1);
            self.queues[worker].lock().push_back(task);
        } else {
            injector.queue.push_back(task);
            self.injected.store(injector.queue.len(), Ordering::Relaxed);
        }
        let asleep = injector.sleepers > injector.waking;
        injector.waking += usize::from(asleep);
        #[cfg(test)]
        {
            injector.notifies += u64::from(asleep);
        }
        drop(injector);
        if asleep {
            self.available.notify_one();
        }
    }

    /// The next task for thread `me`, sleeping while there is none and
    /// `done` does not hold; `None` once `done` does. `requeue` — the task
    /// this thread just polled, if it was woken meanwhile — goes to the
    /// back of `me`'s queue in the lock section that pops the next task.
    /// (Nobody is notified for it: one task in, one task out.)
    fn next_task(
        &self,
        me: usize,
        requeue: Option<Arc<Task>>,
        done: impl Fn() -> bool,
    ) -> Option<Arc<Task>> {
        // ORDERING: a stale zero only lets a queued task go first; the
        // injector itself is read under its mutex.
        let injected = || self.injected.load(Ordering::Relaxed) != 0;
        {
            let mut own = self.queues[me].lock();
            own.extend(requeue);
            if !injected() {
                if let Some(task) = own.pop_front() {
                    return Some(task);
                }
            }
        }
        // Own queue first, then the others from the next one on.
        let n = self.queues.len();
        let steal = || (0..n).find_map(|i| self.queues[(me + i) % n].lock().pop_front());
        if !injected() {
            if let Some(task) = steal() {
                return Some(task);
            }
        }
        let mut injector = self.lock_injector();
        loop {
            if let Some(task) = injector.queue.pop_front() {
                #[cfg(test)]
                tests::TAKEN_AT.set(
                    self.queues
                        .iter()
                        .map(|q| q.polls.load(Ordering::Relaxed))
                        .collect(),
                );
                self.injected.store(injector.queue.len(), Ordering::Relaxed);
                return Some(task);
            }
            // The last look before sleeping holds the injector mutex, which
            // every spawn holds while it places its task.
            if let Some(task) = steal() {
                return Some(task);
            }
            if done() {
                return None;
            }
            injector.sleepers += 1;
            injector = self
                .available
                .wait(injector)
                .unwrap_or_else(|e| e.into_inner());
            injector.sleepers -= 1;
            // Saturating: a `notify_all` or a spurious wake-up wakes a
            // sleeper that was owed nothing.
            injector.waking = injector.waking.saturating_sub(1);
            #[cfg(test)]
            {
                injector.sleeps += 1;
            }
        }
    }

    /// Polls tasks as thread `me` until every queue is empty and `done`
    /// holds.
    fn run_until(&self, me: usize, done: impl Fn() -> bool) {
        let mut requeue = None;
        while let Some(task) = self.next_task(me, requeue.take(), &done) {
            #[cfg(test)]
            {
                self.queues[me].polls.fetch_add(1, Ordering::Relaxed);
                tests::HOME.set(me);
            }
            requeue = run_task(task);
            #[cfg(test)]
            tests::TAKEN_AT.take();
        }
    }

    /// Marks one task complete; wakes everyone when the scope quiesces so
    /// the owner thread can observe `live == 0`.
    fn task_done(&self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock_injector();
            self.available.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(payload);
    }
}

/// The task is neither queued nor being polled; a wake queues it.
const IDLE: u8 = 0;
/// The task sits in a run queue or the injector; further wakes change
/// nothing.
const QUEUED: u8 = 1;
/// A thread is polling the task.
const RUNNING: u8 = 2;
/// Woken while being polled: its poller re-queues it after the poll.
const WOKEN: u8 = 3;

/// One spawned task: the future plus its scheduling state.
struct Task {
    /// `None` once the future has completed (or panicked).
    future: Mutex<Option<BoxFuture>>,
    /// [`IDLE`], [`QUEUED`], [`RUNNING`] or [`WOKEN`]: concurrent wakes
    /// enqueue the task exactly once, and never while it is being polled —
    /// a second thread would only block on `future` — so a finished task,
    /// which stays `RUNNING`, is never queued again either.
    state: AtomicU8,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    /// Clones the task only when the wake queues it: a yield, which finds
    /// it `RUNNING`, touches no reference count.
    fn wake_by_ref(self: &Arc<Self>) {
        // ORDERING: the `state` transitions order a waker's writes before
        // the poll they announce: every transition out of a poll is a
        // release, every one into or towards a poll an acquire.
        let woken =
            self.state
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |state| match state {
                    IDLE => Some(QUEUED),
                    RUNNING => Some(WOKEN),
                    _ => None,
                });
        if woken == Ok(IDLE) {
            self.shared.push(Arc::clone(self), false);
        }
    }
}

/// Polls one task, catching panics so a failing task cannot take its thread
/// (and the whole scope) down with it. Returns the task if it was woken
/// during the poll (`yield_now` does that itself) and has to go back into
/// its poller's queue.
fn run_task(task: Arc<Task>) -> Option<Arc<Task>> {
    task.state.store(RUNNING, Ordering::Release);
    let waker = Waker::from(task.clone());
    let mut cx = Context::from_waker(&waker);
    let mut slot = task.future.lock().unwrap_or_else(|e| e.into_inner());
    let future = slot.as_mut().expect("a finished task is never queued");
    match catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx))) {
        Ok(Poll::Pending) => {
            drop(slot);
            // A wake that landed mid-poll must re-queue the task or its
            // readiness would be lost; one that lands after this finds it
            // idle and queues it itself.
            let idle =
                task.state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire);
            if idle.is_err() {
                task.state.store(QUEUED, Ordering::Release);
                return Some(task);
            }
        }
        Ok(Poll::Ready(())) => {
            *slot = None;
            drop(slot);
            task.shared.task_done();
        }
        Err(payload) => {
            *slot = None;
            drop(slot);
            task.shared.record_panic(payload);
            task.shared.task_done();
        }
    }
    None
}

/// Worker thread body: pop-and-poll until shutdown with empty queues.
fn worker_loop(shared: &Shared, me: usize) {
    shared.run_until(me, || shared.shutdown.load(Ordering::Acquire));
}

/// The scope owner helps run tasks, on the last queue, until every spawned
/// task has completed.
fn help_until_quiescent(shared: &Shared) {
    shared.run_until(shared.queues.len() - 1, || {
        shared.live.load(Ordering::Acquire) == 0
    });
}

/// Spawns borrowed futures into the surrounding [`scope`].
///
/// The two lifetimes mirror [`std::thread::Scope`]: `'scope` is the period
/// the spawner itself is usable, `'env` is the environment tasks may
/// borrow. The `PhantomData` makes `'scope` invariant so a spawner cannot
/// be smuggled out of its scope.
pub struct Spawner<'scope, 'env> {
    shared: &'scope Arc<Shared>,
    _marker: PhantomData<&'scope mut &'env ()>,
}

impl std::fmt::Debug for Spawner<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spawner")
            .field("live", &self.shared.live.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'scope, 'env> Spawner<'scope, 'env> {
    /// Spawns a task. The future may borrow anything that outlives the
    /// enclosing [`scope`] call; it runs to completion before `scope`
    /// returns.
    ///
    /// A panicking task does not abort its siblings — the first payload is
    /// re-raised from `scope` after the remaining tasks finish.
    pub fn spawn<F>(&self, future: F)
    where
        F: Future<Output = ()> + Send + 'env,
    {
        let boxed: Pin<Box<dyn Future<Output = ()> + Send + 'env>> = Box::pin(future);
        // SAFETY: the future only borrows data outliving 'env, and `scope`
        // does not return until `live == 0` — i.e. until this future has
        // been polled to completion (or panicked) and dropped. The only
        // thing that can outlive the scope is the task shell with its
        // future slot already `None` (held alive by a stale waker parked
        // in some external waker registry), which never touches 'env data.
        // This is the same join-before-return argument std::thread::scope
        // makes for its borrowed closures.
        let boxed: BoxFuture = unsafe { std::mem::transmute(boxed) };
        let task = Arc::new(Task {
            future: Mutex::new(Some(boxed)),
            state: AtomicU8::new(QUEUED),
            shared: self.shared.clone(),
        });
        self.shared.live.fetch_add(1, Ordering::AcqRel);
        self.shared.push(task, true);
    }

    /// Number of spawned tasks that have not yet run to completion.
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }
}

/// Runs `f` with a [`Spawner`], then drives every spawned task to
/// completion on `workers` worker threads (the calling thread helps too)
/// before returning `f`'s result.
///
/// Tasks may borrow any data that outlives the `scope` call itself — the
/// reclamation domain, a [`smr_core::HandlePool`], a shared map — exactly
/// like closures under [`std::thread::scope`]. Tasks cannot spawn further
/// tasks (the spawner is scoped to `f`); spawn the whole fleet up front.
///
/// If `f` or any task panics, the scope still drains to quiescence (so no
/// borrowed future outlives its data) and then re-raises the first panic.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let hits = AtomicUsize::new(0);
/// smr_async::scope(2, |sp| {
///     for _ in 0..1000 {
///         sp.spawn(async {
///             smr_async::yield_now().await;
///             hits.fetch_add(1, Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 1000);
/// ```
pub fn scope<'env, T, F>(workers: usize, f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Spawner<'scope, 'env>) -> T,
{
    assert!(workers >= 1, "executor scope needs at least one worker");
    let shared = Arc::new(Shared::new(workers));
    let spawner = Spawner {
        shared: &shared,
        _marker: PhantomData,
    };
    let result = std::thread::scope(|s| {
        for me in 0..workers {
            let shared = Arc::clone(&shared);
            s.spawn(move || worker_loop(&shared, me));
        }
        let result = catch_unwind(AssertUnwindSafe(|| f(&spawner)));
        // Quiescence before returning is what makes the 'env transmute in
        // `spawn` sound — even when `f` itself panicked.
        help_until_quiescent(&shared);
        shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = shared.lock_injector();
            shared.available.notify_all();
        }
        result
        // std::thread::scope joins the workers here.
    });
    let value = match result {
        Ok(value) => value,
        Err(payload) => resume_unwind(payload),
    };
    let task_panic = shared
        .panic
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    if let Some(payload) = task_panic {
        resume_unwind(payload);
    }
    value
}

/// Runs a future to completion on the calling thread, parking on a condvar
/// between polls.
///
/// Usable from inside a [`scope`] closure (the workers keep other tasks
/// moving while this thread sleeps) or standalone in tests.
pub fn block_on<F: Future>(future: F) -> F::Output {
    struct Park {
        woken: Mutex<bool>,
        cv: Condvar,
    }
    impl Wake for Park {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            *self.woken.lock().unwrap_or_else(|e| e.into_inner()) = true;
            self.cv.notify_one();
        }
    }

    let park = Arc::new(Park {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(park.clone());
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => {
                let mut woken = park.woken.lock().unwrap_or_else(|e| e.into_inner());
                while !*woken {
                    woken = park.cv.wait(woken).unwrap_or_else(|e| e.into_inner());
                }
                *woken = false;
            }
        }
    }
}

/// Future returned by [`yield_now`].
#[derive(Debug, Default)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Cooperatively yields to other tasks: returns `Pending` once, re-queuing
/// the task at the back of its thread's run queue.
///
/// This is the service layer's substitute for `thread::sleep`-style
/// backoff — reclaimers and long-running connections yield between bursts
/// so ten thousand tasks share a handful of workers fairly.
pub fn yield_now() -> YieldNow {
    YieldNow::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    thread_local! {
        /// The run queue of the thread polling the current task.
        pub(super) static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
        /// Every thread's poll count when this thread last took a task
        /// from the injector.
        pub(super) static TAKEN_AT: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
    }

    #[test]
    fn scope_runs_tens_of_thousands_of_tasks() {
        let sum = AtomicU64::new(0);
        scope(4, |sp| {
            for i in 0..20_000u64 {
                let sum = &sum;
                sp.spawn(async move {
                    yield_now().await;
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 19_999 * 20_000 / 2);
    }

    #[test]
    fn tasks_borrow_the_callers_stack() {
        let mut counter = 0u64;
        {
            let cell = AtomicU64::new(0);
            scope(2, |sp| {
                for _ in 0..64 {
                    sp.spawn(async {
                        cell.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            counter += cell.load(Ordering::Relaxed);
        }
        assert_eq!(counter, 64);
    }

    #[test]
    fn block_on_drives_cross_task_wakeups() {
        let (tx, rx) = crate::sync::oneshot();
        let got = scope(2, |sp| {
            sp.spawn(async move {
                yield_now().await;
                tx.send(42u64);
            });
            block_on(rx)
        });
        assert_eq!(got, Some(42));
    }

    #[test]
    fn task_panic_is_reraised_after_quiescence() {
        let finished = AtomicU64::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scope(2, |sp| {
                sp.spawn(async {
                    panic!("task boom");
                });
                for _ in 0..32 {
                    let finished = &finished;
                    sp.spawn(async move {
                        yield_now().await;
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(outcome.is_err(), "panic must propagate out of scope");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            32,
            "sibling tasks still ran to completion"
        );
    }

    #[test]
    fn yield_now_interleaves_tasks() {
        // Two tasks ping-ponging a counter: with a single worker the only
        // way both finish is if yield_now really re-queues.
        let turns = AtomicU64::new(0);
        scope(1, |sp| {
            for _ in 0..2 {
                let turns = &turns;
                sp.spawn(async move {
                    for _ in 0..100 {
                        turns.fetch_add(1, Ordering::Relaxed);
                        yield_now().await;
                    }
                });
            }
        });
        assert_eq!(turns.load(Ordering::Relaxed), 200);
    }

    impl Shared {
        fn notifies(&self) -> u64 {
            self.lock_injector().notifies
        }

        fn sleepers(&self) -> usize {
            self.lock_injector().sleepers
        }
    }

    #[test]
    fn busy_executor_makes_no_notification() {
        // 256 tasks on 2 workers (plus the helping owner): the injector is
        // never empty, nobody sleeps, and 25,600 yields make no system
        // call. Start-up and wind-down are kept out of the window: a task
        // starts counting once every task runs and every thread is awake,
        // and stays runnable until every task has stopped counting.
        const TASKS: usize = 256;
        let started = AtomicUsize::new(0);
        let counted = AtomicUsize::new(0);
        let notified = AtomicU64::new(0);
        scope(2, |sp| {
            for _ in 0..TASKS {
                let (started, counted, notified) = (&started, &counted, &notified);
                let shared = Arc::clone(sp.shared);
                sp.spawn(async move {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < TASKS || shared.sleepers() != 0 {
                        yield_now().await;
                    }
                    let before = shared.notifies();
                    for _ in 0..100 {
                        yield_now().await;
                    }
                    notified.fetch_add(shared.notifies() - before, Ordering::SeqCst);
                    counted.fetch_add(1, Ordering::SeqCst);
                    while counted.load(Ordering::SeqCst) < TASKS {
                        yield_now().await;
                    }
                });
            }
        });
        assert_eq!(notified.load(Ordering::SeqCst), 0);
    }

    impl Shared {
        /// Tasks polled so far by thread `queue`.
        fn polls(&self, queue: usize) -> u64 {
            self.queues[queue].polls.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn sleeping_worker_is_woken_by_a_push() {
        let ran = AtomicBool::new(false);
        let (tx, rx) = crate::sync::oneshot::<()>();
        let woken = AtomicBool::new(false);
        scope(2, |sp| {
            let both_asleep = || {
                while sp.shared.sleepers() < 2 {
                    std::thread::yield_now();
                }
            };
            // A spawn into a sleeping worker's queue.
            both_asleep();
            let before = sp.shared.notifies();
            sp.spawn(async {
                ran.store(true, Ordering::SeqCst);
                rx.await;
                woken.store(true, Ordering::SeqCst);
            });
            assert_eq!(
                sp.shared.notifies(),
                before + 1,
                "one spawn, one sleeper woken"
            );
            // A foreign wake of a task parked on a oneshot.
            while !ran.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            both_asleep();
            let before = sp.shared.notifies();
            tx.send(());
            assert_eq!(
                sp.shared.notifies(),
                before + 1,
                "one wake, one sleeper woken"
            );
        });
        assert!(woken.load(Ordering::SeqCst));
    }

    #[test]
    fn spawn_burst_notifies_each_sleep_at_most_once() {
        // Spawns into sleeping workers, faster than a woken worker retakes
        // the injector mutex: a sleeper that is already owed a wake-up is
        // not notified again, so there are no more notifications than
        // sleeps. (Counting every sleeper instead makes about one per
        // spawn, against a fifth as many sleeps.)
        let (notifies, sleeps) = scope(2, |sp| {
            while sp.shared.sleepers() < 2 {
                std::thread::yield_now();
            }
            for _ in 0..10_000 {
                sp.spawn(async {});
            }
            let injector = sp.shared.lock_injector();
            (injector.notifies, injector.sleeps)
        });
        assert!(notifies > 0);
        assert!(
            notifies <= sleeps + 2,
            "{notifies} notifications, {sleeps} sleeps"
        );
    }

    #[test]
    fn spawn_racing_sleep_never_hangs() {
        // Each task is spawned just as both workers run out of work and
        // head to sleep; a spawn that lands unseen behind a sleeper would
        // leave it queued until the owner gives up and helps.
        let ran = AtomicUsize::new(0);
        scope(2, |sp| {
            for round in 1..=10_000 {
                sp.spawn(async {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                let deadline = Instant::now() + Duration::from_secs(10);
                while ran.load(Ordering::SeqCst) < round {
                    assert!(Instant::now() < deadline, "spawn {round} was never run");
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 10_000);
    }

    #[test]
    fn spawns_are_balanced() {
        // 256 yielding tasks on 2 workers while the owner waits outside
        // the executor: round-robin placement gives each worker half the
        // fleet, so each polls about half of the window's tasks and every
        // task yields about as often as any other. A window is
        // time-bound, so a worker descheduled by the OS (tests run
        // concurrently) skews it; a placement that piles tasks onto one
        // worker skews every window, so one balanced window in three
        // passes.
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            match balance_window() {
                Ok(()) => return,
                Err(why) => outcomes.push(why),
            }
        }
        panic!("no balanced window: {outcomes:?}");
    }

    /// One measurement window of [`spawns_are_balanced`].
    fn balance_window() -> Result<(), String> {
        const TASKS: usize = 256;
        const WINDOW: usize = 10_000;
        const WARM: u8 = 0;
        const MEASURE: u8 = 1;
        const STOP: u8 = 2;
        let phase = AtomicU8::new(WARM);
        let started = AtomicUsize::new(0);
        let windows = Mutex::new(Vec::new());
        let polls = Mutex::new([[0u64; 2]; 2]);
        let (tx, rx) = crate::sync::oneshot::<()>();
        let tx = Mutex::new(Some(tx));
        scope(2, |sp| {
            for _ in 0..TASKS {
                let (phase, started, windows, polls, tx) =
                    (&phase, &started, &windows, &polls, &tx);
                let shared = Arc::clone(sp.shared);
                let snapshot = move |at: usize| {
                    polls.lock().unwrap()[at] = [shared.polls(0), shared.polls(1)];
                };
                sp.spawn(async move {
                    if started.fetch_add(1, Ordering::SeqCst) + 1 == TASKS {
                        snapshot(0);
                        phase.store(MEASURE, Ordering::SeqCst);
                    }
                    // The window closes when the first task has yielded
                    // `WINDOW` times in it.
                    let mut window = None;
                    loop {
                        yield_now().await;
                        match phase.load(Ordering::SeqCst) {
                            WARM => {}
                            MEASURE => {
                                let yields: &mut usize = window.get_or_insert(0);
                                *yields += 1;
                                if *yields == WINDOW {
                                    if let Some(tx) = tx.lock().unwrap().take() {
                                        snapshot(1);
                                        phase.store(STOP, Ordering::SeqCst);
                                        tx.send(());
                                    }
                                }
                            }
                            _ => {
                                windows.lock().unwrap().push(window.unwrap_or(0));
                                break;
                            }
                        }
                    }
                });
            }
            block_on(rx);
        });
        let slowest = windows.into_inner().unwrap().into_iter().min().unwrap();
        if WINDOW * 2 > slowest * 3 {
            return Err(format!(
                "a task yielded {WINDOW} times while another yielded {slowest}"
            ));
        }
        let [before, after] = polls.into_inner().unwrap();
        let (first, second) = (after[0] - before[0], after[1] - before[1]);
        let share = first as f64 / (first + second) as f64;
        if !(0.4..=0.6).contains(&share) {
            return Err(format!("worker 0 polled {first} tasks, worker 1 {second}"));
        }
        Ok(())
    }

    #[test]
    fn yield_stays_on_its_worker() {
        // With every thread busy no queue runs dry, nothing is stolen, and
        // a yielding task is resumed by the thread that polled it.
        const TASKS: usize = 256;
        let started = AtomicUsize::new(0);
        let counted = AtomicUsize::new(0);
        let moved = AtomicUsize::new(0);
        scope(2, |sp| {
            for _ in 0..TASKS {
                let (started, counted, moved) = (&started, &counted, &moved);
                let shared = Arc::clone(sp.shared);
                sp.spawn(async move {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < TASKS || shared.sleepers() != 0 {
                        yield_now().await;
                    }
                    let home = std::thread::current().id();
                    for _ in 0..100 {
                        yield_now().await;
                        if std::thread::current().id() != home {
                            moved.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    counted.fetch_add(1, Ordering::SeqCst);
                    while counted.load(Ordering::SeqCst) < TASKS {
                        yield_now().await;
                    }
                });
            }
        });
        assert_eq!(moved.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn idle_worker_steals() {
        // A spins on worker 0 until B, queued behind it on the same
        // worker, has run: only the other worker, idle once its own
        // trivial task is done, can take B. The owner waits outside the
        // executor, so it cannot.
        let flag = AtomicBool::new(false);
        let (tx, rx) = crate::sync::oneshot::<()>();
        scope(2, |sp| {
            sp.spawn(async {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !flag.load(Ordering::SeqCst) {
                    assert!(
                        Instant::now() < deadline,
                        "the task behind a spinner was not stolen"
                    );
                    std::hint::spin_loop();
                }
                tx.send(());
            });
            sp.spawn(async {});
            sp.spawn(async {
                flag.store(true, Ordering::SeqCst);
            });
            block_on(rx);
        });
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn foreign_wake_is_not_starved() {
        // Eight senders wake one receiver each through a oneshot while 256
        // tasks yield. The injector goes first, so the receiver is taken
        // before the waking worker has polled 4 further tasks.
        const TASKS: usize = 256;
        const PAIRS: usize = 8;
        let started = AtomicUsize::new(0);
        let received = AtomicUsize::new(0);
        let worst = AtomicU64::new(0);
        let woken = AtomicUsize::new(0);
        scope(2, |sp| {
            for pair in 0..PAIRS {
                let (tx, rx) = crate::sync::oneshot::<(usize, u64)>();
                let (started, received, worst, woken) = (&started, &received, &worst, &woken);
                let shared = Arc::clone(sp.shared);
                sp.spawn(async move {
                    while started.load(Ordering::SeqCst) < TASKS {
                        yield_now().await;
                    }
                    for _ in 0..pair * 10 {
                        yield_now().await;
                    }
                    let home = HOME.get();
                    tx.send((home, shared.polls(home)));
                });
                sp.spawn(async move {
                    let (home, at_send) = rx.await.expect("sender dropped");
                    // Counted when this task was taken, not when its poll
                    // began: the taker may be preempted in between.
                    // A send racing this task's first poll is no foreign
                    // wake: then it was not taken from the injector.
                    if let Some(taken_at) = TAKEN_AT.take().get(home) {
                        worst.fetch_max(taken_at - at_send, Ordering::SeqCst);
                        woken.fetch_add(1, Ordering::SeqCst);
                    }
                    received.fetch_add(1, Ordering::SeqCst);
                });
            }
            for _ in 0..TASKS {
                let (started, received) = (&started, &received);
                sp.spawn(async move {
                    started.fetch_add(1, Ordering::SeqCst);
                    while received.load(Ordering::SeqCst) < PAIRS {
                        yield_now().await;
                    }
                });
            }
        });
        assert!(woken.load(Ordering::SeqCst) > 0);
        let worst = worst.load(Ordering::SeqCst);
        assert!(worst < 4, "the waking worker polled {worst} tasks first");
    }

    #[test]
    fn one_handle_pool_fleet_balances_exactly() {
        // 64 tasks contend for a single pooled handle, holding it across a
        // yield so the rest wait and are woken through the injector. They
        // start together: a thread with one task in its queue would run it
        // to the end before taking the next.
        use crate::TaskGuard;
        use smr_core::{HandlePool, Smr, SmrHandle};
        use smr_testkit::drop_tracker::{DropRegistry, Tracked};
        const TASKS: u64 = 64;
        const OPS: u64 = 4;
        let registry = DropRegistry::new();
        let started = AtomicU64::new(0);
        {
            let domain: hyaline::Hyaline<Tracked<u64>> = hyaline::Hyaline::new();
            let pool = HandlePool::new(&domain, 1);
            scope(2, |sp| {
                for task in 0..TASKS {
                    let (pool, registry, started) = (&pool, &registry, &started);
                    sp.spawn(async move {
                        started.fetch_add(1, Ordering::SeqCst);
                        while started.load(Ordering::SeqCst) < TASKS {
                            yield_now().await;
                        }
                        for op in 0..OPS {
                            let mut guard = TaskGuard::acquire(pool).await;
                            guard.enter();
                            let node = guard.alloc(registry.track(task * OPS + op));
                            // SAFETY: freshly allocated and never published.
                            unsafe { guard.retire(node) };
                            guard.leave();
                            yield_now().await;
                            drop(guard);
                        }
                    });
                }
            });
            assert_eq!(pool.checked_out(), 0);
            assert_eq!(pool.issued(), 1);
            assert!(pool.slow_path().wakes > 0, "no task ever waited");
            assert_eq!(registry.created(), TASKS * OPS);
        }
        registry.assert_quiescent();
        assert!(!registry.double_drop_detected());
    }
}
