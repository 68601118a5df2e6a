//! A dependency-free scoped multi-worker executor.
//!
//! The workspace builds offline, so instead of tokio this module provides
//! the minimal executor the SMR service layer needs: a fixed pool of worker
//! threads polling tasks from one shared injector queue. There is no I/O
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
//!   [`Condvar`] when the injector is empty; tasks themselves must never
//!   call `thread::sleep`/`thread::park` (enforced by `smr-lint`) — they
//!   yield with [`yield_now`] or await a waker-backed primitive instead.
//!
//! Worker threads are OS threads, so `scope(workers, ..)` with `workers >=
//! 1` makes progress even on a single-core host; tens of thousands of
//! cooperative tasks multiplex over that fixed worker set.
//!
//! A loaded executor stays out of the kernel and out of its own way. The
//! injector counts the threads asleep on its condvar (under the mutex the
//! wait releases, so exactly) and a push notifies only when there is one:
//! `Condvar::notify_one` with nobody asleep is still a `futex_wake` system
//! call, and with a few hundred runnable tasks nobody ever is. And a task
//! woken while it is being polled — what [`yield_now`] does to itself — is
//! not pushed at once (the worker that popped it would only block on the
//! task's future) but handed back to its worker, which puts it at the back
//! of the queue in the lock section that pops the next task: a yield is
//! one trip through the injector mutex.

use std::collections::VecDeque;
use std::future::Future;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// The run queue and who is asleep waiting for it, under one mutex.
#[derive(Default)]
struct Injector {
    /// FIFO of runnable tasks; tasks are pushed here when spawned or woken.
    queue: VecDeque<Arc<Task>>,
    /// Threads inside a wait on [`Shared::available`]. Changed only under
    /// this mutex, which the wait releases, so it is exact.
    sleepers: usize,
    /// `notify_one` calls made by [`Shared::push`], for the tests that
    /// show a busy executor makes none.
    #[cfg(test)]
    notifies: u64,
}

/// State shared between the scope owner, the workers, and every task waker.
struct Shared {
    injector: Mutex<Injector>,
    /// Signalled when the injector gains a task while somebody sleeps, when
    /// the scope quiesces, and when shutdown begins.
    available: Condvar,
    /// Tasks spawned but not yet run to completion.
    live: AtomicUsize,
    /// Set once the scope has quiesced; workers exit when they see it.
    shutdown: AtomicBool,
    /// First panic payload captured from a task, re-raised at scope exit.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            injector: Mutex::default(),
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

    /// Queues a runnable task. With every worker busy — the steady state
    /// of a loaded service — that is one lock section and no system call:
    /// `notify_one` is a `futex_wake` even when nobody is asleep, so it is
    /// made only for a sleeper, after the lock is released.
    fn push(&self, task: Arc<Task>) {
        let mut injector = self.lock_injector();
        injector.queue.push_back(task);
        let asleep = injector.sleepers > 0;
        #[cfg(test)]
        {
            injector.notifies += u64::from(asleep);
        }
        drop(injector);
        if asleep {
            self.available.notify_one();
        }
    }

    /// Pops the next runnable task, sleeping while the queue is empty and
    /// `done` does not hold; `None` once `done` does. `requeue` — the task
    /// this thread just polled, if it was woken meanwhile — goes to the
    /// back of the queue in the same lock section, so a `yield_now` costs
    /// one trip through the injector, not two. (Nobody is notified for it:
    /// one task in, one task out.)
    fn next_task(&self, requeue: Option<Arc<Task>>, done: impl Fn() -> bool) -> Option<Arc<Task>> {
        let mut injector = self.lock_injector();
        injector.queue.extend(requeue);
        loop {
            if let Some(task) = injector.queue.pop_front() {
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
        }
    }

    /// Polls tasks until the queue is empty and `done` holds.
    fn run_until(&self, done: impl Fn() -> bool) {
        let mut requeue = None;
        while let Some(task) = self.next_task(requeue.take(), &done) {
            requeue = run_task(task);
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
/// The task sits in the injector; further wakes change nothing.
const QUEUED: u8 = 1;
/// A worker is polling the task.
const RUNNING: u8 = 2;
/// Woken while being polled: its worker re-queues it after the poll.
const WOKEN: u8 = 3;

/// One spawned task: the future plus its scheduling state.
struct Task {
    /// `None` once the future has completed (or panicked).
    future: Mutex<Option<BoxFuture>>,
    /// [`IDLE`], [`QUEUED`], [`RUNNING`] or [`WOKEN`]: concurrent wakes
    /// enqueue the task exactly once, and never while it is being polled —
    /// a second worker would only block on `future` — so a finished task,
    /// which stays `RUNNING`, is never queued again either.
    state: AtomicU8,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
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
            let shared = self.shared.clone();
            shared.push(self);
        }
    }
}

/// Polls one task, catching panics so a failing task cannot take its worker
/// thread (and the whole scope) down with it. Returns the task if it was
/// woken during the poll (`yield_now` does that itself) and has to go back
/// into the queue.
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

/// Worker thread body: pop-and-poll until shutdown with an empty queue.
fn worker_loop(shared: &Shared) {
    shared.run_until(|| shared.shutdown.load(Ordering::Acquire));
}

/// The scope owner helps run tasks until every spawned task has completed.
fn help_until_quiescent(shared: &Shared) {
    shared.run_until(|| shared.live.load(Ordering::Acquire) == 0);
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
        self.shared.push(task);
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
    let shared = Arc::new(Shared::new());
    let spawner = Spawner {
        shared: &shared,
        _marker: PhantomData,
    };
    let result = std::thread::scope(|s| {
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            s.spawn(move || worker_loop(&shared));
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
/// the task at the back of the injector.
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
    use std::sync::atomic::AtomicU64;

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

    #[test]
    fn sleeping_worker_is_woken_by_a_push() {
        let ran = AtomicBool::new(false);
        scope(2, |sp| {
            // Both workers go to sleep on the empty injector.
            while sp.shared.sleepers() < 2 {
                std::thread::yield_now();
            }
            let before = sp.shared.notifies();
            sp.spawn(async {
                ran.store(true, Ordering::SeqCst);
            });
            assert_eq!(
                sp.shared.notifies(),
                before + 1,
                "one push, one sleeper woken"
            );
        });
        assert!(ran.load(Ordering::SeqCst));
    }
}
