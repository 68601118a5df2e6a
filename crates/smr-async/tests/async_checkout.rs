//! Integration coverage for the async checkout path on the real executor:
//! heavy oversubscription with exact drop accounting, and cancellation of
//! a checkout future mid-await without leaking pool capacity.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::task::{Context, Poll};

use smr_async::{scope, yield_now, TaskGuard};
use smr_baselines::Ebr;
use smr_core::{HandlePool, Sharded, Smr, SmrConfig, SmrHandle};
use smr_testkit::drop_tracker::{DropRegistry, Tracked};

fn config() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 2,
        max_threads: 4,
        ..SmrConfig::default()
    }
}

/// 64 tasks funnel through a 2-slot pool on a registry-capped scheme; every
/// allocation must be balanced by a drop once the domain goes away. The
/// same fleet runs over a 2-shard `Sharded` domain, each task pinning its
/// nodes to a shard by key, so pooled task guards also drive both shards.
#[test]
fn sixty_four_tasks_over_two_slots_balance_exactly() {
    balance_exactly::<Ebr<Tracked<u64>>>(config());
    balance_exactly::<Sharded<Ebr<Tracked<u64>>>>(SmrConfig {
        shards: 2,
        ..config()
    });
}

fn balance_exactly<S: Smr<Tracked<u64>>>(config: SmrConfig) {
    const TASKS: u64 = 64;
    const OPS_PER_TASK: u64 = 4;
    let registry = DropRegistry::new();
    {
        let domain = S::with_config(config);
        let pool = HandlePool::new(&domain, 2);
        scope(2, |sp| {
            for task in 0..TASKS {
                let pool = &pool;
                let registry = &registry;
                sp.spawn(async move {
                    for op in 0..OPS_PER_TASK {
                        let key = task * OPS_PER_TASK + op;
                        let mut guard = TaskGuard::acquire(pool).await;
                        guard.enter();
                        guard.pin_shard(key);
                        let node = guard.alloc(registry.track(key));
                        // SAFETY: freshly allocated and never published, so
                        // no other task can hold a reference.
                        unsafe { guard.retire(node) };
                        guard.leave();
                        drop(guard);
                        yield_now().await;
                    }
                });
            }
        });
        assert_eq!(pool.checked_out(), 0, "every guard returned its handle");
        assert!(pool.issued() <= 2, "pool cap exceeded: {}", pool.issued());
        assert_eq!(registry.created(), TASKS * OPS_PER_TASK);
    }
    registry.assert_quiescent();
    assert!(!registry.double_drop_detected());
}

/// Polls the wrapped future at most `polls` times with the task's real
/// waker, then resolves to `None`, dropping it — an in-executor stand-in
/// for cancellation (e.g. a timeout racing a checkout).
struct PollLimited<F> {
    fut: Option<F>,
    polls: usize,
}

impl<F: Future + Unpin> Future for PollLimited<F> {
    type Output = Option<F::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let fut = this.fut.as_mut().expect("polled after completion");
        match Pin::new(fut).poll(cx) {
            Poll::Ready(v) => Poll::Ready(Some(v)),
            Poll::Pending if this.polls <= 1 => {
                this.fut = None; // cancel: drop the future mid-await
                Poll::Ready(None)
            }
            Poll::Pending => {
                this.polls -= 1;
                Poll::Pending
            }
        }
    }
}

/// A checkout future dropped mid-await must deregister its waiter and pass
/// the availability baton on: the handle the cancelled task was queued for
/// goes to the next awaiting task, and no capacity is leaked.
#[test]
fn cancelled_checkout_releases_its_slot_to_the_next_waiter() {
    let domain: Ebr<u64> = Ebr::with_config(config());
    let pool = HandlePool::new(&domain, 1);
    let holder_has_handle = AtomicBool::new(false);
    let cancelled = AtomicBool::new(false);
    let successor_done = AtomicBool::new(false);

    scope(1, |sp| {
        let pool = &pool;
        let holder_has_handle = &holder_has_handle;
        let cancelled = &cancelled;
        let successor_done = &successor_done;

        // Holds the single handle until the cancellation has happened, so
        // the other two tasks genuinely queue behind it.
        sp.spawn(async move {
            let guard = TaskGuard::acquire(pool).await;
            holder_has_handle.store(true, Ordering::SeqCst);
            while !cancelled.load(Ordering::SeqCst) {
                yield_now().await;
            }
            drop(guard);
        });

        // Queues for the handle, then abandons the wait after one poll.
        sp.spawn(async move {
            while !holder_has_handle.load(Ordering::SeqCst) {
                yield_now().await;
            }
            let outcome = PollLimited {
                fut: Some(pool.check_out()),
                polls: 1,
            }
            .await;
            assert!(outcome.is_none(), "pool is exhausted; checkout must pend");
            cancelled.store(true, Ordering::SeqCst);
        });

        // Queues behind the cancelled waiter; the baton must reach it.
        sp.spawn(async move {
            while !holder_has_handle.load(Ordering::SeqCst) {
                yield_now().await;
            }
            let mut guard = TaskGuard::acquire(pool).await;
            guard.enter();
            guard.leave();
            successor_done.store(true, Ordering::SeqCst);
        });
    });

    assert!(successor_done.load(Ordering::SeqCst), "successor starved");
    assert_eq!(pool.checked_out(), 0, "cancellation leaked pool capacity");
    assert_eq!(pool.issued(), 1, "cancellation must not mint extra handles");
}
