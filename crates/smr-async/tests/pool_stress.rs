//! Every way into the pool at once: blocking `checkout`, awaited
//! `check_out`, futures dropped mid-await and `try_check_out` race over two
//! handles, which is where a lost wake-up or a slot handed out twice would
//! show — as a hang, a registry panic or a drop imbalance.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll, Wake, Waker};

use smr_async::block_on;
use smr_baselines::Ebr;
use smr_core::{HandlePool, Smr, SmrConfig, SmrHandle};
use smr_testkit::drop_tracker::{DropRegistry, Tracked};

struct Ignore;

impl Wake for Ignore {
    fn wake(self: Arc<Self>) {}
}

#[test]
fn mixed_checkouts_over_two_handles_balance_exactly() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 1_000;
    let registry = DropRegistry::new();
    let served = AtomicU64::new(0);
    {
        // Two registry slots: a third live handle would panic in `Ebr`.
        let domain: Ebr<Tracked<u64>> = Ebr::with_config(SmrConfig {
            slots: 4,
            batch_min: 2,
            max_threads: 2,
            ..SmrConfig::default()
        });
        let pool = HandlePool::new(&domain, 2);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (pool, registry, served, start) = (&pool, &registry, &served, &start);
                scope.spawn(move || {
                    let ignore = Waker::from(Arc::new(Ignore));
                    start.wait();
                    for round in 0..ROUNDS {
                        let handle = match (thread + round) % 4 {
                            0 => Some(pool.checkout()),
                            1 => Some(block_on(pool.check_out())),
                            2 => {
                                // Polled once; if that queued it, it is
                                // cancelled while it waits (woken or not).
                                let mut fut = pool.check_out();
                                let mut cx = Context::from_waker(&ignore);
                                match Pin::new(&mut fut).poll(&mut cx) {
                                    Poll::Ready(handle) => Some(handle),
                                    Poll::Pending => None,
                                }
                            }
                            _ => pool.try_check_out(),
                        };
                        let Some(mut handle) = handle else { continue };
                        assert!(pool.issued() <= 2);
                        handle.enter();
                        let node = handle.alloc(registry.track(thread * ROUNDS + round));
                        // SAFETY: freshly allocated and never published.
                        unsafe { handle.retire(node) };
                        handle.leave();
                        served.fetch_add(1, Ordering::Relaxed);
                        // Four threads on two handles: give the others the
                        // processor while they have something to wait for.
                        std::thread::yield_now();
                        if round % 8 == 0 {
                            handle.check_in_dirty();
                            pool.flush_one_dirty();
                        }
                    }
                });
            }
        });
        assert!(pool.issued() <= 2, "pool overgrew its cap");
        assert_eq!(pool.parked(), pool.issued(), "every handle came back");
        assert!(served.load(Ordering::Relaxed) >= THREADS * ROUNDS / 2);
        pool.flush_dirty();
    }
    registry.assert_quiescent();
    assert_eq!(registry.created(), served.load(Ordering::Relaxed));
    assert!(!registry.double_drop_detected());
}
