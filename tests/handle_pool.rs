//! Oversubscription through `HandlePool`: more live tasks than
//! `SmrConfig::max_threads` on registry-based schemes must park-and-reuse
//! handles instead of panicking, with exact drop balance.

use crystalline::{CrystallineL, CrystallineW};
use smr_baselines::{Ebr, Hp};
use smr_core::{HandlePool, Smr, SmrConfig, SmrHandle};
use smr_testkit::drop_tracker::{DropRegistry, Tracked};

const TASKS: usize = 16;
const ROUNDS: usize = 8;
const OPS_PER_ROUND: u64 = 32;

fn cfg(max_threads: usize) -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 8,
        era_freq: 8,
        scan_threshold: 16,
        max_threads,
        ..SmrConfig::default()
    }
}

/// 16 tasks × 8 checkouts over a 4-handle registry: every task repeatedly
/// borrows a pooled handle, churns, and parks it again.
fn oversubscribed_churn<S: Smr<Tracked<u64>>>(max_threads: usize) -> DropRegistry {
    let registry = DropRegistry::new();
    {
        let domain = S::with_config(cfg(max_threads));
        let pool = HandlePool::new(&domain, max_threads);
        std::thread::scope(|scope| {
            for t in 0..TASKS {
                let registry = &registry;
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let mut h = pool.checkout();
                        for i in 0..OPS_PER_ROUND {
                            h.enter();
                            let value = registry
                                .track((t * ROUNDS + round) as u64 * OPS_PER_ROUND + i);
                            let node = h.alloc(value);
                            // SAFETY: `node` came from this handle's `alloc`,
                            // was never published, and is retired once.
                            unsafe { h.retire(node) };
                            h.leave();
                        }
                    } // guard drop flushes + parks
                });
            }
        });
        assert!(
            pool.issued() <= max_threads,
            "{}: pool created {} handles over a cap of {max_threads}",
            S::name(),
            pool.issued()
        );
        assert_eq!(pool.parked(), pool.issued(), "all handles parked at the end");
    }
    registry
}

#[test]
fn ebr_oversubscription_parks_and_reuses() {
    let registry = oversubscribed_churn::<Ebr<Tracked<u64>>>(4);
    registry.assert_quiescent();
    assert_eq!(
        registry.created(),
        (TASKS * ROUNDS) as u64 * OPS_PER_ROUND,
        "payload count mismatch"
    );
}

#[test]
fn hp_oversubscription_parks_and_reuses() {
    let registry = oversubscribed_churn::<Hp<Tracked<u64>>>(4);
    registry.assert_quiescent();
}

#[test]
fn crystalline_l_oversubscription_parks_and_reuses() {
    let registry = oversubscribed_churn::<CrystallineL<Tracked<u64>>>(4);
    registry.assert_quiescent();
    assert_eq!(
        registry.created(),
        (TASKS * ROUNDS) as u64 * OPS_PER_ROUND,
        "payload count mismatch"
    );
}

#[test]
fn crystalline_w_oversubscription_parks_and_reuses() {
    let registry = oversubscribed_churn::<CrystallineW<Tracked<u64>>>(4);
    registry.assert_quiescent();
    assert_eq!(
        registry.created(),
        (TASKS * ROUNDS) as u64 * OPS_PER_ROUND,
        "payload count mismatch"
    );
}

/// Crystalline handles carry scheme-local state across threads: with
/// `handoff_attempts: 0` every retire goes through the per-slot handoff
/// cell, so a handle may be holding adopted batches when it parks. Each
/// round runs two fresh OS threads over the same 2-handle pool, so the
/// same handle (and whatever it adopted) keeps moving to new threads.
/// Exact drop balance after the domain drops proves no adopted batch was
/// stranded or double-freed along the way.
#[test]
fn crystalline_handles_migrate_with_adopted_batches() {
    let registry = DropRegistry::new();
    {
        let domain: CrystallineL<Tracked<u64>> = Smr::with_config(SmrConfig {
            handoff_attempts: 0,
            ..cfg(2)
        });
        let pool = HandlePool::new(&domain, 2);
        for round in 0..ROUNDS {
            std::thread::scope(|scope| {
                for task in 0..2u64 {
                    let registry = &registry;
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut h = pool.checkout();
                        for i in 0..OPS_PER_ROUND {
                            h.enter();
                            let value = registry
                                .track((round as u64 * 2 + task) * OPS_PER_ROUND + i);
                            let node = h.alloc(value);
                            // SAFETY: `node` came from this handle's `alloc`,
                            // was never published, and is retired once.
                            unsafe { h.retire(node) };
                            h.leave();
                        }
                    }); // guard drop flushes + parks
                }
            });
        }
        assert!(pool.issued() <= 2, "pool overgrew its cap");
        assert_eq!(pool.parked(), pool.issued(), "all handles parked");
    }
    registry.assert_quiescent();
    assert_eq!(
        registry.created(),
        (ROUNDS as u64 * 2) * OPS_PER_ROUND,
        "payload count mismatch"
    );
}

/// The baseline behavior the pool exists to fix: creating handles directly
/// past `max_threads` panics in the slot registry.
#[test]
fn direct_handles_beyond_max_threads_panic() {
    let domain: Ebr<u64> = Ebr::with_config(cfg(4));
    let _live: Vec<_> = (0..4).map(|_| domain.handle()).collect();
    let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _fifth = domain.handle();
    }));
    assert!(overflow.is_err(), "fifth concurrent handle must panic");
}

/// A pooled handle checked out on one thread is reusable from another —
/// the property the `Send` bound on `Smr::Handle` guarantees.
#[test]
fn pooled_handles_migrate_between_threads() {
    let domain: Ebr<u64> = Ebr::with_config(cfg(1));
    let pool = HandlePool::new(&domain, 1);
    {
        let mut h = pool.checkout();
        h.enter();
        let node = h.alloc(1);
        // SAFETY: `node` came from this handle's `alloc`, was never published,
        // and is retired once.
        unsafe { h.retire(node) };
        h.leave();
    }
    std::thread::scope(|scope| {
        let pool = &pool;
        scope.spawn(move || {
            // Same handle, different thread.
            let mut h = pool.checkout();
            h.enter();
            let node = h.alloc(2);
            // SAFETY: `node` came from this handle's `alloc`, was never
            // published, and is retired once.
            unsafe { h.retire(node) };
            h.leave();
        });
    });
    assert_eq!(pool.issued(), 1);
    drop(pool);
    let stats = domain.stats();
    assert_eq!(stats.allocated(), 2);
}

#[test]
fn try_check_out_drains_and_refills() {
    let domain: Ebr<u64> = Ebr::with_config(cfg(2));
    let pool = HandlePool::new(&domain, 1);
    let held = pool.try_check_out().expect("first checkout");
    assert!(pool.try_check_out().is_none(), "capacity 1 is exhausted");
    assert_eq!(pool.checked_out(), 1);
    drop(held);
    assert!(pool.try_check_out().is_some(), "parked handle is reissued");
}
