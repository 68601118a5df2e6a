//! The unit-test cases that hold for every registry scheme, each written
//! once over `S: Smr` and stamped into the four schemes' `tests` modules
//! under the names those modules always used.

use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

use crate::registry_core::{Domain, Policy};

/// Stamps `#[test] fn name() { battery::case::<Type>() }` per `name = case::<Type>;`.
macro_rules! stamp {
    ($($name:ident = $case:ident::<$ty:ty>;)+) => {
        $(#[test]
        fn $name() {
            $crate::battery::$case::<$ty>();
        })+
    };
}
pub(crate) use stamp;

/// A fast clock, a low scan floor and a small registry.
pub(crate) fn small() -> SmrConfig {
    SmrConfig {
        era_freq: 4,
        scan_threshold: 8,
        max_protect: 4,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

/// One operation per value: allocate it, retire it unpublished.
pub(crate) fn churn<H: SmrHandle<u64>>(h: &mut H, values: std::ops::Range<u64>) {
    for v in values {
        h.enter();
        let node = h.alloc(v);
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
        h.leave();
    }
}

pub(crate) fn single_thread_reclaims_everything<S: Smr<u64>>() {
    let d = S::with_config(small());
    let mut h = d.handle();
    churn(&mut h, 0..200);
    h.flush();
    assert_eq!(d.stats().freed(), 200);
    assert_eq!(d.stats().unreclaimed(), 0);
}

pub(crate) fn multithreaded_stress<S: Smr<u64>>() {
    let d = &S::with_config(small());
    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || churn(&mut d.handle(), t * 1_000_000..t * 1_000_000 + 2_000));
        }
    });
    // Every handle is gone: one scan adopts what they orphaned and frees it.
    d.handle().flush();
    assert_eq!(d.stats().unreclaimed(), 0);
}

/// A thread parked inside an operation (holding one reservation, which is
/// what HE needs to publish anything) pins the world under a non-robust
/// scheme and next to nothing under a robust one.
pub(crate) fn stalled_thread<S: Smr<u64>>() {
    let d = &S::with_config(small());
    let entered = &Barrier::new(2);
    let done = &Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut stalled = d.handle();
            stalled.enter();
            let _ = stalled.protect(0, &Atomic::<u64>::null());
            entered.wait();
            done.wait();
            stalled.leave();
        });
        entered.wait();
        let mut worker = d.handle();
        churn(&mut worker, 0..5_000);
        worker.flush();
        let unreclaimed = d.stats().unreclaimed();
        done.wait(); // release the parked thread before any assert can unwind
        let scheme = S::name();
        if S::robust() {
            assert!(
                unreclaimed < 100,
                "{scheme} must stay robust; {unreclaimed} nodes pinned"
            );
        } else {
            assert!(
                unreclaimed > 4_000,
                "{scheme} should have pinned almost everything, pinned only {unreclaimed}"
            );
        }
    });
}

/// A payload that counts itself live, per test so that parallel tests do
/// not see each other.
pub(crate) struct Tracked(Arc<AtomicI64>);

impl Drop for Tracked {
    fn drop(&mut self) {
        let prev = self.0.fetch_sub(1, Ordering::Relaxed);
        assert!(prev > 0, "double drop detected");
    }
}

/// A `flush` — what a `HandlePool` check-in runs — leaves the magazine with
/// the handle: its next allocation reuses memory its own scan freed, and
/// nothing reached the shared partitions, so a second handle's allocation
/// misses. Dropping the handles returns every node and publishes the pool
/// counters; the domain's drop frees the nodes.
pub(crate) fn check_in_keeps_magazine_warm<S: Smr<Tracked>>() {
    let live = &Arc::new(AtomicI64::new(0));
    let track = || {
        live.fetch_add(1, Ordering::Relaxed);
        Tracked(Arc::clone(live))
    };
    let d = S::with_config(SmrConfig {
        recycle: true,
        recycle_magazine: 8,
        ..small()
    });
    let stats = d.stats();
    let mut h = d.handle();
    // Four nodes, fewer than the magazine holds, all freed by the flush's
    // scan: no other handle publishes any protection.
    h.enter();
    let nodes: Vec<_> = (0..4).map(|_| h.alloc(track())).collect();
    let freed: Vec<usize> = nodes.iter().map(|node| node.as_raw()).collect();
    for node in nodes {
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    h.leave();
    h.flush();
    assert_eq!(stats.unreclaimed(), 0, "{}", S::name());

    let mut other = d.handle();
    let cold = other.alloc(track());
    assert!(
        !freed.contains(&cold.as_raw()),
        "{}: the flush spilled the magazine to the shared partitions",
        S::name()
    );
    let warm = h.alloc(track());
    assert!(
        freed.contains(&warm.as_raw()),
        "{}: the flushed handle's next allocation missed its magazine",
        S::name()
    );

    // SAFETY: neither node was ever published.
    unsafe {
        h.dealloc(warm);
        other.dealloc(cold);
    }
    drop((h, other));
    assert_eq!((stats.pool_hits(), stats.pool_misses()), (1, 5), "{}", S::name());
    assert!(stats.balanced(), "{}", S::name());
    drop(d);
    assert_eq!(live.load(Ordering::Relaxed), 0, "payload leak or double drop");
}

pub(crate) fn reader_protected_until_leave<S: Smr<u64>>() {
    let d = &S::with_config(small());
    let published = &Barrier::new(2);
    let protected = &Barrier::new(2);
    let release = &Barrier::new(2);
    let link = &Atomic::<u64>::null();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = d.handle();
            reader.enter();
            published.wait();
            let seen = reader.protect(0, link);
            protected.wait();
            release.wait();
            // SAFETY: protected since before the writer unlinked it.
            assert_eq!(unsafe { *seen.deref() }, 11);
            reader.leave();
        });
        let mut writer = d.handle();
        writer.enter();
        let node = writer.alloc(11);
        link.store(node, Ordering::Release);
        published.wait();
        protected.wait();
        let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
        // SAFETY: just unlinked, retired once.
        unsafe { writer.retire(unlinked) };
        writer.leave();
        // Scans cannot free the node while the reader is inside.
        writer.flush();
        release.wait();
    });
}

/// A reader parked inside an operation pins the writer's garbage: it
/// entered before the writer's first retire (which is all Epoch and IBR
/// need) and holds `protect` on `PINS` published-then-retired nodes, more
/// than `scan_threshold` (the only way a hazard scheme's limbo stays over
/// the floor). The writer's scans must still visit O(1) limbo nodes per
/// retire — rescanning the pinned limbo on every retire visits ~n²/2 under
/// Epoch and ~`PINS`·n under the others — and a robust scheme's limbo must
/// stay within twice what is pinned plus the floor.
pub(crate) fn scan_work_is_amortised<P: Policy>() {
    const PINS: usize = 8;
    let config = SmrConfig {
        era_freq: 32,
        scan_threshold: 4,
        max_protect: PINS,
        max_threads: 32,
        ..SmrConfig::default()
    };
    for churned in [1u64 << 12, 1 << 15] {
        let d = &Domain::<u64, P>::with_config(config.clone());
        let links: &Vec<Atomic<u64>> = &(0..PINS).map(|_| Atomic::null()).collect();
        let published = &Barrier::new(2);
        let protected = &Barrier::new(2);
        let done = &Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut reader = d.handle();
                reader.enter();
                published.wait();
                for (idx, link) in links.iter().enumerate() {
                    let _ = reader.protect(idx, link);
                }
                protected.wait();
                done.wait();
                reader.leave();
            });
            let mut writer = d.handle();
            for (v, link) in links.iter().enumerate() {
                link.store(writer.alloc(v as u64), Ordering::Release);
            }
            published.wait();
            protected.wait();
            writer.enter();
            for link in links {
                // SAFETY: just unlinked, retired once.
                unsafe { writer.retire(link.swap(Shared::null(), Ordering::AcqRel)) };
            }
            writer.leave();
            // Outside an operation, so the writer's own reservation pins
            // nothing and the pinned set only grows: its final size is its peak.
            let mut max_limbo = 0;
            for v in 0..churned {
                let node = writer.alloc(v);
                // SAFETY: never published, retired once.
                unsafe { writer.retire(node) };
                max_limbo = max_limbo.max(writer.limbo_len());
            }
            writer.flush();
            let (retires, pinned) = (churned + PINS as u64, writer.limbo_len());
            done.wait(); // release the reader before any assert can unwind
            assert!(pinned >= PINS, "{}: only {pinned} nodes pinned", P::NAME);
            assert!(
                writer.visited <= 4 * retires,
                "{}: {} limbo visits for {retires} retires",
                P::NAME,
                writer.visited
            );
            if P::ROBUST {
                assert!(
                    max_limbo <= 2 * pinned + config.scan_threshold,
                    "{}: limbo reached {max_limbo} with {pinned} pinned",
                    P::NAME
                );
            }
        });
    }
}
