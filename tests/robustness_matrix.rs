//! The robustness property (paper §2.3, Theorem 4), asserted both ways:
//! robust schemes bound what a stalled thread pins; non-robust schemes
//! demonstrably do not.

use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use lockfree_ds::{ConcurrentMap, MichaelHashMap};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_core::{Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const CHURN: u64 = 30_000;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 8,
        era_freq: 16,
        scan_threshold: 32,
        ack_threshold: 128,
        max_threads: 64,
        ..SmrConfig::default()
    }
}

/// Runs a churn worker beside a thread that stalls inside an operation
/// (after touching the structure); returns the unreclaimed count when the
/// worker finishes, while the thread is still stalled.
fn pinned_by_stall<S>(config: SmrConfig) -> u64
where
    S: Smr<lockfree_ds::ListNode<u64, u64>>,
{
    let map: MichaelHashMap<u64, u64, S> = MichaelHashMap::with_config_and_buckets(config, 256);
    let map = &map;
    let ready = &Barrier::new(2);
    let done = &AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut h = map.smr_handle();
            h.enter();
            for k in 0..4 {
                map.map_get(&mut h, k);
            }
            ready.wait();
            while !done.load(Ordering::Acquire) {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the stalled reader idles inside its operation on purpose"
                )]
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            h.leave();
        });
        ready.wait();
        let mut h = map.smr_handle();
        for i in 0..CHURN {
            let key = i % 512;
            h.enter();
            map.map_insert(&mut h, key, i);
            h.leave();
            h.enter();
            map.map_remove(&mut h, key);
            h.leave();
        }
        h.flush();
        let pinned = map.stats().unreclaimed();
        done.store(true, Ordering::Release);
        pinned
    })
}

#[test]
fn robust_schemes_bound_stalled_pinning() {
    // Generous bound: a robust scheme may hold a backlog proportional to
    // thresholds and batch sizes, but nowhere near the full churn volume.
    let bound = CHURN / 10;
    let hp = pinned_by_stall::<Hp<_>>(cfg());
    assert!(hp < bound, "HP pinned {hp}");
    let he = pinned_by_stall::<He<_>>(cfg());
    assert!(he < bound, "HE pinned {he}");
    let ibr = pinned_by_stall::<Ibr<_>>(cfg());
    assert!(ibr < bound, "IBR pinned {ibr}");
    let h1s = pinned_by_stall::<Hyaline1S<_>>(cfg());
    assert!(h1s < bound, "Hyaline-1S pinned {h1s}");
    let hs = pinned_by_stall::<HyalineS<_>>(cfg());
    assert!(hs < bound, "Hyaline-S pinned {hs}");
    let hs_adaptive = pinned_by_stall::<HyalineS<_>>(SmrConfig {
        adaptive: true,
        ..cfg()
    });
    assert!(hs_adaptive < bound, "adaptive Hyaline-S pinned {hs_adaptive}");
}

#[test]
fn non_robust_schemes_pin_unboundedly() {
    // The counterpart assertion: EBR and basic Hyaline keep almost all of
    // the churn pinned while a thread stalls (this is by design — the
    // paper's Table 1 marks them non-robust).
    let ebr = pinned_by_stall::<Ebr<_>>(cfg());
    assert!(ebr > CHURN / 2, "EBR unexpectedly reclaimed: pinned {ebr}");
    let hyaline = pinned_by_stall::<Hyaline<_>>(cfg());
    assert!(
        hyaline > CHURN / 4,
        "Hyaline unexpectedly robust: pinned {hyaline}"
    );
    let hyaline1 = pinned_by_stall::<Hyaline1<_>>(cfg());
    assert!(
        hyaline1 > CHURN / 4,
        "Hyaline-1 unexpectedly robust: pinned {hyaline1}"
    );
}

/// Theorem 4's flavor of bound: under Hyaline-S, the number of unreclaimable
/// nodes stays flat as churn grows (it depends on the era lag, not on how
/// much the workers allocate afterwards).
#[test]
fn hyaline_s_pinning_does_not_scale_with_churn() {
    let small = {
        let map: MichaelHashMap<u64, u64, HyalineS<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 256);
        churn_with_stall(&map, CHURN / 8)
    };
    let large = {
        let map: MichaelHashMap<u64, u64, HyalineS<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 256);
        churn_with_stall(&map, CHURN)
    };
    // Allow slack for timing noise; the point is it must not grow ~8x.
    assert!(
        large < small.max(64) * 4,
        "Hyaline-S pinning grew with churn: {small} -> {large}"
    );
}

fn churn_with_stall<S>(map: &MichaelHashMap<u64, u64, S>, churn: u64) -> u64
where
    S: Smr<lockfree_ds::ListNode<u64, u64>>,
{
    let ready = &Barrier::new(2);
    let done = &AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut h = map.smr_handle();
            h.enter();
            for k in 0..4 {
                map.map_get(&mut h, k);
            }
            ready.wait();
            while !done.load(Ordering::Acquire) {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the stalled reader idles inside its operation on purpose"
                )]
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            h.leave();
        });
        ready.wait();
        let mut h = map.smr_handle();
        for i in 0..churn {
            let key = i % 512;
            h.enter();
            map.map_insert(&mut h, key, i);
            h.leave();
            h.enter();
            map.map_remove(&mut h, key);
            h.leave();
        }
        h.flush();
        let pinned = map.domain().stats().unreclaimed();
        done.store(true, Ordering::Release);
        pinned
    })
}
