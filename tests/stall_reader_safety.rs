//! Reader safety under deterministic stalls: the core SMR contract.
//!
//! A reader protects a pointer, then stalls indefinitely (the paper's
//! robustness adversary). A writer unlinks and retires the pointed-to node
//! and churns hard enough to drive many reclamation cycles. When the reader
//! finally wakes, its protected pointer must still dereference to intact
//! memory — for *every* scheme: non-robust schemes pin via the reservation,
//! robust schemes must keep exactly this node while reclaiming the rest.
//!
//! Payloads are [`smr_testkit::Canary`]s, so a violation is a failed
//! checksum (poisoned or reused memory) rather than silent garbage.

use hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_core::{Atomic, Smr, SmrConfig, SmrHandle};
use smr_testkit::{Canary, StallPoint};
use std::sync::atomic::Ordering;

const CHURN: u64 = 20_000;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 2,
        batch_min: 4,
        era_freq: 8,
        scan_threshold: 16,
        ack_threshold: 64,
        max_threads: 16,
        ..SmrConfig::default()
    }
}

/// The protected-pointer-survives-stall scenario for one scheme.
fn protected_survives_stall<S: Smr<Canary>>(config: SmrConfig) {
    let domain = &S::with_config(config);
    let link = &Atomic::<Canary>::null();
    let stall = &StallPoint::new();

    std::thread::scope(|s| {
        // Reader: protect the published node, then stall inside the
        // operation while holding the protection.
        s.spawn(move || {
            let mut h = domain.handle();
            h.enter();
            let mut seen = h.protect(0, link);
            while seen.is_null() {
                seen = h.protect(0, link);
            }
            // Validate before the stall: the node is alive.
            // SAFETY: `seen` is non-null and protected by the open operation.
            unsafe { seen.deref() }.check().expect("pre-stall canary");
            stall.stall();
            // The writer has unlinked, retired, and churned; our protection
            // must still hold the node intact.
            // SAFETY: `seen` is still protected: the operation stays open
            // across the stall. This read is what the test checks.
            unsafe { seen.deref() }
                .check()
                .expect("post-stall canary: protected node was reclaimed");
            h.leave();
        });

        // Writer: publish, wait for the reader to park, unlink + retire the
        // node, then churn to force reclamation cycles.
        let mut h = domain.handle();
        h.enter();
        let node = h.alloc(Canary::new(7));
        link.store(node, Ordering::Release);
        h.leave();

        stall.wait_until_stalled();

        h.enter();
        let unlinked = link.swap(smr_core::Shared::null(), Ordering::AcqRel);
        let was_published = !unlinked.is_null();
        if was_published {
            // SAFETY: `unlinked` was just swapped out of `link`, so no later
            // operation can reach it, and it is retired once.
            unsafe { h.retire(unlinked) };
        }
        h.leave();

        for i in 0..CHURN {
            h.enter();
            let n = h.alloc(Canary::new(i));
            // SAFETY: `n` came from this handle's `alloc`, was never published,
            // and is retired once.
            unsafe { h.retire(n) };
            h.leave();
        }
        h.flush();
        // Release before asserting: a failed assertion must not leave the
        // reader parked and the scope hanging.
        stall.release();
        assert!(was_published, "the published node vanished from `link`");
        drop(h);
    });

    // Handle-drop order between the two threads is arbitrary: if the writer
    // dropped while the reader was still inside its operation, the pinned
    // nodes were pushed onto the domain's orphan list. A fresh handle's scan
    // adopts and frees them now that every reservation is gone.
    let mut sweeper = domain.handle();
    sweeper.flush();
    drop(sweeper);

    let stats = domain.stats();
    assert!(
        stats.balanced(),
        "scheme leaked after quiescence: allocated {} freed {} deallocated {}",
        stats.allocated(),
        stats.freed(),
        stats.deallocated()
    );
}

/// Robust schemes must additionally have reclaimed almost all churned nodes
/// *while* the reader was stalled.
fn robust_reclaims_during_stall<S: Smr<Canary>>(config: SmrConfig) {
    assert!(S::robust(), "test is only meaningful for robust schemes");
    let domain = &S::with_config(config);
    let link = &Atomic::<Canary>::null();
    let stall = &StallPoint::new();

    std::thread::scope(|s| {
        s.spawn(move || {
            let mut h = domain.handle();
            h.enter();
            let mut seen = h.protect(0, link);
            while seen.is_null() {
                seen = h.protect(0, link);
            }
            stall.stall();
            // SAFETY: `seen` is non-null and was protected inside the
            // still-open operation, which the stall does not end.
            unsafe { seen.deref() }.check().expect("post-stall canary");
            h.leave();
        });

        let mut h = domain.handle();
        h.enter();
        let node = h.alloc(Canary::new(7));
        link.store(node, Ordering::Release);
        h.leave();

        stall.wait_until_stalled();

        h.enter();
        let unlinked = link.swap(smr_core::Shared::null(), Ordering::AcqRel);
        // SAFETY: `unlinked` was just swapped out of `link`, so no later
        // operation can reach it, and it is retired once.
        unsafe { h.retire(unlinked) };
        h.leave();

        for i in 0..CHURN {
            h.enter();
            let n = h.alloc(Canary::new(i));
            // SAFETY: `n` came from this handle's `alloc`, was never published,
            // and is retired once.
            unsafe { h.retire(n) };
            h.leave();
        }
        h.flush();

        // While the reader is still stalled: nearly everything churned after
        // the reader's eras went stale must have been reclaimed. Read before
        // the release, assert after it, as in `protected_survives_stall`.
        let unreclaimed = domain.stats().unreclaimed();
        stall.release();
        assert!(
            unreclaimed < CHURN / 10,
            "{}: stalled reader pinned {unreclaimed} of {CHURN} churned nodes",
            S::name()
        );
        drop(h);
    });
    // See `protected_survives_stall`: adopt any orphaned limbo before the
    // balance check.
    let mut sweeper = domain.handle();
    sweeper.flush();
    drop(sweeper);
    assert!(domain.stats().balanced());
}

/// Robust batch schemes cut a batch at a parked reader's access era: each
/// protected node born before the stall is retired in a batch of younger
/// nodes, and only it stays (with one dummy: it is its part's REFS node, so
/// the part has no insertion node of its own) while its batchmates are
/// freed around it and their memory is reused by the churn that follows.
fn cut_batches_keep_protected_nodes<S: Smr<Canary>>(config: SmrConfig) {
    const OLD: u64 = 8;
    assert!(S::robust(), "test is only meaningful for robust schemes");
    let (batch, era_freq) = (config.effective_batch_size() as u64, config.era_freq);
    let domain = &S::with_config(config);
    let links = &std::array::from_fn::<_, { OLD as usize }, _>(|_| Atomic::<Canary>::null());
    let stall = &StallPoint::new();

    let mut h = domain.handle();
    h.enter();
    for (i, link) in links.iter().enumerate() {
        link.store(h.alloc(Canary::new(i as u64)), Ordering::Release);
    }
    h.leave();

    std::thread::scope(|s| {
        s.spawn(move || {
            let mut h = domain.handle();
            h.enter();
            let seen: Vec<_> = links.iter().map(|link| h.protect(0, link)).collect();
            stall.stall();
            for (i, node) in seen.into_iter().enumerate() {
                // SAFETY: `node` was published before this thread started
                // and protected inside the still-open operation, which the
                // stall does not end.
                let value = unsafe { node.deref() }.check().expect("post-stall canary");
                assert_eq!(value, i as u64);
            }
            h.leave();
        });
        stall.wait_until_stalled();

        // Move the era clock past the reader's without retiring anything.
        for i in 0..era_freq {
            let node = h.alloc(Canary::new(i));
            // SAFETY: never published; freed in place.
            unsafe { h.dealloc(node) };
        }
        let churn = |h: &mut S::Handle<'_>, n: u64| {
            for i in 0..n {
                let node = h.alloc(Canary::new(OLD + i));
                // SAFETY: never published; retired once.
                unsafe { h.retire(node) };
            }
        };
        // One protected node in each batch, behind a younger node.
        h.enter();
        for link in links {
            churn(&mut h, 1);
            let unlinked = link.swap(smr_core::Shared::null(), Ordering::AcqRel);
            // SAFETY: just swapped out of `link`, so no later operation can
            // reach it, and it is retired once.
            unsafe { h.retire(unlinked) };
            churn(&mut h, batch - 2);
        }
        h.leave();
        for _ in 0..CHURN / batch {
            h.enter();
            churn(&mut h, batch);
            h.leave();
        }
        h.flush();
        // Read before the release, assert after it: a failed assertion
        // must not leave the reader parked and the scope hanging.
        let unreclaimed = domain.stats().unreclaimed();
        stall.release();
        assert_eq!(
            unreclaimed,
            2 * OLD,
            "{}: each protected node and its dummy stay, nothing else",
            S::name()
        );
    });
    drop(h);
    let mut sweeper = domain.handle();
    sweeper.flush();
    drop(sweeper);
    assert!(domain.stats().balanced());
}

#[test]
fn protected_survives_stall_hyaline() {
    protected_survives_stall::<Hyaline<Canary>>(cfg());
}

#[test]
fn protected_survives_stall_hyaline1() {
    protected_survives_stall::<Hyaline1<Canary>>(cfg());
}

#[test]
fn protected_survives_stall_hyaline_s() {
    protected_survives_stall::<HyalineS<Canary>>(cfg());
}

#[test]
fn protected_survives_stall_hyaline_s_adaptive() {
    protected_survives_stall::<HyalineS<Canary>>(SmrConfig {
        adaptive: true,
        ..cfg()
    });
}

#[test]
fn protected_survives_stall_hyaline_1s() {
    protected_survives_stall::<Hyaline1S<Canary>>(cfg());
}

#[test]
fn protected_survives_stall_ebr() {
    protected_survives_stall::<Ebr<Canary>>(cfg());
}

#[test]
fn protected_survives_stall_hp() {
    protected_survives_stall::<Hp<Canary>>(cfg());
}

#[test]
fn protected_survives_stall_he() {
    protected_survives_stall::<He<Canary>>(cfg());
}

#[test]
fn protected_survives_stall_ibr() {
    protected_survives_stall::<Ibr<Canary>>(cfg());
}

#[test]
fn stalled_reader_bounded_hyaline_s() {
    robust_reclaims_during_stall::<HyalineS<Canary>>(cfg());
}

#[test]
fn stalled_reader_bounded_hyaline_s_adaptive() {
    robust_reclaims_during_stall::<HyalineS<Canary>>(SmrConfig {
        adaptive: true,
        ..cfg()
    });
}

#[test]
fn stalled_reader_bounded_hyaline_1s() {
    robust_reclaims_during_stall::<Hyaline1S<Canary>>(cfg());
}

#[test]
fn stalled_reader_bounded_hp() {
    robust_reclaims_during_stall::<Hp<Canary>>(cfg());
}

#[test]
fn stalled_reader_bounded_he() {
    robust_reclaims_during_stall::<He<Canary>>(cfg());
}

#[test]
fn stalled_reader_bounded_ibr() {
    robust_reclaims_during_stall::<Ibr<Canary>>(cfg());
}

#[test]
fn cut_batch_keeps_protected_hyaline_s() {
    cut_batches_keep_protected_nodes::<HyalineS<Canary>>(cfg());
}

#[test]
fn cut_batch_keeps_protected_hyaline_1s() {
    cut_batches_keep_protected_nodes::<Hyaline1S<Canary>>(cfg());
}

#[test]
fn cut_batch_keeps_protected_crystalline_l() {
    cut_batches_keep_protected_nodes::<CrystallineL<Canary>>(cfg());
}

#[test]
fn cut_batch_keeps_protected_crystalline_w() {
    cut_batches_keep_protected_nodes::<CrystallineW<Canary>>(cfg());
}
