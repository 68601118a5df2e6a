//! Regression tests for the Natarajan–Mittal seek validation.
//!
//! A deletion's `cleanup` freezes the doomed chain (TAG/FLAG bits) and swings
//! the deepest clean ancestor edge over it. Frozen edges never change again,
//! so a traversal that already descended past the swing point keeps walking
//! through **unlinked, retired** nodes — and for schemes that publish
//! protection per access (HP hazards, HE eras, Hyaline-S access eras), a
//! protection published *after* the node was retired is invisible to the
//! reclaimer. The fix is `Smr::needs_seek_validation`: after each new
//! protection, `seek` re-reads the parent edge and the recorded deepest
//! clean edge, restarting from the root if either changed.
//!
//! These tests drive exactly the racy pattern — concurrent removes churning
//! chains under concurrent seeks, oversubscribed so threads preempt inside
//! the window — with `Canary` values, so a use-after-free surfaces as a
//! checksum panic rather than silent garbage. (The original bug was caught
//! by AddressSanitizer within a minute of this workload; with validation it
//! survives indefinitely.)

use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use lockfree_ds::{NatarajanMittalTree, NmNode};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::{Smr, SmrConfig, SmrHandle};

type Tree<S> = NatarajanMittalTree<u64, u64, S>;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 2,
        batch_min: 4,
        era_freq: 2,       // fast-moving clock widens the stale-era window
        scan_threshold: 8, // frequent scans widen the free-early window
        ack_threshold: 64,
        max_protect: 8,
        max_threads: 64,
        ..SmrConfig::default()
    }
}

/// Oversubscribed churn on a tiny key range: every operation collides with
/// deletions, so seeks constantly cross frozen chains.
fn churn<S: Smr<NmNode<u64, u64>>>(threads: u64, ops: u64, range: u64) {
    churn_with::<S>(cfg(), threads, ops, range);
}

fn churn_with<S: Smr<NmNode<u64, u64>>>(config: SmrConfig, threads: u64, ops: u64, range: u64) {
    let tree: &Tree<S> = &NatarajanMittalTree::with_config(config);
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut h = tree.smr_handle();
                let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..ops {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % range;
                    h.enter();
                    match x % 4 {
                        0 | 1 => {
                            tree.remove(&mut h, &key);
                        }
                        2 => {
                            tree.insert(&mut h, key, key.wrapping_mul(0x5DEECE66D));
                        }
                        _ => {
                            if let Some(v) = tree.get(&mut h, &key) {
                                assert_eq!(
                                    v,
                                    key.wrapping_mul(0x5DEECE66D),
                                    "torn or reused value for key {key}"
                                );
                            }
                        }
                    }
                    h.leave();
                }
            });
        }
    });
    // All worker handles dropped; a fresh handle's flush adopts any orphaned
    // limbo lists. With no reservations left, everything retired must free.
    let mut sweeper = tree.smr_handle();
    sweeper.flush();
    drop(sweeper);
    let stats = tree.domain().stats();
    assert_eq!(
        stats.unreclaimed(),
        0,
        "{}: {} retired nodes unreclaimed after quiescence",
        S::name(),
        stats.unreclaimed()
    );
}

#[test]
fn validation_flags_match_protection_model() {
    // Per-access protection publishes too late for frozen-chain descents.
    assert!(Hp::<NmNode<u64, u64>>::needs_seek_validation());
    assert!(He::<NmNode<u64, u64>>::needs_seek_validation());
    assert!(HyalineS::<NmNode<u64, u64>>::needs_seek_validation());
    assert!(Hyaline1S::<NmNode<u64, u64>>::needs_seek_validation());
    // Enter-scoped reservations cover everything retired after `enter`.
    assert!(!Hyaline::<NmNode<u64, u64>>::needs_seek_validation());
    assert!(!Hyaline1::<NmNode<u64, u64>>::needs_seek_validation());
    assert!(!Ebr::<NmNode<u64, u64>>::needs_seek_validation());
    assert!(!Leaky::<NmNode<u64, u64>>::needs_seek_validation());
    // 2GE-IBR reserves the interval [enter-era, now], which overlaps the
    // lifetime of any node reachable when the operation began.
    assert!(!Ibr::<NmNode<u64, u64>>::needs_seek_validation());
}

#[test]
fn hp_oversubscribed_delete_churn() {
    churn::<Hp<_>>(8, 4_000, 32);
}

#[test]
fn he_oversubscribed_delete_churn() {
    churn::<He<_>>(8, 4_000, 32);
}

#[test]
fn hyaline_s_oversubscribed_delete_churn() {
    churn::<HyalineS<_>>(8, 4_000, 32);
}

#[test]
fn hyaline_1s_oversubscribed_delete_churn() {
    churn::<Hyaline1S<_>>(8, 4_000, 32);
}

#[test]
fn ibr_oversubscribed_delete_churn() {
    churn::<Ibr<_>>(8, 4_000, 32);
}

#[test]
fn hp_malloc_freed_children_prefetch_churn() {
    // `seek` prefetches both children of every node it crosses from an
    // unprotected read. Without recycling and with a scan every few retires,
    // those children are routinely back with malloc (or reused by it) when
    // the hint lands. The hint reads nothing, so values stay exact and
    // nothing is left unreclaimed at quiescence.
    let config = SmrConfig {
        recycle: false,
        scan_threshold: 2,
        ..cfg()
    };
    churn_with::<Hp<_>>(config, 8, 4_000, 32);
}

#[test]
fn deep_frozen_chains_under_hp() {
    // Sequential keys build a degenerate (path-shaped) region; removing them
    // in clusters creates long doomed chains, maximizing the time seeks
    // spend inside frozen regions.
    let tree: &Tree<Hp<_>> = &NatarajanMittalTree::with_config(cfg());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                let mut h = tree.smr_handle();
                for round in 0..60u64 {
                    let base = (t * 61 + round) % 64;
                    h.enter();
                    for k in base..base + 16 {
                        tree.insert(&mut h, k, k.wrapping_mul(0x5DEECE66D));
                    }
                    h.leave();
                    h.enter();
                    for k in base..base + 16 {
                        if let Some(v) = tree.remove(&mut h, &k) {
                            assert_eq!(v, k.wrapping_mul(0x5DEECE66D));
                        }
                    }
                    h.leave();
                }
            });
        }
    });
    let mut sweeper = tree.smr_handle();
    sweeper.flush();
    drop(sweeper);
    assert_eq!(tree.domain().stats().unreclaimed(), 0);
}
