//! Contention-shift workload for Hyaline-S §4.3 adaptive slot resizing.
//!
//! The paper's Figure 6 directory grows when every slot is saturated by
//! stalled threads (un-acknowledged insertions past `ack_threshold`) and
//! the saturated slots become usable again once the stalled threads leave
//! and acknowledge their sublists. This test drives that full shift
//! deterministically:
//!
//! 1. **Build pressure**: nodes are allocated *before* two readers certify
//!    their slots' access eras, so retiring them later inserts batches into
//!    both slots (birth ≤ access era) while the readers stall inside their
//!    operations — `Ack` grows without bound.
//! 2. **Grow**: with every slot saturated, the next `enter` must double the
//!    directory and move to a fresh slot (the §4.3 transition).
//! 3. **Shift back**: the stalled readers leave, traversing and
//!    acknowledging their sublists; fresh handles can then settle on the
//!    original slots again — the effective slot set contracts.
//!
//! Throughout, payloads are `DropRegistry`-tracked: the resize transitions
//! must not leak, double-free, or strand a single node.

use hyaline::HyalineS;
use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
use smr_testkit::drop_tracker::{DropRegistry, Tracked};
use std::sync::atomic::Ordering;
use std::sync::Barrier;

const PREALLOC: u64 = 2_000;
const ACK_THRESHOLD: i64 = 64;

fn domain() -> HyalineS<Tracked<u64>> {
    HyalineS::with_config(SmrConfig {
        slots: 2,
        batch_min: 4,
        era_freq: 4,
        ack_threshold: ACK_THRESHOLD,
        adaptive: true,
        max_threads: 256,
        ..SmrConfig::default()
    })
}

#[test]
fn contention_shift_grows_then_recovers_with_exact_drop_balance() {
    let registry = DropRegistry::new();
    {
        let d = domain();
        assert_eq!(d.slot_count(), 2);

        // Handle-creation order pins the preferred slots: readers on 0 / 1.
        let r0 = d.handle();
        let r1 = d.handle();
        assert_eq!((r0.slot(), r1.slot()), (0, 1));
        let mut worker = d.handle();

        // Nodes born *before* the readers certify their access eras: their
        // batches will be inserted into the readers' slots.
        let nodes: Vec<Shared<Tracked<u64>>> = (0..PREALLOC)
            .map(|i| worker.alloc(registry.track(i)))
            .collect();
        let link0 = Atomic::new(worker.alloc(registry.track(u64::MAX)));
        let link1 = Atomic::new(worker.alloc(registry.track(u64::MAX - 1)));

        let ready = Barrier::new(3);
        let release = Barrier::new(3);
        std::thread::scope(|scope| {
            for (mut reader, link) in [(r0, &link0), (r1, &link1)] {
                let ready = &ready;
                let release = &release;
                scope.spawn(move || {
                    reader.enter();
                    // Certify the slot's access era at the current clock —
                    // every preallocated node's birth era is now covered.
                    let seen = reader.protect(0, link);
                    assert!(!seen.is_null());
                    ready.wait();
                    release.wait(); // stalled inside the operation
                    reader.leave(); // acknowledge the pinned sublist
                });
            }
            ready.wait();

            // Phase 1: retire everything while both readers stall. Each
            // finalized batch lands in both slots (access era ≥ births,
            // HRef ≥ 1) and bumps their unacknowledged `Ack` counters.
            worker.enter();
            for node in nodes {
                // SAFETY: each node came from this domain's `alloc`, was never
                // published, and is retired once.
                unsafe { worker.retire(node) };
            }
            worker.flush();
            worker.leave();

            // Phase 2: every slot is saturated, so this enter must grow the
            // directory (2 → ≥4) and settle on a freshly added slot.
            worker.enter();
            let grown = d.slot_count();
            assert!(grown >= 4, "directory did not grow: k = {grown}");
            assert!(grown.is_power_of_two(), "doubling growth violated: {grown}");
            assert!(
                worker.slot() >= 2,
                "worker stayed on a saturated slot ({})",
                worker.slot()
            );
            // Progress under the grown directory: churn keeps reclaiming.
            for i in 0..200u64 {
                let node = worker.alloc(registry.track(PREALLOC + i));
                // SAFETY: `node` came from this handle's `alloc`, was never
                // published, and is retired once.
                unsafe { worker.retire(node) };
            }
            worker.leave();
            worker.flush();

            // Phase 3: release the stall; the readers' leaves acknowledge
            // their sublists, draining the Ack counters.
            release.wait();
        });

        // Recovery: the original slots are usable again — a handle whose
        // preferred slot is 0 must *stay* there (enter only moves away from
        // slots at or above the threshold).
        let recovered = (0..d.slot_count())
            .map(|_| d.handle())
            .find(|h| h.slot() == 0)
            .expect("round-robin assignment must hand out slot 0");
        let mut recovered = recovered;
        recovered.enter();
        assert_eq!(
            recovered.slot(),
            0,
            "slot 0 still saturated after the stalled readers left"
        );
        recovered.leave();

        // Retire the link nodes too, then tear down.
        let mut h = d.handle();
        h.enter();
        for link in [&link0, &link1] {
            let node = link.swap(Shared::null(), Ordering::AcqRel);
            // SAFETY: `node` was just swapped out of `link`, so no later
            // operation can reach it, and it is retired once.
            unsafe { h.retire(node) };
        }
        h.leave();
        h.flush();
        drop(h);
        drop(recovered);
        drop(worker);

        let stats = d.stats();
        assert!(
            stats.balanced(),
            "resize transitions lost accounting: alloc {} free {} dealloc {}",
            stats.allocated(),
            stats.freed(),
            stats.deallocated()
        );
    }
    // Every tracked payload — preallocated, churned, links — dropped once.
    registry.assert_quiescent();
    assert_eq!(registry.created(), PREALLOC + 200 + 2);
}

/// The non-adaptive counterpart: the same contention shift must *not* grow
/// the directory (the capped Figure 10a configuration) and must still
/// reclaim everything once the stall clears.
#[test]
fn capped_variant_never_grows_under_the_same_shift() {
    let registry = DropRegistry::new();
    {
        let d = HyalineS::<Tracked<u64>>::with_config(SmrConfig {
            slots: 2,
            batch_min: 4,
            era_freq: 4,
            ack_threshold: ACK_THRESHOLD,
            adaptive: false,
            max_threads: 256,
            ..SmrConfig::default()
        });
        let mut r0 = d.handle();
        let mut worker = d.handle();
        let nodes: Vec<Shared<Tracked<u64>>> = (0..PREALLOC)
            .map(|i| worker.alloc(registry.track(i)))
            .collect();
        let link = Atomic::new(worker.alloc(registry.track(u64::MAX)));

        let ready = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let ready = &ready;
            let release = &release;
            let link = &link;
            scope.spawn(move || {
                r0.enter();
                let _ = r0.protect(0, link);
                ready.wait();
                release.wait();
                r0.leave();
            });
            ready.wait();
            worker.enter();
            for node in nodes {
                // SAFETY: each node came from this domain's `alloc`, was never
                // published, and is retired once.
                unsafe { worker.retire(node) };
            }
            worker.flush();
            worker.leave();
            // Saturated but capped: enter settles for the least-saturated
            // slot and the directory stays at its configured size.
            worker.enter();
            assert_eq!(d.slot_count(), 2, "capped directory must not grow");
            worker.leave();
            release.wait();
        });
        let mut h = d.handle();
        h.enter();
        let node = link.swap(Shared::null(), Ordering::AcqRel);
        // SAFETY: `node` was just swapped out of `link`, so no later operation
        // can reach it, and it is retired once.
        unsafe { h.retire(node) };
        h.leave();
        h.flush();
        drop(h);
        drop(worker);
        assert!(d.stats().balanced());
    }
    registry.assert_quiescent();
}
