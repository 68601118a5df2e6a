//! Smoke matrix: every exported SMR scheme must survive an
//! allocate/publish/retire churn under 4 threads with exact drop balance.
//!
//! This is the cheap gate that keeps a future scheme (or a refactor of an
//! existing one) from silently leaking, double-freeing, or deadlocking: each
//! cell runs the same generic workload with [`DropRegistry`]-tracked payloads
//! and asserts afterwards that every tracked allocation was dropped exactly
//! once (`Leaky` asserts the complement: nothing was ever freed).

use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
use smr_testkit::drop_tracker::{DropRegistry, Tracked};
use std::sync::atomic::Ordering;

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 500;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 8,
        era_freq: 16,
        scan_threshold: 16,
        max_threads: 64,
        ..SmrConfig::default()
    }
}

/// Recycling enabled with a small pool and magazine, so the churn exercises
/// magazine spill/refill and the capacity-overflow fallback, not just the
/// happy path of an effectively unbounded pool.
fn recycle_cfg() -> SmrConfig {
    SmrConfig {
        recycle: true,
        recycle_capacity: 256,
        recycle_magazine: 8,
        ..cfg()
    }
}

fn sharded_cfg(shards: usize) -> SmrConfig {
    SmrConfig {
        // Per-shard slot budget stays ≥ 1 for every tested shard count.
        slots: 8.max(shards),
        shards,
        ..cfg()
    }
}

/// Runs the churn and returns the registry for scheme-specific assertions.
///
/// Each thread alternates between private churn (alloc + immediate retire)
/// and publishing through a shared slot (alloc, swap in, retire whatever the
/// swap displaced) so retirement of nodes allocated by *other* threads is
/// exercised too. The final slot occupant is retired during teardown.
fn churn<S: Smr<Tracked<u64>>>() -> DropRegistry {
    churn_with::<S>(cfg())
}

fn churn_with<S: Smr<Tracked<u64>>>(config: SmrConfig) -> DropRegistry {
    let registry = DropRegistry::new();
    {
        let domain = S::with_config(config);
        let slot: Atomic<Tracked<u64>> = Atomic::null();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let registry = &registry;
                let domain = &domain;
                let slot = &slot;
                scope.spawn(move || {
                    let mut h = domain.handle();
                    for i in 0..OPS_PER_THREAD {
                        h.enter();
                        let value = registry.track(t as u64 * OPS_PER_THREAD + i);
                        let node = h.alloc(value);
                        if i % 2 == 0 {
                            let prev = slot.swap(node, Ordering::AcqRel);
                            if !prev.is_null() {
                                // SAFETY: `prev` was just swapped out of
                                // `slot`, so no later operation can reach it,
                                // and only this swap retires it.
                                unsafe { h.retire(prev) };
                            }
                        } else {
                            // SAFETY: `node` came from this handle's `alloc`,
                            // was never published, and is retired once.
                            unsafe { h.retire(node) };
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
        // Teardown: pull the last published node back out and retire it.
        let mut h = domain.handle();
        h.enter();
        let last = slot.swap(Shared::null(), Ordering::AcqRel);
        if !last.is_null() {
            // SAFETY: `last` was just swapped out of `slot`, so no later
            // operation can reach it, and only this swap retires it.
            unsafe { h.retire(last) };
        }
        h.leave();
        h.flush();
        let stats = domain.stats();
        // `>=` rather than `==`: Hyaline inserts batches into more entered
        // slots than they have own nodes by adding internal dummy nodes,
        // which are accounted as allocations too. The exact payload balance is asserted through
        // the DropRegistry below.
        assert!(
            stats.allocated() >= THREADS as u64 * OPS_PER_THREAD,
            "{}: allocation accounting is off ({} < {})",
            S::name(),
            stats.allocated(),
            THREADS as u64 * OPS_PER_THREAD
        );
        drop(h);
        // Domain drop reclaims whatever reservations no longer pin.
    }
    registry
}

/// Reclaiming schemes: exact drop balance once the domain is gone.
macro_rules! smoke {
    ($($test:ident => $scheme:ty),+ $(,)?) => {$(
        #[test]
        fn $test() {
            let registry = churn::<$scheme>();
            registry.assert_quiescent();
            assert_eq!(
                registry.created(),
                THREADS as u64 * OPS_PER_THREAD,
                "payload count mismatch"
            );
        }
    )+};
}

smoke! {
    smoke_hyaline => hyaline::Hyaline<Tracked<u64>>,
    smoke_hyaline1 => hyaline::Hyaline1<Tracked<u64>>,
    smoke_hyaline_s => hyaline::HyalineS<Tracked<u64>>,
    smoke_hyaline1_s => hyaline::Hyaline1S<Tracked<u64>>,
    smoke_ebr => smr_baselines::Ebr<Tracked<u64>>,
    smoke_hp => smr_baselines::Hp<Tracked<u64>>,
    smoke_he => smr_baselines::He<Tracked<u64>>,
    smoke_ibr => smr_baselines::Ibr<Tracked<u64>>,
    smoke_crystalline_l => hyaline::CrystallineL<Tracked<u64>>,
    smoke_crystalline_w => hyaline::CrystallineW<Tracked<u64>>,
}

/// The reclaiming matrix again with node recycling enabled: reusing node
/// memory must not change payload semantics — every tracked payload still
/// drops exactly once even though the backing allocations cycle through the
/// pool and are handed out again (possibly on another thread).
macro_rules! recycle_smoke {
    ($($test:ident => $scheme:ty),+ $(,)?) => {$(
        #[test]
        fn $test() {
            let registry = churn_with::<$scheme>(recycle_cfg());
            registry.assert_quiescent();
            assert_eq!(
                registry.created(),
                THREADS as u64 * OPS_PER_THREAD,
                "payload count mismatch"
            );
        }
    )+};
}

recycle_smoke! {
    recycle_smoke_hyaline => hyaline::Hyaline<Tracked<u64>>,
    recycle_smoke_hyaline1 => hyaline::Hyaline1<Tracked<u64>>,
    recycle_smoke_hyaline_s => hyaline::HyalineS<Tracked<u64>>,
    recycle_smoke_hyaline1_s => hyaline::Hyaline1S<Tracked<u64>>,
    recycle_smoke_ebr => smr_baselines::Ebr<Tracked<u64>>,
    recycle_smoke_hp => smr_baselines::Hp<Tracked<u64>>,
    recycle_smoke_he => smr_baselines::He<Tracked<u64>>,
    recycle_smoke_ibr => smr_baselines::Ibr<Tracked<u64>>,
    recycle_smoke_crystalline_l => hyaline::CrystallineL<Tracked<u64>>,
    recycle_smoke_crystalline_w => hyaline::CrystallineW<Tracked<u64>>,
}

/// Crystalline with `handoff_attempts: 0`: every retire is forced through
/// the per-slot handoff cell — the wait-free path the scheme exists for.
/// Exact drop balance must survive pure handoff traffic too.
#[test]
fn smoke_crystalline_l_forced_handoff() {
    let registry = churn_with::<hyaline::CrystallineL<Tracked<u64>>>(SmrConfig {
        handoff_attempts: 0,
        ..cfg()
    });
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS as u64 * OPS_PER_THREAD);
}

/// `Leaky` is the deliberate exception: retirement must never free anything,
/// so every payload stays live (the complement of `assert_quiescent`).
#[test]
fn smoke_leaky_leaks_everything() {
    let registry = churn::<smr_baselines::Leaky<Tracked<u64>>>();
    assert_eq!(registry.dropped(), 0, "Leaky must never drop a payload");
    assert_eq!(registry.live(), (THREADS as u64 * OPS_PER_THREAD) as i64);
}

/// The sharded churn: one shared slot **per shard**, and every operation
/// pins its shard before touching that shard's slot — the key-partition
/// discipline a key-partitioned structure (the hash map) follows. Nodes are
/// allocated, published, displaced and retired strictly within one shard,
/// while the four threads keep rotating across all of them.
fn sharded_churn<S: Smr<Tracked<u64>>>(shards: usize) -> DropRegistry {
    let registry = DropRegistry::new();
    {
        let domain: smr_core::Sharded<S> =
            Smr::<Tracked<u64>>::with_config(sharded_cfg(shards));
        assert_eq!(domain.shard_count(), shards);
        let slots: Vec<Atomic<Tracked<u64>>> = (0..shards).map(|_| Atomic::null()).collect();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let registry = &registry;
                let domain = &domain;
                let slots = &slots;
                scope.spawn(move || {
                    let mut h = domain.handle();
                    for i in 0..OPS_PER_THREAD {
                        let shard = (t as u64 + i) % shards as u64;
                        h.enter();
                        h.pin_shard(shard);
                        let value = registry.track(t as u64 * OPS_PER_THREAD + i);
                        let node = h.alloc(value);
                        if i % 2 == 0 {
                            let prev = slots[shard as usize].swap(node, Ordering::AcqRel);
                            if !prev.is_null() {
                                // SAFETY: `prev` was just swapped out of its
                                // slot, so no later operation can reach it, and
                                // only this swap retires it.
                                unsafe { h.retire(prev) };
                            }
                        } else {
                            // SAFETY: `node` came from this handle's `alloc`,
                            // was never published, and is retired once.
                            unsafe { h.retire(node) };
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
        let mut h = domain.handle();
        for (shard, slot) in slots.iter().enumerate() {
            h.enter();
            h.pin_shard(shard as u64);
            let last = slot.swap(Shared::null(), Ordering::AcqRel);
            if !last.is_null() {
                // SAFETY: `last` was just swapped out of its slot, so no later
                // operation can reach it, and only this swap retires it.
                unsafe { h.retire(last) };
            }
            h.leave();
        }
        h.flush();
        // Every shard must have seen real traffic (the rotation covers all).
        for i in 0..shards {
            assert!(
                domain.shard(i).stats().retired() > 0,
                "{}: shard {i} received no retire traffic",
                S::name()
            );
        }
        drop(h);
    }
    registry
}

/// `Sharded<S>` entries of the matrix: every shard count gets the same
/// 4-thread churn + exact drop balance as the plain schemes.
macro_rules! sharded_smoke {
    ($($test:ident => $scheme:ty : $shards:expr),+ $(,)?) => {$(
        #[test]
        fn $test() {
            let registry = sharded_churn::<$scheme>($shards);
            registry.assert_quiescent();
            assert_eq!(
                registry.created(),
                THREADS as u64 * OPS_PER_THREAD,
                "payload count mismatch"
            );
        }
    )+};
}

sharded_smoke! {
    smoke_sharded_hyaline_x2 => hyaline::Hyaline<Tracked<u64>> : 2,
    smoke_sharded_hyaline_x4 => hyaline::Hyaline<Tracked<u64>> : 4,
    smoke_sharded_hyaline_x8 => hyaline::Hyaline<Tracked<u64>> : 8,
    smoke_sharded_hyaline_s_x2 => hyaline::HyalineS<Tracked<u64>> : 2,
    smoke_sharded_hyaline_s_x4 => hyaline::HyalineS<Tracked<u64>> : 4,
    smoke_sharded_hyaline_s_x8 => hyaline::HyalineS<Tracked<u64>> : 8,
    smoke_sharded_epoch_x4 => smr_baselines::Ebr<Tracked<u64>> : 4,
}

// ---------------------------------------------------------------------------
// Structures: the same all-scheme matrix, driven through two structures
// built on `smr_core::typed` — Michael's hash map (list buckets, one of the
// paper's four) and the Michael–Scott queue. Exact drop balance catches a
// structure that leaks nodes, double-retires, or retires something still
// reachable.
// ---------------------------------------------------------------------------

use lockfree_ds::{ListNode, MichaelHashMap, MsQueue, QueueNode};

const STRUCT_OPS: u64 = 300;
const STRUCT_TOTAL: u64 = THREADS as u64 * STRUCT_OPS;

/// Disjoint per-thread key ranges make the counts exact: every insert
/// succeeds (one tracked payload moved into a node) and every remove
/// succeeds (one tracked clone handed back out and dropped here).
fn hashmap_churn<S: Smr<ListNode<u64, Tracked<u64>>>>(config: SmrConfig) -> DropRegistry {
    let registry = DropRegistry::new();
    {
        let map: MichaelHashMap<u64, Tracked<u64>, S> = MichaelHashMap::with_config(config);
        let (reg, map) = (&registry, &map);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                scope.spawn(move || {
                    let mut h = map.smr_handle();
                    let base = t * 10_000;
                    for i in 0..STRUCT_OPS {
                        h.enter();
                        assert!(map.insert(&mut h, base + i, reg.track(base + i)));
                        h.leave();
                    }
                    for i in 0..STRUCT_OPS {
                        h.enter();
                        let v = map.remove(&mut h, &(base + i)).expect("own key present");
                        assert_eq!(*v, base + i, "value under wrong key");
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
    } // Map drop frees whatever retirement had not reclaimed yet.
    registry
}

/// Each thread enqueues one payload then drains one, so the queue ends
/// empty: every payload was cloned out by a dequeue exactly once.
fn msqueue_churn<S: Smr<QueueNode<Tracked<u64>>>>(config: SmrConfig) -> DropRegistry {
    let registry = DropRegistry::new();
    {
        let queue: MsQueue<Tracked<u64>, S> = MsQueue::with_config(config);
        let (reg, queue) = (&registry, &queue);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                scope.spawn(move || {
                    let mut h = queue.smr_handle();
                    for i in 0..STRUCT_OPS {
                        h.enter();
                        queue.enqueue(&mut h, reg.track(t * STRUCT_OPS + i));
                        h.leave();
                        loop {
                            h.enter();
                            let got = queue.dequeue(&mut h);
                            h.leave();
                            if got.is_some() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                    h.flush();
                });
            }
        });
        let mut h = queue.smr_handle();
        h.enter();
        assert!(
            queue.is_empty(&mut h),
            "every enqueue was matched by a dequeue"
        );
        h.leave();
    }
    registry
}

/// Reclaiming schemes × structures: exact drop balance plus the
/// structure-specific payload count.
macro_rules! structure_smoke {
    ($($test:ident => $churn:ident, $scheme:ty, $created:expr),+ $(,)?) => {$(
        #[test]
        fn $test() {
            let registry = $churn::<$scheme>(cfg());
            registry.assert_quiescent();
            assert_eq!(registry.created(), $created, "payload count mismatch");
        }
    )+};
}

/// Like [`structure_smoke!`], but for structures whose operations can
/// clone payloads on *lost* races: the MS queue's dequeue must clone the
/// value before its head-CAS (the node may be retired the instant the CAS
/// succeeds elsewhere), so a lost race creates-and-drops an extra tracked
/// clone. Quiescence stays exact; the created count is a lower bound.
macro_rules! structure_smoke_racy_clones {
    ($($test:ident => $churn:ident, $scheme:ty, $created:expr),+ $(,)?) => {$(
        #[test]
        fn $test() {
            let registry = $churn::<$scheme>(cfg());
            registry.assert_quiescent();
            assert!(registry.created() >= $created, "payload count mismatch");
        }
    )+};
}

structure_smoke! {
    // Hash map: one payload per insert + one clone per remove.
    hashmap_smoke_hyaline => hashmap_churn, hyaline::Hyaline<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_hyaline1 => hashmap_churn, hyaline::Hyaline1<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_hyaline_s => hashmap_churn, hyaline::HyalineS<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_hyaline1_s => hashmap_churn, hyaline::Hyaline1S<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_ebr => hashmap_churn, smr_baselines::Ebr<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_hp => hashmap_churn, smr_baselines::Hp<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_he => hashmap_churn, smr_baselines::He<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_ibr => hashmap_churn, smr_baselines::Ibr<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_crystalline_l => hashmap_churn, hyaline::CrystallineL<_>, 2 * STRUCT_TOTAL,
    hashmap_smoke_crystalline_w => hashmap_churn, hyaline::CrystallineW<_>, 2 * STRUCT_TOTAL,
}

structure_smoke_racy_clones! {
    // MS queue: one payload per enqueue + one clone per *successful*
    // dequeue, plus a clone per lost dequeue race (see the macro docs).
    msqueue_smoke_hyaline => msqueue_churn, hyaline::Hyaline<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_hyaline1 => msqueue_churn, hyaline::Hyaline1<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_hyaline_s => msqueue_churn, hyaline::HyalineS<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_hyaline1_s => msqueue_churn, hyaline::Hyaline1S<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_ebr => msqueue_churn, smr_baselines::Ebr<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_hp => msqueue_churn, smr_baselines::Hp<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_he => msqueue_churn, smr_baselines::He<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_ibr => msqueue_churn, smr_baselines::Ibr<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_crystalline_l => msqueue_churn, hyaline::CrystallineL<_>, 2 * STRUCT_TOTAL,
    msqueue_smoke_crystalline_w => msqueue_churn, hyaline::CrystallineW<_>, 2 * STRUCT_TOTAL,
}

/// Crystalline-L with every retire forced through the handoff cell, per
/// structure: the wait-free path must preserve exact balance under real
/// structure traffic, not just the raw churn above.
#[test]
fn hashmap_smoke_crystalline_l_forced_handoff() {
    let registry = hashmap_churn::<hyaline::CrystallineL<_>>(SmrConfig {
        handoff_attempts: 0,
        ..cfg()
    });
    registry.assert_quiescent();
    assert_eq!(registry.created(), 2 * STRUCT_TOTAL);
}

#[test]
fn msqueue_smoke_crystalline_l_forced_handoff() {
    let registry = msqueue_churn::<hyaline::CrystallineL<_>>(SmrConfig {
        handoff_attempts: 0,
        ..cfg()
    });
    registry.assert_quiescent();
    // Lower bound: lost dequeue races add extra (immediately dropped)
    // clones — see `structure_smoke_racy_clones!`.
    assert!(registry.created() >= 2 * STRUCT_TOTAL);
}

/// Structures with node recycling: real structure traffic (bucket lists,
/// queue links) over pooled node memory, exact balance intact.
#[test]
fn hashmap_smoke_hyaline_recycled() {
    let registry = hashmap_churn::<hyaline::Hyaline<_>>(recycle_cfg());
    registry.assert_quiescent();
    assert_eq!(registry.created(), 2 * STRUCT_TOTAL);
}

#[test]
fn hashmap_smoke_crystalline_l_recycled() {
    let registry = hashmap_churn::<hyaline::CrystallineL<_>>(recycle_cfg());
    registry.assert_quiescent();
    assert_eq!(registry.created(), 2 * STRUCT_TOTAL);
}

#[test]
fn msqueue_smoke_hyaline_recycled() {
    let registry = msqueue_churn::<hyaline::Hyaline<_>>(recycle_cfg());
    registry.assert_quiescent();
    // Lower bound: lost dequeue races add extra (immediately dropped)
    // clones — see `structure_smoke_racy_clones!`.
    assert!(registry.created() >= 2 * STRUCT_TOTAL);
}

/// `Leaky` complements: nothing a structure retires is ever freed, so the
/// survivors are exactly the payloads that went *into* nodes — only clones
/// handed back out (and payloads freed by direct teardown `dealloc`, which
/// bypasses retirement) ever drop.
#[test]
fn hashmap_smoke_leaky() {
    let registry = hashmap_churn::<smr_baselines::Leaky<_>>(cfg());
    // Removed nodes leak, so every inserted payload stays live; the
    // remove-clones dropped in the churn are the only drops.
    assert_eq!(registry.created(), 2 * STRUCT_TOTAL);
    assert_eq!(registry.dropped(), STRUCT_TOTAL);
    assert_eq!(registry.live(), STRUCT_TOTAL as i64);
}

#[test]
fn msqueue_smoke_leaky() {
    let registry = msqueue_churn::<smr_baselines::Leaky<_>>(cfg());
    // Dequeue clones drop in the churn; dequeued nodes leak with their
    // payloads except the last one, which survives as the queue's sentinel
    // and is freed by the queue's own teardown. Lost dequeue races add
    // extra clones to `created` and `dropped` in lockstep (they drop
    // immediately), so only `live` is exact.
    let extra = registry.created() - 2 * STRUCT_TOTAL;
    assert_eq!(registry.dropped(), STRUCT_TOTAL + 1 + extra);
    assert_eq!(registry.live(), STRUCT_TOTAL as i64 - 1);
}
