//! Smoke matrix for the adapters and the structures: `Sharded<S>` under a
//! key-pinned churn, and Michael's hash map and the Michael–Scott queue
//! (both built on `smr_core::typed`) through every scheme, forced handoff
//! and recycled node memory. Each cell checks exact drop balance with
//! [`DropRegistry`]-tracked payloads (`Leaky` asserts the complement:
//! nothing retired is ever freed). The per-scheme churns without a
//! structure are conformance cases (`smr_testkit::conformance`); the
//! `smoke_*` and `recycle_smoke_*` ids run them here, one scheme each.

use hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
use smr_testkit::conformance::{config as cfg, recycled_config};
use smr_testkit::conformance_case;
use smr_testkit::drop_tracker::{DropRegistry, Tracked};
use std::sync::atomic::Ordering;

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 500;

fn sharded_cfg(shards: usize) -> SmrConfig {
    SmrConfig {
        // Per-shard slot budget stays ≥ 1 for every tested shard count.
        slots: 8.max(shards),
        shards,
        ..cfg()
    }
}

/// The sharded churn: one shared slot **per shard**, and every operation
/// pins its shard before touching that shard's slot — the key-partition
/// discipline a key-partitioned structure (the hash map) follows. Nodes are
/// allocated, published, displaced and retired strictly within one shard,
/// while the four threads keep rotating across all of them.
fn sharded_churn<S: Smr<Tracked<u64>>>(shards: usize) -> DropRegistry {
    let registry = DropRegistry::new();
    {
        let domain: smr_core::Sharded<S> = Smr::<Tracked<u64>>::with_config(sharded_cfg(shards));
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
    assert_eq!(registry.created(), 2 * STRUCT_TOTAL);
    registry
}

/// Each thread enqueues one payload then drains one, so the queue ends
/// empty: every payload was cloned out by a dequeue exactly once. The
/// dequeue must clone the value before its head-CAS (the node may be
/// retired the instant the CAS succeeds elsewhere), so a lost race creates
/// and drops an extra tracked clone: the created count is a lower bound.
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
    assert!(registry.created() >= 2 * STRUCT_TOTAL);
    registry
}

/// Reclaiming schemes × structures: exact drop balance on top of the
/// churn's own payload count.
macro_rules! structure_smoke {
    ($($test:ident => $churn:expr;)+) => {$(
        #[test]
        fn $test() {
            $churn.assert_quiescent();
        }
    )+};
}

/// Crystalline-L with every retire forced through the handoff cell: the
/// wait-free path must keep exact balance under structure traffic.
fn handoff_cfg() -> SmrConfig {
    SmrConfig {
        handoff_attempts: 0,
        ..cfg()
    }
}

structure_smoke! {
    hashmap_smoke_hyaline => hashmap_churn::<hyaline::Hyaline<_>>(cfg());
    hashmap_smoke_hyaline1 => hashmap_churn::<hyaline::Hyaline1<_>>(cfg());
    hashmap_smoke_hyaline_s => hashmap_churn::<hyaline::HyalineS<_>>(cfg());
    hashmap_smoke_hyaline1_s => hashmap_churn::<hyaline::Hyaline1S<_>>(cfg());
    hashmap_smoke_ebr => hashmap_churn::<smr_baselines::Ebr<_>>(cfg());
    hashmap_smoke_hp => hashmap_churn::<smr_baselines::Hp<_>>(cfg());
    hashmap_smoke_he => hashmap_churn::<smr_baselines::He<_>>(cfg());
    hashmap_smoke_ibr => hashmap_churn::<smr_baselines::Ibr<_>>(cfg());
    hashmap_smoke_crystalline_l => hashmap_churn::<hyaline::CrystallineL<_>>(cfg());
    hashmap_smoke_crystalline_w => hashmap_churn::<hyaline::CrystallineW<_>>(cfg());
    msqueue_smoke_hyaline => msqueue_churn::<hyaline::Hyaline<_>>(cfg());
    msqueue_smoke_hyaline1 => msqueue_churn::<hyaline::Hyaline1<_>>(cfg());
    msqueue_smoke_hyaline_s => msqueue_churn::<hyaline::HyalineS<_>>(cfg());
    msqueue_smoke_hyaline1_s => msqueue_churn::<hyaline::Hyaline1S<_>>(cfg());
    msqueue_smoke_ebr => msqueue_churn::<smr_baselines::Ebr<_>>(cfg());
    msqueue_smoke_hp => msqueue_churn::<smr_baselines::Hp<_>>(cfg());
    msqueue_smoke_he => msqueue_churn::<smr_baselines::He<_>>(cfg());
    msqueue_smoke_ibr => msqueue_churn::<smr_baselines::Ibr<_>>(cfg());
    msqueue_smoke_crystalline_l => msqueue_churn::<hyaline::CrystallineL<_>>(cfg());
    msqueue_smoke_crystalline_w => msqueue_churn::<hyaline::CrystallineW<_>>(cfg());
    hashmap_smoke_crystalline_l_forced_handoff => hashmap_churn::<hyaline::CrystallineL<_>>(handoff_cfg());
    msqueue_smoke_crystalline_l_forced_handoff => msqueue_churn::<hyaline::CrystallineL<_>>(handoff_cfg());
    // Node recycling: bucket lists and queue links over pooled node memory.
    hashmap_smoke_hyaline_recycled => hashmap_churn::<hyaline::Hyaline<_>>(recycled_config());
    hashmap_smoke_crystalline_l_recycled => hashmap_churn::<hyaline::CrystallineL<_>>(recycled_config());
    msqueue_smoke_hyaline_recycled => msqueue_churn::<hyaline::Hyaline<_>>(recycled_config());
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

// The conformance churns without a structure, plain and over recycled
// node memory, under the ids this matrix has always used.
conformance_case! {
    leaks_everything: smoke_leaky_leaks_everything = Leaky;
    smoke: smoke_crystalline_l = CrystallineL, smoke_crystalline_w = CrystallineW, smoke_ebr = Ebr,
        smoke_he = He, smoke_hp = Hp, smoke_hyaline = Hyaline, smoke_hyaline1 = Hyaline1,
        smoke_hyaline1_s = Hyaline1S, smoke_hyaline_s = HyalineS, smoke_ibr = Ibr;
    smoke_forced_handoff: smoke_crystalline_l_forced_handoff = CrystallineL;
    smoke_recycled: recycle_smoke_crystalline_l = CrystallineL,
        recycle_smoke_crystalline_w = CrystallineW, recycle_smoke_ebr = Ebr, recycle_smoke_he = He,
        recycle_smoke_hp = Hp, recycle_smoke_hyaline = Hyaline, recycle_smoke_hyaline1 = Hyaline1,
        recycle_smoke_hyaline1_s = Hyaline1S, recycle_smoke_hyaline_s = HyalineS,
        recycle_smoke_ibr = Ibr;
}
