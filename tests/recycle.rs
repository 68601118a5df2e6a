//! Node-recycling pool semantics through the public scheme API.
//!
//! Five guarantees the recycle layer must uphold regardless of scheme:
//!
//! 1. **Capacity overflow falls back to the real allocator.** A pool sized
//!    far below the churn volume must evict to `dealloc` without leaking or
//!    double-dropping payloads.
//! 2. **Cross-thread recycling balances exactly.** Nodes allocated on one
//!    thread, retired by another, and reissued from the reclaimer's
//!    magazine still drop every payload exactly once.
//! 3. **Layout mismatches fall through.** A pool keyed to one node layout
//!    must hand other layouts straight to the global allocator — no pooled
//!    memory of the wrong size is ever reissued.
//! 4. **Domain drop drains pools with zero leaks.** Allocations resident in
//!    magazines and partitions when the domain dies are returned to the
//!    allocator; their payloads were already dropped at dispose time.
//! 5. **A check-in keeps the magazine warm.** A `HandlePool` round trip on
//!    the default configuration serves the re-taken handle's allocation
//!    from the memory it freed before parking.
//!
//! Payload-level balance is asserted with [`DropRegistry`]-tracked values
//! (a leak shows as a missing drop, a stale reissue as a double drop at the
//! drop site); node-level balance with [`smr_core::SmrStats::balanced`],
//! which recycling must not disturb — pooled residency is a property of the
//! *memory*, not of the logical alloc/free ledger.

use smr_core::{
    Atomic, HandlePool, Magazine, NodePool, Shared, Smr, SmrConfig, SmrHandle, SmrStats,
};
use smr_testkit::{DropRegistry, Tracked};
use std::sync::atomic::Ordering;

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 2_000;

fn base_cfg() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 8,
        era_freq: 16,
        scan_threshold: 16,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

/// Shared-slot churn: every thread alternates private alloc/retire with
/// publishing into a common slot, so nodes routinely migrate between
/// threads before they are retired and recycled. Returns
/// `(pool_hits, recycled)` sampled after all handles have flushed but
/// before the domain drops, plus the registry for payload assertions.
fn churn<S: Smr<Tracked<u64>>>(config: SmrConfig, registry: &DropRegistry) -> (u64, u64) {
    let domain = S::with_config(config);
    let slot: Atomic<Tracked<u64>> = Atomic::null();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let domain = &domain;
            let slot = &slot;
            scope.spawn(move || {
                let mut h = domain.handle();
                for i in 0..OPS_PER_THREAD {
                    h.enter();
                    let node = h.alloc(registry.track(t * OPS_PER_THREAD + i));
                    if i % 2 == 0 {
                        let prev = slot.swap(node, Ordering::AcqRel);
                        if !prev.is_null() {
                            // SAFETY: `swap` made `prev` unreachable and
                            // this thread is its only extractor.
                            unsafe { h.retire(prev) };
                        }
                    } else {
                        // SAFETY: never published; no other reference.
                        unsafe { h.retire(node) };
                    }
                    h.leave();
                }
                h.flush();
            });
        }
    });
    let mut h = domain.handle();
    h.enter();
    let last = slot.swap(Shared::null(), Ordering::AcqRel);
    if !last.is_null() {
        // SAFETY: the slot is private now; `last` has no other owner.
        unsafe { h.retire(last) };
    }
    h.leave();
    h.flush();
    drop(h);
    let stats = domain.stats();
    assert!(
        stats.balanced(),
        "{}: recycling disturbed the logical ledger (allocated {} != freed {} + deallocated {})",
        S::name(),
        stats.allocated(),
        stats.freed(),
        stats.deallocated()
    );
    (stats.pool_hits(), stats.recycled())
    // Domain drop drains magazines and partitions back to the allocator.
}

/// Scenario 1: the pool is sized at a small fraction of the churn volume,
/// so most disposals overflow the partitions and must take the real-dealloc
/// fallback. Payload balance must survive the constant evictions.
#[test]
fn capacity_overflow_falls_back_to_real_dealloc() {
    let registry = DropRegistry::new();
    let (_, recycled) = churn::<smr_baselines::Ebr<Tracked<u64>>>(
        SmrConfig {
            recycle: true,
            recycle_capacity: 8,
            recycle_magazine: 2,
            ..base_cfg()
        },
        &registry,
    );
    // The reclaim path routed through the pool far beyond its capacity, so
    // overflow evictions (real deallocs of recycled nodes) definitely ran.
    assert!(
        recycled > 8 * 2,
        "churn never overflowed the pool (recycled = {recycled})"
    );
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

/// Scenario 2: with a comfortably sized pool, allocations are served from
/// memory that other threads released — and every payload still drops
/// exactly once. Run for Hyaline (batched, deferred free) and EBR (eager
/// scan free) since their reclaim paths reach `dispose` very differently.
#[test]
fn cross_thread_recycle_balances_hyaline() {
    let registry = DropRegistry::new();
    let (hits, recycled) =
        churn::<hyaline::Hyaline<Tracked<u64>>>(recycling(base_cfg()), &registry);
    assert!(hits > 0, "pool never served an allocation");
    assert!(recycled > 0, "reclaim path never reached the pool");
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

#[test]
fn cross_thread_recycle_balances_crystalline_l() {
    let registry = DropRegistry::new();
    let (hits, recycled) =
        churn::<crystalline::CrystallineL<Tracked<u64>>>(recycling(base_cfg()), &registry);
    assert!(hits > 0, "pool never served an allocation");
    assert!(recycled > 0, "reclaim path never reached the pool");
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

fn recycling(base: SmrConfig) -> SmrConfig {
    SmrConfig {
        recycle: true,
        recycle_capacity: 4096,
        recycle_magazine: 32,
        ..base
    }
}

/// Scenario 3: a pool keyed to one node layout must pass other layouts
/// straight through to the global allocator, while same-layout traffic
/// keeps cycling through the pool. Exercised on [`NodePool`] directly —
/// inside a scheme the pool is keyed to the domain's own node type, so the
/// fall-through arm is reachable only through this API.
#[test]
fn layout_mismatch_falls_through_to_plain_alloc() {
    let registry = DropRegistry::new();
    let stats = SmrStats::new();
    let config = recycling(SmrConfig::default());
    let pool = NodePool::for_node::<u64>(&config);
    assert!(pool.enabled());
    let mut mag: Magazine = pool.magazine();

    // Same-layout round trip: the second alloc reuses the first node's
    // memory (dispose parked it in this magazine, alloc pops it back).
    let first = pool.alloc::<u64>(&mut mag, &stats, 7);
    let first_addr = first.as_ptr() as usize;
    // SAFETY: `first` is unpublished and exclusively owned; payload live.
    unsafe { pool.dispose(&mut mag, &stats, first.as_ptr(), true) };
    let second = pool.alloc::<u64>(&mut mag, &stats, 8);
    assert_eq!(
        second.as_ptr() as usize,
        first_addr,
        "same-layout alloc did not reuse the pooled node"
    );
    // SAFETY: as above.
    unsafe { pool.dispose(&mut mag, &stats, second.as_ptr(), true) };

    // Mismatched layout: a wider payload must bypass the pool entirely —
    // its dispose drops the tracked payload and frees for real, touching
    // none of the pool counters.
    let wide = pool.alloc::<(Tracked<u64>, [u64; 8])>(&mut mag, &stats, (registry.track(1), [0; 8]));
    // SAFETY: `wide` is unpublished and exclusively owned; payload live.
    unsafe { pool.dispose(&mut mag, &stats, wide.as_ptr(), true) };
    registry.assert_quiescent();

    pool.flush(&mut mag, &stats);
    assert_eq!(stats.pool_hits(), 1, "only the same-layout realloc may hit");
    assert_eq!(stats.pool_misses(), 1, "only the first cold alloc may miss");
    assert_eq!(stats.recycled(), 2, "mismatched dispose must not be pooled");
    // Pool drop returns the parked allocation to the global allocator.
}

/// Scenario 4: tear the domain down while the pool is still full of parked
/// allocations. The domain's drop must hand every one of them back to the
/// allocator, and since dispose already dropped the payloads, the registry
/// balance is exact — nothing drops twice during the drain.
#[test]
fn domain_drop_drains_pools_without_leaks() {
    let registry = DropRegistry::new();
    let (hits, recycled) =
        churn::<hyaline::Hyaline<Tracked<u64>>>(recycling(base_cfg()), &registry);
    // The pool was comfortably sized, so allocations were genuinely parked
    // (and reissued) rather than evicted straight back to the allocator.
    assert!(hits > 0 && recycled > 0, "pool saw no traffic to drain");
    // `churn` dropped the domain on exit; the drain already happened.
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

/// Scenario 5: one thread's `HandlePool` round trip on the default
/// configuration, which recycles. A check-in flushes the handle, freeing
/// what it retired into its magazine, and keeps the magazine; the next
/// checkout re-takes the same handle, whose allocation is a pool hit.
fn check_in_round_trip<S: Smr<Tracked<u64>>>() {
    let registry = DropRegistry::new();
    {
        let domain = S::with_config(base_cfg());
        let pool = HandlePool::new(&domain, 1);
        let mut addrs = Vec::new();
        for round in 0..2 {
            let mut h = pool.checkout();
            h.enter();
            let node = h.alloc(registry.track(round));
            addrs.push(node.as_raw());
            // SAFETY: never published; no other reference.
            unsafe { h.retire(node) };
            h.leave();
            drop(h); // check-in: flush, then park
            assert_eq!(domain.stats().unreclaimed(), 0, "{}: the flush freed it", S::name());
        }
        assert_eq!(pool.issued(), 1, "{}: the checkout re-took the handle", S::name());
        assert_eq!(addrs[1], addrs[0], "{}: the second allocation missed", S::name());
        drop(pool); // drops the handle, which publishes its pool counters
        let stats = domain.stats();
        assert_eq!((stats.pool_hits(), stats.pool_misses()), (1, 1), "{}", S::name());
        assert!(stats.balanced(), "{}", S::name());
    }
    registry.assert_quiescent();
    assert_eq!(registry.created(), 2);
}

#[test]
fn handle_pool_check_in_keeps_magazine_warm_hyaline_s() {
    check_in_round_trip::<hyaline::HyalineS<Tracked<u64>>>();
}

#[test]
fn handle_pool_check_in_keeps_magazine_warm_epoch() {
    check_in_round_trip::<smr_baselines::Ebr<Tracked<u64>>>();
}
