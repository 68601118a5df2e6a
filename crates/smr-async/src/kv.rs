//! An end-to-end KV cache service: the connection-scale oversubscription
//! demo.
//!
//! This is the paper's Figure-8/9 oversubscription story made concrete:
//! `connections` lightweight tasks (tens of thousands) churn get/put/delete
//! against one concurrent map while sharing a handle registry capped far
//! below the task count — typically ≤ 2× the hardware threads. Each
//! connection awaits a [`TaskGuard`] per burst, so handle pressure turns
//! into FIFO awaiting rather than thread blocking, and every check-in is
//! deferred to the per-shard background reclaimers of
//! [`ReclaimRouter`].
//!
//! Key choice is zipfian-ish (the minimum of two uniform draws, skewing
//! toward low keys) from the offline `rand` shim, so hot keys contend the
//! way a real cache's do.
//!
//! The run reports throughput **and** `peak_unreclaimed` — the largest
//! domain-wide retired-minus-freed estimate sampled during the run — which
//! is what lands in the JSONL pipeline via the `kv-service` sweep and is
//! gated by `perfgate`: a reclaimer regression shows up as a growing peak
//! even when Mops/s looks healthy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lockfree_ds::ConcurrentMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smr_core::{HandlePool, Smr, SmrHandle};

use crate::executor::{block_on, scope, yield_now};
use crate::guard::TaskGuard;
use crate::reclaimer::{ReclaimRouter, ReclaimStats};
use crate::sync::oneshot;

/// Workload shape for [`run_kv_service`].
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Simulated concurrent connections (cooperative tasks, not threads).
    pub connections: usize,
    /// Operations each connection performs over its lifetime.
    pub ops_per_connection: usize,
    /// Operations per guard checkout: a connection holds its handle for
    /// one burst, then returns it (dirty) and yields.
    pub burst: usize,
    /// Keys are drawn from `0..key_range`.
    pub key_range: u64,
    /// Percentage of operations that are gets.
    pub get_pct: u32,
    /// Percentage of operations that are puts (the rest are deletes).
    pub put_pct: u32,
    /// Background reclaimer tasks (one hand-off queue each).
    pub reclaim_shards: usize,
    /// Capacity of each reclaimer's ticket queue.
    pub queue_capacity: usize,
    /// Executor worker threads.
    pub workers: usize,
    /// Workload RNG seed; each connection derives its own stream.
    pub seed: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            connections: 256,
            ops_per_connection: 64,
            burst: 16,
            key_range: 1024,
            get_pct: 70,
            put_pct: 20,
            reclaim_shards: 2,
            queue_capacity: 64,
            workers: 2,
            seed: 0x5eed_cafe,
        }
    }
}

/// What a [`run_kv_service`] run measured.
#[derive(Debug, Clone, Copy)]
pub struct KvReport {
    /// Total completed map operations.
    pub ops: u64,
    /// Wall-clock duration of the run (spawn to quiescence).
    pub elapsed: Duration,
    /// Largest `unreclaimed_estimate` observed during the run.
    pub peak_unreclaimed: u64,
    /// Aggregated reclaimer-side work across all shards.
    pub reclaim: ReclaimStats,
}

impl KvReport {
    /// Millions of operations per second.
    pub fn mops(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / secs / 1e6
    }
}

/// Zipfian-ish skew: the minimum of two uniform draws concentrates mass
/// on low keys without needing floating-point sampling from the shim.
fn skewed_key(rng: &mut SmallRng, range: u64) -> u64 {
    let a = rng.gen_range(0..range);
    let b = rng.gen_range(0..range);
    a.min(b)
}

/// Drives the full service against `map`: spawns one task per connection
/// plus the per-shard reclaimers, runs to quiescence, and returns the
/// measurements. The caller owns the map and the pool, so the registry cap
/// (pool capacity) is an explicit knob — the oversubscription story is
/// `cfg.connections` ≫ `pool.capacity()`.
///
/// # Panics
///
/// Panics if `get_pct + put_pct > 100` or any config field is zero where
/// that makes no sense (connections, burst, key_range, workers).
pub fn run_kv_service<'d, S, M>(
    map: &'d M,
    pool: &HandlePool<'d, M::Node, S>,
    cfg: &KvConfig,
) -> KvReport
where
    S: Smr<M::Node>,
    M: ConcurrentMap<S>,
{
    assert!(cfg.get_pct + cfg.put_pct <= 100, "op mix over 100%");
    assert!(cfg.connections >= 1, "need at least one connection");
    assert!(cfg.burst >= 1, "burst must make progress");
    assert!(cfg.key_range >= 1, "empty key range");
    assert!(cfg.workers >= 1, "executor needs a worker");

    let router = ReclaimRouter::new(cfg.reclaim_shards, cfg.queue_capacity);
    let gate = router.shutdown_gate(cfg.connections);
    let ops = AtomicU64::new(0);
    let peak = AtomicU64::new(0);
    let started = Instant::now();

    let reclaim = scope(cfg.workers, |sp| {
        let mut stat_rxs = Vec::with_capacity(router.shards());
        for shard in 0..router.shards() {
            let (tx, rx) = oneshot();
            let router = &router;
            sp.spawn(async move {
                tx.send(router.run_shard(shard, pool).await);
            });
            stat_rxs.push(rx);
        }
        for conn in 0..cfg.connections {
            let router = &router;
            let gate = &gate;
            let ops = &ops;
            let peak = &peak;
            let cfg = cfg.clone();
            sp.spawn(async move {
                // Drop-guard departure: the gate closes the reclaimer
                // queues when the last connection ends, panic or not.
                let _departure = gate.departure();
                let mut rng = SmallRng::seed_from_u64(
                    cfg.seed ^ (conn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                let mut remaining = cfg.ops_per_connection;
                while remaining > 0 {
                    let burst = cfg.burst.min(remaining);
                    {
                        let mut guard = TaskGuard::acquire_deferred(pool, router.queue(conn)).await;
                        for _ in 0..burst {
                            let key = skewed_key(&mut rng, cfg.key_range);
                            let roll: u32 = rng.gen_range(0..100);
                            guard.enter();
                            if roll < cfg.get_pct {
                                map.map_get(&mut guard, key);
                            } else if roll < cfg.get_pct + cfg.put_pct {
                                map.map_insert(&mut guard, key, conn as u64 ^ key);
                            } else {
                                map.map_remove(&mut guard, key);
                            }
                            guard.leave();
                        }
                    } // dirty check-in + reclaimer ticket
                    ops.fetch_add(burst as u64, Ordering::Relaxed);
                    peak.fetch_max(map.domain().unreclaimed_estimate(), Ordering::Relaxed);
                    remaining -= burst;
                    yield_now().await;
                }
            });
        }
        // The workers drive the fleet while this thread collects the
        // shutdown handshakes; each resolves once its reclaimer has
        // drained, swept, and rejoined.
        let mut total = ReclaimStats::default();
        for rx in stat_rxs {
            if let Some(stats) = block_on(rx) {
                total.flushed += stats.flushed;
                total.vacuous += stats.vacuous;
                total.swept += stats.swept;
            }
        }
        total
    });

    let elapsed = started.elapsed();
    debug_assert_eq!(pool.dirty(), 0, "shutdown sweep left dirty handles");
    KvReport {
        ops: ops.load(Ordering::Relaxed),
        elapsed,
        peak_unreclaimed: peak.load(Ordering::Relaxed),
        reclaim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockfree_ds::MichaelHashMap;
    use smr_baselines::Ebr;
    use smr_core::{Sharded, SmrConfig};

    #[test]
    fn kv_service_runs_to_quiescence() {
        let config = SmrConfig {
            slots: 8,
            batch_min: 4,
            max_threads: 8,
            ..SmrConfig::default()
        };
        let map: MichaelHashMap<u64, u64, Ebr<_>> = MichaelHashMap::with_config(config);
        let pool = HandlePool::new(map.domain(), 4);
        let cfg = KvConfig {
            connections: 128,
            ops_per_connection: 32,
            burst: 8,
            ..KvConfig::default()
        };
        let report = run_kv_service(&map, &pool, &cfg);
        assert_eq!(report.ops, 128 * 32);
        assert_eq!(pool.checked_out(), 0, "every guard returned its handle");
        assert_eq!(pool.dirty(), 0, "every dirty handle was flushed");
        assert!(pool.issued() <= 4, "registry cap respected");
    }

    #[test]
    fn kv_service_drives_sharded_domains() {
        let config = SmrConfig {
            slots: 8,
            batch_min: 4,
            max_threads: 8,
            shards: 2,
            ..SmrConfig::default()
        };
        let map: MichaelHashMap<u64, u64, Sharded<Ebr<_>>> = MichaelHashMap::with_config(config);
        let pool = HandlePool::new(map.domain(), 4);
        let cfg = KvConfig {
            connections: 64,
            ops_per_connection: 16,
            burst: 4,
            reclaim_shards: 2,
            ..KvConfig::default()
        };
        let report = run_kv_service(&map, &pool, &cfg);
        assert_eq!(report.ops, 64 * 16);
        assert_eq!(pool.dirty(), 0);
    }
}
