//! Background reclaimer tasks: flushing deferred retire lists off the
//! hot path.
//!
//! Crystalline's observation (PAPERS.md) is that Hyaline's batch skeleton
//! thrives when retire work moves off the operation's critical path. Here
//! that split is explicit: connection guards park their handles **dirty**
//! (retire batch accumulated, not yet flushed into the domain's slot
//! lists) and push one [`ReclaimTicket`] per dirty handle into their
//! shard's bounded [`DrainQueue`]; one reclaimer task per shard drains
//! tickets and performs the matching [`HandlePool::flush_one_dirty`].
//!
//! The protocol's invariant — exactly one ticket in flight per dirty
//! handle, every ticket eventually matched by one flush (or absorbed
//! inline on Full/Closed fallback) — is what `interleave::reclaimer`
//! model-checks exhaustively.
//!
//! **How often the hand-off happens.** Measured, not assumed: on the
//! `kv-service` benchmark (256 connections on 2 workers, 64-entry queues)
//! about 8 check-ins in a thousand find room in their queue. A reclaimer
//! parked on its empty queue is woken through the executor's injector,
//! which a worker serves before its own queue; but one that yields
//! between tickets goes to the back of its worker's run queue, behind
//! about 128 connection tasks, and its queue fills meanwhile. Per-worker
//! queues left that rate where the shared FIFO had it
//! (`reclaim_vacuous_per_kreq` ≈ 7.7 → 7.9, 4 `--trace 1` pairs):
//! **a refused hand-off is the normal case**, and
//! [`TaskGuard`](crate::TaskGuard) therefore asks
//! [`DrainQueue::is_refusing`] before it parks anything dirty and pays for
//! a refusal with one relaxed load. Of the tickets that are taken, a
//! reclaimer's flush found a dirty handle for 1–2 requests in a thousand
//! (`trace.kv-service.reclaim_flushed_per_kreq`) while the pool re-issued
//! handles in stack order; now that a worker re-takes the handle it just
//! parked, that handle's next check-in has flushed it long before the
//! ticket is drained, and the rate is ≈ 0.03 with ≈ 8 vacuous tickets
//! (`reclaim_vacuous_per_kreq`). The layer earns its keep only where
//! reclaimers get to run — few connections per worker, or flushes long
//! enough to be worth moving (the registry schemes' scans); whether to
//! feed it (a priority lane for reclaimer tasks) or delete it is open in
//! ROADMAP.md.
//!
//! **Shutdown handshake.** The service wraps its connection fleet in a
//! [`ShutdownGate`]; each connection holds a [`Departure`] drop-guard, so
//! even a panicking connection counts down. When the last connection
//! departs the gate closes every queue: reclaimers drain the remaining
//! backlog ([`DrainQueue::recv`] keeps yielding queued tickets after
//! close), run one final [`HandlePool::flush_dirty`] sweep, and return
//! their [`ReclaimStats`] — at which point no retire batch is left parked
//! dirty.

use std::sync::atomic::{AtomicUsize, Ordering};

use smr_core::{HandlePool, Smr};

use crate::executor::yield_now;
use crate::queue::DrainQueue;

/// One unit of deferred flush work: "a dirty handle is parked, flush one".
///
/// Deliberately carries no handle identity — reclaimers flush *any* dirty
/// handle, so a dirty handle re-issued to a new task (the pool serves
/// dirty handles to keep latency down) simply keeps accumulating and the
/// ticket matches whichever dirty handle is parked when it drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimTicket;

/// What one reclaimer task did before rejoining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Tickets received whose flush found a dirty handle.
    pub flushed: usize,
    /// Tickets received that found no dirty handle (it had been re-issued
    /// or flushed inline by a Full/Closed fallback).
    pub vacuous: usize,
    /// Dirty handles flushed by the final shutdown sweep.
    pub swept: usize,
}

/// Routes deferred-flush tickets to per-shard reclaimer queues.
#[derive(Debug)]
pub struct ReclaimRouter {
    queues: Vec<DrainQueue<ReclaimTicket>>,
}

impl ReclaimRouter {
    /// One bounded queue (capacity `queue_capacity`) per reclaimer shard.
    pub fn new(shards: usize, queue_capacity: usize) -> Self {
        assert!(shards >= 1, "need at least one reclaimer shard");
        ReclaimRouter {
            queues: (0..shards)
                .map(|_| DrainQueue::new(queue_capacity))
                .collect(),
        }
    }

    /// Number of reclaimer shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The queue a producer with affinity `key` (connection id, shard
    /// index, …) should push to.
    pub fn queue(&self, key: usize) -> &DrainQueue<ReclaimTicket> {
        &self.queues[key % self.queues.len()]
    }

    /// Closes every shard queue, releasing the reclaimers to drain and
    /// sweep. Idempotent.
    pub fn close_all(&self) {
        for queue in &self.queues {
            queue.close();
        }
    }

    /// Tickets currently queued across all shards.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// A [`ShutdownGate`] that calls [`close_all`](ReclaimRouter::close_all)
    /// after `parties` departures.
    pub fn shutdown_gate(&self, parties: usize) -> ShutdownGate<'_> {
        ShutdownGate {
            router: self,
            remaining: AtomicUsize::new(parties),
        }
    }

    /// The reclaimer task body for one shard: drain tickets (flushing one
    /// dirty handle each, yielding between flushes so ten thousand
    /// connections are not starved of workers), then — once the queue is
    /// closed and empty — sweep every remaining dirty handle and rejoin.
    pub async fn run_shard<T, S>(&self, shard: usize, pool: &HandlePool<'_, T, S>) -> ReclaimStats
    where
        T: Send + 'static,
        S: Smr<T>,
    {
        let queue = &self.queues[shard % self.queues.len()];
        let mut stats = ReclaimStats::default();
        while let Some(ReclaimTicket) = queue.recv().await {
            if pool.flush_one_dirty() {
                stats.flushed += 1;
            } else {
                stats.vacuous += 1;
            }
            yield_now().await;
        }
        // Queue closed and drained: anything still parked dirty (e.g. a
        // ticket absorbed by an inline Closed-fallback on another shard)
        // is swept here so the domain sees every retire before we rejoin.
        stats.swept = pool.flush_dirty();
        stats
    }
}

/// Counts task departures and closes the router's queues after the last
/// one. Handed out as [`Departure`] drop-guards so panicking tasks still
/// count down — the shutdown handshake cannot hang on a lost decrement.
#[derive(Debug)]
pub struct ShutdownGate<'a> {
    router: &'a ReclaimRouter,
    remaining: AtomicUsize,
}

impl<'a> ShutdownGate<'a> {
    /// Registers one party; dropping the returned guard records its
    /// departure.
    pub fn departure(&'a self) -> Departure<'a> {
        Departure { gate: self }
    }

    /// Parties that have not yet departed.
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }
}

/// Drop-guard for one [`ShutdownGate`] party.
#[derive(Debug)]
pub struct Departure<'a> {
    gate: &'a ShutdownGate<'a>,
}

impl Drop for Departure<'_> {
    fn drop(&mut self) {
        if self.gate.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.gate.router.close_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{block_on, scope, yield_now};
    use crate::guard::TaskGuard;
    use smr_baselines::Ebr;
    use smr_core::{SmrConfig, SmrHandle};
    use smr_testkit::drop_tracker::{DropRegistry, Tracked};

    fn config() -> SmrConfig {
        SmrConfig {
            slots: 4,
            batch_min: 2,
            max_threads: 4,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn reclaimers_drain_every_ticket_and_sweep() {
        let registry = DropRegistry::new();
        {
            let domain: Ebr<Tracked<u64>> = Ebr::with_config(config());
            let pool = HandlePool::new(&domain, 2);
            let router = ReclaimRouter::new(2, 16);
            let gate = router.shutdown_gate(24);
            scope(2, |sp| {
                for shard in 0..router.shards() {
                    let router = &router;
                    let pool = &pool;
                    sp.spawn(async move {
                        let stats = router.run_shard(shard, pool).await;
                        // Every ticket is accounted for, one way or the other.
                        let _ = stats;
                    });
                }
                for conn in 0..24usize {
                    let router = &router;
                    let pool = &pool;
                    let gate = &gate;
                    let registry = &registry;
                    sp.spawn(async move {
                        let _departure = gate.departure();
                        let mut guard =
                            TaskGuard::acquire_deferred(pool, router.queue(conn)).await;
                        guard.enter();
                        let node = guard.alloc(registry.track(conn as u64));
                        // SAFETY: freshly allocated, never published.
                        unsafe { guard.retire(node) };
                        guard.leave();
                        drop(guard);
                        yield_now().await;
                    });
                }
            });
            assert_eq!(pool.dirty(), 0, "shutdown sweep left nothing dirty");
            assert_eq!(router.backlog(), 0, "no ticket dropped");
        }
        registry.assert_quiescent();
    }

    #[test]
    fn gate_closes_after_last_departure_even_on_panic() {
        let router = ReclaimRouter::new(1, 4);
        let gate = router.shutdown_gate(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _departure = gate.departure();
            panic!("connection died");
        }));
        assert!(outcome.is_err());
        assert!(!router.queue(0).is_closed(), "one party remains");
        drop(gate.departure());
        assert!(router.queue(0).is_closed(), "last departure closed");
    }

    #[test]
    fn run_shard_returns_after_close_with_empty_queue() {
        let domain: Ebr<u64> = Ebr::with_config(config());
        let pool = HandlePool::new(&domain, 2);
        let router = ReclaimRouter::new(1, 4);
        router.close_all();
        let stats = block_on(router.run_shard(0, &pool));
        assert_eq!(stats, ReclaimStats::default());
    }
}
