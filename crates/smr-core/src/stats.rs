//! Allocation / retire / free accounting.
//!
//! The paper's Figures 9, 12, 14 and 16 plot the *average number of retired
//! but not yet reclaimed objects per operation*, and the robustness test
//! (Figure 10a) plots the same quantity under stalled threads. Those metrics
//! are derived from the three counters kept here.
//!
//! Threads buffer updates in a [`LocalStats`] and flush them to the shared
//! [`SmrStats`] periodically so the accounting does not itself become a
//! contended hot spot that would distort throughput measurements.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters for one reclamation domain.
#[derive(Debug, Default)]
pub struct SmrStats {
    allocated: CachePadded<AtomicU64>,
    retired: CachePadded<AtomicU64>,
    freed: CachePadded<AtomicU64>,
    deallocated: CachePadded<AtomicU64>,
    pool_hits: CachePadded<AtomicU64>,
    pool_misses: CachePadded<AtomicU64>,
    recycled: CachePadded<AtomicU64>,
}

impl SmrStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to the allocation counter.
    #[inline]
    pub fn add_allocated(&self, n: u64) {
        self.allocated.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the retire counter.
    #[inline]
    pub fn add_retired(&self, n: u64) {
        self.retired.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the free counter.
    #[inline]
    pub fn add_freed(&self, n: u64) {
        self.freed.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the exclusive-deallocation counter (nodes freed directly via
    /// [`SmrHandle::dealloc`](crate::SmrHandle::dealloc) without ever being
    /// retired — e.g. a node whose publishing CAS lost, or nodes freed by a
    /// data structure's `Drop`).
    #[inline]
    pub fn add_deallocated(&self, n: u64) {
        self.deallocated.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the pool-hit counter (allocations served from the recycle
    /// pool instead of the global allocator).
    #[inline]
    pub fn add_pool_hits(&self, n: u64) {
        self.pool_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the pool-miss counter (allocations that fell through to the
    /// global allocator while recycling was enabled).
    #[inline]
    pub fn add_pool_misses(&self, n: u64) {
        self.pool_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the recycled counter (reclaimed nodes whose memory was handed
    /// back to the recycle pool instead of being freed).
    #[inline]
    pub fn add_recycled(&self, n: u64) {
        self.recycled.fetch_add(n, Ordering::Relaxed);
    }

    /// Total nodes allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Total nodes retired.
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// Total nodes freed through the reclamation path.
    pub fn freed(&self) -> u64 {
        self.freed.load(Ordering::Relaxed)
    }

    /// Total nodes deallocated directly while exclusively owned.
    pub fn deallocated(&self) -> u64 {
        self.deallocated.load(Ordering::Relaxed)
    }

    /// Allocations served from the recycle pool. Load-only sampling, like
    /// [`SmrStats::unreclaimed`]: cheap to read mid-run. The three pool
    /// counters are buffered per handle, 64 events at a time, and exact
    /// once every handle has dropped; a handle's `flush` does not publish
    /// them.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits.load(Ordering::Relaxed)
    }

    /// Allocations that fell through to the global allocator while recycling
    /// was enabled. Zero when recycling is off.
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses.load(Ordering::Relaxed)
    }

    /// Reclaimed nodes whose memory was handed to the recycle pool instead
    /// of being freed. (A pooled node evicted later by a capacity overflow
    /// still counts: the counter tracks reclaim-path routing, not residency.)
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Whether every allocated node has been released again
    /// (`allocated == freed + deallocated`). Test suites assert this after
    /// domain teardown to catch leaks and double accounting.
    pub fn balanced(&self) -> bool {
        self.allocated() == self.freed() + self.deallocated()
    }

    /// Retired-but-not-yet-freed nodes right now (the paper's "unreclaimed
    /// objects" metric). Saturating: concurrent flushes may transiently make
    /// `freed` overtake `retired`.
    pub fn unreclaimed(&self) -> u64 {
        self.retired().saturating_sub(self.freed())
    }

    /// Overwrites these counters with the sums over `parts`.
    ///
    /// [`Sharded`](crate::Sharded) keeps one aggregate `SmrStats` and
    /// refreshes it from the per-shard counters on every
    /// [`Smr::stats`](crate::Smr::stats) call. The four sums are read
    /// independently, so a snapshot taken while shards are actively flushing
    /// is approximate — exactly as approximate as reading a single domain's
    /// counters mid-flight; at quiescence it is exact.
    pub fn refresh_from<'a>(&self, parts: impl IntoIterator<Item = &'a SmrStats>) {
        let mut sums = [0u64; 7];
        for p in parts {
            sums[0] += p.allocated();
            sums[1] += p.retired();
            sums[2] += p.freed();
            sums[3] += p.deallocated();
            sums[4] += p.pool_hits();
            sums[5] += p.pool_misses();
            sums[6] += p.recycled();
        }
        self.allocated.store(sums[0], Ordering::Relaxed);
        self.retired.store(sums[1], Ordering::Relaxed);
        self.freed.store(sums[2], Ordering::Relaxed);
        self.deallocated.store(sums[3], Ordering::Relaxed);
        self.pool_hits.store(sums[4], Ordering::Relaxed);
        self.pool_misses.store(sums[5], Ordering::Relaxed);
        self.recycled.store(sums[6], Ordering::Relaxed);
    }
}

/// Per-thread buffered counters, flushed to [`SmrStats`] in batches.
///
/// # Example
///
/// ```
/// use smr_core::{LocalStats, SmrStats};
///
/// let shared = SmrStats::new();
/// let mut local = LocalStats::new();
/// local.on_alloc(&shared);
/// local.on_retire(&shared);
/// local.on_free(&shared, 1);
/// local.flush(&shared);
/// assert_eq!(shared.allocated(), 1);
/// assert_eq!(shared.retired(), 1);
/// assert_eq!(shared.freed(), 1);
/// ```
#[derive(Debug, Default)]
pub struct LocalStats {
    allocated: u64,
    retired: u64,
    freed: u64,
    deallocated: u64,
    pending: u64,
}

/// Buffered events before an automatic flush.
const FLUSH_EVERY: u64 = 64;

impl LocalStats {
    /// Fresh zeroed buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one allocation.
    #[inline]
    pub fn on_alloc(&mut self, shared: &SmrStats) {
        self.allocated += 1;
        self.tick(shared);
    }

    /// Records one retire.
    #[inline]
    pub fn on_retire(&mut self, shared: &SmrStats) {
        self.retired += 1;
        self.tick(shared);
    }

    /// Records `n` frees (batches free many nodes at once).
    ///
    /// Frees flush immediately: they happen at batch/scan granularity (rare
    /// relative to operations), and the paper's unreclaimed-objects metric
    /// needs the shared `freed` counter to track reclamation promptly.
    #[inline]
    pub fn on_free(&mut self, shared: &SmrStats, n: u64) {
        self.freed += n;
        self.flush(shared);
    }

    /// Records one exclusive deallocation.
    #[inline]
    pub fn on_dealloc(&mut self, shared: &SmrStats) {
        self.deallocated += 1;
        self.tick(shared);
    }

    #[inline]
    fn tick(&mut self, shared: &SmrStats) {
        self.pending += 1;
        if self.pending >= FLUSH_EVERY {
            self.flush(shared);
        }
    }

    /// Publishes all buffered counts to `shared`.
    pub fn flush(&mut self, shared: &SmrStats) {
        if self.allocated > 0 {
            shared.add_allocated(self.allocated);
            self.allocated = 0;
        }
        if self.retired > 0 {
            shared.add_retired(self.retired);
            self.retired = 0;
        }
        if self.freed > 0 {
            shared.add_freed(self.freed);
            self.freed = 0;
        }
        if self.deallocated > 0 {
            shared.add_deallocated(self.deallocated);
            self.deallocated = 0;
        }
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreclaimed_is_retired_minus_freed() {
        let s = SmrStats::new();
        s.add_retired(10);
        s.add_freed(4);
        assert_eq!(s.unreclaimed(), 6);
    }

    #[test]
    fn unreclaimed_saturates() {
        let s = SmrStats::new();
        s.add_freed(4);
        assert_eq!(s.unreclaimed(), 0);
    }

    #[test]
    fn local_stats_auto_flush() {
        let s = SmrStats::new();
        let mut l = LocalStats::new();
        for _ in 0..FLUSH_EVERY {
            l.on_alloc(&s);
        }
        // The buffer must have flushed at least once by now.
        assert_eq!(s.allocated(), FLUSH_EVERY);
    }

    #[test]
    fn explicit_flush_publishes_everything() {
        let s = SmrStats::new();
        let mut l = LocalStats::new();
        l.on_alloc(&s);
        l.on_retire(&s);
        l.on_free(&s, 5);
        l.flush(&s);
        assert_eq!(s.allocated(), 1);
        assert_eq!(s.retired(), 1);
        assert_eq!(s.freed(), 5);
    }

    #[test]
    fn refresh_from_sums_parts() {
        let a = SmrStats::new();
        a.add_allocated(3);
        a.add_retired(2);
        a.add_freed(1);
        a.add_pool_hits(5);
        let b = SmrStats::new();
        b.add_allocated(7);
        b.add_deallocated(4);
        b.add_pool_misses(6);
        b.add_recycled(2);
        let agg = SmrStats::new();
        agg.add_allocated(999); // stale value must be overwritten
        agg.add_recycled(999);
        agg.refresh_from([&a, &b]);
        assert_eq!(agg.allocated(), 10);
        assert_eq!(agg.retired(), 2);
        assert_eq!(agg.freed(), 1);
        assert_eq!(agg.deallocated(), 4);
        assert_eq!(agg.pool_hits(), 5);
        assert_eq!(agg.pool_misses(), 6);
        assert_eq!(agg.recycled(), 2);
        assert_eq!(agg.unreclaimed(), 1);
    }

    #[test]
    fn concurrent_flushes_sum() {
        let s = SmrStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut l = LocalStats::new();
                    for _ in 0..1000 {
                        l.on_retire(&s);
                    }
                    l.flush(&s);
                });
            }
        });
        assert_eq!(s.retired(), 4000);
    }
}
