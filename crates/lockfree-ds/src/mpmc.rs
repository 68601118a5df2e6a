//! A capacity-bounded multi-producer/multi-consumer queue built entirely
//! from safe pieces: the typed-layer [`MsQueue`] provides the lock-free
//! FIFO, and an atomic admission counter enforces the bound.
//!
//! The counter is an *admission ticket* scheme: `try_enqueue` optimistically
//! takes a ticket with `fetch_add` and rolls it back when the queue is
//! full, so the queue never holds more than `capacity` values. The bound is
//! linearizable (no successful enqueue ever observes more than `capacity`
//! outstanding tickets); emptiness remains as transient as in any
//! Michael–Scott queue.
//!
//! This module contains no `unsafe` at all — the point of the typed layer
//! is that composing structures stays in safe Rust.

use smr_core::{Smr, SmrConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::queue::{MsQueue, QueueNode};

/// A bounded MPMC FIFO queue, generic over the reclamation scheme.
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use lockfree_ds::BoundedMpmcQueue;
/// use smr_core::SmrHandle;
///
/// let q: BoundedMpmcQueue<u64, Hyaline<_>> = BoundedMpmcQueue::new(2);
/// let mut h = q.smr_handle();
/// h.enter();
/// assert!(q.try_enqueue(&mut h, 1).is_ok());
/// assert!(q.try_enqueue(&mut h, 2).is_ok());
/// assert_eq!(q.try_enqueue(&mut h, 3), Err(3)); // full
/// assert_eq!(q.dequeue(&mut h), Some(1));
/// assert!(q.try_enqueue(&mut h, 3).is_ok());
/// h.leave();
/// ```
pub struct BoundedMpmcQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    queue: MsQueue<T, S>,
    /// Admission tickets currently outstanding (≤ `capacity` after a
    /// successful enqueue; may transiently overshoot inside `try_enqueue`
    /// before the rollback).
    len: AtomicUsize,
    capacity: usize,
}

impl<T, S> std::fmt::Debug for BoundedMpmcQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedMpmcQueue")
            .field("scheme", &S::name())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<T, S> BoundedMpmcQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    /// An empty queue holding at most `capacity` values, with a
    /// default-configured domain.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(SmrConfig::default(), capacity)
    }

    /// An empty bounded queue whose reclamation domain uses `config`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_config(config: SmrConfig, capacity: usize) -> Self {
        Self::with_domain(S::with_config(config), capacity)
    }

    /// An empty bounded queue over a pre-built reclamation domain.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_domain(domain: S, capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded queue needs capacity >= 1");
        Self {
            queue: MsQueue::with_domain(domain),
            len: AtomicUsize::new(0),
            capacity,
        }
    }

    /// The underlying reclamation domain.
    pub fn domain(&self) -> &S {
        self.queue.domain()
    }

    /// A per-thread SMR handle for operating on this queue.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.queue.domain().handle()
    }

    /// The maximum number of values the queue admits at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of values currently admitted. Like any concurrent size,
    /// this is a point-in-time snapshot.
    pub fn len(&self) -> usize {
        // Clamp: `try_enqueue` may transiently overshoot before rollback.
        self.len.load(Ordering::Acquire).min(self.capacity)
    }

    /// Whether the queue currently holds no values (snapshot semantics,
    /// like [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `value`, or hands it back when the queue is full. Must be
    /// called between `enter` and `leave`.
    pub fn try_enqueue<'a>(&'a self, h: &mut S::Handle<'a>, value: T) -> Result<(), T> {
        // Take an admission ticket; give it back if the queue was full.
        if self.len.fetch_add(1, Ordering::AcqRel) >= self.capacity {
            self.len.fetch_sub(1, Ordering::AcqRel);
            return Err(value);
        }
        self.queue.enqueue(h, value);
        Ok(())
    }

    /// Removes and returns the oldest value. Must be called between
    /// `enter` and `leave`.
    pub fn dequeue<'a>(&'a self, h: &mut S::Handle<'a>) -> Option<T> {
        let value = self.queue.dequeue(h)?;
        // Release the ticket only after the value actually left the FIFO.
        self.len.fetch_sub(1, Ordering::AcqRel);
        Some(value)
    }

    /// A clone of the oldest value without removing it. Must be called
    /// between `enter` and `leave`.
    pub fn peek<'a>(&'a self, h: &mut S::Handle<'a>) -> Option<T> {
        self.queue.peek(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, Hyaline1S, HyalineS};
    use smr_baselines::{Ebr, He, Hp, Ibr};
    use smr_core::SmrHandle;

    fn cfg() -> SmrConfig {
        SmrConfig {
            slots: 4,
            batch_min: 8,
            era_freq: 8,
            scan_threshold: 16,
            max_threads: 64,
            ..SmrConfig::default()
        }
    }

    fn smoke<S: Smr<QueueNode<u64>>>() {
        let q: BoundedMpmcQueue<u64, S> = BoundedMpmcQueue::with_config(cfg(), 8);
        let mut h = q.smr_handle();
        h.enter();
        assert!(q.is_empty());
        for i in 0..8 {
            assert_eq!(q.try_enqueue(&mut h, i), Ok(()));
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.try_enqueue(&mut h, 99), Err(99));
        assert_eq!(q.peek(&mut h), Some(0));
        for i in 0..8 {
            assert_eq!(q.dequeue(&mut h), Some(i));
        }
        assert_eq!(q.dequeue(&mut h), None);
        assert!(q.is_empty());
        h.leave();
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Hyaline<_>>();
        smoke::<HyalineS<_>>();
        smoke::<Hyaline1S<_>>();
        smoke::<Ebr<_>>();
        smoke::<Hp<_>>();
        smoke::<He<_>>();
        smoke::<Ibr<_>>();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _: BoundedMpmcQueue<u64, Ebr<_>> = BoundedMpmcQueue::with_config(cfg(), 0);
    }

    #[test]
    fn capacity_never_exceeded_under_contention() {
        let q: &BoundedMpmcQueue<u64, Hyaline<_>> = &BoundedMpmcQueue::with_config(cfg(), 4);
        let max_seen = &AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = q.smr_handle();
                    for i in 0..2_000 {
                        h.enter();
                        if t % 2 == 0 {
                            let _ = q.try_enqueue(&mut h, i);
                        } else {
                            q.dequeue(&mut h);
                        }
                        max_seen.fetch_max(q.len(), Ordering::Relaxed);
                        h.leave();
                    }
                });
            }
        });
        assert!(max_seen.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn all_values_accounted_for() {
        // Everything successfully enqueued is dequeued exactly once.
        let q: &BoundedMpmcQueue<u64, HyalineS<_>> = &BoundedMpmcQueue::with_config(cfg(), 16);
        let produced = &AtomicUsize::new(0);
        let consumed = &AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    let mut h = q.smr_handle();
                    for i in 0..1_000u64 {
                        loop {
                            h.enter();
                            let r = q.try_enqueue(&mut h, i);
                            h.leave();
                            if r.is_ok() {
                                produced.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(move || {
                    let mut h = q.smr_handle();
                    while consumed.load(Ordering::Relaxed) < 2_000 {
                        h.enter();
                        if q.dequeue(&mut h).is_some() {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        h.leave();
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(produced.load(Ordering::Relaxed), 2_000);
        assert_eq!(consumed.load(Ordering::Relaxed), 2_000);
    }
}
