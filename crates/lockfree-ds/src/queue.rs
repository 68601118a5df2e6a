//! A Michael–Scott queue, generic over the reclamation scheme.
//!
//! Not part of the paper's figures; used by the examples (per-client work
//! queues in the server scenario) and the integration tests. Written
//! against the typed-pointer layer: the remaining `unsafe` is the
//! sentinel-retire argument in `dequeue` and the exclusive teardown in
//! `Drop`.

use smr_core::typed::{Atomic, Guard, Ptr};
use smr_core::{Smr, SmrConfig};

/// A queue node: the sentinel head carries `None`.
pub struct QueueNode<T> {
    value: Option<T>,
    next: Atomic<QueueNode<T>>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for QueueNode<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueNode")
            .field("value", &self.value)
            .finish_non_exhaustive()
    }
}

/// A lock-free FIFO queue.
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use lockfree_ds::MsQueue;
/// use smr_core::SmrHandle;
///
/// let queue: MsQueue<String, Hyaline<_>> = MsQueue::new();
/// let mut h = queue.smr_handle();
/// h.enter();
/// queue.enqueue(&mut h, "a".to_string());
/// queue.enqueue(&mut h, "b".to_string());
/// assert_eq!(queue.dequeue(&mut h).as_deref(), Some("a"));
/// assert_eq!(queue.dequeue(&mut h).as_deref(), Some("b"));
/// assert_eq!(queue.dequeue(&mut h), None);
/// h.leave();
/// ```
pub struct MsQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    domain: S,
    head: Atomic<QueueNode<T>>,
    tail: Atomic<QueueNode<T>>,
}

impl<T, S> std::fmt::Debug for MsQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsQueue")
            .field("scheme", &S::name())
            .finish_non_exhaustive()
    }
}

impl<T, S> Default for MsQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T, S> MsQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    /// An empty queue with a default-configured domain.
    pub fn new() -> Self {
        Self::with_config(SmrConfig::default())
    }

    /// An empty queue whose reclamation domain uses `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        Self::with_domain(S::with_config(config))
    }

    /// An empty queue over a pre-built reclamation domain (e.g. a
    /// configured [`smr_core::Sharded`] adapter).
    pub fn with_domain(domain: S) -> Self {
        let mut handle = domain.handle();
        let sentinel = {
            let g = Guard::over(&mut handle);
            g.alloc(QueueNode {
                value: None,
                next: Atomic::null(),
            })
            .into_ptr()
        };
        drop(handle);
        Self {
            domain,
            head: Atomic::new(sentinel),
            tail: Atomic::new(sentinel),
        }
    }

    /// The underlying reclamation domain.
    pub fn domain(&self) -> &S {
        &self.domain
    }

    /// A per-thread SMR handle for operating on this queue.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.domain.handle()
    }

    /// Appends a value. Must be called between `enter` and `leave`.
    pub fn enqueue<'a>(&'a self, h: &mut S::Handle<'a>, value: T) {
        let g = Guard::over(h);
        let mut node = g.alloc(QueueNode {
            value: Some(value),
            next: Atomic::null(),
        });
        loop {
            let tail = self.tail.load(0, &g);
            let tail_ref = tail.deref();
            let next = tail_ref.next.fetch();
            if !next.is_null() {
                // Help the lagging tail along.
                let _ = self.tail.compare_exchange(tail, next);
                continue;
            }
            match tail_ref.next.compare_exchange_owned(Ptr::null(), node) {
                Ok(published) => {
                    let _ = self.tail.compare_exchange(tail, published);
                    return;
                }
                Err((_, back)) => node = back,
            }
        }
    }

    /// Removes the oldest value. Must be called between `enter` and `leave`.
    pub fn dequeue<'a>(&'a self, h: &mut S::Handle<'a>) -> Option<T> {
        let g = Guard::over(h);
        loop {
            let head = self.head.load(0, &g);
            let head_ref = head.deref();
            let next = head_ref.next.load(1, &g);
            if next.is_null() {
                return None;
            }
            let tail = self.tail.fetch();
            if tail == head {
                // Tail lags behind: help.
                let _ = self.tail.compare_exchange(tail, next);
                continue;
            }
            // Michael's re-validation (step D07 of the original algorithm):
            // `head` must still be the sentinel *after* `next`'s protection
            // was published. A dequeued sentinel's `next` is frozen, so the
            // protection of `next` alone cannot detect that `next` itself
            // was already dequeued and retired — dereferencing it below
            // would be a use after free under HP/HE.
            if self.head.fetch() != head {
                continue;
            }
            // Read the value before the CAS: `next` becomes the new
            // sentinel and may be popped (and retired) immediately after.
            let value = next
                .deref()
                .value
                .clone()
                .expect("non-sentinel nodes carry values");
            if self.head.compare_exchange(head, next).is_ok() {
                // SAFETY: the successful CAS displaced `head` as the
                // sentinel; only the winning dequeuer reaches this retire,
                // and the queue never links back to an old sentinel.
                unsafe { g.defer_retire(head) };
                return Some(value);
            }
        }
    }

    /// Reads (clones) the oldest value without removing it. Must be called
    /// between `enter` and `leave`.
    pub fn peek<'a>(&'a self, h: &mut S::Handle<'a>) -> Option<T> {
        let g = Guard::over(h);
        loop {
            let head = self.head.load(0, &g);
            let head_ref = head.deref();
            let next = head_ref.next.load(1, &g);
            if next.is_null() {
                return None;
            }
            // Same D07-style re-validation as `dequeue`: without it,
            // `next` could be a long-retired node read off a frozen
            // sentinel under the per-access-protection schemes.
            if self.head.fetch() != head {
                continue;
            }
            return Some(
                next.deref()
                    .value
                    .clone()
                    .expect("non-sentinel nodes carry values"),
            );
        }
    }

    /// Whether the queue appears empty right now. Must be called between
    /// `enter` and `leave` (the check walks through the live sentinel).
    pub fn is_empty<'a>(&'a self, h: &mut S::Handle<'a>) -> bool {
        let g = Guard::over(h);
        let head = self.head.load(0, &g);
        head.deref().next.fetch().is_null()
    }
}

impl<T, S> Drop for MsQueue<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<QueueNode<T>>,
{
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        let g = Guard::over(&mut handle);
        let mut curr = self.head.fetch();
        while !curr.is_null() {
            // SAFETY: `Drop` has `&mut self` — no concurrent access; the
            // remaining chain is exclusively ours to walk and free.
            let next = unsafe { curr.deref() }.next.fetch();
            // SAFETY: same exclusive-teardown argument.
            unsafe { g.dealloc(curr) };
            curr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, Hyaline1S};
    use smr_baselines::{Ebr, Hp};
    use smr_core::SmrHandle;
    use std::sync::atomic::Ordering;

    fn cfg() -> SmrConfig {
        SmrConfig {
            slots: 4,
            batch_min: 8,
            scan_threshold: 16,
            max_threads: 64,
            ..SmrConfig::default()
        }
    }

    fn fifo_order<S: Smr<QueueNode<u64>>>() {
        let q: MsQueue<u64, S> = MsQueue::with_config(cfg());
        let mut h = q.smr_handle();
        h.enter();
        assert_eq!(q.dequeue(&mut h), None);
        assert!(q.is_empty(&mut h));
        for i in 0..10 {
            q.enqueue(&mut h, i);
        }
        assert_eq!(q.peek(&mut h), Some(0));
        for i in 0..10 {
            assert_eq!(q.peek(&mut h), Some(i));
            assert_eq!(q.dequeue(&mut h), Some(i));
        }
        assert_eq!(q.dequeue(&mut h), None);
        assert_eq!(q.peek(&mut h), None);
        h.leave();
    }

    #[test]
    fn fifo_all_schemes() {
        fifo_order::<Hyaline<_>>();
        fifo_order::<Hyaline1S<_>>();
        fifo_order::<Ebr<_>>();
        fifo_order::<Hp<_>>();
    }

    #[test]
    fn concurrent_producers_consumers() {
        let q: &MsQueue<u64, Hyaline<_>> = &MsQueue::with_config(cfg());
        const PER_THREAD: u64 = 3_000;
        let sum = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                s.spawn(move || {
                    let mut h = q.smr_handle();
                    for i in 0..PER_THREAD {
                        h.enter();
                        q.enqueue(&mut h, t * PER_THREAD + i);
                        h.leave();
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    let mut h = q.smr_handle();
                    let mut local = 0u64;
                    let mut got = 0;
                    while got < PER_THREAD {
                        h.enter();
                        if let Some(v) = q.dequeue(&mut h) {
                            local += v;
                            got += 1;
                        }
                        h.leave();
                    }
                    sum.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        let expect: u64 = (0..2 * PER_THREAD).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
        let mut h = q.smr_handle();
        h.enter();
        assert!(q.is_empty(&mut h));
        h.leave();
    }
}
