//! A Treiber stack, generic over the reclamation scheme.
//!
//! Not part of the paper's figures; used by the examples, integration tests
//! and micro-benchmarks as the smallest realistic SMR client. Written
//! against the typed-pointer layer (`smr_core::typed`), it is also the
//! README's "writing a structure" walk-through: the only `unsafe` left is
//! the retire-safety argument in `pop`.

use smr_core::typed::{Atomic, Guard, Ptr};
use smr_core::{Smr, SmrConfig};

/// A stack node.
pub struct StackNode<T> {
    value: T,
    next: Atomic<StackNode<T>>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for StackNode<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StackNode")
            .field("value", &self.value)
            .finish_non_exhaustive()
    }
}

/// A lock-free LIFO stack.
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use lockfree_ds::TreiberStack;
/// use smr_core::SmrHandle;
///
/// let stack: TreiberStack<u64, Hyaline<_>> = TreiberStack::new();
/// let mut h = stack.smr_handle();
/// h.enter();
/// stack.push(&mut h, 1);
/// stack.push(&mut h, 2);
/// assert_eq!(stack.pop(&mut h), Some(2));
/// assert_eq!(stack.pop(&mut h), Some(1));
/// assert_eq!(stack.pop(&mut h), None);
/// h.leave();
/// ```
pub struct TreiberStack<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<StackNode<T>>,
{
    domain: S,
    top: Atomic<StackNode<T>>,
}

impl<T, S> std::fmt::Debug for TreiberStack<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<StackNode<T>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreiberStack")
            .field("scheme", &S::name())
            .finish_non_exhaustive()
    }
}

impl<T, S> Default for TreiberStack<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<StackNode<T>>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T, S> TreiberStack<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<StackNode<T>>,
{
    /// An empty stack with a default-configured domain.
    pub fn new() -> Self {
        Self::with_config(SmrConfig::default())
    }

    /// An empty stack whose reclamation domain uses `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        Self::with_domain(S::with_config(config))
    }

    /// An empty stack over a pre-built reclamation domain (e.g. a
    /// configured [`smr_core::Sharded`] adapter).
    pub fn with_domain(domain: S) -> Self {
        Self {
            domain,
            top: Atomic::null(),
        }
    }

    /// The underlying reclamation domain.
    pub fn domain(&self) -> &S {
        &self.domain
    }

    /// A per-thread SMR handle for operating on this stack.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.domain.handle()
    }

    /// Pushes a value. Must be called between `enter` and `leave`.
    pub fn push<'a>(&'a self, h: &mut S::Handle<'a>, value: T) {
        let g = Guard::over(h);
        let mut node = g.alloc(StackNode {
            value,
            next: Atomic::null(),
        });
        let mut top = self.top.fetch();
        loop {
            node.as_ref().next.store(top);
            match self.top.compare_exchange_weak_owned(top, node) {
                Ok(_) => return,
                Err((now, back)) => {
                    top = now;
                    node = back;
                }
            }
        }
    }

    /// Pops the most recent value. Must be called between `enter` and
    /// `leave`.
    pub fn pop<'a>(&'a self, h: &mut S::Handle<'a>) -> Option<T> {
        let g = Guard::over(h);
        loop {
            let top = self.top.load(0, &g);
            let top_ref = top.as_ref()?;
            let next = top_ref.next.fetch();
            if self.top.compare_exchange(top, next).is_ok() {
                let value = top_ref.value.clone();
                // SAFETY: the successful CAS unlinked `top`; only the
                // winning popper reaches this retire, and pushes only ever
                // link fresh nodes, so no new reference to it can form.
                unsafe { g.defer_retire(top) };
                return Some(value);
            }
        }
    }

    /// Whether the stack is currently empty.
    pub fn is_empty(&self) -> bool {
        self.top.fetch().is_null()
    }
}

impl<T, S> Drop for TreiberStack<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: Smr<StackNode<T>>,
{
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        let g = Guard::over(&mut handle);
        let mut curr = self.top.fetch();
        while !curr.is_null() {
            // SAFETY: `Drop` has `&mut self` — no concurrent access; every
            // remaining node is exclusively ours to walk and free.
            let next: Ptr<_> = unsafe { curr.deref() }.next.fetch();
            // SAFETY: same exclusive-teardown argument.
            unsafe { g.dealloc(curr) };
            curr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, HyalineS};
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

    fn lifo_order<S: Smr<StackNode<u64>>>() {
        let stack: TreiberStack<u64, S> = TreiberStack::with_config(cfg());
        let mut h = stack.smr_handle();
        h.enter();
        for i in 0..10 {
            stack.push(&mut h, i);
        }
        for i in (0..10).rev() {
            assert_eq!(stack.pop(&mut h), Some(i));
        }
        assert_eq!(stack.pop(&mut h), None);
        h.leave();
    }

    #[test]
    fn lifo_all_schemes() {
        lifo_order::<Hyaline<_>>();
        lifo_order::<HyalineS<_>>();
        lifo_order::<Ebr<_>>();
        lifo_order::<Hp<_>>();
    }

    #[test]
    fn concurrent_push_pop_conserves_elements() {
        let stack: &TreiberStack<u64, Hyaline<_>> = &TreiberStack::with_config(cfg());
        let popped = std::sync::atomic::AtomicU64::new(0);
        const PER_THREAD: u64 = 2_000;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                s.spawn(move || {
                    let mut h = stack.smr_handle();
                    for i in 0..PER_THREAD {
                        h.enter();
                        stack.push(&mut h, t * PER_THREAD + i);
                        h.leave();
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    let mut h = stack.smr_handle();
                    let mut got = 0;
                    while got < PER_THREAD {
                        h.enter();
                        if stack.pop(&mut h).is_some() {
                            got += 1;
                        }
                        h.leave();
                    }
                    popped.fetch_add(got, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(popped.load(Ordering::Relaxed), 2 * PER_THREAD);
        assert!(stack.is_empty());
    }
}
