//! The `Leaky` non-scheme: no reclamation at all.
//!
//! The paper's evaluation uses "Leaky" — running the benchmark without any
//! memory reclamation — as the general baseline. Retired nodes are simply
//! leaked. Note the paper's observation that Leaky is *not* an upper bound:
//! "the actual throughput can exceed Leaky as it can be faster to recycle
//! old objects".

use smr_core::{Atomic, LocalStats, Shared, Smr, SmrConfig, SmrHandle, SmrNode, SmrStats};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

/// The leak-everything baseline domain.
///
/// # Example
///
/// ```
/// use smr_baselines::Leaky;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Leaky<u64> = Leaky::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(7);
/// unsafe { h.retire(node) }; // leaked, never freed
/// h.leave();
/// assert_eq!(domain.stats().freed(), 0);
/// ```
pub struct Leaky<T: Send + 'static> {
    stats: SmrStats,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send + 'static> std::fmt::Debug for Leaky<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Leaky").finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Smr<T> for Leaky<T> {
    type Handle<'d> = LeakyHandle<'d, T>;

    fn with_config(_config: SmrConfig) -> Self {
        Self {
            stats: SmrStats::new(),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> LeakyHandle<'_, T> {
        LeakyHandle {
            domain: self,
            local_stats: LocalStats::new(),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        "Leaky"
    }

    fn robust() -> bool {
        // Vacuously: it never reclaims anything, stalled or not.
        false
    }
}

/// Handle to a [`Leaky`] domain.
#[derive(Debug)]
pub struct LeakyHandle<'d, T: Send + 'static> {
    domain: &'d Leaky<T>,
    local_stats: LocalStats,
}

impl<T: Send + 'static> SmrHandle<T> for LeakyHandle<'_, T> {
    fn enter(&mut self) {}

    fn leave(&mut self) {}

    fn alloc(&mut self, value: T) -> Shared<T> {
        self.local_stats.on_alloc(&self.domain.stats);
        Shared::from_node(SmrNode::alloc(value))
    }

    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        self.local_stats.on_dealloc(&self.domain.stats);
        // SAFETY: callers uphold the trait contract: `ptr` came from `alloc`
        // and was never published, so it is freed at once.
        unsafe { SmrNode::dealloc(ptr.as_node_ptr(), true) };
    }

    fn protect(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    // SAFETY: nothing is freed. The node is leaked on purpose, so no reader
    // can ever see its memory reused.
    unsafe fn retire(&mut self, _ptr: Shared<T>) {
        self.local_stats.on_retire(&self.domain.stats);
    }

    fn flush(&mut self) {
        self.local_stats.flush(&self.domain.stats);
    }
}

impl<T: Send + 'static> Drop for LeakyHandle<'_, T> {
    fn drop(&mut self) {
        self.local_stats.flush(&self.domain.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_leaks() {
        let d: Leaky<u64> = Leaky::new();
        let mut h = d.handle();
        h.enter();
        for i in 0..10 {
            let n = h.alloc(i);
            // SAFETY: `n` came from this handle's `alloc`, was never published,
            // and is retired once.
            unsafe { h.retire(n) };
        }
        h.leave();
        h.flush();
        assert_eq!(d.stats().retired(), 10);
        assert_eq!(d.stats().freed(), 0);
        assert_eq!(d.stats().unreclaimed(), 10);
    }

    #[test]
    fn protect_is_plain_load() {
        let d: Leaky<u64> = Leaky::new();
        let mut h = d.handle();
        h.enter();
        let n = h.alloc(3);
        let link = Atomic::new(n);
        assert_eq!(h.protect(0, &link), n);
        h.leave();
        // SAFETY: `n` was only published to `link`, which no other thread can
        // read, and is freed once.
        unsafe { h.dealloc(n) };
    }
}
