//! Live-instance accounting for reclaimed payloads.
//!
//! A [`DropRegistry`] hands out [`Tracked`] payloads. Each construction
//! increments a live counter; each drop decrements it and flips a per-instance
//! state flag. Dropping the same instance twice — the signature of a
//! double-free in the reclamation path — panics immediately at the second
//! drop, with the allocation id in the message. After a domain is torn down,
//! [`DropRegistry::assert_quiescent`] turns a leak into a test failure.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared accounting state behind a [`DropRegistry`] and all its payloads.
#[derive(Debug, Default)]
struct Counters {
    created: AtomicU64,
    dropped: AtomicU64,
    live: AtomicI64,
    double_drop: AtomicBool,
}

/// A registry counting live [`Tracked`] payloads.
///
/// Cloning the registry is cheap; clones share the same counters.
///
/// # Example
///
/// ```
/// use smr_testkit::drop_tracker::DropRegistry;
///
/// let registry = DropRegistry::new();
/// let a = registry.track("a");
/// let b = registry.track("b");
/// assert_eq!(registry.created(), 2);
/// drop(a);
/// assert_eq!(registry.live(), 1);
/// drop(b);
/// registry.assert_quiescent();
/// ```
#[derive(Debug, Clone, Default)]
pub struct DropRegistry {
    counters: Arc<Counters>,
}

impl DropRegistry {
    /// A fresh registry with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps `value` in a tracked payload tied to this registry.
    ///
    /// The registry (or a clone of it) must outlive the returned payload:
    /// payloads report their drop through a pointer to the registry's shared
    /// counters. Test harnesses satisfy this naturally by keeping the
    /// registry on the stack above the domain under test.
    pub fn track<T>(&self, value: T) -> Tracked<T> {
        let id = self.counters.created.fetch_add(1, Ordering::Relaxed);
        self.counters.live.fetch_add(1, Ordering::Relaxed);
        Tracked {
            value: ManuallyDrop::new(value),
            id,
            dropped: AtomicBool::new(false),
            counters: Arc::as_ptr(&self.counters),
        }
    }

    /// Total payloads created.
    pub fn created(&self) -> u64 {
        self.counters.created.load(Ordering::Relaxed)
    }

    /// Total payloads dropped.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Relaxed)
    }

    /// Currently live payloads (`created - dropped`).
    pub fn live(&self) -> i64 {
        self.counters.live.load(Ordering::Relaxed)
    }

    /// Whether a double drop was detected on any payload.
    ///
    /// A double drop also panics at the offending drop site; this flag lets a
    /// test observe the failure even if the panic happened on another thread.
    pub fn double_drop_detected(&self) -> bool {
        self.counters.double_drop.load(Ordering::Relaxed)
    }

    /// Asserts that every created payload has been dropped exactly once.
    ///
    /// # Panics
    ///
    /// Panics if payloads are still live (a leak) or if a double drop was
    /// recorded.
    pub fn assert_quiescent(&self) {
        assert!(
            !self.double_drop_detected(),
            "double drop detected (see earlier panic for the allocation id)"
        );
        let live = self.live();
        assert_eq!(
            live,
            0,
            "leak: {live} of {} tracked payloads never dropped",
            self.created()
        );
    }
}

/// A payload whose drop is accounted in a [`DropRegistry`].
///
/// `Tracked<T>` derefs to `T` for convenient use inside data-structure nodes.
///
/// The fields are released manually on the *first* drop only: a buggy
/// reclamation path that drops the same payload twice gets a clean panic from
/// the second drop instead of heap corruption from double-releasing the
/// wrapped value.
#[derive(Debug)]
pub struct Tracked<T> {
    value: ManuallyDrop<T>,
    id: u64,
    dropped: AtomicBool,
    /// Non-owning pointer into the registry's shared counters; see
    /// [`DropRegistry::track`] for the lifetime contract.
    counters: *const Counters,
}

// SAFETY: `Tracked` is a value plus a pointer to atomic counters; the
// counters are only accessed through atomic operations, and the pointer's
// validity is the documented registry-outlives-payloads contract.
unsafe impl<T: Send> Send for Tracked<T> {}
// SAFETY: as above — shared access only touches the atomic counters.
unsafe impl<T: Sync> Sync for Tracked<T> {}

impl<T> Tracked<T> {
    fn counters(&self) -> &Counters {
        // SAFETY: the registry outlives its payloads (see `track`).
        unsafe { &*self.counters }
    }
}

impl<T> Tracked<T> {
    /// The unique allocation id assigned by the registry.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The wrapped value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::Deref for Tracked<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// Cloning a tracked payload mints a *new* tracked instance (fresh id,
/// counted in the registry), so the created == dropped balance holds even
/// when data structures clone values out of their nodes.
impl<T: Clone> Clone for Tracked<T> {
    fn clone(&self) -> Self {
        let counters = self.counters();
        let id = counters.created.fetch_add(1, Ordering::Relaxed);
        counters.live.fetch_add(1, Ordering::Relaxed);
        Tracked {
            value: ManuallyDrop::new(T::clone(&self.value)),
            id,
            dropped: AtomicBool::new(false),
            counters: self.counters,
        }
    }
}

impl<T> Drop for Tracked<T> {
    fn drop(&mut self) {
        if self.dropped.swap(true, Ordering::AcqRel) {
            // Second drop: the value was already released on the first drop.
            // Only the counters (owned by the registry) are touched, so the
            // detector itself releases nothing twice.
            self.counters().double_drop.store(true, Ordering::Relaxed);
            panic!("double drop of tracked payload #{}", self.id);
        }
        self.counters().dropped.fetch_add(1, Ordering::Relaxed);
        let prev = self.counters().live.fetch_sub(1, Ordering::Relaxed);
        let corrupt = prev <= 0;
        if corrupt {
            self.counters().double_drop.store(true, Ordering::Relaxed);
        }
        // SAFETY: `dropped` was false, so this is the payload's first and only
        // drop, and `self` is not used again.
        unsafe {
            ManuallyDrop::drop(&mut self.value);
        }
        if corrupt {
            panic!(
                "drop of tracked payload #{} with non-positive live count {prev}",
                self.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_create_and_drop() {
        let r = DropRegistry::new();
        let a = r.track(1);
        let b = r.track(2);
        assert_eq!(r.created(), 2);
        assert_eq!(r.live(), 2);
        drop(a);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.live(), 1);
        drop(b);
        r.assert_quiescent();
    }

    #[test]
    fn deref_and_id() {
        let r = DropRegistry::new();
        let t = r.track(String::from("x"));
        assert_eq!(&*t, "x");
        assert_eq!(t.id(), 0);
        let u = r.track(String::from("y"));
        assert_eq!(u.id(), 1);
    }

    #[test]
    #[should_panic(expected = "leak")]
    fn leak_is_detected() {
        let r = DropRegistry::new();
        #[expect(clippy::mem_forget, reason = "the leak this test detects")]
        std::mem::forget(r.track(5));
        r.assert_quiescent();
    }

    #[test]
    fn double_drop_is_detected() {
        let r = DropRegistry::new();
        let t = r.track(7u8);
        // Simulate the reclamation bug: drop the same node twice in place.
        let mut slot = std::mem::ManuallyDrop::new(t);
        // SAFETY: the first drop of the tracked value; `slot` is a
        // `ManuallyDrop`, so nothing drops it implicitly.
        unsafe { std::mem::ManuallyDrop::drop(&mut slot) };
        // SAFETY: the deliberate second drop. `Tracked::drop` sees its
        // `dropped` flag already set and panics before touching the payload, so
        // nothing is released twice.
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            std::mem::ManuallyDrop::drop(&mut slot);
        }));
        assert!(second.is_err(), "second drop must panic");
        assert!(r.double_drop_detected());
    }

    #[test]
    fn concurrent_tracking_is_consistent() {
        let r = DropRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        let t = r.track(i);
                        drop(t);
                    }
                });
            }
        });
        assert_eq!(r.created(), 4000);
        r.assert_quiescent();
    }
}
