//! A read-mostly snapshot cell in the RCU style, on the typed-pointer
//! layer.
//!
//! The cell always points at one immutable snapshot. Readers take a
//! protected load and look at (or clone) the snapshot without ever
//! blocking a writer; writers publish a fresh snapshot with a swap or CAS
//! and retire the displaced one through the reclamation scheme — the
//! scheme plays the role of RCU's grace period. The single `unsafe` per
//! write path is the retire-safety argument: the winner of the
//! displacement is the sole retirer.

use smr_core::typed::{Atomic, Guard, Owned};
use smr_core::{Smr, SmrConfig};

/// Protection index used by readers and writers (the cell needs just one).
const IDX_SNAP: usize = 0;

/// A read-mostly RCU-style cell holding one immutable snapshot, generic
/// over the reclamation scheme.
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use lockfree_ds::SnapshotCell;
/// use smr_core::SmrHandle;
///
/// let cell: SnapshotCell<Vec<u64>, Hyaline<_>> = SnapshotCell::new(vec![1, 2]);
/// let mut h = cell.smr_handle();
/// h.enter();
/// assert_eq!(cell.with(&mut h, |v| v.len()), 2);
/// cell.update(&mut h, |v| {
///     let mut v = v.clone();
///     v.push(3);
///     v
/// });
/// assert_eq!(cell.read(&mut h), vec![1, 2, 3]);
/// h.leave();
/// ```
pub struct SnapshotCell<T, S>
where
    T: Send + Sync + 'static,
    S: Smr<T>,
{
    domain: S,
    /// The current snapshot; never null.
    head: Atomic<T>,
}

impl<T, S> std::fmt::Debug for SnapshotCell<T, S>
where
    T: Send + Sync + 'static,
    S: Smr<T>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("scheme", &S::name())
            .finish_non_exhaustive()
    }
}

impl<T, S> SnapshotCell<T, S>
where
    T: Send + Sync + 'static,
    S: Smr<T>,
{
    /// A cell holding `initial`, with a default-configured domain.
    pub fn new(initial: T) -> Self {
        Self::with_config(SmrConfig::default(), initial)
    }

    /// A cell holding `initial` whose reclamation domain uses `config`.
    pub fn with_config(config: SmrConfig, initial: T) -> Self {
        Self::with_domain(S::with_config(config), initial)
    }

    /// A cell holding `initial` over a pre-built reclamation domain.
    pub fn with_domain(domain: S, initial: T) -> Self {
        let mut handle = domain.handle();
        let first = Guard::over(&mut handle).alloc(initial).into_ptr();
        drop(handle);
        Self {
            domain,
            head: Atomic::new(first),
        }
    }

    /// The underlying reclamation domain.
    pub fn domain(&self) -> &S {
        &self.domain
    }

    /// A per-thread SMR handle for operating on this cell.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.domain.handle()
    }

    /// Applies `f` to the current snapshot. Must be called between
    /// `enter` and `leave`.
    pub fn with<'a, R>(&'a self, h: &mut S::Handle<'a>, f: impl FnOnce(&T) -> R) -> R {
        let g = Guard::over(h);
        // The head is never null, so `deref` cannot panic.
        f(self.head.load(IDX_SNAP, &g).deref())
    }

    /// A clone of the current snapshot. Must be called between `enter`
    /// and `leave`.
    pub fn read<'a>(&'a self, h: &mut S::Handle<'a>) -> T
    where
        T: Clone,
    {
        self.with(h, T::clone)
    }

    /// Publishes `value` as the new snapshot, retiring the old one. Must
    /// be called between `enter` and `leave`.
    pub fn store<'a>(&'a self, h: &mut S::Handle<'a>, value: T) {
        let g = Guard::over(h);
        let displaced = self.head.swap(g.alloc(value).into_ptr());
        // SAFETY: the swap unlinked exactly one snapshot and handed it to
        // us alone; readers still looking at it hold protections, which
        // the scheme's deferred reclamation honors.
        unsafe { g.defer_retire(displaced) };
    }

    /// Publishes `f(current)` atomically: retries (re-reading the current
    /// snapshot) until the CAS succeeds, so concurrent updates are never
    /// lost. Must be called between `enter` and `leave`.
    pub fn update<'a>(&'a self, h: &mut S::Handle<'a>, f: impl Fn(&T) -> T) {
        let g = Guard::over(h);
        loop {
            let curr = self.head.load(IDX_SNAP, &g);
            let new: Owned<T> = g.alloc(f(curr.deref()));
            match self.head.compare_exchange(curr, new.ptr()) {
                Ok(()) => {
                    let _ = new.into_ptr();
                    // SAFETY: our CAS displaced `curr`; the winner of the
                    // displacement is the sole retirer, and protected
                    // readers are covered by deferred reclamation.
                    unsafe { g.defer_retire(curr) };
                    return;
                }
                // Lost the race: the speculative snapshot was never
                // published, so it is simply discarded.
                Err(_) => g.discard(new),
            }
        }
    }
}

impl<T, S> Drop for SnapshotCell<T, S>
where
    T: Send + Sync + 'static,
    S: Smr<T>,
{
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        let g = Guard::over(&mut handle);
        // SAFETY: `Drop` has `&mut self` — no reader can hold the final
        // snapshot, which is ours alone to free.
        unsafe { g.dealloc(self.head.fetch()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
    use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
    use smr_core::SmrHandle;
    use std::sync::atomic::{AtomicBool, Ordering};

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

    fn smoke<S: Smr<u64>>() {
        let cell: SnapshotCell<u64, S> = SnapshotCell::with_config(cfg(), 1);
        let mut h = cell.smr_handle();
        h.enter();
        assert_eq!(cell.read(&mut h), 1);
        cell.store(&mut h, 2);
        assert_eq!(cell.with(&mut h, |v| v * 10), 20);
        for _ in 0..100 {
            cell.update(&mut h, |v| v + 1);
        }
        assert_eq!(cell.read(&mut h), 102);
        h.leave();
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Hyaline<_>>();
        smoke::<Hyaline1<_>>();
        smoke::<HyalineS<_>>();
        smoke::<Hyaline1S<_>>();
        smoke::<Ebr<_>>();
        smoke::<Hp<_>>();
        smoke::<He<_>>();
        smoke::<Ibr<_>>();
        smoke::<Leaky<_>>();
    }

    #[test]
    fn concurrent_updates_never_lose_increments() {
        let cell: &SnapshotCell<u64, HyalineS<_>> = &SnapshotCell::with_config(cfg(), 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    let mut h = cell.smr_handle();
                    for _ in 0..1_000 {
                        h.enter();
                        cell.update(&mut h, |v| v + 1);
                        h.leave();
                    }
                });
            }
        });
        let mut h = cell.smr_handle();
        h.enter();
        assert_eq!(cell.read(&mut h), 4_000);
        h.leave();
    }

    #[test]
    fn readers_see_consistent_snapshots() {
        // Snapshots are immutable: a reader never observes a torn pair.
        let cell: &SnapshotCell<(u64, u64), Hyaline<_>> =
            &SnapshotCell::with_config(cfg(), (0, 0));
        let stop = &AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut h = cell.smr_handle();
                for i in 1..=2_000 {
                    h.enter();
                    cell.store(&mut h, (i, i * 2));
                    h.leave();
                }
                stop.store(true, Ordering::Release);
            });
            for _ in 0..3 {
                s.spawn(move || {
                    let mut h = cell.smr_handle();
                    while !stop.load(Ordering::Acquire) {
                        h.enter();
                        let (a, b) = cell.read(&mut h);
                        assert_eq!(b, a * 2, "torn snapshot ({a}, {b})");
                        h.leave();
                    }
                });
            }
        });
    }
}
