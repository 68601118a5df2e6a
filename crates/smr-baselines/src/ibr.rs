//! Interval-based reclamation: the 2GE-IBR variant \[35\].
//!
//! Each thread keeps a single reservation *interval* `[lower, upper]`:
//! `enter` sets both to the current era, and every guarded pointer read
//! ratchets `upper` up to the era observed after the read. A retired node —
//! whose lifetime is the interval `[birth era, retire era]` — can be freed
//! once it overlaps no thread's reservation interval. Compared to HE there
//! is one interval per thread instead of one era per protection index,
//! which is why its API needs no index management (the paper calls the 2GE
//! model "reminiscent of EBR").

use smr_core::{Atomic, NodeHeader, Shared, SmrConfig};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::registry_core::{lifetime, Clock, Domain, Handle, Policy};

/// Reservation value meaning "not inside an operation".
const INACTIVE: u64 = u64::MAX;

/// One thread's reservation interval.
#[derive(Debug)]
pub struct Interval {
    lower: AtomicU64,
    upper: AtomicU64,
}

/// Publishes one `[lower, upper]` era interval per thread; pins every node
/// whose `[birth, retire]` interval overlaps a published one.
#[derive(Debug)]
pub struct IbrPolicy;

impl Policy for IbrPolicy {
    type Block = Interval;
    /// Local copy of our published `upper` (sole writer); 0, which the
    /// clock never reads, outside an operation.
    type Local = u64;
    /// The intervals of the threads inside an operation.
    type Snapshot = Vec<(u64, u64)>;

    const NAME: &'static str = "IBR";
    const ROBUST: bool = true;
    const STAMPS_BIRTH: bool = true;
    const STAMPS_RETIRE: bool = true;

    fn block(_config: &SmrConfig) -> Interval {
        Interval {
            lower: AtomicU64::new(INACTIVE),
            upper: AtomicU64::new(INACTIVE),
        }
    }

    #[inline]
    fn enter(clock: &Clock, r: &Interval, upper_cache: &mut u64) {
        let e = clock.now();
        r.lower.store(e, Ordering::SeqCst);
        r.upper.store(e, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        *upper_cache = e;
    }

    #[inline]
    fn leave(r: &Interval, upper_cache: &mut u64) {
        r.lower.store(INACTIVE, Ordering::Release);
        r.upper.store(INACTIVE, Ordering::Release);
        *upper_cache = 0;
    }

    /// The 2GE read protocol: ratchet `upper` to the era observed after the
    /// pointer read, re-reading until stable.
    fn protect<T>(
        clock: &Clock,
        r: &Interval,
        upper_cache: &mut u64,
        _idx: usize,
        src: &Atomic<T>,
    ) -> Shared<T> {
        loop {
            let p = src.load(Ordering::Acquire);
            let e = clock.now();
            if e == *upper_cache {
                return p;
            }
            r.upper.store(e, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            *upper_cache = e;
        }
    }

    fn snapshot<'a>(blocks: impl Iterator<Item = &'a Interval>) -> Vec<(u64, u64)> {
        blocks
            .map(|r| {
                (
                    r.lower.load(Ordering::SeqCst),
                    r.upper.load(Ordering::SeqCst),
                )
            })
            .filter(|&(lower, _)| lower != INACTIVE)
            .collect()
    }

    #[inline]
    fn pinned(intervals: &Self::Snapshot, _node: usize, header: &NodeHeader) -> bool {
        let (birth, retire) = lifetime(header);
        intervals
            .iter()
            .any(|&(lower, upper)| lower <= retire && birth <= upper)
    }
}

/// The 2GE-IBR reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::Ibr;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Ibr<u64> = Ibr::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(2);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub type Ibr<T> = Domain<T, IbrPolicy>;

/// Per-thread handle to an [`Ibr`] domain.
pub type IbrHandle<'d, T> = Handle<'d, T, IbrPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery;
    use smr_core::{Smr, SmrHandle};

    battery::stamp! {
        single_thread_reclaims_everything = single_thread_reclaims_everything::<Ibr<u64>>;
        multithreaded_stress = multithreaded_stress::<Ibr<u64>>;
        robust_against_stalled_thread = stalled_thread::<Ibr<u64>>;
        scan_work_is_amortised = scan_work_is_amortised::<IbrPolicy>;
        check_in_keeps_magazine_warm = check_in_keeps_magazine_warm::<Ibr<battery::Tracked>>;
    }

    #[test]
    fn interval_pins_protected_node() {
        let d = &Ibr::<u64>::with_config(battery::small());
        let published = &std::sync::Barrier::new(2);
        let protected = &std::sync::Barrier::new(2);
        let release = &std::sync::Barrier::new(2);
        let link = &Atomic::<u64>::null();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut reader = d.handle();
                reader.enter();
                published.wait();
                let seen = reader.protect(0, link);
                protected.wait();
                release.wait();
                // SAFETY: protected since before the writer unlinked it.
                assert_eq!(unsafe { *seen.deref() }, 8);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(8);
            link.store(node, Ordering::Release);
            published.wait();
            protected.wait();
            let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
            // SAFETY: just unlinked, retired once.
            unsafe { writer.retire(unlinked) };
            writer.leave();
            writer.flush();
            assert!(d.stats().unreclaimed() >= 1);
            release.wait();
        });
    }
}
