//! Hazard eras (HE) \[31\].
//!
//! HE keeps HP's per-thread reservation slots but publishes *eras* instead
//! of pointer addresses: a reservation of era `v` protects every node whose
//! lifetime interval `[birth, retire]` contains `v`. Reservations follow
//! the HP publish-and-validate protocol (store the current era, re-read the
//! pointer) but, because many nodes share one era, traversals that stay
//! within one era avoid re-publishing — faster than HP, still robust.

use smr_core::{Atomic, NodeHeader, Shared, SmrConfig};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::registry_core::{lifetime, Clock, Domain, Handle, Policy};

/// Reservation value meaning "nothing reserved".
const NONE: u64 = 0;

/// Publishes `max_protect` eras per thread; pins every node whose
/// `[birth, retire]` interval contains a published era.
#[derive(Debug)]
pub struct HePolicy;

impl Policy for HePolicy {
    /// One thread's era reservations ([`NONE`] = empty).
    type Block = Box<[AtomicU64]>;
    type Local = ();
    /// All published eras, sorted.
    type Snapshot = Vec<u64>;

    const NAME: &'static str = "HE";
    const ROBUST: bool = true;
    // A reserved era taken after a node's retire era does not cover the
    // node's lifetime interval; traversals must re-validate reachability.
    const NEEDS_SEEK_VALIDATION: bool = true;
    const STAMPS_BIRTH: bool = true;
    const STAMPS_RETIRE: bool = true;

    fn block(config: &SmrConfig) -> Self::Block {
        (0..config.max_protect)
            .map(|_| AtomicU64::new(NONE))
            .collect()
    }

    #[inline]
    fn leave(reservations: &Self::Block, _: &mut ()) {
        for r in reservations.iter() {
            r.store(NONE, Ordering::Release);
        }
    }

    /// The HE read protocol: publish the current era in reservation `idx`,
    /// then re-read the pointer until the era is stable.
    fn protect<T>(
        clock: &Clock,
        reservations: &Self::Block,
        _: &mut (),
        idx: usize,
        src: &Atomic<T>,
    ) -> Shared<T> {
        let r = &reservations[idx];
        let mut prev = r.load(Ordering::Relaxed);
        loop {
            let p = src.load(Ordering::Acquire);
            let e = clock.now();
            if e == prev {
                return p;
            }
            r.store(e, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            prev = e;
        }
    }

    #[inline]
    fn copy_protection(reservations: &Self::Block, from: usize, to: usize) {
        // The era at `from` pins every interval containing it; publishing
        // the same era at `to` extends that pin.
        let era = reservations[from].load(Ordering::Relaxed);
        reservations[to].store(era, Ordering::SeqCst);
    }

    fn snapshot<'a>(blocks: impl Iterator<Item = &'a Self::Block>) -> Vec<u64> {
        let mut eras: Vec<u64> = blocks
            .flat_map(|slots| slots.iter())
            .map(|r| r.load(Ordering::SeqCst))
            .filter(|&era| era != NONE)
            .collect();
        eras.sort_unstable();
        eras
    }

    #[inline]
    fn pinned(eras: &Self::Snapshot, _node: usize, header: &NodeHeader) -> bool {
        let (birth, retire) = lifetime(header);
        // Any reservation v with birth <= v <= retire pins the node.
        let i = eras.partition_point(|&v| v < birth);
        i < eras.len() && eras[i] <= retire
    }
}

/// The hazard-eras reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::He;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: He<u64> = He::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(3);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub type He<T> = Domain<T, HePolicy>;

/// Per-thread handle to a [`He`] domain.
pub type HeHandle<'d, T> = Handle<'d, T, HePolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery;
    use smr_core::{Smr, SmrHandle};

    battery::stamp! {
        single_thread_reclaims_everything = single_thread_reclaims_everything::<He<u64>>;
        multithreaded_stress = multithreaded_stress::<He<u64>>;
        robust_against_stalled_thread = stalled_thread::<He<u64>>;
        scan_work_is_amortised = scan_work_is_amortised::<HePolicy>;
        check_in_keeps_magazine_warm = check_in_keeps_magazine_warm::<He<battery::Tracked>>;
    }

    #[test]
    fn reservation_era_pins_interval() {
        let d = &He::<u64>::with_config(battery::small());
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
                assert_eq!(unsafe { *seen.deref() }, 5);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(5);
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
