//! Michael's hazard pointers (HP) \[26\].
//!
//! Each thread owns a fixed set of hazard slots; `protect` publishes the
//! pointer it is about to dereference and re-validates the source, so a
//! retired node is freed only when no published hazard matches its address.
//! Robust — a stalled thread pins at most its own hazard slots' nodes — but
//! slow: every guarded pointer read pays a store plus a full fence, and
//! every scan is `O(m·n)`.

use smr_core::{Atomic, NodeHeader, Shared, SmrConfig};
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::registry_core::{Clock, Domain, Handle, Policy};

/// Publishes `max_protect` node addresses per thread; pins exactly the
/// nodes whose address is published.
#[derive(Debug)]
pub struct HpPolicy;

impl Policy for HpPolicy {
    /// One thread's hazard slots (0 = empty).
    type Block = Box<[AtomicUsize]>;
    type Local = ();
    /// Michael's scan, first half: all published hazards, sorted.
    type Snapshot = Vec<usize>;

    const NAME: &'static str = "HP";
    const ROBUST: bool = true;
    // A hazard published after a node's retirement is invisible to the scan
    // that frees it; traversals must re-validate reachability.
    const NEEDS_SEEK_VALIDATION: bool = true;
    const STAMPS_BIRTH: bool = false;
    const STAMPS_RETIRE: bool = false;

    fn block(config: &SmrConfig) -> Self::Block {
        (0..config.max_protect)
            .map(|_| AtomicUsize::new(0))
            .collect()
    }

    #[inline]
    fn leave(hazards: &Self::Block, _: &mut ()) {
        for hp in hazards.iter() {
            hp.store(0, Ordering::Release);
        }
    }

    /// Publish-and-validate (the HP protocol): store the candidate address
    /// in hazard slot `idx`, fence, and re-read the source until it is
    /// unchanged.
    fn protect<T>(
        _clock: &Clock,
        hazards: &Self::Block,
        _: &mut (),
        idx: usize,
        src: &Atomic<T>,
    ) -> Shared<T> {
        let hp = &hazards[idx];
        let mut p = src.load(Ordering::Acquire);
        loop {
            hp.store(p.as_node_ptr() as usize, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let now = src.load(Ordering::Acquire);
            if now == p {
                return p;
            }
            p = now;
        }
    }

    #[inline]
    fn copy_protection(hazards: &Self::Block, from: usize, to: usize) {
        // The node is already protected by `from`, so a plain publish of the
        // same address cannot race with its reclamation.
        let addr = hazards[from].load(Ordering::Relaxed);
        hazards[to].store(addr, Ordering::SeqCst);
    }

    fn snapshot<'a>(blocks: impl Iterator<Item = &'a Self::Block>) -> Vec<usize> {
        let mut hazards: Vec<usize> = blocks
            .flat_map(|slots| slots.iter())
            .map(|hp| hp.load(Ordering::SeqCst))
            .filter(|&addr| addr != 0)
            .collect();
        hazards.sort_unstable();
        hazards
    }

    /// Michael's scan, second half: keep the nodes some hazard names.
    #[inline]
    fn pinned(hazards: &Self::Snapshot, node: usize, _header: &NodeHeader) -> bool {
        hazards.binary_search(&node).is_ok()
    }
}

/// The hazard-pointer reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::Hp;
/// use smr_core::{Atomic, Smr, SmrHandle};
/// use std::sync::atomic::Ordering;
///
/// let domain: Hp<u64> = Hp::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(9);
/// let link = Atomic::new(node);
/// let seen = h.protect(0, &link); // hazard published + validated
/// assert_eq!(seen, node);
/// h.leave();
/// unsafe { h.dealloc(node) };
/// ```
pub type Hp<T> = Domain<T, HpPolicy>;

/// Per-thread handle to an [`Hp`] domain.
pub type HpHandle<'d, T> = Handle<'d, T, HpPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery;
    use smr_core::{Smr, SmrHandle};

    battery::stamp! {
        single_thread_reclaims_everything = single_thread_reclaims_everything::<Hp<u64>>;
        robust_against_stalled_thread = stalled_thread::<Hp<u64>>;
        scan_work_is_amortised = scan_work_is_amortised::<HpPolicy>;
        check_in_keeps_magazine_warm = check_in_keeps_magazine_warm::<Hp<battery::Tracked>>;
    }

    #[test]
    fn hazard_blocks_reclamation_of_protected_node() {
        let d = &Hp::<u64>::with_config(battery::small());
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
                assert!(!seen.is_null());
                protected.wait();
                release.wait();
                // Still protected by our hazard even though it was retired.
                // SAFETY: protected since before the writer unlinked it.
                assert_eq!(unsafe { *seen.deref() }, 21);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(21);
            link.store(node, Ordering::Release);
            published.wait();
            protected.wait();
            let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
            // SAFETY: just unlinked, retired once.
            unsafe { writer.retire(unlinked) };
            writer.leave();
            writer.flush(); // must NOT free the hazarded node
            assert_eq!(d.stats().unreclaimed(), 1);
            release.wait();
        });
        // Reader left; a final flush reclaims it.
        let mut h = d.handle();
        h.flush();
        assert_eq!(d.stats().unreclaimed(), 0);
        drop(h);
    }

    #[test]
    fn protect_validates_against_racing_unlink() {
        let d = &Hp::<u64>::with_config(battery::small());
        let link = &Atomic::<u64>::null();
        let stop = &std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Writer keeps replacing the node.
            s.spawn(move || {
                let mut w = d.handle();
                for i in 0..5_000u64 {
                    w.enter();
                    let fresh = w.alloc(i);
                    let old = link.swap(fresh, Ordering::AcqRel);
                    if !old.is_null() {
                        // SAFETY: the swap unlinked `old`; retired once.
                        unsafe { w.retire(old) };
                    }
                    w.leave();
                }
                stop.store(true, Ordering::Release);
            });
            // Reader dereferences protected pointers the whole time; any
            // use-after-free here would be caught by invalid payloads (or
            // ASAN-style crashes).
            s.spawn(move || {
                let mut r = d.handle();
                while !stop.load(Ordering::Acquire) {
                    r.enter();
                    let p = r.protect(0, link);
                    if !p.is_null() {
                        // SAFETY: `protect` validated `p` under our hazard.
                        let v = unsafe { *p.deref() };
                        assert!(v < 5_000);
                    }
                    r.leave();
                }
            });
        });
    }
}
