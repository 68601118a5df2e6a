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
    use super::Hp;
    use smr_testkit::conformance_case;

    #[test]
    fn scan_work_is_amortised() {
        crate::registry_core::tests::scan_work_is_amortised::<super::HpPolicy>();
    }

    // The conformance cases under the ids this module had before the suite.
    conformance_case! {
        check_in_keeps_magazine_warm: check_in_keeps_magazine_warm = Hp;
        protect_races_unlink: protect_validates_against_racing_unlink = Hp;
        protected_survives_stall: robust_against_stalled_thread = Hp;
        protected_until_leave: hazard_blocks_reclamation_of_protected_node = Hp;
        single_thread: single_thread_reclaims_everything = Hp;
    }
}
