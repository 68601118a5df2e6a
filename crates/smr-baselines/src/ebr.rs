//! Epoch-based reclamation (EBR), the paper's `Epoch` baseline.
//!
//! This is the variant used by the IBR benchmark framework \[35\] that the
//! paper compares against: a global epoch counter advanced every
//! `era_freq` operations, per-thread epoch *reservations* published on
//! `enter`, and per-thread limbo lists scanned by the registry core. A
//! retired node is freed once every active reservation is newer than its
//! retire epoch. Fast — and **not robust**: one stalled thread pins its
//! reservation and with it every node retired afterwards.

use smr_core::{Atomic, NodeHeader, Shared, SmrConfig};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::registry_core::{lifetime, Clock, Domain, Handle, Policy};

/// Reservation value meaning "not inside an operation".
const INACTIVE: u64 = u64::MAX;

/// Publishes one epoch word per thread; pins every node retired at or after
/// the oldest published epoch.
#[derive(Debug)]
pub struct EbrPolicy;

impl Policy for EbrPolicy {
    /// The epoch reserved by `enter`, or [`INACTIVE`].
    type Block = AtomicU64;
    /// Operations entered so far (drives the epoch clock).
    type Local = u64;
    /// Minimum reservation across all registered threads.
    type Snapshot = u64;

    const NAME: &'static str = "Epoch";
    const ROBUST: bool = false;
    // Epoch reservations are enter-scoped and carry no per-node birth
    // metadata: retiring a node into any shard the reader also entered is
    // the ordinary EBR argument within that shard.
    const SHARDABLE_BY_POINTER: bool = true;
    const STAMPS_BIRTH: bool = false;
    /// The retire *epoch*: the clock ticks per operation here.
    const STAMPS_RETIRE: bool = true;

    fn block(_config: &SmrConfig) -> AtomicU64 {
        AtomicU64::new(INACTIVE)
    }

    #[inline]
    fn enter(clock: &Clock, reservation: &AtomicU64, ops: &mut u64) {
        clock.tick(ops);
        reservation.store(clock.now(), Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    #[inline]
    fn leave(reservation: &AtomicU64, _ops: &mut u64) {
        reservation.store(INACTIVE, Ordering::Release);
    }

    fn protect<T>(
        _clock: &Clock,
        _reservation: &AtomicU64,
        _ops: &mut u64,
        _idx: usize,
        src: &Atomic<T>,
    ) -> Shared<T> {
        // The epoch reservation covers every node reachable inside the
        // operation; no per-access work (EBR's defining advantage).
        src.load(Ordering::Acquire)
    }

    fn snapshot<'a>(blocks: impl Iterator<Item = &'a AtomicU64>) -> u64 {
        blocks
            .map(|r| r.load(Ordering::SeqCst))
            .min()
            .unwrap_or(INACTIVE)
    }

    #[inline]
    fn pinned(min_reservation: &u64, _node: usize, header: &NodeHeader) -> bool {
        lifetime(header).1 >= *min_reservation
    }
}

/// The epoch-based reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::Ebr;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Ebr<u64> = Ebr::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(7);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub type Ebr<T> = Domain<T, EbrPolicy>;

/// Per-thread handle to an [`Ebr`] domain.
pub type EbrHandle<'d, T> = Handle<'d, T, EbrPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::{self, churn};
    use smr_core::Smr;

    battery::stamp! {
        single_thread_reclaims_everything = single_thread_reclaims_everything::<Ebr<u64>>;
        multithreaded_stress = multithreaded_stress::<Ebr<u64>>;
        stalled_thread_blocks_reclamation = stalled_thread::<Ebr<u64>>;
        reader_protected_until_leave = reader_protected_until_leave::<Ebr<u64>>;
        scan_work_is_amortised = scan_work_is_amortised::<EbrPolicy>;
        check_in_keeps_magazine_warm = check_in_keeps_magazine_warm::<Ebr<battery::Tracked>>;
    }

    #[test]
    fn teardown_is_leak_free() {
        let d = Ebr::<u64>::with_config(battery::small());
        churn(&mut d.handle(), 0..100);
        // After the handle dropped, scans + orphan adoption must leave
        // nothing behind except what domain-drop frees.
        let freed_before = d.stats().freed();
        let retired = d.stats().retired();
        assert!(freed_before <= retired);
        drop(d);
    }
}
