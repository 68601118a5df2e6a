//! Baseline safe-memory-reclamation schemes the Hyaline paper evaluates
//! against (Section 6 and Table 1):
//!
//! * [`Leaky`] — no reclamation at all; the evaluation's general baseline.
//! * [`Ebr`], [`Hp`], [`He`], [`Ibr`] — the registry-and-scan schemes: one
//!   registry core, four protection policies (below).
//!
//! # One registry core, four policies
//!
//! Epoch, HP, HE and IBR are one implementation: a handle claims a
//! per-thread block in a fixed registry, retired nodes wait in a
//! handle-local limbo list, and a scan snapshots the claimed blocks and
//! frees every limbo node the snapshot does not pin. A dropped handle's
//! still-pinned nodes go to an orphan list the next scan adopts. A scan runs
//! once the limbo holds [`scan_threshold`] nodes more than survived the
//! previous scan — or twice the survivors, whichever is larger — so a scan
//! over `n` nodes is paid for by at least `n / 2` retires even when a
//! stalled reader pins everything. The four names are type aliases of that
//! core with a policy that states only what differs:
//!
//! | scheme | each thread publishes | a retired node is pinned while | robust |
//! |---|---|---|---|
//! | [`Ebr`] ("Epoch") | the epoch it entered at | some published epoch ≤ its retire epoch | no |
//! | [`Hp`] | [`max_protect`] node addresses | its address is published | yes |
//! | [`He`] | [`max_protect`] eras | some published era lies in its `[birth, retire]` | yes |
//! | [`Ibr`] | one `[lower, upper]` era interval | some published interval overlaps its `[birth, retire]` | yes |
//!
//! All schemes implement [`smr_core::Smr`] and share `smr-core`'s universal
//! three-word node header, so per-node memory overhead is identical across
//! schemes and benchmark comparisons are fair.
//!
//! [`scan_threshold`]: smr_core::SmrConfig::scan_threshold
//! [`max_protect`]: smr_core::SmrConfig::max_protect
//!
//! # Example
//!
//! ```
//! use smr_baselines::Ebr;
//! use smr_core::{Smr, SmrHandle};
//!
//! let domain: Ebr<u64> = Ebr::new();
//! let mut handle = domain.handle();
//! handle.enter();
//! let node = handle.alloc(1);
//! unsafe { handle.retire(node) };
//! handle.leave();
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod battery;
mod ebr;
mod he;
mod hp;
mod ibr;
mod leaky;
mod registry_core;

pub use ebr::{Ebr, EbrHandle};
pub use he::{He, HeHandle};
pub use hp::{Hp, HpHandle};
pub use ibr::{Ibr, IbrHandle};
pub use leaky::{Leaky, LeakyHandle};

/// The orphan hand-off lives in `registry_core`; its tests keep the ids
/// they had when it was a module of its own.
#[cfg(test)]
mod orphan {
    mod tests {
        use crate::registry_core::{link_chain, OrphanList};
        use smr_core::SmrNode;

        #[test]
        fn push_take_roundtrip() {
            let list = OrphanList::<u32>::new();
            let nodes: Vec<_> = (0..4).map(|v| SmrNode::alloc(v).as_ptr()).collect();
            // SAFETY: the nodes are freshly allocated and exclusively ours.
            let (head, tail) = unsafe { link_chain(&nodes) }.unwrap();
            // SAFETY: the nodes are freshly allocated and exclusively ours.
            unsafe { list.push_chain(head, tail) };

            let taken = list.take_all();
            assert!(!taken.is_null());
            let mut seen = Vec::new();
            // SAFETY: `take_all` handed the whole chain to us.
            unsafe {
                OrphanList::for_each_owned(taken, |n| seen.push(n));
            }
            assert_eq!(seen, nodes);
            assert!(list.take_all().is_null());
            for n in nodes {
                // SAFETY: taken back above; freed once.
                unsafe { SmrNode::dealloc(n, true) };
            }
        }

        #[test]
        fn chains_stack_up() {
            let list = OrphanList::<u32>::new();
            let a: Vec<_> = (0..2).map(|v| SmrNode::alloc(v).as_ptr()).collect();
            let b: Vec<_> = (10..13).map(|v| SmrNode::alloc(v).as_ptr()).collect();
            // SAFETY: the nodes are freshly allocated and exclusively ours.
            let (ha, ta) = unsafe { link_chain(&a) }.unwrap();
            // SAFETY: the nodes are freshly allocated and exclusively ours.
            unsafe { list.push_chain(ha, ta) };
            // SAFETY: the nodes are freshly allocated and exclusively ours.
            let (hb, tb) = unsafe { link_chain(&b) }.unwrap();
            // SAFETY: the nodes are freshly allocated and exclusively ours.
            unsafe { list.push_chain(hb, tb) };

            let mut count = 0;
            // SAFETY: `take_all` handed the whole chain to us.
            unsafe {
                OrphanList::for_each_owned(list.take_all(), |n| {
                    count += 1;
                    SmrNode::dealloc(n, true);
                });
            }
            assert_eq!(count, 5);
        }

        #[test]
        fn concurrent_pushes_preserve_all_nodes() {
            let list = &OrphanList::<u64>::new();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    s.spawn(move || {
                        for i in 0..100 {
                            let node = SmrNode::alloc(t * 1000 + i).as_ptr();
                            // SAFETY: a fresh one-node chain of our own.
                            unsafe { list.push_chain(node, node) };
                        }
                    });
                }
            });
            let mut count = 0;
            // SAFETY: `take_all` handed the whole chain to us.
            unsafe {
                OrphanList::for_each_owned(list.take_all(), |n| {
                    count += 1;
                    SmrNode::dealloc(n, true);
                });
            }
            assert_eq!(count, 400);
        }
    }
}
