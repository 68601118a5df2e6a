//! Shared substrate for safe memory reclamation (SMR) schemes.
//!
//! This crate provides the pieces that every reclamation scheme in the
//! workspace builds on:
//!
//! * [`Shared`] and [`Atomic`] — tagged pointers to reclaimable nodes, with
//!   the low alignment bits available as marks (as required by Harris-style
//!   linked lists and the Natarajan–Mittal tree).
//! * [`NodeHeader`] and [`SmrNode`] — the universal three-word header placed
//!   in front of every reclaimable object. Each scheme interprets the three
//!   words differently (see the crate-level docs of `hyaline` and
//!   `smr-baselines`), which keeps per-node memory identical across schemes
//!   and benchmark comparisons fair, mirroring the accounting in Section 2.4
//!   of the Hyaline paper.
//! * [`Smr`] and [`SmrHandle`] — the scheme-agnostic interface that the
//!   lock-free data structures are written against. It is the Rust analogue
//!   of the `MemoryTracker` interface of the IBR benchmark framework
//!   (Wen et al., PPoPP'18) used by the paper's evaluation.
//! * [`EraClock`] — the global era counter shared by hazard eras, IBR and
//!   Hyaline-S (the paper's `AllocEra`, Figure 5).
//! * [`SmrStats`] — allocation/retire/free counters used to reproduce the
//!   paper's "retired but not yet reclaimed objects per operation" metric.
//! * [`Sharded`] and [`HandlePool`] — scale adapters over any [`Smr`]
//!   implementation: sharded domains bound retire-list traffic and
//!   cross-thread scans to one shard, and handle pools let more tasks than
//!   [`SmrConfig::max_threads`] take turns on registry-based schemes.
//! * [`NodePool`] and [`Magazine`] — the layout-keyed node-recycling layer
//!   ([`recycle`]): while [`SmrConfig::recycle`] is on (the default), every
//!   scheme's reclaim path feeds freed node memory back to `alloc` instead
//!   of the global allocator. It moves free nodes a [`NodeBlock`] (an
//!   array of node addresses) at a time; a Hyaline batch names its nodes
//!   in one too, and keeps its counters in the block's [`BatchWords`].
//!
//! # Example
//!
//! Schemes implement [`Smr`]; data structures use it generically:
//!
//! ```
//! use smr_core::{Atomic, Shared, Smr, SmrHandle};
//!
//! fn publish_and_retire<T, S>(domain: &S, value: T)
//! where
//!     T: Send + 'static,
//!     S: Smr<T>,
//! {
//!     let slot = Atomic::<T>::null();
//!     let mut handle = domain.handle();
//!     handle.enter();
//!     let node = handle.alloc(value);
//!     slot.store(node, std::sync::atomic::Ordering::Release);
//!     let seen = handle.protect(0, &slot);
//!     assert_eq!(seen, node);
//!     // Unlink, then hand the node to the reclamation scheme.
//!     slot.store(Shared::null(), std::sync::atomic::Ordering::Release);
//!     unsafe { handle.retire(seen) };
//!     handle.leave();
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(not(target_pointer_width = "64"))]
compile_error!(
    "smr-core targets 64-bit platforms only: eras are 64-bit and the Hyaline \
     head packs a 16-bit reference count with a 48-bit pointer"
);

mod block;
mod config;
mod era;
mod header;
mod pool;
pub mod recycle;
mod registry;
mod sharded;
mod shared;
mod smr;
mod stats;
pub mod typed;

pub use block::{BatchWords, NodeBlock};
pub use config::SmrConfig;
pub use era::EraClock;
pub use header::{NodeHeader, SmrNode};
pub use pool::{CheckOut, HandlePool, PooledHandle, SlowPath};
pub use recycle::{Magazine, NodePool};
pub use registry::SlotRegistry;
pub use sharded::{Sharded, ShardedHandle};
pub use shared::{Atomic, Shared};
pub use smr::{Smr, SmrHandle};
pub use stats::{LocalStats, SmrStats};

/// Number of low pointer bits usable as tags/marks on [`Shared`] pointers.
///
/// [`SmrNode`] is aligned to at least 8 bytes (it starts with three
/// `AtomicUsize` words), so the low three bits of any node address are zero.
pub const TAG_BITS: u32 = 3;

/// Bit mask selecting the tag bits of a raw [`Shared`] representation.
pub const TAG_MASK: usize = (1 << TAG_BITS) - 1;
