//! Lock-free data structures generic over safe-memory-reclamation schemes.
//!
//! Six structures: the four of the Hyaline paper's evaluation (Section 6)
//! and the two classics the examples and tests use:
//!
//! * [`HarrisMichaelList`] — the Harris–Michael sorted linked list \[20, 26\]
//!   (Figures 8a/9a).
//! * [`MichaelHashMap`] — Michael's hash map of list buckets \[26\]
//!   (Figures 8c/9c).
//! * [`BonsaiTree`] — the path-copying weight-balanced tree \[13, 35\]
//!   (Figures 8b/9b); every update retires a whole path, stressing
//!   reclamation.
//! * [`NatarajanMittalTree`] — the lock-free external BST \[29\]
//!   (Figures 8d/9d).
//! * [`TreiberStack`], [`MsQueue`] — the classic stack and queue, for the
//!   examples and the integration tests.
//!
//! Every structure takes the reclamation scheme as a type parameter
//! implementing [`smr_core::Smr`] and is written against the typed-pointer
//! layer ([`smr_core::typed`]): loads return borrow-branded
//! [`smr_core::typed::Shared`] pointers that route through the scheme's
//! `protect`, so the robust schemes (HP, HE, IBR, Hyaline-S, Hyaline-1S)
//! are safe and the only `unsafe` left in a structure is its
//! retire/teardown argument. Operations must be bracketed by
//! `enter`/`leave` on the handle — the paper's programming model
//! (Figure 1a).
//!
//! # Example
//!
//! ```
//! use hyaline::Hyaline;
//! use lockfree_ds::MichaelHashMap;
//! use smr_core::SmrHandle;
//!
//! let map: MichaelHashMap<u64, u64, Hyaline<_>> = MichaelHashMap::new();
//! let map = &map;
//! std::thread::scope(|s| {
//!     for t in 0..4 {
//!         s.spawn(move || {
//!             let mut h = map.smr_handle();
//!             h.enter();
//!             map.insert(&mut h, t, t * 10);
//!             h.leave();
//!         });
//!     }
//! });
//! ```

#![warn(missing_docs)]

mod bonsai;
mod hashmap;
mod list;
mod map_api;
mod nmtree;
mod queue;
mod stack;

pub use bonsai::{BonsaiNode, BonsaiTree};
pub use hashmap::{MichaelHashMap, DEFAULT_BUCKETS};
pub use list::{HarrisMichaelList, ListNode};
pub use map_api::ConcurrentMap;
pub use nmtree::{NatarajanMittalTree, NmNode, TreeKey, NM_MIN_PROTECT};
pub use queue::{MsQueue, QueueNode};
pub use stack::{StackNode, TreiberStack};
