//! Deterministic interleaving exploration for the Hyaline algorithms.
//!
//! Stress tests catch concurrency bugs probabilistically; this crate catches
//! them *exhaustively* for small scenarios. An executable **model** of the
//! paper's algorithms (Figures 3 and 4) is expressed as per-thread state
//! machines in which every transition is exactly one atomic action — one
//! load, one CAS, one FAA. The [`Explorer`] then replays the scenario under
//! every possible schedule (or a seeded random sample when the tree is too
//! large), with safety checks wired into the model itself:
//!
//! * every read of a batch's fields asserts the batch has not been freed
//!   (the model-level equivalent of a use-after-free),
//! * every reference-count zero-crossing asserts the batch is freed exactly
//!   once (double-free), and
//! * at quiescence, every retired batch must have been freed and every
//!   reference count must have returned to zero (leaks, lost adjustments).
//!
//! The model covers the single-list algorithm of §3.1, the multi-slot
//! batched algorithm of §3.2 (including the `Adjs` wrap-around accounting
//! and empty-slot adjustments), the `trim` operation of §3.3, the
//! Hyaline-1 `Inserts` counting of Figure 4, and the robust Hyaline-S of
//! Figure 5 — birth eras, access-era publication, era-based slot skipping
//! — together with *stalled-thread* scenarios whose end-state invariants
//! are the paper's robustness claims (Theorem 4): an unreclaimed batch
//! must be pinned by a stalled slot whose access era covered its birth.
//!
//! Beyond the modelled algorithms, the [`llsc`] module explores the §4.4
//! LL/SC port of the head operations (Figure 7) by stepping the *real*
//! [`hyaline::llsc::Granule`] primitives one atomic action at a time —
//! including a fault-injected single-width-claim variant proving that the
//! reservation granule must span both head words. The [`reclaimer`] module
//! likewise explores the `smr-async` deferred-flush hand-off protocol —
//! dirty check-ins, ticket pushes, background drains, and the shutdown
//! handshake — with fault-injected variants (acknowledging shutdown before
//! draining, dropping a refused ticket, double-freeing a batch) that the
//! end-state and join-point invariants must catch. The [`crystalline`]
//! module explores the Crystalline protocols the same way: the wait-free
//! batch handoff (occupancy-tagged cell entries, displacement, adoption)
//! and the Crystalline-W era-certification helping, again with
//! fault-injected variants (unconditional release, a forgotten handoff
//! reference, certifying before touching) that must each be caught. The
//! [`recycle`] module explores the node-recycling free list of
//! `smr_core::recycle` — magazine spills (`push_block`) racing refills
//! (`take_all`) — whose safety rests on an ABA-freedom-by-construction
//! argument, and demonstrates via a fault-injected Treiber *pop-one*
//! mutant why that operation is deliberately absent from the pool. The
//! [`pool`] module explores `smr_core::HandlePool`: blocking, awaited and
//! cancelled checkouts against check-ins, with the publish-then-read
//! `waiting` handshake stepped action by action and its swapped order
//! caught as a lost wake-up.
//!
//! The exploration assumes **sequential consistency**: it interleaves atomic
//! actions but does not model weaker memory orderings. The production crates
//! use acquire/release (and seq-cst where required); this checker validates
//! the *algorithmic* accounting, while the stress and sanitizer suites cover
//! ordering in the real implementation.
//!
//! # Example
//!
//! ```
//! use interleave::{Explorer, scenarios};
//!
//! // Every interleaving of two threads retiring through one slot
//! // (203,452 schedules).
//! let outcome = Explorer::exhaustive(300_000)
//!     .run(&scenarios::retire_churn(2, 1, 1));
//! assert!(outcome.violation.is_none());
//! assert!(outcome.complete, "schedule tree fully explored");
//! ```

#![warn(missing_docs)]

pub mod crystalline;
pub mod dfs;
pub mod explorer;
pub mod llsc;
pub mod model;
pub mod pool;
pub mod reclaimer;
pub mod recycle;
pub mod scenarios;

pub use crystalline::{CrystalFault, CrystalScenario};
pub use dfs::{DfsOutcome, Violation};
pub use explorer::{Explorer, Outcome};
pub use llsc::{LlscFault, LlscScenario};
pub use model::{HyalineModel, ModelConfig, ThreadProgram, Variant};
pub use pool::{PoolFault, PoolOp, PoolOutcome, PoolScenario};
pub use reclaimer::{ReclaimerFault, ReclaimerScenario};
pub use recycle::{RecycleOp, RecycleScenario};
