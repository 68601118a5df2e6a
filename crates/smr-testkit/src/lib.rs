//! Fault-injection and validation utilities for testing safe-memory-
//! reclamation (SMR) schemes.
//!
//! Reclamation bugs — use-after-free, double-free, leaks — are silent until
//! they corrupt something far away. This crate provides payload types and
//! harness helpers that turn those silent failures into immediate, attributable
//! panics:
//!
//! * [`drop_tracker`] — payloads that count live instances, so tests can
//!   assert "every allocation was dropped exactly once" after teardown.
//! * [`canary`] — payloads carrying a magic word that is poisoned on drop, so
//!   a read through a dangling pointer fails its checksum instead of returning
//!   plausible garbage.
//! * [`token`] — a mint for per-key unique values, so any value observed in a
//!   map can be traced back to the insert that produced it (a read of reused
//!   memory surfaces as an unmintable token).
//! * [`stall`] — deterministic stalled-thread injection (the adversary of the
//!   paper's robustness experiments).
//! * [`oracle`] — a sequential reference model for single-threaded
//!   linearizability checks, and a generator of reproducible operation
//!   sequences.
//! * [`rules`] — the two source rules clippy cannot express (`static mut`,
//!   an unjustified `Relaxed` pointer load), over a [`lexer`] view that
//!   blanks comments and literals.
//!
//! # Example
//!
//! ```
//! use smr_testkit::drop_tracker::DropRegistry;
//!
//! let registry = DropRegistry::new();
//! let payload = registry.track(42u64);
//! assert_eq!(registry.live(), 1);
//! drop(payload);
//! assert_eq!(registry.live(), 0);
//! registry.assert_quiescent();
//! ```

#![warn(missing_docs)]

pub mod canary;
pub mod drop_tracker;
pub mod lexer;
pub mod oracle;
pub mod rules;
pub mod stall;
pub mod token;

pub use canary::Canary;
pub use drop_tracker::{DropRegistry, Tracked};
pub use oracle::{MapOp, OpSequence, SequentialOracle};
pub use stall::StallPoint;
pub use token::TokenMint;
