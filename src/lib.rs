//! Workspace root crate for the Hyaline reproduction.
//!
//! This crate only re-exports the member crates so that the repository-level
//! `examples/` and `tests/` directories can exercise the whole stack through a
//! single dependency. The actual implementation lives in:
//!
//! * [`smr_core`] — shared SMR traits, tagged pointers, the universal node
//!   header, statistics, and the global era clock.
//! * [`hyaline`] — the paper's contribution: Hyaline, Hyaline-1, Hyaline-S and
//!   Hyaline-1S, plus `trim` and adaptive slot resizing; and its wait-free
//!   successor's Crystalline-L and Crystalline-W, two more settings of the
//!   same domain.
//! * [`smr_baselines`] — Leaky, EBR, HP, HE and 2GE-IBR baselines.
//! * [`lockfree_ds`] — the benchmark data structures (Harris–Michael list,
//!   Michael hash map, Bonsai tree, Natarajan–Mittal tree, Treiber stack,
//!   Michael–Scott queue), generic over any SMR scheme.
//! * [`interleave`] — deterministic interleaving exploration (model checking)
//!   of the core algorithms.
//! * [`smr_async`] — the async-native service layer: a dependency-free
//!   executor, task-scoped guards over `HandlePool`, background reclaimer
//!   tasks, and the connection-scale KV demo service.

pub use hyaline;
pub use interleave;
pub use lockfree_ds;
pub use smr_async;
pub use smr_baselines;
pub use smr_core;
