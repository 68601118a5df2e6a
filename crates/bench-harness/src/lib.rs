//! The benchmark harness reproducing the Hyaline paper's evaluation.
//!
//! The paper (Section 6 + Appendix A) evaluates nine reclamation schemes on
//! four lock-free data structures with two operation mixes, plus a
//! robustness experiment with stalled threads and a trimming experiment.
//! This crate provides:
//!
//! * [`workload`] — the paper's operation mixes and key distribution.
//! * [`driver`] — the measured run loop: prefill, fixed-duration mixed
//!   workload, throughput and unreclaimed-object sampling, stalled-thread
//!   injection, and §3.3 `trim`-driven operation windows.
//! * [`registry`] — string-keyed dispatch over every scheme × structure
//!   combination (mirroring the paper's figure legends, including the
//!   structural exclusions of HP/HE from the Bonsai tree).
//! * [`figures`] — one function per paper figure, returning render-ready
//!   [`report::FigureTable`]s and recording each cell into an optional
//!   [`ResultSink`].
//! * [`cli`] — the `sweep` binary's strict command line: which sweeps,
//!   schemes and structures, at what scale, with laptop-scale defaults.
//! * [`results`] — persistent JSONL benchmark records with full
//!   configuration provenance (dependency-free encoder/decoder), written by
//!   the `sweep` binary, the one driver of the paper's figures.
//! * [`gate`] — the perf-regression gate consumed by the `perfgate` binary:
//!   compares two JSONL files with per-metric noise bands.
//!
//! # Example
//!
//! ```no_run
//! use bench_harness::driver::BenchParams;
//! use bench_harness::figures::throughput_figures;
//! use bench_harness::registry::FIGURE_SCHEMES;
//!
//! let (throughput, unreclaimed) = throughput_figures(
//!     "Fig 8c", "hashmap", &[1, 2, 4], &BenchParams::default(), FIGURE_SCHEMES, None,
//! );
//! println!("{throughput}\n{unreclaimed}");
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod driver;
pub mod figures;
pub mod gate;
pub mod registry;
pub mod report;
pub mod results;
pub mod workload;

pub use driver::{run_bench, BenchParams, RunResult};
pub use report::FigureTable;
pub use results::{BenchRecord, Provenance, ResultSink};
