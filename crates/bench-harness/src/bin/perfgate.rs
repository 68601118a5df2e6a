//! Compares a candidate JSONL results file against a baseline and fails on
//! perf regressions outside the noise band.
//!
//! ```text
//! cargo run -p bench-harness --bin perfgate -- \
//!     baseline.jsonl candidate.jsonl \
//!     [--tolerance 0.10] [--unreclaimed-tolerance 0.50] [--unreclaimed-slack 64]
//! ```
//!
//! Exit codes: `0` pass, `1` at least one metric of one configuration
//! regressed or a baseline configuration was never compared, `2` usage or
//! I/O error. Identical non-empty files always pass. Every baseline
//! configuration must find its candidate counterpart: zero comparisons, or
//! baseline combos missing from the candidate, are failures, because a gate
//! must not pass when a flag or host default silently changed the keys of
//! exactly the combos that regressed. Candidate-only configurations are new
//! coverage and never fail.

use bench_harness::gate::{compare, Tolerance};
use bench_harness::results::read_records;
use std::path::PathBuf;

fn usage_error(msg: &str) -> ! {
    eprintln!("perfgate: error: {msg}");
    eprintln!(
        "usage: perfgate <baseline.jsonl> <candidate.jsonl> [--tolerance F] \
         [--unreclaimed-tolerance F] [--unreclaimed-slack F]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut tol = Tolerance::default();

    let mut i = 0;
    while i < args.len() {
        let fraction = |i: usize| -> f64 {
            let raw = args
                .get(i + 1)
                .unwrap_or_else(|| usage_error(&format!("{} is missing its value", args[i])));
            raw.parse()
                .ok()
                .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                .unwrap_or_else(|| {
                    usage_error(&format!("{} {raw}: not a non-negative number", args[i]))
                })
        };
        match args[i].as_str() {
            "--tolerance" => tol.mops_frac = fraction(i),
            "--unreclaimed-tolerance" => tol.unreclaimed_frac = fraction(i),
            "--unreclaimed-slack" => tol.unreclaimed_slack = fraction(i),
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            path => {
                files.push(PathBuf::from(path));
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    if files.len() != 2 {
        usage_error(&format!(
            "expected exactly 2 files (baseline, candidate), got {}",
            files.len()
        ));
    }

    let read = |path: &PathBuf| {
        read_records(path).unwrap_or_else(|e| {
            eprintln!("perfgate: error: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(&files[0]);
    let candidate = read(&files[1]);
    println!(
        "perfgate: {} baseline records ({}), {} candidate records ({}), \
         mops band ±{:.0}%, unreclaimed band +{:.0}% (+{})",
        baseline.len(),
        files[0].display(),
        candidate.len(),
        files[1].display(),
        100.0 * tol.mops_frac,
        100.0 * tol.unreclaimed_frac,
        tol.unreclaimed_slack,
    );

    let report = compare(&baseline, &candidate, tol);
    print!("{report}");
    // Records are compared only when every workload/SmrConfig parameter
    // matches, so a vanished combo usually means the candidate ran with
    // other flags or host defaults than the baseline was recorded with.
    if let Some(msg) = report.overlap_failure() {
        eprintln!(
            "perfgate: FAIL — {msg}\n(re-record the baseline with the candidate's sweep \
             command if the keys changed on purpose)"
        );
        std::process::exit(1);
    }
    if report.has_regression() {
        eprintln!("perfgate: FAIL — performance regressed beyond the noise band");
        std::process::exit(1);
    }
    println!("perfgate: PASS");
}
