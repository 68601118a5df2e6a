//! A/A: two interleaved sets of runs of the same binary. Whatever differs
//! between the sets is noise, so this measures the band inside which the
//! benchmark cannot tell two versions apart.

use std::fmt::Write;
use std::path::Path;

use crate::hist::median;
use crate::metrics::END_TO_END;
use crate::run::{end_to_end, RunOpts};

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is how the driver judges
/// spread.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Runs `2 * runs` end-to-end runs, alternating between set A and set B
/// (run `k` of either set uses seed `opts.seed + k`), prints and writes the
/// comparison, and says whether every difference stayed within its bound
/// and every output check held.
pub fn run(opts: &RunOpts, runs: usize, out: &Path) -> bool {
    let cells = opts.workloads.len() * END_TO_END.len();
    let mut sets = [vec![Vec::new(); cells], vec![Vec::new(); cells]];
    let mut correct = true;
    for i in 0..2 * runs {
        let mut opts = opts.clone();
        opts.seed += (i / 2) as u64;
        eprintln!(
            "aa: run {} of {} (set {}, seed {})",
            i + 1,
            2 * runs,
            ["A", "B"][i % 2],
            opts.seed
        );
        let reports = end_to_end(&opts);
        correct &= reports.iter().all(|r| r.correct());
        let throughputs: Vec<String> = reports
            .iter()
            .map(|r| format!("{:.2}", r.metrics[1].value))
            .collect();
        eprintln!("aa:   throughput_mops {}", throughputs.join(" "));
        let values = reports.iter().flat_map(|r| &r.metrics).map(|m| m.value);
        for (cell, value) in sets[i % 2].iter_mut().zip(values) {
            cell.push(value);
        }
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut text = format!(
        "# A/A: two sets of {runs} runs of the same binary\n\n\
         Runs alternate A, B, A, B, …; run k of either set uses seed {} + k. Each run is {} rounds of \
         one {:.2} s trial per workload, on a host with {cores} hardware threads. `diff` is \
         (median B − median A) / median A; `spread` is the distance between the first and third \
         quartile of all {} values over their median. A row fails when |diff| exceeds the metric's bound.\n\n\
         | workload | metric | median A | median B | diff % | spread % | bound % | |\n\
         |---|---|---:|---:|---:|---:|---:|---|\n",
        opts.seed,
        opts.rounds,
        opts.trial_secs,
        2 * runs
    );
    let mut within = true;
    let names = opts
        .workloads
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |m| (w, m)));
    for (cell, (workload, (metric, _, _, bound))) in names.enumerate() {
        let (a, b) = (&sets[0][cell], &sets[1][cell]);
        let (median_a, median_b) = (median(a), median(b));
        let diff = (median_b - median_a) / median_a;
        let pooled: Vec<f64> = a.iter().chain(b).copied().collect();
        let (q1, q3) = quartiles(&pooled);
        let spread = (q3 - q1) / median(&pooled);
        let ok = diff.abs() <= *bound;
        within &= ok;
        writeln!(
            text,
            "| {workload} | {metric} | {median_a:.4} | {median_b:.4} | {:+.2} | {:.2} | {:.0} | {} |",
            diff * 100.0,
            spread * 100.0,
            bound * 100.0,
            if ok { "ok" } else { "OUTSIDE" }
        )
        .expect("writing to a String");
    }
    writeln!(
        text,
        "\n{}",
        match (within, correct) {
            (true, true) => "Every difference is within its bound and every output check held.",
            (false, _) => "At least one difference is outside its bound.",
            (true, false) => "An output check failed.",
        }
    )
    .expect("writing to a String");
    print!("{text}");
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("aa: writing {}: {e}", out.display());
        return false;
    }
    within && correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 2, 8, 4, 6, 12], n=4)
        assert_eq!(quartiles(&[10.0, 2.0, 8.0, 4.0, 6.0, 12.0]), (3.5, 10.5));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
