//! A run: rounds of trials over the chosen workloads, reduced to one value
//! per metric, and the traced run that yields the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;

use crate::hist::median;
use crate::metrics::{per_layer, per_layer_names, Better, Metric, END_TO_END};
use crate::probes::run_probes;
use crate::recorder::{RUN, TRACE};
use crate::spans::{self_times, write_jsonl, Span};
use crate::workloads::{run_trial, TrialOut, TrialParams, WORKLOADS};

/// Seconds of measuring per workload in a run, unless `--seconds` says
/// otherwise; the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 33.0;
/// Length of one trial's timed window in a full run.
const TRIAL_SECONDS: f64 = 1.5;

#[derive(Clone)]
pub struct RunOpts {
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    /// Trials per workload. A run's value for a timing metric is the mean
    /// of the best quarter of its trials ([`best_quarter`]), for a count
    /// the median; quantiles are taken inside a trial first.
    pub rounds: u64,
    pub trial_secs: f64,
    pub warmup_ops: u64,
    /// Calls per isolated probe.
    pub probe_calls: u64,
}

impl RunOpts {
    /// As many 1.5 s trials per workload as `seconds` of measuring hold.
    pub fn full(workloads: Vec<&'static str>, seed: u64, seconds: f64) -> Self {
        let rounds = (seconds / TRIAL_SECONDS).round().max(1.0);
        RunOpts {
            workloads,
            seed,
            rounds: rounds as u64,
            trial_secs: seconds / rounds,
            warmup_ops: 2_000_000,
            probe_calls: 1 << 20,
        }
    }

    /// A smoke test: the same checks on one short round.
    pub fn quick(workloads: Vec<&'static str>, seed: u64) -> Self {
        RunOpts {
            workloads,
            seed,
            rounds: 1,
            trial_secs: 0.3,
            warmup_ops: 200_000,
            probe_calls: 1 << 16,
        }
    }

    fn trial(&self, round: u64, trace: bool) -> TrialParams {
        TrialParams {
            seed: self.seed,
            round,
            secs: self.trial_secs,
            warmup_ops: self.warmup_ops,
            trace,
        }
    }
}

/// What one workload, or the traced run, reports.
pub struct Report {
    pub title: String,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    fn new(title: String) -> Self {
        Report {
            title,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn count(&mut self, what: &str, trial: &TrialOut) {
        self.attempted += trial.attempted;
        self.failed += trial.failed;
        self.errors
            .extend(trial.errors.iter().map(|e| format!("{what}: {e}")));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// What a run reports for one timing metric: the mean of the best quarter
/// of its per-trial values (the highest when higher is better, else the
/// lowest; at least one). The host disturbs a trial in one direction only:
/// it makes it slower, for seconds at a time (see README, *Host, and
/// limits*). The quiet quarter of a run repeats from run to run where its
/// median does not, and a change to the code moves the quiet trials like
/// any others.
pub fn best_quarter(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    let best = &sorted[..(sorted.len() / 4).max(1)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// The end-to-end metrics of each chosen workload, measured with tracing
/// off. Every round runs one trial of every workload in turn, so a slow
/// minute on the host hits a few trials of each instead of all of one.
pub fn end_to_end(opts: &RunOpts) -> Vec<Report> {
    let mut trials: Vec<Vec<TrialOut>> = opts.workloads.iter().map(|_| Vec::new()).collect();
    for round in 0..opts.rounds {
        for (workload, trials) in opts.workloads.iter().zip(&mut trials) {
            trials.push(run_trial(workload, &opts.trial(round, false)));
        }
    }
    opts.workloads
        .iter()
        .zip(&trials)
        .map(|(workload, trials)| {
            let mut report = Report::new(format!(
                "{workload} ({} trials of {:.2} s, seed {})",
                trials.len(),
                opts.trial_secs,
                opts.seed
            ));
            let per_trial: [&dyn Fn(&TrialOut) -> f64; 6] = [
                &|t| t.setup_s,
                &|t| t.mops(RUN),
                &|t| t.latency.quantile(0.5),
                &|t| t.latency.quantile(0.99),
                &|t| t.unreclaimed.quantile(0.5),
                &|t| t.unreclaimed.quantile(0.9),
            ];
            for ((name, unit, better, _), value) in END_TO_END.into_iter().zip(per_trial) {
                let values: Vec<f64> = trials.iter().map(value).collect();
                // The host slows trials down; it does not change what they
                // count. Times take the quiet quarter, counts the median.
                let value = if unit == "nodes" {
                    median(&values)
                } else {
                    best_quarter(&values, better)
                };
                report.metrics.push(Metric {
                    name: name.to_string(),
                    value,
                    unit,
                });
            }
            for (round, trial) in trials.iter().enumerate() {
                report.count(&format!("{workload} round {round}"), trial);
            }
            report
        })
        .collect()
}

/// Exact quantile of an ascending set of span times; 0.0 for an empty set.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Self times of one trial's spans by span name, each set ascending.
struct SpanTimes(BTreeMap<&'static str, Vec<u64>>);

impl SpanTimes {
    fn of(workers: &[Vec<Span>]) -> Self {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for spans in workers {
            for (span, own) in spans.iter().zip(self_times(spans)) {
                by_name.entry(span.name).or_default().push(own);
            }
        }
        by_name.values_mut().for_each(|times| times.sort_unstable());
        SpanTimes(by_name)
    }

    fn quantile(&self, name: &str, q: f64) -> f64 {
        self.0.get(name).map_or(0.0, |times| quantile(times, q))
    }

    fn total(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |times| times.iter().sum::<u64>() as f64)
    }
}

/// The span-derived metrics of one traced trial, and a line for the reader
/// on how much of a request its child spans explain.
fn trace_metrics(workload: &str, trial: &TrialOut) -> (Vec<Metric>, String) {
    let own = SpanTimes::of(&trial.spans);
    let mut requests: Vec<u64> = trial
        .spans
        .iter()
        .flatten()
        .filter(|s| s.parent == 0)
        .map(Span::duration)
        .collect();
    requests.sort_unstable();
    let request_total = requests.iter().sum::<u64>() as f64;
    let request_p50 = quantile(&requests, 0.5);
    let request_p99 = quantile(&requests, 0.99);
    let window_ops = (trial.ops[0] + trial.ops[1]) as f64;
    let overhead_pct = (1.0 - trial.mops(TRACE) / trial.mops(RUN)) * 100.0;
    let named = |name: &str, value: f64| per_layer(&format!("trace.{workload}.{name}"), value);

    let (metrics, children) = if let Some((reclaim, served)) = trial.reclaim {
        let kreq = served as f64 / 1e3;
        let metrics = vec![
            named("checkout_self_ns", own.quantile("checkout", 0.5)),
            named("burst_self_ns", own.quantile("burst", 0.5)),
            named("checkin_self_ns", own.quantile("checkin", 0.5)),
            named("yield_resume_ns", own.quantile("yield", 0.5)),
            named("req_p99_ns", request_p99),
            named("unreclaimed_p50_nodes", trial.unreclaimed.quantile(0.5)),
            named("unreclaimed_p90_nodes", trial.unreclaimed.quantile(0.9)),
            named("reclaim_flushed_per_kreq", reclaim.flushed as f64 / kreq),
            named("reclaim_vacuous_per_kreq", reclaim.vacuous as f64 / kreq),
            named("overhead_pct", overhead_pct),
        ];
        (
            metrics,
            ["yield", "checkout", "burst", "checkin"].as_slice(),
        )
    } else {
        let metrics = vec![
            named("enter_self_ns", own.quantile("enter", 0.5)),
            named("op_self_ns", own.quantile("op", 0.5)),
            named("leave_self_ns", own.quantile("leave", 0.5)),
            named("leave_p99_ns", own.quantile("leave", 0.99)),
            named(
                "smr_share",
                (own.total("enter") + own.total("leave")) / request_total,
            ),
            named("retired_per_kop", trial.retired as f64 / (window_ops / 1e3)),
            named("freed_per_kop", trial.freed as f64 / (window_ops / 1e3)),
            named("overhead_pct", overhead_pct),
        ];
        (metrics, ["enter", "op", "leave"].as_slice())
    };
    let explained: f64 = children.iter().map(|name| own.quantile(name, 0.5)).sum();
    let note = format!(
        "{} traced requests; median request {request_p50:.0} ns, own self time {:.0} ns, child medians cover {:.0} %",
        requests.len(),
        own.quantile("request", 0.5),
        100.0 * explained / request_p50
    );
    (metrics, note)
}

/// The traced run: one trial of every workload whose window alternates
/// between tracing on and off, then the isolated probes. All four
/// workloads run whatever `opts.workloads` says, because the per-layer list
/// is printed whole.
pub fn traced(opts: &RunOpts, out_dir: &Path) -> Report {
    let mut report = Report::new(format!(
        "per-layer metrics (traced run, seed {})",
        opts.seed
    ));
    for workload in WORKLOADS {
        let trial = run_trial(workload, &opts.trial(0, true));
        let (metrics, note) = trace_metrics(workload, &trial);
        println!("trace.{workload}: {note}");
        report.metrics.extend(metrics);
        report.count(&format!("{workload} traced"), &trial);
        let path = out_dir.join(format!("trace-{workload}.jsonl"));
        if let Err(e) = write_jsonl(&path, &trial.spans) {
            report
                .errors
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    let probes = run_probes(opts.probe_calls, &opts.trial(0, false));
    report.metrics.extend(probes.metrics);
    for (what, trial) in &probes.trials {
        report.count(what, trial);
    }
    // Print the list `BENCHMARK.json` promises, whole and in its order.
    let measured = std::mem::take(&mut report.metrics);
    for name in per_layer_names() {
        match measured.iter().find(|m| m.name == name) {
            Some(metric) => report.metrics.push(metric.clone()),
            None => report.errors.push(format!("no value for {name}")),
        }
    }
    report
}

pub fn print_report(report: &Report) {
    println!("== {}", report.title);
    for metric in &report.metrics {
        println!(
            "  {:<44} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        report.attempted, report.failed
    );
    for error in &report.errors {
        println!("  FAILED CHECK {error}");
    }
}

/// The result line the driver reads: one JSON object, printed last. With
/// several reports the metric names are prefixed with the workload's.
pub fn result_line(reports: &[(&str, &Report)]) -> String {
    let mut metrics = Vec::new();
    for (prefix, report) in reports {
        for m in &report.metrics {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            metrics.push(format!(
                "\"{prefix}{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
    }
    let correct = reports.iter().all(|(_, r)| r.correct());
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    // A check that did not hold counts as one failure beside the failed ops.
    let failed: u64 = reports
        .iter()
        .map(|(_, r)| r.failed + r.errors.len() as u64)
        .sum();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer_names, trace_names};
    use crate::recorder::Recorder;
    use crate::workloads::testing::trial_from;
    use smr_async::ReclaimStats;

    #[test]
    fn best_quarter_is_the_mean_of_the_best_values() {
        let eight = [5.0, 1.0, 7.0, 3.0, 8.0, 2.0, 6.0, 4.0];
        assert_eq!(best_quarter(&eight, Better::Lower), 1.5);
        assert_eq!(best_quarter(&eight, Better::Higher), 7.5);
        // Fewer than four values: the best one.
        assert_eq!(best_quarter(&[3.0, 2.0, 9.0], Better::Lower), 2.0);
        assert_eq!(best_quarter(&[], Better::Lower), 0.0);
        // A disturbed majority does not reach the result.
        let mut trials = vec![100.0; 4];
        trials.extend([500.0; 12]);
        assert_eq!(best_quarter(&trials, Better::Lower), 100.0);
    }

    #[test]
    fn a_full_run_is_made_of_trials_of_a_second_and_a_half() {
        let opts = RunOpts::full(vec!["nmtree-read"], 1, DEFAULT_SECONDS);
        assert_eq!((opts.rounds, opts.trial_secs), (22, 1.5));
        let opts = RunOpts::full(vec!["nmtree-read"], 1, 10.0);
        assert_eq!(opts.rounds, 7);
        assert!((opts.trial_secs * 7.0 - 10.0).abs() < 1e-9);
        assert_eq!(RunOpts::full(vec![], 1, 0.1).rounds, 1);
    }

    #[test]
    fn exact_quantiles() {
        let values = [1, 2, 3, 4, 5];
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 0.99), 5.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    fn traced_recorder(children: &[&'static str]) -> Recorder {
        let mut rec = Recorder::new(0, 1, true);
        for i in 0..10u64 {
            let at = i * 100;
            let kids: Vec<_> = children
                .iter()
                .enumerate()
                .map(|(k, name)| (*name, at + 10 + 20 * k as u64, at + 30 + 20 * k as u64))
                .collect();
            rec.push_request(at, at + 100, &kids);
            rec.complete(
                at + 100,
                if i % 2 == 0 { RUN } else { TRACE },
                1,
                Some(at),
                || 7,
            );
        }
        rec
    }

    #[test]
    fn every_workload_emits_its_trace_names() {
        for workload in WORKLOADS {
            let kv = workload == "kv-service";
            let children: &[&'static str] = if kv {
                &["yield", "checkout", "burst", "checkin"]
            } else {
                &["enter", "op", "leave"]
            };
            let reclaim = kv.then_some((
                ReclaimStats {
                    flushed: 3,
                    vacuous: 1,
                    swept: 0,
                },
                2000,
            ));
            let trial = trial_from(traced_recorder(children), reclaim);
            let (metrics, note) = trace_metrics(workload, &trial);
            let got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<String> = trace_names(workload)
                .iter()
                .map(|n| format!("trace.{workload}.{n}"))
                .collect();
            assert_eq!(got, want);
            assert!(
                note.starts_with("10 traced requests; median request 100 ns"),
                "{note}"
            );
            if kv {
                assert_eq!(metrics[0].value, 20.0, "checkout self time");
                assert_eq!(metrics[7].value, 1.5, "3 flushes per 2 kreq");
            } else {
                assert_eq!(metrics[0].value, 20.0, "enter self time");
                assert_eq!(
                    metrics[4].value, 0.4,
                    "enter + leave cover 40 of each 100 ns"
                );
            }
        }
    }

    #[test]
    fn result_line_is_the_contracts_shape() {
        let mut report = Report::new("t".into());
        report.attempted = 12;
        report.metrics.push(Metric {
            name: "setup_s".into(),
            value: 0.25,
            unit: "s",
        });
        assert_eq!(
            result_line(&[("", &report)]),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        report.errors.push("leak".into());
        let line = result_line(&[("w.", &report)]);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1, "),
            "{line}"
        );
        assert!(line.contains("\"w.setup_s\""), "{line}");
    }

    fn tiny() -> RunOpts {
        RunOpts {
            workloads: WORKLOADS.to_vec(),
            seed: 3,
            rounds: 2,
            trial_secs: 0.2,
            warmup_ops: 4_096,
            probe_calls: 1 << 10,
        }
    }

    /// The whole benchmark on a small scale: every workload runs, every
    /// output check holds and every end-to-end metric has a value.
    #[test]
    fn a_tiny_run_reports_every_end_to_end_metric() {
        let reports = end_to_end(&tiny());
        assert_eq!(reports.len(), WORKLOADS.len());
        for report in &reports {
            assert!(report.correct(), "{}: {:?}", report.title, report.errors);
            assert!(report.attempted > 2 * (4_096 + 8_192 + 4_096));
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, END_TO_END.map(|(name, ..)| name));
            assert!(
                report.metrics.iter().all(|m| m.value > 0.0),
                "{}",
                report.title
            );
        }
    }

    /// The traced run on a small scale prints the per-layer list whole and
    /// leaves one trace file per workload.
    #[test]
    fn a_tiny_traced_run_reports_every_per_layer_metric() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-traced");
        let report = traced(&tiny(), &out);
        assert!(report.correct(), "{:?}", report.errors);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, per_layer_names());
        for workload in WORKLOADS {
            let trace =
                std::fs::read_to_string(out.join(format!("trace-{workload}.jsonl"))).unwrap();
            assert!(
                trace
                    .lines()
                    .next()
                    .is_some_and(|l| l.starts_with("{\"name\":\"request\"")),
                "{workload}"
            );
        }
        std::fs::remove_dir_all(&out).unwrap();
    }

    /// The per-layer list is the traced workloads' names, then the probes'.
    #[test]
    fn per_layer_names_start_with_the_traces() {
        let names = per_layer_names();
        assert_eq!(names[0], "trace.hashmap-write.enter_self_ns");
        assert_eq!(names[8 * 3], "trace.kv-service.checkout_self_ns");
        assert_eq!(names[8 * 3 + 10], "hyaline.enter_leave_ns");
    }
}
