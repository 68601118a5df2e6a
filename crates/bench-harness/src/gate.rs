//! The perf-regression gate: compares two JSONL result files.
//!
//! Records are grouped by configuration key (scheme, structure, mix,
//! threads, stalled, trim mode), duplicate records per key are averaged
//! (repeated sweeps appended to the same file act as extra trials), and each
//! key present in both files gets a per-metric verdict with a noise band:
//!
//! * **Mops/s** — lower than `baseline * (1 - tolerance)` is a regression.
//! * **avg unreclaimed** — higher than `baseline * (1 + tolerance) + slack`
//!   is a regression (the unreclaimed metric is far noisier than
//!   throughput, so its band is wider and carries an absolute slack for
//!   near-zero baselines).
//!
//! Identical files always pass: every delta is zero, inside any band.

use std::collections::BTreeMap;
use std::fmt;

use crate::results::BenchRecord;

/// Noise bands used by [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Fractional Mops/s band (0.10 = a 10% drop is still noise).
    pub mops_frac: f64,
    /// Fractional unreclaimed band.
    pub unreclaimed_frac: f64,
    /// Absolute unreclaimed slack added on top of the fractional band.
    pub unreclaimed_slack: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            mops_frac: 0.10,
            unreclaimed_frac: 0.50,
            unreclaimed_slack: 64.0,
        }
    }
}

/// Identifies one benchmark configuration across files.
///
/// The key covers *every* parameter that shapes the measurement — the
/// workload (mix, threads, stalled, duration, prefill, key range, seed,
/// sampling, trim window) and the full `SmrConfig` — so records measured
/// under different configurations are never averaged together or compared
/// as if they were trials of one another. Only metrics and environment
/// provenance (git sha, host cores, timestamp) stay out of the key: those
/// are what the gate compares *across*.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ComboKey {
    /// Scheme series name.
    pub scheme: String,
    /// Structure name.
    pub structure: String,
    /// Operation-mix short label.
    pub mix: String,
    /// Active threads.
    pub threads: u64,
    /// Stalled threads.
    pub stalled: u64,
    /// Trim-driven operations.
    pub use_trim: bool,
    /// Measured seconds per trial, as raw bits (`f64` is not `Ord`;
    /// bit-equality is exactly what "same configuration" means here).
    pub secs_bits: u64,
    /// Elements prefilled.
    pub prefill: u64,
    /// Key range.
    pub key_range: u64,
    /// Sampling period.
    pub sample_every: u64,
    /// Trim window.
    pub trim_window: u64,
    /// RNG seed.
    pub seed: u64,
    /// `SmrConfig`: slot count.
    pub slots: u64,
    /// `SmrConfig`: minimum batch size.
    pub batch_min: u64,
    /// `SmrConfig`: era-advance frequency.
    pub era_freq: u64,
    /// `SmrConfig`: scan threshold.
    pub scan_threshold: u64,
    /// `SmrConfig`: protection indices.
    pub max_protect: u64,
    /// `SmrConfig`: Ack saturation threshold.
    pub ack_threshold: i64,
    /// `SmrConfig`: adaptive resizing.
    pub adaptive: bool,
    /// `SmrConfig`: registry capacity.
    pub max_threads: u64,
    /// `SmrConfig`: shard count (1 = unsharded).
    pub shards: u64,
    /// Operations per pooled-handle checkout (0 = no handle churn).
    pub handle_churn: u64,
    /// Shard routing mode label ("by-key" / "by-pointer").
    pub routing: String,
    /// Crystalline handoff threshold (pre-schema-4 lines decode as 8).
    pub handoff_attempts: u64,
    /// Node recycling enabled (pre-schema-5 lines decode as false).
    pub recycle: bool,
    /// Recycle-pool capacity as configured.
    pub recycle_capacity: u64,
    /// Recycle-magazine capacity as configured.
    pub recycle_magazine: u64,
    /// Simulated connections (0 = thread-driven run).
    pub connections: u64,
}

impl ComboKey {
    fn of(r: &BenchRecord) -> Self {
        Self {
            scheme: r.scheme.clone(),
            structure: r.structure.clone(),
            mix: r.mix.clone(),
            threads: r.threads,
            stalled: r.stalled,
            use_trim: r.use_trim,
            secs_bits: r.secs.to_bits(),
            prefill: r.prefill,
            key_range: r.key_range,
            sample_every: r.sample_every,
            trim_window: r.trim_window,
            seed: r.seed,
            slots: r.slots,
            batch_min: r.batch_min,
            era_freq: r.era_freq,
            scan_threshold: r.scan_threshold,
            max_protect: r.max_protect,
            ack_threshold: r.ack_threshold,
            adaptive: r.adaptive,
            max_threads: r.max_threads,
            shards: r.shards,
            handle_churn: r.handle_churn,
            routing: r.routing.clone(),
            handoff_attempts: r.handoff_attempts,
            recycle: r.recycle,
            recycle_capacity: r.recycle_capacity,
            recycle_magazine: r.recycle_magazine,
            connections: r.connections,
        }
    }
}

impl fmt::Display for ComboKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} {} t={}",
            self.scheme, self.structure, self.mix, self.threads
        )?;
        if self.stalled > 0 {
            write!(f, " stalled={}", self.stalled)?;
        }
        if self.use_trim {
            write!(f, " trim")?;
        }
        // Enough of the configuration to tell colliding-looking lines
        // apart; the JSONL files hold the rest.
        if self.shards > 1 {
            write!(f, " shards={} routing={}", self.shards, self.routing)?;
        }
        if self.handle_churn > 0 {
            write!(f, " churn={}", self.handle_churn)?;
        }
        if self.connections > 0 {
            write!(f, " conns={}", self.connections)?;
        }
        if self.handoff_attempts != 8 {
            write!(f, " handoff={}", self.handoff_attempts)?;
        }
        if self.recycle {
            write!(f, " recycle")?;
        }
        write!(
            f,
            " [secs={} range={} slots={}{}]",
            f64::from_bits(self.secs_bits),
            self.key_range,
            self.slots,
            if self.adaptive { " adaptive" } else { "" },
        )
    }
}

/// Verdict for one metric of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Outside the band in the bad direction.
    Regressed,
    /// Outside the band in the good direction.
    Improved,
    /// Inside the noise band.
    WithinNoise,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::WithinNoise => "ok",
        })
    }
}

/// Per-configuration comparison of baseline vs candidate.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The configuration compared.
    pub key: ComboKey,
    /// Baseline Mops/s (averaged over duplicate records).
    pub baseline_mops: f64,
    /// Candidate Mops/s.
    pub candidate_mops: f64,
    /// Throughput verdict.
    pub mops_verdict: Verdict,
    /// Baseline avg unreclaimed.
    pub baseline_unreclaimed: f64,
    /// Candidate avg unreclaimed.
    pub candidate_unreclaimed: f64,
    /// Unreclaimed verdict.
    pub unreclaimed_verdict: Verdict,
}

impl Comparison {
    /// Fractional throughput change, candidate vs baseline (−0.2 = 20% slower).
    pub fn mops_delta_frac(&self) -> f64 {
        if self.baseline_mops == 0.0 {
            0.0
        } else {
            self.candidate_mops / self.baseline_mops - 1.0
        }
    }
}

/// The full gate outcome.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Per-configuration comparisons, key-ordered.
    pub comparisons: Vec<Comparison>,
    /// Configurations only the baseline has (coverage shrank).
    pub only_in_baseline: Vec<ComboKey>,
    /// Configurations only the candidate has (new coverage; never a failure).
    pub only_in_candidate: Vec<ComboKey>,
}

impl GateReport {
    /// Whether any metric of any configuration regressed.
    pub fn has_regression(&self) -> bool {
        self.comparisons.iter().any(|c| {
            c.mops_verdict == Verdict::Regressed || c.unreclaimed_verdict == Verdict::Regressed
        })
    }

    /// The `--require-overlap` verdict: `None` when at least one comparison
    /// happened and every baseline configuration found its candidate
    /// counterpart; otherwise the failure text naming *each* baseline combo
    /// that was never compared, so the log shows which key drifted (scheme
    /// renamed, a config flag or host default changed) instead of only how
    /// many.
    pub fn overlap_failure(&self) -> Option<String> {
        if !self.comparisons.is_empty() && self.only_in_baseline.is_empty() {
            return None;
        }
        let mut msg = if self.comparisons.is_empty() {
            "nothing was compared".to_string()
        } else {
            format!(
                "{} of {} baseline configuration(s) have no candidate counterpart",
                self.only_in_baseline.len(),
                self.comparisons.len() + self.only_in_baseline.len()
            )
        };
        for k in &self.only_in_baseline {
            msg.push_str("\n  not compared: ");
            msg.push_str(&k.to_string());
        }
        Some(msg)
    }

    /// Counts of (regressed, improved, within-noise) across both metrics.
    pub fn tallies(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for v in self
            .comparisons
            .iter()
            .flat_map(|c| [c.mops_verdict, c.unreclaimed_verdict])
        {
            match v {
                Verdict::Regressed => t.0 += 1,
                Verdict::Improved => t.1 += 1,
                Verdict::WithinNoise => t.2 += 1,
            }
        }
        t
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .comparisons
            .iter()
            .map(|c| &c.key)
            .chain(&self.only_in_baseline)
            .chain(&self.only_in_candidate)
            .map(|k| k.to_string().len())
            .max()
            .unwrap_or(0)
            .max(55);
        for c in &self.comparisons {
            writeln!(
                f,
                "{:<width$} mops {:>9.4} -> {:>9.4} ({:+6.1}%) {:<9}  unreclaimed {:>10.1} -> {:>10.1} {}",
                c.key.to_string(),
                c.baseline_mops,
                c.candidate_mops,
                100.0 * c.mops_delta_frac(),
                c.mops_verdict.to_string(),
                c.baseline_unreclaimed,
                c.candidate_unreclaimed,
                c.unreclaimed_verdict,
            )?;
        }
        for k in &self.only_in_baseline {
            writeln!(f, "{:<width$} missing from candidate (not compared)", k.to_string())?;
        }
        for k in &self.only_in_candidate {
            writeln!(f, "{:<width$} new in candidate (no baseline yet)", k.to_string())?;
        }
        let (reg, imp, noise) = self.tallies();
        writeln!(
            f,
            "verdicts: {reg} regressed, {imp} improved, {noise} within noise \
             ({} compared, {} baseline-only, {} candidate-only)",
            self.comparisons.len(),
            self.only_in_baseline.len(),
            self.only_in_candidate.len(),
        )
    }
}

#[derive(Default)]
struct Averaged {
    mops: f64,
    unreclaimed: f64,
    n: u64,
}

fn aggregate(records: &[BenchRecord]) -> BTreeMap<ComboKey, Averaged> {
    let mut map: BTreeMap<ComboKey, Averaged> = BTreeMap::new();
    for r in records {
        let e = map.entry(ComboKey::of(r)).or_default();
        e.mops += r.mops;
        e.unreclaimed += r.avg_unreclaimed;
        e.n += 1;
    }
    for e in map.values_mut() {
        e.mops /= e.n as f64;
        e.unreclaimed /= e.n as f64;
    }
    map
}

/// Compares candidate records against a baseline under `tol`.
pub fn compare(baseline: &[BenchRecord], candidate: &[BenchRecord], tol: Tolerance) -> GateReport {
    let base = aggregate(baseline);
    let mut cand = aggregate(candidate);
    let mut report = GateReport::default();
    for (key, b) in base {
        let Some(c) = cand.remove(&key) else {
            report.only_in_baseline.push(key);
            continue;
        };
        let mops_verdict = if c.mops < b.mops * (1.0 - tol.mops_frac) {
            Verdict::Regressed
        } else if c.mops > b.mops * (1.0 + tol.mops_frac) {
            Verdict::Improved
        } else {
            Verdict::WithinNoise
        };
        let unrec_high = b.unreclaimed * (1.0 + tol.unreclaimed_frac) + tol.unreclaimed_slack;
        let unrec_low = b.unreclaimed * (1.0 - tol.unreclaimed_frac) - tol.unreclaimed_slack;
        let unreclaimed_verdict = if c.unreclaimed > unrec_high {
            Verdict::Regressed
        } else if c.unreclaimed < unrec_low {
            Verdict::Improved
        } else {
            Verdict::WithinNoise
        };
        report.comparisons.push(Comparison {
            key,
            baseline_mops: b.mops,
            candidate_mops: c.mops,
            mops_verdict,
            baseline_unreclaimed: b.unreclaimed,
            candidate_unreclaimed: c.unreclaimed,
            unreclaimed_verdict,
        });
    }
    report.only_in_candidate.extend(cand.into_keys());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{BenchParams, RunResult};
    use crate::results::{BenchRecord, Provenance};
    use crate::workload::OpMix;

    fn record(scheme: &str, threads: usize, mops: f64, unreclaimed: f64) -> BenchRecord {
        let params = BenchParams {
            threads,
            mix: OpMix::WriteIntensive,
            ..BenchParams::default()
        };
        let result = RunResult {
            mops,
            avg_unreclaimed: unreclaimed,
            ops: (mops * 1e6) as u64,
            ..RunResult::default()
        };
        let prov = Provenance {
            git_sha: None,
            host_cores: 4,
            timestamp: "0".into(),
        };
        BenchRecord::from_run("test", scheme, "hashmap", &params, &result, &prov)
    }

    #[test]
    fn identical_files_pass() {
        let recs = vec![record("Hyaline", 4, 10.0, 100.0), record("Epoch", 4, 8.0, 500.0)];
        let report = compare(&recs, &recs, Tolerance::default());
        assert!(!report.has_regression());
        assert_eq!(report.comparisons.len(), 2);
        assert!(report
            .comparisons
            .iter()
            .all(|c| c.mops_verdict == Verdict::WithinNoise
                && c.unreclaimed_verdict == Verdict::WithinNoise));
    }

    #[test]
    fn clear_regression_detected() {
        // 20% throughput drop against a 10% band: regression.
        let base = vec![record("Hyaline", 4, 10.0, 100.0)];
        let cand = vec![record("Hyaline", 4, 8.0, 100.0)];
        let report = compare(&base, &cand, Tolerance::default());
        assert!(report.has_regression());
        assert_eq!(report.comparisons[0].mops_verdict, Verdict::Regressed);
        assert_eq!(
            report.comparisons[0].unreclaimed_verdict,
            Verdict::WithinNoise
        );
        assert!((report.comparisons[0].mops_delta_frac() + 0.2).abs() < 1e-12);
    }

    #[test]
    fn clear_improvement_detected() {
        let base = vec![record("Hyaline", 4, 10.0, 1000.0)];
        let cand = vec![record("Hyaline", 4, 13.0, 100.0)];
        let report = compare(&base, &cand, Tolerance::default());
        assert!(!report.has_regression());
        assert_eq!(report.comparisons[0].mops_verdict, Verdict::Improved);
        assert_eq!(report.comparisons[0].unreclaimed_verdict, Verdict::Improved);
    }

    #[test]
    fn within_noise_passes() {
        // 5% drop inside the 10% band; unreclaimed up but inside frac+slack.
        let base = vec![record("Hyaline", 4, 10.0, 100.0)];
        let cand = vec![record("Hyaline", 4, 9.5, 140.0)];
        let report = compare(&base, &cand, Tolerance::default());
        assert!(!report.has_regression());
        let c = &report.comparisons[0];
        assert_eq!(c.mops_verdict, Verdict::WithinNoise);
        assert_eq!(c.unreclaimed_verdict, Verdict::WithinNoise);
    }

    #[test]
    fn unreclaimed_blowup_is_a_regression() {
        let base = vec![record("Hyaline-S", 8, 10.0, 100.0)];
        let cand = vec![record("Hyaline-S", 8, 10.0, 500.0)];
        let report = compare(&base, &cand, Tolerance::default());
        assert!(report.has_regression());
        assert_eq!(report.comparisons[0].mops_verdict, Verdict::WithinNoise);
        assert_eq!(report.comparisons[0].unreclaimed_verdict, Verdict::Regressed);
    }

    #[test]
    fn duplicate_records_average_as_trials() {
        // Baseline 10.0; candidate trials 8.0 and 12.0 average to 10.0.
        let base = vec![record("Hyaline", 4, 10.0, 0.0)];
        let cand = vec![record("Hyaline", 4, 8.0, 0.0), record("Hyaline", 4, 12.0, 0.0)];
        let report = compare(&base, &cand, Tolerance::default());
        assert!(!report.has_regression());
        assert!((report.comparisons[0].candidate_mops - 10.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_changes_reported_not_failed() {
        let base = vec![record("Hyaline", 4, 10.0, 0.0), record("Epoch", 4, 8.0, 0.0)];
        let cand = vec![record("Hyaline", 4, 10.0, 0.0), record("HP", 4, 2.0, 0.0)];
        let report = compare(&base, &cand, Tolerance::default());
        assert!(!report.has_regression());
        assert_eq!(report.only_in_baseline.len(), 1);
        assert_eq!(report.only_in_candidate.len(), 1);
        assert_eq!(report.only_in_baseline[0].scheme, "Epoch");
        assert_eq!(report.only_in_candidate[0].scheme, "HP");
        let text = report.to_string();
        assert!(text.contains("missing from candidate"));
        assert!(text.contains("new in candidate"));
    }

    #[test]
    fn different_configs_never_average_or_compare() {
        let a = record("Hyaline", 4, 10.0, 0.0);
        // Same scheme/structure/mix/threads but a different key range:
        // a different experiment, so the records must not be compared.
        let mut b = record("Hyaline", 4, 2.0, 0.0);
        b.key_range = 100_000;
        let report = compare(
            std::slice::from_ref(&a),
            std::slice::from_ref(&b),
            Tolerance::default(),
        );
        assert!(!report.has_regression());
        assert!(report.comparisons.is_empty());
        assert_eq!(report.only_in_baseline.len(), 1);
        assert_eq!(report.only_in_candidate.len(), 1);
        // Within one file, different SmrConfigs keep separate keys instead
        // of silently averaging (e.g. capped vs default slots).
        let mut c = record("Hyaline", 4, 100.0, 0.0);
        c.slots += 1;
        let report = compare(&[a.clone(), c.clone()], &[a, c], Tolerance::default());
        assert_eq!(report.comparisons.len(), 2);
        assert!(!report.has_regression());
    }

    #[test]
    fn sharded_and_churn_configs_key_separately() {
        // A sharded run and a handle-churn run of the same scheme must not
        // be averaged with (or compared against) the plain configuration.
        let plain = record("Hyaline", 4, 10.0, 0.0);
        let mut sharded = record("Hyaline", 4, 14.0, 0.0);
        sharded.shards = 4;
        let mut churn = record("Hyaline", 4, 6.0, 0.0);
        churn.handle_churn = 32;
        let file = vec![plain, sharded.clone(), churn];
        let report = compare(&file, &file, Tolerance::default());
        assert_eq!(report.comparisons.len(), 3);
        assert!(!report.has_regression());
        let line = ComboKey::of(&sharded).to_string();
        assert!(line.contains("shards=4"), "{line}");
    }

    #[test]
    fn recycling_configs_key_separately() {
        // A pooled (recycle on) run of the same scheme must not be averaged
        // with or compared against the malloc configuration.
        let mut malloc = record("Hyaline", 4, 10.0, 0.0);
        malloc.recycle = false;
        let mut pooled = record("Hyaline", 4, 13.0, 0.0);
        pooled.recycle = true;
        let file = vec![malloc, pooled.clone()];
        let report = compare(&file, &file, Tolerance::default());
        assert_eq!(report.comparisons.len(), 2);
        assert!(!report.has_regression());
        let line = ComboKey::of(&pooled).to_string();
        assert!(line.contains(" recycle"), "{line}");
    }

    #[test]
    fn overlap_failure_names_each_missing_combo() {
        let shared = record("Hyaline", 4, 10.0, 0.0);
        let gone = record("Epoch", 8, 8.0, 0.0);
        // Full overlap: no failure.
        let ok = compare(
            std::slice::from_ref(&shared),
            std::slice::from_ref(&shared),
            Tolerance::default(),
        );
        assert_eq!(ok.overlap_failure(), None);
        // Partial overlap: the verdict names exactly the vanished combo.
        let partial = compare(
            &[shared.clone(), gone.clone()],
            std::slice::from_ref(&shared),
            Tolerance::default(),
        );
        let msg = partial.overlap_failure().expect("partial overlap must fail");
        assert_eq!(
            msg,
            format!(
                "1 of 2 baseline configuration(s) have no candidate counterpart\
                 \n  not compared: {}",
                ComboKey::of(&gone)
            )
        );
        // Disjoint files: "nothing was compared", listing every baseline combo.
        let disjoint = compare(
            &[shared.clone(), gone.clone()],
            &[record("HP", 2, 1.0, 0.0)],
            Tolerance::default(),
        );
        let msg = disjoint.overlap_failure().expect("disjoint files must fail");
        assert_eq!(
            msg,
            format!(
                "nothing was compared\n  not compared: {}\n  not compared: {}",
                ComboKey::of(&gone),
                ComboKey::of(&shared)
            )
        );
        // Candidate-only combos never trip the overlap check.
        let grown = compare(
            std::slice::from_ref(&shared),
            &[shared.clone(), gone],
            Tolerance::default(),
        );
        assert_eq!(grown.overlap_failure(), None);
    }

    #[test]
    fn zero_baseline_mops_does_not_divide_by_zero() {
        let base = vec![record("Hyaline", 4, 0.0, 0.0)];
        let cand = vec![record("Hyaline", 4, 0.0, 0.0)];
        let report = compare(&base, &cand, Tolerance::default());
        assert!(!report.has_regression());
        assert_eq!(report.comparisons[0].mops_delta_frac(), 0.0);
    }
}
