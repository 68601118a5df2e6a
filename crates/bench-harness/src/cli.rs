//! The `sweep` command line: which figures to run over which schemes and
//! structures, at what scale, recorded where.
//!
//! Parsing is strict. An unknown flag, a flag without its value, a
//! malformed value or `--help` is an error naming it, and `sweep` prints
//! it with [`USAGE`] and exits 2 before measuring anything. Besides the
//! workload scale, the reclamation layout is settable: `--slots`/`--shards`
//! (powers of two) pin the slot budget and shard count so runs on hosts
//! with different core counts produce comparable perf-gate keys,
//! `--recycle on|off` toggles node recycling (on by default), and
//! `--max-threads N` sets the registry capacity (each run makes one handle
//! per active and stalled thread up front, so it must cover both).
//!
//! The paper's full-scale parameters (10 s runs, 5 trials, 50 000
//! prefill over 100 000 keys, threads up to 144) are reachable via:
//!
//! ```text
//! cargo run --release -p bench-harness --bin sweep -- \
//!     --secs 10 --trials 5 --prefill 50000 --key-range 100000 \
//!     --threads 1,9,18,...,144
//! ```

use std::path::PathBuf;

use smr_core::SmrConfig;

use crate::driver::BenchParams;
use crate::registry::{ALL_SCHEMES, FIGURE_SCHEMES, STRUCTURES};
use crate::workload::OpMix;

/// What `sweep` prints after any command-line error.
pub const USAGE: &str = "usage: sweep [--out FILE] [--sweeps NAME,...] \
[--structures NAME,...|all] [--schemes NAME,...] [--mix write-intensive|read-mostly] \
[--secs S] [--trials N] [--prefill N] [--key-range N] [--threads N,...] [--stalled N,...] \
[--slots POW2] [--shards POW2] [--max-threads N] [--recycle on|off]";

/// One figure `sweep` can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Figures 8, 9 and 11–16: throughput and unreclaimed objects over
    /// `--threads`, one pair of tables per structure.
    ThreadScaling,
    /// The same tables at 1, 2, 4 and 8 threads per core, the regime where
    /// Hyaline's asynchronous tracking shines.
    Oversubscription,
    /// Figure 10a: unreclaimed objects over `--stalled` readers parked
    /// inside an operation, for the Hyaline variants, Crystalline-L/W and
    /// the baselines.
    Robustness,
    /// Node recycling on vs off: the same write-intensive churn with node
    /// memory drawn from the layout-keyed recycle pool and from the global
    /// allocator, on the structures whose operations allocate per update.
    Recycle,
    /// Figure 10b: hash-map throughput with the slot count capped below
    /// the thread count, §3.3 `trim` windows against plain `leave`/`enter`.
    Trim,
}

impl Sweep {
    /// Every sweep under its command-line name.
    pub const ALL: [(&'static str, Sweep); 5] = [
        ("thread-scaling", Sweep::ThreadScaling),
        ("oversubscription", Sweep::Oversubscription),
        ("robustness", Sweep::Robustness),
        ("recycle", Sweep::Recycle),
        ("trim", Sweep::Trim),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, s)| s)
    }
}

/// A parsed `sweep` command line.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Sweeps to run, in order.
    pub sweeps: Vec<Sweep>,
    /// Structures the throughput sweeps cover.
    pub structures: Vec<String>,
    /// Schemes the throughput sweeps cover.
    pub schemes: Vec<String>,
    /// JSONL file the records are appended to.
    pub out: PathBuf,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Stalled-thread counts for the robustness figure.
    pub stalled: Vec<usize>,
    /// Base parameters (duration, prefill, range, trials, mix, config).
    pub base: BenchParams,
}

/// Parses a power-of-two count (slot and shard layouts require one).
fn parse_pow2(raw: &str) -> Option<usize> {
    raw.parse().ok().filter(|v: &usize| v.is_power_of_two())
}

/// Parses a nonzero count (registry/pool capacities must not be zero).
fn parse_nonzero(raw: &str) -> Option<usize> {
    raw.parse().ok().filter(|v: &usize| *v > 0)
}

/// Parses an on/off toggle (`on`/`off`, `true`/`false`, `1`/`0`).
fn parse_bool(raw: &str) -> Option<bool> {
    match raw {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}

/// Parses a comma-separated list of counts, rejecting the whole value if
/// any entry is unparsable (so `1,x,8` cannot silently become `[1,8]`).
fn parse_list(s: &str) -> Option<Vec<usize>> {
    s.split(',').map(|part| part.trim().parse().ok()).collect()
}

/// Parses a comma-separated list of names, each of which must be `known`.
fn parse_names(s: &str, known: &[&str]) -> Option<Vec<String>> {
    s.split(',')
        .map(str::trim)
        .map(|name| known.contains(&name).then(|| name.to_string()))
        .collect()
}

/// The value of `flag`, parsed, or an error naming the flag, the value and
/// what was expected.
fn value<T>(
    flag: &str,
    raw: Option<&str>,
    expect: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} is missing its value"))?;
    parse(raw).ok_or_else(|| format!("{flag} {raw}: expected {expect}"))
}

impl Default for SweepArgs {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Sweep through and past the core count: the paper's oversubscribed
        // regime (threads >> cores) is where Hyaline's asynchronous tracking
        // shines, so keep several oversubscribed points.
        let threads = vec![1, 2, cores.max(2), cores * 2, cores * 4, cores * 8]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        Self {
            sweeps: vec![Sweep::ThreadScaling],
            structures: vec!["hashmap".into(), "list".into()],
            schemes: FIGURE_SCHEMES.iter().map(|s| s.to_string()).collect(),
            out: PathBuf::from("BENCH_sweep.jsonl"),
            threads,
            stalled: vec![0, 1, 2, 4, 8, 12],
            base: BenchParams {
                secs: 0.25,
                trials: 1,
                prefill: 1_024,
                key_range: 2_048,
                config: SmrConfig {
                    slots: (cores * 2).next_power_of_two(),
                    max_threads: 512,
                    // The paper's 8192 assumes 10-second runs; scaled-down
                    // runs need Ack saturation (stalled-slot avoidance) to
                    // kick in correspondingly sooner.
                    ack_threshold: 256,
                    ..SmrConfig::default()
                },
                ..BenchParams::default()
            },
        }
    }
}

impl SweepArgs {
    /// Parses a command line (without the program name) over the defaults.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Self::default();
        for pair in args.chunks(2) {
            parsed.apply(&pair[0], pair.get(1).map(String::as_str))?;
        }
        Ok(parsed)
    }

    /// Applies one flag and its value. The flag is matched before the value
    /// is read, so `--help` or a typo is reported as itself.
    fn apply(&mut self, flag: &str, raw: Option<&str>) -> Result<(), String> {
        const NUMBER: &str = "a number";
        const POW2: &str = "a power of two";
        const LIST: &str = "a comma-separated list of counts";
        let base = &mut self.base;
        match flag {
            "--out" => self.out = value(flag, raw, "a file", |r| Some(PathBuf::from(r)))?,
            "--sweeps" => {
                let names: Vec<&str> = Sweep::ALL.iter().map(|(n, _)| *n).collect();
                self.sweeps = value(flag, raw, &names.join(", "), |r| {
                    r.split(',').map(|s| Sweep::parse(s.trim())).collect()
                })?;
            }
            "--structures" => {
                let expect = format!("`all` or some of {}", STRUCTURES.join(", "));
                self.structures = value(flag, raw, &expect, |r| match r {
                    "all" => Some(STRUCTURES.iter().map(|s| s.to_string()).collect()),
                    _ => parse_names(r, STRUCTURES),
                })?;
            }
            "--schemes" => {
                let expect = format!("some of {}", ALL_SCHEMES.join(", "));
                self.schemes = value(flag, raw, &expect, |r| parse_names(r, ALL_SCHEMES))?;
            }
            "--mix" => {
                let expect = "write-intensive or read-mostly";
                base.mix = value(flag, raw, expect, OpMix::from_short_label)?
            }
            "--secs" => base.secs = value(flag, raw, NUMBER, |r| r.parse().ok())?,
            "--trials" => base.trials = value(flag, raw, NUMBER, |r| r.parse().ok())?,
            "--prefill" => base.prefill = value(flag, raw, NUMBER, |r| r.parse().ok())?,
            "--key-range" => base.key_range = value(flag, raw, NUMBER, |r| r.parse().ok())?,
            "--threads" => self.threads = value(flag, raw, LIST, parse_list)?,
            "--stalled" => self.stalled = value(flag, raw, LIST, parse_list)?,
            "--slots" => base.config.slots = value(flag, raw, POW2, parse_pow2)?,
            "--shards" => base.config.shards = value(flag, raw, POW2, parse_pow2)?,
            "--max-threads" => {
                base.config.max_threads = value(flag, raw, "a nonzero count", parse_nonzero)?
            }
            "--recycle" => base.config.recycle = value(flag, raw, "on or off", parse_bool)?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a command line written as one string.
    fn parse(line: &str) -> Result<SweepArgs, String> {
        SweepArgs::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn defaults_include_oversubscription() {
        let args = SweepArgs::default();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(args.threads.iter().any(|&t| t > cores));
        assert!(args.threads.contains(&1));
    }

    #[test]
    fn parse_list_handles_spaces_and_rejects_junk() {
        assert_eq!(parse_list("1, 2,4"), Some(vec![1, 2, 4]));
        assert_eq!(parse_list("x"), None);
        // `1,x,8` must not silently become `[1,8]`.
        assert_eq!(parse_list("1,x,8"), None);
    }

    #[test]
    fn apply_args_sets_values_without_warnings() {
        let args = parse(
            "--out x.jsonl --sweeps trim,robustness --structures all --schemes Hyaline,HP \
             --mix read-mostly --secs 1.5 --trials 3 --prefill 10 --key-range 20 \
             --threads 2,4 --stalled 0,1 --max-threads 7",
        )
        .unwrap();
        assert_eq!(args.out, PathBuf::from("x.jsonl"));
        assert_eq!(args.sweeps, vec![Sweep::Trim, Sweep::Robustness]);
        assert_eq!(args.structures, STRUCTURES);
        assert_eq!(args.schemes, vec!["Hyaline", "HP"]);
        assert_eq!(args.base.mix, OpMix::ReadMostly);
        assert_eq!(args.base.secs, 1.5);
        assert_eq!(args.base.trials, 3);
        assert_eq!(args.base.prefill, 10);
        assert_eq!(args.base.key_range, 20);
        assert_eq!(args.threads, vec![2, 4]);
        assert_eq!(args.stalled, vec![0, 1]);
        assert_eq!(args.base.config.max_threads, 7);
    }

    #[test]
    fn layout_flags_set_config_and_reject_non_powers_of_two() {
        let args = parse("--slots 64 --shards 8").unwrap();
        assert_eq!(args.base.config.slots, 64);
        assert_eq!(args.base.config.shards, 8);
        let err = parse("--slots 6").unwrap_err();
        assert_eq!(err, "--slots 6: expected a power of two");
        assert!(parse("--shards 0").is_err());
    }

    #[test]
    fn recycle_flag_toggles_and_rejects_junk() {
        assert!(SweepArgs::default().base.config.recycle);
        assert!(!parse("--recycle off").unwrap().base.config.recycle);
        assert!(parse("--recycle 1").unwrap().base.config.recycle);
        let err = parse("--recycle maybe").unwrap_err();
        assert_eq!(err, "--recycle maybe: expected on or off");
    }

    #[test]
    fn unknown_flags_and_help_are_errors_naming_them() {
        for flag in [
            "--sec",
            "--help",
            "-h",
            "extra",
            "--handle-churn",
            "--connections",
        ] {
            let err = parse(&format!("{flag} 1")).unwrap_err();
            assert_eq!(err, format!("unknown flag `{flag}`"));
        }
        // `--help` alone, with no value to borrow, is still named as itself.
        assert_eq!(parse("--help").unwrap_err(), "unknown flag `--help`");
    }

    #[test]
    fn missing_and_malformed_values_are_errors_naming_the_flag() {
        assert_eq!(
            parse("--trials").unwrap_err(),
            "--trials is missing its value"
        );
        let err = parse("--secs 1 --threads 1,x,8").unwrap_err();
        assert!(err.starts_with("--threads 1,x,8: expected"), "{err}");
        for bad in [
            "--sweeps fig8",
            "--sweeps kv-service",
            "--structures splay",
            "--schemes RCU",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with(&format!("{bad}: expected")), "{err}");
        }
        // The error for an unknown structure lists exactly the paper's four.
        let gone = "--structures skiplist";
        assert_eq!(
            parse(gone).unwrap_err(),
            format!("{gone}: expected `all` or some of list, hashmap, bonsai, nmtree")
        );
    }
}
