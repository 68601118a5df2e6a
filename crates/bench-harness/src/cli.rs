//! Minimal argument/environment configuration for the bench binaries.
//!
//! Benchmarks read their scale from (in priority order) command-line flags
//! after `--`, then `HYALINE_BENCH_*` environment variables, then scaled
//! defaults. Besides the workload scale, the reclamation layout is
//! settable: `--slots`/`--shards` (powers of two; `HYALINE_BENCH_SLOTS`,
//! `HYALINE_BENCH_SHARDS`) pin the slot budget and shard count so runs on
//! hosts with different core counts produce comparable perf-gate keys,
//! `--routing by-key|by-pointer` (`HYALINE_BENCH_ROUTING`) selects the
//! sharded routing mode,
//! `--handle-churn N` (`HYALINE_BENCH_HANDLE_CHURN`) makes workers return
//! their handles to a shared pool every `N` operations,
//! `--connections N` (`HYALINE_BENCH_CONNECTIONS`) sets the simulated
//! connection count of the async `kv-service` sweep,
//! `--recycle on|off` (`HYALINE_BENCH_RECYCLE`) toggles the node-recycling
//! layer (reclaimed nodes feed a per-domain pool that `alloc` reuses; on by
//! default), and
//! `--max-threads N` (`HYALINE_BENCH_MAX_THREADS`) pins the registry/pool
//! capacity (set it below the thread count to exercise oversubscribed
//! pooling with host-independent perf-gate keys).
//!
//! The paper's full-scale parameters (10 s runs, 5 trials, 50 000
//! prefill over 100 000 keys, threads up to 144) are reachable via:
//!
//! ```text
//! cargo bench -p bench --bench fig8_9_write -- \
//!     --secs 10 --trials 5 --prefill 50000 --key-range 100000 \
//!     --threads 1,9,18,...,144
//! ```
//!
//! Only the arguments the invoking tool actually forwarded are scanned: if
//! the binary's own argv contains a literal `--` separator everything before
//! it belongs to the harness (cargo/criterion/libtest flags) and is ignored;
//! otherwise the whole argv tail is ours (cargo strips its `--` before
//! handing the rest to `cargo run`/`cargo bench` targets). Unparsable values
//! of known flags and malformed `HYALINE_BENCH_*` variables are *not*
//! silently dropped: each one produces a warning on stderr and the previous
//! (environment or default) value is kept.

use smr_core::{ShardRouting, SmrConfig};

use crate::driver::BenchParams;

/// Scale configuration shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchScale {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Stalled-thread counts for the robustness figure.
    pub stalled: Vec<usize>,
    /// Base parameters (duration, prefill, range, trials, config).
    pub base: BenchParams,
}

/// The slice of this process's argv that belongs to the benchmark, not to
/// cargo or the bench harness: everything after the first literal `--` if
/// one is present, else everything after the program name.
pub fn cli_args() -> Vec<String> {
    own_args(std::env::args().collect())
}

fn own_args(argv: Vec<String>) -> Vec<String> {
    match argv.iter().position(|a| a == "--") {
        Some(sep) => argv[sep + 1..].to_vec(),
        None => argv.into_iter().skip(1).collect(),
    }
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
fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        out.push(
            part.parse()
                .map_err(|_| format!("`{part}` in `{s}` is not a thread count"))?,
        );
    }
    Ok(out)
}

impl Default for BenchScale {
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

impl BenchScale {
    /// Builds the scale from defaults, environment, then CLI arguments.
    ///
    /// Every malformed value encountered along the way is reported on
    /// stderr (the benchmark still runs, with that value ignored).
    pub fn from_env_and_args() -> Self {
        let mut scale = Self::default();
        let mut warnings = scale.apply_env();
        warnings.extend(scale.apply_args(&cli_args()));
        for w in &warnings {
            eprintln!("bench-harness: warning: {w}");
        }
        scale
    }

    /// Applies `HYALINE_BENCH_*` environment variables, returning a warning
    /// per variable that is set but malformed.
    pub fn apply_env(&mut self) -> Vec<String> {
        let mut warnings = Vec::new();
        let mut scalar = |name: &str, expect: &str, apply: &mut dyn FnMut(&str) -> bool| {
            if let Ok(raw) = std::env::var(name) {
                if !apply(&raw) {
                    warnings.push(format!("ignoring {name}={raw}: expected {expect}"));
                }
            }
        };
        scalar("HYALINE_BENCH_SECS", "a number", &mut |raw| {
            raw.parse().map(|v| self.base.secs = v).is_ok()
        });
        scalar("HYALINE_BENCH_TRIALS", "a number", &mut |raw| {
            raw.parse().map(|v| self.base.trials = v).is_ok()
        });
        scalar("HYALINE_BENCH_PREFILL", "a number", &mut |raw| {
            raw.parse().map(|v| self.base.prefill = v).is_ok()
        });
        scalar("HYALINE_BENCH_KEY_RANGE", "a number", &mut |raw| {
            raw.parse().map(|v| self.base.key_range = v).is_ok()
        });
        scalar("HYALINE_BENCH_ACK_THRESHOLD", "a number", &mut |raw| {
            raw.parse().map(|v| self.base.config.ack_threshold = v).is_ok()
        });
        scalar("HYALINE_BENCH_SLOTS", "a power of two", &mut |raw| {
            parse_pow2(raw).map(|v| self.base.config.slots = v).is_some()
        });
        scalar("HYALINE_BENCH_SHARDS", "a power of two", &mut |raw| {
            parse_pow2(raw).map(|v| self.base.config.shards = v).is_some()
        });
        scalar("HYALINE_BENCH_HANDLE_CHURN", "a number", &mut |raw| {
            raw.parse().map(|v| self.base.handle_churn = v).is_ok()
        });
        scalar("HYALINE_BENCH_CONNECTIONS", "a number", &mut |raw| {
            raw.parse().map(|v| self.base.connections = v).is_ok()
        });
        scalar("HYALINE_BENCH_RECYCLE", "on or off", &mut |raw| {
            parse_bool(raw)
                .map(|v| self.base.config.recycle = v)
                .is_some()
        });
        scalar("HYALINE_BENCH_MAX_THREADS", "a nonzero count", &mut |raw| {
            parse_nonzero(raw)
                .map(|v| self.base.config.max_threads = v)
                .is_some()
        });
        scalar("HYALINE_BENCH_ROUTING", "by-key or by-pointer", &mut |raw| {
            ShardRouting::from_short_label(raw)
                .map(|v| self.base.config.routing = v)
                .is_some()
        });
        let mut list = |name: &str, apply: &mut dyn FnMut(Vec<usize>)| {
            if let Ok(raw) = std::env::var(name) {
                match parse_list(&raw) {
                    Ok(list) if !list.is_empty() => apply(list),
                    Ok(_) => warnings.push(format!("ignoring {name}: empty list")),
                    Err(e) => warnings.push(format!("ignoring {name}: {e}")),
                }
            }
        };
        list("HYALINE_BENCH_THREADS", &mut |l| self.threads = l);
        list("HYALINE_BENCH_STALLED", &mut |l| self.stalled = l);
        warnings
    }

    /// Applies benchmark flags from `args` (already stripped of harness
    /// flags by [`cli_args`]), returning a warning per malformed value.
    /// Unknown flags are ignored — they belong to the individual binary
    /// (`--scheme`, `--out`, ...) or to criterion.
    pub fn apply_args(&mut self, args: &[String]) -> Vec<String> {
        let mut warnings = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let known = matches!(
                flag,
                "--secs"
                    | "--trials"
                    | "--prefill"
                    | "--key-range"
                    | "--threads"
                    | "--stalled"
                    | "--slots"
                    | "--shards"
                    | "--routing"
                    | "--handle-churn"
                    | "--connections"
                    | "--max-threads"
                    | "--recycle"
            );
            if !known {
                i += 1;
                continue;
            }
            let Some(raw) = args.get(i + 1) else {
                warnings.push(format!("flag {flag} is missing its value"));
                break;
            };
            let ok = match flag {
                "--secs" => raw.parse().map(|v| self.base.secs = v).is_ok(),
                "--slots" => parse_pow2(raw).map(|v| self.base.config.slots = v).is_some(),
                "--shards" => parse_pow2(raw).map(|v| self.base.config.shards = v).is_some(),
                "--routing" => ShardRouting::from_short_label(raw)
                    .map(|v| self.base.config.routing = v)
                    .is_some(),
                "--handle-churn" => raw.parse().map(|v| self.base.handle_churn = v).is_ok(),
                "--connections" => raw.parse().map(|v| self.base.connections = v).is_ok(),
                "--recycle" => parse_bool(raw)
                    .map(|v| self.base.config.recycle = v)
                    .is_some(),
                "--max-threads" => parse_nonzero(raw)
                    .map(|v| self.base.config.max_threads = v)
                    .is_some(),
                "--trials" => raw.parse().map(|v| self.base.trials = v).is_ok(),
                "--prefill" => raw.parse().map(|v| self.base.prefill = v).is_ok(),
                "--key-range" => raw.parse().map(|v| self.base.key_range = v).is_ok(),
                "--threads" | "--stalled" => match parse_list(raw) {
                    Ok(list) if !list.is_empty() => {
                        if flag == "--threads" {
                            self.threads = list;
                        } else {
                            self.stalled = list;
                        }
                        true
                    }
                    Ok(_) => false,
                    Err(e) => {
                        warnings.push(format!("ignoring {flag} {raw}: {e}"));
                        i += 2;
                        continue;
                    }
                },
                _ => unreachable!(),
            };
            if !ok {
                let expect = match flag {
                    "--slots" | "--shards" => "a power of two",
                    "--routing" => "by-key or by-pointer",
                    "--max-threads" => "a nonzero count",
                    "--recycle" => "on or off",
                    "--threads" | "--stalled" => "a comma-separated list of counts",
                    _ => "a number",
                };
                warnings.push(format!("ignoring {flag} {raw}: expected {expect}"));
            }
            i += 2;
        }
        warnings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_include_oversubscription() {
        let scale = BenchScale::default();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(scale.threads.iter().any(|&t| t > cores));
        assert!(scale.threads.contains(&1));
    }

    #[test]
    fn parse_list_handles_spaces_and_rejects_junk() {
        assert_eq!(parse_list("1, 2,4").unwrap(), vec![1, 2, 4]);
        assert!(parse_list("x").is_err());
        // The bug this PR fixes: `1,x,8` must not silently become `[1,8]`.
        assert!(parse_list("1,x,8").is_err());
    }

    #[test]
    fn own_args_only_takes_flags_after_separator() {
        // cargo/criterion flags before `--` must be invisible to us.
        let argv = strings(&["bench-bin", "--bench", "--secs", "99", "--", "--secs", "7"]);
        assert_eq!(own_args(argv), strings(&["--secs", "7"]));
        // Without a separator the whole tail is ours (cargo strips its
        // own `--` before exec'ing run/bench targets).
        let argv = strings(&["bench-bin", "--secs", "7"]);
        assert_eq!(own_args(argv), strings(&["--secs", "7"]));
    }

    #[test]
    fn apply_args_sets_values_without_warnings() {
        let mut scale = BenchScale::default();
        let warnings = scale.apply_args(&strings(&[
            "--secs", "1.5", "--trials", "3", "--prefill", "10", "--key-range", "20",
            "--threads", "2,4", "--stalled", "0,1",
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(scale.base.secs, 1.5);
        assert_eq!(scale.base.trials, 3);
        assert_eq!(scale.base.prefill, 10);
        assert_eq!(scale.base.key_range, 20);
        assert_eq!(scale.threads, vec![2, 4]);
        assert_eq!(scale.stalled, vec![0, 1]);
    }

    #[test]
    fn apply_args_warns_on_bad_values_and_keeps_previous() {
        let mut scale = BenchScale::default();
        let default_threads = scale.threads.clone();
        let warnings = scale.apply_args(&strings(&[
            "--threads", "1,x,8", "--secs", "fast", "--trials",
        ]));
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings[0].contains("--threads"), "{warnings:?}");
        assert!(warnings[1].contains("--secs"), "{warnings:?}");
        assert!(warnings[2].contains("missing its value"), "{warnings:?}");
        assert_eq!(scale.threads, default_threads);
        assert_eq!(scale.base.secs, 0.25);
    }

    #[test]
    fn layout_flags_set_config_and_reject_non_powers_of_two() {
        let mut scale = BenchScale::default();
        let warnings = scale.apply_args(&strings(&[
            "--slots", "64", "--shards", "8", "--handle-churn", "32", "--connections", "10000",
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(scale.base.config.slots, 64);
        assert_eq!(scale.base.config.shards, 8);
        assert_eq!(scale.base.handle_churn, 32);
        assert_eq!(scale.base.connections, 10_000);
        let default_slots = scale.base.config.slots;
        let warnings = scale.apply_args(&strings(&["--slots", "6", "--shards", "0"]));
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert_eq!(scale.base.config.slots, default_slots);
        assert_eq!(scale.base.config.shards, 8);
    }

    #[test]
    fn recycle_flag_toggles_and_rejects_junk() {
        let mut scale = BenchScale::default();
        assert!(scale.base.config.recycle, "recycling is on by default");
        scale.base.config.recycle = false;
        let warnings = scale.apply_args(&strings(&["--recycle", "on"]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(scale.base.config.recycle);
        let warnings = scale.apply_args(&strings(&["--recycle", "maybe"]));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("on or off"), "{warnings:?}");
        assert!(scale.base.config.recycle, "bad value must keep previous");
        let warnings = scale.apply_args(&strings(&["--recycle", "0"]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(!scale.base.config.recycle);
    }

    #[test]
    fn apply_args_ignores_unknown_flags_silently() {
        let mut scale = BenchScale::default();
        let warnings = scale.apply_args(&strings(&[
            "--scheme", "Hyaline", "--out", "x.jsonl", "--secs", "2.0", "--nocapture",
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(scale.base.secs, 2.0);
    }
}
