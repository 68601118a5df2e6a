//! The repo's benchmark: four workloads over the whole stack, six
//! end-to-end metrics, a per-layer price list and a traced run. See
//! `README.md` beside this package for what each number means.

mod aa;
mod hist;
mod metrics;
mod ops;
mod probes;
mod recorder;
mod run;
mod spans;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use run::{end_to_end, print_report, result_line, traced, RunOpts, DEFAULT_SECONDS};
use workloads::WORKLOADS;

const USAGE: &str = "\
usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       benchmark aa  [--runs N] [--seed N] [--seconds S] [--quick]

run    prints every end-to-end metric of the chosen workloads (all four by
       default), or with --trace 1 every per-layer metric; the last line is
       one JSON object with the same numbers
aa     runs the end-to-end benchmark 2 x N times (default 3), compares the
       two interleaved sets and writes AA.md beside this package

--seconds is the measuring time per workload, shared out over trials of
1.5 s (default 33); --quick runs one 0.3 s trial of each instead
workloads: hashmap-write nmtree-read hashmap-stalled kv-service";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
}

fn parse(args: &[String], allowed: &[&str]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 3,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag}"));
        }
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(WORKLOADS.into_iter().find(|w| w == value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.1..=600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = value
                    .parse::<u8>()
                    .ok()
                    .filter(|t| *t <= 1)
                    .ok_or_else(bad)?
                    == 1
            }
            "--runs" => {
                parsed.runs = value
                    .parse()
                    .ok()
                    .filter(|r| (1..=50).contains(r))
                    .ok_or_else(bad)?
            }
            _ => unreachable!("{flag} is in the allowed list"),
        }
    }
    Ok(parsed)
}

fn opts(args: &Args) -> RunOpts {
    let workloads = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    if args.quick {
        RunOpts::quick(workloads, args.seed)
    } else {
        RunOpts::full(workloads, args.seed, args.seconds)
    }
}

fn run(args: &Args, package: &Path) -> bool {
    let opts = opts(args);
    if args.trace {
        let report = traced(&opts, &package.join("out"));
        print_report(&report);
        println!("{}", result_line(&[("", &report)]));
        return report.correct();
    }
    let reports = end_to_end(&opts);
    for report in &reports {
        print_report(report);
    }
    let prefixes: Vec<String> = match opts.workloads.as_slice() {
        [_] => vec![String::new()],
        several => several.iter().map(|w| format!("{w}.")).collect(),
    };
    let lines: Vec<_> = prefixes.iter().map(String::as_str).zip(&reports).collect();
    println!("{}", result_line(&lines));
    reports.iter().all(run::Report::correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Where the traces and AA.md go: this package's directory, wherever the
    // command was started from.
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse(
            rest,
            &["--workload", "--seed", "--seconds", "--trace", "--quick"],
        )
        .map(|a| run(&a, package)),
        Some((cmd, rest)) if cmd == "aa" => {
            parse(rest, &["--runs", "--seed", "--seconds", "--quick"])
                .map(|a| aa::run(&opts(&a), a.runs, &package.join("AA.md")))
        }
        _ => Err("expected a subcommand".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
