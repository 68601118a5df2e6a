//! Runs the paper's figures as sweeps and appends JSONL records per run.
//!
//! ```text
//! cargo run --release -p bench-harness --bin sweep -- \
//!     [--out BENCH_sweep.jsonl] \
//!     [--sweeps thread-scaling,oversubscription,robustness,recycle,trim] \
//!     [--structures hashmap,list | all] [--schemes Hyaline,Epoch,...] \
//!     [--mix write-intensive|read-mostly] \
//!     [--secs S] [--trials N] [--threads 1,2,...] [--stalled 0,1,...] ...
//! ```
//!
//! Each measured `(scheme, structure, threads[, stalled])` point appends
//! one [`bench_harness::BenchRecord`] — full `BenchParams`/`SmrConfig`
//! provenance plus git sha, host cores, and timestamp — to the output file.
//! The rendered figure tables go to stdout, from the *same* runs. Compare
//! two record files with the `perfgate` binary. A bad command line (see
//! [`bench_harness::cli`]) prints usage and exits 2 before any run.

use bench_harness::cli::{host_cores, Sweep, SweepArgs, USAGE};
use bench_harness::driver::BenchParams;
use bench_harness::figures::{robustness_figure, throughput_figures, trim_figure};
use bench_harness::registry::run_combo;
use bench_harness::results::{wall_clock_timestamp, Provenance, ResultSink};
use bench_harness::workload::OpMix;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = SweepArgs::parse(&argv).unwrap_or_else(|e| {
        eprintln!("sweep: error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let base = &args.base;
    let schemes: Vec<&str> = args.schemes.iter().map(String::as_str).collect();
    let mut sink = ResultSink::new(Provenance::detect(wall_clock_timestamp()));
    let cores = host_cores();

    println!(
        "== sweep: {} trial(s) x {:.2}s, prefill {} of {} keys, {} -> {} ==\n",
        base.trials,
        base.secs,
        base.prefill,
        base.key_range,
        base.mix.short_label(),
        args.out.display()
    );

    for &sweep in &args.sweeps {
        // `SweepArgs::parse` checked these counts against the registry.
        let threads = args.active_threads(sweep, cores);
        match sweep {
            Sweep::ThreadScaling | Sweep::Oversubscription => {
                for structure in &args.structures {
                    let (tput, unrec) = throughput_figures(
                        sweep.name(),
                        structure,
                        &threads,
                        base,
                        &schemes,
                        Some(&mut sink),
                    );
                    println!("{tput}");
                    println!("{unrec}");
                }
            }
            Sweep::Recycle => run_recycle_sweep(base, &mut sink),
            Sweep::Robustness => {
                let active = threads[0];
                let max_stalled = args.stalled.iter().copied().max().unwrap_or(8);
                let capped_slots = (max_stalled / 2).max(2).next_power_of_two();
                let table =
                    robustness_figure(active, &args.stalled, capped_slots, base, Some(&mut sink));
                println!("{table}");
            }
            Sweep::Trim => {
                // Fig 10b caps the slots well below the thread count (the
                // paper's k <= 32 on 72 cores): here half the core count.
                let capped_slots = (cores.max(2).next_power_of_two() / 2).max(2);
                let table = trim_figure(&threads, capped_slots, base, Some(&mut sink));
                println!("{table}");
            }
        }
    }

    match sink.append_to(&args.out) {
        Ok(n) => println!("appended {n} records to {}", args.out.display()),
        Err(e) => {
            eprintln!("sweep: error: cannot write {}: {e}", args.out.display());
            std::process::exit(2);
        }
    }
}

/// The node-recycling headline comparison: Hyaline, Epoch and
/// Crystalline-L driving write-intensive churn on the Michael hash map and
/// the Harris–Michael list, each combination measured twice — node memory
/// from the global allocator (`recycle=off`, the historical behaviour) and
/// from the layout-keyed recycle pool (`recycle=on`). Every point appends a
/// `figure="recycle"` record; the on/off points key separately in the perf
/// gate (the combo key carries `recycle`), so a baseline pins both sides of
/// the comparison.
///
/// The mix is fixed write-intensive — recycling exists for update churn;
/// a read-mostly run would barely touch the pool — and the hit rate column
/// is `pool_hits / (pool_hits + pool_misses)`, the fraction of allocations
/// the pool actually served while enabled.
fn run_recycle_sweep(base: &BenchParams, sink: &mut ResultSink) {
    const SCHEMES: &[&str] = &["Hyaline", "Epoch", "Crystalline-L"];
    const STRUCTURES_SWEPT: &[&str] = &["hashmap", "list"];
    println!(
        "== recycle: pooled vs malloc node memory, {} thread(s), \
         write-intensive ==\n",
        base.threads
    );
    println!(
        "{:>14} {:>9} {:>8} {:>10} {:>12} {:>12} {:>9}",
        "scheme", "structure", "recycle", "Mops/s", "recycled", "pool-hits", "hit-rate"
    );
    for &structure in STRUCTURES_SWEPT {
        for &scheme in SCHEMES {
            for recycle in [false, true] {
                let mut params = base.clone();
                params.mix = OpMix::WriteIntensive;
                params.config.recycle = recycle;
                if recycle {
                    // Deferred schemes (Hyaline batches, epoch scans) free in
                    // bursts; the pool must absorb a whole burst or it evicts
                    // most of it and the next alloc run misses. Size capacity
                    // for the churn volume and widen magazines so the spill/
                    // refill block transfer amortises the shared-list CAS.
                    params.config.recycle_capacity = 1 << 17;
                    params.config.recycle_magazine = 256;
                }
                let Some(result) = run_combo(scheme, structure, &params) else {
                    continue;
                };
                sink.record("recycle", scheme, structure, &params, &result);
                let attempts = result.pool_hits + result.pool_misses;
                let hit_rate = if attempts == 0 {
                    0.0
                } else {
                    100.0 * result.pool_hits as f64 / attempts as f64
                };
                println!(
                    "{:>14} {:>9} {:>8} {:>10.3} {:>12} {:>12} {:>8.1}%",
                    scheme,
                    structure,
                    if recycle { "on" } else { "off" },
                    result.mops,
                    result.recycled,
                    result.pool_hits,
                    hit_rate
                );
            }
        }
    }
    println!();
}
