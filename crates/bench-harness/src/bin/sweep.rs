//! Runs the paper's figures as sweeps and appends JSONL records per run.
//!
//! ```text
//! cargo run --release -p bench-harness --bin sweep -- \
//!     [--out BENCH_sweep.jsonl] \
//!     [--sweeps thread-scaling,oversubscription,robustness,handle-churn,\
//!               kv-service,stalled-reader,recycle,trim] \
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

use bench_harness::cli::{Sweep, SweepArgs, USAGE};
use bench_harness::driver::{BenchParams, RunResult};
use bench_harness::figures::{robustness_figure, throughput_figures, trim_figure};
use bench_harness::registry::run_combo;
use bench_harness::results::{wall_clock_timestamp, Provenance, ResultSink};
use bench_harness::workload::OpMix;
use hyaline::Hyaline;
use lockfree_ds::{ConcurrentMap, MichaelHashMap};
use smr_async::{run_kv_service, KvConfig};
use smr_core::{HandlePool, Sharded, SmrHandle};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = SweepArgs::parse(&argv).unwrap_or_else(|e| {
        eprintln!("sweep: error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let base = &args.base;
    let schemes: Vec<&str> = args.schemes.iter().map(String::as_str).collect();
    let mut sink = ResultSink::new(Provenance::detect(wall_clock_timestamp()));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "== sweep: {} trial(s) x {:.2}s, prefill {} of {} keys, {} -> {} ==\n",
        base.trials,
        base.secs,
        base.prefill,
        base.key_range,
        base.mix.short_label(),
        args.out.display()
    );

    for sweep in &args.sweeps {
        match sweep {
            Sweep::ThreadScaling | Sweep::Oversubscription | Sweep::HandleChurn => {
                let mut base = base.clone();
                let (figure, threads) = match sweep {
                    Sweep::ThreadScaling => ("thread-scaling", args.threads.clone()),
                    Sweep::Oversubscription => (
                        "oversubscription",
                        [1, 2, 4, 8].iter().map(|&m| cores * m).collect(),
                    ),
                    _ => {
                        // Workers draw pooled handles (capacity = max_threads)
                        // and return them every `handle_churn` ops. Thread
                        // points come from --threads and the registry budget
                        // from --max-threads, so keys stay host-independent;
                        // pass --max-threads below the thread counts to force
                        // the oversubscribed park-and-reuse regime.
                        if base.handle_churn == 0 {
                            base.handle_churn = 64;
                        }
                        println!(
                            "== handle-churn: {} ops/checkout, pool capacity {} ==\n",
                            base.handle_churn, base.config.max_threads
                        );
                        ("handle-churn", args.threads.clone())
                    }
                };
                for structure in &args.structures {
                    let (tput, unrec) = throughput_figures(
                        figure,
                        structure,
                        &threads,
                        &base,
                        &schemes,
                        Some(&mut sink),
                    );
                    println!("{tput}");
                    println!("{unrec}");
                }
            }
            Sweep::KvService => {
                // Connections come from --connections when given; the
                // default axis ends at the 10k-connection point the async
                // service layer exists for.
                let axis: Vec<u64> = if base.connections != 0 {
                    vec![base.connections]
                } else {
                    vec![256, 2048, 10_000]
                };
                run_kv_sweep(base, &axis, cores, &mut sink);
            }
            Sweep::StalledReader => run_stalled_reader_sweep(base, &mut sink),
            Sweep::Recycle => run_recycle_sweep(base, &mut sink),
            Sweep::Robustness => {
                let active = cores.max(2);
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
                let table = trim_figure(&args.threads, capped_slots, base, Some(&mut sink));
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

/// The memory-bound headline comparison: Hyaline, both Crystalline
/// variants, and Epoch on the Michael hash map with 1 and then 2 readers
/// parked inside an operation, write-intensive so the workers keep
/// producing garbage the stall could pin. Each point records the *peak*
/// unreclaimed estimate (`avg_unreclaimed` carries the peak in this
/// figure, as in `kv-service`): era filtering lets the Crystalline
/// variants skip the stalled reservation entirely, so their high-water
/// mark stays near the batch backlog, while Hyaline and Epoch pin
/// everything retired after the stall began.
///
/// The stalled axis is fixed at `[1, 2]`, not taken from `--stalled`, so
/// the perf-gate keys stay host-independent.
fn run_stalled_reader_sweep(base: &BenchParams, sink: &mut ResultSink) {
    const SCHEMES: &[&str] = &["Hyaline", "Epoch", "Crystalline-L", "Crystalline-W"];
    const STALLED: &[usize] = &[1, 2];
    println!(
        "== stalled-reader: peak unreclaimed, Michael hash map, \
         {} active thread(s), write-intensive ==\n",
        base.threads
    );
    println!(
        "{:>14} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "scheme", "stalled", "Mops/s", "peak-unrecl", "retired", "freed"
    );
    for &scheme in SCHEMES {
        for &stalled in STALLED {
            let mut params = base.clone();
            params.stalled = stalled;
            params.mix = OpMix::WriteIntensive;
            let Some(result) = run_combo(scheme, "hashmap", &params) else {
                continue;
            };
            let recorded = RunResult {
                avg_unreclaimed: result.peak_unreclaimed as f64,
                ..result
            };
            sink.record("stalled-reader", scheme, "hashmap", &params, &recorded);
            println!(
                "{:>14} {:>8} {:>10.3} {:>12} {:>12} {:>12}",
                scheme, stalled, result.mops, result.peak_unreclaimed, result.retired, result.freed
            );
        }
    }
    println!();
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

/// Runs the async KV service at each connection count and records one
/// `kv-service` point per run: Mops/s plus the peak retired-but-unreclaimed
/// estimate (`avg_unreclaimed` carries the peak here — for a fixed-work
/// async run the high-water mark is the number that catches a reclaimer
/// regression).
///
/// The scheme/structure pair is fixed (`Sharded-Hyaline` over the hash
/// map): the sweep exists to vary `connections`, not to re-race schemes.
/// The registry cap is `--max-threads` clamped to 2× the hardware threads,
/// so tens of thousands of connections multiplex a pool of at most a few
/// handles. The executor runs the base parameters' `threads` workers (2;
/// `--threads` does not reach this sweep), so the perf-gate key stays
/// host-independent when `--max-threads` is pinned.
fn run_kv_sweep(base: &BenchParams, axis: &[u64], cores: usize, sink: &mut ResultSink) {
    let (get_pct, put_pct) = match base.mix {
        // The thread-driven sweeps' mixes, translated to get/put/delete:
        // write-intensive is half inserts half deletes; read-mostly is 90%
        // gets with the rest split between insert and delete.
        OpMix::WriteIntensive => (0, 50),
        OpMix::ReadMostly => (90, 5),
    };
    let capacity = base.config.max_threads.min(2 * cores).max(1);
    let workers = base.threads.max(1);
    let reclaim_shards = base.config.shards.clamp(1, 4);
    println!(
        "== kv-service: Sharded-Hyaline hashmap, registry cap {capacity}, \
         {workers} worker(s), {reclaim_shards} reclaimer(s) ==\n"
    );
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "connections", "ops", "Mops/s", "peak-unrecl", "flushed", "swept"
    );
    for &connections in axis {
        let map: MichaelHashMap<u64, u64, Sharded<Hyaline<_>>> =
            MichaelHashMap::with_config(base.config.clone());
        let pool = HandlePool::new(map.domain(), capacity);
        {
            let mut handle = pool.checkout();
            for key in 0..(base.prefill as u64).min(base.key_range) {
                handle.enter();
                map.map_insert(&mut handle, key, key);
                handle.leave();
            }
        }
        let cfg = KvConfig {
            connections: connections as usize,
            ops_per_connection: 64,
            burst: 16,
            key_range: base.key_range,
            get_pct,
            put_pct,
            reclaim_shards,
            queue_capacity: 64,
            workers,
            seed: base.seed,
        };
        let report = run_kv_service(&map, &pool, &cfg);
        let result = RunResult {
            mops: report.mops(),
            avg_unreclaimed: report.peak_unreclaimed as f64,
            peak_unreclaimed: report.peak_unreclaimed,
            ops: report.ops,
            ..RunResult::default()
        };
        let params = BenchParams {
            connections,
            ..base.clone()
        };
        sink.record("kv-service", "Sharded-Hyaline", "hashmap", &params, &result);
        println!(
            "{:>12} {:>10} {:>10.3} {:>12} {:>10} {:>10}",
            connections,
            report.ops,
            report.mops(),
            report.peak_unreclaimed,
            report.reclaim.flushed,
            report.reclaim.swept
        );
    }
    println!();
}
