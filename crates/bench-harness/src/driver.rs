//! The measured benchmark driver.
//!
//! Reproduces the paper's methodology (Section 6): prefill the structure,
//! run every thread through a uniform random operation stream for a fixed
//! duration, and report throughput plus the average number of retired but
//! not yet reclaimed objects per operation (sampled periodically, as in the
//! framework of \[35\]). Optional extras drive the robustness test (stalled
//! threads parked inside an operation, Figure 10a) and §3.3 trimming
//! (Figure 10b).

use lockfree_ds::ConcurrentMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smr_core::{Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use crate::workload::{Op, OpMix, OpStream};

/// Parameters of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Active worker threads.
    pub threads: usize,
    /// Extra threads that enter an operation and stall for the whole run.
    pub stalled: usize,
    /// Measured duration per trial, in seconds.
    pub secs: f64,
    /// Number of trials; results are averaged (the paper runs 5).
    pub trials: usize,
    /// Number of elements prefilled (the paper uses 50 000).
    pub prefill: usize,
    /// Keys are drawn from `0..key_range` (the paper uses 100 000).
    pub key_range: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Reclamation configuration handed to the scheme.
    pub config: SmrConfig,
    /// Sample the unreclaimed-object count every this many operations.
    pub sample_every: u64,
    /// Drive operations with `trim` instead of `leave`+`enter`
    /// (Hyaline only; Figure 10b). Falls back to leave+enter elsewhere.
    pub use_trim: bool,
    /// Operations between forced `leave`/`enter` when trimming (bounds the
    /// retirement list length, as §3.3 requires).
    pub trim_window: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchParams {
    fn default() -> Self {
        Self {
            threads: 2,
            stalled: 0,
            secs: 0.3,
            trials: 1,
            prefill: 1_000,
            key_range: 2_000,
            mix: OpMix::WriteIntensive,
            config: SmrConfig::default(),
            sample_every: 128,
            use_trim: false,
            trim_window: 64,
            seed: 0x5EED,
        }
    }
}

/// Result of one benchmark run (averaged over trials).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunResult {
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Average retired-but-unreclaimed objects (per sample point).
    pub avg_unreclaimed: f64,
    /// Total operations executed.
    pub ops: u64,
    /// Nodes retired during the measured phase.
    pub retired: u64,
    /// Nodes freed during the measured phase.
    pub freed: u64,
    /// Allocations served from the recycle pool (zero when recycling off).
    pub pool_hits: u64,
    /// Allocations that fell through to the global allocator while
    /// recycling was enabled (zero when recycling off).
    pub pool_misses: u64,
    /// Reclaimed nodes routed back to the recycle pool (zero when off).
    pub recycled: u64,
}

/// Runs the workload against a `(structure, scheme)` pair.
pub fn run_bench<S, M>(params: &BenchParams) -> RunResult
where
    M: ConcurrentMap<S>,
    S: Smr<M::Node>,
{
    let mut acc = RunResult::default();
    for trial in 0..params.trials.max(1) {
        let r = run_trial::<S, M>(params, trial as u64);
        acc.mops += r.mops;
        acc.avg_unreclaimed += r.avg_unreclaimed;
        acc.ops += r.ops;
        acc.retired += r.retired;
        acc.freed += r.freed;
        acc.pool_hits += r.pool_hits;
        acc.pool_misses += r.pool_misses;
        acc.recycled += r.recycled;
    }
    let n = params.trials.max(1) as f64;
    acc.mops /= n;
    acc.avg_unreclaimed /= n;
    acc
}

/// The prefill: `prefill` evenly spaced keys from the range, so roughly
/// half the range is present (as in the paper: 50k elements, 100k keys),
/// in a Fisher–Yates order seeded per trial. Ascending inserts would build
/// the unbalanced NM tree as one path as deep as the prefill; a random
/// order builds the random tree the paper's figures measure.
fn prefill_keys(params: &BenchParams, trial: u64) -> Vec<u64> {
    let step = (params.key_range / params.prefill.max(1) as u64).max(1);
    let mut keys: Vec<u64> = (0..params.key_range)
        .step_by(step as usize)
        .take(params.prefill)
        .collect();
    let mut rng = SmallRng::seed_from_u64(params.seed ^ trial);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

fn run_trial<S, M>(params: &BenchParams, trial: u64) -> RunResult
where
    M: ConcurrentMap<S>,
    S: Smr<M::Node>,
{
    let map = M::with_config(params.config.clone());

    {
        let mut h = map.handle();
        for key in prefill_keys(params, trial) {
            h.enter();
            map.map_insert(&mut h, key, key);
            h.leave();
        }
        h.flush();
    }

    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(params.threads + params.stalled + 1);
    let map_ref = &map;
    let stop_ref = &stop;
    let barrier_ref = &start_barrier;

    // Create every handle up front, before any thread exists (handles are
    // Send): a registry-exhaustion panic then propagates cleanly from here
    // instead of stranding already-spawned threads at the start barrier
    // forever.
    let mut handles = (0..params.threads + params.stalled)
        .map(|_| map_ref.handle())
        .collect::<Vec<_>>()
        .into_iter();

    let (total_ops, sample_sum, samples) = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(params.threads);
        for t in 0..params.threads {
            let params = params.clone();
            let mut h = handles.next().expect("one premade handle per thread");
            workers.push(scope.spawn(move || {
                let mut stream =
                    OpStream::new(params.mix, params.key_range, params.seed ^ trial, t as u64);
                let (mut ops, mut sample_sum, mut samples) = (0u64, 0u64, 0u64);
                barrier_ref.wait();
                if params.use_trim {
                    h.enter();
                }
                while !stop_ref.load(Ordering::Relaxed) {
                    if !params.use_trim {
                        h.enter();
                    }
                    let (op, key) = stream.next_op();
                    match op {
                        Op::Get => {
                            map_ref.map_get(&mut h, key);
                        }
                        Op::Insert => {
                            map_ref.map_insert(&mut h, key, key);
                        }
                        Op::Remove => {
                            map_ref.map_remove(&mut h, key);
                        }
                    }
                    ops += 1;
                    if ops.is_multiple_of(params.sample_every) {
                        // Load-only estimate: sampling must not introduce
                        // shared-cache-line writes into the measured run.
                        sample_sum += map_ref.domain().unreclaimed_estimate();
                        samples += 1;
                    }
                    if params.use_trim {
                        // §3.3: trim in lieu of leave+enter, with a bounded
                        // window forcing a real leave periodically.
                        if ops.is_multiple_of(params.trim_window) {
                            h.leave();
                            h.enter();
                        } else {
                            h.trim();
                        }
                    } else {
                        h.leave();
                    }
                }
                if params.use_trim {
                    h.leave();
                }
                h.flush();
                (ops, sample_sum, samples)
            }));
        }
        // Stalled threads: enter, run a handful of operations, then park
        // inside the operation until the run ends (Figure 10a's setup).
        let mut stalled = Vec::with_capacity(params.stalled);
        for t in 0..params.stalled {
            let params = params.clone();
            let mut h = handles.next().expect("one premade handle per thread");
            stalled.push(scope.spawn(move || {
                let mut stream = OpStream::new(
                    params.mix,
                    params.key_range,
                    params.seed ^ trial ^ 0xDEAD,
                    (params.threads + t) as u64,
                );
                barrier_ref.wait();
                h.enter();
                for _ in 0..4 {
                    let (_, key) = stream.next_op();
                    map_ref.map_get(&mut h, key);
                }
                while !stop_ref.load(Ordering::Relaxed) {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the stalled reader idles inside its operation on purpose"
                    )]
                    std::thread::sleep(Duration::from_millis(1));
                }
                h.leave();
            }));
        }

        barrier_ref.wait();
        #[expect(
            clippy::disallowed_methods,
            reason = "the controller thread waits out the measured interval"
        )]
        std::thread::sleep(Duration::from_secs_f64(params.secs));
        stop.store(true, Ordering::SeqCst);

        let mut totals = (0u64, 0u64, 0u64);
        for w in workers {
            let (ops, sum, n) = w.join().expect("worker panicked");
            totals = (totals.0 + ops, totals.1 + sum, totals.2 + n);
        }
        for s in stalled {
            s.join().expect("stalled thread panicked");
        }
        totals
    });

    let stats = map.stats();
    RunResult {
        mops: total_ops as f64 / params.secs / 1e6,
        avg_unreclaimed: if samples == 0 {
            0.0
        } else {
            sample_sum as f64 / samples as f64
        },
        ops: total_ops,
        retired: stats.retired(),
        freed: stats.freed(),
        pool_hits: stats.pool_hits(),
        pool_misses: stats.pool_misses(),
        recycled: stats.recycled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::Hyaline;
    use lockfree_ds::MichaelHashMap;
    use smr_baselines::Ebr;

    fn quick_params() -> BenchParams {
        BenchParams {
            threads: 2,
            secs: 0.05,
            prefill: 100,
            key_range: 200,
            config: SmrConfig {
                slots: 4,
                max_threads: 64,
                ..SmrConfig::default()
            },
            ..BenchParams::default()
        }
    }

    #[test]
    fn prefill_is_a_seeded_shuffle_of_the_spaced_keys() {
        let p = BenchParams {
            prefill: 500,
            key_range: 1_000,
            ..BenchParams::default()
        };
        let ascending: Vec<u64> = (0..1_000).step_by(2).collect();
        let keys = prefill_keys(&p, 0);
        assert_eq!(keys, prefill_keys(&p, 0), "same seed and trial, same order");
        assert_ne!(keys, ascending, "the prefill order is shuffled");
        assert_ne!(keys, prefill_keys(&p, 1), "each trial draws its own order");
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ascending, "the key set is the evenly spaced one");
    }

    #[test]
    fn driver_produces_throughput() {
        let r = run_bench::<Hyaline<_>, MichaelHashMap<u64, u64, _>>(&quick_params());
        assert!(r.ops > 0, "no operations executed");
        assert!(r.mops > 0.0);
    }

    #[test]
    fn stalled_threads_inflate_unreclaimed_for_ebr() {
        let mut p = quick_params();
        p.mix = OpMix::WriteIntensive;
        // Aggressive epoch advancement and scanning keep the clean run's
        // steady-state limbo small, so the stalled reservation's unbounded
        // growth dominates the sampled average even on slow hosts.
        p.secs = 0.2;
        p.config.era_freq = 16;
        p.config.scan_threshold = 32;
        let clean = run_bench::<Ebr<_>, MichaelHashMap<u64, u64, _>>(&p);
        p.stalled = 1;
        let stalled = run_bench::<Ebr<_>, MichaelHashMap<u64, u64, _>>(&p);
        // Normalize the pinned average by each run's total retire volume:
        // absolute counts depend on how long the OS lets a preempted worker
        // sit inside an operation (pronounced on single-CPU hosts), but the
        // *fraction* of the run's garbage held back cleanly separates a
        // stalled reservation (which pins everything retired after it, so
        // the time-averaged fraction approaches 1/2) from transient
        // scheduling hiccups.
        assert!(
            stalled.retired > 100,
            "stalled run did too little work to be meaningful ({} retires)",
            stalled.retired
        );
        // `avg_unreclaimed` is averaged over trials while `retired` is
        // summed across them, so divide the volume back down to per-trial
        // before forming the fraction (a no-op at the current trials = 1).
        let per_trial = p.trials.max(1) as f64;
        let clean_frac = clean.avg_unreclaimed / (clean.retired.max(1) as f64 / per_trial);
        let stalled_frac = stalled.avg_unreclaimed / (stalled.retired.max(1) as f64 / per_trial);
        assert!(
            stalled_frac > 0.15 && clean_frac < stalled_frac / 2.0,
            "EBR with a stalled thread should pin a large fraction of all \
             retired nodes (clean {clean_frac:.3} of {}, stalled \
             {stalled_frac:.3} of {})",
            clean.retired,
            stalled.retired
        );
    }

    #[test]
    fn trim_mode_runs() {
        let mut p = quick_params();
        p.use_trim = true;
        let r = run_bench::<Hyaline<_>, MichaelHashMap<u64, u64, _>>(&p);
        assert!(r.ops > 0);
    }
}
