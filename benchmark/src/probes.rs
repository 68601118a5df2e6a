//! Isolated probes: the price of one call into one layer, measured alone.
//!
//! A probe runs on one thread unless its name says otherwise. It times
//! `calls` calls in 64 blocks and reports the median block in nanoseconds
//! per call, so a preemption spoils one block, not the result.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crystalline::CrystallineW;
use hyaline::{Hyaline, HyalineS};
use lockfree_ds::{ConcurrentMap, ListNode, MichaelHashMap, NatarajanMittalTree};
use smr_async::{block_on, scope, yield_now, TaskGuard};
use smr_baselines::{Ebr, Leaky};
use smr_core::typed::{self, Guard, Ptr};
use smr_core::{Atomic, HandlePool, Sharded, Smr, SmrConfig, SmrHandle};

use crate::hist::{median, Histogram};
use crate::metrics::{per_layer, Metric};
use crate::ops::{shuffled_keys, value_of, Rng, KEY_RANGE, PREFILL};
use crate::recorder::RUN;
use crate::workloads::{hashmap_write_on, TrialOut, TrialParams};

const BLOCKS: u64 = 64;

/// Median over [`BLOCKS`] blocks of what `block(calls_in_block)` returns.
fn blocks(calls: u64, mut block: impl FnMut(u64) -> f64) -> f64 {
    let per_block = (calls / BLOCKS).max(1);
    let values: Vec<f64> = (0..BLOCKS).map(|_| block(per_block)).collect();
    median(&values)
}

/// Nanoseconds per call of `body`.
fn per_call(calls: u64, mut body: impl FnMut()) -> f64 {
    blocks(calls, |n| {
        let started = Instant::now();
        for _ in 0..n {
            body();
        }
        started.elapsed().as_nanos() as f64 / n as f64
    })
}

/// Nanoseconds per call of the section `body` times itself.
fn per_section(calls: u64, mut body: impl FnMut() -> Duration) -> f64 {
    blocks(calls, |n| {
        let section: Duration = (0..n).map(|_| body()).sum();
        section.as_nanos() as f64 / n as f64
    })
}

fn enter_leave<S: Smr<u64>>(config: SmrConfig, calls: u64) -> f64 {
    let domain = S::with_config(config);
    let mut h = domain.handle();
    per_call(calls, || {
        h.enter();
        h.leave();
    })
}

fn protect<S: Smr<u64>>(calls: u64) -> f64 {
    let domain = S::new();
    let mut h = domain.handle();
    h.enter();
    let node = h.alloc(7);
    let cell = Atomic::new(node);
    let ns = per_call(calls, || {
        black_box(h.protect(0, black_box(&cell)));
    });
    h.leave();
    // SAFETY: `cell` is local to this function, so no other thread ever
    // reached the node, and it is not used again.
    unsafe { h.dealloc(node) };
    ns
}

/// One `enter`, `alloc`, `retire`, `leave`: the batch insertions and the
/// frees they lead to are amortised into the figure.
fn alloc_retire_call<H: SmrHandle<u64>>(h: &mut H) {
    h.enter();
    let node = h.alloc(1);
    // SAFETY: the node was never published, so nothing can reach it, and it
    // is retired once.
    unsafe { h.retire(node) };
    h.leave();
}

fn alloc_retire<S: Smr<u64>>(config: SmrConfig, calls: u64) -> f64 {
    let domain = S::with_config(config);
    let mut h = domain.handle();
    per_call(calls, || alloc_retire_call(&mut h))
}

/// [`alloc_retire`] while another thread sleeps inside an operation.
fn alloc_retire_stalled<S: Smr<u64>>(calls: u64) -> f64 {
    let domain = S::new();
    let entered = Barrier::new(2);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut h = domain.handle();
            h.enter();
            entered.wait();
            while !done.load(Ordering::Acquire) {
                std::thread::park();
            }
            h.leave();
        });
        entered.wait();
        let mut h = domain.handle();
        let ns = per_call(calls, || alloc_retire_call(&mut h));
        drop(h);
        done.store(true, Ordering::Release);
        reader.thread().unpark();
        ns
    })
}

/// p99 of single `retire` calls: one call in a batch's worth closes the
/// batch and inserts it into the slot lists.
fn retire_call_p99(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let mut h = domain.handle();
    let mut hist = Histogram::new();
    for _ in 0..calls {
        h.enter();
        let node = h.alloc(1);
        let started = Instant::now();
        // SAFETY: never published, retired once.
        unsafe { h.retire(node) };
        hist.record(started.elapsed().as_nanos() as u64);
        h.leave();
    }
    hist.quantile(0.99)
}

/// `flush` of a batch holding one node, which pads it to full size.
fn flush_partial(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let mut h = domain.handle();
    per_section(calls, || {
        alloc_retire_call(&mut h);
        let started = Instant::now();
        h.flush();
        started.elapsed()
    })
}

fn handle_create_drop(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    per_call(calls, || drop(black_box(domain.handle())))
}

/// `typed::Atomic::load` through `Guard::over`, against [`protect`].
fn typed_load(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let mut h = domain.handle();
    h.enter();
    let cell = typed::Atomic::<u64>::null();
    let ns = {
        let g = Guard::over(&mut h);
        cell.store(g.alloc(7).into_ptr());
        let ns = per_call(calls, || {
            black_box(black_box(&cell).load(0, &g));
        });
        // SAFETY: `cell` is local, so this thread has the only reference.
        unsafe { g.dealloc(cell.swap(Ptr::null())) };
        ns
    };
    h.leave();
    ns
}

/// `Guard::alloc` + `defer_retire`, against [`alloc_retire`].
fn typed_alloc_retire(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let mut h = domain.handle();
    per_call(calls, || {
        h.enter();
        {
            let g = Guard::over(&mut h);
            let node = g.alloc(1).into_ptr();
            // SAFETY: never published, retired once.
            unsafe { g.defer_retire(node) };
        }
        h.leave();
    })
}

/// [`alloc_retire`] with node recycling on, and the share of allocations
/// the recycle pool served.
fn recycle_alloc_retire(calls: u64) -> (f64, f64) {
    let domain = Hyaline::<u64>::with_config(SmrConfig {
        recycle: true,
        ..SmrConfig::default()
    });
    let mut h = domain.handle();
    let ns = per_call(calls, || alloc_retire_call(&mut h));
    h.flush();
    drop(h);
    let (hits, misses) = (domain.stats().pool_hits(), domain.stats().pool_misses());
    (ns, hits as f64 / (hits + misses).max(1) as f64)
}

/// A node allocated and freed at once: the global allocator's share.
fn node_alloc_free(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let mut h = domain.handle();
    per_call(calls, || {
        let node = h.alloc(1);
        // SAFETY: never published and not used again.
        unsafe { h.dealloc(node) };
    })
}

fn sharded_domain() -> Sharded<Hyaline<u64>> {
    // The `kv-service` layout: 2 shards sharing 8 slots.
    Sharded::with_config(SmrConfig {
        slots: 8,
        shards: 2,
        ..SmrConfig::default()
    })
}

/// `pin_shard`, `enter`, one `protect`, `leave`, alternating between the
/// shards. The sharded handle puts off the inner `enter` until something
/// needs it, so without the protected load there is nothing to measure.
fn sharded_enter_leave(calls: u64) -> f64 {
    let domain = sharded_domain();
    let mut h = domain.handle();
    let cell = Atomic::<u64>::null();
    let mut key = 0;
    per_call(calls, || {
        key += 1;
        h.pin_shard(key);
        h.enter();
        black_box(h.protect(0, black_box(&cell)));
        h.leave();
    })
}

fn sharded_alloc_retire(calls: u64) -> f64 {
    let domain = sharded_domain();
    let mut h = domain.handle();
    let mut key = 0;
    per_call(calls, || {
        key += 1;
        h.pin_shard(key);
        alloc_retire_call(&mut h);
    })
}

const POOL_CAPACITY: usize = 4;

fn pool_checkout_checkin(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let pool = HandlePool::new(&domain, POOL_CAPACITY);
    per_call(calls, || drop(black_box(pool.checkout())))
}

/// A dirty check-in and the deferred flush a reclaimer does for it.
fn pool_checkin_dirty_flush(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let pool = HandlePool::new(&domain, POOL_CAPACITY);
    per_call(calls, || {
        pool.checkout().check_in_dirty();
        black_box(pool.flush_one_dirty());
    })
}

/// [`pool_checkout_checkin`] while a second thread does the same.
fn pool_checkout_contended(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let pool = HandlePool::new(&domain, POOL_CAPACITY);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                drop(black_box(pool.checkout()));
            }
        });
        let ns = per_call(calls, || drop(black_box(pool.checkout())));
        done.store(true, Ordering::Relaxed);
        ns
    })
}

/// Spawning a task that does nothing and running it to completion, on 2
/// workers.
fn executor_spawn_complete(calls: u64) -> f64 {
    blocks(calls, |n| {
        let started = Instant::now();
        scope(2, |sp| {
            for _ in 0..n {
                sp.spawn(async {});
            }
        });
        started.elapsed().as_nanos() as f64 / n as f64
    })
}

/// One `yield_now` and resumption with 256 tasks on 2 workers.
fn executor_yield(calls: u64) -> f64 {
    const TASKS: u64 = 256;
    blocks(calls, |n| {
        let yields = (n / TASKS).max(1);
        let started = Instant::now();
        scope(2, |sp| {
            for _ in 0..TASKS {
                sp.spawn(async move {
                    for _ in 0..yields {
                        yield_now().await;
                    }
                });
            }
        });
        started.elapsed().as_nanos() as f64 / (TASKS * yields) as f64
    })
}

/// `TaskGuard::acquire` and its inline-flush drop, uncontended.
fn taskguard_acquire_release(calls: u64) -> f64 {
    let domain = Hyaline::<u64>::new();
    let pool = HandlePool::new(&domain, POOL_CAPACITY);
    let per_block = (calls / BLOCKS).max(1);
    block_on(async {
        let mut values = Vec::new();
        for _ in 0..BLOCKS {
            let started = Instant::now();
            for _ in 0..per_block {
                drop(black_box(TaskGuard::acquire(&pool).await));
            }
            values.push(started.elapsed().as_nanos() as f64 / per_block as f64);
        }
        median(&values)
    })
}

/// `get`, and an insert-and-remove pair that leaves the key set as it was,
/// on a prefilled map over `Leaky`: the structure's own cost, with no
/// reclamation under it.
fn map_floor<N: Send + 'static, M: ConcurrentMap<Leaky<N>, Node = N>>(calls: u64) -> (f64, f64) {
    let map = M::with_config(SmrConfig::default());
    let mut h = map.handle();
    h.enter();
    for &key in &shuffled_keys(1)[..PREFILL] {
        map.map_insert(&mut h, key, value_of(key));
    }
    h.leave();
    let mut rng = Rng::new(1);
    // Leaky's `enter` and `leave` are empty; they are here for the contract.
    let get = per_call(calls, || {
        h.enter();
        black_box(map.map_get(&mut h, rng.below(KEY_RANGE)));
        h.leave();
    });
    // Leaky never frees, so this probe is the one that costs memory.
    let pair = per_call(calls / 4, || {
        let key = rng.below(KEY_RANGE);
        h.enter();
        if map.map_insert(&mut h, key, value_of(key)) {
            black_box(map.map_remove(&mut h, key));
        } else {
            black_box(map.map_remove(&mut h, key));
            map.map_insert(&mut h, key, value_of(key));
        }
        h.leave();
    });
    (get, pair)
}

pub struct ProbeOut {
    pub metrics: Vec<Metric>,
    /// The two comparator trials, for their output checks.
    pub trials: Vec<(&'static str, TrialOut)>,
}

/// Runs every probe. `calls` is the call count of the cheap probes; the
/// expensive ones take a fixed share of it.
pub fn run_probes(calls: u64, trial: &TrialParams) -> ProbeOut {
    let default = SmrConfig::default;
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push(per_layer(name, value));

    put(
        "hyaline.enter_leave_ns",
        enter_leave::<Hyaline<u64>>(default(), calls),
    );
    put("hyaline.protect_ns", protect::<Hyaline<u64>>(calls));
    put(
        "hyaline.alloc_retire_ns",
        alloc_retire::<Hyaline<u64>>(default(), calls),
    );
    put("hyaline.retire_call_p99_ns", retire_call_p99(calls));
    put("hyaline.flush_partial_ns", flush_partial(calls / 16));
    put(
        "hyaline.handle_create_drop_ns",
        handle_create_drop(calls / 4),
    );
    put(
        "hyaline-s.enter_leave_ns",
        enter_leave::<HyalineS<u64>>(default(), calls),
    );
    put("hyaline-s.protect_ns", protect::<HyalineS<u64>>(calls));
    put(
        "hyaline-s.alloc_retire_ns",
        alloc_retire::<HyalineS<u64>>(default(), calls),
    );
    put(
        "hyaline-s.alloc_retire_stalled_ns",
        alloc_retire_stalled::<HyalineS<u64>>(calls),
    );
    put("typed.load_ns", typed_load(calls));
    put("typed.alloc_retire_ns", typed_alloc_retire(calls));
    let (ns, hit_ratio) = recycle_alloc_retire(calls);
    put("recycle.alloc_retire_ns", ns);
    put("recycle.hit_ratio", hit_ratio);
    put("allocator.node_alloc_free_ns", node_alloc_free(calls));
    put("sharded.enter_leave_ns", sharded_enter_leave(calls));
    put("sharded.alloc_retire_ns", sharded_alloc_retire(calls));
    put("pool.checkout_checkin_ns", pool_checkout_checkin(calls));
    put(
        "pool.checkin_dirty_flush_ns",
        pool_checkin_dirty_flush(calls / 4),
    );
    put(
        "pool.checkout_contended_ns",
        pool_checkout_contended(calls / 4),
    );
    put(
        "executor.spawn_complete_ns",
        executor_spawn_complete(calls / 4),
    );
    put("executor.yield_ns", executor_yield(calls));
    put(
        "taskguard.acquire_release_ns",
        taskguard_acquire_release(calls),
    );
    let (get, pair) = map_floor::<_, MichaelHashMap<u64, u64, _>>(calls);
    put("hashmap.get_ns", get);
    put("hashmap.insert_remove_ns", pair);
    let (get, pair) = map_floor::<_, NatarajanMittalTree<u64, u64, _>>(calls);
    put("nmtree.get_ns", get);
    put("nmtree.insert_remove_ns", pair);
    put(
        "epoch.enter_leave_ns",
        enter_leave::<Ebr<u64>>(default(), calls),
    );
    put(
        "epoch.alloc_retire_ns",
        alloc_retire::<Ebr<u64>>(default(), calls),
    );
    // While Epoch rescans its whole limbo list on every retire past the
    // threshold, a stalled reader makes this quadratic in the call count:
    // keep it small, and read the figure as "at 2^14 retires".
    put(
        "epoch.alloc_retire_stalled_ns",
        alloc_retire_stalled::<Ebr<u64>>(calls.min(1 << 14)),
    );
    put(
        "leaky.alloc_retire_ns",
        alloc_retire::<Leaky<u64>>(default(), calls),
    );
    let epoch = hashmap_write_on::<Ebr<ListNode<u64, u64>>>(trial, true);
    put("epoch.hashmap_write_mops", epoch.mops(RUN));
    let leaky = hashmap_write_on::<Leaky<ListNode<u64, u64>>>(trial, false);
    put("leaky.hashmap_write_mops", leaky.mops(RUN));
    put(
        "crystalline-w.enter_leave_ns",
        enter_leave::<CrystallineW<u64>>(default(), calls),
    );
    put(
        "crystalline-w.alloc_retire_ns",
        alloc_retire::<CrystallineW<u64>>(default(), calls),
    );

    ProbeOut {
        metrics,
        trials: vec![
            ("epoch.hashmap_write", epoch),
            ("leaky.hashmap_write", leaky),
        ],
    }
}
