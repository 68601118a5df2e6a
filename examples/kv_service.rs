//! The connection-scale oversubscription demo: 10 000 simulated client
//! connections share a `Sharded<Hyaline>` KV cache through a handle
//! registry capped at 4 — the paper's Figure-8/9 "more threads than cores"
//! story, restated as "more tasks than handles".
//!
//! Run with: `cargo run --release --example kv_service`
//!
//! Each connection is a cooperative task on `smr_async`'s executor. Per
//! burst it awaits a `smr_async::TaskGuard` (async FIFO
//! checkout from the `HandlePool` — no worker thread ever blocks), churns
//! gets/puts/deletes against the shared map, then returns the handle
//! *dirty*: the deferred flush is handed to a background reclaimer task
//! through a bounded queue, keeping retire work off the request path. On
//! shutdown the reclaimers drain their queues, sweep the stragglers, and
//! rejoin — the run ends with zero dirty handles by construction.

use hyaline_repro::hyaline::Hyaline;
use hyaline_repro::lockfree_ds::MichaelHashMap;
use hyaline_repro::smr_async::{run_kv_service, KvConfig};
use hyaline_repro::smr_core::{HandlePool, Sharded, SmrConfig};

fn main() {
    let config = SmrConfig {
        slots: 16,
        shards: 4,
        max_threads: 8,
        ..SmrConfig::default()
    };
    let map: MichaelHashMap<u64, u64, Sharded<Hyaline<_>>> = MichaelHashMap::with_config(config);
    // The whole point: the registry budget is tiny and fixed while the
    // connection count is not. 10k tasks multiplex 4 handles.
    let pool = HandlePool::new(map.domain(), 4);

    let cfg = KvConfig {
        connections: 10_000,
        ops_per_connection: 64,
        burst: 16,
        key_range: 4_096,
        get_pct: 70,
        put_pct: 20,
        reclaim_shards: 2,
        queue_capacity: 64,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        seed: 0xcafe_f00d,
    };
    let report = run_kv_service(&map, &pool, &cfg);

    println!(
        "served {} connections x {} ops = {} ops in {:.3}s ({:.2} Mops/s)",
        cfg.connections,
        cfg.ops_per_connection,
        report.ops,
        report.elapsed.as_secs_f64(),
        report.mops()
    );
    println!(
        "registry: {} handles issued for {} connections (cap {})",
        pool.issued(),
        cfg.connections,
        pool.capacity()
    );
    println!(
        "reclaimers: {} deferred flushes performed, {} vacuous, {} swept at shutdown",
        report.reclaim.flushed, report.reclaim.vacuous, report.reclaim.swept
    );
    println!(
        "peak retired-but-unreclaimed during the run: {}",
        report.peak_unreclaimed
    );
    assert_eq!(pool.dirty(), 0, "shutdown handshake flushed everything");
}
