//! Robustness demo (§4.2, Figure 10a): what one stalled thread does to
//! memory under Hyaline vs Hyaline-S.
//!
//! Run with: `cargo run --release --example robust_stall`
//!
//! A "stalled" thread enters an operation, touches the structure, and then
//! stops cooperating. Under basic Hyaline (like EBR) every batch retired
//! into its slot afterwards stays pinned. Hyaline-S stamps allocations with
//! birth eras and skips slots whose access era is stale, so the stalled
//! thread pins only what it could actually reference.

use hyaline::{Hyaline, HyalineS};
use lockfree_ds::{ConcurrentMap, MichaelHashMap};
use smr_core::{Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const CHURN_OPS: u64 = 400_000;

fn run_with_stall<S>(label: &str) -> u64
where
    S: Smr<lockfree_ds::ListNode<u64, u64>>,
    MichaelHashMap<u64, u64, S>: ConcurrentMap<S, Node = lockfree_ds::ListNode<u64, u64>>,
{
    let map: MichaelHashMap<u64, u64, S> = MichaelHashMap::with_config(SmrConfig {
        slots: 4,
        max_threads: 64,
        era_freq: 64,
        ack_threshold: 512,
        ..SmrConfig::default()
    });
    let map = &map;
    let ready = &Barrier::new(2);
    let done = &AtomicBool::new(false);

    let unreclaimed = std::thread::scope(|s| {
        // The stalled thread: enters, reads a little, then goes quiet
        // without leaving.
        s.spawn(move || {
            let mut h = map.smr_handle();
            h.enter();
            for k in 0..4 {
                map.map_get(&mut h, k);
            }
            ready.wait();
            while !done.load(Ordering::Acquire) {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the stalled reader idles inside its operation on purpose"
                )]
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            h.leave(); // finally cooperates at shutdown
        });

        // The worker churns allocations: insert then remove the same key.
        ready.wait();
        let mut h = map.smr_handle();
        for i in 0..CHURN_OPS {
            let key = i % 1_024;
            h.enter();
            map.map_insert(&mut h, key, i);
            h.leave();
            h.enter();
            map.map_remove(&mut h, key);
            h.leave();
        }
        h.flush();
        let pinned = map.stats().unreclaimed();
        done.store(true, Ordering::Release);
        pinned
    });

    println!(
        "{label:<12} worker churned {CHURN_OPS} insert/remove pairs; \
         {unreclaimed} nodes pinned by the stalled thread"
    );
    unreclaimed
}

fn main() {
    let plain = run_with_stall::<Hyaline<_>>("Hyaline");
    let robust = run_with_stall::<HyalineS<_>>("Hyaline-S");
    println!(
        "\nHyaline-S pinned {:.1}x less memory ({} vs {})",
        plain as f64 / robust.max(1) as f64,
        robust,
        plain
    );
    assert!(
        robust < plain / 4,
        "Hyaline-S should bound what a stalled thread pins"
    );
}
