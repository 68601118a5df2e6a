//! Robustness demo (§4.2, Figure 10a): what one stalled thread does to
//! memory under Hyaline vs Hyaline-S.
//!
//! Run with: `cargo run --release --example robust_stall`
//!
//! A "stalled" thread enters an operation, touches the structure, and then
//! stops cooperating. Under basic Hyaline (like EBR) every batch retired
//! into its slot afterwards stays pinned. Hyaline-S stamps allocations with
//! birth eras, skips slots whose access era is stale, and cuts a batch at a
//! stale slot's era, so the stalled thread pins only what it could actually
//! reference: the nodes born before it stalled, the few born later in the
//! same era, and the dummy nodes their batches need. The map is half
//! filled before the stall and the churn retires those nodes among younger
//! ones, so the demo prints both counts side by side.

use hyaline::{Hyaline, HyalineS};
use lockfree_ds::{ConcurrentMap, MichaelHashMap};
use smr_core::{Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const CHURN_OPS: u64 = 400_000;
/// Keys filled before the stall: the even ones below `2 * PREFILL`.
const PREFILL: u64 = 512;

/// Returns the nodes pinned while the thread is stalled and the nodes born
/// before it stalled.
fn run_with_stall<S>(label: &str) -> (u64, u64)
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

    let mut h = map.smr_handle();
    for key in (0..2 * PREFILL).step_by(2) {
        h.enter();
        map.map_insert(&mut h, key, key);
        h.leave();
    }
    h.flush();

    let (unreclaimed, born_before) = std::thread::scope(|s| {
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
        // A filled key's insert fails, so its remove retires a node born
        // before the stall; every other retired node is younger.
        ready.wait();
        let born_before = map.stats().allocated();
        for i in 0..CHURN_OPS {
            let key = i % (2 * PREFILL);
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
        (pinned, born_before)
    });

    println!(
        "{label:<12} worker churned {CHURN_OPS} insert/remove pairs; \
         {unreclaimed} nodes pinned by the stalled thread, \
         {born_before} born before it stalled"
    );
    (unreclaimed, born_before)
}

fn main() {
    let (plain, _) = run_with_stall::<Hyaline<_>>("Hyaline");
    let (robust, born_before) = run_with_stall::<HyalineS<_>>("Hyaline-S");
    println!(
        "\nHyaline-S pinned {:.1}x less memory ({} vs {}), {:.2} nodes per node born before the stall",
        plain as f64 / robust.max(1) as f64,
        robust,
        plain,
        robust as f64 / born_before.max(1) as f64
    );
    assert!(
        robust < plain / 4,
        "Hyaline-S should bound what a stalled thread pins"
    );
    // Half of each batch of the first churn pass was born before the
    // stall, so pinning whole batches would hold about twice as many.
    assert!(
        robust < 2 * born_before,
        "Hyaline-S should pin only nodes the stalled thread could have seen"
    );
}
