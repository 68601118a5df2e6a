//! Cross-scheme churn for the Treiber stack and Michael–Scott queue with
//! checksummed payloads.
//!
//! These two structures are the smallest realistic SMR clients, and the MS
//! queue in particular exercises a validation subtlety: a dequeued
//! sentinel's `next` field is frozen, so a consumer that protected `next`
//! through a stale sentinel must re-validate `head` before dereferencing
//! (Michael's step D07). Racing consumers against producers with `Canary`
//! values turns a missed validation into a checksum panic.

use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use lockfree_ds::{MsQueue, QueueNode, StackNode, TreiberStack};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::{Smr, SmrConfig, SmrHandle};
use smr_testkit::Canary;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 2,
        batch_min: 4,
        era_freq: 4,
        scan_threshold: 8,
        ack_threshold: 64,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

/// Producers push/enqueue tagged canaries; consumers pop/dequeue and verify
/// both the checksum and the tag range. Conservation is checked at the end.
fn queue_churn<S: Smr<QueueNode<Arc<Canary>>>>() {
    const PER_PRODUCER: u64 = 2_000;
    let q: &MsQueue<Arc<Canary>, S> = &MsQueue::with_config(cfg());
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            s.spawn(move || {
                let mut h = q.smr_handle();
                for i in 0..PER_PRODUCER {
                    h.enter();
                    q.enqueue(&mut h, Arc::new(Canary::new(t * PER_PRODUCER + i)));
                    h.leave();
                }
            });
        }
        for _ in 0..2 {
            s.spawn(|| {
                let mut h = q.smr_handle();
                let mut got = 0;
                while got < PER_PRODUCER {
                    h.enter();
                    if let Some(c) = q.dequeue(&mut h) {
                        let v = c.check().expect("dequeued canary intact");
                        assert!(v < 2 * PER_PRODUCER, "value out of range");
                        got += 1;
                    }
                    h.leave();
                }
                consumed.fetch_add(got, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(consumed.load(Ordering::Relaxed), 2 * PER_PRODUCER);
    let mut h = q.smr_handle();
    h.enter();
    assert!(q.is_empty(&mut h));
    h.leave();
}

fn stack_churn<S: Smr<StackNode<Arc<Canary>>>>() {
    const PER_PRODUCER: u64 = 2_000;
    let st: &TreiberStack<Arc<Canary>, S> = &TreiberStack::with_config(cfg());
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            s.spawn(move || {
                let mut h = st.smr_handle();
                for i in 0..PER_PRODUCER {
                    h.enter();
                    st.push(&mut h, Arc::new(Canary::new(t * PER_PRODUCER + i)));
                    h.leave();
                }
            });
        }
        for _ in 0..2 {
            s.spawn(|| {
                let mut h = st.smr_handle();
                let mut got = 0;
                while got < PER_PRODUCER {
                    h.enter();
                    if let Some(c) = st.pop(&mut h) {
                        c.check().expect("popped canary intact");
                        got += 1;
                    }
                    h.leave();
                }
                consumed.fetch_add(got, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(consumed.load(Ordering::Relaxed), 2 * PER_PRODUCER);
    assert!(st.is_empty());
}

macro_rules! churn_tests {
    ($($name:ident => $scheme:ty),+ $(,)?) => {
        mod queue {
            use super::*;
            $(#[test]
            fn $name() {
                queue_churn::<$scheme>();
            })+
        }
        mod stack {
            use super::*;
            $(#[test]
            fn $name() {
                stack_churn::<$scheme>();
            })+
        }
    };
}

churn_tests! {
    hyaline => Hyaline<_>,
    hyaline1 => Hyaline1<_>,
    hyaline_s => HyalineS<_>,
    hyaline_1s => Hyaline1S<_>,
    epoch => Ebr<_>,
    hp => Hp<_>,
    he => He<_>,
    ibr => Ibr<_>,
    leaky => Leaky<_>,
}
