//! Integrating Hyaline into your own lock-free structure.
//!
//! Run with: `cargo run --release --example custom_structure`
//!
//! The paper's transparency claim (§2.4) is that Hyaline drops into
//! unmanaged-style code with a four-call API — `enter`, `protect`,
//! `retire`, `leave` — and no thread registration. This example builds a
//! lock-free *work-claiming set* from scratch on the public API: producers
//! publish jobs into a singly-linked list, consumers claim the whole list
//! with one swap and retire the nodes as they drain them. No part of
//! `lockfree_ds` is used; everything below is the code a downstream user
//! would write.

use hyaline::Hyaline;
use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
use std::sync::atomic::Ordering;

/// One published job.
struct Job {
    payload: u64,
    next: Atomic<Job>,
}

/// A multi-producer, single-claimer job list.
struct JobList {
    domain: Hyaline<Job>,
    head: Atomic<Job>,
}

impl JobList {
    fn new() -> Self {
        Self {
            domain: Hyaline::with_config(SmrConfig {
                slots: 4,
                batch_min: 16,
                ..SmrConfig::default()
            }),
            head: Atomic::null(),
        }
    }

    /// Publishes a job (lock-free push).
    fn publish(&self, h: &mut <Hyaline<Job> as Smr<Job>>::Handle<'_>, payload: u64) {
        h.enter();
        let node = h.alloc(Job {
            payload,
            next: Atomic::null(),
        });
        // SAFETY: `node` came from `alloc` and is not published yet, so this
        // thread owns it.
        let node_ref = unsafe { node.deref() };
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            node_ref.next.store(head, Ordering::Relaxed);
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => head = now,
            }
        }
        h.leave();
    }

    /// Claims every published job at once (one swap), retires the nodes,
    /// and returns the payload sum. Concurrent publishers are unaffected;
    /// concurrent claimers each get a disjoint batch.
    fn claim_all(&self, h: &mut <Hyaline<Job> as Smr<Job>>::Handle<'_>) -> (u64, u64) {
        h.enter();
        let mut cursor = self.head.swap(Shared::null(), Ordering::AcqRel);
        let mut sum = 0u64;
        let mut count = 0u64;
        while !cursor.is_null() {
            // SAFETY: the swap handed this sublist to this thread alone, and
            // each node is retired only below, after it is read.
            let job = unsafe { cursor.deref() };
            sum = sum.wrapping_add(job.payload);
            count += 1;
            let next = job.next.load(Ordering::Acquire);
            // SAFETY: the swap made this sublist unreachable to new
            // operations, and this loop retires each node once. Concurrent
            // claimers that started earlier may still be reading it, so
            // `retire`, never free directly.
            unsafe { h.retire(cursor) };
            cursor = next;
        }
        h.leave();
        (sum, count)
    }
}

fn main() {
    let list = &JobList::new();
    let producers = 4u64;
    let jobs_each = 25_000u64;

    let (claimed_sum, claimed_count) = std::thread::scope(|s| {
        for p in 0..producers {
            s.spawn(move || {
                let mut h = list.domain.handle();
                for i in 0..jobs_each {
                    list.publish(&mut h, p * jobs_each + i);
                }
                // Dropping the handle finalizes the partial retire batch:
                // the producer is off the hook immediately (transparency).
            });
        }
        // One consumer drains concurrently with the producers.
        let mut h = list.domain.handle();
        let mut sum = 0u64;
        let mut count = 0u64;
        while count < producers * jobs_each {
            let (s_, c) = list.claim_all(&mut h);
            sum = sum.wrapping_add(s_);
            count += c;
            if c == 0 {
                std::hint::spin_loop();
            }
        }
        h.flush();
        (sum, count)
    });

    let expected_count = producers * jobs_each;
    let expected_sum: u64 = (0..producers * jobs_each).sum();
    println!("claimed {claimed_count} jobs, payload sum {claimed_sum}");
    assert_eq!(claimed_count, expected_count, "every job claimed exactly once");
    assert_eq!(claimed_sum, expected_sum, "no job lost or duplicated");

    let stats = list.domain.stats();
    println!(
        "allocated {} nodes, freed {} — balanced: {}",
        stats.allocated(),
        stats.freed(),
        stats.balanced()
    );
    assert!(stats.balanced(), "all retired jobs reclaimed after quiescence");
}
