//! Writing a lock-free structure with the typed-pointer API.
//!
//! This is the README's "writing a structure" walk-through as a runnable
//! example: a complete Treiber stack in ~40 lines where every traversal
//! dereference is a safe, borrow-branded `Shared` and the only `unsafe`
//! left is the retire-safety argument in `pop` (plus the exclusive
//! teardown in `Drop`). No part of `lockfree_ds` is used; everything below
//! is the code a downstream user would write.
//!
//! It also shows the paper's transparency claim (§2.4): a thread needs no
//! registration, only a handle, and dropping that handle finalizes its
//! partial retire batch, so a thread that has exited is off the hook at
//! once. `main` checks that every pushed value is popped exactly once and
//! that every node is freed as soon as the workers are gone.
//!
//! Run with: `cargo run --release --example typed_stack`

use hyaline::Hyaline;
use smr_core::typed::{Atomic, Guard};
use smr_core::{Smr, SmrConfig, SmrHandle};

struct Node<T> {
    value: T,
    next: Atomic<Node<T>>,
}

struct Stack<T: Send + Sync + 'static, S: Smr<Node<T>>> {
    domain: S,
    top: Atomic<Node<T>>,
}

impl<T: Clone + Send + Sync + 'static, S: Smr<Node<T>>> Stack<T, S> {
    fn new() -> Self {
        Self {
            domain: S::with_config(SmrConfig::default()),
            top: Atomic::null(),
        }
    }

    fn push<'a>(&'a self, h: &mut S::Handle<'a>, value: T) {
        let g = Guard::over(h);
        let mut node = g.alloc(Node {
            value,
            next: Atomic::null(),
        });
        let mut top = self.top.fetch();
        loop {
            node.as_ref().next.store(top);
            // On success the node's ownership moves into the stack; on
            // failure we get it back, unpublished, and retry.
            match self.top.compare_exchange_weak_owned(top, node) {
                Ok(_) => return,
                Err((now, back)) => {
                    top = now;
                    node = back;
                }
            }
        }
    }

    fn pop<'a>(&'a self, h: &mut S::Handle<'a>) -> Option<T> {
        let g = Guard::over(h);
        loop {
            // `load` routes through the scheme's protection slot 0 and
            // returns a `Shared` borrow-branded to `g`: dereferencing it
            // is safe for as long as the guard lives.
            let top = self.top.load(0, &g);
            let top_ref = top.as_ref()?;
            let next = top_ref.next.fetch();
            if self.top.compare_exchange(top, next).is_ok() {
                let value = top_ref.value.clone();
                // SAFETY: the successful CAS unlinked `top`; only the
                // winning popper reaches this retire, and pushes only
                // ever link fresh nodes, so no new reference can form.
                unsafe { g.defer_retire(top) };
                return Some(value);
            }
        }
    }
}

impl<T: Send + Sync + 'static, S: Smr<Node<T>>> Drop for Stack<T, S> {
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        let g = Guard::over(&mut handle);
        let mut curr = self.top.fetch();
        while !curr.is_null() {
            // SAFETY: `Drop` has `&mut self` — the remaining chain is
            // exclusively ours to walk and free.
            let next = unsafe { curr.deref() }.next.fetch();
            // SAFETY: same exclusive-teardown argument.
            unsafe { g.dealloc(curr) };
            curr = next;
        }
    }
}

fn main() {
    const THREADS: u64 = 4;
    const OPS: u64 = 10_000;
    let stack: Stack<u64, Hyaline<_>> = Stack::new();
    let stack = &stack;
    // Each worker alternates push and pop, so a pop always finds at least
    // the value its own thread pushed just before. Returns (pops, sum).
    let (count, sum) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut h = stack.domain.handle();
                    let (mut count, mut sum) = (0u64, 0u64);
                    for i in 0..OPS {
                        h.enter();
                        if i % 2 == 0 {
                            stack.push(&mut h, t * 100_000 + i);
                        } else if let Some(v) = stack.pop(&mut h) {
                            count += 1;
                            sum += v;
                        }
                        h.leave();
                    }
                    // Dropping `h` here finalizes the partial batch.
                    (count, sum)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold((0, 0), |(c, s), (dc, ds)| (c + dc, s + ds))
    });
    let pushed = THREADS * OPS / 2;
    let expected: u64 = (0..THREADS)
        .flat_map(|t| (0..OPS).step_by(2).map(move |i| t * 100_000 + i))
        .sum();
    let stats = stack.domain.stats();
    println!(
        "{THREADS} threads popped {count} of {pushed} pushed values concurrently; \
         {} retired, {} freed",
        stats.retired(),
        stats.freed()
    );
    assert_eq!(count, pushed, "every value popped exactly once");
    assert_eq!(sum, expected, "no value lost or duplicated");
    assert!(
        stats.balanced(),
        "every popped node is freed once the workers' handles drop"
    );
}
