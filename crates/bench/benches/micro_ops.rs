//! Criterion micro-benchmarks of the SMR primitives per scheme:
//! `enter`+`leave` (reservation cost), `protect` (guarded pointer read),
//! and `alloc`+`retire` (reclamation cost per node).
//!
//! These back several design claims of the paper: §3.3's "CAS on Head in
//! Hyaline is not a source of any measurable performance penalty"
//! (enter/leave: Hyaline's FAA+CAS vs Hyaline-1's plain writes vs EBR's),
//! HP's expensive per-read fence vs era schemes, and the ≈O(1) retire cost.

use criterion::{criterion_group, criterion_main, Criterion};
use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::{Atomic, Smr, SmrConfig, SmrHandle};
use std::hint::black_box;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 8,
        max_threads: 64,
        ..SmrConfig::default()
    }
}

fn bench_scheme<S: Smr<u64>>(c: &mut Criterion, name: &str) {
    // enter + leave.
    {
        let domain = S::with_config(cfg());
        let mut h = domain.handle();
        c.bench_function(&format!("enter_leave/{name}"), |b| {
            b.iter(|| {
                h.enter();
                h.leave();
            })
        });
    }
    // protect (guarded read) of a stable pointer.
    {
        let domain = S::with_config(cfg());
        let mut h = domain.handle();
        h.enter();
        let node = h.alloc(42);
        let link = Atomic::new(node);
        c.bench_function(&format!("protect/{name}"), |b| {
            b.iter(|| black_box(h.protect(0, black_box(&link))))
        });
        h.leave();
        // Leave the node to the domain teardown (Leaky leaks it by design).
        h.enter();
        unsafe { h.retire(node) };
        h.leave();
        h.flush();
    }
    // alloc + retire churn (the full reclamation path amortized).
    {
        let domain = S::with_config(cfg());
        let mut h = domain.handle();
        c.bench_function(&format!("alloc_retire/{name}"), |b| {
            b.iter(|| {
                h.enter();
                let node = h.alloc(black_box(7u64));
                unsafe { h.retire(node) };
                h.leave();
            })
        });
        h.flush();
    }
}

fn benches(c: &mut Criterion) {
    bench_scheme::<Leaky<u64>>(c, "Leaky");
    bench_scheme::<Ebr<u64>>(c, "Epoch");
    bench_scheme::<Hyaline<u64>>(c, "Hyaline");
    bench_scheme::<Hyaline1<u64>>(c, "Hyaline-1");
    bench_scheme::<HyalineS<u64>>(c, "Hyaline-S");
    bench_scheme::<Hyaline1S<u64>>(c, "Hyaline-1S");
    bench_scheme::<Ibr<u64>>(c, "IBR");
    bench_scheme::<He<u64>>(c, "HE");
    bench_scheme::<Hp<u64>>(c, "HP");
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700))
}

criterion_group! {
    name = micro;
    config = configured();
    targets = benches
}
criterion_main!(micro);
