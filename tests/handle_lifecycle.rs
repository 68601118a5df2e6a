//! Handle lifecycle edge cases, across every scheme.
//!
//! The `SmrHandle` contract promises safety through unusual — but legal —
//! lifecycles: a handle dropped *inside* an operation must implicitly
//! leave; `flush` may be called mid-operation; domains are independent
//! (handles of one never affect another); and registry-based schemes
//! refuse (by panicking) to over-commit their fixed capacity rather than
//! silently corrupting state.

use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::{Smr, SmrConfig, SmrHandle};
use smr_testkit::Canary;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 2,
        batch_min: 4,
        era_freq: 4,
        scan_threshold: 8,
        max_threads: 8,
        ..SmrConfig::default()
    }
}

/// Dropping a handle that is still inside an operation must release its
/// reservation and everything it retired (the implicit `leave` in `Drop`).
fn drop_while_active<S: Smr<Canary>>() {
    let domain = S::with_config(cfg());
    {
        let mut h = domain.handle();
        h.enter();
        for i in 0..16 {
            let node = h.alloc(Canary::new(i));
            // SAFETY: `node` came from this handle's `alloc`, was never
            // published, and is retired once.
            unsafe { h.retire(node) };
        }
        // No leave, no flush: the handle drops mid-operation.
    }
    // A sweeper adopts any orphaned limbo and finishes reclamation.
    let mut sweeper = domain.handle();
    sweeper.flush();
    drop(sweeper);
    assert_eq!(
        domain.stats().unreclaimed(),
        0,
        "{}: nodes stranded by a mid-operation drop",
        S::name()
    );
}

/// `flush` inside an operation is legal: it finalizes buffered retirement
/// state without ending the reservation, and the operation continues.
fn flush_mid_operation<S: Smr<Canary>>() {
    let domain = S::with_config(cfg());
    let mut h = domain.handle();
    h.enter();
    let keep = h.alloc(Canary::new(99));
    for i in 0..8 {
        let node = h.alloc(Canary::new(i));
        // SAFETY: `node` came from this handle's `alloc`, was never published,
        // and is retired once.
        unsafe { h.retire(node) };
    }
    h.flush();
    // Still inside: the kept node must be intact and usable.
    // SAFETY: `keep` is non-null and not yet retired, so it is live.
    unsafe { keep.deref() }.check().expect("pre-leave canary");
    // SAFETY: `keep` came from this handle's `alloc`, was never published, and
    // is retired once.
    unsafe { h.retire(keep) };
    h.leave();
    h.flush();
    drop(h);
    let mut sweeper = domain.handle();
    sweeper.flush();
    drop(sweeper);
    assert_eq!(domain.stats().unreclaimed(), 0, "{}", S::name());
}

/// Two domains of the same scheme are fully independent: retiring through
/// one never reclaims (or counts) nodes of the other.
fn domains_are_independent<S: Smr<Canary>>() {
    let a = S::with_config(cfg());
    let b = S::with_config(cfg());
    let mut ha = a.handle();
    let mut hb = b.handle();
    ha.enter();
    hb.enter();
    let node_b = hb.alloc(Canary::new(7));
    for i in 0..32 {
        let n = ha.alloc(Canary::new(i));
        // SAFETY: `n` came from this handle's `alloc`, was never published, and
        // is retired once.
        unsafe { ha.retire(n) };
    }
    ha.leave();
    ha.flush();
    // Domain B saw no retires; its node is untouched and unaccounted in A.
    // SAFETY: `node_b` is non-null and not yet retired, so it is live.
    unsafe { node_b.deref() }.check().expect("foreign-domain canary");
    assert_eq!(b.stats().retired(), 0, "{}: cross-domain retire", S::name());
    // SAFETY: `node_b` came from `hb`'s `alloc` on domain B, was never
    // published, and is retired once.
    unsafe { hb.retire(node_b) };
    hb.leave();
    hb.flush();
    drop(ha);
    drop(hb);
    assert!(a.stats().balanced(), "{}: domain A leaked", S::name());
    assert!(b.stats().balanced(), "{}: domain B leaked", S::name());
}

macro_rules! lifecycle_tests {
    ($($name:ident => $scheme:ty),+ $(,)?) => {
        mod drop_active {
            use super::*;
            $(#[test]
            fn $name() {
                drop_while_active::<$scheme>();
            })+
        }
        mod flush_inside {
            use super::*;
            $(#[test]
            fn $name() {
                flush_mid_operation::<$scheme>();
            })+
        }
        mod independence {
            use super::*;
            $(#[test]
            fn $name() {
                domains_are_independent::<$scheme>();
            })+
        }
    };
}

lifecycle_tests! {
    hyaline => Hyaline<Canary>,
    hyaline1 => Hyaline1<Canary>,
    hyaline_s => HyalineS<Canary>,
    hyaline_1s => Hyaline1S<Canary>,
    epoch => Ebr<Canary>,
    hp => Hp<Canary>,
    he => He<Canary>,
    ibr => Ibr<Canary>,
}

/// Leaky never reclaims, so only the lifecycle mechanics are checked.
#[test]
fn leaky_drop_while_active_is_harmless() {
    let domain: Leaky<Canary> = Leaky::with_config(cfg());
    {
        let mut h = domain.handle();
        h.enter();
        let n = h.alloc(Canary::new(1));
        // SAFETY: `n` came from this handle's `alloc`, was never published, and
        // is retired once.
        unsafe { h.retire(n) };
    }
    assert_eq!(domain.stats().retired(), 1);
    assert_eq!(domain.stats().freed(), 0, "leaky must not reclaim");
}

/// Registry-based schemes must refuse to over-commit their capacity.
#[test]
fn registry_exhaustion_panics_rather_than_corrupting() {
    let domain: Hp<Canary> = Hp::with_config(SmrConfig {
        max_threads: 2,
        ..cfg()
    });
    let _h1 = domain.handle();
    let _h2 = domain.handle();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _h3 = domain.handle();
    }));
    assert!(result.is_err(), "third handle must be refused");
    // Releasing one slot makes the capacity available again.
    drop(_h1);
    let _h3 = domain.handle();
}

/// Transparent Hyaline supports unbounded handles on fixed slots — the
/// exact situation that panics for registry-based schemes.
#[test]
fn hyaline_handles_exceed_slot_count_freely() {
    let domain: Hyaline<Canary> = Hyaline::with_config(SmrConfig {
        slots: 2,
        ..cfg()
    });
    let mut handles: Vec<_> = (0..16).map(|_| domain.handle()).collect();
    for (i, h) in handles.iter_mut().enumerate() {
        h.enter();
        let n = h.alloc(Canary::new(i as u64));
        // SAFETY: `n` came from this handle's `alloc`, was never published, and
        // is retired once.
        unsafe { h.retire(n) };
        h.leave();
    }
    drop(handles);
    assert!(domain.stats().balanced());
}
