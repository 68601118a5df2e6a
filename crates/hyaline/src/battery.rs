//! The unit-test cases that hold for more than one variant, each written
//! once over `D: Smr`. [`cases!`] stamps the ones every alias must pass into
//! that alias's test module; the era-only cases are called from the era
//! modules by name.

use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

use crate::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};

/// A small layout every variant accepts: few slots, short batches, a fast
/// era clock and a low stall threshold.
pub(crate) fn small() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 4,
        era_freq: 4,
        ack_threshold: 64,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

/// One operation per value: allocate it, retire it unpublished.
pub(crate) fn churn<H: SmrHandle<u64>>(h: &mut H, values: std::ops::Range<u64>) {
    for v in values {
        h.enter();
        let node = h.alloc(v);
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
        h.leave();
    }
}

/// After every handle is gone nothing may be left: no leak, no node still
/// waiting, and nothing released through the unpublished path.
pub(crate) fn assert_all_freed<T: Send + 'static, D: Smr<T>>(domain: &D) {
    assert!(domain.stats().balanced());
    assert_eq!(
        domain.stats().allocated(),
        domain.stats().freed(),
        "all retired + dummy nodes freed after quiescence"
    );
}

pub(crate) fn single_thread<D: Smr<u64>>() {
    let domain = D::with_config(small());
    churn(&mut domain.handle(), 0..200);
    assert_all_freed(&domain);
}

/// More threads than cores or slots; `adaptive` lets Hyaline-S grow.
pub(crate) fn stress<D: Smr<u64>>() {
    let domain = &D::with_config(SmrConfig {
        batch_min: 8,
        adaptive: true,
        ..small()
    });
    std::thread::scope(|s| {
        for t in 0..12 {
            s.spawn(move || churn(&mut domain.handle(), t * 100_000..t * 100_000 + 1_500));
        }
    });
    assert_all_freed(domain);
}

pub(crate) fn partial_batch_finalized_on_drop<D: Smr<u64>>() {
    let domain = D::with_config(small());
    // One node in the local batch; drop must finalize and insert it. No
    // slot is active by then, so the batch is freed inside the drop.
    churn(&mut domain.handle(), 0..1);
    assert!(domain.stats().balanced());
    assert!(domain.stats().freed() >= 1);
}

/// A flushed partial batch of `n` nodes pays one dummy for each entered
/// slot past its own `n - 1` insertion nodes, and none at all with no slot
/// entered. An era alias also parks one handle whose access era predates
/// the batch: that slot is skipped and costs nothing.
pub(crate) fn partial_flush_adds_one_dummy_per_entered_slot<D: Smr<u64>>() {
    for parked in [0usize, 1, 3] {
        for n in [1u64, 2] {
            // Eight slots: every handle below gets its own, round-robin on
            // shared slots, claimed on owned ones.
            let domain = D::with_config(SmrConfig {
                slots: 8,
                ..small()
            });
            let link = Atomic::null();
            let mut readers: Vec<_> = (0..parked).map(|_| domain.handle()).collect();
            let mut stale = D::robust().then(|| domain.handle());
            let mut writer = domain.handle();
            for h in readers.iter_mut().chain(stale.iter_mut()) {
                h.enter();
            }
            writer.enter();
            let nodes: Vec<_> = (0..n).map(|v| writer.alloc(v)).collect();
            // Raise the readers' access eras past every birth era above, so
            // the era aliases count their slots as current.
            for h in &mut readers {
                let _ = h.protect(0, &link);
            }
            for node in nodes {
                // SAFETY: `node` was never published; no other reference
                // exists.
                unsafe { writer.retire(node) };
            }
            writer.leave();
            writer.flush();
            let dummies = parked.saturating_sub(n as usize - 1) as u64;
            assert_eq!(
                domain.stats().allocated(),
                n + dummies,
                "{}: {parked} entered slots, {n} retired nodes",
                D::name()
            );
            if parked == 0 {
                assert_eq!(domain.stats().unreclaimed(), 0, "{}", D::name());
            }
            for h in readers.iter_mut().chain(stale.iter_mut()) {
                h.leave();
            }
            drop((readers, stale, writer));
            assert_all_freed(&domain);
        }
    }
}

/// Every dummy is an allocation like any other: with recycling on, it is a
/// pool hit or a pool miss. Two handles stay parked inside an operation, so
/// every flush meets at least two entered slots and must add dummies.
pub(crate) fn dummies_are_pool_traffic<D: Smr<u64>>() {
    let domain = &D::with_config(SmrConfig {
        recycle: true,
        recycle_capacity: 1024,
        recycle_magazine: 8,
        // The era never moves, so the parked handles' one `protect` keeps
        // their slots current for the era aliases.
        era_freq: u64::MAX,
        ..small()
    });
    let link = Atomic::null();
    let mut parked = [domain.handle(), domain.handle()];
    for h in &mut parked {
        h.enter();
        let _ = h.protect(0, &link);
    }
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                let mut h = domain.handle();
                for v in t * 10_000..t * 10_000 + 1_000 {
                    churn(&mut h, v..v + 1);
                    h.flush();
                }
            });
        }
    });
    for h in &mut parked {
        h.leave();
    }
    drop(parked);
    assert_all_freed(domain);
    let stats = domain.stats();
    assert_eq!(
        stats.pool_hits() + stats.pool_misses(),
        stats.allocated(),
        "{}: every allocation, dummies included, goes through the pool",
        D::name()
    );
}

/// `HandlePool`'s check-in shape under contention: every operation flushes,
/// so every batch is partial and its extensions race with concurrent
/// `leave` credits.
pub(crate) fn flush_every_operation_stress<D: Smr<Tracked>>() {
    let live = &Arc::new(AtomicI64::new(0));
    let domain = &D::with_config(small());
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(move || {
                let mut h = domain.handle();
                for _ in 0..2_000 {
                    h.enter();
                    live.fetch_add(1, Ordering::Relaxed);
                    let node = h.alloc(Tracked(Arc::clone(live)));
                    // SAFETY: the node is thread-local until retired.
                    unsafe { h.retire(node) };
                    h.leave();
                    h.flush();
                }
            });
        }
    });
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "payload leak or double drop"
    );
    assert_all_freed(domain);
}

/// A `flush` — what a `HandlePool` check-in runs — leaves the magazine with
/// the handle: its next allocation reuses memory it freed itself, and
/// nothing reached the shared partitions, so a second handle's allocation
/// misses. Dropping the handles returns every node and publishes the pool
/// counters; the domain's drop frees the nodes.
pub(crate) fn check_in_keeps_magazine_warm<D: Smr<Tracked>>() {
    let live = &Arc::new(AtomicI64::new(0));
    let track = || {
        live.fetch_add(1, Ordering::Relaxed);
        Tracked(Arc::clone(live))
    };
    let domain = D::with_config(SmrConfig {
        recycle: true,
        recycle_magazine: 8,
        ..small()
    });
    let stats = domain.stats();
    let mut h = domain.handle();
    // Four nodes, fewer than the magazine holds, all freed by the time the
    // flush returns: no other handle is inside an operation.
    h.enter();
    let nodes: Vec<_> = (0..4).map(|_| h.alloc(track())).collect();
    let freed: Vec<usize> = nodes.iter().map(|node| node.as_raw()).collect();
    for node in nodes {
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    h.leave();
    h.flush();
    assert_eq!(stats.unreclaimed(), 0, "{}", D::name());

    let mut other = domain.handle();
    let cold = other.alloc(track());
    assert!(
        !freed.contains(&cold.as_raw()),
        "{}: the flush spilled the magazine to the shared partitions",
        D::name()
    );
    let warm = h.alloc(track());
    assert!(
        freed.contains(&warm.as_raw()),
        "{}: the flushed handle's next allocation missed its magazine",
        D::name()
    );

    // SAFETY: neither node was ever published.
    unsafe {
        h.dealloc(warm);
        other.dealloc(cold);
    }
    drop((h, other));
    assert_eq!((stats.pool_hits(), stats.pool_misses()), (1, 5), "{}", D::name());
    assert!(stats.balanced(), "{}", D::name());
    drop(domain);
    assert_eq!(live.load(Ordering::Relaxed), 0, "payload leak or double drop");
}

pub(crate) fn dealloc_unpublished_node<D: Smr<u64>>() {
    let domain = D::with_config(small());
    let mut h = domain.handle();
    let node = h.alloc(5);
    // SAFETY: `node` was never published; dealloc-in-place is allowed.
    unsafe { h.dealloc(node) };
    drop(h);
    assert!(domain.stats().balanced());
    assert_eq!(domain.stats().deallocated(), 1);
}

/// A reader inside an operation pins batches retired after its `enter`;
/// once it leaves they are freed. A robust variant may skip a reader that
/// never dereferenced anything, so only the others must show the pin.
pub(crate) fn reader_pins_until_leave<D: Smr<u64>>() {
    let domain = &D::with_config(small());
    let entered = &Barrier::new(2);
    let retired = &Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = domain.handle();
            reader.enter();
            entered.wait();
            retired.wait();
            let pinned = domain.stats().unreclaimed();
            assert!(D::robust() || pinned > 0, "expected pinned batches");
            reader.leave();
        });
        let mut writer = domain.handle();
        entered.wait();
        churn(&mut writer, 0..64); // several full batches
        writer.flush();
        retired.wait();
    });
    assert_all_freed(domain);
}

/// §3.3 `trim` frees what was retired since `enter` without leaving. Each
/// node is protected before it is retired, so an era variant's slot is
/// fresh enough to be handed every batch.
pub(crate) fn trim_reclaims_mid_operation<D: Smr<u64>>() {
    let domain = D::with_config(SmrConfig {
        slots: 1, // single list: the trimming thread sees every batch
        batch_min: 2,
        max_threads: 4,
        ..small()
    });
    let link = Atomic::null();
    let mut h = domain.handle();
    h.enter();
    for i in 0..16u64 {
        link.store(h.alloc(i), Ordering::Release);
        let node = h.protect(0, &link);
        // SAFETY: `link` is local to this test; no other thread sees `node`.
        unsafe { h.retire(node) };
    }
    h.flush(); // insert any partial batch
    let before = domain.stats().freed();
    h.trim();
    let after = domain.stats().freed();
    assert!(
        after > before,
        "trim must reclaim batches retired since enter (before={before}, after={after})"
    );
    h.leave();
    drop(h);
    assert!(domain.stats().balanced());
}

pub(crate) fn recycling_reuses_memory_and_stays_balanced<D: Smr<u64>>() {
    let domain = &D::with_config(SmrConfig {
        slots: 2,
        batch_min: 3,
        recycle: true,
        recycle_capacity: 1024,
        recycle_magazine: 8,
        ..small()
    });
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || churn(&mut domain.handle(), t * 10_000..t * 10_000 + 2_000));
        }
    });
    // Logical accounting is untouched by recycling...
    assert_all_freed(domain);
    // ...while the allocator fast path actually engaged.
    assert!(domain.stats().recycled() > 0, "reclaim fed the pool");
    assert!(domain.stats().pool_hits() > 0, "alloc drew from the pool");
}

/// A payload that counts itself live, per test so that parallel tests do
/// not see each other.
pub(crate) struct Tracked(Arc<AtomicI64>);

impl Drop for Tracked {
    fn drop(&mut self) {
        let prev = self.0.fetch_sub(1, Ordering::Relaxed);
        assert!(prev > 0, "double drop detected");
    }
}

pub(crate) fn payload_drops_exactly_once<D: Smr<Tracked>>() {
    let live = &Arc::new(AtomicI64::new(0));
    let domain = &D::with_config(SmrConfig {
        slots: 2,
        batch_min: 3,
        ..small()
    });
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut h = domain.handle();
                for _ in 0..1_000 {
                    h.enter();
                    live.fetch_add(1, Ordering::Relaxed);
                    let node = h.alloc(Tracked(Arc::clone(live)));
                    // SAFETY: the node is thread-local until retired.
                    unsafe { h.retire(node) };
                    h.leave();
                }
            });
        }
    });
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "payload leak or double drop"
    );
    assert!(domain.stats().balanced());
}

/// The robustness property (`ERAS`): a thread parked inside an operation
/// must not pin nodes allocated *after* its slot era went stale.
pub(crate) fn stalled_thread_is_skipped<D: Smr<u64>>() {
    let domain = &D::with_config(SmrConfig {
        slots: 2,
        ..small()
    });
    let entered = &Barrier::new(2);
    let done = &Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut stalled = domain.handle();
            stalled.enter();
            entered.wait();
            done.wait(); // "stalled" inside the operation
            stalled.leave();
        });
        entered.wait();
        let mut worker = domain.handle();
        // Every node is born after the stalled thread's access era, so its
        // slot is skipped and memory keeps being reclaimed.
        churn(&mut worker, 0..10_000);
        worker.flush();
        let unreclaimed = domain.stats().unreclaimed();
        assert!(
            unreclaimed < 1_000,
            "stalled thread pinned {unreclaimed} nodes; {} must be robust",
            D::name()
        );
        done.wait();
    });
    assert!(domain.stats().balanced());
}

/// The other side (`ERAS`): a reader whose access era is current must pin
/// the batches it could reference; they reclaim once it leaves.
pub(crate) fn fresh_reader_is_tracked_not_skipped<D: Smr<u64>>() {
    let domain = &D::with_config(small());
    let published = &Barrier::new(2);
    let protected = &Barrier::new(2);
    let release = &Barrier::new(2);
    let link = &Atomic::<u64>::null();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = domain.handle();
            reader.enter();
            published.wait();
            let seen = reader.protect(0, link);
            assert!(!seen.is_null());
            // SAFETY: `seen` came from `protect` inside the operation.
            assert_eq!(unsafe { *seen.deref() }, 42);
            protected.wait();
            release.wait();
            // SAFETY: still protected — the era reservation pins `seen`.
            assert_eq!(unsafe { *seen.deref() }, 42);
            reader.leave();
        });
        let mut writer = domain.handle();
        writer.enter();
        let node = writer.alloc(42);
        link.store(node, Ordering::Release);
        published.wait();
        protected.wait();
        // Unlink and retire while the reader holds a protected pointer.
        let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
        // SAFETY: the swap unlinked the node from the only shared link.
        unsafe { writer.retire(unlinked) };
        writer.leave();
        writer.flush();
        release.wait();
    });
    assert_all_freed(domain);
}

/// Allocates and frees `small().era_freq` unpublished nodes through `h`, so
/// the era clock advances at least once: whatever `h` allocates next is
/// born after any access era taken before the call. The freed nodes count
/// as deallocated, so the cases that call this check `balanced()` rather
/// than [`assert_all_freed`].
fn advance_era<H: SmrHandle<u64>>(h: &mut H) {
    for v in 0..small().era_freq {
        let node = h.alloc(v);
        // SAFETY: `node` was never published; dealloc-in-place is allowed.
        unsafe { h.dealloc(node) };
    }
}

/// Retires `nodes` through `writer` inside one operation and flushes them
/// as one partial batch once it has left, so only the readers' slots are
/// active when the batch is cut and inserted.
fn retire_as_one_batch<H: SmrHandle<u64>>(writer: &mut H, nodes: Vec<Shared<u64>>) {
    writer.enter();
    for node in nodes {
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { writer.retire(node) };
    }
    writer.leave();
    writer.flush();
}

/// Takes the nodes of `groups` round-robin, one from each group in turn,
/// so a batch's REFS node and its neighbours come from different groups.
fn interleave(groups: Vec<Vec<Shared<u64>>>) -> Vec<Shared<u64>> {
    let mut iters: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        out.extend(iters.iter_mut().filter_map(Iterator::next));
        if out.len() == before {
            return out;
        }
    }
}

/// A layout for the cut cases: every handle gets a slot of its own, and a
/// batch holds everything one test retires until it is flushed.
fn cut_layout() -> SmrConfig {
    SmrConfig {
        slots: 8,
        batch_min: 64,
        ..small()
    }
}

/// `ERAS`: a reader whose access era `E` lies inside a batch's birth range
/// pins only the nodes born at or before `E`. The batch is cut at `E`: the
/// older part enters the reader's slot, with one dummy when it has no node
/// besides its REFS node, and the younger part skips the slot and is freed
/// at the flush. The old and young nodes are retired interleaved, so the
/// batch's first node, its REFS node, is young in one round and old in the
/// other.
pub(crate) fn stale_reader_pins_only_older_part<D: Smr<u64>>() {
    for (n_old, young_first) in [(1u64, false), (3, true), (3, false)] {
        let domain = D::with_config(cut_layout());
        let link = Atomic::null();
        let mut reader = domain.handle();
        let mut writer = domain.handle();
        let old: Vec<_> = (0..n_old).map(|v| writer.alloc(v)).collect();
        reader.enter();
        let _ = reader.protect(0, &link);
        advance_era(&mut writer);
        let young: Vec<_> = (0..8).map(|v| writer.alloc(100 + v)).collect();
        let groups = if young_first { vec![young, old] } else { vec![old, young] };
        retire_as_one_batch(&mut writer, interleave(groups));
        let dummies = 2u64.saturating_sub(n_old);
        assert_eq!(
            domain.stats().unreclaimed(),
            n_old + dummies,
            "{}: {n_old} nodes born before the reader's era, young first: {young_first}",
            D::name()
        );
        reader.leave();
        reader.flush();
        assert_eq!(domain.stats().unreclaimed(), 0, "{}", D::name());
        drop((reader, writer));
        assert!(domain.stats().balanced(), "{}", D::name());
    }
}

/// `ERAS`: two readers parked at eras `E1 < E2` cut a batch twice. The
/// nodes born by `E1` enter both slots (two nodes, one insertion node of
/// their own, so one dummy), those born in `(E1, E2]` enter the second
/// reader's slot only (two nodes, no dummy), and the rest are freed at the
/// flush. So the second reader's leave frees its part although the first
/// reader stays parked: one cut at `E2` would have left that part in the
/// first reader's slot too.
pub(crate) fn two_stale_readers_cut_at_each_era<D: Smr<u64>>() {
    let domain = D::with_config(cut_layout());
    let link = Atomic::null();
    let mut first = domain.handle();
    let mut second = domain.handle();
    let mut writer = domain.handle();
    let oldest: Vec<_> = (0..2).map(|v| writer.alloc(v)).collect();
    first.enter();
    let _ = first.protect(0, &link);
    advance_era(&mut writer);
    let middle: Vec<_> = (0..2).map(|v| writer.alloc(10 + v)).collect();
    second.enter();
    let _ = second.protect(0, &link);
    advance_era(&mut writer);
    let young: Vec<_> = (0..4).map(|v| writer.alloc(20 + v)).collect();
    retire_as_one_batch(&mut writer, interleave(vec![young, middle, oldest]));
    let unreclaimed = || domain.stats().unreclaimed();
    assert_eq!(unreclaimed(), (2 + 1) + 2, "{}: both parts pinned", D::name());
    second.leave();
    second.flush();
    assert_eq!(unreclaimed(), 2 + 1, "{}: the middle part is free", D::name());
    first.leave();
    first.flush();
    assert_eq!(unreclaimed(), 0, "{}", D::name());
    drop((first, second, writer));
    assert!(domain.stats().balanced(), "{}", D::name());
}

/// `ERAS`: a batch is cut only by an access era inside its birth range. A
/// reader parked before every birth is skipped and one that protected after
/// every birth takes the whole batch: ten nodes, one insertion node, no
/// dummy, so nothing but the batch's own nodes is ever retired.
pub(crate) fn no_cut_outside_birth_range<D: Smr<u64>>() {
    let domain = D::with_config(cut_layout());
    let link = Atomic::null();
    let mut stale = domain.handle();
    let mut fresh = domain.handle();
    let mut writer = domain.handle();
    stale.enter();
    let _ = stale.protect(0, &link);
    advance_era(&mut writer);
    let older: Vec<_> = (0..5).map(|v| writer.alloc(v)).collect();
    advance_era(&mut writer);
    let younger: Vec<_> = (0..5).map(|v| writer.alloc(10 + v)).collect();
    fresh.enter();
    let _ = fresh.protect(0, &link);
    retire_as_one_batch(&mut writer, interleave(vec![older, younger]));
    let stats = domain.stats();
    assert_eq!(stats.retired(), 10, "{}: a dummy means a cut", D::name());
    assert_eq!(stats.unreclaimed(), 10, "{}: the fresh reader pins all", D::name());
    stale.leave();
    fresh.leave();
    drop((stale, fresh, writer));
    assert!(domain.stats().balanced(), "{}", D::name());
}

/// What each alias tells generic code about itself (the paper's Table 1 and
/// the seek-validation contract), against the values the six separate
/// implementations declared.
#[test]
pub(crate) fn capability_flags() {
    fn flags<D: Smr<u64>>() -> (&'static str, [bool; 4]) {
        let flags = [
            D::robust(),
            D::supports_trim(),
            D::needs_seek_validation(),
            D::wait_free_retire(),
        ];
        (D::name(), flags)
    }
    let plain = [false, true, false, false];
    let eras = [true, true, true, false];
    let wait_free = [true, true, true, true];
    assert_eq!(flags::<Hyaline<u64>>(), ("Hyaline", plain));
    assert_eq!(flags::<Hyaline1<u64>>(), ("Hyaline-1", plain));
    assert_eq!(flags::<HyalineS<u64>>(), ("Hyaline-S", eras));
    assert_eq!(flags::<Hyaline1S<u64>>(), ("Hyaline-1S", eras));
    assert_eq!(flags::<CrystallineL<u64>>(), ("Crystalline-L", wait_free));
    assert_eq!(flags::<CrystallineW<u64>>(), ("Crystalline-W", wait_free));
}

/// Instantiates the cases every variant must pass for one alias. The four
/// leading names are what that variant's tests have always been called;
/// the suite's test ids are a tracked floor, so they stay.
macro_rules! cases {
    ($alias:ident: $single:ident, $stress:ident, $trim:ident, $reader:ident) => {
        #[test]
        fn $single() {
            crate::battery::single_thread::<$alias<u64>>();
        }
        #[test]
        fn $stress() {
            crate::battery::stress::<$alias<u64>>();
        }
        #[test]
        fn $trim() {
            crate::battery::trim_reclaims_mid_operation::<$alias<u64>>();
        }
        #[test]
        fn $reader() {
            crate::battery::reader_pins_until_leave::<$alias<u64>>();
        }
        #[test]
        fn partial_batch_finalized_on_drop() {
            crate::battery::partial_batch_finalized_on_drop::<$alias<u64>>();
        }
        #[test]
        fn dealloc_unpublished_node() {
            crate::battery::dealloc_unpublished_node::<$alias<u64>>();
        }
        #[test]
        fn recycling_reuses_memory_and_stays_balanced() {
            crate::battery::recycling_reuses_memory_and_stays_balanced::<$alias<u64>>();
        }
        #[test]
        fn payload_drops_exactly_once() {
            crate::battery::payload_drops_exactly_once::<$alias<crate::battery::Tracked>>();
        }
        #[test]
        fn partial_flush_adds_one_dummy_per_entered_slot() {
            crate::battery::partial_flush_adds_one_dummy_per_entered_slot::<$alias<u64>>();
        }
        #[test]
        fn dummies_are_pool_traffic() {
            crate::battery::dummies_are_pool_traffic::<$alias<u64>>();
        }
        #[test]
        fn flush_every_operation_stress() {
            crate::battery::flush_every_operation_stress::<$alias<crate::battery::Tracked>>();
        }
        #[test]
        fn check_in_keeps_magazine_warm() {
            crate::battery::check_in_keeps_magazine_warm::<$alias<crate::battery::Tracked>>();
        }
    };
}
pub(crate) use cases;

/// Instantiates the batch-cut cases for one era alias.
macro_rules! cut_cases {
    ($alias:ident) => {
        #[test]
        fn stale_reader_pins_only_older_part() {
            crate::battery::stale_reader_pins_only_older_part::<$alias<u64>>();
        }
        #[test]
        fn two_stale_readers_cut_at_each_era() {
            crate::battery::two_stale_readers_cut_at_each_era::<$alias<u64>>();
        }
        #[test]
        fn no_cut_outside_birth_range() {
            crate::battery::no_cut_outside_birth_range::<$alias<u64>>();
        }
    };
}
pub(crate) use cut_cases;
