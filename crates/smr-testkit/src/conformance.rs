//! One conformance suite for every [`Smr`] scheme.
//!
//! The paper's claims about a scheme are a property matrix: it reclaims,
//! it is transparent (handles come and go freely), and it is robust or it
//! is not (Theorem 4). Each case here states one such property once, over
//! a generic `S: Smr<T>`, and [`conformance!`](crate::conformance!) stamps
//! the cases a scheme must pass into a test module from one line:
//!
//! ```text
//! conformance!(hyaline_s: HyalineS = "Hyaline-S", [batch, eras, robust, seek, shared, snapshots]);
//! conformance!(hyaline_s_adaptive: HyalineS = "Hyaline-S", [batch, eras, robust, seek, shared, snapshots], adaptive: true);
//! conformance!(leaky: Leaky = "Leaky", leaks);
//! ```
//!
//! The name is what `S::name()` must return; trailing `field: value` pairs
//! override [`config`] for every case of the row. Every scheme runs the
//! core cases, `robust()` included both ways: while a reader is parked, a
//! robust scheme must keep what it pins under 1 % of the churn, and a
//! non-robust one must pin over 90 % of it. The tags add the cases of a
//! family and declare the flags the scheme reports, so the enrollment lines
//! are Table 1 and a flipped flag fails `capability_flags`:
//!
//! | tag | cases it adds | flag it declares |
//! |---|---|---|
//! | `batch` | trim, partial-batch dummy counts, cross-thread batch frees, freed at handle drop | `supports_trim()` |
//! | `eras` | batch cuts at a stale reader's access era, protected canaries in cut batches | — |
//! | `handoff` | churn with every retire forced through the handoff cell | `wait_free_retire()` |
//! | `robust` | — | `robust()` |
//! | `seek` | — | `needs_seek_validation()` |
//! | `shared` | more live handles than slots | — |
//! | `registry` | a full registry refuses a handle | — |
//! | `snapshots` | the Bonsai tree | — |
//!
//! `leaks` replaces the whole set with its complement, for `Leaky`:
//! nothing retired is ever freed. Every case runs under the
//! [`watchdog`](crate::watchdog) with [`DEADLINE`], so a hang fails.
//! [`conformance_case!`](crate::conformance_case!) runs one case under a
//! test id that predates the suite.

use crate::{Canary, DropRegistry, StallPoint, TokenMint, Tracked};
use lockfree_ds::{
    BonsaiNode, BonsaiTree, HarrisMichaelList, ListNode, MichaelHashMap, MsQueue,
    NatarajanMittalTree, NmNode, QueueNode, StackNode, TreiberStack,
};
pub use smr_core::SmrConfig;
use smr_core::{Atomic, Shared, Smr, SmrHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// An enrollment's config override, applied to every case's config.
pub type Tweak = fn(SmrConfig) -> SmrConfig;

/// How long a case may run before the watchdog fails it.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// The layout every case starts from: few slots, short batches, a fast era
/// clock, a low scan floor and a low stall threshold.
pub fn config() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 4,
        era_freq: 4,
        scan_threshold: 8,
        ack_threshold: 64,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

/// One operation per value: allocate it, retire it unpublished.
pub fn churn<H: SmrHandle<u64>>(h: &mut H, values: std::ops::Range<u64>) {
    for v in values {
        h.enter();
        let node = h.alloc(v);
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
        h.leave();
    }
}

/// Once every handle is gone nothing may be left: a fresh handle's flush
/// adopts what dropped handles orphaned, and then every node, dummies
/// included, must have been freed through reclamation.
pub fn assert_all_freed<T: Send + 'static, S: Smr<T>>(domain: &S) {
    domain.handle().flush();
    let stats = domain.stats();
    assert!(
        stats.balanced(),
        "{}: unbalanced after quiescence",
        S::name()
    );
    assert_eq!(
        stats.allocated(),
        stats.freed(),
        "{}: every retired and dummy node freed after quiescence",
        S::name()
    );
}

/// Retires `nodes` unpublished through `h` inside one operation.
fn retire_all<T: Send + 'static, H: SmrHandle<T>>(
    h: &mut H,
    nodes: impl IntoIterator<Item = Shared<T>>,
) {
    h.enter();
    for node in nodes {
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    h.leave();
}

/// Runs `writer` while a reader sits parked inside an operation on another
/// thread, having run `park` first; returns what `writer` returns, which it
/// reads while the reader is still parked. The reader is released before
/// this returns, whatever `writer` does.
fn with_parked_reader<'d, S, T, R>(
    domain: &'d S,
    park: impl FnOnce(&mut S::Handle<'d>) + Send,
    writer: impl FnOnce() -> R,
) -> R
where
    T: Send + 'static,
    S: Smr<T>,
{
    let stall = &StallPoint::new();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = domain.handle();
            reader.enter();
            park(&mut reader);
            stall.stall();
            reader.leave();
        });
        stall.wait_until_stalled();
        let released = Release(stall);
        let result = writer();
        drop(released);
        result
    })
}

/// Releases a [`StallPoint`] when dropped, so a failing assertion cannot
/// leave the parked thread (and the scope joining it) hanging.
struct Release<'a>(&'a StallPoint);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

// ---------------------------------------------------------------------------
// Every reclaiming scheme.
// ---------------------------------------------------------------------------

/// The scheme's name and the flags its tags declare (the paper's Table 1
/// and the seek-validation contract). What `robust()` promises is checked
/// by behaviour, in [`protected_survives_stall`] and [`robustness`].
pub fn capability_flags<S: Smr<u64>>(name: &str, tags: &[&str]) {
    assert_eq!(S::name(), name);
    let flags = [
        S::robust(),
        S::supports_trim(),
        S::wait_free_retire(),
        S::needs_seek_validation(),
    ];
    let declared = ["robust", "batch", "handoff", "seek"].map(|tag| tags.contains(&tag));
    assert_eq!(
        flags, declared,
        "{name}: [robust, trim, wait-free retire, seek validation]"
    );
}

/// One handle churns 200 nodes; its flush frees them all.
pub fn single_thread<S: Smr<u64>>(tweak: Tweak) {
    let domain = S::with_config(tweak(config()));
    let mut h = domain.handle();
    churn(&mut h, 0..200);
    h.flush();
    assert_eq!(domain.stats().retired(), 200, "{}", S::name());
    assert_eq!(
        domain.stats().unreclaimed(),
        0,
        "{}: the flush frees all",
        S::name()
    );
    drop(h);
    assert_all_freed(&domain);
}

/// More threads than cores or slots.
pub fn stress<S: Smr<u64>>(tweak: Tweak) {
    let domain = &S::with_config(tweak(SmrConfig {
        batch_min: 8,
        ..config()
    }));
    std::thread::scope(|s| {
        for t in 0..12 {
            s.spawn(move || churn(&mut domain.handle(), t * 100_000..t * 100_000 + 1_500));
        }
    });
    assert_all_freed(domain);
}

/// A node never published may be freed in place, outside reclamation.
pub fn dealloc_unpublished_node<S: Smr<u64>>(tweak: Tweak) {
    let domain = S::with_config(tweak(config()));
    let mut h = domain.handle();
    let node = h.alloc(5);
    // SAFETY: `node` was never published; dealloc-in-place is allowed.
    unsafe { h.dealloc(node) };
    drop(h);
    assert!(domain.stats().balanced(), "{}", S::name());
    assert_eq!(domain.stats().deallocated(), 1, "{}", S::name());
}

/// Four threads churn tracked payloads; each is dropped exactly once, and
/// with `flush_each` every operation is followed by a flush (what a
/// `HandlePool` check-in runs), so every batch is partial and its
/// extensions race with concurrent `leave` credits.
fn tracked_churn<S: Smr<Tracked<u64>>>(
    config: SmrConfig,
    threads: u64,
    ops: u64,
    flush_each: bool,
) {
    let registry = &DropRegistry::new();
    {
        let domain = &S::with_config(config);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut h = domain.handle();
                    for v in t * ops..(t + 1) * ops {
                        let node = h.alloc(registry.track(v));
                        retire_all(&mut h, [node]);
                        if flush_each {
                            h.flush();
                        }
                    }
                });
            }
        });
        assert_all_freed(domain);
    }
    registry.assert_quiescent();
}

/// Four threads churn tracked payloads: each drops exactly once.
pub fn payload_drops_exactly_once<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    let config = SmrConfig {
        slots: 2,
        batch_min: 3,
        ..config()
    };
    tracked_churn::<S>(tweak(config), 4, 1_000, false);
}

/// Eight threads churn tracked payloads and flush after every operation.
pub fn flush_every_operation_stress<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    tracked_churn::<S>(tweak(config()), 8, 2_000, true);
}

/// A `flush` — what a `HandlePool` check-in runs — leaves the magazine with
/// the handle: its next allocation reuses memory it freed itself, and
/// nothing reached the shared partitions, so a second handle's allocation
/// misses. Dropping the handles returns every node and publishes the pool
/// counters; the domain's drop frees the nodes.
pub fn check_in_keeps_magazine_warm<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    let registry = DropRegistry::new();
    let domain = S::with_config(tweak(SmrConfig {
        recycle: true,
        recycle_magazine: 8,
        ..config()
    }));
    let stats = domain.stats();
    let mut h = domain.handle();
    // Four nodes, fewer than the magazine holds, all freed by the time the
    // flush returns: no other handle is inside an operation.
    let nodes: Vec<_> = (0..4).map(|v| h.alloc(registry.track(v))).collect();
    let freed: Vec<usize> = nodes.iter().map(|node| node.as_raw()).collect();
    retire_all(&mut h, nodes);
    h.flush();
    assert_eq!(stats.unreclaimed(), 0, "{}", S::name());

    let mut other = domain.handle();
    let cold = other.alloc(registry.track(4));
    assert!(
        !freed.contains(&cold.as_raw()),
        "{}: the flush spilled the magazine to the shared partitions",
        S::name()
    );
    let warm = h.alloc(registry.track(5));
    assert!(
        freed.contains(&warm.as_raw()),
        "{}: the flushed handle's next allocation missed its magazine",
        S::name()
    );
    // SAFETY: neither node was ever published.
    unsafe {
        h.dealloc(warm);
        other.dealloc(cold);
    }
    drop((h, other));
    assert_eq!(
        (stats.pool_hits(), stats.pool_misses()),
        (1, 5),
        "{}",
        S::name()
    );
    assert!(stats.balanced(), "{}", S::name());
    drop(domain);
    registry.assert_quiescent();
}

/// With recycling on, reclaimed nodes feed the pool and allocations draw
/// from it, and the accounting still balances.
pub fn recycling_reuses_memory_and_stays_balanced<S: Smr<u64>>(tweak: Tweak) {
    let domain = &S::with_config(tweak(SmrConfig {
        slots: 2,
        batch_min: 3,
        recycle: true,
        recycle_capacity: 1024,
        recycle_magazine: 8,
        ..config()
    }));
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || churn(&mut domain.handle(), t * 10_000..t * 10_000 + 2_000));
        }
    });
    // Logical accounting is untouched by recycling...
    assert_all_freed(domain);
    // ...while the allocator fast path actually engaged.
    assert!(
        domain.stats().recycled() > 0,
        "{}: reclaim fed the pool",
        S::name()
    );
    assert!(
        domain.stats().pool_hits() > 0,
        "{}: alloc drew from the pool",
        S::name()
    );
}

/// A reader inside an operation pins what is retired after its `enter`;
/// once it leaves it is freed. A robust scheme may skip a reader that never
/// dereferenced anything, so only the others must show the pin.
pub fn reader_pins_until_leave<S: Smr<u64>>(tweak: Tweak) {
    let domain = &S::with_config(tweak(config()));
    let pinned = with_parked_reader(
        domain,
        |_| {},
        || {
            let mut writer = domain.handle();
            churn(&mut writer, 0..64); // several full batches
            writer.flush();
            domain.stats().unreclaimed()
        },
    );
    assert!(S::robust() || pinned > 0, "{}: nothing pinned", S::name());
    assert_all_freed(domain);
}

/// A node protected before it is unlinked and retired stays readable until
/// the reader leaves: the writer's flush must not free it.
pub fn protected_until_leave<S: Smr<u64>>(tweak: Tweak) {
    let domain = &S::with_config(tweak(config()));
    let (published, protected, release) = (&Barrier::new(2), &Barrier::new(2), &Barrier::new(2));
    let link = &Atomic::<u64>::null();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = domain.handle();
            reader.enter();
            published.wait();
            let seen = reader.protect(0, link);
            assert!(!seen.is_null());
            protected.wait();
            release.wait();
            // SAFETY: protected since before the writer unlinked it, inside
            // the still-open operation.
            assert_eq!(unsafe { *seen.deref() }, 42);
            reader.leave();
        });
        let mut writer = domain.handle();
        writer.enter();
        link.store(writer.alloc(42), Ordering::Release);
        published.wait();
        protected.wait();
        let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
        // SAFETY: the swap unlinked the node from the only shared link.
        unsafe { writer.retire(unlinked) };
        writer.leave();
        writer.flush(); // must not free the protected node
        let pinned = domain.stats().unreclaimed();
        release.wait();
        assert!(pinned >= 1, "{}: the protected node was freed", S::name());
    });
    assert_all_freed(domain);
}

/// A writer keeps replacing a published node while a reader dereferences
/// whatever `protect` returns; a premature free shows up as a wrong value.
pub fn protect_races_unlink<S: Smr<u64>>(tweak: Tweak) {
    let domain = &S::with_config(tweak(config()));
    let link = &Atomic::<u64>::null();
    let stop = &AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut w = domain.handle();
            for i in 0..5_000u64 {
                w.enter();
                let old = link.swap(w.alloc(i), Ordering::AcqRel);
                if !old.is_null() {
                    // SAFETY: the swap unlinked `old`; retired once.
                    unsafe { w.retire(old) };
                }
                w.leave();
            }
            stop.store(true, Ordering::Release);
        });
        s.spawn(move || {
            let mut r = domain.handle();
            while !stop.load(Ordering::Acquire) {
                r.enter();
                let p = r.protect(0, link);
                if !p.is_null() {
                    // SAFETY: `protect` returned `p` inside the operation.
                    assert!(unsafe { *p.deref() } < 5_000, "{}", S::name());
                }
                r.leave();
            }
        });
    });
    let mut h = domain.handle();
    retire_all(&mut h, [link.swap(Shared::null(), Ordering::AcqRel)]);
    drop(h);
    assert_all_freed(domain);
}

const STALL_CHURN: u64 = 20_000;

/// Reader safety under a deterministic stall, and Theorem 4 both ways. A
/// reader protects a published node and parks inside its operation; the
/// writer unlinks and retires it, then churns. The parked reader's node
/// must still pass its canary check when it wakes; meanwhile a robust
/// scheme must have reclaimed nearly all of the churn and a non-robust one
/// must have pinned nearly all of it.
pub fn protected_survives_stall<S: Smr<Canary>>(tweak: Tweak) {
    let domain = &S::with_config(tweak(SmrConfig {
        slots: 2,
        era_freq: 8,
        scan_threshold: 16,
        ..config()
    }));
    let link = &Atomic::new(domain.handle().alloc(Canary::new(7)));
    let stall = &StallPoint::new();
    let pinned = std::thread::scope(|s| {
        s.spawn(move || {
            let mut h = domain.handle();
            h.enter();
            let seen = h.protect(0, link);
            // SAFETY: published before this thread started and protected
            // inside the open operation.
            unsafe { seen.deref() }.check().expect("pre-stall canary");
            stall.stall();
            // SAFETY: still protected: the stall does not end the operation.
            unsafe { seen.deref() }
                .check()
                .expect("post-stall canary: the protected node was reclaimed");
            h.leave();
        });
        stall.wait_until_stalled();
        let _release = Release(stall);
        let mut h = domain.handle();
        retire_all(&mut h, [link.swap(Shared::null(), Ordering::AcqRel)]);
        for i in 0..STALL_CHURN {
            let node = h.alloc(Canary::new(i));
            retire_all(&mut h, [node]);
        }
        h.flush();
        domain.stats().unreclaimed()
    });
    assert_robustness::<S, _>(pinned, STALL_CHURN);
    assert_all_freed(domain);
}

/// The two sides of Theorem 4 for `pinned` of `churned` retired nodes: a
/// robust scheme keeps under 1 % of them (every row pins at most 15 here),
/// a non-robust one over 90 % (every row pins them all).
fn assert_robustness<S: Smr<T>, T: Send + 'static>(pinned: u64, churned: u64) {
    if S::robust() {
        assert!(
            pinned < churned / 100,
            "{}: robust, yet a stalled reader pinned {pinned} of {churned}",
            S::name()
        );
    } else {
        assert!(
            pinned > churned / 10 * 9,
            "{}: not robust, yet a stalled reader pinned only {pinned} of {churned}",
            S::name()
        );
    }
}

const MAP_CHURN: u64 = 30_000;

/// Churns `churn` insert/remove pairs through a hash map beside a reader
/// parked inside an operation after four lookups; returns what is pinned
/// when the churn ends.
fn pinned_by_map_stall<S: Smr<ListNode<u64, u64>>>(config: SmrConfig, churn: u64) -> u64 {
    let map: MichaelHashMap<u64, u64, S> = MichaelHashMap::with_config_and_buckets(config, 256);
    let map = &map;
    let park = |h: &mut _| {
        for k in 0..4 {
            map.get(h, &k);
        }
    };
    with_parked_reader(map.domain(), park, || {
        let mut h = map.smr_handle();
        for i in 0..churn {
            h.enter();
            map.insert(&mut h, i % 512, i);
            h.leave();
            h.enter();
            map.remove(&mut h, &(i % 512));
            h.leave();
        }
        h.flush();
        map.domain().stats().unreclaimed()
    })
}

/// [`robustness`] on a scheme Table 1 marks robust.
pub fn robust_bounds_pinning<S: Smr<ListNode<u64, u64>>>(tweak: Tweak) {
    assert!(S::robust(), "{}: Table 1 marks it robust", S::name());
    robustness::<S>(tweak);
}

/// [`robustness`] on a scheme Table 1 marks not robust.
pub fn non_robust_pins_churn<S: Smr<ListNode<u64, u64>>>(tweak: Tweak) {
    assert!(!S::robust(), "{}: Table 1 marks it not robust", S::name());
    robustness::<S>(tweak);
}

/// Theorem 4 through a structure: a reader parked inside a map operation
/// pins a bounded number of nodes under a robust scheme, and that number
/// does not grow with the churn; a non-robust scheme pins nearly all of it.
pub fn robustness<S: Smr<ListNode<u64, u64>>>(tweak: Tweak) {
    let config = tweak(SmrConfig {
        batch_min: 8,
        era_freq: 16,
        scan_threshold: 32,
        ack_threshold: 128,
        ..config()
    });
    let pinned = pinned_by_map_stall::<S>(config.clone(), MAP_CHURN);
    assert_robustness::<S, _>(pinned, MAP_CHURN);
    if S::robust() {
        let early = pinned_by_map_stall::<S>(config, MAP_CHURN / 8);
        assert!(
            pinned < early.max(64) * 4,
            "{}: pinning grew with the churn: {early} -> {pinned}",
            S::name()
        );
    }
}

/// Dropping a handle that is still inside an operation releases its
/// reservation and everything it retired.
pub fn drop_while_active<S: Smr<Canary>>(tweak: Tweak) {
    let domain = S::with_config(tweak(config()));
    let mut h = domain.handle();
    h.enter();
    for i in 0..16 {
        let node = h.alloc(Canary::new(i));
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    drop(h); // no leave, no flush
    assert_all_freed(&domain);
}

/// `flush` inside an operation finalizes buffered retirement without
/// ending the operation, which goes on.
pub fn flush_mid_operation<S: Smr<Canary>>(tweak: Tweak) {
    let domain = S::with_config(tweak(config()));
    let mut h = domain.handle();
    h.enter();
    let keep = h.alloc(Canary::new(99));
    for i in 0..8 {
        let node = h.alloc(Canary::new(i));
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    h.flush();
    // SAFETY: `keep` is not retired yet, so it is live.
    unsafe { keep.deref() }
        .check()
        .expect("mid-operation canary");
    // SAFETY: `keep` was never published and is retired once.
    unsafe { h.retire(keep) };
    h.leave();
    drop(h);
    assert_all_freed(&domain);
}

/// Two domains of one scheme are independent: retiring through one never
/// reclaims, or counts, nodes of the other.
pub fn domains_are_independent<S: Smr<Canary>>(tweak: Tweak) {
    let (a, b) = (
        S::with_config(tweak(config())),
        S::with_config(tweak(config())),
    );
    let (mut ha, mut hb) = (a.handle(), b.handle());
    hb.enter();
    let node_b = hb.alloc(Canary::new(7));
    let nodes: Vec<_> = (0..32).map(|i| ha.alloc(Canary::new(i))).collect();
    retire_all(&mut ha, nodes);
    ha.flush();
    // SAFETY: `node_b` is not retired yet, so it is live.
    unsafe { node_b.deref() }
        .check()
        .expect("foreign-domain canary");
    assert_eq!(b.stats().retired(), 0, "{}: cross-domain retire", S::name());
    // SAFETY: `node_b` was never published and is retired once.
    unsafe { hb.retire(node_b) };
    hb.leave();
    drop((ha, hb));
    assert_all_freed(&a);
    assert_all_freed(&b);
}

/// Transparency (§2.4): short-lived handles, each dropped with retired
/// nodes in flight, beside long-lived readers, leave nothing stranded.
pub fn handle_churn<S: Smr<ListNode<u64, u64>>>(tweak: Tweak) {
    let map: MichaelHashMap<u64, u64, S> =
        MichaelHashMap::with_config_and_buckets(tweak(config()), 64);
    let (map, sessions_left) = (&map, &std::sync::atomic::AtomicU64::new(2));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(move || {
                let mut h = map.smr_handle();
                while sessions_left.load(Ordering::Acquire) > 0 {
                    h.enter();
                    map.get(&mut h, &7);
                    h.leave();
                }
            });
            s.spawn(move || {
                for round in 0..150u64 {
                    let mut h = map.smr_handle();
                    for key in (round * 20..round * 20 + 20).map(|i| i % 256) {
                        h.enter();
                        map.insert(&mut h, key, key);
                        h.leave();
                        h.enter();
                        map.remove(&mut h, &key);
                        h.leave();
                    }
                }
                sessions_left.fetch_sub(1, Ordering::Release);
            });
        }
    });
    map.smr_handle().flush();
    assert_eq!(
        map.domain().stats().unreclaimed(),
        0,
        "{}: dropped handles stranded retired nodes",
        S::name()
    );
}

/// Far more handle lifetimes than `max_threads`, few alive at once: slots
/// and registry entries are reused.
pub fn handle_lifetimes_outlive_capacity<S: Smr<StackNode<u64>>>(tweak: Tweak) {
    let stack: TreiberStack<u64, S> = TreiberStack::with_config(tweak(SmrConfig {
        max_threads: 4,
        ..config()
    }));
    for round in 0..1_000u64 {
        let mut h = stack.smr_handle();
        h.enter();
        stack.push(&mut h, round);
        assert_eq!(stack.pop(&mut h), Some(round), "{}", S::name());
        h.leave();
    }
    assert_all_freed(stack.domain());
}

const SMOKE_THREADS: u64 = 4;
const SMOKE_OPS: u64 = 500;

/// Four threads alternate private churn with publishing through one shared
/// link, so nodes allocated by one thread are retired by another; the last
/// occupant is retired at teardown. Returns the registry once the domain is
/// gone.
fn shared_link_churn<S: Smr<Tracked<u64>>>(config: SmrConfig) -> DropRegistry {
    let registry = DropRegistry::new();
    {
        let (domain, link) = (&S::with_config(config), &Atomic::null());
        let registry = &registry;
        std::thread::scope(|s| {
            for t in 0..SMOKE_THREADS {
                s.spawn(move || {
                    let mut h = domain.handle();
                    for i in 0..SMOKE_OPS {
                        h.enter();
                        let node = h.alloc(registry.track(t * SMOKE_OPS + i));
                        let retired = if i % 2 == 0 {
                            link.swap(node, Ordering::AcqRel)
                        } else {
                            node
                        };
                        if !retired.is_null() {
                            // SAFETY: unpublished, or just swapped out of
                            // the only shared link: retired once.
                            unsafe { h.retire(retired) };
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
        let mut h = domain.handle();
        retire_all(&mut h, [link.swap(Shared::null(), Ordering::AcqRel)]);
        h.flush();
        assert!(
            domain.stats().allocated() >= SMOKE_THREADS * SMOKE_OPS,
            "{}",
            S::name()
        );
    }
    assert_eq!(registry.created(), SMOKE_THREADS * SMOKE_OPS);
    registry
}

/// The shared-link churn: every payload drops exactly once.
pub fn smoke<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    shared_link_churn::<S>(tweak(config())).assert_quiescent();
}

/// [`config`] with recycling on and a small pool and magazine, so a churn
/// exercises spills, refills and the capacity-overflow fallback.
pub fn recycled_config() -> SmrConfig {
    SmrConfig {
        recycle: true,
        recycle_capacity: 256,
        recycle_magazine: 8,
        ..config()
    }
}

/// [`smoke`] over [`recycled_config`]: reused memory must not change
/// payload semantics.
pub fn smoke_recycled<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    shared_link_churn::<S>(tweak(recycled_config())).assert_quiescent();
}

/// A map over tracked payloads, so that one churn checks drop balance and,
/// through [`TokenMint`] values, provenance.
pub trait TrackedMap<S: Smr<Self::Node>>: Sync + Sized {
    /// The structure's node type.
    type Node: Send + 'static;
    /// A map on a fresh domain.
    fn with_config(config: SmrConfig) -> Self;
    /// A handle to the map's domain.
    fn smr_handle(&self) -> S::Handle<'_>;
    /// Looks `key` up.
    fn get<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<Tracked<u64>>;
    /// Inserts `key` unless present.
    fn insert<'a>(&'a self, h: &mut S::Handle<'a>, key: u64, value: Tracked<u64>) -> bool;
    /// Removes `key`.
    fn remove<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<Tracked<u64>>;
}

macro_rules! tracked_map {
    ($($map:ident over $node:ident = $new:path $(, $arg:literal)?;)+) => {$(
        impl<S: Smr<$node<u64, Tracked<u64>>>> TrackedMap<S> for $map<u64, Tracked<u64>, S> {
            type Node = $node<u64, Tracked<u64>>;
            fn with_config(config: SmrConfig) -> Self {
                $new(config $(, $arg)?)
            }
            fn smr_handle(&self) -> S::Handle<'_> {
                $map::smr_handle(self)
            }
            fn get<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<Tracked<u64>> {
                $map::get(self, h, &key)
            }
            fn insert<'a>(&'a self, h: &mut S::Handle<'a>, key: u64, value: Tracked<u64>) -> bool {
                $map::insert(self, h, key, value)
            }
            fn remove<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<Tracked<u64>> {
                $map::remove(self, h, &key)
            }
        }
    )+};
}

tracked_map! {
    HarrisMichaelList over ListNode = HarrisMichaelList::with_config;
    // Eight buckets: long chains, so removals race on shared buckets.
    MichaelHashMap over ListNode = MichaelHashMap::with_config_and_buckets, 8;
    NatarajanMittalTree over NmNode = NatarajanMittalTree::with_config;
    BonsaiTree over BonsaiNode = BonsaiTree::with_config;
}

/// Four threads run random gets, inserts and removes over 64 keys on two
/// slots, so handles share slots while they read. Every value is a token
/// minted for its key, so a read of freed or reused memory fails
/// validation; every payload is tracked, so once the map is gone each one
/// must have dropped exactly once.
fn map_churn<S: Smr<M::Node>, M: TrackedMap<S>>(tweak: Tweak) {
    let config = tweak(SmrConfig {
        slots: 2,
        ..config()
    });
    let (mint, registry) = (&TokenMint::new(), &DropRegistry::new());
    let check = |op: &str, key: u64, value: Option<Tracked<u64>>| {
        if let Some(token) = value {
            mint.validate(key, *token).unwrap_or_else(|e| {
                panic!("{}: {op}({key}) returned a corrupt value: {e}", S::name())
            });
        }
    };
    {
        let map = &M::with_config(config);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = map.smr_handle();
                    let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for _ in 0..3_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 64;
                        h.enter();
                        match x % 4 {
                            0 | 1 => check("get", key, map.get(&mut h, key)),
                            2 => {
                                map.insert(&mut h, key, registry.track(mint.mint(key)));
                            }
                            _ => check("remove", key, map.remove(&mut h, key)),
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
        let mut h = map.smr_handle();
        for key in 0..64 {
            h.enter();
            check("drain", key, map.remove(&mut h, key));
            h.leave();
        }
    }
    registry.assert_quiescent();
}

/// The tracked-token map churn (see [`TrackedMap`]) over the Harris–Michael list.
pub fn map_list<S: Smr<ListNode<u64, Tracked<u64>>>>(tweak: Tweak) {
    map_churn::<S, HarrisMichaelList<u64, Tracked<u64>, S>>(tweak);
}

/// The tracked-token map churn (see [`TrackedMap`]) over Michael's hash map.
pub fn map_hashmap<S: Smr<ListNode<u64, Tracked<u64>>>>(tweak: Tweak) {
    map_churn::<S, MichaelHashMap<u64, Tracked<u64>, S>>(tweak);
}

/// The tracked-token map churn (see [`TrackedMap`]) over the Natarajan–Mittal tree.
pub fn map_nmtree<S: Smr<NmNode<u64, Tracked<u64>>>>(tweak: Tweak) {
    map_churn::<S, NatarajanMittalTree<u64, Tracked<u64>, S>>(tweak);
}

/// Four threads push and pop tracked payloads: each drops exactly once.
pub fn stack_churn<S: Smr<StackNode<Tracked<u64>>>>(tweak: Tweak) {
    let registry = &DropRegistry::new();
    {
        let stack = &TreiberStack::<Tracked<u64>, S>::with_config(tweak(config()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = stack.smr_handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        if i % 2 == 0 {
                            stack.push(&mut h, registry.track(t * 10_000 + i));
                        } else {
                            stack.pop(&mut h);
                        }
                        h.leave();
                    }
                });
            }
        });
    }
    registry.assert_quiescent();
}

/// Four threads enqueue and dequeue tracked payloads: each drops exactly
/// once.
pub fn queue_churn<S: Smr<QueueNode<Tracked<u64>>>>(tweak: Tweak) {
    let registry = &DropRegistry::new();
    {
        let queue = &MsQueue::<Tracked<u64>, S>::with_config(tweak(config()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = queue.smr_handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        if i % 2 == 0 {
                            queue.enqueue(&mut h, registry.track(t * 10_000 + i));
                        } else {
                            queue.dequeue(&mut h);
                        }
                        h.leave();
                    }
                });
            }
        });
    }
    registry.assert_quiescent();
}

// ---------------------------------------------------------------------------
// `snapshots`: schemes that let a Bonsai traversal read a whole snapshot.
// ---------------------------------------------------------------------------

/// The tracked-token map churn (see [`TrackedMap`]) over the Bonsai tree.
pub fn map_bonsai<S: Smr<BonsaiNode<u64, Tracked<u64>>>>(tweak: Tweak) {
    map_churn::<S, BonsaiTree<u64, Tracked<u64>, S>>(tweak);
}

// ---------------------------------------------------------------------------
// `shared`: any number of handles share the fixed slots.
// ---------------------------------------------------------------------------

/// Sixteen live handles, then twelve threads, on two slots: the situation
/// that exhausts a registry.
pub fn more_handles_than_slots<S: Smr<ListNode<u64, u64>>>(tweak: Tweak) {
    let map: MichaelHashMap<u64, u64, S> = MichaelHashMap::with_config_and_buckets(
        tweak(SmrConfig {
            slots: 2,
            ..config()
        }),
        64,
    );
    let map = &map;
    let mut handles: Vec<_> = (0..16).map(|_| map.smr_handle()).collect();
    for (key, h) in (0..).zip(&mut handles) {
        h.enter();
        map.insert(h, key, key);
        h.leave();
    }
    drop(handles);
    std::thread::scope(|s| {
        for t in 0..12u64 {
            s.spawn(move || {
                let mut h = map.smr_handle();
                for key in (t * 500..t * 500 + 500).map(|i| i % 128) {
                    h.enter();
                    map.insert(&mut h, key, key);
                    h.leave();
                    h.enter();
                    map.remove(&mut h, &key);
                    h.leave();
                }
            });
        }
    });
    assert_eq!(map.domain().stats().unreclaimed(), 0, "{}", S::name());
}

// ---------------------------------------------------------------------------
// `registry`: each live handle holds one of `max_threads` entries.
// ---------------------------------------------------------------------------

/// A full registry refuses the next handle by panicking rather than
/// corrupting state, and a dropped handle's entry is reusable.
pub fn registry_exhaustion_panics<S: Smr<u64>>(tweak: Tweak) {
    let domain = S::with_config(tweak(SmrConfig {
        max_threads: 2,
        ..config()
    }));
    let first = domain.handle();
    let _second = domain.handle();
    let third = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(domain.handle())));
    assert!(
        third.is_err(),
        "{}: a third handle must be refused",
        S::name()
    );
    drop(first);
    churn(&mut domain.handle(), 0..8);
}

// ---------------------------------------------------------------------------
// `batch`: the Hyaline batch core.
// ---------------------------------------------------------------------------

/// §3.3 `trim` frees what was retired since `enter` without leaving. Each
/// node is protected before it is retired, so an era variant's slot is
/// fresh enough to be handed every batch.
pub fn trim_reclaims_mid_operation<S: Smr<u64>>(tweak: Tweak) {
    let domain = S::with_config(tweak(SmrConfig {
        slots: 1, // single list: the trimming thread sees every batch
        batch_min: 2,
        max_threads: 4,
        ..config()
    }));
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
        "{}: trim must reclaim batches retired since enter ({before} -> {after})",
        S::name()
    );
    h.leave();
    drop(h);
    assert!(domain.stats().balanced(), "{}", S::name());
}

/// A handle dropped with one node in its local batch finalizes and frees
/// it.
pub fn partial_batch_finalized_on_drop<S: Smr<u64>>(tweak: Tweak) {
    let domain = S::with_config(tweak(config()));
    // One node in the local batch; drop must finalize and insert it. No
    // slot is active by then, so the batch is freed inside the drop.
    churn(&mut domain.handle(), 0..1);
    assert!(domain.stats().balanced(), "{}", S::name());
    assert!(domain.stats().freed() >= 1, "{}", S::name());
}

/// A flushed partial batch of `n` nodes pays one dummy for each entered
/// slot past its own `n - 1` insertion nodes, and none at all with no slot
/// entered. An era scheme also parks one handle whose access era predates
/// the batch: that slot is skipped and costs nothing.
pub fn partial_flush_adds_one_dummy_per_entered_slot<S: Smr<u64>>(tweak: Tweak) {
    for parked in [0usize, 1, 3] {
        for n in [1u64, 2] {
            // Eight slots: every handle below gets its own, round-robin on
            // shared slots, claimed on owned ones.
            let domain = S::with_config(tweak(SmrConfig {
                slots: 8,
                ..config()
            }));
            let link = Atomic::null();
            let mut readers: Vec<_> = (0..parked).map(|_| domain.handle()).collect();
            let mut stale = S::robust().then(|| domain.handle());
            let mut writer = domain.handle();
            for h in readers.iter_mut().chain(stale.iter_mut()) {
                h.enter();
            }
            writer.enter();
            let nodes: Vec<_> = (0..n).map(|v| writer.alloc(v)).collect();
            // Raise the readers' access eras past every birth era above, so
            // the era schemes count their slots as current.
            for h in &mut readers {
                let _ = h.protect(0, &link);
            }
            writer.leave();
            retire_all(&mut writer, nodes);
            writer.flush();
            let dummies = parked.saturating_sub(n as usize - 1) as u64;
            assert_eq!(
                domain.stats().allocated(),
                n + dummies,
                "{}: {parked} entered slots, {n} retired nodes",
                S::name()
            );
            if parked == 0 {
                assert_eq!(domain.stats().unreclaimed(), 0, "{}", S::name());
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
pub fn dummies_are_pool_traffic<S: Smr<u64>>(tweak: Tweak) {
    let domain = &S::with_config(tweak(SmrConfig {
        recycle: true,
        recycle_capacity: 1024,
        recycle_magazine: 8,
        // The era never moves, so the parked handles' one `protect` keeps
        // their slots current for the era schemes.
        era_freq: u64::MAX,
        ..config()
    }));
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
    assert!(stats.allocated() > 4_000, "{}: no dummies", S::name());
    assert_eq!(
        stats.pool_hits() + stats.pool_misses(),
        stats.allocated(),
        "{}: every allocation, dummies included, goes through the pool",
        S::name()
    );
}

/// A full batch retired on one thread is freed on another: the writer
/// retires exactly one batch while a reader sits inside an operation, so
/// the reader's `leave` is the batch's last decrement and frees it. The
/// block naming the batch's nodes crosses threads with it.
pub fn full_batch_freed_on_another_thread<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    let registry = &DropRegistry::new();
    // One shared slot (or one owned slot each), and one era throughout: the
    // whole batch reaches the reader whatever the scheme.
    let config = tweak(SmrConfig {
        slots: 1,
        batch_min: 8,
        era_freq: u64::MAX,
        ..config()
    });
    let batch = config.effective_batch_size() as u64;
    {
        let domain = &S::with_config(config);
        let (entered, retired) = (&Barrier::new(2), &Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut reader = domain.handle();
                reader.enter();
                let _ = reader.protect(0, &Atomic::null());
                entered.wait();
                retired.wait();
                assert_eq!(
                    registry.live(),
                    batch as i64,
                    "{}: the reader pins the batch",
                    S::name()
                );
                reader.leave();
                assert_eq!(
                    registry.live(),
                    0,
                    "{}: the reader's leave freed the batch",
                    S::name()
                );
            });
            let mut writer = domain.handle();
            entered.wait();
            let nodes: Vec<_> = (0..batch)
                .map(|v| writer.alloc(registry.track(v)))
                .collect();
            retire_all(&mut writer, nodes);
            retired.wait();
        });
    }
    registry.assert_quiescent();
    assert_eq!(registry.created(), batch);
}

/// Transparency at its strictest: once every thread's handle is dropped,
/// everything is freed, with no later handle to adopt anything.
pub fn freed_at_handle_drop<S: Smr<ListNode<u64, u64>>>(tweak: Tweak) {
    let map: MichaelHashMap<u64, u64, S> = MichaelHashMap::with_config(tweak(config()));
    let map = &map;
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                let mut h = map.smr_handle();
                for key in (t * 1_500..t * 1_500 + 1_500).map(|i| i % 64) {
                    h.enter();
                    map.insert(&mut h, key, key);
                    h.leave();
                    h.enter();
                    map.remove(&mut h, &key);
                    h.leave();
                }
            });
        }
    });
    assert_eq!(map.domain().stats().unreclaimed(), 0, "{}", S::name());
}

// ---------------------------------------------------------------------------
// `eras`: a batch is cut at a stale reader's access era.
// ---------------------------------------------------------------------------

/// Allocates and frees `config().era_freq` unpublished nodes through `h`,
/// so the era clock advances at least once: whatever `h` allocates next is
/// born after any access era taken before the call. The freed nodes count
/// as deallocated, so the cases that call this check `balanced()`.
fn advance_era<H: SmrHandle<u64>>(h: &mut H) {
    for v in 0..config().era_freq {
        let node = h.alloc(v);
        // SAFETY: `node` was never published; dealloc-in-place is allowed.
        unsafe { h.dealloc(node) };
    }
}

/// Retires `nodes` through `writer` inside one operation and flushes them
/// as one partial batch once it has left, so only the readers' slots are
/// active when the batch is cut and inserted.
fn retire_as_one_batch<H: SmrHandle<u64>>(writer: &mut H, nodes: Vec<Shared<u64>>) {
    retire_all(writer, nodes);
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

/// Every handle gets a slot of its own, and a batch holds everything one
/// case retires until it is flushed.
fn cut_layout(tweak: Tweak) -> SmrConfig {
    tweak(SmrConfig {
        slots: 8,
        batch_min: 64,
        ..config()
    })
}

/// A reader whose access era `E` lies inside a batch's birth range pins
/// only the nodes born at or before `E`. The batch is cut at `E`: the older
/// part enters the reader's slot, with one dummy when it has no node
/// besides its REFS node, and the younger part skips the slot and is freed
/// at the flush. The old and young nodes are retired interleaved, so the
/// batch's first node, its REFS node, is young in one round and old in the
/// other.
pub fn stale_reader_pins_only_older_part<S: Smr<u64>>(tweak: Tweak) {
    for (n_old, young_first) in [(1u64, false), (3, true), (3, false)] {
        let domain = S::with_config(cut_layout(tweak));
        let link = Atomic::null();
        let mut reader = domain.handle();
        let mut writer = domain.handle();
        let old: Vec<_> = (0..n_old).map(|v| writer.alloc(v)).collect();
        reader.enter();
        let _ = reader.protect(0, &link);
        advance_era(&mut writer);
        let young: Vec<_> = (0..8).map(|v| writer.alloc(100 + v)).collect();
        let groups = if young_first {
            vec![young, old]
        } else {
            vec![old, young]
        };
        retire_as_one_batch(&mut writer, interleave(groups));
        let dummies = 2u64.saturating_sub(n_old);
        assert_eq!(
            domain.stats().unreclaimed(),
            n_old + dummies,
            "{}: {n_old} nodes born before the reader's era, young first: {young_first}",
            S::name()
        );
        reader.leave();
        reader.flush();
        assert_eq!(domain.stats().unreclaimed(), 0, "{}", S::name());
        drop((reader, writer));
        assert!(domain.stats().balanced(), "{}", S::name());
    }
}

/// Two readers parked at eras `E1 < E2` cut a batch twice. The nodes born
/// by `E1` enter both slots (two nodes, one insertion node of their own, so
/// one dummy), those born in `(E1, E2]` enter the second reader's slot only
/// (two nodes, no dummy), and the rest are freed at the flush. So the
/// second reader's leave frees its part although the first reader stays
/// parked: one cut at `E2` would have left that part in the first reader's
/// slot too.
pub fn two_stale_readers_cut_at_each_era<S: Smr<u64>>(tweak: Tweak) {
    let domain = S::with_config(cut_layout(tweak));
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
    assert_eq!(
        unreclaimed(),
        (2 + 1) + 2,
        "{}: both parts pinned",
        S::name()
    );
    second.leave();
    second.flush();
    assert_eq!(
        unreclaimed(),
        2 + 1,
        "{}: the middle part is free",
        S::name()
    );
    first.leave();
    first.flush();
    assert_eq!(unreclaimed(), 0, "{}", S::name());
    drop((first, second, writer));
    assert!(domain.stats().balanced(), "{}", S::name());
}

/// A batch is cut only by an access era inside its birth range. A reader
/// parked before every birth is skipped and one that protected after every
/// birth takes the whole batch: ten nodes, one insertion node, no dummy,
/// so nothing but the batch's own nodes is ever retired.
pub fn no_cut_outside_birth_range<S: Smr<u64>>(tweak: Tweak) {
    let domain = S::with_config(cut_layout(tweak));
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
    assert_eq!(stats.retired(), 10, "{}: a dummy means a cut", S::name());
    assert_eq!(
        stats.unreclaimed(),
        10,
        "{}: the fresh reader pins all",
        S::name()
    );
    stale.leave();
    fresh.leave();
    drop((stale, fresh, writer));
    assert!(domain.stats().balanced(), "{}", S::name());
}

/// Each protected node born before a reader parks is retired in a batch of
/// younger nodes, and only it stays (with one dummy: it is its part's REFS
/// node, so the part has no insertion node of its own) while its batchmates
/// are freed around it and their memory is reused by the churn that
/// follows.
pub fn cut_batch_keeps_protected<S: Smr<Canary>>(tweak: Tweak) {
    const OLD: u64 = 8;
    let config = tweak(SmrConfig {
        slots: 2,
        era_freq: 8,
        ..config()
    });
    let (batch, era_freq) = (config.effective_batch_size() as u64, config.era_freq);
    let domain = &S::with_config(config);
    let links = &std::array::from_fn::<_, { OLD as usize }, _>(|_| Atomic::<Canary>::null());
    let mut h = domain.handle();
    h.enter();
    for (i, link) in (0..).zip(links) {
        link.store(h.alloc(Canary::new(i)), Ordering::Release);
    }
    h.leave();
    let churn = |h: &mut S::Handle<'_>, n: u64| {
        for i in 0..n {
            let node = h.alloc(Canary::new(OLD + i));
            // SAFETY: never published; retired once.
            unsafe { h.retire(node) };
        }
    };
    let stall = &StallPoint::new();
    let pinned = std::thread::scope(|s| {
        s.spawn(move || {
            let mut h = domain.handle();
            h.enter();
            let seen: Vec<_> = links.iter().map(|link| h.protect(0, link)).collect();
            stall.stall();
            for (i, node) in (0..).zip(seen) {
                // SAFETY: published before this thread started and protected
                // inside the still-open operation.
                let value = unsafe { node.deref() }.check().expect("post-stall canary");
                assert_eq!(value, i);
            }
            h.leave();
        });
        stall.wait_until_stalled();
        let _release = Release(stall);
        // Move the era clock past the reader's without retiring anything.
        for i in 0..era_freq {
            let node = h.alloc(Canary::new(i));
            // SAFETY: never published; freed in place.
            unsafe { h.dealloc(node) };
        }
        // One protected node in each batch, behind a younger node.
        h.enter();
        for link in links {
            churn(&mut h, 1);
            let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
            // SAFETY: just swapped out of `link`, so no later operation can
            // reach it, and it is retired once.
            unsafe { h.retire(unlinked) };
            churn(&mut h, batch - 2);
        }
        h.leave();
        for _ in 0..STALL_CHURN / batch {
            h.enter();
            churn(&mut h, batch);
            h.leave();
        }
        h.flush();
        domain.stats().unreclaimed()
    });
    assert_eq!(
        pinned,
        2 * OLD,
        "{}: each protected node and its dummy stay",
        S::name()
    );
    drop(h);
    assert!(domain.stats().balanced(), "{}", S::name());
}

/// The map churn again, past a reader parked after the map is filled: the
/// batches that retire fill nodes mix them with younger nodes and are cut,
/// and their parts are freed at different times. Every payload still drops
/// once.
pub fn map_cut_drop_balance<S: Smr<ListNode<u64, Tracked<u64>>>>(tweak: Tweak) {
    const FILL: u64 = 32;
    let registry = DropRegistry::new();
    {
        let map: MichaelHashMap<u64, Tracked<u64>, S> =
            MichaelHashMap::with_config_and_buckets(tweak(config()), 8);
        let mut writer = map.smr_handle();
        for key in 0..FILL {
            writer.enter();
            map.insert(&mut writer, key, registry.track(key));
            writer.leave();
        }
        let mut reader = map.smr_handle();
        reader.enter();
        assert!(map.get(&mut reader, &0).is_some());
        // Insert a key, then remove it: a fill key's insert fails, so its
        // remove retires the fill node.
        for key in (0..4 * FILL).map(|i| (i * 7) % (2 * FILL)) {
            writer.enter();
            map.insert(&mut writer, key, registry.track(key));
            writer.leave();
            writer.enter();
            map.remove(&mut writer, &key);
            writer.leave();
        }
        writer.flush();
        reader.leave();
    }
    registry.assert_quiescent();
}

// ---------------------------------------------------------------------------
// `handoff`: Crystalline's wait-free retire.
// ---------------------------------------------------------------------------

/// [`smoke`] with `handoff_attempts: 0`: every insertion into an active slot
/// goes through the handoff cell, and exact drop balance must survive it.
pub fn smoke_forced_handoff<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    let config = SmrConfig {
        handoff_attempts: 0,
        ..config()
    };
    shared_link_churn::<S>(tweak(config)).assert_quiescent();
}

// ---------------------------------------------------------------------------
// `leaks`: the complement, for a scheme that never frees.
// ---------------------------------------------------------------------------

/// The shared-link churn frees nothing: every payload stays live.
pub fn leaks_everything<S: Smr<Tracked<u64>>>(tweak: Tweak) {
    let registry = shared_link_churn::<S>(tweak(config()));
    assert_eq!(
        registry.dropped(),
        0,
        "{} must never drop a payload",
        S::name()
    );
}

/// Removed map nodes are retired and never freed, and the registry sees
/// them live after teardown; the still-linked ones drop with the map.
pub fn map_leaks_removed<S: Smr<ListNode<u64, Tracked<u64>>>>(tweak: Tweak) {
    let registry = DropRegistry::new();
    {
        let map: MichaelHashMap<u64, Tracked<u64>, S> =
            MichaelHashMap::with_config_and_buckets(tweak(config()), 4);
        let mut h = map.smr_handle();
        for key in 0..64 {
            h.enter();
            map.insert(&mut h, key, registry.track(key));
            h.leave();
        }
        for key in 0..32 {
            h.enter();
            assert!(map.remove(&mut h, &key).is_some());
            h.leave();
        }
    }
    assert_eq!(
        registry.live(),
        32,
        "{}: exactly the removed payloads leak",
        S::name()
    );
}

/// A handle dropped inside an operation is harmless, and frees nothing.
pub fn drop_while_active_leaks<S: Smr<Canary>>(tweak: Tweak) {
    let domain = S::with_config(tweak(config()));
    let mut h = domain.handle();
    h.enter();
    let node = h.alloc(Canary::new(1));
    // SAFETY: `node` was never published and is retired once.
    unsafe { h.retire(node) };
    drop(h);
    assert_eq!(domain.stats().retired(), 1, "{}", S::name());
    assert_eq!(domain.stats().freed(), 0, "{} must not reclaim", S::name());
}

/// Enrolls one scheme: stamps a test module named `$module` holding one
/// `#[test]` per case the scheme must pass, each run under the watchdog.
/// See the [module docs](mod@crate::conformance) for the tags.
#[macro_export]
macro_rules! conformance {
    ($module:ident: $scheme:ident = $name:literal, leaks $(, $field:ident: $value:expr)* $(,)?) => {
        $crate::conformance!(@module $module: $scheme = $name, [] $(, $field: $value)*;
            robustness leaks_everything map_leaks_removed drop_while_active_leaks);
    };
    ($module:ident: $scheme:ident = $name:literal, [$($tag:ident),*] $(, $field:ident: $value:expr)* $(,)?) => {
        $crate::conformance!(@module $module: $scheme = $name, [$($tag),*] $(, $field: $value)*;
            single_thread stress dealloc_unpublished_node payload_drops_exactly_once
            flush_every_operation_stress check_in_keeps_magazine_warm
            recycling_reuses_memory_and_stays_balanced reader_pins_until_leave
            protected_until_leave protect_races_unlink protected_survives_stall robustness
            drop_while_active flush_mid_operation domains_are_independent handle_churn
            handle_lifetimes_outlive_capacity smoke smoke_recycled map_list map_hashmap
            map_nmtree stack_churn queue_churn);
    };
    (@module $module:ident: $scheme:ident = $name:literal, [$($tag:ident),*] $(, $field:ident: $value:expr)*;
        $($case:ident)*) => {
        mod $module {
            use super::*;

            fn tweak(config: $crate::conformance::SmrConfig) -> $crate::conformance::SmrConfig {
                $crate::conformance::SmrConfig { $($field: $value,)* ..config }
            }

            #[test]
            fn capability_flags() {
                $crate::conformance::capability_flags::<$scheme<u64>>($name, &[$(stringify!($tag)),*]);
            }

            $crate::conformance!(@cases $scheme; $($case)*);
            $($crate::conformance!(@tag $tag $scheme);)*
        }
    };
    (@tag batch $scheme:ident) => {
        $crate::conformance!(@cases $scheme; trim_reclaims_mid_operation
            partial_batch_finalized_on_drop partial_flush_adds_one_dummy_per_entered_slot
            dummies_are_pool_traffic full_batch_freed_on_another_thread freed_at_handle_drop);
    };
    (@tag eras $scheme:ident) => {
        $crate::conformance!(@cases $scheme; stale_reader_pins_only_older_part
            two_stale_readers_cut_at_each_era no_cut_outside_birth_range
            cut_batch_keeps_protected map_cut_drop_balance);
    };
    (@tag handoff $scheme:ident) => {
        $crate::conformance!(@cases $scheme; smoke_forced_handoff);
    };
    (@tag robust $scheme:ident) => {};
    (@tag seek $scheme:ident) => {};
    (@tag shared $scheme:ident) => {
        $crate::conformance!(@cases $scheme; more_handles_than_slots);
    };
    (@tag registry $scheme:ident) => {
        $crate::conformance!(@cases $scheme; registry_exhaustion_panics);
    };
    (@tag snapshots $scheme:ident) => {
        $crate::conformance!(@cases $scheme; map_bonsai);
    };
    (@cases $scheme:ident; $($case:ident)*) => {$(
        #[test]
        fn $case() {
            $crate::watchdog::run(
                concat!(module_path!(), "::", stringify!($case)),
                $crate::conformance::DEADLINE,
                || $crate::conformance::$case::<$scheme<_>>(tweak),
            );
        }
    )*};
}

/// Keeps test ids that predate [`conformance!`](crate::conformance!): the
/// workspace's test ids are a tracked floor, so `leak_matrix`'s
/// `hashmap_hyaline` or a scheme's `tests::multithreaded_stress` stay. Each
/// entry names a case once, then the ids that run it, each as `id =` the
/// schemes it runs on in turn (joined by `&`, each with its row's config
/// overrides in braces); every id is one `#[test]` under the watchdog:
///
/// ```text
/// conformance_case! {
///     map_hashmap: hashmap_hyaline = Hyaline, hashmap_hp = Hp;
///     robustness: robust_schemes_bound_stalled_pinning = Hp & HyalineS { adaptive: true };
/// }
/// ```
#[macro_export]
macro_rules! conformance_case {
    ($($case:ident: $($id:ident = $($scheme:ident $({ $($field:ident: $value:expr),* })?)&+),+;)*) => {$($(
        #[test]
        fn $id() {
            $($crate::conformance_case!(@run $id $case $scheme $($($field: $value),*)?);)+
        }
    )+)*};
    (@run $id:ident $case:ident $scheme:ident $($field:ident: $value:expr),*) => {{
        fn tweak(config: $crate::conformance::SmrConfig) -> $crate::conformance::SmrConfig {
            $crate::conformance::SmrConfig { $($field: $value,)* ..config }
        }
        $crate::watchdog::run(
            concat!(module_path!(), "::", stringify!($id)),
            $crate::conformance::DEADLINE,
            || $crate::conformance::$case::<$scheme<_>>(tweak),
        );
    }};
}
