//! The four workloads. A trial builds a fresh structure, prefills and warms
//! it up, opens a timed window in which two clients issue requests in a
//! closed loop with no think time, then checks the outputs.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use hyaline::{Hyaline, HyalineS};
use lockfree_ds::{ConcurrentMap, ListNode, MichaelHashMap, NatarajanMittalTree, NmNode};
use smr_async::{block_on, scope, yield_now, ReclaimRouter, ReclaimStats, TaskGuard};
use smr_core::{HandlePool, Sharded, Smr, SmrConfig, SmrHandle};

use crate::hist::Histogram;
use crate::ops::{shuffled_keys, value_of, KeyDist, Mix, Op, OpStream, KEY_RANGE, PREFILL};
use crate::recorder::{now_ns, Recorder, RUN, STOP, TRACE, WARM};
use crate::spans::Span;

/// Clients per workload: the host this was sized on has two cores.
pub const CLIENTS: usize = 2;

pub const WORKLOADS: [&str; 4] = [
    "hashmap-write",
    "nmtree-read",
    "hashmap-stalled",
    "kv-service",
];

const WRITE_MIX: Mix = Mix {
    get_pct: 0,
    insert_pct: 50,
};
const READ_MIX: Mix = Mix {
    get_pct: 90,
    insert_pct: 5,
};
const KV_MIX: Mix = Mix {
    get_pct: 70,
    insert_pct: 20,
};

// The `kv-service` shape (ISSUE 16): many more connections than handles.
const KV_CONNECTIONS: usize = 256;
const KV_BURST: u64 = 16;
const KV_POOL_CAPACITY: usize = 4;
const KV_RECLAIMERS: usize = 2;
const KV_QUEUE_CAPACITY: usize = 64;

pub struct TrialParams {
    /// The run's seed and the trial's round: they reach the key shuffle and
    /// the op streams only, as the trial seed `seed + round`.
    pub seed: u64,
    pub round: u64,
    /// Length of the timed window.
    pub secs: f64,
    /// Operations run through the real path before the window opens.
    pub warmup_ops: u64,
    /// Alternate the window between tracing on and off in 50 ms slices.
    pub trace: bool,
}

/// Operations checked and what they did to the key set.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
    inserted: u64,
    removed: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.inserted += other.inserted;
        self.removed += other.removed;
    }
}

pub struct TrialOut {
    /// Construction, prefill, handle and pool creation, spawning and the
    /// warm-up, up to the moment the window opens.
    pub setup_s: f64,
    /// Window time and operations completed under `RUN` and `TRACE`.
    pub secs: [f64; 2],
    pub ops: [u64; 2],
    pub latency: Histogram,
    pub unreclaimed: Histogram,
    pub attempted: u64,
    pub failed: u64,
    /// Checks that did not hold after the window.
    pub errors: Vec<String>,
    /// `SmrStats` deltas over the window.
    pub retired: u64,
    pub freed: u64,
    /// One buffer per client.
    pub spans: Vec<Vec<Span>>,
    /// `kv-service` only: what the reclaimer tasks did, and how many
    /// requests the trial served in all.
    pub reclaim: Option<(ReclaimStats, u64)>,
}

impl TrialOut {
    /// What the main thread knows when the window closes; the clients'
    /// recordings and the output checks are added afterwards.
    fn new(setup_s: f64, secs: [f64; 2], retired: u64, freed: u64) -> Self {
        TrialOut {
            setup_s,
            secs,
            ops: [0; 2],
            latency: Histogram::new(),
            unreclaimed: Histogram::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            retired,
            freed,
            spans: Vec::new(),
            reclaim: None,
        }
    }

    fn absorb(&mut self, rec: Recorder) {
        self.latency.merge(&rec.latency);
        self.unreclaimed.merge(&rec.unreclaimed);
        self.ops[0] += rec.window_ops[0];
        self.ops[1] += rec.window_ops[1];
        self.spans.push(rec.spans);
    }

    pub fn mops(&self, phase: u8) -> f64 {
        let i = usize::from(phase - RUN);
        self.ops[i] as f64 / self.secs[i] / 1e6
    }
}

/// A clock read that only traced requests pay for.
#[inline]
fn stamp_if(traced: bool, epoch: Instant) -> u64 {
    if traced {
        now_ns(epoch)
    } else {
        0
    }
}

/// One map operation with its output check.
#[inline]
fn apply<'a, S, M>(map: &'a M, h: &mut S::Handle<'a>, op: Op, key: u64, tally: &mut Tally)
where
    M: ConcurrentMap<S>,
    S: Smr<M::Node>,
{
    tally.attempted += 1;
    let wrong = |found: Option<u64>| u64::from(found.is_some_and(|v| v != value_of(key)));
    match op {
        Op::Get => tally.failed += wrong(map.map_get(h, key)),
        Op::Insert => tally.inserted += u64::from(map.map_insert(h, key, value_of(key))),
        Op::Remove => {
            let found = map.map_remove(h, key);
            tally.failed += wrong(found);
            tally.removed += u64::from(found.is_some());
        }
    }
}

fn prefill<S, M>(map: &M, seed: u64, tally: &mut Tally)
where
    M: ConcurrentMap<S>,
    S: Smr<M::Node>,
{
    let mut h = map.handle();
    for &key in &shuffled_keys(seed)[..PREFILL] {
        h.enter();
        tally.attempted += 1;
        tally.failed += u64::from(!map.map_insert(&mut h, key, value_of(key)));
        h.leave();
    }
    h.flush();
}

/// Holds the window open for `secs`, alternating `TRACE` and `RUN` slices
/// when tracing, and returns the time spent under each. The main thread
/// only sleeps here.
fn hold_window(ctl: &AtomicU8, secs: f64, trace: bool) -> [f64; 2] {
    let mut spent = [0.0; 2];
    let mut phase = if trace { TRACE } else { RUN };
    let slice = if trace { 0.05 } else { secs };
    let mut left = secs;
    while left > 0.0 {
        ctl.store(phase, Ordering::Relaxed);
        let started = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(slice.min(left)));
        let took = started.elapsed().as_secs_f64();
        spent[usize::from(phase - RUN)] += took;
        left -= took;
        if trace {
            phase = if phase == TRACE { RUN } else { TRACE };
        }
    }
    spent
}

/// The checks every trial ends with: the key set matches the successful
/// inserts and removes, and nothing stays unreclaimed once every handle is
/// gone. The caller must have dropped every other handle.
fn verify<S, M>(map: &M, tally: &mut Tally, reclaims: bool) -> Vec<String>
where
    M: ConcurrentMap<S>,
    S: Smr<M::Node>,
{
    let mut errors = Vec::new();
    let mut present = 0;
    {
        let mut h = map.handle();
        let before = tally.failed;
        for key in 0..KEY_RANGE {
            h.enter();
            tally.attempted += 1;
            match map.map_get(&mut h, key) {
                Some(v) if v == value_of(key) => present += 1,
                Some(_) => tally.failed += 1,
                None => {}
            }
            h.leave();
        }
        if tally.failed > before {
            errors.push(format!(
                "{} keys hold another key's value",
                tally.failed - before
            ));
        }
        h.flush();
    }
    let expected = PREFILL as u64 + tally.inserted - tally.removed;
    if present != expected {
        errors.push(format!(
            "sweep found {present} keys, inserts and removes leave {expected}"
        ));
    }
    if reclaims {
        let left = map.stats().unreclaimed();
        if left != 0 {
            errors.push(format!(
                "{left} nodes unreclaimed after every handle was dropped"
            ));
        }
    }
    errors
}

struct ThreadSpec {
    mix: Mix,
    /// One extra thread enters, does four gets and sleeps inside the
    /// operation from before the warm-up until the window closes (paper
    /// Figure 10a).
    stalled_reader: bool,
    /// Whether to require `unreclaimed() == 0` at the end (not for Leaky).
    reclaims: bool,
}

/// A trial of a thread-driven workload: each client is a thread with its
/// own handle, and a request is one `enter`, map operation, `leave`.
fn thread_trial<S, M>(spec: &ThreadSpec, p: &TrialParams) -> TrialOut
where
    M: ConcurrentMap<S>,
    S: Smr<M::Node>,
{
    let epoch = Instant::now();
    let map = M::with_config(SmrConfig::default());
    let mut tally = Tally::default();
    prefill(&map, p.seed.wrapping_add(p.round), &mut tally);

    let ctl = AtomicU8::new(WARM);
    let start = Barrier::new(CLIENTS + 1);
    let reader_in = Barrier::new(2);
    let map = &map;
    let (ctl, start, reader_in) = (&ctl, &start, &reader_in);

    let mut out = std::thread::scope(|s| {
        let reader = spec.stalled_reader.then(|| {
            let reader = s.spawn(move || {
                let mut tally = Tally::default();
                let mut stream =
                    OpStream::new(spec.mix, KeyDist::Uniform, p.seed, p.round, CLIENTS as u64);
                let mut h = map.handle();
                h.enter();
                for _ in 0..4 {
                    let (_, key) = stream.next_op();
                    apply::<S, M>(map, &mut h, Op::Get, key, &mut tally);
                }
                reader_in.wait();
                while ctl.load(Ordering::Relaxed) != STOP {
                    std::thread::park();
                }
                h.leave();
                h.flush();
                tally
            });
            reader_in.wait();
            reader
        });

        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut stream =
                        OpStream::new(spec.mix, KeyDist::Uniform, p.seed, p.round, client as u64);
                    let mut h = map.handle();
                    for _ in 0..p.warmup_ops / CLIENTS as u64 {
                        let (op, key) = stream.next_op();
                        h.enter();
                        apply::<S, M>(map, &mut h, op, key, &mut tally);
                        h.leave();
                    }
                    let mut rec = Recorder::new(client as u32, 1, p.trace);
                    start.wait();
                    rec.start(now_ns(epoch));
                    loop {
                        let phase = ctl.load(Ordering::Relaxed);
                        if phase == STOP {
                            break;
                        }
                        let (op, key) = stream.next_op();
                        let trace_from = rec.trace_start(phase);
                        let traced = trace_from.is_some();
                        let t_enter = stamp_if(traced, epoch);
                        h.enter();
                        let t_op = stamp_if(traced, epoch);
                        apply::<S, M>(map, &mut h, op, key, &mut tally);
                        let t_leave = stamp_if(traced, epoch);
                        h.leave();
                        let done = now_ns(epoch);
                        if let Some(from) = trace_from {
                            rec.push_request(
                                from,
                                done,
                                &[
                                    ("enter", t_enter, t_op),
                                    ("op", t_op, t_leave),
                                    ("leave", t_leave, done),
                                ],
                            );
                        }
                        let since = rec.last_completion();
                        rec.complete(done, phase, 1, since, || {
                            map.domain().unreclaimed_estimate()
                        });
                    }
                    h.flush();
                    (rec, tally)
                })
            })
            .collect();

        ctl.store(if p.trace { TRACE } else { RUN }, Ordering::Relaxed);
        start.wait();
        let setup_s = epoch.elapsed().as_secs_f64();
        let (retired, freed) = (map.stats().retired(), map.stats().freed());
        let secs = hold_window(ctl, p.secs, p.trace);
        let (retired, freed) = (map.stats().retired() - retired, map.stats().freed() - freed);
        ctl.store(STOP, Ordering::Relaxed);

        let mut out = TrialOut::new(setup_s, secs, retired, freed);
        for client in clients {
            let (rec, client_tally) = client.join().expect("client thread panicked");
            tally.add(client_tally);
            out.absorb(rec);
        }
        if let Some(reader) = reader {
            reader.thread().unpark();
            tally.add(reader.join().expect("stalled reader panicked"));
        }
        out
    });

    out.errors = verify(map, &mut tally, spec.reclaims);
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out
}

type KvDomain = Sharded<Hyaline<ListNode<u64, u64>>>;
type KvMap = MichaelHashMap<u64, u64, KvDomain>;

thread_local! {
    /// Which recorder of which `kv-service` trial this thread writes to.
    static WORKER_SLOT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Keeps one worker's recorder off the cache lines of the next one's.
#[repr(align(128))]
struct OwnLines<T>(T);

/// One recorder per executor worker. Tasks find their worker's recorder
/// through a thread-local index handed out on first use; the lock is never
/// contended, since a thread only takes its own.
struct WorkerSlots {
    trial: u64,
    next: AtomicUsize,
    slots: Vec<OwnLines<Mutex<Recorder>>>,
}

impl WorkerSlots {
    fn new(trace: bool) -> Self {
        static TRIALS: AtomicU64 = AtomicU64::new(0);
        WorkerSlots {
            trial: TRIALS.fetch_add(1, Ordering::Relaxed) + 1,
            next: AtomicUsize::new(0),
            // The scope's owner thread may poll tasks too while it drains.
            slots: (0..=CLIENTS)
                .map(|i| OwnLines(Mutex::new(Recorder::new(i as u32, KV_BURST, trace))))
                .collect(),
        }
    }

    fn mine(&self) -> std::sync::MutexGuard<'_, Recorder> {
        let (trial, slot) = WORKER_SLOT.get();
        let slot = if trial == self.trial {
            slot
        } else {
            let slot = self.next.fetch_add(1, Ordering::Relaxed);
            WORKER_SLOT.set((self.trial, slot));
            slot
        };
        self.slots[slot]
            .0
            .lock()
            .expect("a recorder lock is only held by its own thread")
    }
}

/// A trial of `kv-service`: `smr_async::run_kv_service`'s connection loop
/// rebuilt from the same public pieces, so that it can stop on a flag and
/// put spans around each layer call. A request is one burst from guard
/// acquisition to check-in, and its latency is what the connection sees:
/// the time since its previous request completed, the wait behind the
/// other connections included. Spans are per executor worker.
fn kv_trial(p: &TrialParams) -> TrialOut {
    let epoch = Instant::now();
    let map = KvMap::with_config(SmrConfig {
        slots: 8,
        shards: 2,
        ..SmrConfig::default()
    });
    let mut tally = Tally::default();
    prefill(&map, p.seed.wrapping_add(p.round), &mut tally);
    let pool = HandlePool::new(map.domain(), KV_POOL_CAPACITY);
    let router = ReclaimRouter::new(KV_RECLAIMERS, KV_QUEUE_CAPACITY);
    let gate = router.shutdown_gate(KV_CONNECTIONS);

    let ctl = AtomicU8::new(WARM);
    let warmed = AtomicUsize::new(0);
    let warm_requests = p.warmup_ops.div_ceil(KV_BURST * KV_CONNECTIONS as u64);
    let slots = WorkerSlots::new(p.trace);
    let tallies = Mutex::new(Tally::default());
    let main_thread = std::thread::current();

    let (mut out, reclaim) = scope(CLIENTS, |sp| {
        let reclaimed: Vec<_> = (0..router.shards())
            .map(|shard| {
                let (tx, rx) = smr_async::sync::oneshot();
                let (router, pool) = (&router, &pool);
                sp.spawn(async move { tx.send(router.run_shard(shard, pool).await) });
                rx
            })
            .collect();
        for conn in 0..KV_CONNECTIONS {
            let (map, pool, router, gate) = (&map, &pool, &router, &gate);
            let (ctl, warmed, slots, tallies, main_thread) =
                (&ctl, &warmed, &slots, &tallies, &main_thread);
            sp.spawn(async move {
                // Closes the reclaimer queues when the last connection ends.
                let _departure = gate.departure();
                let mut tally = Tally::default();
                let mut stream =
                    OpStream::new(KV_MIX, KeyDist::MinOfTwo, p.seed, p.round, conn as u64);
                let mut warm_left = warm_requests;
                // This connection's previous completion, if inside the window.
                let mut since = None;
                loop {
                    let phase = ctl.load(Ordering::Relaxed);
                    if phase == STOP {
                        break;
                    }
                    let trace_from = if phase == TRACE {
                        slots.mine().trace_start(phase)
                    } else {
                        None
                    };
                    let traced = trace_from.is_some();
                    let t_resume = stamp_if(traced, epoch);
                    let mut guard = TaskGuard::acquire_deferred(pool, router.queue(conn)).await;
                    let t_burst = stamp_if(traced, epoch);
                    for _ in 0..KV_BURST {
                        let (op, key) = stream.next_op();
                        guard.enter();
                        apply::<KvDomain, KvMap>(map, &mut guard, op, key, &mut tally);
                        guard.leave();
                    }
                    let t_checkin = stamp_if(traced, epoch);
                    drop(guard); // parks the handle dirty and tickets a reclaimer
                    let done = now_ns(epoch);
                    {
                        let mut rec = slots.mine();
                        if let Some(from) = trace_from {
                            rec.push_request(
                                from,
                                done,
                                &[
                                    ("yield", from, t_resume),
                                    ("checkout", t_resume, t_burst),
                                    ("burst", t_burst, t_checkin),
                                    ("checkin", t_checkin, done),
                                ],
                            );
                        }
                        rec.complete(done, phase, KV_BURST, since, || {
                            map.domain().unreclaimed_estimate()
                        });
                    }
                    since = (phase != WARM).then_some(done);
                    if warm_left > 0 {
                        warm_left -= 1;
                        if warm_left == 0
                            && warmed.fetch_add(1, Ordering::AcqRel) + 1 == KV_CONNECTIONS
                        {
                            main_thread.unpark();
                        }
                    }
                    yield_now().await;
                }
                tallies.lock().expect("tally lock poisoned").add(tally);
            });
        }

        // The workers drive the fleet; this thread sleeps until every
        // connection has done its share of the warm-up.
        while warmed.load(Ordering::Acquire) < KV_CONNECTIONS {
            std::thread::park();
        }
        let setup_s = epoch.elapsed().as_secs_f64();
        let stats = map.domain().stats();
        let (retired, freed) = (stats.retired(), stats.freed());
        let secs = hold_window(&ctl, p.secs, p.trace);
        let stats = map.domain().stats();
        let (retired, freed) = (stats.retired() - retired, stats.freed() - freed);
        ctl.store(STOP, Ordering::Relaxed);

        // Each receiver resolves once its reclaimer has drained and swept.
        let mut reclaim = ReclaimStats::default();
        for rx in reclaimed {
            let stats = block_on(rx).expect("reclaimer task dropped its report");
            reclaim.flushed += stats.flushed;
            reclaim.vacuous += stats.vacuous;
            reclaim.swept += stats.swept;
        }
        (TrialOut::new(setup_s, secs, retired, freed), reclaim)
    });

    for slot in slots.slots {
        out.absorb(slot.0.into_inner().expect("recorder lock poisoned"));
    }
    let served = tallies.into_inner().expect("tally lock poisoned");
    out.reclaim = Some((reclaim, served.attempted / KV_BURST));
    tally.add(served);
    let dirty = pool.dirty();
    drop(pool);
    out.errors = verify(&map, &mut tally, true);
    if dirty != 0 {
        out.errors.push(format!(
            "{dirty} handles left dirty after the reclaimers swept"
        ));
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out
}

type HashNode = ListNode<u64, u64>;
type TreeNode = NmNode<u64, u64>;

/// Runs one trial of the named workload.
pub fn run_trial(workload: &str, p: &TrialParams) -> TrialOut {
    let spec = |mix, stalled_reader| ThreadSpec {
        mix,
        stalled_reader,
        reclaims: true,
    };
    match workload {
        "hashmap-write" => thread_trial::<Hyaline<HashNode>, MichaelHashMap<u64, u64, _>>(
            &spec(WRITE_MIX, false),
            p,
        ),
        "nmtree-read" => thread_trial::<Hyaline<TreeNode>, NatarajanMittalTree<u64, u64, _>>(
            &spec(READ_MIX, false),
            p,
        ),
        "hashmap-stalled" => thread_trial::<HyalineS<HashNode>, MichaelHashMap<u64, u64, _>>(
            &spec(WRITE_MIX, true),
            p,
        ),
        "kv-service" => kv_trial(p),
        _ => unreachable!("unknown workload {workload}"),
    }
}

/// The `hashmap-write` loop over another scheme, for the comparator rows
/// of the per-layer list.
pub fn hashmap_write_on<S: Smr<HashNode>>(p: &TrialParams, reclaims: bool) -> TrialOut {
    let spec = ThreadSpec {
        mix: WRITE_MIX,
        stalled_reader: false,
        reclaims,
    };
    thread_trial::<S, MichaelHashMap<u64, u64, S>>(&spec, p)
}

#[cfg(test)]
pub mod testing {
    use super::*;

    /// A trial's output holding what one client recorded, for tests of the
    /// analysis that follows a trial.
    pub fn trial_from(rec: Recorder, reclaim: Option<(ReclaimStats, u64)>) -> TrialOut {
        let mut out = TrialOut::new(0.5, [1.0, 1.0], 4, 4);
        out.attempted = 10;
        out.reclaim = reclaim;
        out.absorb(rec);
        out
    }
}
