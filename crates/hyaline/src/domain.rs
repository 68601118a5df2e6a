//! The one batch-scheme domain. Figures 3, 4 and 5 of the paper are one
//! algorithm with two independent switches, and that is how it is written
//! here: `SINGLE` picks the single-entry head of Figure 4 over the
//! multi-entry head of Figure 3, `ERAS` adds the birth and access eras of
//! Figure 5. Crystalline is two more on top of `SINGLE && ERAS`: `HANDOFF`
//! bounds `retire`'s CAS attempts per slot, `HELPING` bounds `protect`'s
//! rounds. Each `if SINGLE` / `if ERAS` / `if HANDOFF` / `if HELPING` below
//! is a constant the compiler folds, and sits where the papers differ;
//! what the last two switch *in* lives in [`crate::waitfree`], everything
//! else is shared.

use smr_core::{
    Atomic, EraClock, NodePool, Shared, SlotRegistry, Smr, SmrConfig, SmrHandle, SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::batch::{adjust_refs, adjust_slot_credit, header, FinalizedBatch, W_NEXT};
use crate::head::{Head1Word, HeadWord};
use crate::local::{Insertions, Local};
use crate::slots::{Slot, SlotDirectory};
use crate::waitfree::{Adopted, PROTECT_FAST_ROUNDS};

/// Computes the paper's `Adjs` constant: `⌊(2^64 - 1) / k⌋ + 1 = 2^64 / k`
/// for power-of-two `k`, so that `k * Adjs == 0 (mod 2^64)`.
pub(crate) fn adjs_for(slots: usize) -> usize {
    debug_assert!(slots.is_power_of_two());
    (usize::MAX >> slots.trailing_zeros()).wrapping_add(1)
}

/// Figure 5's `touch`: raises a slot's access era to at least `era` with a
/// CAS-max loop, returning what it now is. For slots with more than one
/// writer: the shared slots of Hyaline-S, and Crystalline-W's owned ones,
/// where a plain owner store could undo a helper's raise and let a retirer
/// skip the slot while the owner holds a helper-certified pointer.
pub(crate) fn touch(slot: &Slot, era: u64) -> u64 {
    let mut access = slot.access.load(Ordering::SeqCst);
    while access < era {
        match slot
            .access
            .compare_exchange_weak(access, era, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => return era,
            Err(now) => access = now,
        }
    }
    access
}

/// A Hyaline reclamation domain; see the aliases [`Hyaline`](crate::Hyaline),
/// [`Hyaline1`](crate::Hyaline1), [`HyalineS`](crate::HyalineS),
/// [`Hyaline1S`](crate::Hyaline1S), [`CrystallineL`](crate::CrystallineL)
/// and [`CrystallineW`](crate::CrystallineW) for what each switch setting
/// is.
///
/// Slots each hold the head of a retirement list. `enter` takes a reference
/// on a slot; `retire` accumulates nodes into local batches and appends full
/// batches to every active slot; `leave` drops the reference and walks the
/// sublist of batches retired during the operation, decrementing per-batch
/// reference counters. The thread that brings a batch's counter to zero
/// frees the whole batch — *asynchronous tracking*: nobody ever re-checks
/// other threads' state.
///
/// * `SINGLE = false` (Figure 3): `k` = [`SmrConfig::slots`] shared slots
///   with a `[HRef, HPtr]` head, any number of handles, `Adjs` wrap-around
///   accounting. `SINGLE = true` (Figure 4): every handle owns a slot
///   (capacity [`SmrConfig::max_threads`]), `HRef` is one bit, `enter` and
///   `leave` are wait-free, and `retire` counts its insertions instead.
/// * `ERAS = true` (Figure 5): allocations stamp a birth era, `protect`
///   raises the slot's access era, and `retire` skips slots whose access
///   era is older than the batch's minimum birth era. A batch that a slot's
///   era splits is cut there first, so a stalled thread pins only nodes
///   born before its stall, not their younger batchmates. On shared slots
///   the `Ack` counter lets `enter` avoid slots held by stalled threads,
///   growing the slot directory when all are (Figure 6,
///   [`SmrConfig::adaptive`]).
/// * `HANDOFF = true` (Crystalline-L, needs `SINGLE && ERAS`): `retire`
///   makes at most [`SmrConfig::handoff_attempts`] CAS attempts per slot,
///   then deposits the batch in the slot's handoff cell with one swap, so
///   it is wait-free. `HELPING = true` (Crystalline-W, needs `HANDOFF`):
///   `protect` publishes a request after a bounded number of rounds and
///   era advancers certify it first. Any other combination does not build:
///
/// ```compile_fail,E0080
/// use smr_core::Smr;
/// // Handoff on shared slots: the cell is collected by the slot's *owner*.
/// hyaline::Domain::<u64, false, true, true, false>::new();
/// ```
pub struct Domain<
    T: Send + 'static,
    const SINGLE: bool,
    const ERAS: bool,
    const HANDOFF: bool = false,
    const HELPING: bool = false,
> {
    pub(crate) dir: SlotDirectory,
    /// `SINGLE`: hands every handle its own index into `dir`.
    pub(crate) registry: SlotRegistry,
    pub(crate) era: EraClock,
    era_freq: u64,
    batch_min: usize,
    ack_threshold: i64,
    handoff_attempts: usize,
    /// `HANDOFF`: adopted entries whose handle dropped before the guarded
    /// occupancy ended. Swept opportunistically by draining handles and
    /// finally at domain drop. REFS pointers are stored as `usize` so the
    /// domain stays auto-`Send`/`Sync`.
    pub(crate) orphans: Mutex<Vec<(usize, usize, usize)>>,
    /// `HANDOFF`: `orphans.len()`, written under its lock, so that a drain
    /// finding no orphans skips the lock altogether.
    pub(crate) orphan_count: AtomicUsize,
    /// `!SINGLE`: round-robin starting slot for new handles.
    next_slot: AtomicUsize,
    pub(crate) stats: SmrStats,
    pub(crate) pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool>
    std::fmt::Debug for Domain<T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(Self::name())
            .field("dir", &self.dir)
            .field("registered", &self.registry.claimed())
            .field("era", &self.era.current())
            .finish_non_exhaustive()
    }
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool>
    Domain<T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    /// The current number of slots (grows under `adaptive`; the capacity
    /// when every handle owns its slot).
    pub fn slot_count(&self) -> usize {
        self.dir.k()
    }

    /// The current global era (stays at 1 without `ERAS`).
    pub fn era(&self) -> u64 {
        self.era.current()
    }
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool> Smr<T>
    for Domain<T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    type Handle<'d> = Handle<'d, T, SINGLE, ERAS, HANDOFF, HELPING>;

    fn with_config(config: SmrConfig) -> Self {
        const {
            assert!(
                !HANDOFF || (SINGLE && ERAS),
                "HANDOFF is Hyaline-1S plus a handoff cell"
            );
            assert!(
                !HELPING || HANDOFF,
                "HELPING is Crystalline-L plus helped protects"
            );
        }
        let (k_min, max_k) = if SINGLE {
            (config.max_threads, config.max_threads)
        } else {
            assert!(
                config.slots.is_power_of_two(),
                "{} requires a power-of-two slot count",
                Self::name()
            );
            if ERAS && config.adaptive {
                // Bounded by the registry-style cap so directory growth stops
                // at a sane power of two even under pathological stalling.
                let cap = config.max_threads.next_power_of_two();
                (config.slots, cap.max(config.slots))
            } else {
                (config.slots, config.slots)
            }
        };
        Self {
            dir: SlotDirectory::new(k_min, max_k),
            registry: SlotRegistry::new(if SINGLE { k_min } else { 0 }),
            era: EraClock::new(),
            era_freq: config.era_freq,
            batch_min: config.batch_min,
            ack_threshold: config.ack_threshold,
            handoff_attempts: config.handoff_attempts,
            orphans: Mutex::new(Vec::new()),
            orphan_count: AtomicUsize::new(0),
            next_slot: AtomicUsize::new(0),
            stats: SmrStats::new(),
            pool: NodePool::for_node::<T>(&config),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> Handle<'_, T, SINGLE, ERAS, HANDOFF, HELPING> {
        let slot = if SINGLE {
            self.registry.claim()
        } else {
            self.next_slot.fetch_add(1, Ordering::Relaxed) & (self.dir.k() - 1)
        };
        Handle {
            domain: self,
            slot,
            handle: ptr::null_mut(),
            active: false,
            access_cache: 0,
            adopted: Vec::new(),
            local: Local::new(&self.pool, &self.stats),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        match (SINGLE, ERAS, HANDOFF, HELPING) {
            (false, false, ..) => "Hyaline",
            (true, false, ..) => "Hyaline-1",
            (false, true, ..) => "Hyaline-S",
            (true, true, false, _) => "Hyaline-1S",
            (true, true, true, false) => "Crystalline-L",
            (true, true, true, true) => "Crystalline-W",
        }
    }

    fn robust() -> bool {
        ERAS
    }

    fn supports_trim() -> bool {
        true
    }

    fn needs_seek_validation() -> bool {
        // With eras, a batch whose `min_birth` outruns a slot's access era
        // skips the slot permanently; a later `deref` of one of its nodes
        // (reachable only through an unlinked frozen region) would not be
        // covered. Validated traversals guarantee every protected node was
        // still reachable — and therefore unretired — when its era was
        // certified.
        ERAS
    }

    fn shardable_by_pointer() -> bool {
        // Without eras protection is purely enter-scoped (slot references;
        // protect is a plain load) and alloc stamps no shard-local metadata.
        !ERAS
    }

    fn wait_free_retire() -> bool {
        HANDOFF
    }
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool> Drop
    for Domain<T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    fn drop(&mut self) {
        // All handles borrowed `self`, so by now every thread has left and
        // flushed: each slot's final leave detached and reaped its list.
        // Zero is the empty head in both encodings.
        if cfg!(debug_assertions) {
            for i in 0..self.dir.k() {
                assert_eq!(
                    self.dir.slot(i).head.load(Ordering::Acquire),
                    HeadWord::EMPTY,
                    "{} domain dropped with a non-empty slot {i}",
                    Self::name()
                );
            }
        }
        if HANDOFF {
            self.sweep_teardown();
        }
    }
}

/// Per-thread handle to a [`Domain`]. With `SINGLE` it owns one slot for its
/// whole life; otherwise it shares slots freely and needs no registration.
pub struct Handle<
    'd,
    T: Send + 'static,
    const SINGLE: bool,
    const ERAS: bool,
    const HANDOFF: bool = false,
    const HELPING: bool = false,
> {
    pub(crate) domain: &'d Domain<T, SINGLE, ERAS, HANDOFF, HELPING>,
    pub(crate) slot: usize,
    handle: *mut SmrNode<T>,
    active: bool,
    /// `SINGLE && ERAS`: cached copy of our slot's access era — valid
    /// because this handle is the only writer ("Hyaline-1S: touch is an
    /// ordinary memory write"). With `HELPING` a lower bound: helpers may
    /// have raised the real value further, which only strengthens
    /// protection.
    pub(crate) access_cache: u64,
    /// `HANDOFF`: displaced handoff entries this handle holds until the
    /// occupancy they guard ends.
    pub(crate) adopted: Vec<Adopted<T>>,
    pub(crate) local: Local<'d, T>,
}

// SAFETY: the raw pointers are exclusively owned retired/reaped nodes (the
// local batch, reap list, and recycle magazine inside `local`, adopted
// handoff entries) plus the last-seen slot head, all usable from whichever
// thread drives the handle next; the domain, pool and stats borrows are
// `Sync`; the cached access era stays valid because this handle remains its
// slot's only writer wherever it runs (with `HELPING` it is a lower bound,
// and helpers only raise the slot's era). Nothing is thread-affine, so a
// parked handle may move between tasks.
unsafe impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool> Send
    for Handle<'_, T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool>
    std::fmt::Debug for Handle<'_, T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field(
                "scheme",
                &Domain::<T, SINGLE, ERAS, HANDOFF, HELPING>::name(),
            )
            .field("slot", &self.slot)
            .field("active", &self.active)
            .field("batch_len", &self.local.batch.count())
            .field("adopted", &self.adopted.len())
            .finish_non_exhaustive()
    }
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool>
    Handle<'_, T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    /// The slot this handle enters through: its own with `SINGLE`, else the
    /// one it last used (Hyaline-S moves between operations to avoid
    /// stalled slots).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Figure 5's `enter` loop: stay away from slots saturated by stalled
    /// threads; grow the directory when everything is saturated.
    fn unsaturated_slot(&self) -> usize {
        let domain = self.domain;
        let mut k = domain.dir.k();
        let mut slot = self.slot & (k - 1);
        let mut scanned = 0;
        let mut best = (i64::MAX, slot);
        loop {
            let ack = domain.dir.slot(slot).ack.load(Ordering::Relaxed);
            if ack < domain.ack_threshold {
                return slot;
            }
            if ack < best.0 {
                best = (ack, slot);
            }
            slot = (slot + 1) & (k - 1);
            scanned += 1;
            if scanned >= k {
                if !domain.dir.grow() {
                    // Capped (non-adaptive): settle for the least-saturated
                    // slot — this is the regime where Figure 10a shows the
                    // capped variant starting to interfere.
                    return best.1;
                }
                // New slots start with Ack = 0; rescan including them.
                k = domain.dir.k();
                scanned = 0;
            }
        }
    }

    /// Whether a batch may skip `slot` although a thread is inside it: with
    /// eras, no thread whose access era is older than the batch's minimum
    /// birth era can ever have dereferenced one of its nodes. One node born
    /// before a stall would keep its whole batch in the stalled slot, so
    /// [`Self::finalize_and_insert`] first cuts such a batch at the slot's
    /// era, and the younger part passes this test.
    fn too_stale(slot: &Slot, fin: &FinalizedBatch<T>) -> bool {
        ERAS && slot.access.load(Ordering::SeqCst) < fin.min_birth
    }

    /// `ERAS`: the oldest access era of an active slot that falls inside
    /// the local batch's birth range — at or after its oldest node's birth,
    /// before its youngest's. The thread in that slot may have seen the
    /// nodes born up to its era, never the younger ones. `None` when no
    /// such slot exists, which is the common case: a thread inside an
    /// operation keeps its access era current with every `protect`.
    fn stale_era_inside_batch(&self, k: usize) -> Option<u64> {
        let (oldest, youngest) = self.local.batch.birth_range();
        if oldest >= youngest {
            return None;
        }
        let domain = self.domain;
        let inside = |slot: &Slot| {
            let access = slot.access.load(Ordering::SeqCst);
            (oldest..youngest).contains(&access).then_some(access)
        };
        if SINGLE {
            domain
                .registry
                .iter_claimed()
                .map(|idx| domain.dir.slot(idx))
                .filter(|slot| slot.head.single().load(Ordering::Acquire).active())
                .filter_map(inside)
                .min()
        } else {
            (0..k)
                .map(|i| domain.dir.slot(i))
                .filter(|slot| slot.head.load(Ordering::Acquire).refs() != 0)
                .filter_map(inside)
                .min()
        }
    }

    /// Figure 3's `retire`: appends the batch to every active slot `0..k`,
    /// where `k` is the slot count the batch was finalized against. Past
    /// the block's own nodes each insertion takes a spare dummy
    /// ([`Insertions`]), as in `insert_owned`.
    ///
    /// # Safety
    ///
    /// `fin` must come from this handle's own `LocalBatch::finalize` with
    /// `Adjs = adjs_for(k)`, and be unpublished: no other thread may have
    /// seen any node of the batch yet.
    unsafe fn insert_shared(&mut self, mut fin: FinalizedBatch<T>, k: usize) {
        let domain = self.domain;
        let mut nodes = Insertions::new();
        let mut skipped: usize = 0;
        for i in 0..k {
            let slot = domain.dir.slot(i);
            loop {
                let head = slot.head.load(Ordering::Acquire);
                if head.refs() == 0 || Self::too_stale(slot, &fin) {
                    // REF #1#: no active threads (or none that matter);
                    // this slot's Adjs goes directly on the batch at the
                    // end.
                    skipped += 1;
                    break;
                }
                // SAFETY: extending the block here is sound because `NRef`
                // cannot reach zero before all `k` slots' contributions are
                // in: each finished slot adds `Adjs`, and `j · Adjs ≢ 0 (mod
                // 2^64)` for `0 < j < k`. The last of them comes through the
                // skipped slots' adjustment below or after the last
                // insertion CAS, and both follow every extension.
                let insert_node = unsafe { nodes.node(&mut fin, &mut self.local) };
                // SAFETY: `insert_node` is this thread's until the CAS below
                // publishes it.
                unsafe { header(insert_node) }
                    .word(W_NEXT)
                    .store(head.ptr_bits(), Ordering::Relaxed);
                let new = head.with_ptr(insert_node);
                if slot
                    .head
                    .compare_exchange(head, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // REF #2#: credit the predecessor with Adjs plus the
                    // snapshot of HRef taken by the winning CAS.
                    let pred: *mut SmrNode<T> = head.ptr();
                    if !pred.is_null() {
                        // SAFETY: `pred`'s batch is live: its `NRef` still
                        // lacks this slot's credit, which is this adjustment.
                        unsafe { adjust_slot_credit(pred, head.refs(), &mut self.local.reap) };
                    }
                    if ERAS {
                        // Track un-acknowledged references for stall
                        // detection.
                        slot.ack.fetch_add(head.refs() as i64, Ordering::Relaxed);
                    }
                    nodes.linked();
                    break;
                }
            }
        }
        if skipped > 0 {
            // REF #3#: contribute the skipped slots' Adjs in one shot. When
            // *all* slots were empty this wraps to zero and frees the
            // untouched batch immediately.
            let empty_adjs = skipped.wrapping_mul(adjs_for(k));
            // SAFETY: `NRef` lacks the skipped slots' credit until this
            // adjustment, so the REFS node is live.
            unsafe { adjust_refs(fin.refs_node, empty_adjs, &mut self.local.reap) };
        }
    }

    /// Figure 4's `retire`: push the batch to every *active* claimed slot,
    /// counting insertions, then adjust `NRef` by the count. Lock-free — a
    /// slot's CAS can lose to other inserters forever — unless `HANDOFF`
    /// bounds the attempts.
    ///
    /// # Safety
    ///
    /// `fin` must come from this handle's own `LocalBatch::finalize` and be
    /// unpublished: no other thread may have seen any node of the batch yet.
    unsafe fn insert_owned(&mut self, mut fin: FinalizedBatch<T>) {
        let domain = self.domain;
        let mut nodes = Insertions::new();
        let mut inserts: usize = 0;
        for idx in domain.registry.iter_claimed() {
            let slot = domain.dir.slot(idx);
            let slot_head = slot.head.single();
            let mut attempts = 0;
            loop {
                let head = slot_head.load(Ordering::Acquire);
                if !head.active() || Self::too_stale(slot, &fin) {
                    break;
                }
                if HANDOFF && attempts >= domain.handoff_attempts {
                    // Crystalline: deposit in the slot's handoff cell. The
                    // entry holds one `NRef` reference like a list insertion
                    // but consumes no insertion node.
                    self.hand_off(idx, fin.refs_node);
                    inserts += 1;
                    break;
                }
                // SAFETY: extending the block here is sound because `NRef`
                // cannot reach zero before the final adjustment below: until
                // then only decrements and handoff releases reach it.
                let node = unsafe { nodes.node(&mut fin, &mut self.local) };
                // SAFETY: `node` is this thread's until the CAS below
                // publishes it.
                unsafe { header(node) }
                    .word(W_NEXT)
                    .store(head.ptr::<SmrNode<T>>() as usize, Ordering::Relaxed);
                let new = Head1Word::pack(true, node);
                if slot_head
                    .compare_exchange(head, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Replaces REF #2#.
                    inserts += 1;
                    nodes.linked();
                    break;
                }
                attempts += 1;
            }
        }
        // Replaces REF #3#: one adjustment by the number of insertions. If
        // no slot was active, `inserts == 0` frees the batch immediately.
        // SAFETY: `NRef` cannot reach zero before this adjustment, so the
        // REFS node is live.
        unsafe { adjust_refs(fin.refs_node, inserts, &mut self.local.reap) };
    }

    /// Strictly more nodes than slots a batch can be inserted into (Section
    /// 3.2), and at least `batch_min`.
    fn batch_target(&self) -> usize {
        let domain = self.domain;
        let k = if SINGLE {
            domain.registry.claimed()
        } else {
            domain.dir.k()
        };
        domain.batch_min.max(k + 1)
    }

    /// Freezes the local batch as it is and inserts it. A partial batch
    /// (a flush, a drop) is not padded: the insertion loop adds one spare
    /// dummy for each active slot its own nodes do not cover, and frees a
    /// batch that meets no active slot on the spot. On shared slots the
    /// batch carries the `Adjs = 2^64 / k` of the *current* `k` (the
    /// directory may have grown since the batch was sized).
    ///
    /// With eras, an active slot whose access era lies inside the batch's
    /// birth range cuts the batch first: the nodes born at or before that
    /// era are finalized and inserted as a batch of their own, and the rest
    /// skip the slot ([`Self::too_stale`]). So a stalled thread pins only
    /// nodes it could have seen, not their batchmates too. Each part is an
    /// ordinary batch with its own `min_birth`, `NRef` and dummies; cuts
    /// repeat, oldest era first, while another slot splits what is left.
    fn finalize_and_insert(&mut self) {
        if self.local.batch.is_empty() {
            return;
        }
        if ERAS {
            // Order the pre-retire unlinks before the access-era reads of
            // the cut and of the insertion loop.
            fence(Ordering::SeqCst);
        }
        // Every part is finalized against the same slot count.
        let k = if SINGLE { 0 } else { self.domain.dir.k() };
        if ERAS {
            while let Some(era) = self.stale_era_inside_batch(k) {
                // SAFETY: nothing is finalized yet, so every node's word 0
                // holds its birth era, and `era` lies in the birth range.
                let mut older = unsafe { self.local.cut_batch(era) };
                // SAFETY: `older` is non-empty, wholly owned by this handle
                // and unpublished.
                unsafe {
                    let fin = older.finalize(Self::adjs(k));
                    self.insert(fin, k);
                }
            }
        }
        // SAFETY: the batch is non-empty and wholly owned by this handle;
        // `fin` is its own freshly finalized, unpublished batch.
        unsafe {
            let fin = self.local.batch.finalize(Self::adjs(k));
            self.insert(fin, k);
        }
    }

    /// The `Adjs` a batch is finalized with against `k` shared slots
    /// (owned slots count insertions instead).
    fn adjs(k: usize) -> usize {
        if SINGLE {
            0
        } else {
            adjs_for(k)
        }
    }

    /// Inserts a finalized batch into the slot lists of its head layout.
    ///
    /// # Safety
    ///
    /// `fin` must come from this handle's own `LocalBatch::finalize` with
    /// `Adjs = Self::adjs(k)`, and be unpublished.
    unsafe fn insert(&mut self, fin: FinalizedBatch<T>, k: usize) {
        // SAFETY: forwarded.
        unsafe {
            if SINGLE {
                self.insert_owned(fin);
            } else {
                self.insert_shared(fin, k);
            }
        }
    }

    /// Frees the batches whose `NRef` reached zero. Crystalline first
    /// retries the references it could not release when it took them over.
    #[inline]
    fn drain(&mut self) {
        if HANDOFF {
            self.retry_adopted();
            self.sweep_orphans();
        }
        self.local.drain();
    }
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool> SmrHandle<T>
    for Handle<'_, T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    // Hinted for the reason `Local::alloc` gives: once per operation.
    #[inline]
    fn enter(&mut self) {
        debug_assert!(!self.active, "enter while already inside an operation");
        if SINGLE {
            self.domain.dir.slot(self.slot).head.single().enter();
            self.handle = ptr::null_mut();
        } else {
            if ERAS {
                self.slot = self.unsaturated_slot();
            }
            let old = self.domain.dir.slot(self.slot).head.enter_faa();
            self.handle = old.ptr();
        }
        self.active = true;
    }

    fn leave(&mut self) {
        debug_assert!(self.active, "leave without a matching enter");
        self.active = false;
        let slot = self.domain.dir.slot(self.slot);
        if SINGLE {
            // The swap detaches the whole list: the slot owner holds exactly
            // one reference to every node in it, the head included.
            let head: *mut SmrNode<T> = slot.head.single().leave().ptr();
            if HANDOFF {
                self.collect_handoff();
            }
            if !head.is_null() {
                // SAFETY: `leave` detached the list; its nodes stay live
                // until this traversal applies our decrement to each batch.
                unsafe { self.local.traverse(head, self.handle) };
            }
        } else {
            let (old_head, curr, next) = loop {
                let head = slot.head.load(Ordering::Acquire);
                let curr: *mut SmrNode<T> = head.ptr();
                let mut next = ptr::null_mut();
                if curr != self.handle {
                    debug_assert!(!curr.is_null());
                    // SAFETY: a non-handle head exists only while we (an
                    // active thread) hold a reference to it, so reading its
                    // Next is safe.
                    next = unsafe { header(curr).word(W_NEXT).load(Ordering::Acquire) }
                        as *mut SmrNode<T>;
                }
                let mut new = head.with_refs(head.refs() - 1);
                if head.refs() == 1 {
                    new = new.with_ptr(ptr::null_mut::<SmrNode<T>>());
                }
                if slot
                    .head
                    .compare_exchange(head, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break (head, curr, next);
                }
            };
            if old_head.refs() == 1 && !curr.is_null() {
                // We detached the list: the head node never gets a successor,
                // so give it its final per-slot Adjs as if it were a
                // predecessor.
                // SAFETY: `curr` was the head we just detached; the batch
                // stays live until this final credit is applied.
                unsafe { adjust_slot_credit(curr, 0, &mut self.local.reap) };
            }
            if curr != self.handle {
                // SAFETY: `next` was read from `curr` while our slot
                // reference pinned the sublist; traverse releases it exactly
                // once.
                let count = unsafe { self.local.traverse(next, self.handle) };
                if ERAS {
                    slot.ack.fetch_sub(count, Ordering::Relaxed);
                }
            }
        }
        self.handle = ptr::null_mut();
        self.drain();
    }

    /// Hyaline's real §3.3 trimming: dereferences the sublist retired since
    /// `enter` (or the previous `trim`) without touching the slot `Head`.
    /// Nor the handoff cell: its entry may guard pointers this very
    /// occupancy read after the trim point, and cannot be released while the
    /// occupancy sequence stands still.
    fn trim(&mut self) {
        debug_assert!(self.active, "trim outside an operation");
        let slot = self.domain.dir.slot(self.slot);
        let curr: *mut SmrNode<T> = if SINGLE {
            slot.head.single().load(Ordering::Acquire).ptr()
        } else {
            slot.head.load(Ordering::Acquire).ptr()
        };
        if curr != self.handle {
            debug_assert!(!curr.is_null());
            // SAFETY: we are still inside the operation, so the head and its
            // sublist are pinned by our slot reference.
            let next =
                unsafe { header(curr).word(W_NEXT).load(Ordering::Acquire) } as *mut SmrNode<T>;
            // SAFETY: as above — the sublist is pinned until traversed.
            let count = unsafe { self.local.traverse(next, self.handle) };
            if ERAS && !SINGLE {
                slot.ack.fetch_sub(count, Ordering::Relaxed);
            }
            self.handle = curr;
        }
        self.drain();
    }

    fn alloc(&mut self, value: T) -> Shared<T> {
        let domain = self.domain;
        // Figure 5's init_node: advance the clock every `Freq` allocations
        // and stamp the node's birth era.
        if ERAS && self.local.era_due(domain.era_freq) {
            if HELPING {
                // Era advancers are exactly the threads that can starve a
                // protect loop, so they help first.
                domain.help_pending();
            }
            domain.era.advance();
        }
        self.local.alloc(value, ERAS.then_some(&domain.era))
    }

    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        // SAFETY: per the `SmrHandle::dealloc` contract the node was never
        // published, so this thread owns it outright and may free it in place.
        unsafe { self.local.dealloc(ptr) };
    }

    /// Without eras a plain load: active threads are tracked through the
    /// slot references alone (Figure 1a: "No deref in basic Hyaline").
    ///
    /// With eras, Figure 5's `deref`: certify that this slot's access era
    /// matches the global clock *before* the pointer read that is returned.
    /// The re-read each iteration is what makes the certification sound: a
    /// pointer obtained after the era sync cannot belong to a batch that
    /// already skipped this slot. Advancing threads can starve the loop;
    /// with `HELPING` it asks them for help after a few rounds instead.
    fn protect(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        if !ERAS {
            return src.load(Ordering::Acquire);
        }
        let domain = self.domain;
        let slot = domain.dir.slot(self.slot);
        let mut access = if SINGLE {
            self.access_cache
        } else {
            slot.access.load(Ordering::SeqCst)
        };
        let mut rounds = 0;
        loop {
            let node = src.load(Ordering::Acquire);
            let alloc = domain.era.current();
            if access == alloc {
                return node;
            }
            if SINGLE && !HELPING {
                // Sole writer: an ordinary store replaces the CAS-max `touch`.
                slot.access.store(alloc, Ordering::SeqCst);
                access = alloc;
            } else {
                access = touch(slot, alloc);
            }
            if SINGLE {
                fence(Ordering::SeqCst);
                self.access_cache = access;
            }
            if HELPING {
                rounds += 1;
                if rounds == PROTECT_FAST_ROUNDS {
                    return self.protect_slow(src);
                }
            }
        }
    }

    unsafe fn retire(&mut self, ptr: Shared<T>) {
        debug_assert!(self.active, "retire outside an operation");
        // SAFETY: per the `SmrHandle::retire` contract the node is unlinked
        // from every shared structure, so batching it for deferred free is
        // sound.
        if unsafe { self.local.retire(ptr, ERAS) } >= self.batch_target() {
            self.finalize_and_insert();
            self.drain();
        }
    }

    fn flush(&mut self) {
        self.finalize_and_insert();
        self.drain();
        self.local.flush();
    }
}

impl<T, const SINGLE: bool, const ERAS: bool, const HANDOFF: bool, const HELPING: bool> Drop
    for Handle<'_, T, SINGLE, ERAS, HANDOFF, HELPING>
where
    T: Send + 'static,
{
    fn drop(&mut self) {
        if self.active {
            self.leave();
        }
        // A dropped handle finalizes its partial batch, adding dummy nodes
        // only where active slots need them, so the thread is immediately
        // "off the hook".
        self.finalize_and_insert();
        self.drain();
        if HANDOFF {
            self.orphan_adopted();
        }
        // Unlike a flush, a drop hands the recycle magazine back.
        self.local.spill();
        if SINGLE {
            self.domain.registry.release(self.slot);
        }
    }
}
