//! An executable model of the Hyaline algorithms at atomic-step granularity.
//!
//! The model tracks *batches* (the paper's reclamation unit) rather than
//! individual nodes: a batch record carries the `NRef` counter and the
//! stored `Adjs` constant (§4.3) that the batch's block holds, and one
//! retirement-list link per slot (the `Next` of the batch's per-slot
//! insertion node). Every
//! transition of a thread's state machine performs exactly one atomic
//! action — one head load, one CAS, one FAA — so the
//! [`Explorer`](crate::Explorer) interleaves the algorithms at the same granularity the
//! hardware does (under sequential consistency).
//!
//! Safety checks are wired into the semantics:
//!
//! * reading any field of a freed batch is a model violation (use after
//!   free),
//! * a reference count crossing zero on an already-freed batch is a model
//!   violation (double free), and
//! * [`HyalineModel::finish`] requires every retired batch freed, every
//!   head empty, and every counter back at zero (leaks, lost adjustments).

use std::fmt;

/// Which algorithm the model executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The general multi-slot algorithm (Figure 3): `[HRef, HPtr]` heads,
    /// `Adjs` wrap-around accounting, empty-slot adjustments.
    Hyaline,
    /// The single-width specialization (Figure 4): one slot per thread, an
    /// active bit instead of a counter, `Inserts` counting.
    Hyaline1,
    /// The robust extension (Figure 5): batches carry birth eras, `deref`
    /// raises the calling slot's access era, and `retire` skips slots whose
    /// access era is older than the batch's minimum birth era — which is
    /// what lets reclamation proceed past *stalled* threads
    /// ([`Op::Stall`]). The model uses `Freq = 1` (the clock advances on
    /// every allocation) and one node per batch, so `min_birth` is the
    /// batch's own birth era.
    HyalineS,
}

/// Deliberate algorithm mutations, used to validate that the explorer
/// actually detects broken accounting (mutation testing of the checker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fault {
    /// Faithful algorithm.
    #[default]
    None,
    /// `retire` skips the final empty-slot adjustment (drops Figure 3's
    /// REF `#3#`): batches retired while some slot is empty never complete
    /// their `k × Adjs` wrap-around and leak.
    SkipEmptyAdjust,
    /// The predecessor credit adds only the `HRef` snapshot without `Adjs`
    /// (breaks Figure 3's REF `#2#`): counters cross zero early, freeing
    /// batches that active threads still traverse.
    NoAdjsInPredecessorCredit,
    /// `leave` decrements `HRef` but never detaches the list when it is the
    /// last reference, so the final per-slot `Adjs` is lost.
    NoDetachOnLastLeave,
    /// Hyaline-S inserts into every active slot regardless of eras
    /// (drops Figure 5's `Access < Min` skip): batches land in stalled
    /// threads' retirement lists and are pinned forever — the robustness
    /// property the eras exist to provide.
    IgnoreBirthEras,
}

/// One operation of a thread's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `enter` through the given slot.
    Enter(usize),
    /// Retire one freshly allocated batch.
    Retire,
    /// `leave` the current operation.
    Leave,
    /// §3.3 `trim`: dereference the sublist without touching the head.
    Trim,
    /// Figure 5's `deref`: raise the current slot's access era to the
    /// global clock ([`Variant::HyalineS`] only; a no-op elsewhere).
    Deref,
    /// Park this thread forever *inside* its current operation (the
    /// robustness adversary of Figure 10a). The thread takes no further
    /// steps; see [`HyalineModel::finish`] for the relaxed end-state
    /// invariants.
    Stall,
}

/// A thread's program: the sequence of operations it will perform.
pub type ThreadProgram = Vec<Op>;

/// Model configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Number of slots `k`. Must be a power of two for [`Variant::Hyaline`];
    /// for [`Variant::Hyaline1`] it must equal the number of threads.
    pub slots: usize,
    /// Which algorithm to run.
    pub variant: Variant,
    /// Optional deliberate bug (see [`Fault`]).
    pub fault: Fault,
}

/// The paper's `Adjs` constant for `k` slots: `2^64 / k` so that
/// `k × Adjs ≡ 0 (mod 2^64)`.
fn adjs_for(k: usize) -> u64 {
    debug_assert!(k.is_power_of_two());
    (u64::MAX / k as u64).wrapping_add(1)
}

/// A batch record: the model's reclamation unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Batch {
    /// The `NRef` counter (wrapping, as in the algorithm).
    nref: u64,
    /// Per-slot retirement-list link (`Next` of the batch's insertion node
    /// for that slot).
    next: Vec<Option<usize>>,
    /// The `Adjs` this batch was retired under (§4.3 stores it per batch).
    adjs: u64,
    /// Whether the batch has been freed.
    freed: bool,
    /// Birth era (Hyaline-S; 0 elsewhere).
    birth: u64,
    /// Bitmask of slots whose retirement list this batch was inserted into.
    inserted: u64,
}

/// A `[HRef, HPtr]` head (Figure 3) — updated atomically as a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Head {
    href: u64,
    ptr: Option<usize>,
}

/// A Hyaline-1 head: active bit plus pointer (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Head1 {
    active: bool,
    ptr: Option<usize>,
}

/// Micro-state of one thread: where inside a (multi-step) operation it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Micro {
    /// Between operations: the next program `Op` starts on the next step.
    Ready,
    /// `retire`, about to load the head of `slot` (Figure 3 lines 30–34).
    RetireLoad {
        batch: usize,
        slot: usize,
        empty_adjs: u64,
        any_empty: bool,
        inserts: u64,
    },
    /// `retire`, about to CAS `slot`'s head from the snapshot (line 38).
    RetireCas {
        batch: usize,
        slot: usize,
        empty_adjs: u64,
        any_empty: bool,
        inserts: u64,
        snapshot: Head,
    },
    /// `retire`, about to credit the predecessor (line 39, REF `#2#`).
    RetireAdjustPred {
        batch: usize,
        slot: usize,
        empty_adjs: u64,
        any_empty: bool,
        inserts: u64,
        pred: usize,
        href_snapshot: u64,
    },
    /// `retire`, about to apply the empty-slot / `Inserts` adjustment
    /// (line 40, REF `#3#`).
    RetireFinalAdjust { batch: usize, val: u64 },
    /// `leave`, about to load the head (Figure 3 line 8).
    LeaveLoad,
    /// `leave`, about to read `Curr->Next` (line 11) — the read the paper
    /// licenses because an active thread always references the list head.
    LeaveReadNext { snapshot: Head },
    /// `leave`, about to CAS the decremented head (line 15).
    LeaveCas { snapshot: Head, next: Option<usize> },
    /// `leave`, about to apply the detach adjustment (line 17).
    LeaveDetachAdjust {
        curr: usize,
        next: Option<usize>,
        traverse: bool,
    },
    /// `trim`, about to load the head (line 21).
    TrimLoad,
    /// `trim`, about to read `Curr->Next` (line 24).
    TrimReadNext { snapshot: Head },
    /// Walking the retirement sublist (lines 44–51): about to decrement
    /// `at`, stopping after the handle batch (inclusive).
    Traverse {
        at: Option<usize>,
        stop_at: Option<usize>,
        /// `trim` updates the handle to the old head when done.
        new_handle: Option<Option<usize>>,
    },
    /// Hyaline-1 `retire`: about to load slot `slot`'s head.
    Retire1Load {
        batch: usize,
        slot: usize,
        inserts: u64,
    },
    /// Hyaline-1 `retire`: about to CAS slot `slot`'s head.
    Retire1Cas {
        batch: usize,
        slot: usize,
        inserts: u64,
        snapshot: Head1,
    },
}

/// Per-thread state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Thread {
    program: ThreadProgram,
    pc: usize,
    micro: Micro,
    /// The `HPtr` snapshot taken at `enter` (None = empty list).
    handle: Option<usize>,
    /// The slot of the current operation.
    slot: usize,
    active: bool,
    /// Parked forever by [`Op::Stall`].
    stalled: bool,
}

/// The executable model. Drive it with [`HyalineModel::step`]; terminate
/// with [`HyalineModel::finish`].
///
/// The [`Explorer`](crate::Explorer) deduplicates these by value, so a model
/// holds everything a later step or `finish` reads (its programs and
/// configuration included), and nothing else: the exploration's
/// soundness rule.
///
/// # Example
///
/// ```
/// use interleave::model::{HyalineModel, ModelConfig, Op, Variant, Fault};
///
/// let mut m = HyalineModel::new(
///     ModelConfig { slots: 1, variant: Variant::Hyaline, fault: Fault::None },
///     vec![vec![Op::Enter(0), Op::Retire, Op::Leave]],
/// );
/// while !m.enabled().is_empty() {
///     m.step(0).unwrap();
/// }
/// m.finish().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HyalineModel {
    config: ModelConfig,
    heads: Vec<Head>,
    heads1: Vec<Head1>,
    batches: Vec<Batch>,
    threads: Vec<Thread>,
    adjs: u64,
    /// Global era clock (Hyaline-S).
    clock: u64,
    /// Per-slot access eras (Hyaline-S).
    access: Vec<u64>,
}

impl HyalineModel {
    /// Builds the model for `programs`, one per thread.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (zero or non-power-of-two slot count
    /// for [`Variant::Hyaline`]; slot out of range in a program).
    pub fn new(config: ModelConfig, programs: Vec<ThreadProgram>) -> Self {
        assert!(config.slots > 0, "need at least one slot");
        if matches!(config.variant, Variant::Hyaline | Variant::HyalineS) {
            assert!(config.slots.is_power_of_two(), "k must be a power of two");
        }
        assert!(
            config.slots <= 64,
            "the per-batch insertion mask holds at most 64 slots"
        );
        for p in &programs {
            for op in p {
                if let Op::Enter(s) = op {
                    assert!(*s < config.slots, "slot {s} out of range");
                }
            }
        }
        let adjs = match config.variant {
            Variant::Hyaline | Variant::HyalineS => adjs_for(config.slots),
            Variant::Hyaline1 => 0,
        };
        Self {
            heads: vec![Head { href: 0, ptr: None }; config.slots],
            heads1: vec![
                Head1 {
                    active: false,
                    ptr: None
                };
                config.slots
            ],
            batches: Vec::new(),
            threads: programs
                .into_iter()
                .map(|program| Thread {
                    program,
                    pc: 0,
                    micro: Micro::Ready,
                    handle: None,
                    slot: 0,
                    active: false,
                    stalled: false,
                })
                .collect(),
            clock: 0,
            access: vec![0; config.slots],
            config,
            adjs,
        }
    }

    /// Thread ids that still have steps to take.
    pub fn enabled(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.is_enabled(t))
            .collect()
    }

    #[inline]
    fn is_enabled(&self, t: usize) -> bool {
        let th = &self.threads[t];
        !th.stalled && (th.micro != Micro::Ready || th.pc < th.program.len())
    }

    /// Number of threads that still have steps to take (allocation-free).
    pub fn enabled_count(&self) -> usize {
        (0..self.threads.len())
            .filter(|&t| self.is_enabled(t))
            .count()
    }

    /// The `idx`-th enabled thread id, if any (allocation-free).
    pub fn nth_enabled(&self, idx: usize) -> Option<usize> {
        (0..self.threads.len())
            .filter(|&t| self.is_enabled(t))
            .nth(idx)
    }

    /// Number of batches created so far.
    pub fn batches_created(&self) -> usize {
        self.batches.len()
    }

    /// Number of batches freed so far.
    pub fn batches_freed(&self) -> usize {
        self.batches.iter().filter(|b| b.freed).count()
    }

    fn batch(&self, idx: usize, why: &str) -> Result<&Batch, String> {
        let b = &self.batches[idx];
        if b.freed {
            return Err(format!("use after free: {why} touched freed batch {idx}"));
        }
        Ok(b)
    }

    /// Where `retire` goes after finishing `slot - 1`: the next slot's load,
    /// the final empty-slot adjustment, or done. (Pure control flow — the
    /// returned state's action happens on the *next* step.)
    fn retire_advance(
        &self,
        batch: usize,
        slot: usize,
        empty_adjs: u64,
        any_empty: bool,
        inserts: u64,
    ) -> Micro {
        if slot < self.config.slots {
            return Micro::RetireLoad {
                batch,
                slot,
                empty_adjs,
                any_empty,
                inserts,
            };
        }
        if any_empty && self.config.fault != Fault::SkipEmptyAdjust {
            // REF #3#: contribute the skipped slots' Adjs in one shot.
            return Micro::RetireFinalAdjust {
                batch,
                val: empty_adjs,
            };
        }
        Micro::Ready
    }

    /// Hyaline-1's equivalent: next slot, or the final `Inserts` adjustment
    /// (Figure 4 always adjusts — `inserts == 0` frees the batch at once).
    fn retire1_advance(&self, batch: usize, slot: usize, inserts: u64) -> Micro {
        if slot < self.config.slots {
            Micro::Retire1Load {
                batch,
                slot,
                inserts,
            }
        } else {
            Micro::RetireFinalAdjust {
                batch,
                val: inserts,
            }
        }
    }

    /// Traversal continuation: a [`Micro::Traverse`] when there is a batch
    /// to visit, otherwise finish (updating the handle for `trim`).
    fn traverse_advance(
        &mut self,
        tid: usize,
        at: Option<usize>,
        stop_at: Option<usize>,
        new_handle: Option<Option<usize>>,
    ) -> Micro {
        match at {
            Some(_) => Micro::Traverse {
                at,
                stop_at,
                new_handle,
            },
            None => {
                self.threads[tid].handle = new_handle.unwrap_or(None);
                Micro::Ready
            }
        }
    }

    /// The paper's `adjust`: wrapping FAA on a batch's `NRef`; frees the
    /// batch when the post-add value is zero.
    fn adjust(&mut self, idx: usize, val: u64, why: &str) -> Result<(), String> {
        {
            let b = &self.batches[idx];
            if b.freed {
                return Err(format!(
                    "use after free: {why} adjusted freed batch {idx} by {val:#x}"
                ));
            }
        }
        let b = &mut self.batches[idx];
        b.nref = b.nref.wrapping_add(val);
        if b.nref == 0 {
            if b.freed {
                return Err(format!("double free of batch {idx} ({why})"));
            }
            b.freed = true;
        }
        Ok(())
    }

    /// Executes one atomic action of thread `tid`.
    ///
    /// # Errors
    ///
    /// Returns a description of the safety violation (use after free,
    /// double free, protocol assertion) if this step exhibits one.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not currently enabled.
    pub fn step(&mut self, tid: usize) -> Result<(), String> {
        let micro = self.threads[tid].micro;
        match micro {
            Micro::Ready => self.begin_op(tid),
            m => self.continue_op(tid, m),
        }
    }

    /// Starts the next program operation (consumes its first atomic step).
    fn begin_op(&mut self, tid: usize) -> Result<(), String> {
        let th = &self.threads[tid];
        assert!(th.pc < th.program.len(), "stepping a finished thread");
        let op = th.program[th.pc];
        self.threads[tid].pc += 1;
        match op {
            Op::Enter(slot) => match self.config.variant {
                Variant::Hyaline | Variant::HyalineS => {
                    // Figure 3 line 4: one FAA on the [HRef, HPtr] tuple.
                    if self.threads[tid].active {
                        return Err(format!("thread {tid}: enter while active"));
                    }
                    let old = self.heads[slot];
                    self.heads[slot].href += 1;
                    let th = &mut self.threads[tid];
                    th.handle = old.ptr;
                    th.slot = slot;
                    th.active = true;
                    Ok(())
                }
                Variant::Hyaline1 => {
                    if self.threads[tid].active {
                        return Err(format!("thread {tid}: enter while active"));
                    }
                    let old = self.heads1[slot];
                    if old
                        != (Head1 {
                            active: false,
                            ptr: None,
                        })
                    {
                        return Err(format!(
                            "thread {tid}: slot {slot} not quiescent at enter: {old:?}"
                        ));
                    }
                    self.heads1[slot] = Head1 {
                        active: true,
                        ptr: None,
                    };
                    let th = &mut self.threads[tid];
                    th.handle = None;
                    th.slot = slot;
                    th.active = true;
                    Ok(())
                }
            },
            Op::Retire => {
                if !self.threads[tid].active {
                    return Err(format!("thread {tid}: retire outside an operation"));
                }
                // Allocate the batch (thread-local until first CAS publish).
                // For Hyaline-S this is Figure 5's init_node with Freq = 1
                // (advance the clock, stamp the birth era) — and the
                // retiring thread necessarily dereferenced the node to unlink it, so
                // its own slot's access era is raised too (the deref that
                // accompanied the unlink). Other slots keep whatever their
                // last Deref published.
                let birth = if self.config.variant == Variant::HyalineS {
                    self.clock += 1;
                    let slot = self.threads[tid].slot;
                    if self.access[slot] < self.clock {
                        self.access[slot] = self.clock;
                    }
                    self.clock
                } else {
                    0
                };
                let batch = self.batches.len();
                self.batches.push(Batch {
                    nref: 0,
                    next: vec![None; self.config.slots],
                    adjs: self.adjs,
                    freed: false,
                    birth,
                    inserted: 0,
                });
                self.threads[tid].micro = match self.config.variant {
                    Variant::Hyaline | Variant::HyalineS => Micro::RetireLoad {
                        batch,
                        slot: 0,
                        empty_adjs: 0,
                        any_empty: false,
                        inserts: 0,
                    },
                    Variant::Hyaline1 => Micro::Retire1Load {
                        batch,
                        slot: 0,
                        inserts: 0,
                    },
                };
                // Allocation itself is local; the first shared action happens
                // on the next step. Take the first load now so every step
                // performs one shared action.
                let micro = self.threads[tid].micro;
                self.continue_op(tid, micro)
            }
            Op::Leave => {
                if !self.threads[tid].active {
                    return Err(format!("thread {tid}: leave outside an operation"));
                }
                self.threads[tid].active = false;
                match self.config.variant {
                    Variant::Hyaline | Variant::HyalineS => {
                        // First atomic action: load the head (line 8).
                        self.threads[tid].micro = Micro::LeaveLoad;
                        self.continue_op(tid, Micro::LeaveLoad)
                    }
                    Variant::Hyaline1 => {
                        // Figure 4 line 5: one swap detaches the whole list.
                        let slot = self.threads[tid].slot;
                        let old = self.heads1[slot];
                        self.heads1[slot] = Head1 {
                            active: false,
                            ptr: None,
                        };
                        let handle = self.threads[tid].handle;
                        self.threads[tid].handle = None;
                        self.threads[tid].micro = self.traverse_advance(tid, old.ptr, handle, None);
                        Ok(())
                    }
                }
            }
            Op::Deref => {
                if !self.threads[tid].active {
                    return Err(format!("thread {tid}: deref outside an operation"));
                }
                // Figure 5's touch: raise this slot's access era to the
                // current clock (one CAS-max; the model is SC, so a plain
                // max-store models it).
                let slot = self.threads[tid].slot;
                let clock = self.clock;
                if self.access[slot] < clock {
                    self.access[slot] = clock;
                }
                Ok(())
            }
            Op::Stall => {
                if !self.threads[tid].active {
                    return Err(format!("thread {tid}: stall outside an operation"));
                }
                self.threads[tid].stalled = true;
                Ok(())
            }
            Op::Trim => {
                if !self.threads[tid].active {
                    return Err(format!("thread {tid}: trim outside an operation"));
                }
                match self.config.variant {
                    Variant::Hyaline | Variant::HyalineS => {
                        self.threads[tid].micro = Micro::TrimLoad;
                        self.continue_op(tid, Micro::TrimLoad)
                    }
                    Variant::Hyaline1 => {
                        // Hyaline-1 trim: load the head (sole owner, no CAS).
                        let slot = self.threads[tid].slot;
                        let head = self.heads1[slot];
                        let handle = self.threads[tid].handle;
                        if head.ptr != handle {
                            let curr = head.ptr.expect("non-handle head is non-null");
                            self.threads[tid].micro = Micro::TrimReadNext {
                                snapshot: Head {
                                    href: 1,
                                    ptr: Some(curr),
                                },
                            };
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    /// Executes one atomic action inside a multi-step operation.
    #[allow(clippy::too_many_lines)]
    fn continue_op(&mut self, tid: usize, micro: Micro) -> Result<(), String> {
        match micro {
            Micro::Ready => unreachable!("continue_op on Ready"),

            // ------------------------- Hyaline retire -----------------------
            Micro::RetireLoad {
                batch,
                slot,
                mut empty_adjs,
                mut any_empty,
                inserts,
            } => {
                debug_assert!(slot < self.config.slots);
                let head = self.heads[slot];
                // Figure 5's replacement for REF #1#: skip slots with no
                // active thread *or* whose access era predates the batch's
                // minimum birth era (no thread there can reference it).
                let era_stale = self.config.variant == Variant::HyalineS
                    && self.config.fault != Fault::IgnoreBirthEras
                    && self.access[slot] < self.batches[batch].birth;
                if head.href == 0 || era_stale {
                    any_empty = true;
                    empty_adjs = empty_adjs.wrapping_add(self.adjs);
                    self.threads[tid].micro =
                        self.retire_advance(batch, slot + 1, empty_adjs, any_empty, inserts);
                } else {
                    self.threads[tid].micro = Micro::RetireCas {
                        batch,
                        slot,
                        empty_adjs,
                        any_empty,
                        inserts,
                        snapshot: head,
                    };
                }
                Ok(())
            }
            Micro::RetireCas {
                batch,
                slot,
                empty_adjs,
                any_empty,
                inserts,
                snapshot,
            } => {
                if self.heads[slot] != snapshot {
                    // CAS failure: re-load (Figure 3's retry loop).
                    self.threads[tid].micro = Micro::RetireLoad {
                        batch,
                        slot,
                        empty_adjs,
                        any_empty,
                        inserts,
                    };
                    return Ok(());
                }
                // The insertion node's Next was written just before the CAS.
                self.batches[batch].next[slot] = snapshot.ptr;
                self.batches[batch].inserted |= 1 << slot;
                self.heads[slot] = Head {
                    href: snapshot.href,
                    ptr: Some(batch),
                };
                match snapshot.ptr {
                    Some(pred) => {
                        self.threads[tid].micro = Micro::RetireAdjustPred {
                            batch,
                            slot,
                            empty_adjs,
                            any_empty,
                            inserts,
                            pred,
                            href_snapshot: snapshot.href,
                        };
                    }
                    None => {
                        self.threads[tid].micro =
                            self.retire_advance(batch, slot + 1, empty_adjs, any_empty, inserts);
                    }
                }
                Ok(())
            }
            Micro::RetireAdjustPred {
                batch,
                slot,
                empty_adjs,
                any_empty,
                inserts,
                pred,
                href_snapshot,
            } => {
                // REF #2#: credit the predecessor with Adjs + HRef snapshot.
                let pred_adjs = self.batch(pred, "predecessor credit")?.adjs;
                let val = if self.config.fault == Fault::NoAdjsInPredecessorCredit {
                    href_snapshot
                } else {
                    pred_adjs.wrapping_add(href_snapshot)
                };
                self.adjust(pred, val, "predecessor credit")?;
                self.threads[tid].micro =
                    self.retire_advance(batch, slot + 1, empty_adjs, any_empty, inserts);
                Ok(())
            }
            Micro::RetireFinalAdjust { batch, val } => {
                self.adjust(batch, val, "final retire adjustment")?;
                self.threads[tid].micro = Micro::Ready;
                Ok(())
            }

            // ------------------------- Hyaline leave ------------------------
            Micro::LeaveLoad => {
                let slot = self.threads[tid].slot;
                let head = self.heads[slot];
                if head.ptr != self.threads[tid].handle {
                    self.threads[tid].micro = Micro::LeaveReadNext { snapshot: head };
                } else {
                    self.threads[tid].micro = Micro::LeaveCas {
                        snapshot: head,
                        next: None,
                    };
                    let m = self.threads[tid].micro;
                    return self.continue_op(tid, m);
                }
                Ok(())
            }
            Micro::LeaveReadNext { snapshot } => {
                // Figure 3 line 11: reading Curr->Next is licensed because an
                // active thread holds a reference to the head of its list —
                // the model verifies exactly that claim.
                let slot = self.threads[tid].slot;
                let curr = snapshot.ptr.expect("non-handle head is non-null");
                let next = self.batch(curr, "leave's Curr->Next read")?.next[slot];
                self.threads[tid].micro = Micro::LeaveCas { snapshot, next };
                Ok(())
            }
            Micro::LeaveCas { snapshot, next } => {
                let slot = self.threads[tid].slot;
                if self.heads[slot] != snapshot {
                    self.threads[tid].micro = Micro::LeaveLoad;
                    return Ok(());
                }
                let last = snapshot.href == 1;
                let detach = last && self.config.fault != Fault::NoDetachOnLastLeave;
                self.heads[slot] = Head {
                    href: snapshot.href - 1,
                    ptr: if detach { None } else { snapshot.ptr },
                };
                let handle = self.threads[tid].handle;
                let traverse = snapshot.ptr != handle;
                self.threads[tid].micro = match snapshot.ptr {
                    // Line 17: the detached head never gets a successor; give
                    // it its final per-slot Adjs (then traverse if needed).
                    Some(curr) if detach => Micro::LeaveDetachAdjust {
                        curr,
                        next,
                        traverse,
                    },
                    Some(_) if traverse => self.traverse_advance(tid, next, handle, None),
                    _ => {
                        self.threads[tid].handle = None;
                        Micro::Ready
                    }
                };
                Ok(())
            }
            Micro::LeaveDetachAdjust {
                curr,
                next,
                traverse,
            } => {
                let adjs = self.batch(curr, "detach adjustment")?.adjs;
                self.adjust(curr, adjs, "detach adjustment")?;
                if traverse {
                    let handle = self.threads[tid].handle;
                    self.threads[tid].micro = self.traverse_advance(tid, next, handle, None);
                } else {
                    self.threads[tid].micro = Micro::Ready;
                    self.threads[tid].handle = None;
                }
                Ok(())
            }

            // ------------------------- Hyaline trim -------------------------
            Micro::TrimLoad => {
                let slot = self.threads[tid].slot;
                let head = self.heads[slot];
                if head.ptr != self.threads[tid].handle {
                    self.threads[tid].micro = Micro::TrimReadNext { snapshot: head };
                } else {
                    self.threads[tid].micro = Micro::Ready;
                }
                Ok(())
            }
            Micro::TrimReadNext { snapshot } => {
                let slot = self.threads[tid].slot;
                let curr = snapshot.ptr.expect("non-handle head is non-null");
                let next = self.batch(curr, "trim's Curr->Next read")?.next[slot];
                let handle = self.threads[tid].handle;
                self.threads[tid].micro =
                    self.traverse_advance(tid, next, handle, Some(Some(curr)));
                Ok(())
            }

            // ------------------------- traverse ----------------------------
            Micro::Traverse {
                at,
                stop_at,
                new_handle,
            } => {
                let slot = self.threads[tid].slot;
                let curr = at.expect("Traverse is only constructed with a batch to visit");
                let next = self.batch(curr, "traverse link read")?.next[slot];
                self.adjust(curr, 1u64.wrapping_neg(), "traverse decrement")?;
                if Some(curr) == stop_at {
                    self.threads[tid].handle = new_handle.unwrap_or(None);
                    self.threads[tid].micro = Micro::Ready;
                } else {
                    self.threads[tid].micro = self.traverse_advance(tid, next, stop_at, new_handle);
                }
                Ok(())
            }

            // ------------------------- Hyaline-1 retire ---------------------
            Micro::Retire1Load {
                batch,
                slot,
                inserts,
            } => {
                debug_assert!(slot < self.config.slots);
                let head = self.heads1[slot];
                if !head.active {
                    self.threads[tid].micro = self.retire1_advance(batch, slot + 1, inserts);
                } else {
                    self.threads[tid].micro = Micro::Retire1Cas {
                        batch,
                        slot,
                        inserts,
                        snapshot: head,
                    };
                }
                Ok(())
            }
            Micro::Retire1Cas {
                batch,
                slot,
                inserts,
                snapshot,
            } => {
                if self.heads1[slot] != snapshot {
                    self.threads[tid].micro = Micro::Retire1Load {
                        batch,
                        slot,
                        inserts,
                    };
                    return Ok(());
                }
                self.batches[batch].next[slot] = snapshot.ptr;
                self.batches[batch].inserted |= 1 << slot;
                self.heads1[slot] = Head1 {
                    active: true,
                    ptr: Some(batch),
                };
                self.threads[tid].micro = self.retire1_advance(batch, slot + 1, inserts + 1);
                Ok(())
            }
        }
    }

    /// End-of-run invariants.
    ///
    /// Without stalled threads: every batch freed exactly once, every head
    /// quiescent, every thread outside an operation.
    ///
    /// With [`Op::Stall`]ed threads, the invariants become the paper's
    /// robustness claims (Theorem 4): a slot hosting stalled threads keeps
    /// exactly their `HRef` contributions; an unreclaimed batch must be
    /// *legitimately pinned* — inserted into some stalled thread's slot
    /// whose access era covered the batch's birth (for Hyaline-S, that is
    /// only possible when the slot's era was fresh at insertion time; a
    /// batch whose birth era outruns every stalled slot **must** have been
    /// reclaimed, which is exactly what [`Fault::IgnoreBirthEras`] breaks).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn finish(&self) -> Result<(), String> {
        let any_stalled = self.threads.iter().any(|t| t.stalled);
        for (t, th) in self.threads.iter().enumerate() {
            if th.stalled {
                continue;
            }
            if th.active || th.micro != Micro::Ready || th.pc < th.program.len() {
                return Err(format!("thread {t} finished mid-operation"));
            }
        }
        // Per-slot count of parked threads (their HRef units never return).
        let mut stalled_in_slot = vec![0u64; self.config.slots];
        let mut stalled_slots: u64 = 0;
        for th in self.threads.iter().filter(|t| t.stalled) {
            stalled_in_slot[th.slot] += 1;
            stalled_slots |= 1 << th.slot;
        }
        if matches!(self.config.variant, Variant::Hyaline | Variant::HyalineS) {
            for (i, head) in self.heads.iter().enumerate() {
                if head.href != stalled_in_slot[i] {
                    return Err(format!(
                        "slot {i} HRef {} at exit, expected {} (stalled threads)",
                        head.href, stalled_in_slot[i]
                    ));
                }
                if head.ptr.is_some() && stalled_in_slot[i] == 0 {
                    return Err(format!("slot {i} not quiescent at exit: {head:?}"));
                }
            }
        }
        if self.config.variant == Variant::Hyaline1 {
            for (i, head) in self.heads1.iter().enumerate() {
                let parked = stalled_in_slot[i] > 0;
                if head.active != parked || (head.ptr.is_some() && !parked) {
                    return Err(format!("slot {i} not quiescent at exit: {head:?}"));
                }
            }
        }
        for (i, b) in self.batches.iter().enumerate() {
            if !b.freed {
                if !any_stalled {
                    return Err(format!(
                        "leak: batch {i} never freed (NRef = {:#x})",
                        b.nref
                    ));
                }
                let legitimately_pinned = (0..self.config.slots).any(|s| {
                    stalled_slots & (1 << s) != 0
                        && b.inserted & (1 << s) != 0
                        && b.birth <= self.access[s]
                });
                if !legitimately_pinned {
                    return Err(format!(
                        "robustness violation: batch {i} (birth {}) unreclaimed but not \
                         pinned by any stalled slot (inserted {:#b}, stalled {stalled_slots:#b})",
                        b.birth, b.inserted
                    ));
                }
            } else if b.nref != 0 {
                return Err(format!("batch {i} freed with non-zero NRef {:#x}", b.nref));
            }
        }
        Ok(())
    }
}

impl fmt::Display for HyalineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:?} k={} batches={} freed={}",
            self.config.variant,
            self.config.slots,
            self.batches.len(),
            self.batches_freed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sequential(mut m: HyalineModel) -> HyalineModel {
        // Round-robin until everything terminates.
        loop {
            let enabled = m.enabled();
            if enabled.is_empty() {
                break;
            }
            m.step(enabled[0]).expect("no violation expected");
        }
        m
    }

    #[test]
    fn adjs_constant() {
        assert_eq!(adjs_for(1), 0);
        assert_eq!(adjs_for(2), 1 << 63);
        assert_eq!(adjs_for(8), 1 << 61);
    }

    #[test]
    fn single_thread_single_slot_reclaims() {
        let m = HyalineModel::new(
            ModelConfig {
                slots: 1,
                variant: Variant::Hyaline,
                fault: Fault::None,
            },
            vec![vec![Op::Enter(0), Op::Retire, Op::Leave]],
        );
        let m = run_sequential(m);
        assert_eq!(m.batches_created(), 1);
        assert_eq!(m.batches_freed(), 1);
        m.finish().expect("clean finish");
    }

    #[test]
    fn single_thread_multi_slot_reclaims() {
        let m = HyalineModel::new(
            ModelConfig {
                slots: 4,
                variant: Variant::Hyaline,
                fault: Fault::None,
            },
            vec![vec![
                Op::Enter(2),
                Op::Retire,
                Op::Retire,
                Op::Leave,
                Op::Enter(1),
                Op::Retire,
                Op::Leave,
            ]],
        );
        let m = run_sequential(m);
        assert_eq!(m.batches_created(), 3);
        assert_eq!(m.batches_freed(), 3);
        m.finish().expect("clean finish");
    }

    #[test]
    fn hyaline1_single_thread_reclaims() {
        let m = HyalineModel::new(
            ModelConfig {
                slots: 2,
                variant: Variant::Hyaline1,
                fault: Fault::None,
            },
            vec![
                vec![Op::Enter(0), Op::Retire, Op::Leave],
                vec![Op::Enter(1), Op::Retire, Op::Leave],
            ],
        );
        let m = run_sequential(m);
        assert_eq!(m.batches_freed(), 2);
        m.finish().expect("clean finish");
    }

    #[test]
    fn trim_makes_prior_retires_reclaimable() {
        let m = HyalineModel::new(
            ModelConfig {
                slots: 1,
                variant: Variant::Hyaline,
                fault: Fault::None,
            },
            vec![vec![
                Op::Enter(0),
                Op::Retire,
                Op::Trim,
                Op::Retire,
                Op::Leave,
            ]],
        );
        let m = run_sequential(m);
        assert_eq!(m.batches_freed(), 2);
        m.finish().expect("clean finish");
    }

    #[test]
    fn finish_detects_leaks() {
        // A thread that exits while a batch is still unreclaimed (program
        // retires without leaving is rejected earlier, so emulate a fault).
        let m = HyalineModel::new(
            ModelConfig {
                slots: 2,
                variant: Variant::Hyaline,
                fault: Fault::SkipEmptyAdjust,
            },
            // Slot 1 is never entered: every retire sees an empty slot and,
            // with the fault, drops its Adjs — the batch can never complete.
            vec![vec![Op::Enter(0), Op::Retire, Op::Leave]],
        );
        let m = run_sequential(m);
        let err = m.finish().expect_err("leak must be detected");
        assert!(err.contains("leak"), "unexpected error: {err}");
    }

    #[test]
    fn hyaline_s_single_thread_reclaims() {
        let m = HyalineModel::new(
            ModelConfig {
                slots: 2,
                variant: Variant::HyalineS,
                fault: Fault::None,
            },
            vec![vec![
                Op::Enter(0),
                Op::Deref,
                Op::Retire,
                Op::Retire,
                Op::Leave,
            ]],
        );
        let m = run_sequential(m);
        assert_eq!(m.batches_created(), 2);
        assert_eq!(m.batches_freed(), 2);
        m.finish().expect("clean finish");
    }

    #[test]
    fn deref_outside_operation_rejected() {
        let mut m = HyalineModel::new(
            ModelConfig {
                slots: 2,
                variant: Variant::HyalineS,
                fault: Fault::None,
            },
            vec![vec![Op::Deref]],
        );
        let err = m.step(0).expect_err("deref outside enter/leave");
        assert!(err.contains("outside an operation"), "got: {err}");
    }

    #[test]
    fn stall_pins_only_inserted_batches() {
        // Deterministic schedule of the miniature Figure 10a under plain
        // Hyaline: the stalled slot pins what was inserted into it; the
        // relaxed finish() accepts exactly that and nothing more.
        let mut m = HyalineModel::new(
            ModelConfig {
                slots: 2,
                variant: Variant::Hyaline,
                fault: Fault::None,
            },
            vec![
                vec![Op::Enter(0), Op::Stall],
                vec![Op::Enter(1), Op::Retire, Op::Leave],
            ],
        );
        // Thread 0 enters and stalls, then thread 1 churns.
        while m.nth_enabled(0) == Some(0) {
            m.step(0).unwrap();
        }
        while let Some(tid) = m.nth_enabled(0) {
            m.step(tid).unwrap();
        }
        m.finish().expect("bounded pinning is legitimate");
        assert_eq!(m.batches_created(), 1);
        assert_eq!(m.batches_freed(), 0, "batch pinned by the stalled slot");
    }

    #[test]
    fn stalled_slot_with_stale_era_is_skipped() {
        // Same shape under Hyaline-S: every batch is born after the stalled
        // thread's access era, so it skips slot 0 and reclaims fully.
        let mut m = HyalineModel::new(
            ModelConfig {
                slots: 2,
                variant: Variant::HyalineS,
                fault: Fault::None,
            },
            vec![
                vec![Op::Enter(0), Op::Stall],
                vec![Op::Enter(1), Op::Deref, Op::Retire, Op::Leave],
            ],
        );
        while m.nth_enabled(0) == Some(0) {
            m.step(0).unwrap();
        }
        while let Some(tid) = m.nth_enabled(0) {
            m.step(tid).unwrap();
        }
        m.finish().expect("robust finish");
        assert_eq!(m.batches_freed(), 1, "era skip must unpin the batch");
    }

    #[test]
    fn paper_figure2a_walkthrough() {
        // The exact scenario of Figure 2a: three threads on a single list.
        let cfg = ModelConfig {
            slots: 1,
            variant: Variant::Hyaline,
            fault: Fault::None,
        };
        let mut m = HyalineModel::new(
            cfg,
            vec![
                vec![Op::Enter(0), Op::Retire, Op::Leave], // T1: retires N1
                vec![Op::Enter(0), Op::Retire, Op::Leave], // T2: retires N2
                vec![Op::Enter(0), Op::Leave],             // T3: reader
            ],
        );
        // (a) T1 enters; (b) T1 retires N1 fully.
        m.step(0).unwrap(); // enter
        while m.threads[0].micro != Micro::Ready {
            m.step(0).unwrap();
        }
        m.step(0).unwrap(); // begin retire (allocates batch 0 = N1, first load)
        while m.threads[0].micro != Micro::Ready {
            m.step(0).unwrap();
        }
        // (c) T2 enters; (d) T2 begins retiring N2 but stalls before the
        // predecessor adjustment: insert CAS done, adjust pending.
        m.step(1).unwrap(); // enter
        m.step(1).unwrap(); // begin retire: load
        m.step(1).unwrap(); // CAS publishes N2, pred = N1 pending
        assert!(matches!(
            m.threads[1].micro,
            Micro::RetireAdjustPred { pred: 0, .. }
        ));
        // (e) T3 enters. (f) T1 leaves and dereferences through its handle.
        m.step(2).unwrap();
        while m.enabled().contains(&0) {
            m.step(0).unwrap();
        }
        // N1 must still be alive: its adjustment is pending (NRef negative).
        assert_eq!(m.batches_freed(), 0, "premature free of N1");
        // (g) T2 completes the adjustment; (h) T2 leaves -> frees N1.
        while m.enabled().contains(&1) {
            m.step(1).unwrap();
        }
        assert!(m.batches[0].freed, "N1 freed by T2's leave");
        assert!(!m.batches[1].freed, "N2 still held by T3");
        // (i) T3 leaves -> frees N2.
        while m.enabled().contains(&2) {
            m.step(2).unwrap();
        }
        assert!(m.batches[1].freed);
        m.finish().expect("clean finish");
    }
}
