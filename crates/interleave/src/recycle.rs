//! Exhaustive interleaving exploration of the node-recycling free list
//! (`smr_core::recycle::NodePool`): magazine spills racing refills.
//!
//! The pool moves free nodes in blocks (`smr_core::NodeBlock`, an array of
//! node addresses), and its shared state is a Treiber-style list of blocks
//! linked through their headers, with exactly two operations —
//! `push_block` (CAS-loop prepend of one exclusively-owned block) and
//! `take_all` (one unconditional `swap` of the head to null). The nodes a
//! block names never move on their own and are never written to link
//! anything, so the model's unit is the block, and its link is the block's
//! header link. The pool's list of empty spare blocks is the same list with
//! the same two operations, so this model covers it too. The safety
//! argument is an *ABA argument by construction*:
//!
//! > The classic Treiber **pop-one** (read `head`, read `head->next`, CAS
//! > `head → next`) is unsafe here because a block popped by another thread
//! > can be handed out, be in active use, and be pushed back while the
//! > first thread's CAS still compares equal — the CAS then installs the
//! > *stale* `next` snapshot, splicing a block that is no longer free into
//! > the free list. `take_all` has no such window: the moment the `swap`
//! > returns, the entire chain is unreachable from the shared head, so the
//! > detaching thread reads block links of memory it exclusively owns, and
//! > no CAS ever validates against state another thread could have
//! > recycled in the meantime. `push_block` only ever *writes* the link of
//! > a block it owns and never dereferences blocks it observed through the
//! > shared head — a stale comparand costs a retry, never a corrupt splice.
//!
//! This module checks that argument mechanically. Every transition is one
//! atomic action under sequential consistency (one head load, one swap,
//! one CAS attempt); link writes to *unpublished* blocks are folded into
//! the publishing CAS, and the reads of a detached chain's links into the
//! detaching swap, which is sound precisely because no other thread can
//! observe that memory in between — the fold is itself part of the
//! ownership argument. The explorer visits every reachable state and
//! checks, after each successful head mutation and at quiescence:
//!
//! * **list integrity** — the chain reachable from the shared head is
//!   duplicate-free and contains only blocks whose model state is *in the
//!   list* (a spliced-in magazine or in-use block is flagged immediately);
//! * **exclusive hand-out** — a block entering a magazine or a reserve
//!   must come from the free list (double hand-out);
//! * **conservation** — at quiescence every block is exactly one of:
//!   reachable in the list, in a task's reserve, parked in a magazine, or
//!   held in use; a block marked free but unreachable is a lost block.
//!
//! The fault-injected [`RecycleOp::PopOne`] mutant implements the
//! forbidden pop — snapshot `head` and `head->next` in two steps, then CAS
//! — and [`scenario::pop_one_race`](RecycleScenario::pop_one_race) drives
//! it against a concurrent refill/spill pair; the explorer must find the
//! splice. The approximate partition `len` counter is *not* modelled: it
//! only bounds capacity (a saturating counter that can at worst over- or
//! under-admit a spill) and never feeds the ownership protocol.

use crate::dfs::{each_task, Model, Outcome, Successors};

/// Where a block currently lives, from the model's omniscient view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Place {
    /// Linked into the shared free list (must be reachable from `head`).
    List,
    /// On the given task's private reserve: detached by its refill's
    /// `take_all`, not yet taken into its magazine.
    Reserve(usize),
    /// Parked in the magazine of the given task.
    Magazine(usize),
    /// Handed out by `alloc` and currently in use by the given task: its
    /// nodes are allocated, and the emptied array names a batch.
    InUse(usize),
    /// A block being pushed by the task (between the magazine pop and the
    /// publishing CAS).
    Pending(usize),
}

/// One high-level pool operation; compound operations expand into one
/// atomic action per explorer step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecycleOp {
    /// Refill: with an empty reserve, one `take_all` `swap` detaches the
    /// whole partition chain; the refill takes its top block into the
    /// magazine and keeps the rest, unread, as the task's private reserve.
    /// Nothing is pushed back: like the real refill, a later one takes the
    /// reserve's next block instead.
    Refill,
    /// Spill the magazine's newest block back to the shared list with one
    /// `push_block` (read head, then one CAS per attempt). A spill of an
    /// empty magazine does nothing.
    Spill,
    /// Hand out the magazine's newest block (local action): its nodes are
    /// allocated. An empty magazine first takes the reserve's next block —
    /// the real refill's reserve path — and with no reserve either, the
    /// allocation misses the pool.
    Alloc,
    /// Return the most recently allocated block to the magazine (local):
    /// a freed batch's block joins the freeing task's magazine whole.
    Dispose,
    /// **Fault injection**: the forbidden Treiber pop-one — read `head`,
    /// read `head->next` (a block this task does *not* own), CAS
    /// `head → next`. Exists to prove the explorer catches the ABA splice;
    /// the real pool deliberately has no such operation.
    PopOne,
}

/// Micro-state of a task inside a compound operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Micro {
    /// Between operations.
    Idle,
    /// `push_block` in flight: the block is owned, next step reads the
    /// shared head (None) or attempts the CAS (Some(observed)).
    Push {
        block: usize,
        observed: Option<usize>,
    },
    /// Faulty pop-one in flight: head snapshot, then next snapshot.
    Pop {
        observed: usize,
        next: Option<usize>,
    },
}

/// A scenario: an initial free-list population plus one program per task.
#[derive(Debug, Clone)]
pub struct RecycleScenario {
    /// Blocks initially chained into the shared list (ids `1..=nodes`).
    pub nodes: usize,
    /// Per-task operation sequences.
    pub programs: Vec<Vec<RecycleOp>>,
    /// Human-readable description.
    pub name: String,
}

impl RecycleScenario {
    /// Two tasks racing the correct protocol over a shared list of
    /// `nodes` blocks: each refills, cycles a block through alloc/dispose,
    /// and spills it back. Exercises swap-vs-push and push-vs-push races
    /// with block reuse in between.
    pub fn spill_refill(nodes: usize) -> Self {
        let program = vec![
            RecycleOp::Refill,
            RecycleOp::Alloc,
            RecycleOp::Dispose,
            RecycleOp::Spill,
        ];
        Self {
            nodes,
            programs: vec![program.clone(), program],
            name: format!("recycle_spill_refill(nodes={nodes})"),
        }
    }

    /// The ABA trap: task 0 runs the forbidden pop-one while task 1
    /// detaches the whole list (`b1` into its magazine, `b2` onto its
    /// reserve), pushes `b1` back, and takes `b2` into active use. In the
    /// interleaving where task 0 snapshots `head = b1, next = b2` before
    /// the detach and CASes after the push-back, the CAS succeeds — head is
    /// `b1` again — and splices `b2`, a block currently in use, into the
    /// free list. The explorer must find it.
    pub fn pop_one_race() -> Self {
        Self {
            nodes: 2,
            programs: vec![
                vec![RecycleOp::PopOne],
                vec![RecycleOp::Refill, RecycleOp::Spill, RecycleOp::Alloc],
            ],
            name: "recycle_pop_one_race".into(),
        }
    }
}

/// Everything a later step or the quiescence check reads, the omniscient
/// `place` of each block included (the soundness rule of [`crate::dfs`]).
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct RecState {
    /// Shared list head: block id, 0 = null.
    head: usize,
    /// `link[id - 1]`: the next-block link stored in the block's header.
    link: Vec<usize>,
    /// `place[id - 1]`: omniscient ownership state of each block.
    place: Vec<Place>,
    /// Per-task program counter, micro-state, reserve chain head,
    /// magazine, and in-use stack.
    pc: Vec<usize>,
    micro: Vec<Micro>,
    reserve: Vec<usize>,
    mags: Vec<Vec<usize>>,
    in_use: Vec<Vec<usize>>,
}

impl RecState {
    fn initial(scenario: &RecycleScenario) -> Self {
        let tasks = scenario.programs.len();
        Self {
            head: if scenario.nodes == 0 { 0 } else { 1 },
            // n1 → n2 → … → nN → null.
            link: (1..=scenario.nodes)
                .map(|id| if id == scenario.nodes { 0 } else { id + 1 })
                .collect(),
            place: vec![Place::List; scenario.nodes],
            pc: vec![0; tasks],
            micro: vec![Micro::Idle; tasks],
            reserve: vec![0; tasks],
            mags: vec![Vec::new(); tasks],
            in_use: vec![Vec::new(); tasks],
        }
    }

    /// Moves the next block of `task`'s reserve into its magazine, following
    /// the block's link. Returns whether the reserve had one.
    fn draw_reserve(&mut self, task: usize) -> bool {
        let id = self.reserve[task];
        if id == 0 {
            return false;
        }
        self.reserve[task] = self.link[id - 1];
        self.place[id - 1] = Place::Magazine(task);
        self.mags[task].push(id);
        true
    }

    /// Walks the shared list and checks integrity: no duplicates (a cycle
    /// shows up as one) and every reachable block is in [`Place::List`].
    fn check_list(&self) -> Result<(), String> {
        let mut seen = vec![false; self.link.len()];
        let mut cur = self.head;
        while cur != 0 {
            if seen[cur - 1] {
                return Err(format!(
                    "free list corrupt: block {cur} reachable twice (cycle or splice)"
                ));
            }
            seen[cur - 1] = true;
            if self.place[cur - 1] != Place::List {
                return Err(format!(
                    "free list corrupt: block {cur} reachable from head while {:?} — \
                     a stale next-snapshot was spliced in",
                    self.place[cur - 1]
                ));
            }
            cur = self.link[cur - 1];
        }
        Ok(())
    }
}

/// Explores every reachable state of `scenario` (up to `budget` distinct
/// states), checking the free-list invariants after every head mutation
/// and conservation at quiescence.
pub fn explore(scenario: &RecycleScenario, budget: u64) -> Outcome {
    crate::dfs::explore(scenario, budget)
}

impl Model for RecycleScenario {
    type State = RecState;

    fn initial(&self) -> RecState {
        RecState::initial(self)
    }

    fn successors(&self, state: &RecState) -> Successors<RecState> {
        let runnable = (0..self.programs.len()).filter(|&t| enabled(self, state, t));
        each_task(state, runnable, |state, t| step(self, state, t))
    }

    fn finish(&self, state: &RecState) -> Result<(), String> {
        check_quiescence(state)
    }
}

fn enabled(scenario: &RecycleScenario, state: &RecState, task: usize) -> bool {
    state.micro[task] != Micro::Idle || state.pc[task] < scenario.programs[task].len()
}

/// Executes one atomic action of `task`. Compound operations advance their
/// [`Micro`] state by exactly one shared access per call.
fn step(scenario: &RecycleScenario, state: &mut RecState, task: usize) -> Result<(), String> {
    match state.micro[task] {
        Micro::Idle => begin(scenario, state, task),
        Micro::Push { block, observed } => match observed {
            // Atomic action: load the shared head as the CAS comparand.
            None => {
                state.micro[task] = Micro::Push {
                    block,
                    observed: Some(state.head),
                };
                Ok(())
            }
            // Atomic action: one CAS attempt. The link store is folded in:
            // it targets the unpublished block this task owns, so no other
            // thread can observe it before the CAS succeeds (see module
            // docs — this fold *is* the ownership argument).
            Some(expected) => {
                if state.head == expected {
                    state.link[block - 1] = expected;
                    state.head = block;
                    state.place[block - 1] = Place::List;
                    state.micro[task] = Micro::Idle;
                    state.pc[task] += 1;
                    state.check_list()
                } else {
                    // CAS failure returns the freshly observed head.
                    state.micro[task] = Micro::Push {
                        block,
                        observed: Some(state.head),
                    };
                    Ok(())
                }
            }
        },
        Micro::Pop { observed, next } => match next {
            // Atomic action: read `observed->next` — a block this task does
            // NOT own. The model allows the stale read (that is the bug
            // under test); the splice it enables is caught at the CAS.
            None => {
                state.micro[task] = Micro::Pop {
                    observed,
                    next: Some(state.link[observed - 1]),
                };
                Ok(())
            }
            // Atomic action: one CAS attempt against the stale snapshots.
            Some(nx) => {
                if state.head == observed {
                    if state.place[observed - 1] != Place::List {
                        return Err(format!(
                            "pop-one handed out block {observed} while {:?} (double hand-out)",
                            state.place[observed - 1]
                        ));
                    }
                    state.head = nx;
                    state.place[observed - 1] = Place::Magazine(task);
                    state.mags[task].push(observed);
                    state.micro[task] = Micro::Idle;
                    state.pc[task] += 1;
                    state.check_list()
                } else if state.head == 0 {
                    // Restarted against an empty list: pop misses.
                    state.micro[task] = Micro::Idle;
                    state.pc[task] += 1;
                    Ok(())
                } else {
                    state.micro[task] = Micro::Pop {
                        observed: state.head,
                        next: None,
                    };
                    Ok(())
                }
            }
        },
    }
}

/// Starts the operation at `pc`, performing its first atomic action.
fn begin(scenario: &RecycleScenario, state: &mut RecState, task: usize) -> Result<(), String> {
    match scenario.programs[task][state.pc[task]] {
        // Atomic action (with an empty reserve): `swap(head, 0)`.
        // Everything the swap detaches is
        // exclusively owned from this instant — the model moves the top
        // block into the task's magazine and the rest onto its reserve
        // within the same step, reading the links of owned blocks only.
        RecycleOp::Refill => {
            if state.draw_reserve(task) {
                // A local action: the reserve's next block, by its link.
                state.pc[task] += 1;
                return Ok(());
            }
            let mut cur = state.head;
            state.head = 0;
            let mut top = true;
            while cur != 0 {
                if state.place[cur - 1] != Place::List {
                    return Err(format!(
                        "refill detached block {cur} while {:?} (double hand-out)",
                        state.place[cur - 1]
                    ));
                }
                if top {
                    state.place[cur - 1] = Place::Magazine(task);
                    state.mags[task].push(cur);
                    state.reserve[task] = state.link[cur - 1];
                    top = false;
                } else {
                    state.place[cur - 1] = Place::Reserve(task);
                }
                cur = state.link[cur - 1];
            }
            state.pc[task] += 1;
            Ok(())
        }
        // Local action: pop the magazine's newest block to publish. The
        // first shared access is the head read in the next step. Like the
        // real `flush`, a spill of an empty magazine returns early.
        RecycleOp::Spill => {
            let Some(id) = state.mags[task].pop() else {
                state.pc[task] += 1;
                return Ok(());
            };
            state.place[id - 1] = Place::Pending(task);
            state.micro[task] = Micro::Push {
                block: id,
                observed: None,
            };
            Ok(())
        }
        // Local action: magazine → in use. An empty magazine takes the
        // reserve's next block by its link, as the real refill does; with
        // no reserve either it is a pool miss: the real `alloc` falls back
        // to the global allocator, so the model mints a fresh block (which
        // later disposes and spills into the pool like any other — exactly
        // the real flow).
        RecycleOp::Alloc => {
            if state.mags[task].is_empty() {
                state.draw_reserve(task);
            }
            let id = match state.mags[task].pop() {
                Some(id) => id,
                None => {
                    state.link.push(0);
                    state.place.push(Place::InUse(task));
                    state.link.len()
                }
            };
            state.place[id - 1] = Place::InUse(task);
            state.in_use[task].push(id);
            state.pc[task] += 1;
            Ok(())
        }
        // Local action: in use → magazine.
        RecycleOp::Dispose => {
            let id = state.in_use[task]
                .pop()
                .ok_or_else(|| format!("scenario bug: task {task} disposes nothing"))?;
            state.place[id - 1] = Place::Magazine(task);
            state.mags[task].push(id);
            state.pc[task] += 1;
            Ok(())
        }
        // Atomic action: the forbidden pop's head snapshot.
        RecycleOp::PopOne => {
            if state.head == 0 {
                state.pc[task] += 1; // empty list: pop misses
                return Ok(());
            }
            state.micro[task] = Micro::Pop {
                observed: state.head,
                next: None,
            };
            Ok(())
        }
    }
}

/// Conservation at quiescence: every block is in exactly one place and
/// every free block is reachable.
fn check_quiescence(state: &RecState) -> Result<(), String> {
    state.check_list()?;
    let mut reachable = vec![false; state.link.len()];
    let mut cur = state.head;
    while cur != 0 {
        reachable[cur - 1] = true;
        cur = state.link[cur - 1];
    }
    for (i, place) in state.place.iter().enumerate() {
        match place {
            Place::List if !reachable[i] => {
                return Err(format!("lost block {} (free but unreachable)", i + 1));
            }
            Place::Pending(task) => {
                return Err(format!(
                    "block {} still pending in task {task}'s unpublished push",
                    i + 1
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::check::caught;

    /// Explores every reachable state of `scenario`, which must be safe.
    fn exhaustive(scenario: &RecycleScenario) {
        let outcome = explore(scenario, 1_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "exploration must be exhaustive");
        assert!(outcome.terminals > 0);
    }

    #[test]
    fn spill_refill_all_interleavings_safe() {
        // The real protocol (take_all + push_block only): every schedule of
        // two tasks refilling, reusing, and spilling over a shared list
        // must keep the list intact and conserve every block.
        exhaustive(&RecycleScenario::spill_refill(3));
    }

    #[test]
    fn empty_list_refills_miss_safely() {
        // Three tasks racing over a single-block list: most refills miss or
        // detach nothing; nothing may be lost or duplicated regardless.
        exhaustive(&RecycleScenario {
            nodes: 1,
            programs: vec![vec![RecycleOp::Refill, RecycleOp::Spill]; 3],
            name: "recycle_contended_single_node".into(),
        });
    }

    #[test]
    fn spill_refill_scenarios_conserve_under_spill_skew() {
        // Asymmetric programs: one task takes a second block off its reserve
        // and pushes two blocks back to back, racing both a concurrent swap
        // and a concurrent push.
        exhaustive(&RecycleScenario {
            nodes: 4,
            programs: vec![
                vec![RecycleOp::Refill, RecycleOp::Spill],
                vec![
                    RecycleOp::Refill,
                    RecycleOp::Alloc,
                    RecycleOp::Alloc,
                    RecycleOp::Dispose,
                    RecycleOp::Dispose,
                    RecycleOp::Spill,
                    RecycleOp::Spill,
                ],
            ],
            name: "recycle_spill_skew".into(),
        });
    }

    #[test]
    fn pop_one_mutant_is_caught() {
        // The fault-injected Treiber pop-one must be caught: some schedule
        // lets the pop CAS succeed against stale snapshots and splice a
        // block in use into the free list.
        let violation = caught(&RecycleScenario::pop_one_race(), 1_000_000);
        assert!(
            violation.message.contains("free list corrupt")
                || violation.message.contains("double hand-out"),
            "unexpected violation: {}",
            violation.message
        );
    }

    #[test]
    fn pop_one_schedule_is_reproducible() {
        // The search is deterministic: the same counterexample every time.
        let first = explore(&RecycleScenario::pop_one_race(), 1_000_000)
            .violation
            .expect("violation");
        let second = explore(&RecycleScenario::pop_one_race(), 1_000_000)
            .violation
            .expect("violation");
        assert_eq!(first, second);
    }
}
