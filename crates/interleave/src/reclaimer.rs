//! Exhaustive interleaving exploration of the deferred-flush reclaimer
//! protocol (`smr-async`): dirty check-ins and ticket pushes racing
//! background drains and the shutdown handshake.
//!
//! The protocol under test is the hand-off between connection tasks and
//! per-shard reclaimers:
//!
//! * a producer **parks a dirty handle** (retire batch accumulated, not
//!   flushed) and then **pushes one ticket** into a bounded queue;
//! * if the push is refused (queue `Full`, or `Closed` by shutdown) the
//!   producer **flushes one dirty handle inline** instead, so every parked
//!   batch always has exactly one claimant;
//! * a reclaimer loops **recv → flush-one-dirty**; after the queue is
//!   closed *and drained* it runs a final **sweep** (flush everything
//!   still dirty) and only then reports done;
//! * the service **joins** the connection fleet and the reclaimers (the
//!   executor scope runs every task to completion) and relies on the
//!   handshake contract: when the join completes, no ticket is queued and
//!   no batch is parked dirty.
//!
//! Every transition is one atomic action (each is a single mutex section
//! in the real implementation: the pool lock or the queue lock). The
//! explorer visits every reachable state of a small task set and checks:
//!
//! * **no batch dropped** — at quiescence every parked batch was flushed
//!   (`flushed == parked`), the queue is empty, and nothing is dirty;
//! * **no batch double-drained** — `flushed` never exceeds `parked`
//!   (a flush only consumes a batch that is actually parked dirty);
//! * **shutdown quiesces** — no reachable state deadlocks, and the
//!   join-point contract above holds on *every* schedule;
//! * **faults are caught** — injected protocol mutations (acknowledging
//!   shutdown before draining the backlog, dropping a `Closed` ticket
//!   without the inline fallback, freeing a batch twice) each produce a
//!   violation on some schedule.

use crate::dfs::{each_task, Model, Outcome, Successors};

/// An injected protocol mutation; [`ReclaimerFault::None`] is the correct
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReclaimerFault {
    /// The correct protocol.
    #[default]
    None,
    /// The reclaimer acknowledges shutdown the moment it observes the
    /// closed flag, *then* drains the backlog — "drain after shutdown".
    /// The join-point contract sees queued tickets or dirty handles.
    AckBeforeDrain,
    /// A producer whose push fails `Closed` skips the inline-flush
    /// fallback, orphaning its dirty handle.
    DropClosedTicket,
    /// The reclaimer frees two batches for one drained ticket.
    DoubleFlush,
}

/// A scenario: producer/reclaimer counts, queue bound, shutdown style.
#[derive(Debug, Clone)]
pub struct ReclaimerScenario {
    /// Connection tasks; each parks-and-pushes `rounds` times.
    pub producers: usize,
    /// Park/push rounds per producer.
    pub rounds: usize,
    /// Bound of the hand-off queue (forces the `Full` fallback).
    pub queue_capacity: usize,
    /// `true`: a dedicated closer task closes the queue at an arbitrary
    /// point, racing in-flight producers (exercises the `Closed`
    /// fallback). `false`: the gate closes when the last producer
    /// departs, as in the KV service.
    pub early_close: bool,
    /// Injected mutation.
    pub fault: ReclaimerFault,
    /// Human-readable description.
    pub name: String,
}

impl ReclaimerScenario {
    /// The KV-service shape: producers depart through the shutdown gate,
    /// whose last departure closes the queue.
    pub fn gated(producers: usize, rounds: usize, queue_capacity: usize) -> Self {
        Self {
            producers,
            rounds,
            queue_capacity,
            early_close: false,
            fault: ReclaimerFault::None,
            name: format!(
                "reclaimer_gated(producers={producers}, rounds={rounds}, cap={queue_capacity})"
            ),
        }
    }

    /// Shutdown racing live producers: a closer task may close the queue
    /// between any two steps, so pushes can fail `Closed` mid-flight.
    pub fn early_close(producers: usize, rounds: usize, queue_capacity: usize) -> Self {
        Self {
            producers,
            rounds,
            queue_capacity,
            early_close: true,
            fault: ReclaimerFault::None,
            name: format!(
                "reclaimer_early_close(producers={producers}, rounds={rounds}, cap={queue_capacity})"
            ),
        }
    }

    /// The same scenario with `fault` injected.
    pub fn with_fault(mut self, fault: ReclaimerFault) -> Self {
        self.fault = fault;
        self.name = format!("{} + {:?}", self.name, fault);
        self
    }
}

/// Producer micro-state within one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ProdPhase {
    /// Park a dirty handle (one pool-lock section).
    Park,
    /// `try_push` the matching ticket (one queue-lock section).
    Push,
    /// Inline `flush_one_dirty` after a refused push.
    Fallback,
    /// Departure through the shutdown gate (gated scenarios only).
    Depart,
    Finished,
}

/// Reclaimer state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RecPhase {
    /// Awaiting `recv` (blocked while the queue is open and empty).
    Recv,
    /// Holding one drained ticket; next step is `flush_one_dirty`.
    Flush,
    /// Queue closed and drained: final `flush_dirty` sweep, one handle
    /// per step.
    Sweep,
    /// [`ReclaimerFault::AckBeforeDrain`] only: draining the backlog
    /// *after* having acknowledged shutdown.
    LateDrain,
    Finished,
}

/// Everything a later step or the quiescence check reads (the soundness
/// rule of [`crate::dfs`]).
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct ModelState {
    /// Handles parked dirty (batches awaiting their flush).
    dirty: usize,
    /// Tickets in the hand-off queue.
    queued: usize,
    closed: bool,
    /// Batches parked dirty, cumulative.
    parked_total: usize,
    /// Batches flushed (inline + drain + sweep), cumulative.
    flushed_total: usize,
    prod_phase: Vec<ProdPhase>,
    prod_rounds_left: Vec<usize>,
    departed: usize,
    rec_phase: Vec<RecPhase>,
    rec_done: Vec<bool>,
    /// 0 = join reclaimers, 1 = observe quiescence, 2 = finished.
    waiter_pc: usize,
    closer_done: bool,
}

/// Task index layout: producers, then reclaimers (just one in these
/// scenarios), then the joining waiter, then the optional closer.
const RECLAIMERS: usize = 1;

fn waiter_task(scenario: &ReclaimerScenario) -> usize {
    scenario.producers + RECLAIMERS
}

fn closer_task(scenario: &ReclaimerScenario) -> usize {
    scenario.producers + RECLAIMERS + 1
}

fn task_count(scenario: &ReclaimerScenario) -> usize {
    scenario.producers + RECLAIMERS + 1 + usize::from(scenario.early_close)
}

/// Explores every reachable state of `scenario` (up to `budget` distinct
/// states), checking the reclaimer-protocol invariants at each step.
pub fn explore(scenario: &ReclaimerScenario, budget: u64) -> Outcome {
    crate::dfs::explore(scenario, budget)
}

impl Model for ReclaimerScenario {
    type State = ModelState;

    fn initial(&self) -> ModelState {
        ModelState {
            dirty: 0,
            queued: 0,
            closed: false,
            parked_total: 0,
            flushed_total: 0,
            prod_phase: vec![
                if self.rounds == 0 {
                    ProdPhase::Depart
                } else {
                    ProdPhase::Park
                };
                self.producers
            ],
            prod_rounds_left: vec![self.rounds; self.producers],
            departed: 0,
            rec_phase: vec![RecPhase::Recv; RECLAIMERS],
            rec_done: vec![false; RECLAIMERS],
            waiter_pc: 0,
            closer_done: false,
        }
    }

    fn successors(&self, state: &ModelState) -> Successors<ModelState> {
        let runnable = (0..task_count(self)).filter(|&t| enabled(self, state, t));
        each_task(state, runnable, |state, t| step(self, state, t))
    }

    fn finish(&self, state: &ModelState) -> Result<(), String> {
        check_quiescence(self, state)
    }
}

fn enabled(scenario: &ReclaimerScenario, state: &ModelState, task: usize) -> bool {
    if task < scenario.producers {
        match state.prod_phase[task] {
            ProdPhase::Finished => false,
            // Gated departure only exists in the gated scenario; in
            // early-close scenarios a producer simply finishes.
            ProdPhase::Depart => !scenario.early_close,
            _ => true,
        }
    } else if task < scenario.producers + RECLAIMERS {
        let r = task - scenario.producers;
        match state.rec_phase[r] {
            // recv parks on the queue's waker list while open and empty.
            RecPhase::Recv => state.queued > 0 || state.closed,
            RecPhase::Finished => false,
            _ => true,
        }
    } else if task == waiter_task(scenario) {
        match state.waiter_pc {
            // The service joins the whole scope: connections *and*
            // reclaimers. Joining reclaimers alone is not enough — a
            // producer racing an early close may still owe its inline
            // fallback flush after the reclaimers have swept and rejoined.
            0 => {
                state.rec_done.iter().all(|&d| d)
                    && state.prod_phase.iter().all(|&p| p == ProdPhase::Finished)
            }
            1 => true,
            _ => false,
        }
    } else {
        scenario.early_close && !state.closer_done
    }
}

fn advance_round(scenario: &ReclaimerScenario, state: &mut ModelState, task: usize) {
    state.prod_rounds_left[task] -= 1;
    state.prod_phase[task] = if state.prod_rounds_left[task] == 0 {
        if scenario.early_close {
            ProdPhase::Finished
        } else {
            ProdPhase::Depart
        }
    } else {
        ProdPhase::Park
    };
}

/// Flushes one dirty handle if any is parked; vacuous otherwise (the
/// handle a ticket referred to may have been swept or re-issued — the
/// real `flush_one_dirty` returns `false` then).
fn flush_one(state: &mut ModelState, batches: usize) {
    if state.dirty > 0 {
        state.dirty -= 1;
        state.flushed_total += batches;
    }
}

fn step(scenario: &ReclaimerScenario, state: &mut ModelState, task: usize) -> Result<(), String> {
    if task < scenario.producers {
        match state.prod_phase[task] {
            ProdPhase::Park => {
                state.dirty += 1;
                state.parked_total += 1;
                state.prod_phase[task] = ProdPhase::Push;
            }
            ProdPhase::Push => {
                if state.closed {
                    if scenario.fault == ReclaimerFault::DropClosedTicket {
                        // Faulty: the Closed refusal is ignored and the
                        // dirty handle is orphaned without a claimant.
                        advance_round(scenario, state, task);
                    } else {
                        state.prod_phase[task] = ProdPhase::Fallback;
                    }
                } else if state.queued >= scenario.queue_capacity {
                    state.prod_phase[task] = ProdPhase::Fallback; // Full
                } else {
                    state.queued += 1;
                    advance_round(scenario, state, task);
                }
            }
            ProdPhase::Fallback => {
                flush_one(state, 1);
                advance_round(scenario, state, task);
            }
            ProdPhase::Depart => {
                state.departed += 1;
                if state.departed == scenario.producers {
                    state.closed = true;
                }
                state.prod_phase[task] = ProdPhase::Finished;
            }
            ProdPhase::Finished => unreachable!("finished producer scheduled"),
        }
    } else if task < scenario.producers + RECLAIMERS {
        let r = task - scenario.producers;
        match state.rec_phase[r] {
            RecPhase::Recv => {
                if scenario.fault == ReclaimerFault::AckBeforeDrain && state.closed {
                    // Faulty: acknowledge shutdown first, drain later.
                    state.rec_done[r] = true;
                    state.rec_phase[r] = RecPhase::LateDrain;
                } else if state.queued > 0 {
                    state.queued -= 1;
                    state.rec_phase[r] = RecPhase::Flush;
                } else {
                    // closed && empty: recv returned None.
                    state.rec_phase[r] = RecPhase::Sweep;
                }
            }
            RecPhase::Flush => {
                let batches = if scenario.fault == ReclaimerFault::DoubleFlush {
                    2
                } else {
                    1
                };
                flush_one(state, batches);
                state.rec_phase[r] = RecPhase::Recv;
            }
            RecPhase::Sweep => {
                if state.dirty > 0 {
                    flush_one(state, 1);
                } else {
                    state.rec_done[r] = true;
                    state.rec_phase[r] = RecPhase::Finished;
                }
            }
            RecPhase::LateDrain => {
                if state.queued > 0 {
                    state.queued -= 1;
                    flush_one(state, 1);
                } else if state.dirty > 0 {
                    flush_one(state, 1);
                } else {
                    state.rec_phase[r] = RecPhase::Finished;
                }
            }
            RecPhase::Finished => unreachable!("finished reclaimer scheduled"),
        }
    } else if task == waiter_task(scenario) {
        match state.waiter_pc {
            0 => state.waiter_pc = 1, // join completed: all reclaimers done
            1 => {
                // The shutdown handshake's contract, checked at the join
                // point rather than only at global quiescence.
                if state.queued > 0 || state.dirty > 0 {
                    return Err(format!(
                        "shutdown handshake completed with {} ticket(s) queued and \
                         {} dirty handle(s) unflushed: retire work drained after \
                         shutdown (or never)",
                        state.queued, state.dirty
                    ));
                }
                state.waiter_pc = 2;
            }
            _ => unreachable!("finished waiter scheduled"),
        }
    } else {
        debug_assert_eq!(task, closer_task(scenario));
        state.closed = true;
        state.closer_done = true;
    }
    if state.flushed_total > state.parked_total {
        return Err(format!(
            "double drain: {} batches flushed but only {} ever parked",
            state.flushed_total, state.parked_total
        ));
    }
    Ok(())
}

fn check_quiescence(scenario: &ReclaimerScenario, state: &ModelState) -> Result<(), String> {
    let unfinished: Vec<usize> = (0..task_count(scenario))
        .filter(|&t| {
            if t < scenario.producers {
                state.prod_phase[t] != ProdPhase::Finished
            } else if t < scenario.producers + RECLAIMERS {
                state.rec_phase[t - scenario.producers] != RecPhase::Finished
            } else if t == waiter_task(scenario) {
                state.waiter_pc < 2
            } else {
                !state.closer_done
            }
        })
        .collect();
    if !unfinished.is_empty() {
        return Err(format!("deadlock: tasks {unfinished:?} blocked forever"));
    }
    if state.queued > 0 {
        return Err(format!(
            "{} ticket(s) dropped in the queue at quiescence",
            state.queued
        ));
    }
    if state.dirty > 0 {
        return Err(format!(
            "shutdown did not quiesce: {} dirty handle(s) never flushed",
            state.dirty
        ));
    }
    if state.flushed_total != state.parked_total {
        return Err(format!(
            "conservation broken: {} batches parked, {} flushed",
            state.parked_total, state.flushed_total
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::check::caught;

    /// Explores every reachable state of `scenario`, which must be safe.
    fn exhaustive(scenario: &ReclaimerScenario) {
        let outcome = explore(scenario, 1_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "exploration must be exhaustive");
        assert!(outcome.terminals > 0);
    }

    #[test]
    fn gated_shutdown_quiesces_on_every_schedule() {
        // Two producers × two rounds over a capacity-1 queue (Full
        // fallback reachable), gate-closed: every schedule must conserve
        // batches and satisfy the join-point contract.
        exhaustive(&ReclaimerScenario::gated(2, 2, 1));
    }

    #[test]
    fn early_close_races_are_absorbed_by_the_inline_fallback() {
        // A closer may close the queue between any two steps; producers
        // hitting Closed must flush inline, and the reclaimer's sweep
        // covers the rest.
        exhaustive(&ReclaimerScenario::early_close(2, 1, 1));
    }

    #[test]
    fn early_close_with_multiple_rounds_is_safe() {
        exhaustive(&ReclaimerScenario::early_close(2, 2, 1));
    }

    #[test]
    fn fault_drain_after_shutdown_is_caught() {
        // The reclaimer acknowledges shutdown before draining its
        // backlog: some schedule completes the handshake while tickets
        // or dirty handles are still outstanding.
        let scenario = ReclaimerScenario::gated(2, 1, 2).with_fault(ReclaimerFault::AckBeforeDrain);
        let violation = caught(&scenario, 1_000_000);
        assert!(
            violation.message.contains("drained after shutdown"),
            "unexpected violation: {}",
            violation.message
        );
    }

    #[test]
    fn fault_dropped_closed_ticket_is_caught() {
        // A producer ignores the Closed refusal: its batch has no
        // claimant, and on schedules where the sweep has already run the
        // batch is never flushed.
        let scenario =
            ReclaimerScenario::early_close(2, 1, 2).with_fault(ReclaimerFault::DropClosedTicket);
        let violation = caught(&scenario, 1_000_000);
        assert!(
            violation.message.contains("drained after shutdown")
                || violation.message.contains("never flushed"),
            "unexpected violation: {}",
            violation.message
        );
    }

    #[test]
    fn fault_double_flush_is_caught() {
        let scenario = ReclaimerScenario::gated(1, 1, 1).with_fault(ReclaimerFault::DoubleFlush);
        let violation = caught(&scenario, 1_000_000);
        assert!(
            violation.message.contains("double drain"),
            "unexpected violation: {}",
            violation.message
        );
    }
}
