//! Exhaustive interleaving exploration of the handle-pool protocol
//! (`smr_core::HandlePool`): checkout, check-in and cancellation racing
//! each other and `enter`/`leave`.
//!
//! The pool is an array of slots plus a mutex that exists only for
//! waiting, and the two halves meet in a handshake over one counter:
//!
//! * a check-in **publishes its slot**, then **reads `waiting`**, and only
//!   if that is non-zero takes the mutex to pass a signal on;
//! * a waiter takes the mutex and **registers** (a blocked thread counts
//!   itself among the sleepers, a future joins the FIFO queue), **bumps
//!   `waiting`**, then **scans the slots again** before it sleeps on the
//!   condvar or returns `Pending`.
//!
//! Nothing here is "one mutex section" any more, so every one of those is
//! its own atomic action in the model, as are taking and releasing the
//! mutex, the condvar wait (which releases the mutex and sleeps in one
//! step), and the delivery of a wake-up *after* the mutex has been
//! released. State that only a mutex holder can see (the sleeper count,
//! the queue) changes together with the action that takes or releases the
//! mutex; a scan of the slots is one action, because the handshake is per
//! slot and every waiter scans with the mutex held. `notify_one` wakes
//! exactly one sleeping thread and the model branches over which.
//!
//! The explorer visits every reachable state of a small task set (states
//! are memoised: the step count per task is too high to enumerate
//! schedules) and checks:
//!
//! * **no parked reservation** — a handle is inactive when it is claimed
//!   or parked: **a handle must only be parked after its `leave`**,
//!   otherwise the next task receives a handle whose reservation pins
//!   reclamation for ever;
//! * **progress** — no reachable state is stuck with unfinished tasks: a
//!   blocked checkout or a pending future is always eventually served (no
//!   lost wake-up);
//! * **quiescence** — when every task has finished, every created handle
//!   is parked and inactive, `waiting` is zero, nobody is registered and
//!   the mutex is free.
//!
//! That a slot has one holder and that no more than `capacity` handles
//! exist hold by construction — a claim is a compare-exchange on one of
//! `capacity` slots — so they are not checks.
//!
//! The deliberately wrong check-in order ([`PoolFault::ReadBeforePublish`]:
//! read `waiting`, *then* publish the slot) is caught as a reachable
//! deadlock: the waiter registers and scans between the two, finds
//! nothing, and goes to sleep on a handle nobody will announce. So is a
//! cancelled future that keeps the signal it absorbed
//! ([`PoolFault::CancelKeepsSignal`]).

use std::collections::{HashSet, VecDeque};

/// One operation of a pool task; each expands into the atomic actions of
/// the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolOp {
    /// `HandlePool::checkout`: take a parked handle or create one while
    /// under the cap; sleeps on the condvar when the pool is exhausted.
    Checkout,
    /// `HandlePool::check_out().await`: the lock-free path while nobody
    /// waits, else the FIFO waiter queue.
    Await,
    /// `check_out()` polled and, while it is pending, possibly dropped: a
    /// cancelled task abandons the rest of its round (it resumes after its
    /// next [`PoolOp::Checkin`]).
    AwaitOrCancel,
    /// `enter` on the held handle (begin an operation / reservation).
    Enter,
    /// `leave` on the held handle (end the reservation).
    Leave,
    /// Park the held handle back into the pool.
    Checkin,
}

/// An injected protocol mutation; [`PoolFault::None`] is the correct
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolFault {
    /// The correct protocol.
    #[default]
    None,
    /// A check-in reads `waiting` before it publishes its slot.
    ReadBeforePublish,
    /// A cancelled future leaves the queue without passing on the signal it
    /// may have absorbed.
    CancelKeepsSignal,
}

/// A scenario: a pool capacity plus one program per task.
#[derive(Debug, Clone)]
pub struct PoolScenario {
    /// Maximum handles the pool may ever create.
    pub capacity: usize,
    /// Per-task operation sequences.
    pub programs: Vec<Vec<PoolOp>>,
    /// Injected mutation.
    pub fault: PoolFault,
    /// Human-readable description.
    pub name: String,
}

impl PoolScenario {
    /// `tasks` well-behaved tasks (`checkout → enter → leave → checkin`),
    /// each repeated `rounds` times, over a pool of `capacity` handles.
    pub fn round_trips(tasks: usize, rounds: usize, capacity: usize) -> Self {
        Self::mixed(&vec![PoolOp::Checkout; tasks], rounds, capacity)
    }

    /// One task per entry of `takes` (the flavour of checkout it uses),
    /// each running `rounds` rounds of `take → enter → leave → checkin`.
    pub fn mixed(takes: &[PoolOp], rounds: usize, capacity: usize) -> Self {
        let program = |take: PoolOp| -> Vec<PoolOp> {
            (0..rounds)
                .flat_map(|_| [take, PoolOp::Enter, PoolOp::Leave, PoolOp::Checkin])
                .collect()
        };
        Self {
            capacity,
            programs: takes.iter().map(|&take| program(take)).collect(),
            fault: PoolFault::None,
            name: format!("pool_rounds(takes={takes:?}, rounds={rounds}, cap={capacity})"),
        }
    }

    /// The same scenario with `fault` injected.
    pub fn with_fault(mut self, fault: PoolFault) -> Self {
        self.fault = fault;
        self.name = format!("{} + {:?}", self.name, fault);
        self
    }
}

/// A safety violation found under some schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolViolation {
    /// What went wrong.
    pub message: String,
    /// The task indices scheduled, in order, up to the violating step: a
    /// shortest schedule that reaches it.
    pub schedule: Vec<usize>,
}

/// Result of exploring a [`PoolScenario`].
#[derive(Debug, Clone)]
pub struct PoolOutcome {
    /// Distinct states visited.
    pub states: u64,
    /// First violation encountered, if any.
    pub violation: Option<PoolViolation>,
    /// Whether every reachable state fit in the budget.
    pub complete: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Vacant,
    Held,
    Parked,
}

/// Where a task stands inside its current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// At the start of the operation at `pc`.
    Start,
    /// A fresh future read `waiting == 0`: lock-free claim next.
    FastClaim,
    /// Takes the mutex and registers (sleeper count or waiter queue).
    Lock,
    /// A notified thread or a woken future, already registered, takes the
    /// mutex again.
    Relock,
    /// Registered, mutex held: bumps `waiting`.
    Bump,
    /// Mutex held: scans the slots; a queued future only if it is at the
    /// front.
    Rescan,
    /// Blocked thread, scan failed: the condvar wait, which releases the
    /// mutex and sleeps in one step.
    Wait,
    /// Asleep on the condvar (disabled until notified).
    Asleep,
    /// Queued future, scan failed, mutex released: pending (disabled until
    /// woken; a cancellable one may be dropped at any time).
    Pending,
    /// Holds a claimed slot and the mutex: drops `waiting`.
    Unbump,
    /// Blocked thread done: leaves the sleeper count, releases the mutex.
    Unlock,
    /// Cancelled future holds the mutex and has left the queue: drops
    /// `waiting`.
    CancelUnbump,
    /// Check-in: stores the slot's state.
    Publish,
    /// Check-in: reads `waiting`.
    ReadWaiting,
    /// Check-in saw a waiter: takes the mutex.
    SignalLock,
    /// Mutex held: decides whom to wake and releases the mutex.
    Signal,
    /// Mutex released: delivers the wake-ups decided under it.
    Fire {
        /// The async waiter whose waker was cloned.
        wake: Option<usize>,
        /// Whether a sleeper was counted.
        notify: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Task {
    pc: usize,
    phase: Phase,
    held: Option<usize>,
    /// The value a faulty check-in read from `waiting` before publishing.
    saw_waiting: bool,
    /// Whether finishing the signal ends a cancellation (skip the round)
    /// rather than a checkout or check-in (next operation).
    cancelling: bool,
    /// This future's waker has been called since its last poll.
    woken: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    slots: Vec<Slot>,
    /// `active[s]`: slot `s`'s handle is inside an operation.
    active: Vec<bool>,
    waiting: usize,
    /// The task holding the waiting mutex.
    mutex: Option<usize>,
    /// Blocked threads registered under the mutex.
    sleepers: usize,
    /// Queued futures, FIFO.
    queue: Vec<usize>,
    tasks: Vec<Task>,
}

impl State {
    /// The scan-and-claim of `HandlePool::try_claim`: a parked slot first,
    /// else a vacant one (its handle is created by the claimer).
    fn claim(&mut self) -> Option<usize> {
        let wanted = |want: Slot| self.slots.iter().position(|&s| s == want);
        let slot = wanted(Slot::Parked).or_else(|| wanted(Slot::Vacant))?;
        self.slots[slot] = Slot::Held;
        Some(slot)
    }
}

/// Explores every reachable state of `scenario` (up to `budget` distinct
/// states, breadth first), checking the pool-protocol invariants at each
/// step.
pub fn explore(scenario: &PoolScenario, budget: u64) -> PoolOutcome {
    let task = Task {
        pc: 0,
        phase: Phase::Start,
        held: None,
        saw_waiting: false,
        cancelling: false,
        woken: false,
    };
    let initial = State {
        slots: vec![Slot::Vacant; scenario.capacity],
        active: vec![false; scenario.capacity],
        waiting: 0,
        mutex: None,
        sleepers: 0,
        queue: Vec::new(),
        tasks: vec![task; scenario.programs.len()],
    };
    // `reached_by[id]`: the state and the task whose step first reached
    // state `id`; the frontier holds the states not yet expanded.
    let mut reached_by: Vec<Option<(usize, usize)>> = vec![None];
    let mut seen = HashSet::from([initial.clone()]);
    let mut frontier = VecDeque::from([(0, initial)]);
    let mut outcome = PoolOutcome {
        states: 1,
        violation: None,
        complete: true,
    };
    let schedule_to = |reached_by: &[Option<(usize, usize)>], mut at: usize| {
        let mut schedule = Vec::new();
        while let Some((parent, task)) = reached_by[at] {
            schedule.push(task);
            at = parent;
        }
        schedule.reverse();
        schedule
    };
    while let Some((id, state)) = frontier.pop_front() {
        let mut moved = false;
        for task in 0..scenario.programs.len() {
            let successors = match step(scenario, &state, task) {
                Ok(successors) => successors,
                Err(message) => {
                    let mut schedule = schedule_to(&reached_by, id);
                    schedule.push(task);
                    outcome.violation = Some(PoolViolation { message, schedule });
                    return outcome;
                }
            };
            for successor in successors {
                moved = true;
                if seen.contains(&successor) {
                    continue;
                }
                if outcome.states >= budget {
                    outcome.complete = false;
                    return outcome;
                }
                seen.insert(successor.clone());
                frontier.push_back((reached_by.len(), successor));
                reached_by.push(Some((id, task)));
                outcome.states += 1;
            }
        }
        if !moved {
            if let Err(message) = check_terminal(scenario, &state) {
                outcome.violation = Some(PoolViolation {
                    message,
                    schedule: schedule_to(&reached_by, id),
                });
                return outcome;
            }
        }
    }
    outcome
}

/// A state nobody can move from: every task must have finished, and the
/// pool must be quiescent.
fn check_terminal(scenario: &PoolScenario, state: &State) -> Result<(), String> {
    let unfinished: Vec<usize> = (0..scenario.programs.len())
        .filter(|&t| state.tasks[t].pc < scenario.programs[t].len())
        .collect();
    if !unfinished.is_empty() {
        return Err(format!("deadlock: tasks {unfinished:?} blocked forever"));
    }
    if state.slots.contains(&Slot::Held) {
        return Err("leak at quiescence: a handle is still held".into());
    }
    if state.active.iter().any(|&a| a) {
        return Err("active handle at quiescence".into());
    }
    if state.waiting != 0 || state.sleepers != 0 || !state.queue.is_empty() {
        return Err(format!(
            "waiter accounting at quiescence: waiting {}, sleepers {}, queued {:?}",
            state.waiting, state.sleepers, state.queue
        ));
    }
    if state.mutex.is_some() {
        return Err("the waiting mutex is held at quiescence".into());
    }
    Ok(())
}

/// The successors of `state` when `task` takes its next atomic action:
/// none when the task is finished or disabled, several when the action is
/// a choice (which sleeper `notify_one` wakes; re-poll or cancel).
fn step(scenario: &PoolScenario, state: &State, task: usize) -> Result<Vec<State>, String> {
    let program = &scenario.programs[task];
    let me = &state.tasks[task];
    let Some(&op) = program.get(me.pc) else {
        return Ok(Vec::new());
    };
    let mutex_free = state.mutex.is_none();
    let mut s = state.clone();
    // Ends the current operation.
    let advance = |s: &mut State| {
        let me = &mut s.tasks[task];
        me.pc += 1;
        me.phase = Phase::Start;
    };
    let holding = |s: &State| {
        s.tasks[task]
            .held
            .ok_or_else(|| format!("task {task} ran {op:?} without a handle"))
    };
    let phase = |s: &mut State, phase: Phase| s.tasks[task].phase = phase;
    // A claim succeeded: the task holds `slot`.
    let acquire = |s: &mut State, slot: usize| -> Result<(), String> {
        if s.active[slot] {
            return Err(format!(
                "handle {slot} checked out by task {task} while still inside \
                 an operation (parked before its leave)"
            ));
        }
        s.tasks[task].held = Some(slot);
        Ok(())
    };
    let is_future = matches!(op, PoolOp::Await | PoolOp::AwaitOrCancel);

    match (op, me.phase) {
        (PoolOp::Enter, _) => {
            let slot = holding(&s)?;
            s.active[slot] = true;
            advance(&mut s);
        }
        (PoolOp::Leave, _) => {
            let slot = holding(&s)?;
            s.active[slot] = false;
            advance(&mut s);
        }

        // ── check-in: publish, read `waiting`, signal ──────────────────
        (PoolOp::Checkin, Phase::Start) => {
            let first = match scenario.fault {
                PoolFault::ReadBeforePublish => Phase::ReadWaiting,
                _ => Phase::Publish,
            };
            phase(&mut s, first);
            return step(scenario, &s, task);
        }
        (PoolOp::Checkin, Phase::Publish) => {
            let slot = holding(&s)?;
            if s.active[slot] {
                return Err(format!(
                    "handle {slot} parked by task {task} while still inside \
                     an operation: its reservation would pin reclamation forever"
                ));
            }
            s.tasks[task].held = None;
            s.slots[slot] = Slot::Parked;
            let saw_waiting = std::mem::take(&mut s.tasks[task].saw_waiting);
            match scenario.fault {
                PoolFault::ReadBeforePublish if saw_waiting => phase(&mut s, Phase::SignalLock),
                PoolFault::ReadBeforePublish => advance(&mut s),
                _ => phase(&mut s, Phase::ReadWaiting),
            }
        }
        (PoolOp::Checkin, Phase::ReadWaiting) => {
            let waiting = s.waiting != 0;
            match scenario.fault {
                PoolFault::ReadBeforePublish => {
                    s.tasks[task].saw_waiting = waiting;
                    phase(&mut s, Phase::Publish);
                }
                _ if waiting => phase(&mut s, Phase::SignalLock),
                _ => advance(&mut s),
            }
        }
        (_, Phase::SignalLock) => {
            if !mutex_free {
                return Ok(Vec::new());
            }
            s.mutex = Some(task);
            phase(&mut s, Phase::Signal);
        }
        (_, Phase::Signal) => {
            // `HandlePool::signal`: anything to take? Then the front
            // waker, and the condvar if a sleeper is counted.
            let available = s.slots.iter().any(|&slot| slot != Slot::Held);
            let pass = available
                && !(s.tasks[task].cancelling && scenario.fault == PoolFault::CancelKeepsSignal);
            let wake = s.queue.first().copied().filter(|_| pass);
            let notify = pass && s.sleepers > 0;
            s.mutex = None;
            phase(&mut s, Phase::Fire { wake, notify });
        }
        (_, Phase::Fire { wake, notify }) => {
            if let Some(waiter) = wake {
                s.tasks[waiter].woken = true;
            }
            if s.tasks[task].cancelling {
                // The rest of the round is abandoned.
                let me = &mut s.tasks[task];
                me.cancelling = false;
                let rest = &program[me.pc..];
                let skip = rest.iter().position(|&op| op == PoolOp::Checkin);
                me.pc += skip.map_or(rest.len(), |at| at + 1);
                me.phase = Phase::Start;
            } else {
                advance(&mut s);
            }
            let asleep: Vec<usize> = (0..s.tasks.len())
                .filter(|&t| s.tasks[t].phase == Phase::Asleep)
                .collect();
            if notify && !asleep.is_empty() {
                // `notify_one` wakes exactly one sleeper: branch over which.
                return Ok(asleep
                    .into_iter()
                    .map(|sleeper| {
                        let mut woken = s.clone();
                        woken.tasks[sleeper].phase = Phase::Relock;
                        woken
                    })
                    .collect());
            }
        }

        // ── checkout, all three flavours ──────────────────────────────
        (PoolOp::Checkin, _) => unreachable!("check-in phases are covered above"),
        (_, Phase::Start) if is_future && s.waiting != 0 => phase(&mut s, Phase::Lock),
        (_, Phase::Start) if is_future => phase(&mut s, Phase::FastClaim),
        // A blocking checkout barges: it scans without reading `waiting`.
        (_, Phase::Start | Phase::FastClaim) => match s.claim() {
            Some(slot) => {
                acquire(&mut s, slot)?;
                advance(&mut s);
            }
            None => phase(&mut s, Phase::Lock),
        },
        (_, Phase::Lock) => {
            if !mutex_free {
                return Ok(Vec::new());
            }
            s.mutex = Some(task);
            if is_future {
                s.queue.push(task);
                s.tasks[task].woken = false;
            } else {
                s.sleepers += 1;
            }
            phase(&mut s, Phase::Bump);
        }
        (_, Phase::Relock) => {
            if !mutex_free {
                return Ok(Vec::new());
            }
            s.mutex = Some(task);
            phase(&mut s, Phase::Rescan);
        }
        (_, Phase::Bump) => {
            s.waiting += 1;
            phase(&mut s, Phase::Rescan);
        }
        (_, Phase::Rescan) => {
            let may_take = !is_future || s.queue.first() == Some(&task);
            match may_take.then(|| s.claim()).flatten() {
                Some(slot) => {
                    acquire(&mut s, slot)?;
                    if is_future {
                        s.queue.retain(|&t| t != task);
                    }
                    phase(&mut s, Phase::Unbump);
                }
                None if is_future => {
                    s.mutex = None;
                    phase(&mut s, Phase::Pending);
                }
                None => phase(&mut s, Phase::Wait),
            }
        }
        (_, Phase::Wait) => {
            s.mutex = None;
            phase(&mut s, Phase::Asleep);
        }
        (_, Phase::Asleep) => return Ok(Vec::new()),
        (_, Phase::Pending) => {
            let mut successors = Vec::new();
            if me.woken {
                let mut polled = s.clone();
                polled.tasks[task].woken = false;
                polled.tasks[task].phase = Phase::Relock;
                successors.push(polled);
            }
            if op == PoolOp::AwaitOrCancel && mutex_free {
                // `CheckOut::drop`: take the mutex, leave the queue.
                s.mutex = Some(task);
                s.queue.retain(|&t| t != task);
                phase(&mut s, Phase::CancelUnbump);
                successors.push(s);
            }
            return Ok(successors);
        }
        (_, Phase::Unbump) => {
            s.waiting -= 1;
            // A future hands the remaining availability on; a thread just
            // leaves.
            let then = if is_future {
                Phase::Signal
            } else {
                Phase::Unlock
            };
            phase(&mut s, then);
        }
        (_, Phase::Unlock) => {
            s.sleepers -= 1;
            s.mutex = None;
            advance(&mut s);
        }
        (_, Phase::CancelUnbump) => {
            s.waiting -= 1;
            s.tasks[task].cancelling = true;
            phase(&mut s, Phase::Signal);
        }
        (_, Phase::Publish | Phase::ReadWaiting) => {
            unreachable!("only a check-in publishes")
        }
    }
    Ok(vec![s])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn safe(scenario: &PoolScenario, budget: u64) -> PoolOutcome {
        let outcome = explore(scenario, budget);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "exploration must be exhaustive");
        assert!(outcome.states > 1);
        outcome
    }

    #[test]
    fn round_trips_within_capacity_are_safe() {
        safe(&PoolScenario::round_trips(2, 2, 2), 1_000_000);
    }

    #[test]
    fn oversubscribed_tasks_share_one_handle_without_deadlock() {
        // Three tasks over a single-handle pool: every schedule must
        // complete (the blocked checkouts are eventually served) and the
        // handle must never be parked active.
        safe(&PoolScenario::round_trips(3, 1, 1), 1_000_000);
    }

    #[test]
    fn checkin_racing_leave_is_caught() {
        // The buggy ordering: park the handle *before* leave. Some other
        // task can then check it out mid-operation; every interleaving that
        // reaches the park must be flagged.
        let scenario = PoolScenario {
            capacity: 1,
            programs: vec![
                vec![
                    PoolOp::Checkout,
                    PoolOp::Enter,
                    PoolOp::Checkin,
                    PoolOp::Leave,
                ],
                vec![
                    PoolOp::Checkout,
                    PoolOp::Enter,
                    PoolOp::Leave,
                    PoolOp::Checkin,
                ],
            ],
            fault: PoolFault::None,
            name: "checkin_before_leave".into(),
        };
        let outcome = explore(&scenario, 1_000_000);
        let violation = outcome.violation.expect("the race must be detected");
        assert!(
            violation.message.contains("inside an operation"),
            "unexpected violation: {}",
            violation.message
        );
    }

    #[test]
    fn nested_checkout_self_deadlock_is_caught() {
        // A task re-checking-out while holding the only handle can never
        // proceed: the explorer must report the deadlock, not hang.
        let scenario = PoolScenario {
            capacity: 1,
            programs: vec![vec![PoolOp::Checkout, PoolOp::Checkout]],
            fault: PoolFault::None,
            name: "nested_checkout".into(),
        };
        let outcome = explore(&scenario, 1_000);
        let violation = outcome.violation.expect("deadlock must be detected");
        assert!(violation.message.contains("deadlock"), "{violation:?}");
    }

    #[test]
    fn capacity_is_never_exceeded() {
        // With cap 2 and four eager tasks, two of them must wait in every
        // interleaving, and all four are served.
        safe(&PoolScenario::round_trips(4, 1, 2), 2_000_000);
    }

    #[test]
    fn handshake_serves_threads_futures_and_cancellations() {
        // 2 handles × 3 tasks, one of each flavour, two rounds each: a
        // blocked thread, a queued future and a future that may be dropped
        // while pending (woken or not) in every order.
        let takes = [PoolOp::Checkout, PoolOp::Await, PoolOp::AwaitOrCancel];
        safe(&PoolScenario::mixed(&takes, 2, 2), 5_000_000);
        // The same over one handle, where somebody always waits.
        safe(&PoolScenario::mixed(&takes, 1, 1), 5_000_000);
        // Futures only: the FIFO queue with a cancellation in the middle.
        let futures = [PoolOp::Await, PoolOp::AwaitOrCancel, PoolOp::Await];
        safe(&PoolScenario::mixed(&futures, 1, 1), 5_000_000);
    }

    #[test]
    fn reading_waiting_before_publishing_is_caught() {
        // The wrong order of the check-in's two steps loses a wake-up: the
        // waiter registers and scans between them.
        let takes = [PoolOp::Checkout, PoolOp::Await, PoolOp::AwaitOrCancel];
        for scenario in [
            PoolScenario::round_trips(2, 1, 1),
            PoolScenario::mixed(&[PoolOp::Await, PoolOp::Await], 1, 1),
            PoolScenario::mixed(&takes, 2, 2),
        ] {
            let outcome = explore(
                &scenario.with_fault(PoolFault::ReadBeforePublish),
                5_000_000,
            );
            let violation = outcome
                .violation
                .expect("the lost wake-up must be reachable");
            assert!(violation.message.contains("deadlock"), "{violation:?}");
        }
    }

    #[test]
    fn cancellation_that_keeps_its_signal_is_caught() {
        // A future woken for a parked handle and then dropped must wake the
        // next waiter, or that one waits on a handle that is already there.
        let futures = [PoolOp::Await, PoolOp::AwaitOrCancel, PoolOp::Await];
        let scenario = PoolScenario::mixed(&futures, 1, 1);
        let outcome = explore(
            &scenario.with_fault(PoolFault::CancelKeepsSignal),
            5_000_000,
        );
        let violation = outcome
            .violation
            .expect("the lost signal must be reachable");
        assert!(violation.message.contains("deadlock"), "{violation:?}");
    }
}
