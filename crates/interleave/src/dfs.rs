//! The one search every model shares: a depth-first walk over every
//! reachable state, each state visited once.
//!
//! A model is a start state, the states one atomic action away from any
//! state (tagged with the task that took the action), and a check of the
//! states no task can leave. `explore` keeps a visited set, so two
//! schedules that reach the same state share the rest of the search: the
//! cost is the number of distinct states, not the number of interleavings.
//! A counterexample's schedule is rebuilt from the parent-index table
//! (`reached_by`), which records the state and task that first reached each
//! state.
//!
//! **Soundness rule.** Deduplication is exact only if the hashed state holds
//! everything a later step or check reads: two states that compare equal
//! must have the same futures. Every model's state type says so on its
//! declaration, and no model reads the schedule; the search alone builds
//! it, for the [`Violation`].
//!
//! Deduplication also removes the need for a step cap: the modelled
//! algorithms are lock-free or blocking-with-wake-up, so a step that leads
//! back to a state on the current path is a cycle without progress, and the
//! search reports it as a livelock.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A safety violation found under some schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// The task chosen at each step, up to the violating one (a replayable
    /// counterexample).
    pub schedule: Vec<usize>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (after {} steps; schedule {:?})",
            self.message,
            self.schedule.len(),
            self.schedule
        )
    }
}

/// What an exploration found; every model's `explore` returns one.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Distinct states reached, the initial one included. (Random sampling
    /// counts every step instead.)
    pub states: u64,
    /// Distinct terminal states, each checked once. (Random sampling counts
    /// the runs that reached one.)
    pub terminals: u64,
    /// Whether every reachable state fit in the budget (exhaustive search
    /// only).
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
}

/// The successors of one state: the task that moved, and the state its
/// action led to or the invariant it broke.
pub(crate) type Successors<S> = Vec<(usize, Result<S, String>)>;

/// A model [`explore`] can search.
pub(crate) trait Model {
    /// One state of the whole system. It must hold everything a later step
    /// or [`Model::finish`] reads (the soundness rule of the module docs).
    type State: Clone + Hash + Eq;

    /// The state before any task has moved.
    fn initial(&self) -> Self::State;

    /// Every state one atomic action away. A task may contribute several
    /// (its action is a choice) or none (it is finished or blocked).
    fn successors(&self, state: &Self::State) -> Successors<Self::State>;

    /// Checks a state with no successors.
    fn finish(&self, state: &Self::State) -> Result<(), String>;
}

/// [`Model::successors`] for models whose tasks step deterministically: one
/// clone of `state` per runnable task, advanced by `step`.
pub(crate) fn each_task<S: Clone>(
    state: &S,
    tasks: impl IntoIterator<Item = usize>,
    step: impl Fn(&mut S, usize) -> Result<(), String>,
) -> Successors<S> {
    tasks
        .into_iter()
        .map(|task| {
            let mut next = state.clone();
            (task, step(&mut next, task).map(|()| next))
        })
        .collect()
}

/// Explores every state reachable from `model`'s initial one, up to
/// `budget` distinct states, and reports the first violation: a step that
/// breaks an invariant, a terminal state that fails [`Model::finish`], or a
/// step back onto the current path (livelock).
///
/// Sound only if `M::State` holds everything a later step or check reads:
/// a state equal to one already visited is not stepped again.
pub(crate) fn explore<M: Model>(model: &M, budget: u64) -> Outcome {
    let mut outcome = Outcome {
        states: 0,
        terminals: 0,
        complete: true,
        violation: None,
    };
    let mut ids = HashMap::new();
    // `reached_by[id]`: the state and the task whose step first reached
    // state `id` (the initial state's entry is never read).
    let mut reached_by: Vec<(usize, usize)> = Vec::new();
    let mut on_path: Vec<bool> = Vec::new();
    let mut path: Vec<(usize, std::vec::IntoIter<_>)> = Vec::new();
    let mut new = Some((model.initial(), (0, 0)));
    // The state a violation was found at, the task whose step broke it
    // (none for a failed terminal check), and what broke.
    let (mut at, last, message) = loop {
        if let Some((state, from)) = new.take() {
            let id = reached_by.len();
            reached_by.push(from);
            outcome.states += 1;
            let successors = model.successors(&state);
            on_path.push(!successors.is_empty());
            if successors.is_empty() {
                outcome.terminals += 1;
                if let Err(message) = model.finish(&state) {
                    break (id, None, message);
                }
            } else {
                path.push((id, successors.into_iter()));
            }
            ids.insert(state, id);
        }
        let Some((at, successors)) = path.last_mut() else {
            return outcome;
        };
        let at = *at;
        match successors.next() {
            None => {
                on_path[at] = false;
                path.pop();
            }
            Some((task, Err(message))) => break (at, Some(task), message),
            Some((task, Ok(state))) => match ids.get(&state) {
                Some(&seen) if on_path[seen] => {
                    let message = format!(
                        "livelock: task {task}'s step returns to a state already on \
                         this schedule (a cycle without progress)"
                    );
                    break (at, Some(task), message);
                }
                Some(_) => {}
                None if outcome.states >= budget => {
                    outcome.complete = false;
                    return outcome;
                }
                None => new = Some((state, (at, task))),
            },
        }
    };
    let mut schedule: Vec<usize> = last.into_iter().collect();
    while at != 0 {
        let (parent, task) = reached_by[at];
        schedule.push(task);
        at = parent;
    }
    schedule.reverse();
    outcome.violation = Some(Violation { message, schedule });
    outcome
}

/// Test-only references the engine is checked against.
#[cfg(test)]
pub(crate) mod check {
    use super::{explore, Model, Successors, Violation};
    use std::cell::RefCell;
    use std::collections::HashSet;

    /// Explores `model`, which must break an invariant, and steps the
    /// reported schedule from the initial state: some state it reaches must
    /// fail with the same message (a task whose action is a choice can reach
    /// several). This checks the schedule rebuilt from the parent indices.
    pub(crate) fn caught<M: Model>(model: &M, budget: u64) -> Violation {
        let violation = explore(model, budget)
            .violation
            .expect("the fault must be caught");
        let mut states = vec![model.initial()];
        let mut messages = Vec::new();
        for (i, &task) in violation.schedule.iter().enumerate() {
            let mut next = Vec::new();
            for (t, result) in states.iter().flat_map(|s| model.successors(s)) {
                match result {
                    Ok(state) if t == task => next.push(state),
                    Err(message) if t == task && i + 1 == violation.schedule.len() => {
                        messages.push(message);
                    }
                    _ => {}
                }
            }
            states = next;
        }
        for state in states.iter().filter(|s| model.successors(s).is_empty()) {
            messages.extend(model.finish(state).err());
        }
        assert!(
            messages.contains(&violation.message),
            "{violation} does not replay: {messages:?}"
        );
        violation
    }

    /// The model with every state that reaches [`Model::finish`] recorded.
    struct Recorded<'m, M: Model>(&'m M, RefCell<HashSet<M::State>>);

    impl<M: Model> Model for Recorded<'_, M> {
        type State = M::State;
        fn initial(&self) -> M::State {
            self.0.initial()
        }
        fn successors(&self, state: &M::State) -> Successors<M::State> {
            self.0.successors(state)
        }
        fn finish(&self, state: &M::State) -> Result<(), String> {
            self.1.borrow_mut().insert(state.clone());
            self.0.finish(state)
        }
    }

    /// Asserts that [`explore`] checks exactly the terminal states that a
    /// plain enumeration of every schedule (no visited set) reaches.
    pub(crate) fn same_terminals<M: Model>(model: &M) {
        let recorded = Recorded(model, RefCell::default());
        let outcome = explore(&recorded, u64::MAX);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        let mut enumerated = HashSet::new();
        let mut stack = vec![model.initial()];
        while let Some(state) = stack.pop() {
            let successors = model.successors(&state);
            if successors.is_empty() {
                enumerated.insert(state);
            }
            stack.extend(
                successors
                    .into_iter()
                    .map(|(_, s)| s.expect("a safe scenario")),
            );
        }
        let reached = recorded.1.into_inner();
        assert_eq!(outcome.terminals, reached.len() as u64);
        assert!(reached == enumerated, "terminal states differ");
    }
}

#[cfg(test)]
mod tests {
    use super::check::same_terminals;
    use crate::{crystalline, scenarios, LlscScenario, PoolScenario, ReclaimerScenario};
    use crate::{PoolOp, RecycleScenario};

    #[test]
    fn terminal_states_match_schedule_enumeration() {
        same_terminals(&scenarios::stalled_reader_nonrobust(2));
        same_terminals(&LlscScenario::churn(2, 1).with_observers(2));
        same_terminals(&crystalline::handoff_occupancy_race(None));
        same_terminals(&ReclaimerScenario::early_close(2, 1, 1));
        same_terminals(&RecycleScenario::spill_refill(1));
        same_terminals(&PoolScenario::mixed(
            &[PoolOp::Checkout, PoolOp::Await],
            1,
            1,
        ));
    }
}
