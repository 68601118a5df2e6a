//! What every explorer reports, and the depth-first search the protocol
//! models share.
//!
//! The [`crystalline`](crate::crystalline), [`llsc`](crate::llsc),
//! [`reclaimer`](crate::reclaimer) and [`recycle`](crate::recycle) models
//! keep their whole state in one cloneable value, so one search steps a
//! clone per runnable task and recurses: every interleaving is visited
//! once, up to a budget of complete schedules. The [`pool`](crate::pool)
//! model searches its (hashable) states breadth-first instead, and the
//! [`Explorer`](crate::Explorer) replays [`HyalineModel`](crate::HyalineModel)
//! schedules; all of them report a [`Violation`].

use std::fmt;

/// A safety violation found under some schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// The task chosen at each step, up to the violating one (a replayable
    /// counterexample).
    pub schedule: Vec<usize>,
}

impl Violation {
    /// A violation reached by `schedule`.
    pub fn new(message: String, schedule: &[usize]) -> Self {
        Self {
            message,
            schedule: schedule.to_vec(),
        }
    }
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

/// Result of a depth-first exploration: each model's `explore` returns one.
#[derive(Debug, Clone)]
pub struct DfsOutcome {
    /// Complete schedules explored.
    pub schedules: u64,
    /// First violation encountered, if any.
    pub violation: Option<Violation>,
    /// Whether the whole tree fit in the budget.
    pub complete: bool,
}

/// Explores every interleaving from `initial`, up to `budget` complete
/// schedules. `runnable` lists the tasks that can take a step, `step`
/// advances one of them by one atomic action, and `finish` checks a state
/// no task can leave; the first error either returns is the violation.
pub(crate) fn explore<S: Clone>(
    initial: S,
    budget: u64,
    runnable: impl Fn(&S) -> Vec<usize>,
    step: impl Fn(&mut S, usize, &[usize]) -> Result<(), Violation>,
    finish: impl Fn(&mut S, &[usize]) -> Result<(), Violation>,
) -> DfsOutcome {
    let mut outcome = DfsOutcome {
        schedules: 0,
        violation: None,
        complete: true,
    };
    let search = Search {
        budget,
        runnable,
        step,
        finish,
    };
    search.dfs(initial, &mut Vec::new(), &mut outcome);
    outcome
}

struct Search<R, St, F> {
    budget: u64,
    runnable: R,
    step: St,
    finish: F,
}

impl<R, St, F> Search<R, St, F> {
    fn dfs<S: Clone>(&self, mut state: S, schedule: &mut Vec<usize>, outcome: &mut DfsOutcome)
    where
        R: Fn(&S) -> Vec<usize>,
        St: Fn(&mut S, usize, &[usize]) -> Result<(), Violation>,
        F: Fn(&mut S, &[usize]) -> Result<(), Violation>,
    {
        if outcome.violation.is_some() {
            return;
        }
        if outcome.schedules >= self.budget {
            outcome.complete = false;
            return;
        }
        let runnable = (self.runnable)(&state);
        if runnable.is_empty() {
            match (self.finish)(&mut state, schedule) {
                Ok(()) => outcome.schedules += 1,
                Err(v) => outcome.violation = Some(v),
            }
            return;
        }
        for t in runnable {
            let mut next = state.clone();
            schedule.push(t);
            match (self.step)(&mut next, t, schedule) {
                Ok(()) => self.dfs(next, schedule, outcome),
                Err(v) => outcome.violation = Some(v),
            }
            schedule.pop();
            if outcome.violation.is_some() {
                return;
            }
        }
    }
}
