//! Exploration of a [`Scenario`]: every reachable state of its
//! [`HyalineModel`](crate::HyalineModel), or seeded random sampling of its
//! schedules.
//!
//! Exhaustive mode is [`dfs::explore`](crate::dfs) over model states: each
//! distinct state is stepped once, and a step back to a state on the
//! current path is reported as a livelock. Random mode rebuilds the model
//! for every sample, and a generous step cap turns any unexpected livelock
//! into a reported violation instead of a hang (the modelled algorithms
//! are lock-free, so a CAS retry consumes a step only when another thread
//! made progress).

use crate::dfs::Outcome;
use crate::scenarios::Scenario;
use crate::Violation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hard per-sample step bound in random mode; exceeding it is reported as
/// a violation (the modelled algorithms are lock-free, so schedules
/// terminate far below this for the scenario sizes the explorer is meant
/// for).
const STEP_CAP: usize = 100_000;

enum Mode {
    Exhaustive { max_states: u64 },
    Random { samples: u64, seed: u64 },
}

/// Explores the interleavings of a [`Scenario`].
///
/// # Example
///
/// ```
/// use interleave::{Explorer, scenarios};
///
/// let outcome = Explorer::random(500, 42)
///     .run(&scenarios::retire_churn(3, 1, 2));
/// assert!(outcome.violation.is_none());
/// assert_eq!(outcome.terminals, 500);
/// ```
pub struct Explorer {
    mode: Mode,
}

impl Explorer {
    /// Depth-first search of every reachable state, stopping (with
    /// `complete = false`) after `max_states` distinct states.
    pub fn exhaustive(max_states: u64) -> Self {
        Self {
            mode: Mode::Exhaustive { max_states },
        }
    }

    /// `samples` uniformly random schedules from the given seed.
    pub fn random(samples: u64, seed: u64) -> Self {
        Self {
            mode: Mode::Random { samples, seed },
        }
    }

    /// Runs the exploration.
    pub fn run(&self, scenario: &Scenario) -> Outcome {
        match self.mode {
            Mode::Exhaustive { max_states } => crate::dfs::explore(scenario, max_states),
            Mode::Random { samples, seed } => explore_random(scenario, samples, seed),
        }
    }
}

fn explore_random(scenario: &Scenario, samples: u64, seed: u64) -> Outcome {
    let mut outcome = Outcome {
        states: 0,
        terminals: 0,
        complete: false,
        violation: None,
    };
    for sample in 0..samples {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(sample));
        let mut model = scenario.build();
        let mut schedule = Vec::new();
        let error = loop {
            let width = model.enabled_count();
            if width == 0 {
                outcome.terminals += 1;
                break model.finish().err();
            }
            if schedule.len() >= STEP_CAP {
                break Some(format!("step cap {STEP_CAP} exceeded (livelock?)"));
            }
            let tid = model
                .nth_enabled(rng.gen_range(0..width))
                .expect("idx < width");
            schedule.push(tid);
            outcome.states += 1;
            if let Err(message) = model.step(tid) {
                break Some(message);
            }
        };
        if let Some(message) = error {
            outcome.violation = Some(Violation { message, schedule });
            break;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::check::caught;
    use crate::model::{Fault, Op, Variant};
    use crate::scenarios;

    #[test]
    fn exhaustive_counts_interleavings_of_independent_steps() {
        // Two threads, each `enter` + `leave` on its own slot: one atomic
        // action each (an empty list's leave merges its load and CAS), so
        // the C(4,2) = 6 schedules pass through (2+1)² = 9 distinct states
        // and end in one.
        let scenario = scenarios::custom(
            2,
            Variant::Hyaline,
            Fault::None,
            vec![vec![Op::Enter(0), Op::Leave], vec![Op::Enter(1), Op::Leave]],
        );
        let outcome = Explorer::exhaustive(1_000).run(&scenario);
        assert!(outcome.complete);
        assert!(outcome.violation.is_none());
        assert_eq!((outcome.states, outcome.terminals), (9, 1));
    }

    #[test]
    fn exhaustive_is_deterministic() {
        let scenario = scenarios::retire_churn(2, 1, 1);
        let a = Explorer::exhaustive(1_000_000).run(&scenario);
        let b = Explorer::exhaustive(1_000_000).run(&scenario);
        assert_eq!((a.states, a.terminals), (b.states, b.terminals));
        assert!(a.complete && b.complete);
    }

    #[test]
    fn budget_cap_reports_incomplete() {
        let scenario = scenarios::retire_churn(3, 2, 2);
        let outcome = Explorer::exhaustive(10).run(&scenario);
        assert!(!outcome.complete);
        assert_eq!(outcome.states, 10);
        assert!(outcome.violation.is_none());
    }

    #[test]
    fn random_mode_runs_requested_samples() {
        let scenario = scenarios::retire_churn(3, 1, 2);
        let outcome = Explorer::random(250, 7).run(&scenario);
        assert_eq!(outcome.terminals, 250);
        assert!(outcome.violation.is_none());
    }

    #[test]
    fn violation_schedule_replays_to_same_failure() {
        // Each `HyalineModel` fault is caught, and its counterexample,
        // stepped from the initial state, fails the same way: the schedule
        // rebuilt from the parent indices is a real path. (The other
        // models' mutant tests go through the same `caught`.)
        for (scenario, fault) in [
            (scenarios::retire_churn(2, 1, 2), Fault::SkipEmptyAdjust),
            (
                scenarios::retire_churn(2, 1, 2),
                Fault::NoAdjsInPredecessorCredit,
            ),
            (scenarios::retire_churn(2, 1, 1), Fault::NoDetachOnLastLeave),
            (
                scenarios::stalled_reader_robustness(2),
                Fault::IgnoreBirthEras,
            ),
        ] {
            caught(&scenarios::with_fault(scenario, fault), 1_000_000);
        }
    }
}
