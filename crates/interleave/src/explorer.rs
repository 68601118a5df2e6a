//! Schedule exploration: exhaustive DFS over all interleavings, or seeded
//! random sampling when the tree is too large.
//!
//! Exploration is *replay-based*: every execution rebuilds the scenario from
//! scratch and follows a schedule prefix, so the model needs no undo
//! support — only deterministic construction. Lock-freedom of the modelled
//! algorithms bounds every execution (a CAS retry consumes a step only when
//! another thread made progress), and a generous step cap turns any
//! unexpected livelock into a reported violation instead of a hang.

use crate::model::HyalineModel;
use crate::scenarios::Scenario;
use crate::Violation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hard per-execution step bound; exceeding it is reported as a violation
/// (the modelled algorithms are lock-free, so schedules terminate far below
/// this for the scenario sizes the explorer is meant for).
const STEP_CAP: usize = 100_000;

/// Result of an exploration run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Number of complete executions performed.
    pub executions: u64,
    /// Whether the entire schedule tree was explored (exhaustive mode only).
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
    /// The deepest execution seen, in steps.
    pub max_depth: usize,
}

enum Mode {
    Exhaustive { max_executions: u64 },
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
/// assert_eq!(outcome.executions, 500);
/// ```
pub struct Explorer {
    mode: Mode,
}

impl Explorer {
    /// Depth-first exploration of every schedule, stopping (with
    /// `complete = false`) after `max_executions` executions.
    pub fn exhaustive(max_executions: u64) -> Self {
        Self {
            mode: Mode::Exhaustive { max_executions },
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
            Mode::Exhaustive { max_executions } => explore_exhaustive(scenario, max_executions),
            Mode::Random { samples, seed } => explore_random(scenario, samples, seed),
        }
    }
}

/// One replayed execution: follow `prefix` (indices into the enabled set),
/// then always take choice 0. Records `(choice_index, enabled_len)` pairs
/// and the chosen thread ids.
struct Replay {
    choices: Vec<(usize, usize)>,
    schedule: Vec<usize>,
    error: Option<String>,
}

fn replay(scenario: &Scenario, prefix: &[usize]) -> Replay {
    let mut model: HyalineModel = scenario.build();
    let mut choices = Vec::new();
    let mut schedule = Vec::new();
    loop {
        let width = model.enabled_count();
        if width == 0 {
            let error = model.finish().err();
            return Replay {
                choices,
                schedule,
                error,
            };
        }
        if schedule.len() >= STEP_CAP {
            return Replay {
                choices,
                schedule,
                error: Some(format!("step cap {STEP_CAP} exceeded (livelock?)")),
            };
        }
        let depth = choices.len();
        let idx = prefix.get(depth).copied().unwrap_or(0);
        debug_assert!(idx < width, "stale prefix index");
        let tid = model.nth_enabled(idx).expect("idx < width");
        choices.push((idx, width));
        schedule.push(tid);
        if let Err(message) = model.step(tid) {
            return Replay {
                choices,
                schedule,
                error: Some(message),
            };
        }
    }
}

fn explore_exhaustive(scenario: &Scenario, max_executions: u64) -> Outcome {
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0;
    let mut max_depth = 0;
    loop {
        let run = replay(scenario, &prefix);
        executions += 1;
        max_depth = max_depth.max(run.schedule.len());
        if let Some(message) = run.error {
            return Outcome {
                executions,
                complete: false,
                violation: Some(Violation {
                    schedule: run.schedule,
                    message,
                }),
                max_depth,
            };
        }
        // Advance to the next schedule: bump the deepest choice that still
        // has unexplored siblings, truncating everything below it.
        let mut next = None;
        for (depth, &(idx, width)) in run.choices.iter().enumerate().rev() {
            if idx + 1 < width {
                next = Some((depth, idx + 1));
                break;
            }
        }
        match next {
            Some((depth, idx)) => {
                prefix.clear();
                prefix.extend(run.choices[..depth].iter().map(|&(i, _)| i));
                prefix.push(idx);
            }
            None => {
                return Outcome {
                    executions,
                    complete: true,
                    violation: None,
                    max_depth,
                };
            }
        }
        if executions >= max_executions {
            return Outcome {
                executions,
                complete: false,
                violation: None,
                max_depth,
            };
        }
    }
}

fn explore_random(scenario: &Scenario, samples: u64, seed: u64) -> Outcome {
    let mut executions = 0;
    let mut max_depth = 0;
    for sample in 0..samples {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(sample));
        let mut model: HyalineModel = scenario.build();
        let mut schedule = Vec::new();
        let error = loop {
            let width = model.enabled_count();
            if width == 0 {
                break model.finish().err();
            }
            if schedule.len() >= STEP_CAP {
                break Some(format!("step cap {STEP_CAP} exceeded (livelock?)"));
            }
            let tid = model
                .nth_enabled(rng.gen_range(0..width))
                .expect("idx < width");
            schedule.push(tid);
            if let Err(message) = model.step(tid) {
                break Some(message);
            }
        };
        executions += 1;
        max_depth = max_depth.max(schedule.len());
        if let Some(message) = error {
            return Outcome {
                executions,
                complete: false,
                violation: Some(Violation { schedule, message }),
                max_depth,
            };
        }
    }
    Outcome {
        executions,
        complete: false,
        violation: None,
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Fault, Op, Variant};
    use crate::scenarios;

    #[test]
    fn exhaustive_counts_interleavings_of_independent_steps() {
        // Two threads, each a single `enter` on its own slot — every step is
        // one atomic action, so there are exactly C(2,1) = 2 schedules...
        // plus the leave steps. Use single-op programs via a scenario with
        // one enter+leave each: enter = 1 step, leave = 1 step (empty list,
        // merged load+CAS) -> 2 steps per thread -> C(4,2) = 6 schedules.
        let scenario = scenarios::custom(
            2,
            Variant::Hyaline,
            Fault::None,
            vec![vec![Op::Enter(0), Op::Leave], vec![Op::Enter(1), Op::Leave]],
        );
        let outcome = Explorer::exhaustive(1_000).run(&scenario);
        assert!(outcome.complete);
        assert!(outcome.violation.is_none());
        assert_eq!(outcome.executions, 6, "C(4,2) interleavings");
    }

    #[test]
    fn exhaustive_is_deterministic() {
        let scenario = scenarios::retire_churn(2, 1, 1);
        let a = Explorer::exhaustive(1_000_000).run(&scenario);
        let b = Explorer::exhaustive(1_000_000).run(&scenario);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.max_depth, b.max_depth);
        assert!(a.complete && b.complete);
    }

    #[test]
    fn budget_cap_reports_incomplete() {
        let scenario = scenarios::retire_churn(3, 2, 2);
        let outcome = Explorer::exhaustive(10).run(&scenario);
        assert!(!outcome.complete);
        assert_eq!(outcome.executions, 10);
        assert!(outcome.violation.is_none());
    }

    #[test]
    fn random_mode_runs_requested_samples() {
        let scenario = scenarios::retire_churn(3, 1, 2);
        let outcome = Explorer::random(250, 7).run(&scenario);
        assert_eq!(outcome.executions, 250);
        assert!(outcome.violation.is_none());
    }

    #[test]
    fn violation_schedule_replays_to_same_failure() {
        // Find a violation with a fault injected, then replay its schedule
        // step by step and confirm the same failure point.
        let scenario = scenarios::with_fault(
            scenarios::retire_churn(2, 1, 2),
            Fault::NoAdjsInPredecessorCredit,
        );
        let outcome = Explorer::exhaustive(2_000_000).run(&scenario);
        let violation = outcome.violation.expect("fault must be detected");
        let mut model = scenario.build();
        let mut failed = None;
        for &tid in &violation.schedule {
            if let Err(e) = model.step(tid) {
                failed = Some(e);
                break;
            }
        }
        let replay_msg = match failed {
            Some(e) => e,
            None => model.finish().expect_err("end-state violation expected"),
        };
        assert_eq!(replay_msg, violation.message, "counterexample replays");
    }
}
