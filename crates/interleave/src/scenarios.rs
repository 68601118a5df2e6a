//! Ready-made scenarios for the explorer: the small concurrent shapes whose
//! interleavings cover the algorithm's interesting races.

use crate::dfs::{each_task, Model, Successors};
use crate::model::{Fault, HyalineModel, ModelConfig, Op, ThreadProgram, Variant};

/// A buildable scenario: deterministic model construction.
///
/// # Example
///
/// ```
/// use interleave::scenarios;
///
/// let s = scenarios::retire_churn(2, 1, 1);
/// let model = s.build();
/// assert_eq!(model.enabled().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ModelConfig,
    programs: Vec<ThreadProgram>,
    /// Human-readable description.
    pub name: String,
}

impl Scenario {
    /// Builds a fresh model instance.
    pub fn build(&self) -> HyalineModel {
        HyalineModel::new(self.config.clone(), self.programs.clone())
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.programs.len()
    }
}

impl Model for Scenario {
    type State = HyalineModel;

    fn initial(&self) -> HyalineModel {
        self.build()
    }

    fn successors(&self, model: &HyalineModel) -> Successors<HyalineModel> {
        each_task(model, model.enabled(), HyalineModel::step)
    }

    fn finish(&self, model: &HyalineModel) -> Result<(), String> {
        model.finish()
    }
}

/// `threads` threads each performing `retires` enter→retire→leave cycles,
/// spread round-robin over `slots` slots.
///
/// This is the bread-and-butter scenario: it exercises head CAS contention,
/// predecessor credits, empty-slot adjustments (whenever a slot happens to
/// have no active thread at retire time), and the detach path of the last
/// leaver.
pub fn retire_churn(threads: usize, retires: usize, slots: usize) -> Scenario {
    let programs = (0..threads)
        .map(|t| {
            let mut p = Vec::new();
            for _ in 0..retires {
                p.push(Op::Enter(t % slots));
                p.push(Op::Retire);
                p.push(Op::Leave);
            }
            p
        })
        .collect();
    Scenario {
        config: ModelConfig {
            slots,
            variant: Variant::Hyaline,
            fault: Fault::None,
        },
        programs,
        name: format!("retire_churn(threads={threads}, retires={retires}, k={slots})"),
    }
}

/// A pure reader overlapping two retiring writers (the Figure 2a shape):
/// the reader's reservation must pin every batch retired while it is
/// inside, and everything must still reclaim once it leaves.
pub fn reader_overlap(slots: usize) -> Scenario {
    Scenario {
        config: ModelConfig {
            slots,
            variant: Variant::Hyaline,
            fault: Fault::None,
        },
        programs: vec![
            vec![Op::Enter(0), Op::Leave],
            vec![Op::Enter(0), Op::Retire, Op::Leave],
            vec![Op::Enter((1) % slots), Op::Retire, Op::Leave],
        ],
        name: format!("reader_overlap(k={slots})"),
    }
}

/// The two-thread core of [`reader_overlap`]: one pure reader against one
/// retiring writer. Small enough to explore exhaustively.
pub fn reader_vs_retirer(slots: usize) -> Scenario {
    Scenario {
        config: ModelConfig {
            slots,
            variant: Variant::Hyaline,
            fault: Fault::None,
        },
        programs: vec![
            vec![Op::Enter(0), Op::Leave],
            vec![Op::Enter((1) % slots), Op::Retire, Op::Retire, Op::Leave],
        ],
        name: format!("reader_vs_retirer(k={slots})"),
    }
}

/// §3.3 trimming interleaved with a concurrent retirer: `trim` dereferences
/// the sublist without altering the head, so batches retired before the
/// trim reclaim while the trimming thread stays inside its operation.
pub fn trim_pipeline(slots: usize) -> Scenario {
    Scenario {
        config: ModelConfig {
            slots,
            variant: Variant::Hyaline,
            fault: Fault::None,
        },
        programs: vec![
            vec![Op::Enter(0), Op::Retire, Op::Trim, Op::Retire, Op::Leave],
            vec![Op::Enter(0), Op::Retire, Op::Leave],
        ],
        name: format!("trim_pipeline(k={slots})"),
    }
}

/// Hyaline-1 (Figure 4): one dedicated slot per thread, `Inserts` counting.
pub fn hyaline1_churn(threads: usize, retires: usize) -> Scenario {
    let programs = (0..threads)
        .map(|t| {
            let mut p = Vec::new();
            for _ in 0..retires {
                p.push(Op::Enter(t));
                p.push(Op::Retire);
                p.push(Op::Leave);
            }
            p
        })
        .collect();
    Scenario {
        config: ModelConfig {
            slots: threads,
            variant: Variant::Hyaline1,
            fault: Fault::None,
        },
        programs,
        name: format!("hyaline1_churn(threads={threads}, retires={retires})"),
    }
}

/// Hyaline-S churn: like [`retire_churn`] but with a `Deref` inside every
/// window, exercising birth-era stamping, access-era publication and the
/// era-skip path of `retire`.
pub fn hyaline_s_churn(threads: usize, retires: usize, slots: usize) -> Scenario {
    let programs = (0..threads)
        .map(|t| {
            let mut p = Vec::new();
            for _ in 0..retires {
                p.push(Op::Enter(t % slots));
                p.push(Op::Deref);
                p.push(Op::Retire);
                p.push(Op::Leave);
            }
            p
        })
        .collect();
    Scenario {
        config: ModelConfig {
            slots,
            variant: Variant::HyalineS,
            fault: Fault::None,
        },
        programs,
        name: format!("hyaline_s_churn(threads={threads}, retires={retires}, k={slots})"),
    }
}

/// The Figure 10a adversary in miniature: one thread parks *inside* an
/// operation (slot 0, stale era) while another churns retirements through
/// slot 1. Every batch is born after the parked thread's access era, so the
/// era check must keep slot 0 out of every retirement list and everything
/// must reclaim — the robustness property of Theorem 4, checked across
/// interleavings by [`HyalineModel::finish`].
pub fn stalled_reader_robustness(retires: usize) -> Scenario {
    let mut churner = Vec::new();
    for _ in 0..retires {
        churner.push(Op::Enter(1));
        churner.push(Op::Deref);
        churner.push(Op::Retire);
        churner.push(Op::Leave);
    }
    Scenario {
        config: ModelConfig {
            slots: 2,
            variant: Variant::HyalineS,
            fault: Fault::None,
        },
        programs: vec![vec![Op::Enter(0), Op::Stall], churner],
        name: format!("stalled_reader_robustness(retires={retires})"),
    }
}

/// A stalled thread under plain (non-robust) Hyaline: retirements that land
/// in its slot stay pinned — `finish` verifies the pinning is *bounded* to
/// batches actually inserted into the stalled slot (nothing else leaks).
pub fn stalled_reader_nonrobust(retires: usize) -> Scenario {
    let mut churner = Vec::new();
    for _ in 0..retires {
        churner.push(Op::Enter(1));
        churner.push(Op::Retire);
        churner.push(Op::Leave);
    }
    Scenario {
        config: ModelConfig {
            slots: 2,
            variant: Variant::Hyaline,
            fault: Fault::None,
        },
        programs: vec![vec![Op::Enter(0), Op::Stall], churner],
        name: format!("stalled_reader_nonrobust(retires={retires})"),
    }
}

/// An arbitrary scenario from explicit programs.
///
/// # Panics
///
/// Panics on invalid configuration (see [`HyalineModel::new`]).
pub fn custom(
    slots: usize,
    variant: Variant,
    fault: Fault,
    programs: Vec<ThreadProgram>,
) -> Scenario {
    // Validate eagerly so misconfigured scenarios fail at construction.
    let scenario = Scenario {
        config: ModelConfig {
            slots,
            variant,
            fault,
        },
        programs,
        name: format!("custom(k={slots}, {variant:?}, {fault:?})"),
    };
    let _ = scenario.build();
    scenario
}

/// The same scenario with a deliberate algorithm bug injected (mutation
/// testing: the explorer must find a violation).
pub fn with_fault(mut scenario: Scenario, fault: Fault) -> Scenario {
    scenario.config.fault = fault;
    scenario.name = format!("{} + {fault:?}", scenario.name);
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Explorer;

    #[test]
    fn all_builders_build() {
        for s in [
            retire_churn(2, 1, 1),
            retire_churn(3, 1, 2),
            reader_overlap(1),
            reader_overlap(2),
            trim_pipeline(1),
            hyaline1_churn(2, 1),
        ] {
            let m = s.build();
            assert!(!m.enabled().is_empty(), "{}: no threads", s.name);
        }
    }

    /// Explores every reachable state of `scenario`, which must be safe.
    fn exhaustive(scenario: &Scenario) {
        let outcome = Explorer::exhaustive(1_000_000).run(scenario);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(
            outcome.complete,
            "{}: {} states",
            scenario.name, outcome.states
        );
    }

    #[test]
    fn exhaustive_retire_churn_single_slot() {
        exhaustive(&retire_churn(2, 1, 1));
    }

    #[test]
    fn exhaustive_retire_churn_two_slots() {
        exhaustive(&retire_churn(2, 1, 2));
    }

    #[test]
    fn exhaustive_reader_vs_retirer() {
        for slots in [1, 2] {
            exhaustive(&reader_vs_retirer(slots));
        }
    }

    #[test]
    fn budgeted_reader_overlap() {
        // Three threads: over 50M schedules, a few thousand states.
        for slots in [1, 2] {
            exhaustive(&reader_overlap(slots));
        }
    }

    #[test]
    fn budgeted_trim_pipeline() {
        exhaustive(&trim_pipeline(1));
    }

    #[test]
    fn exhaustive_hyaline1() {
        exhaustive(&hyaline1_churn(2, 1));
    }

    #[test]
    fn random_three_threads() {
        let outcome = Explorer::random(2_000, 0xC0FFEE).run(&retire_churn(3, 2, 2));
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    }

    #[test]
    fn random_hyaline1_three_threads() {
        let outcome = Explorer::random(2_000, 0xBEEF).run(&hyaline1_churn(3, 2));
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    }

    #[test]
    fn mutation_skip_empty_adjust_found() {
        let s = with_fault(retire_churn(2, 1, 2), Fault::SkipEmptyAdjust);
        let outcome = Explorer::exhaustive(5_000_000).run(&s);
        let v = outcome.violation.expect("leak must be found");
        assert!(v.message.contains("leak"), "got: {}", v.message);
    }

    #[test]
    fn mutation_no_adjs_in_credit_found() {
        let s = with_fault(retire_churn(2, 1, 2), Fault::NoAdjsInPredecessorCredit);
        let outcome = Explorer::exhaustive(5_000_000).run(&s);
        assert!(
            outcome.violation.is_some(),
            "broken wrap-around accounting must be detected"
        );
    }

    #[test]
    fn mutation_no_detach_found() {
        let s = with_fault(retire_churn(2, 1, 1), Fault::NoDetachOnLastLeave);
        let outcome = Explorer::exhaustive(5_000_000).run(&s);
        assert!(
            outcome.violation.is_some(),
            "lost detach adjustment must be detected"
        );
    }

    #[test]
    fn exhaustive_hyaline_s_churn() {
        exhaustive(&hyaline_s_churn(2, 1, 2));
    }

    #[test]
    fn exhaustive_stalled_reader_robustness() {
        // Every interleaving: the parked thread's stale slot must never
        // receive (nor pin) batches born after its access era.
        for retires in [1, 2] {
            exhaustive(&stalled_reader_robustness(retires));
        }
    }

    #[test]
    fn exhaustive_stalled_reader_shares_a_slot() {
        // Theorem 4 on a shared slot: the stalled reader's slot 0 stays
        // live through a churner that keeps raising its access era, beside
        // a churner on slot 1. A batch may be pinned only where an access
        // era covering its birth let it in.
        let churner = |slot| vec![Op::Enter(slot), Op::Deref, Op::Retire, Op::Leave];
        exhaustive(&custom(
            2,
            Variant::HyalineS,
            Fault::None,
            vec![
                vec![Op::Enter(0), Op::Deref, Op::Stall],
                churner(0),
                churner(1),
            ],
        ));
    }

    #[test]
    fn exhaustive_stalled_reader_nonrobust_bounded() {
        // Plain Hyaline pins batches in the stalled slot but nothing else.
        exhaustive(&stalled_reader_nonrobust(2));
    }

    #[test]
    fn robustness_differs_between_variants() {
        // Quantify the difference: under the robust variant every batch is
        // reclaimed despite the stall; under plain Hyaline at least one
        // batch stays pinned in some interleaving.
        let robust = stalled_reader_robustness(2);
        let mut any_pinned_robust = false;
        let mut m = robust.build();
        while let Some(tid) = m.nth_enabled(0) {
            m.step(tid).unwrap();
        }
        m.finish().unwrap();
        any_pinned_robust |= m.batches_freed() != m.batches_created();
        assert!(
            !any_pinned_robust,
            "Hyaline-S pinned batches despite stale-era stall"
        );

        let nonrobust = stalled_reader_nonrobust(2);
        let mut m = nonrobust.build();
        while let Some(tid) = m.nth_enabled(0) {
            m.step(tid).unwrap();
        }
        m.finish().unwrap();
        assert!(
            m.batches_freed() < m.batches_created(),
            "plain Hyaline should pin batches inserted into the stalled slot"
        );
    }

    #[test]
    fn mutation_ignore_birth_eras_found() {
        // Dropping the era check re-introduces non-robustness: some batch
        // born after the stalled slot's era gets inserted there and pinned,
        // which `finish` reports as a robustness violation.
        let s = with_fault(stalled_reader_robustness(2), Fault::IgnoreBirthEras);
        let outcome = Explorer::exhaustive(8_000_000).run(&s);
        let v = outcome
            .violation
            .expect("era-check removal must be detected");
        assert!(
            v.message.contains("robustness violation"),
            "got: {}",
            v.message
        );
    }
}
