//! Property-based exploration: *arbitrary* well-formed programs (not just
//! the hand-picked scenarios) must uphold the model's safety invariants
//! under randomized schedules.
//!
//! A "well-formed" program is any sequence of operations where `retire` and
//! `trim` happen inside an `enter`/`leave` window — exactly the API
//! contract the paper's Figure 1a imposes on clients. The property is that
//! no interleaving of well-formed programs produces a use-after-free,
//! double-free, leak, lost adjustment or non-quiescent head.

use interleave::model::{Fault, Op, ThreadProgram, Variant};
use interleave::scenarios::custom;
use interleave::Explorer;
use proptest::collection::vec;
use proptest::prelude::*;

/// One enter..leave window with up to three retires/trims inside.
fn window(slots: usize) -> impl Strategy<Value = ThreadProgram> {
    (
        0..slots,
        vec(
            prop_oneof![2 => Just(Op::Retire), 1 => Just(Op::Trim)],
            0..3,
        ),
    )
        .prop_map(|(slot, inner)| {
            let mut p = vec![Op::Enter(slot)];
            p.extend(inner);
            p.push(Op::Leave);
            p
        })
}

/// A well-formed program: 1–3 windows back to back.
fn program(slots: usize) -> impl Strategy<Value = ThreadProgram> {
    vec(window(slots), 1..=3).prop_map(|ws| ws.into_iter().flatten().collect())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Hyaline (Figure 3), k ∈ {1, 2, 4}, 2–3 threads, random programs,
    /// 200 random schedules each.
    #[test]
    fn hyaline_random_programs_are_safe(
        k_exp in 0usize..3,
        programs in vec(program(4), 2..=3),
        seed in any::<u64>(),
    ) {
        let slots = 1usize << k_exp;
        // Clamp slots referenced by the generated programs into range.
        let programs: Vec<ThreadProgram> = programs
            .into_iter()
            .map(|p| {
                p.into_iter()
                    .map(|op| match op {
                        Op::Enter(s) => Op::Enter(s % slots),
                        other => other,
                    })
                    .collect()
            })
            .collect();
        let scenario = custom(slots, Variant::Hyaline, Fault::None, programs);
        let outcome = Explorer::random(200, seed).run(&scenario);
        prop_assert!(
            outcome.violation.is_none(),
            "violation: {:?}",
            outcome.violation
        );
    }

    /// Hyaline-1 (Figure 4): one dedicated slot per thread.
    #[test]
    fn hyaline1_random_programs_are_safe(
        threads in 2usize..=3,
        window_counts in vec(1usize..=3, 3),
        retires in vec(0usize..=2, 9),
        seed in any::<u64>(),
    ) {
        let programs: Vec<ThreadProgram> = (0..threads)
            .map(|t| {
                let mut p = Vec::new();
                for w in 0..window_counts[t] {
                    p.push(Op::Enter(t));
                    for _ in 0..retires[t * 3 + w] {
                        p.push(Op::Retire);
                    }
                    p.push(Op::Leave);
                }
                p
            })
            .collect();
        let scenario = custom(threads, Variant::Hyaline1, Fault::None, programs);
        let outcome = Explorer::random(200, seed).run(&scenario);
        prop_assert!(
            outcome.violation.is_none(),
            "violation: {:?}",
            outcome.violation
        );
    }

    /// Hyaline-S (Figure 5): random programs with `Deref`s sprinkled in.
    #[test]
    fn hyaline_s_random_programs_are_safe(
        k_exp in 0usize..3,
        programs in vec(program(4), 2..=3),
        seed in any::<u64>(),
    ) {
        let slots = 1usize << k_exp;
        let programs: Vec<ThreadProgram> = programs
            .into_iter()
            .map(|p| {
                p.into_iter()
                    .flat_map(|op| match op {
                        Op::Enter(s) => vec![Op::Enter(s % slots), Op::Deref],
                        other => vec![other],
                    })
                    .collect()
            })
            .collect();
        let scenario = custom(slots, Variant::HyalineS, Fault::None, programs);
        let outcome = Explorer::random(200, seed).run(&scenario);
        prop_assert!(
            outcome.violation.is_none(),
            "violation: {:?}",
            outcome.violation
        );
    }

    /// Hyaline-S with a randomly placed stalled reader: robustness must
    /// hold in every sampled interleaving — unreclaimed batches may exist
    /// only when pinned by the stalled slot's (era-covered) insertions.
    #[test]
    fn hyaline_s_random_stall_is_robust(
        churn in vec(program(2), 1..=2),
        stall_derefs in 0usize..=1,
        seed in any::<u64>(),
    ) {
        let mut stall_prog = vec![Op::Enter(0)];
        for _ in 0..stall_derefs {
            stall_prog.push(Op::Deref);
        }
        stall_prog.push(Op::Stall);
        let mut programs = vec![stall_prog];
        programs.extend(churn.into_iter().map(|p| {
            p.into_iter()
                .flat_map(|op| match op {
                    Op::Enter(s) => vec![Op::Enter(s % 2), Op::Deref],
                    Op::Trim => vec![],  // keep the stall scenario minimal
                    other => vec![other],
                })
                .collect::<ThreadProgram>()
        }));
        let scenario = custom(2, Variant::HyalineS, Fault::None, programs);
        let outcome = Explorer::random(200, seed).run(&scenario);
        prop_assert!(
            outcome.violation.is_none(),
            "violation: {:?}",
            outcome.violation
        );
    }

    /// Injected faults must be *findable* from random programs too, as long
    /// as the program actually exercises the broken path (an empty slot at
    /// retire time for `SkipEmptyAdjust`). Rather than asserting every
    /// sample finds it (schedules may dodge the bug), assert the stronger
    /// exhaustive search does.
    #[test]
    fn skip_empty_adjust_found_from_random_shapes(
        retires in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let _ = seed;
        // One thread through slot 0 of a k=2 domain: slot 1 is always
        // empty, so every batch depends on the empty-slot adjustment.
        let mut p = Vec::new();
        for _ in 0..retires {
            p.extend([Op::Enter(0), Op::Retire, Op::Leave]);
        }
        let scenario = custom(2, Variant::Hyaline, Fault::SkipEmptyAdjust, vec![p]);
        let outcome = Explorer::exhaustive(100_000).run(&scenario);
        prop_assert!(outcome.violation.is_some(), "fault not detected");
    }
}

/// Deterministic regression companion to the proptest: the documented
/// counterexample shape for the missing-detach fault.
#[test]
fn missing_detach_is_found_in_single_thread_program() {
    let scenario = custom(
        1,
        Variant::Hyaline,
        Fault::NoDetachOnLastLeave,
        vec![vec![Op::Enter(0), Op::Retire, Op::Leave]],
    );
    let outcome = Explorer::exhaustive(10_000).run(&scenario);
    let v = outcome.violation.expect("lost detach must be detected");
    assert!(
        v.message.contains("not quiescent") || v.message.contains("leak"),
        "unexpected violation: {}",
        v.message
    );
}
