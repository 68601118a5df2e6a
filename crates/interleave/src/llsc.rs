//! Exhaustive interleaving exploration of the §4.4 LL/SC head operations,
//! driving the *real* [`hyaline::llsc`] primitives.
//!
//! The Figure 7 port replaces the double-width CAS/FAA on `[HRef, HPtr]`
//! with single-width LL/SC over a reservation granule covering both words.
//! [`hyaline::llsc::Granule`] models that granule; this module decomposes
//! the Figure 7 head operations (`enter`'s dwFAA, `retire`'s dwCAS push,
//! `leave`'s decrement plus conditional list claim) into their individual
//! atomic actions — one `ll`, one `load_other`, one `sc` per transition —
//! and replays every schedule of a small thread set against a live
//! [`Granule`], checking:
//!
//! * **counted references** — `HRef` always equals the number of threads
//!   inside an operation;
//! * **exclusive claim** — a retirement list is only ever claimed while no
//!   thread is inside (the §4.4 race: a concurrent `enter` adopting the
//!   list must make the claim CAS fail);
//! * **no leaks** — at quiescence the head is `[0, 0]` and the claimed
//!   list chains cover every pushed node exactly once.
//!
//! The [`LlscFault::SingleWidthClaim`] mutation shows *why* the reservation
//! granule must span both words: replaying `leave`'s claim as a plain
//! single-width CAS on `HPtr` (no granule reservation) steals the list from
//! a concurrent enterer, and the explorer finds the violating schedule.

use crate::{DfsOutcome, Violation};
use hyaline::llsc::{Granule, Pair, Reservation, Word};

/// Rebuilds a live granule holding `pair`, using only public LL/SC ops.
///
/// Reservations taken against the previous incarnation stay meaningful: a
/// reservation is a value snapshot, and the rebuilt granule holds the same
/// packed value the original did when the state was forked.
fn granule_from(pair: Pair) -> Granule {
    let g = Granule::new();
    if pair.hptr != 0 {
        let (_, res) = g.ll(Word::Ptr);
        assert!(g.sc(res, pair.hptr), "fresh granule SC cannot fail");
    }
    if pair.href != 0 {
        let (_, res) = g.ll(Word::Ref);
        assert!(g.sc(res, pair.href), "fresh granule SC cannot fail");
    }
    g
}

/// Optional algorithm mutation, to prove the checker can see the bug the
/// reservation granule exists to prevent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LlscFault {
    /// Faithful Figure 7 behaviour.
    #[default]
    None,
    /// `leave`'s claim uses a plain single-width CAS on `HPtr` that ignores
    /// the granule reservation (and therefore concurrent `HRef` changes).
    SingleWidthClaim,
}

/// A scenario: `threads` threads, each performing `rounds` rounds of
/// `enter → push one node → leave` against one LL/SC head.
#[derive(Debug, Clone)]
pub struct LlscScenario {
    /// Number of threads.
    pub threads: usize,
    /// Rounds of enter/(push)/leave per thread.
    pub rounds: u32,
    /// The last `observers` threads skip the push phase: each of their
    /// rounds is just `enter → leave` (readers in Hyaline terms). Fewer
    /// atomic actions per round, so the schedule tree closes much sooner —
    /// and an observer's final leave still claims, exercising the handoff.
    pub observers: usize,
    /// Algorithm mutation under test.
    pub fault: LlscFault,
    /// Human-readable description.
    pub name: String,
}

impl LlscScenario {
    /// The standard churn scenario: every thread pushes every round.
    pub fn churn(threads: usize, rounds: u32) -> Self {
        Self {
            threads,
            rounds,
            observers: 0,
            fault: LlscFault::None,
            name: format!("llsc_churn(threads={threads}, rounds={rounds})"),
        }
    }

    /// Converts the last `observers` threads into enter/leave-only readers.
    pub fn with_observers(mut self, observers: usize) -> Self {
        assert!(observers <= self.threads);
        self.observers = observers;
        self.name = format!("{}+observers={observers}", self.name);
        self
    }

    /// The same scenario with a fault injected.
    pub fn with_fault(mut self, fault: LlscFault) -> Self {
        self.fault = fault;
        self.name = format!("{}+{fault:?}", self.name);
        self
    }

    fn is_observer(&self, t: usize) -> bool {
        t >= self.threads - self.observers
    }

    /// The unique nonzero node id thread `t` pushes in round `r`.
    fn node_id(&self, t: usize, r: u32) -> u32 {
        1 + t as u32 * self.rounds + r
    }
}

/// Per-thread control state: each variant is *between* two atomic actions,
/// and one step performs exactly one `ll` / `load_other` / `load_pair` /
/// `sc` on the shared granule.
#[derive(Debug, Clone, Copy)]
enum Ctl {
    /// dwFAA attempt: LL the ref word.
    EnterLl,
    /// dwFAA: ordinary load of the pointer word.
    EnterLoad { res: Reservation, href: u32 },
    /// dwFAA: SC `href + 1`; retry from `EnterLl` on failure.
    EnterSc {
        res: Reservation,
        href: u32,
        hptr: u32,
    },
    /// Push: read the expected pair (the caller's `head.pair()`).
    PushRead,
    /// Push (dwCAS_Ptr): LL the pointer word.
    PushLl { expected: Pair },
    /// Push: ordinary load of the ref word.
    PushLoad {
        expected: Pair,
        res: Reservation,
        hptr: u32,
    },
    /// Push: compare with `expected`, SC the new node id; retry on failure.
    PushSc {
        expected: Pair,
        res: Reservation,
        hptr: u32,
        href: u32,
    },
    /// Leave: read the expected pair.
    LeaveRead,
    /// Leave (dwCAS_Ref): LL the ref word.
    LeaveLl { expected: Pair },
    /// Leave: ordinary load of the pointer word.
    LeaveLoad {
        expected: Pair,
        res: Reservation,
        href: u32,
    },
    /// Leave: compare with `expected`, SC `href - 1`; retry on failure.
    LeaveSc {
        expected: Pair,
        res: Reservation,
        href: u32,
        hptr: u32,
    },
    /// Claim (dwCAS_Ptr, single attempt): LL the pointer word.
    ClaimLl { target: u32 },
    /// Claim: ordinary load of the ref word.
    ClaimLoad {
        target: u32,
        res: Reservation,
        hptr: u32,
    },
    /// Claim: SC null iff the pair is still `[0, target]`.
    ClaimSc {
        target: u32,
        res: Reservation,
        hptr: u32,
        href: u32,
    },
    /// Program finished.
    Done,
}

#[derive(Clone)]
struct LlscState {
    /// The granule value between steps (the granule itself is rebuilt from
    /// this for every step, so forked DFS branches cannot share one).
    head: Pair,
    ctl: Vec<Ctl>,
    round: Vec<u32>,
    /// Threads currently inside an operation (entered, not yet left).
    inside: Vec<bool>,
    /// `next[i]` = pointer word observed when node id `next_key[i]` was
    /// pushed (a parallel-array map to keep the state `Clone`-cheap).
    next_key: Vec<u32>,
    next_val: Vec<u32>,
    /// Heads of claimed retirement lists, in claim order.
    claimed: Vec<u32>,
}

impl LlscState {
    fn new(threads: usize) -> Self {
        LlscState {
            head: Pair::default(),
            ctl: vec![Ctl::EnterLl; threads],
            round: vec![0; threads],
            inside: vec![false; threads],
            next_key: Vec::new(),
            next_val: Vec::new(),
            claimed: Vec::new(),
        }
    }

    fn next_of(&self, id: u32) -> Option<u32> {
        self.next_key
            .iter()
            .position(|&k| k == id)
            .map(|i| self.next_val[i])
    }
}

/// Explores every interleaving of `scenario` (up to `budget` complete
/// schedules), checking the head-operation invariants at each step.
pub fn explore(scenario: &LlscScenario, budget: u64) -> DfsOutcome {
    crate::dfs::explore(
        LlscState::new(scenario.threads),
        budget,
        |state| {
            (0..scenario.threads)
                .filter(|&t| !matches!(state.ctl[t], Ctl::Done))
                .collect()
        },
        |state, t, schedule| step(scenario, state, t, schedule),
        |state, schedule| check_quiescence(scenario, state, schedule),
    )
}

/// Advances `t` past a finished leave: next round or `Done`.
fn next_round(scenario: &LlscScenario, state: &mut LlscState, t: usize) {
    state.round[t] += 1;
    state.ctl[t] = if state.round[t] < scenario.rounds {
        Ctl::EnterLl
    } else {
        Ctl::Done
    };
}

fn step(
    scenario: &LlscScenario,
    state: &mut LlscState,
    t: usize,
    schedule: &[usize],
) -> Result<(), Violation> {
    let fail = |message| Violation::new(message, schedule);
    let g = granule_from(state.head);
    match state.ctl[t] {
        Ctl::EnterLl => {
            let (href, res) = g.ll(Word::Ref);
            state.ctl[t] = Ctl::EnterLoad { res, href };
        }
        Ctl::EnterLoad { res, href } => {
            let hptr = g.load_other(Word::Ref);
            state.ctl[t] = Ctl::EnterSc { res, href, hptr };
        }
        Ctl::EnterSc { res, href, hptr } => {
            if g.sc(res, href.wrapping_add(1)) {
                // Entered: the handle (`hptr` snapshot) marks the sublist
                // retired before us; double-width atomicity is guaranteed
                // because the SC validated the whole granule. The adopted
                // handle must name a node some thread really pushed — a
                // torn read of the two head words would break this.
                if hptr != 0 && state.next_of(hptr).is_none() {
                    return Err(fail(format!(
                        "thread {t} adopted handle {hptr}, which was never pushed"
                    )));
                }
                state.inside[t] = true;
                state.ctl[t] = if scenario.is_observer(t) {
                    Ctl::LeaveRead
                } else {
                    Ctl::PushRead
                };
            } else {
                state.ctl[t] = Ctl::EnterLl;
            }
        }
        Ctl::PushRead => {
            let expected = g.load_pair();
            state.ctl[t] = Ctl::PushLl { expected };
        }
        Ctl::PushLl { expected } => {
            let (hptr, res) = g.ll(Word::Ptr);
            state.ctl[t] = Ctl::PushLoad {
                expected,
                res,
                hptr,
            };
        }
        Ctl::PushLoad {
            expected,
            res,
            hptr,
        } => {
            let href = g.load_other(Word::Ptr);
            state.ctl[t] = Ctl::PushSc {
                expected,
                res,
                hptr,
                href,
            };
        }
        Ctl::PushSc {
            expected,
            res,
            hptr,
            href,
        } => {
            let id = scenario.node_id(t, state.round[t]);
            if (Pair { href, hptr }) == expected && g.sc(res, id) {
                // The pushed node links to the previous head.
                state.next_key.push(id);
                state.next_val.push(expected.hptr);
                state.ctl[t] = Ctl::LeaveRead;
            } else {
                state.ctl[t] = Ctl::PushRead;
            }
        }
        Ctl::LeaveRead => {
            let expected = g.load_pair();
            if expected.href == 0 {
                return Err(fail(format!(
                    "thread {t} leaving while HRef is already zero"
                )));
            }
            state.ctl[t] = Ctl::LeaveLl { expected };
        }
        Ctl::LeaveLl { expected } => {
            let (href, res) = g.ll(Word::Ref);
            state.ctl[t] = Ctl::LeaveLoad {
                expected,
                res,
                href,
            };
        }
        Ctl::LeaveLoad {
            expected,
            res,
            href,
        } => {
            let hptr = g.load_other(Word::Ref);
            state.ctl[t] = Ctl::LeaveSc {
                expected,
                res,
                href,
                hptr,
            };
        }
        Ctl::LeaveSc {
            expected,
            res,
            href,
            hptr,
        } => {
            if (Pair { href, hptr }) == expected && g.sc(res, expected.href - 1) {
                state.inside[t] = false;
                if expected.href == 1 && expected.hptr != 0 {
                    // HRef hit zero with a non-empty list: try to claim it
                    // (one attempt, exactly as `LlscHead::leave`).
                    state.ctl[t] = Ctl::ClaimLl {
                        target: expected.hptr,
                    };
                } else {
                    next_round(scenario, state, t);
                }
            } else {
                state.ctl[t] = Ctl::LeaveRead;
            }
        }
        Ctl::ClaimLl { target } => {
            let (hptr, res) = g.ll(Word::Ptr);
            state.ctl[t] = Ctl::ClaimLoad { target, res, hptr };
        }
        Ctl::ClaimLoad { target, res, hptr } => {
            let href = g.load_other(Word::Ptr);
            state.ctl[t] = Ctl::ClaimSc {
                target,
                res,
                hptr,
                href,
            };
        }
        Ctl::ClaimSc {
            target,
            res,
            hptr,
            href,
        } => {
            let committed = match scenario.fault {
                LlscFault::None => href == 0 && hptr == target && g.sc(res, 0),
                // The mutation: a plain single-width CAS on HPtr — no
                // granule reservation, no HRef check. Succeeds whenever the
                // pointer word alone still matches.
                LlscFault::SingleWidthClaim => {
                    let current = g.load_pair();
                    if current.hptr == target {
                        state.head = Pair {
                            href: current.href,
                            hptr: 0,
                        };
                        true
                    } else {
                        false
                    }
                }
            };
            if committed {
                if let Some(inside) = (0..scenario.threads).find(|&u| state.inside[u]) {
                    return Err(fail(format!(
                        "thread {t} claimed list {target} while thread {inside} \
                         is inside an operation (its adopted sublist is stolen)"
                    )));
                }
                state.claimed.push(target);
            }
            next_round(scenario, state, t);
            // The fault path wrote `state.head` directly; skip the granule
            // read-back below by returning here.
            if scenario.fault == LlscFault::SingleWidthClaim {
                let inside = state.inside.iter().filter(|&&b| b).count() as u32;
                debug_assert_eq!(state.head.href, inside);
                return Ok(());
            }
        }
        Ctl::Done => unreachable!("Done threads are never enabled"),
    }
    state.head = g.load_pair();
    // Counted-reference invariant: HRef tracks the threads inside.
    let inside = state.inside.iter().filter(|&&b| b).count() as u32;
    if state.head.href != inside {
        return Err(fail(format!(
            "HRef {} diverged from the {inside} thread(s) inside",
            state.head.href
        )));
    }
    Ok(())
}

fn check_quiescence(
    scenario: &LlscScenario,
    state: &LlscState,
    schedule: &[usize],
) -> Result<(), Violation> {
    let fail = |message| Violation::new(message, schedule);
    if state.head != Pair::default() {
        return Err(fail(format!(
            "head {:?} not [0, 0] at quiescence: the last leaver must claim",
            state.head
        )));
    }
    // Every pushed node must be covered by exactly one claimed chain.
    let mut seen = Vec::new();
    for &head in &state.claimed {
        let mut id = head;
        while id != 0 {
            if seen.contains(&id) {
                return Err(fail(format!("node {id} claimed twice")));
            }
            seen.push(id);
            id = state
                .next_of(id)
                .ok_or_else(|| fail(format!("claimed node {id} was never pushed")))?;
        }
    }
    let pushed = (scenario.threads - scenario.observers) * scenario.rounds as usize;
    if seen.len() != pushed {
        return Err(fail(format!(
            "leak at quiescence: {} of {pushed} nodes claimed",
            seen.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_rounds_are_exhaustive_and_safe() {
        // One thread, two rounds: each round pushes one node, the leave
        // claims it (HRef 1 -> 0 with a non-empty list).
        let outcome = explore(&LlscScenario::churn(1, 2), 1_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete);
        assert_eq!(outcome.schedules, 1, "one thread has one schedule");
    }

    #[test]
    fn two_thread_churn_budgeted() {
        // The full tree is large (each round is ~14 atomic actions); a
        // budgeted prefix still covers hundreds of thousands of schedules,
        // including the §4.4 claim-vs-enter races near the leave tail.
        let outcome = explore(&LlscScenario::churn(2, 1), 150_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.schedules >= 150_000);
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "exhaustive LL/SC DFS; run with --features slow-tests (or --ignored)"
    )]
    fn pusher_observer_exhaustive() {
        // One pushing thread, one enter/leave-only observer: the schedule
        // tree closes completely, covering every claim-vs-enter handoff
        // (including the observer's final leave doing the claim).
        let scenario = LlscScenario::churn(2, 1).with_observers(1);
        let outcome = explore(&scenario, u64::MAX);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "schedule tree fully explored");
        assert!(outcome.schedules > 100_000, "{}", outcome.schedules);
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "deep LL/SC DFS; run with --features slow-tests (or --ignored)"
    )]
    fn two_thread_churn_deep() {
        // Symmetric two-pusher churn: SC-failure retry subtrees put full
        // closure out of reach, so explore a deep fixed prefix instead.
        let outcome = explore(&LlscScenario::churn(2, 1), 3_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.schedules >= 3_000_000);
    }

    #[test]
    fn single_width_claim_mutation_is_found() {
        // Replace the claim's granule-validated SC with a plain pointer
        // CAS: a concurrent enter adopting the list no longer fails the
        // claim, and the checker must find the stealing schedule.
        let scenario = LlscScenario::churn(2, 1).with_fault(LlscFault::SingleWidthClaim);
        let outcome = explore(&scenario, 5_000_000);
        let violation = outcome.violation.expect("the stolen list must be found");
        assert!(
            violation.message.contains("inside an operation"),
            "unexpected violation: {}",
            violation.message
        );
    }

    #[test]
    fn claim_handoff_schedule_reaches_adoption() {
        // Directed replay of the Figure 7 race: T0 decrements HRef to zero,
        // T1 enters (adopting the intact list) before T0's claim, and T0's
        // claim SC must fail. The run ends clean: T1's leave claims a chain
        // covering both nodes.
        let scenario = LlscScenario::churn(2, 1);
        let mut state = LlscState::new(2);
        let mut schedule = Vec::new();
        let mut run = |state: &mut LlscState, t: usize| {
            schedule.push(t);
            step(&scenario, state, t, &schedule).expect("no violation in this schedule")
        };
        // T0: enter (3), push (4), leave decrement (4) -> HRef 0, HPtr = 1.
        for _ in 0..11 {
            run(&mut state, 0);
        }
        assert_eq!(state.head, Pair { href: 0, hptr: 1 });
        assert!(matches!(state.ctl[0], Ctl::ClaimLl { target: 1 }));
        // T0 takes its claim LL + load, then T1 enters before the SC.
        run(&mut state, 0);
        run(&mut state, 0);
        for _ in 0..3 {
            run(&mut state, 1);
        }
        assert_eq!(state.head, Pair { href: 1, hptr: 1 }, "T1 adopted the list");
        // T0's claim SC now fails (the granule changed since its LL).
        run(&mut state, 0);
        assert!(state.claimed.is_empty(), "claim must fail after adoption");
        assert!(matches!(state.ctl[0], Ctl::Done));
        // T1 finishes: push node 2 (links to 1), leave, claim chain 2 -> 1.
        while !matches!(state.ctl[1], Ctl::Done) {
            run(&mut state, 1);
        }
        check_quiescence(&scenario, &state, &schedule).expect("clean quiescence");
        assert_eq!(state.claimed, vec![2]);
        assert_eq!(state.next_of(2), Some(1), "T1's node links to T0's");
    }
}
