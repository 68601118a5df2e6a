//! Exhaustive interleaving exploration of the Crystalline protocols: the
//! wait-free batch **handoff** (Crystalline-L) and the era-certification
//! **helping** of stalled protect loops (Crystalline-W).
//!
//! Crystalline's two additions to the Hyaline-1S skeleton — the `HANDOFF`
//! and `HELPING` switches of `hyaline::Domain`, implemented in that crate's
//! `waitfree` module — each introduce a new cross-thread accounting
//! discipline:
//!
//! * a retirer that exhausts its CAS attempts deposits the batch's REFS
//!   pointer into the slot's *handoff cell* with an unconditional swap,
//!   tagged with the slot's occupancy sequence (`hand_off`, called from
//!   the one `insert_owned` loop). The entry carries one `NRef` reference,
//!   which the slot's owner releases at `leave` (`collect_handoff`). A
//!   later retirer that displaces the entry must release that reference
//!   **only** when the tag proves the deposit-time occupancy ended —
//!   otherwise it adopts the entry and retries later (`release_or_adopt`,
//!   `retry_adopted`, both through `release_if_ended`);
//! * a helper raises a stalled slot's access era (the CAS-max `touch`) and
//!   only **then** certifies the raised era into the slot's result word
//!   (`help_pending`); the owner consumes the certificate by *reloading*
//!   the protected pointer and checking the global era has not passed the
//!   certified value (`protect_slow`).
//!
//! Like [`crate::pool`], every transition is one atomic action under
//! sequential consistency, and the model is exercised under every schedule
//! of small thread programs. Reference counts are signed running sums (the
//! model-level analogue of the wrapping `NRef`/`Adjs` accounting): a batch
//! is freed exactly when a delta application lands the sum on zero. The
//! checks wired into the model:
//!
//! * **use-after-free** — an occupant's `Use` of a held node whose batch
//!   has been freed;
//! * **double-free / accounting-after-free** — any reference delta applied
//!   to a freed batch;
//! * **leak / imbalance** — at quiescence (after a deterministic
//!   domain-teardown sweep of cells and adopted entries), every retired
//!   batch must be freed and every running sum must be zero.
//!
//! Fault-injected protocol variants ([`CrystalFault`]) must each be caught
//! by these checks: releasing a displaced entry without the tag check,
//! forgetting the handoff's reference count, and certifying an era without
//! first raising the slot's access. Each fault corresponds to a tempting
//! "simplification" of the production protocol; the explorer demonstrates
//! the schedule that breaks it.

use crate::{DfsOutcome, Violation};

/// A protocol bug injected into the model; the explorer must catch each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrystalFault {
    /// The displacing retirer releases the previous cell entry's reference
    /// unconditionally, skipping the occupancy-tag comparison.
    ReleaseWithoutTagCheck,
    /// The handoff deposit does not count toward the batch's insertions, so
    /// the final `adjust` under-credits the batch by one.
    ForgetHandoffInsert,
    /// The helper certifies the era *without* raising the slot's access
    /// first, so the certificate promises a reservation that was never
    /// published.
    CertifyWithoutTouch,
}

/// One atomic step of a modelled thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrystalOp {
    /// Occupant: begin an occupancy of `slot`.
    Enter(usize),
    /// Occupant: read the shared link into the thread's hold register.
    ReadLink,
    /// Occupant: dereference the held node (use-after-free check).
    Use,
    /// Occupant: end the occupancy of `slot` — deactivate the head,
    /// detach the retirement list, bump the occupancy sequence.
    LeaveBegin(usize),
    /// Occupant: collect `slot`'s handoff cell (release its reference).
    LeaveCollect(usize),
    /// Occupant: traverse the detached list, releasing one reference per
    /// batch.
    LeaveTraverse(usize),
    /// Occupant (helping scenario): `LeaveBegin` + `LeaveCollect` +
    /// `LeaveTraverse` as one step.
    LeaveAll(usize),
    /// Retirer: clear the shared link (the retire contract's unlink).
    Unlink,
    /// Retirer: allocate-and-publish batch `b`'s node — stamp its birth
    /// with the current era and swap it into the link (unlinking the
    /// previous node).
    Publish(usize),
    /// Retirer: the insertion activity check on `slot` for batch `b`
    /// (`active && access >= birth`), plus the occupancy-tag read.
    CheckSlot {
        /// Target slot.
        slot: usize,
        /// Batch being retired.
        batch: usize,
    },
    /// Retirer: unconditional swap of batch `b` (tagged) into `slot`'s
    /// handoff cell; takes ownership of the displaced entry.
    DepositCell {
        /// Target slot.
        slot: usize,
        /// Batch being retired.
        batch: usize,
    },
    /// Retirer: decide the displaced entry's fate — release its reference
    /// if the slot's occupancy sequence moved past the entry's tag, else
    /// adopt it.
    Decide {
        /// Slot whose displaced entry is being decided.
        slot: usize,
    },
    /// Retirer: CAS-append batch `b` to `slot`'s retirement list (the
    /// non-handoff path; fails silently if the occupancy ended).
    InsertList {
        /// Target slot.
        slot: usize,
        /// Batch being retired.
        batch: usize,
    },
    /// Retirer: apply the accumulated insertion count to batch `b`'s
    /// reference sum (the `adjust_refs` step).
    AdjustRefs {
        /// Batch being credited.
        batch: usize,
    },
    /// Retirer: retry adopted entries, releasing those whose occupancy
    /// ended.
    RetryAdopted,
    /// Helper: advance the global era.
    AdvanceEra,
    /// Helper: observe a pending request on `slot` and raise its access to
    /// the current era (skipped under [`CrystalFault::CertifyWithoutTouch`]).
    HelpTouch(usize),
    /// Helper: certify the touched era into `slot`'s result word.
    HelpCert(usize),
    /// Owner (helping scenario): publish a help request on `slot`.
    Arm(usize),
    /// Owner: consume a certificate if present, else self-help (touch the
    /// access era directly).
    TryCert(usize),
    /// Owner: reload the shared link under the published/certified
    /// reservation.
    ReloadLink,
    /// Owner: validate the reservation — era must not have passed the
    /// certified (or self-published) value, else drop the hold.
    Validate(usize),
}

/// A modelled batch: birth era, signed reference running sum, flags.
#[derive(Debug, Clone)]
struct MBatch {
    birth: u64,
    nref: i64,
    freed: bool,
    retired: bool,
}

/// A modelled slot.
#[derive(Debug, Clone)]
struct MSlot {
    active: bool,
    access: u64,
    seq: usize,
    head: Vec<usize>,
    detached: Vec<usize>,
    cell: Option<(usize, usize)>, // (batch, tag)
    req: bool,
    cert: Option<u64>,
}

/// Per-thread registers.
#[derive(Debug, Clone, Default)]
struct Regs {
    hold: Option<usize>,
    will_insert: bool,
    tag: usize,
    inserts: i64,
    prev: Option<(usize, usize)>,
    adopted: Vec<(usize, usize, usize)>, // (slot, tag, batch)
    cert_cache: Option<u64>,
    self_era: Option<u64>,
    help_era: Option<u64>,
}

#[derive(Debug, Clone)]
struct CrystalState {
    slots: Vec<MSlot>,
    batches: Vec<MBatch>,
    link: Option<usize>,
    era: u64,
    pc: Vec<usize>,
    regs: Vec<Regs>,
}

/// A scenario: initial slots/batches/link plus one program per thread.
#[derive(Debug, Clone)]
pub struct CrystalScenario {
    /// Number of slots.
    pub slots: usize,
    /// `(birth, retired)` per batch. Non-retired batches model still-live
    /// nodes (never freed, exempt from the leak check).
    pub batches: Vec<(u64, bool)>,
    /// Initial shared-link contents.
    pub link: Option<usize>,
    /// Threads pre-entered into a slot: `(thread, slot)`.
    pub pre_entered: Vec<(usize, usize)>,
    /// Threads pre-holding a batch's node: `(thread, batch)`.
    pub pre_hold: Vec<(usize, usize)>,
    /// Per-thread step sequences.
    pub programs: Vec<Vec<CrystalOp>>,
    /// Injected protocol bug, if any.
    pub fault: Option<CrystalFault>,
    /// Human-readable description.
    pub name: String,
}

/// Applies a signed reference delta; frees the batch when the running sum
/// lands on zero (the model of the wrapping `NRef` zero-crossing).
fn apply_delta(
    state: &mut CrystalState,
    batch: usize,
    delta: i64,
    schedule: &[usize],
) -> Result<(), Violation> {
    let b = &mut state.batches[batch];
    if b.freed {
        return Err(Violation::new(
            format!(
                "double-free: reference delta {delta:+} applied to already-freed batch {batch}"
            ),
            schedule,
        ));
    }
    b.nref += delta;
    if b.nref == 0 && b.retired {
        b.freed = true;
    }
    Ok(())
}

fn step(
    scenario: &CrystalScenario,
    state: &mut CrystalState,
    t: usize,
    schedule: &[usize],
) -> Result<(), Violation> {
    let fail = |message| Violation::new(message, schedule);
    let op = scenario.programs[t][state.pc[t]];
    state.pc[t] += 1;
    match op {
        CrystalOp::Enter(s) => {
            state.slots[s].active = true;
        }
        CrystalOp::ReadLink => {
            state.regs[t].hold = state.link;
        }
        CrystalOp::Use => {
            if let Some(b) = state.regs[t].hold {
                if state.batches[b].freed {
                    return Err(fail(format!(
                        "use-after-free: thread {t} dereferenced a node of freed batch {b}"
                    )));
                }
            }
        }
        CrystalOp::LeaveBegin(s) => {
            let slot = &mut state.slots[s];
            slot.active = false;
            slot.seq += 1;
            slot.detached = std::mem::take(&mut slot.head);
            state.regs[t].hold = None;
        }
        CrystalOp::LeaveCollect(s) => {
            if let Some((b, _tag)) = state.slots[s].cell.take() {
                apply_delta(state, b, -1, schedule)?;
            }
        }
        CrystalOp::LeaveTraverse(s) => {
            for b in std::mem::take(&mut state.slots[s].detached) {
                apply_delta(state, b, -1, schedule)?;
            }
        }
        CrystalOp::LeaveAll(s) => {
            let slot = &mut state.slots[s];
            slot.active = false;
            slot.seq += 1;
            state.regs[t].hold = None;
            let cell = slot.cell.take();
            let detached = std::mem::take(&mut slot.head);
            if let Some((b, _tag)) = cell {
                apply_delta(state, b, -1, schedule)?;
            }
            for b in detached {
                apply_delta(state, b, -1, schedule)?;
            }
        }
        CrystalOp::Unlink => {
            state.link = None;
        }
        CrystalOp::Publish(b) => {
            state.batches[b].birth = state.era;
            state.link = Some(b);
        }
        CrystalOp::CheckSlot { slot, batch } => {
            let s = &state.slots[slot];
            state.regs[t].will_insert = s.active && s.access >= state.batches[batch].birth;
            state.regs[t].tag = s.seq;
        }
        CrystalOp::DepositCell { slot, batch } => {
            if !state.regs[t].will_insert {
                return Ok(());
            }
            let tag = state.regs[t].tag;
            // The unconditional swap: take the previous entry, install ours.
            state.regs[t].prev = state.slots[slot].cell.replace((batch, tag));
            if scenario.fault != Some(CrystalFault::ForgetHandoffInsert) {
                state.regs[t].inserts += 1;
            }
        }
        CrystalOp::Decide { slot } => {
            let Some((b, tag)) = state.regs[t].prev.take() else {
                return Ok(());
            };
            let release = scenario.fault == Some(CrystalFault::ReleaseWithoutTagCheck)
                || state.slots[slot].seq != tag;
            if release {
                apply_delta(state, b, -1, schedule)?;
            } else {
                state.regs[t].adopted.push((slot, tag, b));
            }
        }
        CrystalOp::InsertList { slot, batch } => {
            // The CAS can only succeed against the occupancy the check saw:
            // a leave swaps the head word, so re-verify activity.
            if state.regs[t].will_insert && state.slots[slot].active {
                state.slots[slot].head.push(batch);
                state.regs[t].inserts += 1;
            }
        }
        CrystalOp::AdjustRefs { batch } => {
            let inserts = std::mem::take(&mut state.regs[t].inserts);
            apply_delta(state, batch, inserts, schedule)?;
        }
        CrystalOp::RetryAdopted => {
            let adopted = std::mem::take(&mut state.regs[t].adopted);
            for (slot, tag, b) in adopted {
                if state.slots[slot].seq != tag {
                    apply_delta(state, b, -1, schedule)?;
                } else {
                    state.regs[t].adopted.push((slot, tag, b));
                }
            }
        }
        CrystalOp::AdvanceEra => {
            state.era += 1;
        }
        CrystalOp::HelpTouch(s) => {
            if state.slots[s].req {
                let e = state.era;
                if scenario.fault != Some(CrystalFault::CertifyWithoutTouch) {
                    let slot = &mut state.slots[s];
                    slot.access = slot.access.max(e);
                }
                state.regs[t].help_era = Some(e);
            }
        }
        CrystalOp::HelpCert(s) => {
            if let Some(e) = state.regs[t].help_era.take() {
                if state.slots[s].req && state.slots[s].cert.is_none() {
                    state.slots[s].cert = Some(e);
                }
            }
        }
        CrystalOp::Arm(s) => {
            state.slots[s].cert = None;
            state.slots[s].req = true;
        }
        CrystalOp::TryCert(s) => {
            if let Some(e) = state.slots[s].cert {
                state.regs[t].cert_cache = Some(e);
            } else {
                // Self-help: publish the reservation *before* the reload.
                let e = state.era;
                let slot = &mut state.slots[s];
                slot.access = slot.access.max(e);
                state.regs[t].self_era = Some(e);
            }
        }
        CrystalOp::ReloadLink => {
            state.regs[t].hold = state.link;
        }
        CrystalOp::Validate(s) => {
            let regs = &mut state.regs[t];
            let ok = match (regs.cert_cache.take(), regs.self_era.take()) {
                (Some(cert), _) => state.era <= cert,
                (None, Some(e)) => state.era == e,
                (None, None) => false,
            };
            if !ok {
                // A bounded model gives up instead of retrying; dropping the
                // hold is always safe.
                regs.hold = None;
            }
            state.slots[s].req = false;
        }
    }
    Ok(())
}

/// The deterministic domain-teardown sweep plus end-state invariants.
fn check_terminal(
    scenario: &CrystalScenario,
    state: &mut CrystalState,
    schedule: &[usize],
) -> Result<(), Violation> {
    // Domain drop: collect every cell entry and every still-adopted
    // (orphaned) entry, then verify the accounting converged.
    for s in 0..state.slots.len() {
        if let Some((b, _tag)) = state.slots[s].cell.take() {
            apply_delta(state, b, -1, schedule)?;
        }
    }
    for t in 0..state.regs.len() {
        let adopted = std::mem::take(&mut state.regs[t].adopted);
        for (_slot, _tag, b) in adopted {
            apply_delta(state, b, -1, schedule)?;
        }
    }
    for (i, b) in state.batches.iter().enumerate() {
        if !b.retired {
            continue;
        }
        if !b.freed {
            return Err(Violation::new(
                format!(
                    "leak: retired batch {i} never freed at quiescence (nref sum {}) in {}",
                    b.nref, scenario.name
                ),
                schedule,
            ));
        }
        if b.nref != 0 {
            return Err(Violation::new(
                format!(
                    "imbalance: batch {i} freed but reference sum ended at {} in {}",
                    b.nref, scenario.name
                ),
                schedule,
            ));
        }
    }
    Ok(())
}

/// Explores every interleaving of `scenario` (up to `budget` complete
/// schedules), checking the Crystalline accounting invariants throughout.
pub fn explore(scenario: &CrystalScenario, budget: u64) -> DfsOutcome {
    let mut state = CrystalState {
        slots: (0..scenario.slots)
            .map(|_| MSlot {
                active: false,
                access: 0,
                seq: 0,
                head: Vec::new(),
                detached: Vec::new(),
                cell: None,
                req: false,
                cert: None,
            })
            .collect(),
        batches: scenario
            .batches
            .iter()
            .map(|&(birth, retired)| MBatch {
                birth,
                nref: 0,
                freed: false,
                retired,
            })
            .collect(),
        link: scenario.link,
        era: 0,
        pc: vec![0; scenario.programs.len()],
        regs: vec![Regs::default(); scenario.programs.len()],
    };
    for &(t, s) in &scenario.pre_entered {
        let _ = t;
        state.slots[s].active = true;
    }
    for &(t, b) in &scenario.pre_hold {
        state.regs[t].hold = Some(b);
    }
    crate::dfs::explore(
        state,
        budget,
        |state| {
            (0..scenario.programs.len())
                .filter(|&t| state.pc[t] < scenario.programs[t].len())
                .collect()
        },
        |state, t, schedule| step(scenario, state, t, schedule),
        |state, schedule| check_terminal(scenario, state, schedule),
    )
}

/// Two retirers handing off through the same occupied slot: the second
/// deposit displaces the first entry while the deposit-time occupant still
/// holds a node of the displaced batch. The tag check must force adoption;
/// releasing early is a use-after-free.
pub fn handoff_displacement(fault: Option<CrystalFault>) -> CrystalScenario {
    use CrystalOp::*;
    CrystalScenario {
        slots: 1,
        // Batch 0 ("A"): retired, a node of it is held by the occupant.
        // Batch 1 ("B"): retired by the second thread.
        batches: vec![(0, true), (0, true)],
        link: None,
        pre_entered: vec![(0, 0)],
        pre_hold: vec![(0, 0)],
        programs: vec![
            vec![Use, LeaveBegin(0), LeaveCollect(0), LeaveTraverse(0)],
            vec![
                CheckSlot { slot: 0, batch: 0 },
                DepositCell { slot: 0, batch: 0 },
                Decide { slot: 0 },
                AdjustRefs { batch: 0 },
            ],
            vec![
                CheckSlot { slot: 0, batch: 1 },
                DepositCell { slot: 0, batch: 1 },
                Decide { slot: 0 },
                AdjustRefs { batch: 1 },
                RetryAdopted,
            ],
        ],
        fault,
        name: format!("handoff_displacement(fault={fault:?})"),
    }
}

/// One retirer handing off while the occupant enters, reads the link, and
/// leaves: covers the activity-check race, floating entries deposited
/// around a leave, and collection at leave versus teardown.
pub fn handoff_occupancy_race(fault: Option<CrystalFault>) -> CrystalScenario {
    use CrystalOp::*;
    CrystalScenario {
        slots: 1,
        batches: vec![(0, true)],
        link: Some(0),
        pre_entered: Vec::new(),
        pre_hold: Vec::new(),
        programs: vec![
            vec![
                Enter(0),
                ReadLink,
                Use,
                LeaveBegin(0),
                LeaveCollect(0),
                LeaveTraverse(0),
            ],
            vec![
                Unlink,
                CheckSlot { slot: 0, batch: 0 },
                DepositCell { slot: 0, batch: 0 },
                Decide { slot: 0 },
                AdjustRefs { batch: 0 },
            ],
        ],
        fault,
        name: format!("handoff_occupancy_race(fault={fault:?})"),
    }
}

/// The Crystalline-W certification protocol: an owner arms a help request,
/// a helper touches-then-certifies around era advances, and a retirer
/// era-skips the slot. The certificate is sound only because the access
/// era is raised *before* it is written — the injected
/// [`CrystalFault::CertifyWithoutTouch`] breaks exactly that edge.
pub fn helping_certification(fault: Option<CrystalFault>) -> CrystalScenario {
    use CrystalOp::*;
    CrystalScenario {
        slots: 1,
        // Batch 0: the pre-published node (never retired here).
        // Batch 1: published then retired era-fresh by the retirer.
        // Batch 2: the replacement left live in the link.
        batches: vec![(0, false), (0, true), (0, false)],
        link: Some(0),
        pre_entered: vec![(0, 0)],
        pre_hold: vec![],
        programs: vec![
            vec![
                Arm(0),
                TryCert(0),
                ReloadLink,
                Validate(0),
                Use,
                LeaveAll(0),
            ],
            vec![
                Publish(1),
                Publish(2),
                CheckSlot { slot: 0, batch: 1 },
                InsertList { slot: 0, batch: 1 },
                AdjustRefs { batch: 1 },
            ],
            vec![AdvanceEra, HelpTouch(0), HelpCert(0), AdvanceEra],
        ],
        fault,
        name: format!("helping_certification(fault={fault:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_displacement_is_safe() {
        let outcome = explore(&handoff_displacement(None), 2_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "exploration must be exhaustive");
        assert!(outcome.schedules > 0);
    }

    #[test]
    fn handoff_occupancy_race_is_safe() {
        let outcome = explore(&handoff_occupancy_race(None), 2_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "exploration must be exhaustive");
        assert!(outcome.schedules > 0);
    }

    #[test]
    fn helping_certification_is_safe() {
        let outcome = explore(&helping_certification(None), 5_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "exploration must be exhaustive");
        assert!(outcome.schedules > 0);
    }

    #[test]
    fn release_without_tag_check_is_caught() {
        let outcome = explore(
            &handoff_displacement(Some(CrystalFault::ReleaseWithoutTagCheck)),
            2_000_000,
        );
        let v = outcome
            .violation
            .expect("the unconditional release must break");
        assert!(
            v.message.contains("use-after-free") || v.message.contains("double-free"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn forgotten_handoff_reference_is_caught() {
        let outcome = explore(
            &handoff_displacement(Some(CrystalFault::ForgetHandoffInsert)),
            2_000_000,
        );
        let v = outcome.violation.expect("the missing +1 must break");
        assert!(
            v.message.contains("use-after-free") || v.message.contains("double-free"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn forgotten_handoff_reference_is_caught_in_occupancy_race() {
        let outcome = explore(
            &handoff_occupancy_race(Some(CrystalFault::ForgetHandoffInsert)),
            2_000_000,
        );
        assert!(
            outcome.violation.is_some(),
            "the missing +1 must break some schedule"
        );
    }

    #[test]
    fn certify_without_touch_is_caught() {
        let outcome = explore(
            &helping_certification(Some(CrystalFault::CertifyWithoutTouch)),
            5_000_000,
        );
        let v = outcome
            .violation
            .expect("the unpublished certificate must break");
        assert!(
            v.message.contains("use-after-free"),
            "unexpected violation: {}",
            v.message
        );
    }
}
