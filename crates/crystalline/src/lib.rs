//! Crystalline: wait-free memory reclamation atop the Hyaline batch core.
//!
//! The repo's third scheme family (after the Hyaline variants and the
//! classic baselines), following *"Crystalline: Fast and Memory Efficient
//! Wait-Free Reclamation"* (Nikolaev & Ravindran — the same author lineage
//! as Hyaline). That paper presents Crystalline-L as the Hyaline-1S layout
//! (one owned slot per thread, birth eras + per-slot access eras, one `NRef`
//! counter per batch of retired nodes) plus a bounded-attempt handoff, and
//! Crystalline-W as L plus helping. The code says the same: both are
//! settings of the one [`hyaline::Domain`] — `HANDOFF` and `HELPING`, next
//! to Hyaline's own `SINGLE` and `ERAS` — and this crate is their names.
//! Everything below is implemented in the `hyaline` crate: the switches in
//! `domain.rs`, what they switch in (handoff cell, adoption, orphan list,
//! helping) in its private `waitfree` module, whose header also lists what
//! each costs over Hyaline-1S. The two places where Hyaline's progress is
//! merely lock-free, and how they go:
//!
//! * **Wait-free `retire` — [`CrystallineL`].** Hyaline inserts a batch into
//!   each active slot's retirement list with a CAS loop, which concurrent
//!   inserters can starve. Crystalline bounds the attempts
//!   ([`handoff_attempts`](smr_core::SmrConfig::handoff_attempts)) and then
//!   *hands the batch off*: one unconditional `swap` deposits the batch's
//!   REFS pointer into the slot's dedicated *handoff cell*, tagged with the
//!   slot's 16-bit occupancy sequence. The cell entry carries one `NRef` reference, exactly like a
//!   list insertion; the slot's owner collects it at `leave`. A later
//!   retirer that displaces the entry releases its reference only when the
//!   tag proves the deposit-time occupancy has ended — otherwise it *adopts*
//!   the entry and retries after the occupancy sequence advances (spilling
//!   to a domain-wide orphan list if the handle drops first). Wrap-around of
//!   the 16-bit tag errs only in the conservative direction: equal tags keep
//!   the reference alive, never release it early.
//!
//! * **Helped `protect` — [`CrystallineW`].** An era-based protect loop
//!   terminates only when the global era stays put across one pointer load;
//!   threads that keep advancing the era can starve it. Crystalline-W gives
//!   every slot a *state/result* word pair: after a bounded fast path the
//!   owner publishes a request (`req`), and any thread about to advance the
//!   era first *helps* — it raises the slot's access era with a CAS-max
//!   `touch` and then certifies the raised era into `result`. The owner
//!   consumes the certificate by reloading the pointer and checking the era
//!   did not pass the certified value, so the protection invariant (access
//!   era published before the load it covers) is exactly the one Hyaline-1S
//!   establishes for itself. Helpers touch only the domain's own slot words
//!   — never memory owned by the data structure — so helping cannot
//!   use-after-free by construction. A per-slot monotone request sequence
//!   defeats stale certificates from helpers of an earlier request.
//!
//! Both variants implement [`smr_core::Smr`], so every `lockfree-ds`
//! structure, `Sharded` adapter, `HandlePool`, and the async `TaskGuard`
//! path work unchanged. Like Hyaline-1S they are *robust*: a stalled
//! reader's access era goes stale and retirement skips its slot, so the
//! peak retired-but-unreclaimed count stays bounded under stalls (the
//! `stalled-reader` sweep in `bench-harness` records this directly).
//!
//! The handoff and helping protocols are exhaustively model-checked in
//! `interleave::crystalline`, including fault-injected variants (releasing
//! a displaced entry without the tag check, forgetting the handoff's `NRef`
//! reference, certifying before touching) that the checker must catch.
//!
//! # Quick start
//!
//! ```
//! use crystalline::CrystallineL;
//! use smr_core::{Smr, SmrHandle};
//!
//! let domain: CrystallineL<u32> = CrystallineL::new();
//! let mut h = domain.handle();
//! h.enter();
//! let node = h.alloc(7);
//! unsafe { h.retire(node) };
//! h.leave();
//! ```

#![warn(missing_docs)]

pub use hyaline::{Crystalline, CrystallineHandle, CrystallineL, CrystallineW};
