//! Hyaline: fast and transparent lock-free memory reclamation.
//!
//! This crate implements every algorithm of *"Hyaline: Fast and Transparent
//! Lock-Free Memory Reclamation"* (Nikolaev & Ravindran, PODC 2019) and the
//! two of its wait-free successor, *"Crystalline: Fast and Memory Efficient
//! Wait-Free Reclamation"* (same authors). The first paper presents its four
//! as one algorithm with two independent switches, the second presents its
//! two as Hyaline-1S with two more, and so does the code: one [`Domain`] and
//! one [`Handle`] with four `const` parameters, and six aliases naming the
//! legal settings.
//!
//! | alias | `SINGLE` | `ERAS` | `HANDOFF` | `HELPING` | paper |
//! |---|---|---|---|---|---|
//! | [`Hyaline`] | no | no | no | no | Figure 3, the general multiple-list algorithm |
//! | [`Hyaline1`] | yes | no | no | no | Figure 4, single-width CAS, wait-free `enter`/`leave` |
//! | [`HyalineS`] | no | yes | no | no | Figure 5, robust; Figure 6 (§4.3 adaptive resizing) when `adaptive` |
//! | [`Hyaline1S`] | yes | yes | no | no | Figures 4 + 5, robust with one slot per thread |
//! | [`CrystallineL`] | yes | yes | yes | no | Crystalline-L: Hyaline-1S with a wait-free `retire` |
//! | [`CrystallineW`] | yes | yes | yes | yes | Crystalline-W: Crystalline-L with a wait-free `protect` |
//!
//! Where the figures differ, and so where `domain.rs` branches:
//!
//! | step | multi-entry head (`!SINGLE`) | single-entry head (`SINGLE`) | `ERAS` adds | `HANDOFF` adds | `HELPING` adds |
//! |---|---|---|---|---|---|
//! | slot | shared round-robin, `k = slots` | owned, claimed from a registry of `max_threads` | shared slots only: `enter` avoids slots with `Ack ≥ ack_threshold`, growing the directory when `adaptive` | — | — |
//! | `enter` | fetch-add on `HRef`; the old `HPtr` is the handle | store the active bit | — | — | — |
//! | `leave` | CAS loop; the last one out detaches the list | swap; traverse the detached list | shared slots: `Ack -=` nodes traversed | bump the occupancy sequence, collect the handoff cell; retry adopted and orphaned entries before freeing | — |
//! | `retire` | every slot `0..k`; predecessors credited with the `HRef` snapshot; skipped slots' `Adjs` in one adjustment; spare dummies past the block's own nodes | every claimed slot; count the insertions; spare dummies past the block's own nodes | fence; cut the batch at each active slot's access era that lies inside its birth range and insert the parts as batches of their own, oldest first; skip slots with `access < min_birth`; shared slots: `Ack += HRef` | after `handoff_attempts` failed CASes on a slot, swap the batch into its handoff cell and count that | — |
//! | batch size | a full batch is `max(batch_min, k + 1)`, `Adjs = 2^64 / k`; a flushed partial batch gains one dummy per entered slot beyond its own nodes | a full batch is `max(batch_min, claimed + 1)`, `Adjs = 0`; a flushed partial batch likewise | `k` read when the batch is finalized | — | — |
//! | `alloc` | pool | pool | advance the clock every `era_freq`, stamp the birth era | — | certify pending protect requests before advancing the clock |
//! | `protect` | load | load | raise the slot's access era: CAS-max on shared slots, owner store + fence on owned | — | CAS-max + fence on owned slots too; publish a request after 8 rounds |
//! | drop | flush | flush, release the slot | — | handle: adopted entries go to the domain's orphan list; domain: release what cells and orphan list still hold | — |
//!
//! The rest — batches, the per-handle state and its traverse, free loop
//! and flush, §3.3 `trim`, the slot table — exists once, and what the last
//! two columns switch in is one private module. [`head`] holds both
//! head encodings and [`llsc`] a software model of single-width LL/SC
//! reservation granules with the Figure 7 head operations built on them
//! (the paper's PPC/MIPS port, §4.4).
//!
//! All variants implement the [`smr_core::Smr`] interface, so any data
//! structure written against it (see the `lockfree-ds` crate) can use them
//! interchangeably with the baseline schemes.
//!
//! # Quick start
//!
//! ```
//! use hyaline::Hyaline;
//! use smr_core::{Atomic, Shared, Smr, SmrHandle};
//! use std::sync::atomic::Ordering;
//!
//! let domain: Hyaline<String> = Hyaline::new();
//! let slot = Atomic::null();
//!
//! let mut h = domain.handle();
//! h.enter();
//! let node = h.alloc("hello".to_string());
//! slot.store(node, Ordering::Release);
//! // ... publish to other threads, operate, then unlink:
//! let unlinked = slot.swap(Shared::null(), Ordering::AcqRel);
//! unsafe { h.retire(unlinked) };
//! h.leave(); // the thread is immediately "off the hook"
//! ```

#![warn(missing_docs)]

mod batch;
#[cfg(test)]
mod battery;
mod domain;
pub mod head;
pub mod llsc;
mod local;
mod slots;
mod waitfree;

pub use crate::crystalline::{Crystalline, CrystallineHandle, CrystallineL, CrystallineW};
pub use crate::domain::{Domain, Handle};
pub use crate::hyaline::{Hyaline, HyalineHandle};
pub use crate::hyaline1::{Hyaline1, Hyaline1Handle};
pub use crate::hyaline1_s::{Hyaline1S, Hyaline1SHandle};
pub use crate::hyaline_s::{HyalineS, HyalineSHandle};

// One section per alias: what the switch setting is, and the unit tests that
// make sense for that setting only. The cases all six share are in
// `battery`.

mod hyaline {
    /// The general Hyaline reclamation domain (paper Sections 3.1–3.3,
    /// Figure 3): multiple slot retirement lists, batched retirement, and
    /// `Adjs` wrap-around accounting.
    ///
    /// Hyaline is fully *transparent*: handles need no registration, any
    /// number of threads may share the fixed `k` slots, and a dropped handle
    /// finalizes its partial batch at once, with a dummy node for each
    /// entered slot its own nodes do not cover, so the thread is
    /// immediately "off the hook". It is **not robust**: a stalled thread
    /// inside an operation pins every batch retired in its slot since it
    /// entered (use [`HyalineS`](crate::HyalineS) when robustness matters).
    ///
    /// # Example
    ///
    /// ```
    /// use hyaline::Hyaline;
    /// use smr_core::{Smr, SmrHandle};
    ///
    /// let domain: Hyaline<u64> = Hyaline::new();
    /// let mut h = domain.handle();
    /// h.enter();
    /// let node = h.alloc(7);
    /// unsafe { h.retire(node) };
    /// h.leave();
    /// ```
    pub type Hyaline<T> = crate::Domain<T, false, false>;

    /// Per-thread handle to a [`Hyaline`] domain.
    pub type HyalineHandle<'d, T> = crate::Handle<'d, T, false, false>;

    #[cfg(test)]
    mod tests {
        use super::Hyaline;
        use crate::battery::{self, small};
        use crate::domain::adjs_for;
        use smr_core::{Atomic, Smr, SmrHandle};

        battery::cases!(Hyaline:
            single_thread_retire_reclaims_everything,
            many_threads_stress_reclaims_all,
            trim_reclaims_without_leaving,
            concurrent_stalled_reader_blocks_then_releases);

        #[test]
        fn adjs_constant_matches_paper() {
            // k = 1 -> Adjs = 0 (unsigned overflow); k = 8 with 64-bit -> 2^61.
            assert_eq!(adjs_for(1), 0);
            assert_eq!(adjs_for(8), 1usize << 61);
            // k * Adjs == 0 (mod 2^64) for every power of two.
            for shift in 0..16 {
                let k = 1usize << shift;
                assert_eq!(adjs_for(k), (usize::MAX / k).wrapping_add(1));
                assert_eq!(adjs_for(k).wrapping_mul(k), 0);
            }
        }

        #[test]
        fn protect_is_plain_load() {
            let domain = Hyaline::<u64>::with_config(small());
            let mut h = domain.handle();
            h.enter();
            let node = h.alloc(42);
            let link = Atomic::new(node);
            let seen = h.protect(0, &link);
            assert_eq!(seen, node);
            // SAFETY: we are inside the operation, so `seen` is pinned and live.
            assert_eq!(unsafe { *seen.deref() }, 42);
            // SAFETY: `link` is local to this test; no other thread sees `node`.
            unsafe { h.retire(node) };
            h.leave();
        }
    }
}

mod hyaline1 {
    /// The Hyaline-1 reclamation domain (Figure 4): the single-width-CAS
    /// specialization.
    ///
    /// Every handle owns a dedicated slot, so the slot's `HRef` degenerates
    /// to a single bit merged into the head pointer. Hyaline-1 works with
    /// single-width CAS on any architecture and makes `enter`/`leave`
    /// wait-free (a store and a swap), at the cost of requiring one slot per
    /// live handle (threads register by claiming a slot, so it is *almost*
    /// transparent — the paper's Table 1). `retire` counts how many slots a
    /// batch was inserted into instead of the `Adjs` accounting.
    ///
    /// # Example
    ///
    /// ```
    /// use hyaline::Hyaline1;
    /// use smr_core::{Smr, SmrHandle};
    ///
    /// let domain: Hyaline1<u32> = Hyaline1::new();
    /// let mut h = domain.handle();
    /// h.enter();
    /// let node = h.alloc(1);
    /// unsafe { h.retire(node) };
    /// h.leave();
    /// ```
    pub type Hyaline1<T> = crate::Domain<T, true, false>;

    /// Per-thread handle to a [`Hyaline1`] domain; owns one slot.
    pub type Hyaline1Handle<'d, T> = crate::Handle<'d, T, true, false>;

    #[cfg(test)]
    mod tests {
        use super::Hyaline1;
        use crate::battery::{self, assert_all_freed, churn, small};
        use smr_core::{Smr, SmrConfig, SmrHandle};

        battery::cases!(Hyaline1:
            single_thread_reclaims_everything,
            oversubscribed_stress,
            trim_reclaims_mid_operation,
            reader_pins_batches_until_leave);

        #[test]
        fn handles_own_distinct_slots() {
            let domain = Hyaline1::<u64>::with_config(small());
            let h1 = domain.handle();
            let h2 = domain.handle();
            assert_ne!(h1.slot(), h2.slot());
            drop(h1);
            let h3 = domain.handle();
            // The released slot is reused.
            assert_eq!(h3.slot(), 0);
            drop(h2);
            drop(h3);
        }

        #[test]
        fn partial_batch_flush_with_many_active_slots() {
            // Regression test: a partial batch (1 node, so no insertion node
            // of its own) flushed while several slots are active must extend
            // with a fresh dummy *per slot* — re-inserting a batch node into a
            // second slot list corrupts the first list.
            let domain = &Hyaline1::<u64>::with_config(SmrConfig {
                batch_min: 64, // never filled during the test: flush is partial
                ..small()
            });
            let readers = 6;
            let inside = &std::sync::Barrier::new(readers + 1);
            let flushed = &std::sync::Barrier::new(readers + 1);
            std::thread::scope(|s| {
                for _ in 0..readers {
                    s.spawn(move || {
                        let mut h = domain.handle();
                        h.enter(); // slot active: the flusher must cover us
                        inside.wait();
                        flushed.wait();
                        h.leave(); // traverses whatever the flusher inserted
                    });
                }
                let mut w = domain.handle();
                inside.wait();
                churn(&mut w, 7..8);
                w.flush(); // 1 real node + one dummy per active slot (6+)
                flushed.wait();
            });
            assert_all_freed(domain);
        }

        #[test]
        fn churn_of_handles_is_transparent() {
            // Threads (handles) created and destroyed dynamically, with retired
            // nodes in flight: dropped handles must leave nothing on the hook.
            let domain = Hyaline1::<u64>::with_config(small());
            for round in 0..50u64 {
                // Dropping finalizes and inserts the partial batch.
                churn(&mut domain.handle(), round..round + 1);
            }
            assert_all_freed(&domain);
        }
    }
}

mod hyaline_s {
    /// The robust Hyaline-S reclamation domain (Figure 5, plus the §4.3
    /// adaptive slot resizing of Figure 6 when
    /// [`SmrConfig::adaptive`](smr_core::SmrConfig::adaptive) is set).
    ///
    /// Hyaline-S partially adopts *birth eras* from HE/IBR — but, unlike
    /// them, keeps no retire eras and uses eras only to *detect stalled
    /// threads*, not to define reclamation intervals. Every allocation
    /// stamps the node with the global era clock; every guarded pointer read
    /// (`protect`) raises the calling slot's access era to the current
    /// clock; `retire` skips slots whose access era is older than the
    /// batch's minimum birth era (no thread in that slot can hold a
    /// reference to any node of the batch). Slots occupied by stalled
    /// threads accumulate un-acknowledged insertions in an `Ack` counter,
    /// and `enter` avoids slots past a threshold.
    ///
    /// With `adaptive: false` the slot count is capped at
    /// [`SmrConfig::slots`](smr_core::SmrConfig::slots) (the paper's Figure
    /// 10a shows this configuration "running out of slots" once more stalled
    /// threads than slots exist). With `adaptive: true` the slot directory
    /// doubles whenever `enter` finds every slot saturated, making the
    /// scheme fully robust.
    ///
    /// # Example
    ///
    /// ```
    /// use hyaline::HyalineS;
    /// use smr_core::{Smr, SmrConfig, SmrHandle};
    ///
    /// let domain: HyalineS<u64> = HyalineS::with_config(SmrConfig {
    ///     slots: 8,
    ///     adaptive: true,
    ///     ..SmrConfig::default()
    /// });
    /// let mut h = domain.handle();
    /// h.enter();
    /// let node = h.alloc(1);
    /// unsafe { h.retire(node) };
    /// h.leave();
    /// ```
    pub type HyalineS<T> = crate::Domain<T, false, true>;

    /// Per-thread handle to a [`HyalineS`] domain.
    pub type HyalineSHandle<'d, T> = crate::Handle<'d, T, false, true>;

    #[cfg(test)]
    mod tests {
        use super::HyalineS;
        use crate::batch::W_NEXT;
        use crate::battery::{self, churn, small};
        use smr_core::{Atomic, Smr, SmrConfig, SmrHandle};
        use std::sync::atomic::Ordering;

        fn domain(slots: usize, adaptive: bool) -> HyalineS<u64> {
            HyalineS::with_config(SmrConfig {
                slots,
                adaptive,
                max_threads: 256,
                ..small()
            })
        }

        /// Marks slots `0..n` as held by stalled threads (or clears them).
        fn saturate(d: &HyalineS<u64>, n: usize, ack: i64) {
            for i in 0..n {
                d.dir.slot(i).ack.store(ack, Ordering::Relaxed);
            }
        }

        battery::cases!(HyalineS:
            single_thread_reclaims_everything,
            multithreaded_stress_reclaims_all,
            trim_reclaims_mid_operation,
            reader_pins_batches_until_leave);
        battery::cut_cases!(HyalineS);

        #[test]
        fn stalled_thread_does_not_block_new_batches() {
            battery::stalled_thread_is_skipped::<HyalineS<u64>>();
        }

        #[test]
        fn fresh_reader_is_tracked_not_skipped() {
            battery::fresh_reader_is_tracked_not_skipped::<HyalineS<u64>>();
        }

        #[test]
        fn birth_era_recorded_on_alloc() {
            let d = domain(2, false);
            let mut h = d.handle();
            h.enter();
            let node = h.alloc(1);
            // SAFETY: `node` is live and local; reading its header word is safe.
            let birth = unsafe { node.header() }
                .word(W_NEXT)
                .load(Ordering::Relaxed) as u64;
            assert!(birth >= 1, "birth era must be stamped");
            assert!(birth <= d.era());
            // SAFETY: `node` was never published; no other reference exists.
            unsafe { h.retire(node) };
            h.leave();
        }

        #[test]
        fn protect_raises_access_era() {
            let d = domain(2, false);
            let mut h = d.handle();
            h.enter();
            let node = h.alloc(5);
            let link = Atomic::new(node);
            // Advance the clock so the slot's era is stale.
            for _ in 0..10 {
                d.era.advance();
            }
            let seen = h.protect(0, &link);
            assert_eq!(seen, node);
            let slot_era = d.dir.slot(h.slot()).access.load(Ordering::SeqCst);
            assert_eq!(slot_era, d.era(), "deref must sync the slot era");
            // SAFETY: `link` is local to this test; no other thread sees `node`.
            unsafe { h.retire(node) };
            h.leave();
        }

        #[test]
        fn enter_avoids_saturated_slots() {
            let d = domain(4, false);
            saturate(&d, 1, 1 << 20);
            let mut h = d.handle();
            // Force the preferred slot to 0, then enter: it must move away.
            h.slot = 0;
            h.enter();
            assert_ne!(h.slot(), 0, "enter must skip the saturated slot");
            h.leave();
        }

        #[test]
        fn adaptive_growth_when_all_slots_saturated() {
            let d = domain(2, true);
            saturate(&d, 2, 1 << 20);
            assert_eq!(d.slot_count(), 2);
            let mut h = d.handle();
            h.enter();
            // The directory must have grown and the handle moved to a new slot.
            assert!(d.slot_count() >= 4, "directory did not grow");
            assert!(h.slot() >= 2, "handle still in a saturated slot");
            h.leave();
        }

        #[test]
        fn capped_variant_falls_back_to_least_saturated() {
            let d = domain(2, false);
            saturate(&d, 1, 1 << 20);
            d.dir.slot(1).ack.store(1 << 30, Ordering::Relaxed);
            let mut h = d.handle();
            h.enter();
            assert_eq!(d.slot_count(), 2, "capped directory must not grow");
            assert_eq!(h.slot(), 0, "expected the least-saturated slot");
            h.leave();
        }

        #[test]
        fn drop_checks_every_grown_bank() {
            // Grow twice, work through the new banks, quiesce: the domain's
            // drop check walks all eight slots and finds them empty.
            let d = domain(2, true);
            for k in [2, 4] {
                saturate(&d, k, 1 << 20);
                churn(&mut d.handle(), 0..100);
            }
            assert_eq!(d.slot_count(), 8);
            assert!(d.stats().balanced());
        }

        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "non-empty slot 3")]
        fn drop_check_reaches_grown_banks() {
            let d = domain(2, true);
            saturate(&d, 2, 1 << 20);
            churn(&mut d.handle(), 0..1); // grows to 4 slots
            d.dir.slot(3).head.enter_faa(); // a thread that never left
        }
    }
}

mod hyaline1_s {
    /// The robust Hyaline-1S reclamation domain: Hyaline-1's per-thread
    /// slots (Figure 4) with Hyaline-S's birth eras (Figure 5).
    ///
    /// Because each slot has exactly one owner, `touch` is an ordinary
    /// memory write and no `Ack` bookkeeping is needed — a stalled thread
    /// only makes its *own* slot stale, and retirement skips it by the era
    /// check, so the scheme is fully robust.
    ///
    /// # Example
    ///
    /// ```
    /// use hyaline::Hyaline1S;
    /// use smr_core::{Smr, SmrHandle};
    ///
    /// let domain: Hyaline1S<u32> = Hyaline1S::new();
    /// let mut h = domain.handle();
    /// h.enter();
    /// let node = h.alloc(1);
    /// unsafe { h.retire(node) };
    /// h.leave();
    /// ```
    pub type Hyaline1S<T> = crate::Domain<T, true, true>;

    /// Per-thread handle to a [`Hyaline1S`] domain; owns one slot.
    pub type Hyaline1SHandle<'d, T> = crate::Handle<'d, T, true, true>;

    #[cfg(test)]
    mod tests {
        use super::Hyaline1S;
        use crate::battery;

        battery::cases!(Hyaline1S:
            single_thread_reclaims_everything,
            multithreaded_stress,
            trim_reclaims_mid_operation,
            reader_pins_batches_until_leave);
        battery::cut_cases!(Hyaline1S);

        #[test]
        fn stalled_thread_is_skipped_by_era() {
            battery::stalled_thread_is_skipped::<Hyaline1S<u64>>();
        }

        #[test]
        fn fresh_reader_is_tracked_not_skipped() {
            battery::fresh_reader_is_tracked_not_skipped::<Hyaline1S<u64>>();
        }
    }
}

mod crystalline {
    /// A Crystalline reclamation domain: [`Hyaline1S`](crate::Hyaline1S)'s
    /// layout (one owned slot per handle, birth and access eras, robust)
    /// with the batch handoff that makes `retire` wait-free. `HELPING =
    /// false` is [`CrystallineL`]; `HELPING = true` is [`CrystallineW`].
    ///
    /// *"Crystalline: Fast and Memory Efficient Wait-Free Reclamation"*
    /// (Nikolaev & Ravindran, the same author lineage as Hyaline) presents
    /// Crystalline-L as the Hyaline-1S layout (one owned slot per thread,
    /// birth eras + per-slot access eras, one `NRef` counter per batch of
    /// retired nodes) plus a bounded-attempt handoff, and Crystalline-W as
    /// L plus helping. Here both are settings of the one
    /// [`Domain`](crate::Domain) — `HANDOFF` and `HELPING`, next to
    /// Hyaline's own `SINGLE` and `ERAS`. The switches are in `domain.rs`;
    /// what they switch in (handoff cell, adoption, orphan list, helping)
    /// is the private `waitfree` module, whose header also lists what each
    /// costs over Hyaline-1S. The two places where Hyaline's progress is
    /// merely lock-free, and how they go:
    ///
    /// * **Wait-free `retire` — [`CrystallineL`].** Hyaline inserts a batch
    ///   into each active slot's retirement list with a CAS loop, which
    ///   concurrent inserters can starve. Crystalline bounds the attempts
    ///   ([`handoff_attempts`](smr_core::SmrConfig::handoff_attempts)) and
    ///   then *hands the batch off*: one unconditional `swap` deposits the
    ///   batch's REFS pointer into the slot's dedicated *handoff cell*,
    ///   tagged with the slot's 16-bit occupancy sequence. The cell entry
    ///   carries one `NRef` reference, exactly like a list insertion; the
    ///   slot's owner collects it at `leave`. A later retirer that displaces
    ///   the entry releases its reference only when the tag proves the
    ///   deposit-time occupancy has ended — otherwise it *adopts* the entry
    ///   and retries after the occupancy sequence advances (spilling to a
    ///   domain-wide orphan list if the handle drops first). Wrap-around of
    ///   the 16-bit tag errs only in the conservative direction: equal tags
    ///   keep the reference alive, never release it early.
    ///
    /// * **Helped `protect` — [`CrystallineW`].** An era-based protect loop
    ///   terminates only when the global era stays put across one pointer
    ///   load; threads that keep advancing the era can starve it.
    ///   Crystalline-W gives every slot a *state/result* word pair: after a
    ///   bounded fast path the owner publishes a request (`req`), and any
    ///   thread about to advance the era first *helps* — it raises the
    ///   slot's access era with a CAS-max `touch` and then certifies the
    ///   raised era into `result`. The owner consumes the certificate by
    ///   reloading the pointer and checking the era did not pass the
    ///   certified value, so the protection invariant (access era published
    ///   before the load it covers) is exactly the one Hyaline-1S
    ///   establishes for itself. Helpers touch only the domain's own slot
    ///   words — never memory owned by the data structure — so helping
    ///   cannot use-after-free by construction. A per-slot monotone request
    ///   sequence defeats stale certificates from helpers of an earlier
    ///   request.
    ///
    /// Both variants implement [`smr_core::Smr`], so every `lockfree-ds`
    /// structure, `Sharded` adapter, `HandlePool`, and the async
    /// `TaskGuard` path work unchanged. Like Hyaline-1S they are *robust*:
    /// a stalled reader's access era goes stale and retirement skips its
    /// slot, so the peak retired-but-unreclaimed count stays bounded under
    /// stalls (the `stalled-reader` sweep in `bench-harness` records this
    /// directly).
    ///
    /// The handoff and helping protocols are exhaustively model-checked in
    /// `interleave::crystalline`, including fault-injected variants
    /// (releasing a displaced entry without the tag check, forgetting the
    /// handoff's `NRef` reference, certifying before touching) that the
    /// checker must catch.
    ///
    /// # Quick start
    ///
    /// ```
    /// use hyaline::{Crystalline, CrystallineW};
    /// use smr_core::{Smr, SmrHandle};
    ///
    /// // `Crystalline<T, true>` is `CrystallineW<T>`: the alias only names
    /// // the `HELPING` switch.
    /// let domain: Crystalline<u32, true> = CrystallineW::new();
    /// assert!(CrystallineW::<u32>::wait_free_retire());
    /// let mut h = domain.handle();
    /// h.enter();
    /// let node = h.alloc(7);
    /// unsafe { h.retire(node) };
    /// h.leave();
    /// ```
    pub type Crystalline<T, const HELPING: bool> = crate::Domain<T, true, true, true, HELPING>;

    /// Crystalline-L: wait-free retire via the per-slot handoff cell. After
    /// [`SmrConfig::handoff_attempts`](smr_core::SmrConfig::handoff_attempts)
    /// failed CASes on a slot, one swap deposits the batch in the slot's
    /// cell, which its owner collects at `leave`.
    ///
    /// # Example
    ///
    /// ```
    /// use hyaline::CrystallineL;
    /// use smr_core::{Smr, SmrHandle};
    ///
    /// let domain: CrystallineL<u32> = CrystallineL::new();
    /// assert!(CrystallineL::<u32>::wait_free_retire());
    /// let mut h = domain.handle();
    /// h.enter();
    /// let node = h.alloc(7);
    /// unsafe { h.retire(node) };
    /// h.leave();
    /// ```
    pub type CrystallineL<T> = Crystalline<T, false>;

    /// Crystalline-W: Crystalline-L plus wait-free helping of protect loops
    /// through the per-slot state/result words. Threads about to advance
    /// the era clock first certify a raised access era for every slot with
    /// a pending request.
    pub type CrystallineW<T> = Crystalline<T, true>;

    /// Per-thread handle to a [`Crystalline`] domain; owns one slot.
    pub type CrystallineHandle<'d, T, const HELPING: bool> =
        crate::Handle<'d, T, true, true, true, HELPING>;
}

// The `crystalline` crate's unit tests, moved here with its code. The suite
// has always printed them as `tests::*` and its test ids are a tracked
// floor, so the module keeps that path; the cases `battery` states are
// calls into it under the names they had.
#[cfg(test)]
mod tests {
    use crate::battery::{self, assert_all_freed, churn, small};
    use crate::domain::touch;
    use crate::slots::SlotDirectory;
    use crate::{CrystallineL, CrystallineW};
    use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    battery::cases!(CrystallineL:
        single_thread_reclaims_everything,
        multithreaded_stress_l,
        trim_reclaims_mid_operation,
        reader_pins_batches_until_leave);
    battery::cut_cases!(CrystallineL);

    mod w {
        use crate::CrystallineW;

        crate::battery::cases!(CrystallineW:
            single_thread_reclaims_everything,
            multithreaded_stress,
            trim_reclaims_mid_operation,
            reader_pins_batches_until_leave);
        crate::battery::cut_cases!(CrystallineW);
    }

    #[test]
    fn capability_flags() {
        battery::capability_flags(); // the two Crystalline rows are in the one table
    }

    #[test]
    fn stalled_thread_is_skipped_by_era() {
        battery::stalled_thread_is_skipped::<CrystallineL<u64>>();
    }

    #[test]
    fn fresh_reader_is_tracked_not_skipped() {
        battery::fresh_reader_is_tracked_not_skipped::<CrystallineW<u64>>();
    }

    /// The one CAS-max: Crystalline-W's helpers and owner both go through
    /// it, so neither can move a slot's era backward.
    #[test]
    fn touch_max_never_lowers() {
        let dir = SlotDirectory::new(1, 1);
        let slot = dir.slot(0);
        slot.access.store(10, Ordering::SeqCst);
        assert_eq!(touch(slot, 5), 10);
        assert_eq!(slot.access.load(Ordering::SeqCst), 10);
        assert_eq!(touch(slot, 17), 17);
        assert_eq!(slot.access.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn forced_handoff_single_thread_reclaims_everything() {
        // handoff_attempts = 0: every insertion into an active slot goes
        // through the handoff cell, exercising deposit, displacement,
        // adoption (own occupancy) and release at leave.
        let d = CrystallineL::<u64>::with_config(SmrConfig {
            handoff_attempts: 0,
            ..small()
        });
        churn(&mut d.handle(), 0..500);
        assert_all_freed(&d);

        // One occupancy held open across many retires. While its era is
        // fresh each batch displaces the previous one from the handle's own
        // cell and adopts it; once the era is stale batches skip the slot,
        // and every drain re-examines the same adopted entries — in place,
        // without allocating.
        let link = Atomic::null();
        let mut h = d.handle();
        h.enter();
        for i in 0..64 {
            link.store(h.alloc(i), Ordering::Release);
            let node = h.protect(0, &link);
            // SAFETY: `link` is local to this test; no other thread sees `node`.
            unsafe { h.retire(node) };
        }
        // The first few unread nodes are still born in the era the slot
        // last published; from then on no drain changes anything.
        let mut held = None;
        for i in 0..1_016 {
            let node = h.alloc(i);
            // SAFETY: `node` was never published; no other reference exists.
            unsafe { h.retire(node) };
            let now = (h.adopted.len(), h.adopted.as_ptr(), h.adopted.capacity());
            if i == 16 {
                assert!(
                    now.0 > 0,
                    "entries displaced in an open occupancy are adopted"
                );
                held = Some(now);
            }
            if let Some(held) = held {
                assert_eq!(now, held, "a stale slot's entries stay where they are");
            }
        }
        h.leave();
        assert_eq!(h.adopted.len(), 0, "the occupancy ended: all released");
        drop(h);
        assert_all_freed(&d);
    }

    #[test]
    fn multithreaded_stress_w_with_eager_eras() {
        // era_freq = 1 makes every alloc an era advance, so the helping
        // path runs constantly alongside protects.
        let d = &CrystallineW::<u64>::with_config(SmrConfig {
            era_freq: 1,
            ..small()
        });
        let link = &Atomic::<u64>::null();
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    let mut h = d.handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        let node = h.alloc(t * 1_000_000 + i);
                        let old = link.swap(node, Ordering::AcqRel);
                        let _seen = h.protect(0, link);
                        if !old.is_null() {
                            // SAFETY: the swap took the only shared link to
                            // `old`; it is unreachable for later operations.
                            unsafe { h.retire(old) };
                        }
                        h.leave();
                    }
                });
            }
        });
        // Tear down the last published node.
        let mut h = d.handle();
        h.enter();
        let last = link.swap(Shared::null(), Ordering::AcqRel);
        if !last.is_null() {
            // SAFETY: the swap unlinked the node from the only shared link.
            unsafe { h.retire(last) };
        }
        h.leave();
        drop(h);
        assert_all_freed(d);
    }

    /// Payload that counts drops through a shared counter, so the test can
    /// assert exact reclamation balance even after the domain is gone.
    struct Counted(Arc<AtomicU64>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An orphaned entry is released by the next drain once its occupancy
    /// ends, long before teardown: the orphan count gates the lock, and a
    /// handle that orphans an entry publishes the count under it.
    #[test]
    fn orphans_are_swept_by_a_later_drain() {
        let drops = Arc::new(AtomicU64::new(0));
        let d = CrystallineL::<Counted>::with_config(SmrConfig {
            handoff_attempts: 0,
            era_freq: 1 << 40, // one era throughout: the reader stays fresh
            ..small()
        });
        // One batch of `batch_min` nodes; with forced handoff it lands in
        // the open reader's cell, displacing the batch deposited before.
        let retire_batch = |h: &mut crate::CrystallineHandle<'_, Counted, false>| {
            h.enter();
            for _ in 0..small().batch_min {
                let node = h.alloc(Counted(Arc::clone(&drops)));
                // SAFETY: `node` was never published; no other reference.
                unsafe { h.retire(node) };
            }
            h.leave();
        };
        let mut reader = d.handle();
        reader.enter();
        let _ = reader.protect(0, &Atomic::null()); // publish the era
        retire_batch(&mut d.handle());
        let mut second = d.handle();
        retire_batch(&mut second);
        assert_eq!(
            second.adopted.len(),
            1,
            "the displaced entry guards the open reader"
        );
        drop(second);
        assert_eq!(d.orphan_count.load(Ordering::Relaxed), 1);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            0,
            "both batches still pinned"
        );
        // The reader's own leave ends the occupancy, collects its cell and
        // sweeps the orphan list.
        reader.leave();
        assert_eq!(d.orphan_count.load(Ordering::Relaxed), 0);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            2 * small().batch_min as u64,
            "the orphaned batch is freed before teardown"
        );
    }

    #[test]
    fn contended_forced_handoff_drops_every_payload() {
        // All insertions go through handoff cells under real contention;
        // exact payload-drop balance is checked after the domain drops
        // (floating cell entries and orphans are swept by then).
        let drops = Arc::new(AtomicU64::new(0));
        let allocs = AtomicU64::new(0);
        {
            let d = &CrystallineW::<Counted>::with_config(SmrConfig {
                handoff_attempts: 0,
                ..small()
            });
            let link = &Atomic::<Counted>::null();
            let allocs = &allocs;
            let drops2 = &drops;
            std::thread::scope(|s| {
                for _ in 0..6 {
                    s.spawn(move || {
                        let mut h = d.handle();
                        for _ in 0..1_500 {
                            h.enter();
                            let node = h.alloc(Counted(Arc::clone(drops2)));
                            allocs.fetch_add(1, Ordering::Relaxed);
                            let old = link.swap(node, Ordering::AcqRel);
                            if !old.is_null() {
                                // SAFETY: the swap took the only shared link
                                // to `old`.
                                unsafe { h.retire(old) };
                            }
                            h.leave();
                        }
                    });
                }
            });
            let mut h = d.handle();
            h.enter();
            let last = link.swap(Shared::null(), Ordering::AcqRel);
            if !last.is_null() {
                // SAFETY: the swap unlinked the node from the only shared link.
                unsafe { h.retire(last) };
            }
            h.leave();
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            allocs.load(Ordering::Relaxed),
            "every allocated payload must drop exactly once by domain teardown"
        );
    }
}
