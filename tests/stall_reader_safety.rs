//! Reader safety under deterministic stalls: a parked reader's protected
//! node survives the writer's churn, for every scheme. Each test keeps an
//! id that predates the conformance suite and runs that suite's case on
//! one scheme.

use ::hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_testkit::conformance_case;

conformance_case! {
    cut_batch_keeps_protected: cut_batch_keeps_protected_crystalline_l = CrystallineL,
        cut_batch_keeps_protected_crystalline_w = CrystallineW,
        cut_batch_keeps_protected_hyaline_1s = Hyaline1S,
        cut_batch_keeps_protected_hyaline_s = HyalineS;
    protected_survives_stall: protected_survives_stall_ebr = Ebr, protected_survives_stall_he = He,
        protected_survives_stall_hp = Hp, protected_survives_stall_hyaline = Hyaline,
        protected_survives_stall_hyaline1 = Hyaline1,
        protected_survives_stall_hyaline_1s = Hyaline1S,
        protected_survives_stall_hyaline_s = HyalineS,
        protected_survives_stall_hyaline_s_adaptive = HyalineS { adaptive: true },
        protected_survives_stall_ibr = Ibr, stalled_reader_bounded_he = He,
        stalled_reader_bounded_hp = Hp, stalled_reader_bounded_hyaline_1s = Hyaline1S,
        stalled_reader_bounded_hyaline_s = HyalineS,
        stalled_reader_bounded_hyaline_s_adaptive = HyalineS { adaptive: true },
        stalled_reader_bounded_ibr = Ibr;
}
