//! Handle lifecycle edge cases: a handle dropped inside an operation,
//! `flush` mid-operation, independent domains, a full registry. Each test
//! keeps an id that predates the conformance suite and runs that suite's
//! case on one scheme.

use ::hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_testkit::conformance_case;

conformance_case! {
    drop_while_active_leaks: leaky_drop_while_active_is_harmless = Leaky;
    more_handles_than_slots: hyaline_handles_exceed_slot_count_freely = Hyaline;
    registry_exhaustion_panics: registry_exhaustion_panics_rather_than_corrupting = Hp;
}

mod drop_active {
    use super::*;

    conformance_case! {
        drop_while_active: epoch = Ebr, he = He, hp = Hp, hyaline = Hyaline, hyaline1 = Hyaline1,
            hyaline_1s = Hyaline1S, hyaline_s = HyalineS, ibr = Ibr;
    }
}

mod flush_inside {
    use super::*;

    conformance_case! {
        flush_mid_operation: epoch = Ebr, he = He, hp = Hp, hyaline = Hyaline, hyaline1 = Hyaline1,
            hyaline_1s = Hyaline1S, hyaline_s = HyalineS, ibr = Ibr;
    }
}

mod independence {
    use super::*;

    conformance_case! {
        domains_are_independent: epoch = Ebr, he = He, hp = Hp, hyaline = Hyaline,
            hyaline1 = Hyaline1, hyaline_1s = Hyaline1S, hyaline_s = HyalineS, ibr = Ibr;
    }
}
