//! Transparency (paper §2.4): handles created and dropped with retired
//! nodes in flight neither block nor leave memory unreclaimed. Each test
//! keeps an id that predates the conformance suite and runs that suite's
//! case on one scheme.

use ::hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_testkit::conformance_case;

conformance_case! {
    handle_churn: churn_ebr = Ebr, churn_he = He, churn_hp = Hp, churn_hyaline = Hyaline,
        churn_hyaline1 = Hyaline1, churn_hyaline1_s = Hyaline1S, churn_hyaline_s = HyalineS,
        churn_ibr = Ibr;
    handle_lifetimes_outlive_capacity: slot_recycling_outlives_capacity = Hyaline1;
    more_handles_than_slots: more_threads_than_slots = Hyaline;
}
