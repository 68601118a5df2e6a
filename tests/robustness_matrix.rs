//! The robustness property (paper §2.3, Theorem 4), asserted both ways:
//! robust schemes bound what a stalled reader pins; non-robust schemes
//! demonstrably do not. The ids predate the conformance suite; each runs
//! its `robustness` case on the schemes it names, which must carry the
//! `robust()` flag the id expects.

use ::hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_testkit::conformance_case;

conformance_case! {
    non_robust_pins_churn: non_robust_schemes_pin_unboundedly = Ebr & Hyaline & Hyaline1;
    robust_bounds_pinning: hyaline_s_pinning_does_not_scale_with_churn = HyalineS,
        robust_schemes_bound_stalled_pinning =
            Hp & He & Ibr & Hyaline1S & HyalineS & HyalineS { adaptive: true };
}
