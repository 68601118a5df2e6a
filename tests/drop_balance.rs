//! Payload drop balance: every value handed to a structure is dropped
//! exactly once. Each test keeps an id that predates the conformance suite
//! and runs that suite's case on one scheme (`tests/conformance.rs` runs
//! every case on every scheme).

use ::hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_testkit::conformance_case;

conformance_case! {
    full_batch_freed_on_another_thread: full_batch_freed_on_another_thread_hyaline = Hyaline,
        full_batch_freed_on_another_thread_hyaline1 = Hyaline1;
    map_cut_drop_balance: map_drop_balance_cut_crystalline_l = CrystallineL,
        map_drop_balance_cut_crystalline_w = CrystallineW,
        map_drop_balance_cut_hyaline_1s = Hyaline1S, map_drop_balance_cut_hyaline_s = HyalineS;
    map_hashmap: map_drop_balance_ebr = Ebr, map_drop_balance_he = He, map_drop_balance_hp = Hp,
        map_drop_balance_hyaline = Hyaline, map_drop_balance_hyaline1 = Hyaline1,
        map_drop_balance_hyaline_1s = Hyaline1S, map_drop_balance_hyaline_s = HyalineS,
        map_drop_balance_ibr = Ibr;
    map_leaks_removed: leaky_leaks_are_visible_to_the_registry = Leaky;
    map_list: list_drop_balance_hyaline = Hyaline, list_drop_balance_ibr = Ibr;
    queue_churn: queue_drop_balance_ebr = Ebr, queue_drop_balance_hyaline1 = Hyaline1,
        queue_drop_balance_hyaline_s = HyalineS;
    stack_churn: stack_drop_balance_hp = Hp, stack_drop_balance_hyaline = Hyaline,
        stack_drop_balance_hyaline_1s = Hyaline1S;
}
