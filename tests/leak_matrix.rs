//! Leak and double-free detection over scheme × structure cells. Each test
//! keeps an id that predates the conformance suite and runs that suite's
//! case on one scheme.

use ::hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_testkit::conformance_case;

conformance_case! {
    freed_at_handle_drop: hyaline_quiescent_balance = Hyaline;
    map_bonsai: bonsai_crystalline_l = CrystallineL, bonsai_crystalline_w = CrystallineW,
        bonsai_ebr = Ebr, bonsai_hyaline = Hyaline, bonsai_hyaline1 = Hyaline1,
        bonsai_hyaline1_s = Hyaline1S, bonsai_hyaline_s = HyalineS, bonsai_ibr = Ibr;
    map_hashmap: hashmap_crystalline_l = CrystallineL, hashmap_crystalline_w = CrystallineW,
        hashmap_ebr = Ebr, hashmap_he = He, hashmap_hp = Hp, hashmap_hyaline = Hyaline,
        hashmap_hyaline1 = Hyaline1, hashmap_hyaline1_s = Hyaline1S, hashmap_hyaline_s = HyalineS,
        hashmap_ibr = Ibr;
    map_list: list_crystalline_l = CrystallineL, list_crystalline_w = CrystallineW, list_ebr = Ebr,
        list_he = He, list_hp = Hp, list_hyaline = Hyaline, list_hyaline1 = Hyaline1,
        list_hyaline1_s = Hyaline1S, list_hyaline_s = HyalineS, list_ibr = Ibr;
    map_nmtree: nmtree_crystalline_l = CrystallineL, nmtree_crystalline_w = CrystallineW,
        nmtree_ebr = Ebr, nmtree_he = He, nmtree_hp = Hp, nmtree_hyaline = Hyaline,
        nmtree_hyaline1 = Hyaline1, nmtree_hyaline1_s = Hyaline1S, nmtree_hyaline_s = HyalineS,
        nmtree_ibr = Ibr;
}
