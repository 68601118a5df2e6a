//! Use-after-free detection through value provenance: the conformance
//! map cases store sealed tokens minted per key. Each test keeps an id that
//! predates the conformance suite and runs that suite's case on one
//! scheme.

use ::hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_testkit::conformance_case;

conformance_case! {
    map_bonsai: tokens_bonsai_hyaline = Hyaline, tokens_bonsai_hyaline1 = Hyaline1,
        tokens_bonsai_hyaline_1s = Hyaline1S, tokens_bonsai_ibr = Ibr;
    map_hashmap: tokens_hashmap_ebr = Ebr, tokens_hashmap_he = He, tokens_hashmap_hyaline = Hyaline,
        tokens_hashmap_hyaline_1s = Hyaline1S, tokens_hashmap_hyaline_s = HyalineS,
        tokens_hashmap_ibr = Ibr;
    map_list: tokens_list_hp = Hp, tokens_list_hyaline = Hyaline, tokens_list_hyaline1 = Hyaline1;
    map_nmtree: tokens_nmtree_hp = Hp, tokens_nmtree_hyaline1 = Hyaline1,
        tokens_nmtree_hyaline_s = HyalineS;
}
