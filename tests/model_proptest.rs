//! Property tests: every structure, driven by a random operation sequence,
//! must behave exactly like `BTreeMap` (single-threaded linearizability
//! baseline), for a representative scheme of each protection style.

use hyaline::{Hyaline, HyalineS};
use lockfree_ds::{BonsaiTree, HarrisMichaelList, MichaelHashMap, NatarajanMittalTree};
use proptest::prelude::*;
use smr_baselines::{Ebr, Hp, Ibr};
use smr_core::{SmrConfig, SmrHandle};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum MapOp {
    Get(u64),
    Insert(u64, u64),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0u64..32).prop_map(MapOp::Get),
        (0u64..32, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u64..32).prop_map(MapOp::Remove),
    ]
}

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 2,
        batch_min: 4,
        era_freq: 4,
        scan_threshold: 8,
        max_protect: 8,
        max_threads: 8,
        ..SmrConfig::default()
    }
}

macro_rules! model_check {
    ($ops:expr, $map:expr) => {{
        let map = $map;
        let mut model = BTreeMap::new();
        let mut h = map.smr_handle();
        for op in $ops.iter() {
            h.enter();
            match op {
                MapOp::Get(k) => {
                    assert_eq!(map.get(&mut h, k), model.get(k).copied(), "get({k})");
                }
                MapOp::Insert(k, v) => {
                    let model_new = !model.contains_key(k);
                    assert_eq!(map.insert(&mut h, *k, *v), model_new, "insert({k})");
                    model.entry(*k).or_insert(*v);
                }
                MapOp::Remove(k) => {
                    assert_eq!(map.remove(&mut h, k), model.remove(k), "remove({k})");
                }
            }
            h.leave();
        }
        // Final sweep: agreement on the whole key space.
        for k in 0..32u64 {
            h.enter();
            assert_eq!(
                map.get(&mut h, &k),
                model.get(&k).copied(),
                "final get({k})"
            );
            h.leave();
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn list_matches_model_hyaline(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: HarrisMichaelList<u64, u64, Hyaline<_>> = HarrisMichaelList::with_config(cfg());
        model_check!(ops, &map);
    }

    #[test]
    fn list_matches_model_hp(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: HarrisMichaelList<u64, u64, Hp<_>> = HarrisMichaelList::with_config(cfg());
        model_check!(ops, &map);
    }

    #[test]
    fn hashmap_matches_model_hyaline_s(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: MichaelHashMap<u64, u64, HyalineS<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 8);
        model_check!(ops, &map);
    }

    #[test]
    fn hashmap_matches_model_ebr(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: MichaelHashMap<u64, u64, Ebr<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 8);
        model_check!(ops, &map);
    }

    #[test]
    fn nmtree_matches_model_hyaline(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: NatarajanMittalTree<u64, u64, Hyaline<_>> =
            NatarajanMittalTree::with_config(cfg());
        model_check!(ops, &map);
    }

    #[test]
    fn nmtree_matches_model_hp(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: NatarajanMittalTree<u64, u64, Hp<_>> = NatarajanMittalTree::with_config(cfg());
        model_check!(ops, &map);
    }

    #[test]
    fn bonsai_matches_model_ibr(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: BonsaiTree<u64, u64, Ibr<_>> = BonsaiTree::with_config(cfg());
        model_check!(ops, &map);
    }

    #[test]
    fn bonsai_matches_model_hyaline_s(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: BonsaiTree<u64, u64, HyalineS<_>> = BonsaiTree::with_config(cfg());
        model_check!(ops, &map);
    }
}
