//! Property tests: every structure, driven by a random operation sequence,
//! must behave exactly like `smr_testkit`'s `SequentialOracle` (the
//! single-threaded linearizability baseline), for a representative scheme
//! of each protection style.

use hyaline::{Hyaline, HyalineS};
use lockfree_ds::{
    BonsaiTree, ConcurrentMap, HarrisMichaelList, MichaelHashMap, NatarajanMittalTree,
};
use proptest::prelude::*;
use smr_baselines::{Ebr, Hp, Ibr};
use smr_core::{Smr, SmrConfig, SmrHandle};
use smr_testkit::oracle::{MapOp, MapOutcome, SequentialOracle};

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

/// Applies every op to `map` and to the oracle, asserting equal outcomes
/// step by step, then agreement on the whole key space.
fn model_check<S, M>(ops: &[MapOp], map: &M)
where
    M: ConcurrentMap<S>,
    S: Smr<M::Node>,
{
    let mut oracle = SequentialOracle::new();
    let mut h = map.handle();
    for &op in ops {
        h.enter();
        let got = match op {
            MapOp::Get(k) => MapOutcome::Found(map.map_get(&mut h, k)),
            MapOp::Insert(k, v) => MapOutcome::Inserted(map.map_insert(&mut h, k, v)),
            MapOp::Remove(k) => MapOutcome::Removed(map.map_remove(&mut h, k)),
        };
        assert_eq!(got, oracle.apply(op), "{op:?}");
        h.leave();
    }
    for k in 0..32u64 {
        h.enter();
        assert_eq!(map.map_get(&mut h, k), oracle.get(k), "final get({k})");
        h.leave();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn list_matches_model_hyaline(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: HarrisMichaelList<u64, u64, Hyaline<_>> = HarrisMichaelList::with_config(cfg());
        model_check(&ops, &map);
    }

    #[test]
    fn list_matches_model_hp(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: HarrisMichaelList<u64, u64, Hp<_>> = HarrisMichaelList::with_config(cfg());
        model_check(&ops, &map);
    }

    #[test]
    fn hashmap_matches_model_hyaline_s(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: MichaelHashMap<u64, u64, HyalineS<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 8);
        model_check(&ops, &map);
    }

    #[test]
    fn hashmap_matches_model_ebr(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: MichaelHashMap<u64, u64, Ebr<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 8);
        model_check(&ops, &map);
    }

    #[test]
    fn nmtree_matches_model_hyaline(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: NatarajanMittalTree<u64, u64, Hyaline<_>> =
            NatarajanMittalTree::with_config(cfg());
        model_check(&ops, &map);
    }

    #[test]
    fn nmtree_matches_model_hp(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: NatarajanMittalTree<u64, u64, Hp<_>> = NatarajanMittalTree::with_config(cfg());
        model_check(&ops, &map);
    }

    #[test]
    fn bonsai_matches_model_ibr(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: BonsaiTree<u64, u64, Ibr<_>> = BonsaiTree::with_config(cfg());
        model_check(&ops, &map);
    }

    #[test]
    fn bonsai_matches_model_hyaline_s(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let map: BonsaiTree<u64, u64, HyalineS<_>> = BonsaiTree::with_config(cfg());
        model_check(&ops, &map);
    }
}
