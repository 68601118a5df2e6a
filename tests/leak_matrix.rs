//! Leak and double-free detection across every scheme × structure
//! combination: every payload constructed must be dropped exactly once by
//! the time the structure and its domain are gone.

use hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use lockfree_ds::{BonsaiTree, HarrisMichaelList, MichaelHashMap, NatarajanMittalTree};
use smr_baselines::{Ebr, He, Hp, Ibr};
use smr_core::{Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A payload that counts live instances; `Drop` panics on double-free.
#[derive(Debug)]
struct Tracked(Arc<AtomicI64>);

impl Tracked {
    fn new(counter: &Arc<AtomicI64>) -> Self {
        counter.fetch_add(1, Ordering::Relaxed);
        Tracked(Arc::clone(counter))
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        self.0.fetch_add(1, Ordering::Relaxed);
        Tracked(Arc::clone(&self.0))
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        let prev = self.0.fetch_sub(1, Ordering::Relaxed);
        assert!(prev > 0, "payload dropped twice");
    }
}

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 8,
        era_freq: 8,
        scan_threshold: 16,
        max_protect: 8,
        max_threads: 64,
        ..SmrConfig::default()
    }
}

const THREADS: u64 = 4;
const OPS: u64 = 1_500;
const KEYS: u64 = 64;

macro_rules! leak_test {
    ($name:ident, $map_ty:ident, $scheme:ty) => {
        #[test]
        fn $name() {
            let live = Arc::new(AtomicI64::new(0));
            {
                let map: $map_ty<u64, Tracked, $scheme> = $map_ty::with_config(cfg());
                let map = &map;
                let live = &live;
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        s.spawn(move || {
                            let mut h = map.smr_handle();
                            let mut x = (t + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                            for _ in 0..OPS {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let key = x % KEYS;
                                h.enter();
                                match x % 3 {
                                    0 => {
                                        map.insert(&mut h, key, Tracked::new(live));
                                    }
                                    1 => {
                                        map.remove(&mut h, &key);
                                    }
                                    _ => {
                                        map.get(&mut h, &key);
                                    }
                                }
                                h.leave();
                            }
                        });
                    }
                });
                // The map (with remaining entries) and domain drop here.
            }
            assert_eq!(
                live.load(Ordering::Relaxed),
                0,
                "payloads leaked or double-dropped"
            );
        }
    };
}

// Harris–Michael list × all schemes.
leak_test!(list_hyaline, HarrisMichaelList, Hyaline<_>);
leak_test!(list_hyaline1, HarrisMichaelList, Hyaline1<_>);
leak_test!(list_hyaline_s, HarrisMichaelList, HyalineS<_>);
leak_test!(list_hyaline1_s, HarrisMichaelList, Hyaline1S<_>);
leak_test!(list_ebr, HarrisMichaelList, Ebr<_>);
leak_test!(list_hp, HarrisMichaelList, Hp<_>);
leak_test!(list_he, HarrisMichaelList, He<_>);
leak_test!(list_ibr, HarrisMichaelList, Ibr<_>);
leak_test!(list_crystalline_l, HarrisMichaelList, CrystallineL<_>);
leak_test!(list_crystalline_w, HarrisMichaelList, CrystallineW<_>);

// Michael hash map × all schemes.
leak_test!(hashmap_hyaline, MichaelHashMap, Hyaline<_>);
leak_test!(hashmap_hyaline1, MichaelHashMap, Hyaline1<_>);
leak_test!(hashmap_hyaline_s, MichaelHashMap, HyalineS<_>);
leak_test!(hashmap_hyaline1_s, MichaelHashMap, Hyaline1S<_>);
leak_test!(hashmap_ebr, MichaelHashMap, Ebr<_>);
leak_test!(hashmap_hp, MichaelHashMap, Hp<_>);
leak_test!(hashmap_he, MichaelHashMap, He<_>);
leak_test!(hashmap_ibr, MichaelHashMap, Ibr<_>);
leak_test!(hashmap_crystalline_l, MichaelHashMap, CrystallineL<_>);
leak_test!(hashmap_crystalline_w, MichaelHashMap, CrystallineW<_>);

// Natarajan–Mittal tree × all schemes.
leak_test!(nmtree_hyaline, NatarajanMittalTree, Hyaline<_>);
leak_test!(nmtree_hyaline1, NatarajanMittalTree, Hyaline1<_>);
leak_test!(nmtree_hyaline_s, NatarajanMittalTree, HyalineS<_>);
leak_test!(nmtree_hyaline1_s, NatarajanMittalTree, Hyaline1S<_>);
leak_test!(nmtree_ebr, NatarajanMittalTree, Ebr<_>);
leak_test!(nmtree_hp, NatarajanMittalTree, Hp<_>);
leak_test!(nmtree_he, NatarajanMittalTree, He<_>);
leak_test!(nmtree_ibr, NatarajanMittalTree, Ibr<_>);
leak_test!(nmtree_crystalline_l, NatarajanMittalTree, CrystallineL<_>);
leak_test!(nmtree_crystalline_w, NatarajanMittalTree, CrystallineW<_>);

// Bonsai tree × the schemes that support snapshot traversal (paper: no
// HP/HE; Crystalline is era-based like Hyaline-1S, so it is in).
leak_test!(bonsai_hyaline, BonsaiTree, Hyaline<_>);
leak_test!(bonsai_hyaline1, BonsaiTree, Hyaline1<_>);
leak_test!(bonsai_hyaline_s, BonsaiTree, HyalineS<_>);
leak_test!(bonsai_hyaline1_s, BonsaiTree, Hyaline1S<_>);
leak_test!(bonsai_ebr, BonsaiTree, Ebr<_>);
leak_test!(bonsai_ibr, BonsaiTree, Ibr<_>);
leak_test!(bonsai_crystalline_l, BonsaiTree, CrystallineL<_>);
leak_test!(bonsai_crystalline_w, BonsaiTree, CrystallineW<_>);

/// After a quiescent churn (all threads left, handles flushed), Hyaline must
/// have freed everything through the reclamation path — stats must balance
/// without waiting for the domain drop.
#[test]
fn hyaline_quiescent_balance() {
    let map: MichaelHashMap<u64, u64, Hyaline<_>> = MichaelHashMap::with_config(cfg());
    let map = &map;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let mut h = map.smr_handle();
                for i in 0..OPS {
                    let key = (t * OPS + i) % KEYS;
                    h.enter();
                    map.insert(&mut h, key, key);
                    h.leave();
                    h.enter();
                    map.remove(&mut h, &key);
                    h.leave();
                }
            });
        }
    });
    let stats = map.domain().stats();
    assert_eq!(
        stats.unreclaimed(),
        0,
        "retired nodes left pinned after quiescence"
    );
}
