//! Runtime dispatch from `(scheme name, structure name)` strings to the
//! monomorphized benchmark entry points.

use hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use lockfree_ds::{BonsaiTree, HarrisMichaelList, MichaelHashMap, NatarajanMittalTree};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::Sharded;

use crate::driver::{run_bench, BenchParams, RunResult};
use crate::results::ResultSink;

/// The scheme set of the paper's throughput figures, in legend order.
pub const FIGURE_SCHEMES: &[&str] = &[
    "Leaky",
    "Epoch",
    "Hyaline",
    "Hyaline-1",
    "Hyaline-S",
    "Hyaline-1S",
    "IBR",
    "HE",
    "HP",
];

/// All schemes available in the registry: the figure set, the
/// sharded-domain variants (`SmrConfig::shards` selects
/// the shard count; `1` makes them behave like the plain scheme behind the
/// adapter), and the wait-free Crystalline variants
/// (`SmrConfig::handoff_attempts` bounds the retire CAS attempts).
pub const ALL_SCHEMES: &[&str] = &[
    "Leaky",
    "Epoch",
    "Hyaline",
    "Hyaline-1",
    "Hyaline-S",
    "Hyaline-1S",
    "IBR",
    "HE",
    "HP",
    "Sharded-Hyaline",
    "Sharded-Hyaline-S",
    "Sharded-Epoch",
    "Crystalline-L",
    "Crystalline-W",
];

/// The benchmark structures: the paper's four sub-figures, driven through
/// the one [`lockfree_ds::ConcurrentMap`] interface.
pub const STRUCTURES: &[&str] = &["list", "hashmap", "bonsai", "nmtree"];

/// Whether the combination is supported.
///
/// Bonsai's snapshot traversals need interval/epoch/reference-count-free
/// protection; HP and HE cannot cover an unbounded path with a bounded set
/// of protection indices, so — exactly as in the paper ("HP and HE are not
/// implemented for this benchmark") — those combinations are excluded.
pub fn supports(scheme: &str, structure: &str) -> bool {
    if structure == "bonsai" {
        ALL_SCHEMES.contains(&scheme) && !matches!(scheme, "HP" | "HE")
    } else {
        ALL_SCHEMES.contains(&scheme) && STRUCTURES.contains(&structure)
    }
}

/// Runs one benchmark for a scheme/structure pair selected by name.
///
/// Returns `None` for unknown names or unsupported combinations (see
/// [`supports`]).
pub fn run_combo(scheme: &str, structure: &str, params: &BenchParams) -> Option<RunResult> {
    if !supports(scheme, structure) {
        return None;
    }
    macro_rules! on_structures {
        ($scheme_ty:ty) => {
            match structure {
                "list" => Some(run_bench::<$scheme_ty, HarrisMichaelList<u64, u64, _>>(
                    params,
                )),
                "hashmap" => Some(run_bench::<$scheme_ty, MichaelHashMap<u64, u64, _>>(params)),
                "bonsai" => Some(run_bench::<$scheme_ty, BonsaiTree<u64, u64, _>>(params)),
                "nmtree" => Some(run_bench::<$scheme_ty, NatarajanMittalTree<u64, u64, _>>(
                    params,
                )),
                _ => None,
            }
        };
    }
    match scheme {
        "Leaky" => on_structures!(Leaky<_>),
        "Epoch" => on_structures!(Ebr<_>),
        "Hyaline" => on_structures!(Hyaline<_>),
        "Hyaline-1" => on_structures!(Hyaline1<_>),
        "Hyaline-S" => on_structures!(HyalineS<_>),
        "Hyaline-1S" => on_structures!(Hyaline1S<_>),
        "IBR" => on_structures!(Ibr<_>),
        "HE" => on_structures!(He<_>),
        "HP" => on_structures!(Hp<_>),
        // Sharded-domain variants: `params.config.shards` inner domains
        // behind the `Sharded` adapter (key-pinned: the hash map routes
        // per bucket group, the other structures stay in shard 0).
        "Sharded-Hyaline" => on_structures!(Sharded<Hyaline<_>>),
        "Sharded-Hyaline-S" => on_structures!(Sharded<HyalineS<_>>),
        "Sharded-Epoch" => on_structures!(Sharded<Ebr<_>>),
        // Wait-free Crystalline variants: era-based like Hyaline-1S, so
        // bonsai's snapshot traversals are supported.
        "Crystalline-L" => on_structures!(CrystallineL<_>),
        "Crystalline-W" => on_structures!(CrystallineW<_>),
        _ => None,
    }
}

/// Like [`run_combo`], but additionally records the run (with full
/// parameter provenance) into `sink` when one is supplied, so persistent
/// JSONL results come from *the same runs* that fill the figure tables.
///
/// `record_as` is the series name written to the record; it can differ from
/// `scheme` when one scheme appears under several configurations in a
/// figure (e.g. `Hyaline-S-adaptive`).
pub fn run_combo_recorded(
    figure: &str,
    record_as: &str,
    scheme: &str,
    structure: &str,
    params: &BenchParams,
    sink: &mut Option<&mut ResultSink>,
) -> Option<RunResult> {
    let result = run_combo(scheme, structure, params)?;
    if let Some(sink) = sink.as_deref_mut() {
        sink.record(figure, record_as, structure, params, &result);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BenchParams {
        BenchParams {
            threads: 2,
            secs: 0.02,
            prefill: 64,
            key_range: 128,
            config: smr_core::SmrConfig {
                slots: 4,
                max_threads: 64,
                ..smr_core::SmrConfig::default()
            },
            ..BenchParams::default()
        }
    }

    #[test]
    fn every_supported_combo_runs() {
        let p = quick();
        for &scheme in ALL_SCHEMES {
            for &structure in STRUCTURES {
                let result = run_combo(scheme, structure, &p);
                assert_eq!(
                    result.is_some(),
                    supports(scheme, structure),
                    "combo {scheme}/{structure}"
                );
                if let Some(r) = result {
                    assert!(r.ops > 0, "{scheme}/{structure} did no work");
                }
            }
        }
    }

    #[test]
    fn bonsai_excludes_pointer_schemes() {
        assert!(!supports("HP", "bonsai"));
        assert!(!supports("HE", "bonsai"));
        assert!(supports("IBR", "bonsai"));
        assert!(supports("Hyaline-S", "bonsai"));
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(run_combo("RCU", "list", &quick()).is_none());
        assert!(run_combo("Epoch", "splay", &quick()).is_none());
    }

    #[test]
    fn recorded_runs_land_in_the_sink_with_provenance() {
        use crate::results::{Provenance, ResultSink};
        let mut sink = ResultSink::new(Provenance {
            git_sha: Some("deadbeef".into()),
            host_cores: 4,
            timestamp: "123".into(),
        });
        let p = quick();
        let r = run_combo_recorded(
            "Fig 8c",
            "Hyaline-S-adaptive",
            "Hyaline-S",
            "hashmap",
            &p,
            &mut Some(&mut sink),
        )
        .expect("supported combo");
        // Unsupported combos record nothing.
        assert!(run_combo_recorded("f", "HP", "HP", "bonsai", &p, &mut Some(&mut sink)).is_none());
        // A `None` sink is a plain run.
        assert!(run_combo_recorded("f", "Epoch", "Epoch", "list", &p, &mut None).is_some());
        assert_eq!(sink.records().len(), 1);
        let rec = &sink.records()[0];
        assert_eq!(rec.scheme, "Hyaline-S-adaptive");
        assert_eq!(rec.structure, "hashmap");
        assert_eq!(rec.mix, "write-intensive");
        assert_eq!(rec.threads, p.threads as u64);
        assert_eq!(rec.slots, p.config.slots as u64);
        assert_eq!(rec.git_sha.as_deref(), Some("deadbeef"));
        assert_eq!(rec.mops, r.mops);
    }
}
