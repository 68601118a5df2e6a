//! Regenerates Table 1: the qualitative comparison of SMR schemes, with
//! two measured columns backing the paper's "Performance" ratings.
//!
//! The qualitative columns come from the algorithms themselves (robustness
//! and trim support are queried from the implementations); the measured
//! columns run the Michael hash map at the core count, once write-intensive
//! and once read-mostly. The paper's ratings to check: HP slow,
//! Epoch/HE/IBR fast, Hyaline variants very fast.

use bench_harness::cli::BenchScale;
use bench_harness::driver::BenchParams;
use bench_harness::registry::{run_combo, ALL_SCHEMES};
use bench_harness::workload::OpMix;
use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::Smr;

/// Static rows of Table 1 (scheme, based-on, reclamation cost, usage/API).
fn qualitative(scheme: &str) -> (&'static str, &'static str, &'static str) {
    match scheme {
        "Leaky" => ("-", "none (leaks)", "none"),
        "HP" => ("-", "O(mn)", "harder"),
        "Epoch" => ("RCU", "O(n)", "very simple"),
        "HE" => ("EBR, HP", "O(mn)", "harder"),
        "IBR" => ("EBR, HP", "O(n)", "simple (2GE)"),
        "Hyaline" => ("-", "~O(1)", "very simple"),
        "Hyaline-1" => ("-", "O(1)", "very simple"),
        "Hyaline-S" => ("Hyaline, part. HE/IBR", "~O(1)", "simple"),
        "Hyaline-1S" => ("Hyaline-1, part. HE/IBR", "O(1)", "simple"),
        _ => ("?", "?", "?"),
    }
}

fn robust(scheme: &str) -> &'static str {
    // Queried from the implementations (Smr::robust), spelled out here per
    // scheme name; Hyaline-S is "Yes**" as in the paper (needs §4.3
    // adaptive slots to be fully robust).
    match scheme {
        "HP" => {
            assert!(<Hp<u64> as Smr<u64>>::robust());
            "yes"
        }
        "HE" => {
            assert!(<He<u64> as Smr<u64>>::robust());
            "yes"
        }
        "IBR" => {
            assert!(<Ibr<u64> as Smr<u64>>::robust());
            "yes"
        }
        "Hyaline-S" => {
            assert!(<HyalineS<u64> as Smr<u64>>::robust());
            "yes**"
        }
        "Hyaline-1S" => {
            assert!(<Hyaline1S<u64> as Smr<u64>>::robust());
            "yes"
        }
        "Epoch" => {
            assert!(!<Ebr<u64> as Smr<u64>>::robust());
            "no"
        }
        "Hyaline" => {
            assert!(!<Hyaline<u64> as Smr<u64>>::robust());
            "no"
        }
        "Hyaline-1" => {
            assert!(!<Hyaline1<u64> as Smr<u64>>::robust());
            "no"
        }
        "Leaky" => {
            assert!(!<Leaky<u64> as Smr<u64>>::robust());
            "no"
        }
        _ => "?",
    }
}

fn transparent(scheme: &str) -> &'static str {
    match scheme {
        "Hyaline" | "Hyaline-S" => "yes",
        "Hyaline-1" | "Hyaline-1S" => "almost",
        "Leaky" => "yes",
        _ => "no",
    }
}

fn main() {
    let scale = BenchScale::from_env_and_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== Table 1: scheme comparison (measured on Michael hash map, {} threads, {:.2}s) ==\n",
        cores, scale.base.secs
    );
    println!(
        "{:<11}{:<25}{:>7}{:>13}{:>14}{:>15}{:>12}{:>12}",
        "Scheme", "Based on", "Robust", "Transparent", "Reclam.", "Usage/API", "write Mops", "read Mops"
    );
    for &scheme in ALL_SCHEMES {
        let (based_on, cost, usage) = qualitative(scheme);
        let write = run_combo(
            scheme,
            "hashmap",
            &BenchParams {
                threads: cores,
                mix: OpMix::WriteIntensive,
                ..scale.base.clone()
            },
        );
        let read = run_combo(
            scheme,
            "hashmap",
            &BenchParams {
                threads: cores,
                mix: OpMix::ReadMostly,
                ..scale.base.clone()
            },
        );
        println!(
            "{:<11}{:<25}{:>7}{:>13}{:>14}{:>15}{:>12}{:>12}",
            scheme,
            based_on,
            robust(scheme),
            transparent(scheme),
            cost,
            usage,
            write.map_or("-".into(), |r| format!("{:.3}", r.mops)),
            read.map_or("-".into(), |r| format!("{:.3}", r.mops)),
        );
    }
    println!(
        "\n** capped Hyaline-S interferes once stalled threads exceed the slot count; \
         fully robust with the §4.3 adaptive extension (see fig10a_robustness)."
    );
}
