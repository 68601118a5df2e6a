//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` at the root of the repo lists the same names; a unit
//! test holds the two together.

use crate::workloads::WORKLOADS;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// What a user of the stack sees, reported by every workload: name, unit,
/// direction, and the share of the parent's median by which the metric may
/// get worse before a change counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("throughput_mops", "Mops/s", Better::Higher, 0.25),
    ("req_p50_ns", "ns", Better::Lower, 0.25),
    ("req_p99_ns", "ns", Better::Lower, 0.25),
    ("unreclaimed_p50_nodes", "nodes", Better::Lower, 0.10),
    ("unreclaimed_p90_nodes", "nodes", Better::Lower, 0.10),
];

/// Isolated probes of single layers, in nanoseconds per call unless the
/// name says otherwise.
const PROBES: [&str; 35] = [
    "hyaline.enter_leave_ns",
    "hyaline.protect_ns",
    "hyaline.alloc_retire_ns",
    "hyaline.retire_call_p99_ns",
    "hyaline.flush_partial_ns",
    "hyaline.handle_create_drop_ns",
    "hyaline-s.enter_leave_ns",
    "hyaline-s.protect_ns",
    "hyaline-s.alloc_retire_ns",
    "hyaline-s.alloc_retire_stalled_ns",
    "typed.load_ns",
    "typed.alloc_retire_ns",
    "recycle.alloc_retire_ns",
    "recycle.hit_ratio",
    "allocator.node_alloc_free_ns",
    "sharded.enter_leave_ns",
    "sharded.alloc_retire_ns",
    "pool.checkout_checkin_ns",
    "pool.checkin_dirty_flush_ns",
    "pool.checkout_contended_ns",
    "executor.spawn_complete_ns",
    "executor.yield_ns",
    "taskguard.acquire_release_ns",
    "hashmap.get_ns",
    "hashmap.insert_remove_ns",
    "nmtree.get_ns",
    "nmtree.insert_remove_ns",
    "epoch.enter_leave_ns",
    "epoch.alloc_retire_ns",
    "epoch.alloc_retire_stalled_ns",
    "leaky.alloc_retire_ns",
    "epoch.hashmap_write_mops",
    "leaky.hashmap_write_mops",
    "crystalline-w.enter_leave_ns",
    "crystalline-w.alloc_retire_ns",
];

/// Span-derived metrics of a thread-driven workload, after `trace.<W>.`.
const THREAD_TRACE: [&str; 8] = [
    "enter_self_ns",
    "op_self_ns",
    "leave_self_ns",
    "leave_p99_ns",
    "smr_share",
    "retired_per_kop",
    "freed_per_kop",
    "overhead_pct",
];

/// Span-derived metrics of `kv-service`, after `trace.kv-service.`.
const KV_TRACE: [&str; 10] = [
    "checkout_self_ns",
    "burst_self_ns",
    "checkin_self_ns",
    "yield_resume_ns",
    "req_p99_ns",
    "unreclaimed_p50_nodes",
    "unreclaimed_p90_nodes",
    "reclaim_flushed_per_kreq",
    "reclaim_vacuous_per_kreq",
    "overhead_pct",
];

pub fn trace_names(workload: &str) -> &'static [&'static str] {
    if workload == "kv-service" {
        &KV_TRACE
    } else {
        &THREAD_TRACE
    }
}

/// Unit and direction of a per-layer metric, from the end of its name.
pub fn per_layer_kind(name: &str) -> (&'static str, Better) {
    let ends = |suffix| name.ends_with(suffix);
    if ends("_mops") {
        ("Mops/s", Better::Higher)
    } else if ends("hit_ratio") {
        ("ratio", Better::Higher)
    } else if ends("_share") {
        ("ratio", Better::Lower)
    } else if ends("_pct") {
        ("%", Better::Lower)
    } else if ends("_nodes") {
        ("nodes", Better::Lower)
    } else if ends("_per_kop") {
        ("1/kop", Better::Lower)
    } else if ends("_per_kreq") {
        ("1/kreq", Better::Lower)
    } else {
        assert!(ends("_ns"), "per-layer metric {name} has no known unit");
        ("ns", Better::Lower)
    }
}

/// Every per-layer name, in the order the traced run prints them.
pub fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    for workload in WORKLOADS {
        for metric in trace_names(workload) {
            names.push(format!("trace.{workload}.{metric}"));
        }
    }
    names.extend(PROBES.iter().map(|name| name.to_string()));
    names
}

pub fn per_layer(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: per_layer_kind(name).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all = per_layer_names();
        all.extend(END_TO_END.iter().map(|(name, ..)| name.to_string()));
        all.extend(WORKLOADS.iter().map(|w| w.to_string()));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
    }

    #[test]
    fn the_lists_are_the_issues() {
        assert_eq!(
            END_TO_END.map(|(name, ..)| name),
            [
                "setup_s",
                "throughput_mops",
                "req_p50_ns",
                "req_p99_ns",
                "unreclaimed_p50_nodes",
                "unreclaimed_p90_nodes"
            ]
        );
        let names = per_layer_names();
        assert_eq!(names.len(), 69);
        for expected in [
            "hyaline.retire_call_p99_ns",
            "hyaline-s.alloc_retire_stalled_ns",
            "recycle.hit_ratio",
            "pool.checkout_contended_ns",
            "taskguard.acquire_release_ns",
            "nmtree.insert_remove_ns",
            "leaky.hashmap_write_mops",
            "crystalline-w.alloc_retire_ns",
            "trace.hashmap-write.leave_p99_ns",
            "trace.nmtree-read.smr_share",
            "trace.hashmap-stalled.freed_per_kop",
            "trace.kv-service.yield_resume_ns",
            "trace.kv-service.reclaim_vacuous_per_kreq",
        ] {
            assert!(names.iter().any(|n| n == expected), "{expected} is missing");
        }
        assert!(!names.iter().any(|n| n == "trace.kv-service.enter_self_ns"));
        for name in &names {
            per_layer_kind(name); // panics on a name without a unit
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the program must print
    /// exactly the names it lists.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |from: &str, to: &str| {
            let start = json
                .find(from)
                .unwrap_or_else(|| panic!("no {from} in BENCHMARK.json"));
            let end = if to.is_empty() {
                json.len()
            } else {
                json.find(to).unwrap()
            };
            &json[start..end]
        };
        let listed = |section: &str| section.matches("\"name\"").count();
        // The driver gates three of the four: `hashmap-write` is in the
        // traced run and in `run` without `--workload` only (see README).
        let gated = WORKLOADS.into_iter().filter(|w| *w != "hashmap-write");
        let workloads = section("\"workloads\"", "\"end_to_end\"");
        assert_eq!(listed(workloads), 3);
        for workload in gated {
            assert!(
                workloads.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        let end_to_end = section("\"end_to_end\"", "\"per_layer\"");
        assert_eq!(listed(end_to_end), END_TO_END.len());
        for (name, unit, better, bound) in END_TO_END {
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}");
            assert!(end_to_end.contains(&entry), "{entry}");
        }
        let per_layer = section("\"per_layer\"", "");
        let names = per_layer_names();
        assert_eq!(listed(per_layer), names.len());
        for name in names {
            let (unit, better) = per_layer_kind(&name);
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(per_layer.contains(&entry), "{entry}");
        }
    }
}
