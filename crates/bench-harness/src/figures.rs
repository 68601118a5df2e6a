//! High-level drivers that regenerate each figure of the paper.

use smr_core::SmrConfig;

use crate::driver::BenchParams;
use crate::registry::run_combo_recorded;
use crate::report::FigureTable;
use crate::results::ResultSink;
use crate::workload::OpMix;

/// Structure display names as used in the paper's captions.
pub fn structure_caption(structure: &str) -> &'static str {
    match structure {
        "list" => "Harris & Michael list",
        "hashmap" => "Michael hash map",
        "bonsai" => "Bonsai tree",
        "nmtree" => "Natarajan & Mittal tree",
        _ => "unknown structure",
    }
}

/// Runs a full thread sweep for one structure at `base.mix`, producing both
/// the throughput figure (Fig 8/11/13/15 panels) and the unreclaimed-objects
/// figure (Fig 9/12/14/16 panels) from the same runs. With a `sink`, each
/// `(scheme, threads)` cell lands there as one
/// [`crate::results::BenchRecord`] under `figure`, carrying both metrics.
pub fn throughput_figures(
    figure: &str,
    structure: &str,
    threads: &[usize],
    base: &BenchParams,
    schemes: &[&str],
    mut sink: Option<&mut ResultSink>,
) -> (FigureTable, FigureTable) {
    let caption = format!("{}, {}", structure_caption(structure), base.mix.label());
    let mut tput = FigureTable::new(
        format!("{figure} — {caption}"),
        "threads",
        "Mops/s",
        schemes,
    );
    let mut unrec = FigureTable::new(
        format!("{figure} (unreclaimed) — {caption}"),
        "threads",
        "unreclaimed objects",
        schemes,
    );
    for &t in threads {
        let mut tput_row = Vec::with_capacity(schemes.len());
        let mut unrec_row = Vec::with_capacity(schemes.len());
        for &scheme in schemes {
            let params = BenchParams {
                threads: t,
                ..base.clone()
            };
            let r = run_combo_recorded(figure, scheme, scheme, structure, &params, &mut sink);
            tput_row.push(r.map(|r| r.mops));
            unrec_row.push(r.map(|r| r.avg_unreclaimed));
        }
        tput.push_row(t, tput_row);
        unrec.push_row(t, unrec_row);
    }
    (tput, unrec)
}

/// The robustness experiment (Figure 10a): a fixed number of active threads
/// while the number of *stalled* threads (parked inside an operation)
/// sweeps. Plots unreclaimed objects per scheme; Hyaline-S appears twice —
/// capped at `capped_slots` slots (the paper's "ran out of slots at 57"
/// series) and with §4.3 adaptive resizing — and Crystalline-L and
/// Crystalline-W, whose era filtering skips a stalled reservation, are
/// series on the same metric, so one figure covers both papers' stalled
/// thread experiment. With a `sink`, each `(series,
/// stalled)` run lands there under its series name, so the capped and
/// adaptive Hyaline-S configurations stay distinguishable, with the exact
/// `SmrConfig` it ran under.
pub fn robustness_figure(
    active: usize,
    stalled_counts: &[usize],
    capped_slots: usize,
    base: &BenchParams,
    mut sink: Option<&mut ResultSink>,
) -> FigureTable {
    const SCHEMES: &[&str] = &[
        "Hyaline",
        "Hyaline-1",
        "Hyaline-S",
        "Hyaline-S-adaptive",
        "Hyaline-1S",
        "Crystalline-L",
        "Crystalline-W",
        "Epoch",
        "IBR",
        "HE",
        "HP",
    ];
    let mut table = FigureTable::new(
        format!(
            "Fig 10a — robustness, Michael hash map, {} active threads, Hyaline-S capped at {} slots",
            active, capped_slots
        ),
        "stalled",
        "unreclaimed objects",
        SCHEMES,
    );
    for &stalled in stalled_counts {
        let mut row = Vec::with_capacity(SCHEMES.len());
        for &scheme in SCHEMES {
            let (name, config) = match scheme {
                "Hyaline-S" => (
                    "Hyaline-S",
                    SmrConfig {
                        slots: capped_slots,
                        adaptive: false,
                        ..base.config.clone()
                    },
                ),
                "Hyaline-S-adaptive" => (
                    "Hyaline-S",
                    SmrConfig {
                        slots: capped_slots,
                        adaptive: true,
                        ..base.config.clone()
                    },
                ),
                other => (other, base.config.clone()),
            };
            let params = BenchParams {
                threads: active,
                stalled,
                mix: OpMix::WriteIntensive,
                config,
                ..base.clone()
            };
            row.push(
                run_combo_recorded("Fig 10a", scheme, name, "hashmap", &params, &mut sink)
                    .map(|r| r.avg_unreclaimed),
            );
        }
        table.push_row(stalled, row);
    }
    table
}

/// The trimming experiment (Figure 10b): hash-map throughput with the slot
/// count capped low, comparing Hyaline(-S) driven by `trim` against plain
/// `leave`/`enter`. With a `sink`, each cell lands there under its scheme
/// name, with `use_trim` telling the two series of one scheme apart.
pub fn trim_figure(
    threads: &[usize],
    capped_slots: usize,
    base: &BenchParams,
    mut sink: Option<&mut ResultSink>,
) -> FigureTable {
    const SERIES: &[&str] = &["Hyaline (trim)", "Hyaline-S (trim)", "Hyaline", "Hyaline-S"];
    let mut table = FigureTable::new(
        format!("Fig 10b — trimming, Michael hash map, k <= {capped_slots}"),
        "threads",
        "Mops/s",
        SERIES,
    );
    for &t in threads {
        let mut row = Vec::with_capacity(SERIES.len());
        for &series in SERIES {
            let (scheme, use_trim) = match series {
                "Hyaline (trim)" => ("Hyaline", true),
                "Hyaline-S (trim)" => ("Hyaline-S", true),
                "Hyaline" => ("Hyaline", false),
                "Hyaline-S" => ("Hyaline-S", false),
                _ => unreachable!(),
            };
            let params = BenchParams {
                threads: t,
                mix: OpMix::WriteIntensive,
                use_trim,
                config: SmrConfig {
                    slots: capped_slots,
                    ..base.config.clone()
                },
                ..base.clone()
            };
            row.push(
                run_combo_recorded("trim", scheme, scheme, "hashmap", &params, &mut sink)
                    .map(|r| r.mops),
            );
        }
        table.push_row(t, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FIGURE_SCHEMES;
    use crate::results::Provenance;

    fn quick() -> BenchParams {
        BenchParams {
            secs: 0.02,
            prefill: 64,
            key_range: 128,
            config: SmrConfig {
                slots: 4,
                max_threads: 64,
                ..SmrConfig::default()
            },
            ..BenchParams::default()
        }
    }

    fn sink() -> ResultSink {
        ResultSink::new(Provenance {
            git_sha: None,
            host_cores: 1,
            timestamp: "0".into(),
        })
    }

    #[test]
    fn throughput_figures_fill_all_cells() {
        let (tput, unrec) =
            throughput_figures("Fig 8c", "hashmap", &[1, 2], &quick(), FIGURE_SCHEMES, None);
        assert_eq!(tput.rows.len(), 2);
        assert_eq!(unrec.rows.len(), 2);
        assert!(tput.value(1, "Hyaline").unwrap() > 0.0);
        assert!(tput.value(2, "Epoch").unwrap() > 0.0);
    }

    #[test]
    fn bonsai_figure_marks_hp_unsupported() {
        let (tput, _) =
            throughput_figures("Fig 8b", "bonsai", &[1], &quick(), FIGURE_SCHEMES, None);
        assert!(tput.value(1, "HP").is_none());
        assert!(tput.value(1, "Hyaline").is_some());
    }

    #[test]
    fn recorded_figures_emit_one_record_per_cell() {
        let mut sink = sink();
        let (tput, _) = throughput_figures(
            "Fig 8c",
            "hashmap",
            &[1, 2],
            &quick(),
            &["Hyaline", "Epoch"],
            Some(&mut sink),
        );
        assert_eq!(tput.schemes, vec!["Hyaline", "Epoch"]);
        assert_eq!(sink.records().len(), 4);
        assert!(sink
            .records()
            .iter()
            .any(|r| r.scheme == "Epoch" && r.threads == 2 && r.figure == "Fig 8c"));
        // The table cell and the record carry the same measurement.
        let rec = sink
            .records()
            .iter()
            .find(|r| r.scheme == "Hyaline" && r.threads == 1)
            .unwrap();
        assert_eq!(tput.value(1, "Hyaline"), Some(rec.mops));
    }

    #[test]
    fn recorded_robustness_keeps_series_distinct() {
        let mut sink = sink();
        let table = robustness_figure(2, &[1], 4, &quick(), Some(&mut sink));
        assert_eq!(sink.records().len(), table.schemes.len());
        let adaptive = sink
            .records()
            .iter()
            .find(|r| r.scheme == "Hyaline-S-adaptive")
            .expect("adaptive series recorded");
        assert!(adaptive.adaptive);
        assert_eq!(adaptive.slots, 4);
        let capped = sink
            .records()
            .iter()
            .find(|r| r.scheme == "Hyaline-S")
            .expect("capped series recorded");
        assert!(!capped.adaptive);
    }

    #[test]
    fn trim_figure_has_four_series() {
        let table = trim_figure(&[2], 4, &quick(), None);
        assert_eq!(table.schemes.len(), 4);
        assert!(table.value(2, "Hyaline (trim)").unwrap() > 0.0);
    }

    #[test]
    fn trim_records_one_record_per_cell() {
        let mut sink = sink();
        let table = trim_figure(&[1, 2], 4, &quick(), Some(&mut sink));
        let records = sink.records();
        assert_eq!(records.len(), 2 * table.schemes.len());
        for threads in [1, 2] {
            let cells = |use_trim: bool| {
                let mut schemes: Vec<&str> = records
                    .iter()
                    .filter(|r| r.threads == threads && r.use_trim == use_trim)
                    .map(|r| r.scheme.as_str())
                    .collect();
                schemes.sort_unstable();
                schemes
            };
            // The trim series and the plain series, each over both schemes.
            assert_eq!(cells(true), ["Hyaline", "Hyaline-S"]);
            assert_eq!(cells(false), ["Hyaline", "Hyaline-S"]);
        }
        let trimmed = records
            .iter()
            .find(|r| r.use_trim && r.threads == 2)
            .unwrap();
        assert_eq!(trimmed.figure, "trim");
        assert_eq!(trimmed.slots, 4);
        assert_eq!(
            table.value(2, "Hyaline (trim)"),
            records
                .iter()
                .find(|r| r.use_trim && r.threads == 2 && r.scheme == "Hyaline")
                .map(|r| r.mops)
        );
    }
}
