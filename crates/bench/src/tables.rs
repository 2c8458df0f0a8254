//! `xia-bench tables`: the experiment registry. One entry per experiment;
//! each entry names the `results/*.csv` files it writes, and no CSV has a
//! second writer.

use crate::experiments::*;
use crate::lab::{env_or, TpoxLab};
use crate::report::{write_csv, Table};
use xia_advisor::SearchAlgorithm;
use xia_workloads::xmark::XmarkConfig;

/// One experiment: its name on the command line, the CSVs it writes, and
/// the run that produces their tables, in `csvs` order.
pub struct Entry {
    /// Name given to `xia-bench tables`.
    pub name: &'static str,
    /// `results/<csv>.csv` files this entry (and only this entry) writes.
    pub csvs: &'static [&'static str],
    run: fn(&mut TpoxLab) -> Vec<Table>,
}

/// Every experiment, in the order `xia-bench tables` runs them.
pub const ENTRIES: &[Entry] = &[
    Entry {
        name: "fig2",
        csvs: &["fig2_speedup"],
        run: |lab| {
            let sweep = speedup_budget::run(
                lab,
                &speedup_budget::DEFAULT_FRACTIONS,
                &SearchAlgorithm::ALL,
            );
            vec![speedup_budget::fig2_table(&sweep)]
        },
    },
    Entry {
        name: "fig3",
        csvs: &[
            "fig3_advisor_time",
            "fig3_advisor_time_jobs4",
            "telemetry_breakdown",
            "latency_histograms",
        ],
        run: |lab| {
            let workload = lab.workload();
            let sweep = |lab: &mut TpoxLab, jobs| {
                speedup_budget::run_workload_jobs(
                    lab,
                    &workload,
                    &speedup_budget::DEFAULT_FRACTIONS,
                    &SearchAlgorithm::ALL,
                    jobs,
                )
            };
            let serial = sweep(lab, 1);
            let mut jobs4 = speedup_budget::fig3_table(&sweep(lab, 4));
            jobs4.title.push_str(" (--jobs 4)");
            vec![
                speedup_budget::fig3_table(&serial),
                jobs4,
                speedup_budget::telemetry_breakdown_table(&serial),
                speedup_budget::latency_table(lab, &workload, &SearchAlgorithm::ALL),
            ]
        },
    },
    Entry {
        name: "table3",
        csvs: &["table3_candidates"],
        run: |lab| {
            let rows = candidates::run(lab, &candidates::DEFAULT_SIZES);
            vec![candidates::table(&rows)]
        },
    },
    Entry {
        name: "table4",
        csvs: &["table4_generality"],
        run: |lab| {
            let rows = generality::run(lab, &generality::DEFAULT_FRACTIONS);
            vec![generality::table(&rows)]
        },
    },
    Entry {
        name: "fig4",
        csvs: &["fig4_generalization"],
        run: |lab| {
            let sizes = generalization::default_train_sizes();
            vec![generalization::table(&generalization::run(
                lab, &sizes, 21.0, false,
            ))]
        },
    },
    Entry {
        name: "fig5",
        csvs: &["fig5_actual"],
        run: |lab| {
            let sizes = generalization::default_train_sizes();
            vec![generalization::table(&generalization::run(
                lab, &sizes, 21.0, true,
            ))]
        },
    },
    Entry {
        name: "xmark",
        csvs: &["xmark_experiment"],
        run: |_| {
            let (points, all_speedup, all_size) =
                xmark_exp::run(&XmarkConfig::default(), &xmark_exp::DEFAULT_FRACTIONS);
            vec![xmark_exp::table(&points, all_speedup, all_size)]
        },
    },
    Entry {
        name: "update_cost",
        csvs: &["update_cost"],
        run: |lab| {
            let rows = update_cost::run(lab, &update_cost::DEFAULT_FREQS);
            vec![update_cost::table(&rows)]
        },
    },
    Entry {
        name: "scalability",
        csvs: &["scalability"],
        run: |lab| {
            let points = scalability::run(lab, &scalability::DEFAULT_SIZES);
            vec![scalability::table(&points)]
        },
    },
    // E15: printed only. `XIA_JOBS` sets the ingest worker count (0 = one
    // per core).
    Entry {
        name: "datapath",
        csvs: &[],
        run: |_| {
            let points =
                scalability::run_datapath(&scalability::DEFAULT_FACTORS, env_or("XIA_JOBS", 0));
            print!("{}", scalability::datapath_table(&points).render());
            Vec::new()
        },
    },
    Entry {
        name: "ablation",
        csvs: &["ablation_switches", "ablation_beta"],
        run: |lab| {
            let switches = ablation::run_switches(lab);
            let betas = ablation::run_beta(lab, &ablation::DEFAULT_BETAS);
            vec![
                ablation::switches_table(&switches),
                ablation::beta_table(&betas),
            ]
        },
    },
    // E10. `XIA_SYNTH` adds synthetic statements to the workload (default
    // 24); the committed CSV used `XIA_SCALE=6 XIA_SYNTH=400`.
    Entry {
        name: "parallel",
        csvs: &["parallel_speedup"],
        run: |lab| {
            let workload = lab.mixed_workload(env_or("XIA_SYNTH", 24));
            let rows = parallel::run(lab, &workload, &parallel::DEFAULT_JOBS);
            vec![parallel::table(&rows)]
        },
    },
    // E16. `XIA_E16_SIZES` overrides the statement counts (comma-separated,
    // default `1000,10000`); `XIA_E16_DP_MAX` bounds the sizes the DP
    // optimum is cross-checked on (default 10000).
    Entry {
        name: "cophy_scaling",
        csvs: &["cophy_scaling"],
        run: |lab| {
            let sizes: Vec<usize> = std::env::var("XIA_E16_SIZES")
                .ok()
                .map(|s| s.split(',').filter_map(|p| p.trim().parse().ok()).collect())
                .filter(|v: &Vec<usize>| !v.is_empty())
                .unwrap_or_else(|| vec![1_000, 10_000]);
            let rows = cophy_scaling::run(
                lab,
                &sizes,
                &[SearchAlgorithm::Cophy, SearchAlgorithm::Greedy],
                env_or("XIA_E16_DP_MAX", 10_000),
            );
            vec![cophy_scaling::table(&rows)]
        },
    },
    // E17: warm service vs cold batch.
    Entry {
        name: "server_warm",
        csvs: &["server_warm"],
        run: |lab| vec![server_warm::table(&server_warm::run(&lab.cfg, 5, 12, None))],
    },
];

/// Runs the named entries (every entry when `names` is empty) on one
/// shared lab, printing each table and writing its CSV.
pub fn run(names: &[String]) -> Result<(), String> {
    let selected: Vec<&Entry> = if names.is_empty() {
        ENTRIES.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                ENTRIES
                    .iter()
                    .find(|e| e.name == n)
                    .ok_or_else(|| format!("unknown table `{n}`"))
            })
            .collect::<Result<_, _>>()?
    };
    let mut lab = TpoxLab::standard();
    for entry in selected {
        println!("=== {} ===", entry.name);
        let tables = (entry.run)(&mut lab);
        assert_eq!(
            tables.len(),
            entry.csvs.len(),
            "{}: one table per CSV",
            entry.name
        );
        for (table, csv) in tables.iter().zip(entry.csvs) {
            print!("{}", table.render());
            if let Some(path) = write_csv(table, csv) {
                println!("wrote {}", path.display());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::ENTRIES;
    use std::collections::BTreeSet;

    #[test]
    fn every_results_csv_has_exactly_one_writer() {
        let mut written = BTreeSet::new();
        let mut names = BTreeSet::new();
        for entry in ENTRIES {
            assert!(names.insert(entry.name), "two entries named {}", entry.name);
            for csv in entry.csvs {
                assert!(written.insert(*csv), "{csv}.csv has two writers");
            }
        }
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let tracked: BTreeSet<String> = std::fs::read_dir(&results)
            .expect("results/ exists")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_suffix(".csv").map(str::to_string)
            })
            .collect();
        let written: BTreeSet<String> = written.into_iter().map(str::to_string).collect();
        assert_eq!(written, tracked);
    }
}
