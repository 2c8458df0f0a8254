//! Runs every experiment in sequence (the EXPERIMENTS.md regeneration
//! driver). Expect several minutes in release mode.
//!
//! Besides the per-experiment CSVs under `results/`, writes
//! `BENCH_advisor.json` with each section's wall-clock seconds so the
//! advisor's perf trajectory is tracked across PRs.

use std::time::Instant;
use xia_advisor::SearchAlgorithm;
use xia_bench::experiments::*;
use xia_bench::{write_bench_json, write_csv, TpoxLab};
use xia_obs::json::Json;
use xia_workloads::xmark::XmarkConfig;

/// Times one experiment section, recording its seconds under `name`.
fn section(bench: &mut Vec<(String, Json)>, name: &str, body: impl FnOnce()) {
    let t0 = Instant::now();
    body();
    bench.push((
        format!("{name}_secs"),
        Json::Num(t0.elapsed().as_secs_f64()),
    ));
}

fn main() {
    let mut lab = TpoxLab::standard();
    let mut bench: Vec<(String, Json)> = Vec::new();
    let total = Instant::now();

    println!("=== Fig. 2 / Fig. 3 ===");
    section(&mut bench, "fig2_fig3", || {
        let sweep = speedup_budget::run(
            &mut lab,
            &speedup_budget::DEFAULT_FRACTIONS,
            &SearchAlgorithm::ALL,
        );
        let t = speedup_budget::fig2_table(&sweep);
        print!("{}", t.render());
        write_csv(&t, "fig2_speedup");
        let t = speedup_budget::fig3_table(&sweep);
        print!("{}", t.render());
        write_csv(&t, "fig3_advisor_time");
    });

    println!("\n=== Table III ===");
    section(&mut bench, "table3", || {
        let rows = candidates::run(&mut lab, &candidates::DEFAULT_SIZES);
        let t = candidates::table(&rows);
        print!("{}", t.render());
        write_csv(&t, "table3_candidates");
    });

    println!("\n=== Table IV ===");
    section(&mut bench, "table4", || {
        let rows = generality::run(&mut lab, &generality::DEFAULT_FRACTIONS);
        let t = generality::table(&rows);
        print!("{}", t.render());
        write_csv(&t, "table4_generality");
    });

    println!("\n=== Fig. 4 ===");
    let sizes = generalization::default_train_sizes();
    section(&mut bench, "fig4", || {
        let r = generalization::run(&mut lab, &sizes, 21.0, false);
        let t = generalization::table(&r);
        print!("{}", t.render());
        write_csv(&t, "fig4_generalization");
    });

    println!("\n=== Fig. 5 ===");
    section(&mut bench, "fig5", || {
        let r = generalization::run(&mut lab, &sizes, 21.0, true);
        let t = generalization::table(&r);
        print!("{}", t.render());
        write_csv(&t, "fig5_actual");
    });

    println!("\n=== XMark ===");
    section(&mut bench, "xmark", || {
        let (points, all_speedup, all_size) =
            xmark_exp::run(&XmarkConfig::default(), &xmark_exp::DEFAULT_FRACTIONS);
        let t = xmark_exp::table(&points, all_speedup, all_size);
        print!("{}", t.render());
        write_csv(&t, "xmark_experiment");
    });

    println!("\n=== Update cost ===");
    section(&mut bench, "update_cost", || {
        let rows = update_cost::run(&mut lab, &update_cost::DEFAULT_FREQS);
        let t = update_cost::table(&rows);
        print!("{}", t.render());
        write_csv(&t, "update_cost");
    });

    println!("\n=== Scalability ===");
    section(&mut bench, "scalability", || {
        let points = scalability::run(&mut lab, &scalability::DEFAULT_SIZES);
        let t = scalability::table(&points);
        print!("{}", t.render());
        write_csv(&t, "scalability");
    });

    println!("\n=== Ablations ===");
    section(&mut bench, "ablation", || {
        let rows = ablation::run_switches(&mut lab);
        let t = ablation::switches_table(&rows);
        print!("{}", t.render());
        write_csv(&t, "ablation_switches");
        let rows = ablation::run_beta(&mut lab, &ablation::DEFAULT_BETAS);
        let t = ablation::beta_table(&rows);
        print!("{}", t.render());
        write_csv(&t, "ablation_beta");
    });

    println!("\n=== Parallel what-if evaluation ===");
    section(&mut bench, "parallel", || {
        let workload = lab.mixed_workload(24);
        let rows = parallel::run(&mut lab, &workload, &parallel::DEFAULT_JOBS);
        let t = parallel::table(&rows);
        print!("{}", t.render());
        write_csv(&t, "parallel_speedup");
    });

    println!("\n=== E16: CoPhy compression + LP relaxation ===");
    section(&mut bench, "cophy_scaling", || {
        // A reduced sweep; the standalone `cophy_scaling_experiment` bin
        // runs the full 1k → 100k version.
        let rows = cophy_scaling::run(
            &mut lab,
            &[1_000, 10_000],
            &[SearchAlgorithm::Cophy, SearchAlgorithm::Greedy],
            10_000,
        );
        let t = cophy_scaling::table(&rows);
        print!("{}", t.render());
        write_csv(&t, "cophy_scaling");
    });

    println!("\n=== E17: warm service vs cold batch ===");
    section(&mut bench, "server_warm", || {
        let e = server_warm::run(&lab.cfg, 5, 12, None);
        let t = server_warm::table(&e);
        print!("{}", t.render());
        write_csv(&t, "server_warm");
        for (k, v) in server_warm::bench_fields(&e) {
            bench_field_note(&k, &v);
        }
        // The standalone `server_overhead_gate` bin enforces the 5x bar;
        // here the numbers just land in BENCH_advisor.json via the
        // section timer plus the dedicated BENCH_server.json snapshot.
        write_bench_json("server", server_warm::bench_fields(&e));
    });

    bench.push((
        "total_secs".into(),
        Json::Num(total.elapsed().as_secs_f64()),
    ));
    if let Some(path) = write_bench_json("advisor", bench) {
        println!("\nwrote {}", path.display());
    }
}

/// Prints one BENCH field as a `key = value` note.
fn bench_field_note(k: &str, v: &Json) {
    println!("  {k} = {}", v.render());
}
