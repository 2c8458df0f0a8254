//! One run of one workload: untraced for the end-to-end metrics, traced
//! for the per-layer ones.

use crate::metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{self, Tracer};
use crate::workloads::cold_recommend::ColdRecommend;
use crate::workloads::cophy::Cophy;
use crate::workloads::search_sweep::SearchSweep;
use crate::workloads::serve_mixed::ServeMixed;
use crate::workloads::{self, Quality, Scale, Scenario, Timed};
use crate::{probe, sys};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The traced run's two passes each do this share of the untraced run's
/// units: at `--seconds 15` as many ops as a tenth of the 30 s design.
const TRACED_SHARE: usize = 5;

/// Runs workload `name` once. `None` for an unknown name.
pub fn run_named(name: &str, seed: u64, scale: &Scale, traced: bool) -> Option<Outcome> {
    let run = match name {
        workloads::cold_recommend::NAME => run::<ColdRecommend>,
        workloads::search_sweep::NAME => run::<SearchSweep>,
        workloads::cophy::NAME => run::<Cophy>,
        workloads::serve_mixed::NAME => run::<ServeMixed>,
        _ => return None,
    };
    Some(run(seed, scale, traced))
}

fn run<S: Scenario>(seed: u64, scale: &Scale, traced: bool) -> Outcome {
    if traced {
        traced_run::<S>(seed, scale)
    } else {
        untraced_run::<S>(seed, scale)
    }
}

/// The three latency metrics of a timed phase.
fn latency_values(timed: &Timed, values: &mut Values) {
    let latencies = sorted(timed.latencies_ms.clone());
    values.insert("op_p50_ms", percentile(&latencies, 50.0));
    values.insert("op_p90_ms", percentile(&latencies, 90.0));
    values.insert("ops_per_s", latencies.len() as f64 / timed.wall_s);
}

fn outcome(timed: &Timed, quality: Quality, warnings: Vec<String>, values: Values) -> Outcome {
    let mut violations = quality.violations;
    violations.extend(quality.exec.violations);
    Outcome {
        attempted: timed.latencies_ms.len() as u64,
        failed: timed.failed,
        violations,
        warnings,
        values,
    }
}

fn untraced_run<S: Scenario>(seed: u64, scale: &Scale) -> Outcome {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..if scale.quick { 1 } else { SETUPS } {
        drop(state.take());
        let t = Instant::now();
        state = Some(S::setup(seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set up at least once");
    let timed = state.timed(scale.units(S::UNITS_PER_SECOND), scale.cap());
    let quality = state.finish();

    let mut values = Values::default();
    values.insert("setup_s", median(&setup_s));
    latency_values(&timed, &mut values);
    values.insert("peak_rss_mb", sys::peak_rss_mb());
    values.insert("est_speedup", quality.est_speedup);
    values.insert("nodes_speedup", quality.exec.nodes_speedup());
    outcome(&timed, quality, Vec::new(), values)
}

fn traced_run<S: Scenario>(seed: u64, scale: &Scale) -> Outcome {
    let units = (scale.units(S::UNITS_PER_SECOND) / TRACED_SHARE).max(1);
    let mut state = S::setup(seed);
    let statements = state.probe_statements();
    let untraced = state.timed(units, scale.cap());
    let mut tracer = Tracer::new(Instant::now());
    let staged = state.staged(units, &mut tracer);
    let mut quality = state.finish();

    let ops = staged.latencies_ms.len();
    let file = format!("{}/trace-{}.json", sys::OUT_DIR, S::NAME);
    let json = trace::to_json(S::NAME, seed, tracer.spans(), ops).render();
    if let Err(e) = std::fs::create_dir_all(sys::OUT_DIR).and_then(|()| std::fs::write(&file, json))
    {
        quality.violations.push(format!("cannot write {file}: {e}"));
    }

    let mut values = Values::default();
    let latencies = sorted(untraced.latencies_ms.clone());
    let op_p50_ms = percentile(&latencies, 50.0);
    let tail_pct = tail_percentile(latencies.len());
    values.insert("driver.op_p50_ms", op_p50_ms);
    values.insert("driver.op_tail_ms", percentile(&latencies, tail_pct));
    values.insert("driver.op_tail_pct", tail_pct);
    values.insert("driver.samples", latencies.len() as f64);
    let staged_p50_ms = median(&staged.latencies_ms);
    values.insert(
        "driver.trace_overhead_pct",
        (staged_p50_ms / op_p50_ms - 1.0) * 100.0,
    );
    let stage_sum_pct = median(&trace::root_ms_per_op(tracer.spans())) / op_p50_ms * 100.0;
    values.insert("driver.stage_sum_pct", stage_sum_pct);
    // Two timings of a shared box: a warning, never a failed check.
    let mut warnings = Vec::new();
    if S::STAGES_MUST_ADD_UP && (stage_sum_pct - 100.0).abs() > 10.0 {
        warnings.push(format!(
            "the staged op covers {stage_sum_pct:.1} % of the untraced op, not 100 ± 10 %"
        ));
    }

    values.insert("optimizer.exec_scan_ms", quality.exec.scan_ms);
    values.insert("optimizer.exec_indexed_ms", quality.exec.indexed_ms);
    values.insert("optimizer.exec_nodes_scan", quality.exec.nodes_scan as f64);
    values.insert(
        "optimizer.exec_nodes_indexed",
        quality.exec.nodes_indexed as f64,
    );
    values.insert("storage.index_build_ms", quality.exec.index_build_ms);

    let episodes = (scale.units(ServeMixed::UNITS_PER_SECOND) / TRACED_SHARE).max(1);
    probe::run(
        seed,
        &statements,
        S::ALGORITHM,
        episodes,
        &mut values,
        &mut quality.violations,
    );
    values.insert("driver.cpu_s", sys::cpu_seconds());

    let both = Timed {
        latencies_ms: [untraced.latencies_ms, staged.latencies_ms].concat(),
        wall_s: untraced.wall_s + staged.wall_s,
        failed: untraced.failed + staged.failed,
    };
    outcome(&both, quality, warnings, values)
}

/// The metric list a run reports: per-layer when traced.
pub fn reported(traced: bool) -> &'static [crate::metrics::MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
