//! Advisor scalability: run time and optimizer calls as the workload
//! grows (companion to Fig. 3, which sweeps budget at fixed workload).
//!
//! The claim under test is the paper's "during its search, the advisor
//! makes a minimal number of optimizer calls, making it very efficient":
//! with affected sets and the sub-configuration cache, optimizer calls
//! grow roughly linearly in the number of *distinct* statements, not with
//! the exponential configuration space.

use crate::lab::TpoxLab;
use crate::report::{f, Table};
use std::time::Instant;
use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm};
use xia_obs::{Counter, Telemetry};
use xia_storage::{ingest_batch, runstats, Database, IngestOptions};
use xia_workloads::tpox::{self, TpoxConfig};

/// One measured point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Number of workload queries.
    pub queries: usize,
    /// Candidates after generalization.
    pub candidates: usize,
    /// Advisor wall time (ms), search phase only.
    pub ms: f64,
    /// Evaluate-mode optimizer calls.
    pub optimizer_calls: u64,
}

/// Runs greedy-with-heuristics at the All-Index budget for growing
/// synthetic workloads.
pub fn run(lab: &mut TpoxLab, sizes: &[usize]) -> Vec<ScalePoint> {
    let params = AdvisorParams::default();
    let mut out = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let w = lab.synthetic_workload(n, 7_000 + i as u64);
        let set = Advisor::prepare(&mut lab.db, &w, &params);
        let budget = set.config_size(&Advisor::all_index_config(&set));
        let rec = Advisor::recommend_prepared(
            &mut lab.db,
            &w,
            &set,
            budget,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .expect("advise");
        out.push(ScalePoint {
            queries: n,
            candidates: set.len(),
            ms: rec.advisor_time.as_secs_f64() * 1e3,
            optimizer_calls: rec.eval_stats.optimizer_calls,
        });
    }
    out
}

/// Renders the table.
pub fn table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "Scalability — advisor cost vs workload size (greedy+heuristics)",
        &[
            "queries",
            "candidates",
            "ms",
            "optimizer calls",
            "calls/query",
        ],
    );
    for p in points {
        t.row(vec![
            p.queries.to_string(),
            p.candidates.to_string(),
            f(p.ms),
            p.optimizer_calls.to_string(),
            f(p.optimizer_calls as f64 / p.queries.max(1) as f64),
        ]);
    }
    t
}

/// Default workload sizes.
pub const DEFAULT_SIZES: [usize; 5] = [10, 20, 40, 80, 160];

/// One measured data-path point: parallel ingestion plus columnar
/// statistics scans at `factor` × the tiny TPoX generator configuration.
#[derive(Debug, Clone)]
pub struct DataPathPoint {
    /// Multiplier applied to [`TpoxConfig::tiny`].
    pub factor: usize,
    /// Documents ingested across the three collections.
    pub docs: usize,
    /// Nodes ingested.
    pub nodes: u64,
    /// Wall time for the full batch ingest (ms).
    pub ingest_ms: f64,
    /// Ingest throughput.
    pub nodes_per_sec: f64,
    /// Columnar RUNSTATS throughput (value+structure rows per second).
    pub scans_per_sec: f64,
    /// Worker threads used for ingestion.
    pub jobs: usize,
}

/// RUNSTATS passes per point when measuring scan throughput.
const SCAN_ROUNDS: usize = 3;

/// Ingest rounds per point; the fastest is kept (same discipline as
/// [`crate::lab::EXEC_ROUNDS`]) to suppress scheduler noise on shared
/// runners.
const INGEST_ROUNDS: usize = 3;

/// The tiny generator config scaled by `factor` (seed kept fixed so every
/// factor extends the same deterministic corpus family).
fn tiny_scaled(factor: usize) -> TpoxConfig {
    let t = TpoxConfig::tiny();
    TpoxConfig {
        securities: t.securities * factor,
        orders: t.orders * factor,
        customers: t.customers * factor,
        seed: t.seed,
    }
}

/// Runs the data-path sweep: for each factor, serialize `factor` × tiny
/// TPoX documents, ingest them through the streaming parallel batch path,
/// then drive [`SCAN_ROUNDS`] columnar RUNSTATS passes over the result.
pub fn run_datapath(factors: &[usize], jobs: usize) -> Vec<DataPathPoint> {
    let mut out = Vec::new();
    for &factor in factors {
        let cfg = tiny_scaled(factor.max(1));
        let (securities, orders, customers) = tpox::docs_xml(&cfg);
        let batches = [
            (tpox::SECURITY_COLL, &securities),
            (tpox::ORDER_COLL, &orders),
            (tpox::CUSTACC_COLL, &customers),
        ];

        // Fastest of several rounds: ingestion is deterministic, so the
        // extra rounds only exist to shed scheduler noise.
        let mut db = Database::new();
        let mut telemetry = Telemetry::new();
        let mut docs = 0usize;
        let mut nodes = 0u64;
        let mut workers = 1usize;
        let mut ingest_secs = f64::INFINITY;
        for _ in 0..INGEST_ROUNDS {
            let mut round_db = Database::new();
            for (name, _) in &batches {
                round_db.create_collection(name);
            }
            let round_telemetry = Telemetry::new();
            round_db.set_telemetry(&round_telemetry);
            docs = 0;
            nodes = 0;
            let t0 = Instant::now();
            for (name, texts) in &batches {
                let coll = round_db.collection_mut(name).expect("just created");
                let report = ingest_batch(
                    coll,
                    texts,
                    IngestOptions {
                        jobs,
                        use_dom: false,
                    },
                )
                .expect("generated TPoX documents parse");
                docs += report.doc_ids.len();
                nodes += report.nodes;
                workers = workers.max(report.workers);
            }
            let secs = t0.elapsed().as_secs_f64();
            if secs < ingest_secs {
                ingest_secs = secs;
            }
            db = round_db;
            telemetry = round_telemetry;
        }

        // Same fastest-of-rounds discipline for the statistics scans; the
        // per-pass row count is deterministic, only the clock is noisy.
        let mut scan_secs = f64::INFINITY;
        let mut rows_scanned = 0u64;
        for _ in 0..SCAN_ROUNDS {
            let rows_before = telemetry.get(Counter::ColumnarScanRows);
            let t1 = Instant::now();
            for (name, _) in &batches {
                let coll = db.collection(name).expect("just created");
                std::hint::black_box(runstats(coll));
            }
            let secs = t1.elapsed().as_secs_f64();
            if secs < scan_secs {
                scan_secs = secs;
            }
            rows_scanned = telemetry.get(Counter::ColumnarScanRows) - rows_before;
        }

        out.push(DataPathPoint {
            factor,
            docs,
            nodes,
            ingest_ms: ingest_secs * 1e3,
            nodes_per_sec: nodes as f64 / ingest_secs.max(1e-9),
            scans_per_sec: rows_scanned as f64 / scan_secs.max(1e-9),
            jobs: workers,
        });
    }
    out
}

/// Renders the data-path table.
pub fn datapath_table(points: &[DataPathPoint]) -> Table {
    let mut t = Table::new(
        "Scalability — data path throughput vs corpus size (streaming + parallel ingest)",
        &[
            "factor",
            "docs",
            "nodes",
            "ingest ms",
            "nodes/sec",
            "scans/sec",
            "jobs",
        ],
    );
    for p in points {
        t.row(vec![
            p.factor.to_string(),
            p.docs.to_string(),
            p.nodes.to_string(),
            f(p.ingest_ms),
            f(p.nodes_per_sec),
            f(p.scans_per_sec),
            p.jobs.to_string(),
        ]);
    }
    t
}

/// Default data-path factors: 10× to 100× the tiny generator corpus (the
/// 100× point is ~27,000 documents, >13× the standard experiment lab).
pub const DEFAULT_FACTORS: [usize; 3] = [10, 30, 100];
