//! The layer probes of a traced run: each times one public call of one
//! crate on the workload's own inputs, or reads a count that call
//! returns. None of them is gated; they say which layer moved when an
//! end-to-end metric did.

use crate::inputs::{self, Feed};
use crate::metrics::Values;
use crate::stats::{median, percentile, sorted};
use crate::sys::ScratchDir;
use crate::trace::Tracer;
use crate::verify::{self, IndexSpec};
use crate::workloads::cold_recommend::{cli_recommend, staged_recommend, write_workload_file};
use crate::workloads::search_sweep::FRACTIONS;
use crate::workloads::serve_mixed::{self, ServeMixed};
use crate::workloads::{advisor_params, budget_at, parse_workload, staged_prepare, Scenario};
use std::hint::black_box;
use std::time::{Duration, Instant};
use xia_advisor::{compress_workload, Advisor, CandidateSet, Recommendation, SearchAlgorithm};
use xia_obs::{EventJournal, Telemetry};
use xia_optimizer::exec::{apply_delete, apply_insert, apply_update};
use xia_optimizer::Optimizer;
use xia_server::{parse_request, render_recommendation};
use xia_storage::{load_database_lenient, save_database, Database};
use xia_workloads::tpox;
use xia_workloads::Workload;
use xia_xpath::{parse_statement, Statement};

/// Repetitions of a probe; the median is reported.
const REPEATS: usize = 3;
/// Statements of the workload file the CLI probe advises.
const CLI_STATEMENTS: usize = 55;

fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// A value built [`REPEATS`] times, each one dropped before the next is
/// built: median milliseconds of building and of dropping, and the last
/// value.
struct Repeated<T> {
    build_ms: f64,
    drop_ms: f64,
    value: T,
}

fn repeated<T>(mut build: impl FnMut() -> T) -> Repeated<T> {
    let (mut build_ms, mut drop_ms) = (Vec::new(), Vec::new());
    let mut value = None;
    for _ in 0..=REPEATS {
        if let Some(previous) = value.take() {
            let t = Instant::now();
            drop(previous);
            drop_ms.push(ms(t.elapsed()));
        }
        let t = Instant::now();
        value = Some(build());
        build_ms.push(ms(t.elapsed()));
    }
    Repeated {
        build_ms: median(&build_ms),
        drop_ms: median(&drop_ms),
        value: value.expect("built at least once"),
    }
}

/// Median milliseconds of [`REPEATS`] runs of `f`, and the last result.
fn timed<T>(f: impl FnMut() -> T) -> (f64, T) {
    let r = repeated(f);
    (r.build_ms, r.value)
}

/// Every probe, in layer order. `statements` are the workload's own
/// texts; `algorithm` the search the workload itself runs (with `cophy`,
/// the advisor stages see the compressed templates, as in the op).
pub fn run(
    seed: u64,
    statements: &[String],
    algorithm: SearchAlgorithm,
    episodes: usize,
    values: &mut Values,
    violations: &mut Vec<String>,
) {
    let scratch = ScratchDir::create("probe").expect("scratch directory under benchmark/out");
    let image = scratch.file("probe.xiadb");
    let (mut db, mut copy) = data_path(seed, &image, values);
    let (own, advised) = statement_path(&mut db, statements, algorithm, values);
    match verify::index_specs(&own.indexes) {
        Ok(specs) => {
            what_if(&mut db, &advised, &specs, values);
            maintenance(&mut copy, seed, &specs, values, violations);
        }
        Err(e) => violations.push(e),
    }
    drop(copy);
    cli_overhead(&mut db, &scratch, &image, statements, values, violations);
    server(seed, &mut db, episodes, values, violations);
}

/// xml and storage: parse, ingest, RUNSTATS, save, load, drop. Returns
/// the fresh database and a second copy loaded back from the image.
fn data_path(seed: u64, image: &str, values: &mut Values) -> (Database, Database) {
    let feed = Feed::generate(seed);
    let xml_bytes = feed.bytes() as f64;

    let (parse_ms, _) = timed(|| {
        for (_, texts) in &feed.collections {
            let mut vocab = xia_xml::Vocabulary::new();
            for text in texts {
                let doc = xia_xml::parse_document_streaming(text, &mut vocab);
                black_box(doc.expect("the generated feed is well-formed"));
            }
        }
    });
    values.insert("xml.parse_ms", parse_ms);
    values.insert("xml.parse_mb_per_s", xml_bytes / 1e6 / (parse_ms / 1e3));

    // RUNSTATS needs a freshly ingested database each time, so the two
    // are timed in one loop.
    let (mut ingest_ms, mut runstats_ms) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..REPEATS {
        drop(built.take());
        let t = Instant::now();
        let (mut db, nodes) = inputs::ingest(&feed);
        ingest_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        db.runstats_all();
        runstats_ms.push(ms(t.elapsed()));
        built = Some((db, nodes));
    }
    let (db, nodes) = built.expect("REPEATS is positive");
    let ingest_ms = median(&ingest_ms);
    values.insert("storage.ingest_ms", ingest_ms);
    values.insert("storage.ingest_self_ms", ingest_ms - parse_ms);
    values.insert(
        "storage.ingest_nodes_per_s",
        nodes as f64 / (ingest_ms / 1e3),
    );
    values.insert("storage.runstats_ms", median(&runstats_ms));
    drop(feed);

    let (save_ms, ()) = timed(|| save_database(&db, image).expect("save the database image"));
    values.insert("storage.persist_save_ms", save_ms);
    let image_bytes = std::fs::metadata(image).map_or(f64::NAN, |m| m.len() as f64);
    values.insert("storage.image_bytes_per_xml_byte", image_bytes / xml_bytes);

    let loaded = repeated(|| load_database_lenient(image).expect("the image loads").0);
    values.insert("storage.persist_load_ms", loaded.build_ms);
    values.insert("storage.db_drop_ms", loaded.drop_ms);
    (db, loaded.value)
}

/// xpath, optimizer (enumerate) and advisor: parse, compress, prepare,
/// containment, and every search algorithm over the budget fractions.
/// Returns the workload's own recommendation at half the All-Index size
/// and the workload it was made for.
fn statement_path(
    db: &mut Database,
    statements: &[String],
    algorithm: SearchAlgorithm,
    values: &mut Values,
) -> (Recommendation, Workload) {
    let parsed = repeated(|| parse_workload(statements));
    values.insert(
        "xpath.parse_stmts_per_s",
        statements.len() as f64 / (parsed.build_ms / 1e3),
    );
    values.insert("xpath.workload_drop_ms", parsed.drop_ms);
    let workload = parsed.value;

    let (compress_ms, compressed) =
        timed(|| compress_workload(&workload, &Telemetry::off(), &EventJournal::off()));
    values.insert("advisor.compress_ms", compress_ms);
    values.insert("advisor.templates", compressed.workload.len() as f64);
    let advised = if algorithm == SearchAlgorithm::Cophy {
        compressed.workload
    } else {
        workload
    };

    let (stage_ms, set) = prepare_stages(db, &advised);
    values.insert("advisor.enumerate_ms", stage_ms[0]);
    values.insert("advisor.generalize_ms", stage_ms[1]);
    values.insert("advisor.size_ms", stage_ms[2]);
    values.insert("xpath.covers_ns", covers_ns(&set));

    let (enumerate_ms, ()) = timed(|| {
        for entry in advised.entries() {
            let (collection, catalog, stats) = db
                .parts(entry.statement.collection())
                .expect("statistics are fresh");
            let optimizer = Optimizer::new(collection, stats, catalog);
            black_box(optimizer.enumerate_indexes(&entry.statement));
        }
    });
    values.insert(
        "optimizer.enumerate_us_per_stmt",
        enumerate_ms * 1e3 / advised.len() as f64,
    );

    let all_index_size = set.config_size(&Advisor::all_index_config(&set));
    let mut own = None;
    for (algo, (search_name, calls_name)) in SearchAlgorithm::ALL.into_iter().zip(SEARCH_METRICS) {
        let mut search_ms = Vec::new();
        for fraction in FRACTIONS {
            let budget = budget_at(all_index_size, fraction);
            let t = Instant::now();
            let rec =
                Advisor::recommend_prepared(db, &advised, &set, budget, algo, &advisor_params())
                    .expect("the workload can be advised");
            search_ms.push(ms(t.elapsed()));
            if fraction == 0.5 {
                values.insert(calls_name, rec.eval_stats.optimizer_calls as f64);
                if algo == algorithm {
                    own = Some(rec);
                }
            }
        }
        values.insert(search_name, median(&search_ms));
    }
    let own = own.expect("the workload's algorithm is one of the six");
    let lookups = own.eval_stats.cache_hits + own.eval_stats.cache_misses;
    values.insert(
        "advisor.cache_hit_ratio",
        own.eval_stats.cache_hits as f64 / lookups.max(1) as f64,
    );
    values.insert(
        "advisor.stmt_cache_hits",
        own.eval_stats.stmt_cache_hits as f64,
    );
    values.insert(
        "advisor.stmts_pruned",
        own.eval_stats.statements_pruned as f64,
    );
    values.insert("advisor.candidates_basic", own.candidates_basic as f64);
    values.insert("advisor.candidates_total", own.candidates_total as f64);
    (own, advised)
}

/// `(advisor.search_ms.<algo>, advisor.whatif_calls.<algo>)` in the order
/// of [`SearchAlgorithm::ALL`].
const SEARCH_METRICS: [(&str, &str); 6] = [
    ("advisor.search_ms.greedy", "advisor.whatif_calls.greedy"),
    (
        "advisor.search_ms.heuristics",
        "advisor.whatif_calls.heuristics",
    ),
    (
        "advisor.search_ms.topdown-lite",
        "advisor.whatif_calls.topdown-lite",
    ),
    (
        "advisor.search_ms.topdown-full",
        "advisor.whatif_calls.topdown-full",
    ),
    ("advisor.search_ms.dp", "advisor.whatif_calls.dp"),
    ("advisor.search_ms.cophy", "advisor.whatif_calls.cophy"),
];

/// Median milliseconds of enumerate, generalize and size, called in
/// sequence as `Advisor::prepare` calls them; and the last candidate set.
fn prepare_stages(db: &mut Database, workload: &Workload) -> ([f64; 3], CandidateSet) {
    let mut stage_ms = [Vec::new(), Vec::new(), Vec::new()];
    let (_, set) = timed(|| {
        let mut tracer = Tracer::new(Instant::now());
        let set = staged_prepare(&mut tracer, db, workload, &advisor_params());
        for (times, span) in stage_ms.iter_mut().zip(tracer.spans()) {
            times.push((span.end_ns - span.start_ns) as f64 / 1e6);
        }
        set
    });
    (stage_ms.map(|times| median(&times)), set)
}

/// Nanoseconds per `covers` call over all ordered pairs of the candidate
/// patterns.
fn covers_ns(set: &CandidateSet) -> f64 {
    const PASSES: usize = 20;
    let patterns: Vec<_> = set.iter().map(|c| &c.pattern).collect();
    let pairs = patterns.len() * patterns.len().saturating_sub(1);
    let t = Instant::now();
    for _ in 0..PASSES {
        for (i, general) in patterns.iter().enumerate() {
            for (j, specific) in patterns.iter().enumerate() {
                if i != j {
                    black_box(xia_xpath::covers(general, specific));
                }
            }
        }
    }
    t.elapsed().as_nanos() as f64 / (PASSES * pairs).max(1) as f64
}

/// optimizer: one Evaluate-mode call per statement with the recommended
/// configuration installed as virtual indexes.
fn what_if(db: &mut Database, advised: &Workload, specs: &[IndexSpec], values: &mut Values) {
    for (collection, pattern, kind) in specs {
        if let Some((coll, catalog, stats)) = db.parts_mut(collection) {
            catalog.create_virtual(coll, stats, pattern, *kind);
        }
    }
    let (optimize_ms, ()) = timed(|| {
        for entry in advised.entries() {
            let (collection, catalog, stats) = db
                .parts(entry.statement.collection())
                .expect("statistics are fresh");
            black_box(Optimizer::new(collection, stats, catalog).optimize(&entry.statement));
        }
    });
    values.insert(
        "optimizer.whatif_us_per_call",
        optimize_ms * 1e3 / advised.len() as f64,
    );
    for (collection, _, _) in specs {
        if let Some(catalog) = db.catalog_mut(collection) {
            catalog.drop_all_virtual();
        }
    }
}

/// optimizer: the update mix applied to a scratch copy with the
/// recommended indexes built, so every update maintains them.
fn maintenance(
    copy: &mut Database,
    seed: u64,
    specs: &[IndexSpec],
    values: &mut Values,
    violations: &mut Vec<String>,
) {
    for (collection, pattern, kind) in specs {
        if let Some((coll, catalog, _)) = copy.parts_mut(collection) {
            catalog.create_physical(coll, pattern, *kind);
        }
    }
    let updates = tpox::update_mix(&inputs::tpox_config(seed));
    let t = Instant::now();
    for text in &updates {
        let statement = parse_statement(text).expect("the update mix parses");
        let Some((collection, catalog)) = copy.collection_and_catalog_mut(statement.collection())
        else {
            violations.push(format!("update on unknown collection: {text}"));
            continue;
        };
        let applied = match &statement {
            Statement::Insert { xml, .. } => apply_insert(xml, collection, catalog).is_ok(),
            Statement::Delete { .. } => apply_delete(&statement, collection, catalog).is_ok(),
            Statement::Update { .. } => apply_update(&statement, collection, catalog).is_ok(),
            Statement::Query(_) => false,
        };
        if !applied {
            violations.push(format!("update does not apply: {text}"));
        }
    }
    values.insert(
        "optimizer.maintenance_us_per_update",
        t.elapsed().as_secs_f64() * 1e6 / updates.len() as f64,
    );
}

/// cli: the `recommend` command against its own library calls, on the
/// workload's first statements.
fn cli_overhead(
    db: &mut Database,
    scratch: &ScratchDir,
    image: &str,
    statements: &[String],
    values: &mut Values,
    violations: &mut Vec<String>,
) {
    let texts = &statements[..statements.len().min(CLI_STATEMENTS)];
    let file = scratch.file("probe.xq");
    write_workload_file(&file, texts);
    let set = Advisor::prepare(db, &parse_workload(texts), &advisor_params());
    let budget = budget_at(set.config_size(&Advisor::all_index_config(&set)), 0.5);
    // A few milliseconds between two 200 ms ops: pair the two sides back
    // to back and take the median difference, so drift cancels.
    const PAIRS: usize = 5;
    let mut differences = Vec::with_capacity(PAIRS);
    let mut ok = true;
    for _ in 0..PAIRS {
        let t = Instant::now();
        ok &= cli_recommend(image, &file, budget).is_ok_and(|out| out.code == 0);
        let cli_ms = ms(t.elapsed());
        let t = Instant::now();
        ok &= staged_recommend(&mut Tracer::new(Instant::now()), image, &file, budget);
        differences.push(cli_ms - ms(t.elapsed()));
    }
    if !ok {
        violations.push("the CLI probe's recommend failed".into());
    }
    values.insert("cli.overhead_ms", median(&differences));
}

/// server: request parsing, reply rendering, a round with no socket and
/// no lock, then one client and two clients over TCP.
fn server(
    seed: u64,
    db: &mut Database,
    episodes: usize,
    values: &mut Values,
    violations: &mut Vec<String>,
) {
    let mut serve = ServeMixed::setup(seed);

    let lines: Vec<String> = serve.episode(0).lines().map(str::to_string).collect();
    let (parse_ms, ()) = timed(|| {
        for line in &lines {
            black_box(parse_request(line).is_ok());
        }
    });
    values.insert(
        "server.parse_request_us",
        parse_ms * 1e3 / lines.len() as f64,
    );

    let workload = parse_workload(serve.episode(0).statements());
    let rec = Advisor::recommend(
        db,
        &workload,
        u64::MAX,
        ServeMixed::ALGORITHM,
        &advisor_params(),
    )
    .expect("the episode's statements can be advised");
    const RENDERS: usize = 200;
    let t = Instant::now();
    for _ in 0..RENDERS {
        black_box(render_recommendation(&rec).render());
    }
    values.insert(
        "server.render_reply_us",
        t.elapsed().as_secs_f64() * 1e6 / RENDERS as f64,
    );

    let mut session = serve_mixed::new_session();
    let mut round_ms = Vec::new();
    for e in 0..episodes {
        for round in serve.episode(e).round_lines() {
            let t = Instant::now();
            for line in round {
                black_box(serve_mixed::answer(&mut session, db, line));
            }
            round_ms.push(ms(t.elapsed()));
        }
    }
    let session_round_ms = median(&round_ms);
    values.insert("server.session_round_ms", session_round_ms);

    let mut tracer = Tracer::new(Instant::now());
    let one = serve.run_clients(1, episodes, Duration::MAX, Some(&mut tracer));
    let sent_before = serve.requests_sent();
    let two = serve.run_clients(serve_mixed::CLIENTS, episodes, Duration::MAX, None);
    let (c1, c2) = (median(&one.latencies_ms), median(&two.latencies_ms));
    values.insert("server.round_p50_ms.c1", c1);
    values.insert("server.round_p50_ms.c2", c2);
    values.insert("server.contention_ratio", c2 / c1);
    values.insert("server.wire_overhead_ms", c1 - session_round_ms);
    values.insert(
        "server.requests_per_s",
        (serve.requests_sent() - sent_before) as f64 / two.wall_s,
    );
    for (metric, span) in [
        ("server.verb_p50_ms.observe", "server.observe"),
        (
            "server.verb_p50_ms.recommend-first",
            "server.recommend-first",
        ),
        ("server.verb_p50_ms.recommend-warm", "server.recommend-warm"),
        ("server.verb_p50_ms.stats", "server.stats"),
        ("server.verb_p50_ms.reset", "server.reset"),
    ] {
        let durations: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        values.insert(metric, percentile(&sorted(durations), 50.0));
    }
    let (errors, rejected) = serve.server_counters();
    values.insert("server.error_replies", errors as f64);
    values.insert("server.rejected_conns", rejected as f64);
    if one.failed + two.failed + errors + rejected > 0 {
        violations.push(format!(
            "server probe: {} failed rounds, {errors} error replies, {rejected} rejected connections",
            one.failed + two.failed
        ));
    }
}
