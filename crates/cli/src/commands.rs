//! Command implementations. Each returns the text to print.

use crate::workload_file::parse_workload;
use crate::CliError;
use std::fmt::Write as _;
use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm};
use xia_optimizer::{execute_query, Optimizer};
use xia_storage::{load_database, save_database, Database};
use xia_workloads::Workload;
use xia_xpath::parse_statement;

fn require<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, CliError> {
    args.get(i)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::usage(format!("missing {what}\n\n{}", crate::USAGE)))
}

fn open(db_path: Option<&str>) -> Result<(String, Database), CliError> {
    let path = db_path.ok_or_else(|| CliError::usage("missing <db> argument"))?;
    let db = load_database(path).map_err(|e| {
        let inner: CliError = e.into();
        CliError::with_kind(format!("cannot open {path}: {inner}"), inner.kind)
    })?;
    Ok((path.to_string(), db))
}

/// Lenient open for the advisor path: a corrupt record skips that document
/// (reported in the returned [`xia_storage::LoadReport`]) instead of
/// failing the whole run.
fn open_lenient(
    db_path: Option<&str>,
    faults: &xia_fault::FaultInjector,
) -> Result<(String, Database, xia_storage::LoadReport), CliError> {
    let path = db_path.ok_or_else(|| CliError::usage("missing <db> argument"))?;
    let (db, report) = xia_storage::load_database_lenient_faulted(path, faults).map_err(|e| {
        let inner: CliError = e.into();
        CliError::with_kind(format!("cannot open {path}: {inner}"), inner.kind)
    })?;
    Ok((path.to_string(), db, report))
}

/// `xia init <db>`
pub fn init(db_path: Option<&str>) -> Result<String, CliError> {
    let path = db_path.ok_or_else(|| CliError::new("missing <db> argument"))?;
    if std::path::Path::new(path).exists() {
        return Err(CliError::new(format!("{path} already exists")));
    }
    let db = Database::new();
    save_database(&db, path)?;
    Ok(format!("created empty database {path}\n"))
}

/// `xia load <db> <collection> <file...> [--jobs <n>] [--no-stream]`
pub fn load(args: &[String]) -> Result<String, CliError> {
    let (path, mut db) = open(args.first().map(|s| s.as_str()))?;
    let collection = require(args, 1, "<collection>")?.to_string();
    let mut files: Vec<&str> = Vec::new();
    let mut opts = xia_storage::IngestOptions::default();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "-j" | "--jobs" => {
                let v = require(args, i + 1, "worker count after --jobs")?;
                opts.jobs = v.parse().map_err(|_| {
                    CliError::usage(format!("bad job count `{v}` (expected a number; 0 = auto)"))
                })?;
                i += 2;
            }
            "--no-stream" => {
                opts.use_dom = true;
                i += 1;
            }
            other if other.starts_with('-') => {
                return Err(CliError::usage(format!("unknown load flag `{other}`")));
            }
            file => {
                files.push(file);
                i += 1;
            }
        }
    }
    if files.is_empty() {
        return Err(CliError::new("no XML files given"));
    }
    let mut texts = Vec::with_capacity(files.len());
    for file in &files {
        texts.push(
            std::fs::read_to_string(file)
                .map_err(|e| CliError::new(format!("cannot read {file}: {e}")))?,
        );
    }
    // All-or-nothing batch: on a parse error nothing is inserted and the
    // failing *file* is named, not just its batch index.
    let coll = db.create_collection(&collection);
    let report = xia_storage::ingest_batch(coll, &texts, opts)
        .map_err(|e| CliError::new(format!("{}: {}", files[e.index], e.error)))?;
    db.runstats_all();
    save_database(&db, &path)?;
    Ok(format!(
        "loaded {} document(s) ({} nodes) into {collection} with {} worker(s); {path} saved\n",
        report.doc_ids.len(),
        report.nodes,
        report.workers,
    ))
}

/// `xia stats <db>`
pub fn stats(db_path: Option<&str>) -> Result<String, CliError> {
    let (_, mut db) = open(db_path)?;
    db.runstats_all();
    let mut out = String::new();
    for name in db.collection_names().iter().map(|s| s.to_string()) {
        let coll = db.collection(&name).expect("listed collection");
        let Some(stats) = db.stats_cached(&name) else {
            let _ = writeln!(out, "collection {name}: statistics unavailable");
            continue;
        };
        let _ = writeln!(
            out,
            "collection {name}: {} docs, {} nodes, {} distinct paths, {:.1} KiB of values",
            stats.doc_count,
            stats.node_count,
            coll.vocab().paths.len(),
            stats.value_bytes as f64 / 1024.0
        );
        // Top paths by node count.
        let mut paths: Vec<_> = coll.vocab().paths.iter().map(|(id, _)| id).collect();
        paths.sort_by_key(|&id| std::cmp::Reverse(stats.path(id).node_count));
        for &id in paths.iter().take(8) {
            let ps = stats.path(id);
            let _ = writeln!(
                out,
                "  {:<50} nodes={:<7} distinct={:<6}",
                coll.vocab().path_string(id),
                ps.node_count,
                ps.distinct_values
            );
        }
    }
    if out.is_empty() {
        out.push_str("database is empty\n");
    }
    Ok(out)
}

/// First line of a statement, for one-line trace rows.
fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("").trim()
}

/// Adds what opening `db`'s image has cost so far to `telemetry`: the
/// bytes read and verified, and the collections whose documents had to be
/// decoded. Both are facts of the database rather than events of a sink
/// (the image is read before any sink exists), so they are folded in
/// once, just before the trace is rendered.
fn count_image_reads(db: &Database, telemetry: &xia_obs::Telemetry) {
    telemetry.add(xia_obs::Counter::ImageBytesRead, db.image_bytes());
    telemetry.add(
        xia_obs::Counter::DomMaterializations,
        db.dom_materializations(),
    );
}

/// Parses `--trace` / `--trace=json` / `--trace=text`; `None` for any
/// other argument.
fn parse_trace_flag(arg: &str) -> Option<Result<TraceFormat, CliError>> {
    if arg != "--trace" && !arg.starts_with("--trace=") {
        return None;
    }
    Some(match arg.strip_prefix("--trace=") {
        None | Some("text") => Ok(TraceFormat::Text),
        Some("json") => Ok(TraceFormat::Json),
        Some(bad) => Err(CliError::usage(format!(
            "bad trace format `{bad}` (expected json or text)"
        ))),
    })
}

/// Appends a rendered trace the way every verb prints one: JSON as the
/// last line, text under a `--- trace ---` rule.
fn push_trace(out: &mut String, format: TraceFormat, tr: &xia_obs::TraceReport) {
    match format {
        TraceFormat::Json => {
            let _ = writeln!(out, "{}", tr.to_json());
        }
        TraceFormat::Text => {
            out.push_str("--- trace ---\n");
            out.push_str(&tr.to_text());
        }
    }
}

/// Builds the trace report for a finished advisor run: a snapshot of the
/// telemetry sink plus per-statement what-if costs. The snapshot is taken
/// *before* [`xia_advisor::TuningReport::build`] so its extra optimizer
/// calls do not pollute the counters being reported.
fn trace_report(
    db: &mut Database,
    workload: &Workload,
    set: &xia_advisor::CandidateSet,
    rec: &xia_advisor::Recommendation,
    telemetry: &xia_obs::Telemetry,
    journal: &xia_obs::EventJournal,
) -> xia_obs::TraceReport {
    count_image_reads(db, telemetry);
    let mut tr = telemetry.report();
    tr.dropped_events = journal.dropped();
    let full = xia_advisor::TuningReport::build(db, workload, set, rec);
    for s in &full.statements {
        tr.push_statement(first_line(&s.text), s.cost_before, s.cost_after);
    }
    tr
}

/// `xia explain <db> <statement>` (plan mode) or
/// `xia explain <db> -w <workload> -b <budget> [-a <algo>]` (advisor mode).
pub fn explain(args: &[String]) -> Result<String, CliError> {
    if args.len() >= 2 && args[1].starts_with('-') {
        return explain_advisor(args);
    }
    let (_, mut db) = open(args.first().map(|s| s.as_str()))?;
    let text = require(args, 1, "<statement>")?;
    let stmt = parse_statement(text).map_err(CliError::new)?;
    db.runstats_all();
    let coll = stmt.collection().to_string();
    let (collection, catalog, stats) = db
        .parts(&coll)
        .ok_or_else(|| CliError::new(format!("no collection named {coll}")))?;
    let optimizer = Optimizer::new(collection, stats, catalog);
    let plan = optimizer.optimize(&stmt);
    let mut out = String::new();
    let _ = writeln!(out, "{}", xia_optimizer::plan::render_plan(&plan, catalog));
    let candidates = optimizer.enumerate_indexes(&stmt);
    if !candidates.is_empty() {
        let _ = writeln!(out, "indexable patterns:");
        for c in candidates {
            let _ = writeln!(out, "  {} [{}]", c.pattern, c.kind);
        }
    }
    Ok(out)
}

/// The workload `Advisor::recommend` advises over: for `cophy`, the
/// weighted cost-identity templates (with the statement count they came
/// from) in place of the raw statements, which are released here rather
/// than held through the search. Deterministic in the workload alone.
fn advised_workload(
    workload: Workload,
    algo: SearchAlgorithm,
    params: &AdvisorParams,
) -> (Workload, Option<usize>) {
    if algo != SearchAlgorithm::Cophy {
        return (workload, None);
    }
    let compressed = xia_advisor::compress_workload(&workload, &params.telemetry, &params.journal);
    (compressed.workload, Some(compressed.original_statements))
}

/// Advisor-mode explain: run the full pipeline and print a structured
/// breakdown — phase timings, what-if call accounting, and per-statement
/// cost deltas — instead of a single statement's plan. `--why <pattern>`
/// additionally replays the decision journal and prints the derivation
/// chain (generation → prunes → benefit deltas → final decision) for the
/// given index pattern, recursing to the basics it generalizes.
fn explain_advisor(args: &[String]) -> Result<String, CliError> {
    let (_, mut db) = open(args.first().map(|s| s.as_str()))?;
    let mut workload_file = None;
    let mut budget: Option<u64> = None;
    let mut algo = SearchAlgorithm::TopDownFull;
    let mut jobs: Option<usize> = None;
    let mut prune = true;
    let mut fastpath = true;
    let mut why: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-w" | "--workload" => {
                workload_file = Some(require(args, i + 1, "workload file after -w")?.to_string());
                i += 2;
            }
            "-b" | "--budget" => {
                let v = require(args, i + 1, "budget after -b")?;
                budget =
                    Some(parse_size(v).ok_or_else(|| CliError::new(format!("bad budget `{v}`")))?);
                i += 2;
            }
            "-a" | "--algo" => {
                algo = parse_algo(require(args, i + 1, "algorithm after -a")?)?;
                i += 2;
            }
            "-j" | "--jobs" => {
                let v = require(args, i + 1, "worker count after --jobs")?;
                jobs = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("bad job count `{v}` (expected a number; 0 = auto)"))
                })?);
                i += 2;
            }
            "--no-prune" => {
                prune = false;
                i += 1;
            }
            "--no-fastpath" => {
                fastpath = false;
                i += 1;
            }
            "--why" => {
                why.push(require(args, i + 1, "index pattern after --why")?.to_string());
                i += 2;
            }
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }
    let workload_file =
        workload_file.ok_or_else(|| CliError::usage("missing -w <workload-file>"))?;
    let budget = budget.ok_or_else(|| CliError::usage("missing -b <budget>"))?;
    let text = std::fs::read_to_string(&workload_file)
        .map_err(|e| CliError::new(format!("cannot read {workload_file}: {e}")))?;
    let workload = parse_workload(&text).map_err(CliError::new)?;
    if workload.is_empty() {
        return Err(CliError::new("workload file contains no statements"));
    }

    let mut params = AdvisorParams {
        prune,
        fastpath,
        ..AdvisorParams::default()
    };
    if let Some(jobs) = jobs {
        params.jobs = jobs;
    }
    if !why.is_empty() {
        params.journal = xia_obs::EventJournal::new();
    }
    let (workload, _) = advised_workload(workload, algo, &params);
    let set = Advisor::prepare(&mut db, &workload, &params);
    let rec = Advisor::recommend_prepared(&mut db, &workload, &set, budget, algo, &params)?;
    let tr = trace_report(
        &mut db,
        &workload,
        &set,
        &rec,
        &params.telemetry,
        &params.journal,
    );

    let mut out = String::new();
    let _ = writeln!(
        out,
        "advisor run: {} statements, {} candidates ({} basic), algorithm {}",
        workload.len(),
        rec.candidates_total,
        rec.candidates_basic,
        algo.name()
    );
    let _ = writeln!(
        out,
        "recommended {} index(es), {} bytes, estimated speedup {:.2}x, {:.1} ms",
        rec.indexes.len(),
        rec.total_size,
        rec.speedup,
        rec.advisor_time.as_secs_f64() * 1e3
    );
    out.push_str(&tr.to_text());
    if !why.is_empty() {
        let events = params.journal.events();
        // If the journal ring dropped events, any derivation chain below
        // may be missing links — say so up front.
        if let Some(note) = xia_obs::provenance::incompleteness_note(params.journal.dropped()) {
            let _ = writeln!(out, "{note}");
        }
        for pattern in &why {
            let _ = writeln!(out, "--- why {pattern} ---");
            out.push_str(&xia_obs::provenance::explain_why(&events, pattern));
        }
    }
    Ok(out)
}

/// `xia exec <db> <statement> [--trace[=json|text]]`
pub fn exec(args: &[String]) -> Result<String, CliError> {
    let trace = match args.get(2) {
        None => None,
        Some(flag) => Some(
            parse_trace_flag(flag)
                .ok_or_else(|| CliError::usage(format!("unknown exec flag `{flag}`")))??,
        ),
    };
    let (path, mut db) = open(args.first().map(|s| s.as_str()))?;
    let telemetry = if trace.is_some() {
        xia_obs::Telemetry::new()
    } else {
        xia_obs::Telemetry::off()
    };
    db.set_telemetry(&telemetry);
    let mut out = exec_statement(&path, &mut db, require(args, 1, "<statement>")?)?;
    if let Some(format) = trace {
        count_image_reads(&db, &telemetry);
        push_trace(&mut out, format, &telemetry.report());
    }
    Ok(out)
}

fn exec_statement(path: &str, db: &mut Database, text: &str) -> Result<String, CliError> {
    let stmt = parse_statement(text).map_err(CliError::new)?;
    db.runstats_all();
    let coll = stmt.collection().to_string();
    let mut out = String::new();
    if stmt.is_modification() {
        match &stmt {
            xia_xpath::Statement::Insert { xml, .. } => {
                let xml = xml.clone();
                db.create_collection(&coll);
                let (collection, catalog) = db
                    .collection_and_catalog_mut(&coll)
                    .expect("collection just created");
                xia_optimizer::exec::apply_insert(&xml, collection, catalog)
                    .map_err(CliError::new)?;
                let _ = writeln!(out, "1 document inserted");
            }
            xia_xpath::Statement::Delete { .. } => {
                let (collection, catalog) = db
                    .collection_and_catalog_mut(&coll)
                    .ok_or_else(|| CliError::new(format!("no collection named {coll}")))?;
                let victims = xia_optimizer::exec::apply_delete(&stmt, collection, catalog)
                    .map_err(CliError::new)?;
                let _ = writeln!(out, "{} document(s) deleted", victims.len());
            }
            xia_xpath::Statement::Update { .. } => {
                let (collection, catalog) = db
                    .collection_and_catalog_mut(&coll)
                    .ok_or_else(|| CliError::new(format!("no collection named {coll}")))?;
                let updated = xia_optimizer::exec::apply_update(&stmt, collection, catalog)
                    .map_err(CliError::new)?;
                let _ = writeln!(out, "{updated} node(s) updated");
            }
            xia_xpath::Statement::Query(_) => unreachable!("is_modification checked"),
        }
        db.runstats_all();
        save_database(db, path)?;
        return Ok(out);
    }
    let (collection, catalog, stats) = db
        .parts(&coll)
        .ok_or_else(|| CliError::new(format!("no collection named {coll}")))?;
    let optimizer = Optimizer::new(collection, stats, catalog);
    let plan = optimizer.optimize(&stmt);
    let result = execute_query(&stmt, &plan, collection, catalog).map_err(CliError::new)?;
    let _ = writeln!(
        out,
        "{} document(s) matched, {} item(s); plan: {plan}",
        result.docs_matched, result.items
    );
    // Show a result sample.
    let items = xia_optimizer::execute_query_items(&stmt, &plan, collection, catalog)
        .map_err(CliError::new)?;
    const SAMPLE: usize = 5;
    for item in items.iter().take(SAMPLE) {
        let _ = writeln!(out, "  {item}");
    }
    if items.len() > SAMPLE {
        let _ = writeln!(out, "  ... {} more", items.len() - SAMPLE);
    }
    Ok(out)
}

fn parse_algo(s: &str) -> Result<SearchAlgorithm, CliError> {
    SearchAlgorithm::ALL
        .into_iter()
        .find(|a| a.name() == s)
        .ok_or_else(|| {
            CliError::new(format!(
                "unknown algorithm `{s}` (expected one of: greedy, heuristics, topdown-lite, topdown-full, dp, cophy)"
            ))
        })
}

/// How `--trace` output should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Text,
    Json,
}

/// `xia recommend <db> -w <file> -b <bytes> [-a <algo>] [--apply]
/// [--report] [--trace[=json|text]] [--strict] [--journal <path>]
/// [--what-if-budget <calls>] [--jobs <n>] [--no-prune] [--no-fastpath]
/// [--inject <site>:<rate>]
/// [--fault-seed <n>] [--deadline-ms <n>] [--checkpoint <path>]
/// [--resume <path>] [--mem-budget <bytes>] [--cancel-after-polls <k>]`
pub fn recommend(args: &[String]) -> Result<crate::CmdOutput, CliError> {
    let mut workload_file = None;
    let mut budget: Option<u64> = None;
    let mut algo = SearchAlgorithm::TopDownFull;
    let mut apply = false;
    let mut report = false;
    let mut strict = false;
    let mut what_if_calls: u64 = 0;
    let mut jobs: Option<usize> = None;
    let mut prune = true;
    let mut fastpath = true;
    let mut fault_seed: u64 = 0;
    let mut inject_specs: Vec<String> = Vec::new();
    let mut trace: Option<TraceFormat> = None;
    let mut journal_path: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut mem_budget: Option<u64> = None;
    let mut cancel_after_polls: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-w" | "--workload" => {
                workload_file = Some(require(args, i + 1, "workload file after -w")?.to_string());
                i += 2;
            }
            "-b" | "--budget" => {
                let v = require(args, i + 1, "budget after -b")?;
                budget = Some(
                    parse_size(v).ok_or_else(|| CliError::usage(format!("bad budget `{v}`")))?,
                );
                i += 2;
            }
            "-a" | "--algo" => {
                algo = parse_algo(require(args, i + 1, "algorithm after -a")?)?;
                i += 2;
            }
            "--apply" => {
                apply = true;
                i += 1;
            }
            "--report" => {
                report = true;
                i += 1;
            }
            "--strict" => {
                strict = true;
                i += 1;
            }
            "--what-if-budget" => {
                let v = require(args, i + 1, "call count after --what-if-budget")?;
                what_if_calls = v.parse().map_err(|_| {
                    CliError::usage(format!("bad what-if budget `{v}` (expected a call count)"))
                })?;
                i += 2;
            }
            "-j" | "--jobs" => {
                let v = require(args, i + 1, "worker count after --jobs")?;
                jobs = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("bad job count `{v}` (expected a number; 0 = auto)"))
                })?);
                i += 2;
            }
            "--no-prune" => {
                prune = false;
                i += 1;
            }
            "--no-fastpath" => {
                fastpath = false;
                i += 1;
            }
            "--inject" => {
                inject_specs.push(require(args, i + 1, "spec after --inject")?.to_string());
                i += 2;
            }
            "--fault-seed" => {
                let v = require(args, i + 1, "seed after --fault-seed")?;
                fault_seed = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad fault seed `{v}`")))?;
                i += 2;
            }
            "--journal" => {
                journal_path =
                    Some(require(args, i + 1, "output path after --journal")?.to_string());
                i += 2;
            }
            "--deadline-ms" => {
                let v = require(args, i + 1, "milliseconds after --deadline-ms")?;
                deadline_ms = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("bad deadline `{v}` (expected milliseconds)"))
                })?);
                i += 2;
            }
            "--checkpoint" => {
                checkpoint_path =
                    Some(require(args, i + 1, "output path after --checkpoint")?.to_string());
                i += 2;
            }
            "--resume" => {
                resume_path =
                    Some(require(args, i + 1, "checkpoint path after --resume")?.to_string());
                i += 2;
            }
            "--mem-budget" => {
                let v = require(args, i + 1, "size after --mem-budget")?;
                mem_budget = Some(
                    parse_size(v)
                        .ok_or_else(|| CliError::usage(format!("bad memory budget `{v}`")))?,
                );
                i += 2;
            }
            "--cancel-after-polls" => {
                let v = require(args, i + 1, "poll count after --cancel-after-polls")?;
                cancel_after_polls = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("bad poll count `{v}` (expected a number)"))
                })?);
                i += 2;
            }
            other => match parse_trace_flag(other) {
                Some(format) => {
                    trace = Some(format?);
                    i += 1;
                }
                None => return Err(CliError::usage(format!("unknown flag `{other}`"))),
            },
        }
    }
    let workload_file =
        workload_file.ok_or_else(|| CliError::usage("missing -w <workload-file>"))?;
    let budget = budget.ok_or_else(|| CliError::usage("missing -b <budget>"))?;

    let mut faults = xia_fault::FaultInjector::off();
    if !inject_specs.is_empty() {
        let mut f = xia_fault::FaultInjector::seeded(fault_seed);
        for spec in &inject_specs {
            f = f.with_spec(spec).map_err(CliError::usage)?;
        }
        faults = f;
    }

    let (path, mut db, load_report) = open_lenient(args.first().map(|s| s.as_str()), &faults)?;
    let mut out = String::new();
    if !load_report.is_clean() {
        for d in &load_report.diagnostics {
            let _ = writeln!(out, "warning: {path}: {d}");
        }
        let _ = writeln!(
            out,
            "warning: {path}: loaded {} document(s), skipped {} (degraded database)",
            load_report.docs_loaded, load_report.docs_skipped
        );
    }

    let text = std::fs::read_to_string(&workload_file)
        .map_err(|e| CliError::new(format!("cannot read {workload_file}: {e}")))?;
    // Lenient workload parse: malformed statements are quarantined with a
    // diagnostic instead of rejecting the whole file.
    let mut workload = Workload::new();
    let mut parse_quarantined = 0usize;
    for (freq, stmt) in crate::workload_file::split_statements(&text) {
        if let Some(e) = workload.try_push_with_freq(&stmt, freq) {
            parse_quarantined += 1;
            let _ = writeln!(
                out,
                "warning: statement quarantined (parse): {e}: {}",
                first_line(&stmt)
            );
        }
    }
    if workload.is_empty() {
        if parse_quarantined > 0 {
            return Err(CliError::new(format!(
                "all {parse_quarantined} statement(s) in {workload_file} failed to parse"
            )));
        }
        return Err(CliError::new("workload file contains no statements"));
    }
    if strict && parse_quarantined > 0 {
        return Err(CliError::internal(format!(
            "strict mode: {parse_quarantined} statement(s) quarantined at parse stage"
        )));
    }

    // Lifecycle controller: enabled only when one of the lifecycle flags
    // is present, so the plain path keeps a single-branch off() handle.
    let lifecycle = deadline_ms.is_some()
        || checkpoint_path.is_some()
        || resume_path.is_some()
        || mem_budget.is_some()
        || cancel_after_polls.is_some();
    let mut ctl = xia_advisor::RunController::off();
    if lifecycle {
        let mut c = xia_advisor::RunController::new();
        if let Some(ms) = deadline_ms {
            c = c.with_deadline_ms(ms);
        }
        if let Some(k) = cancel_after_polls {
            c = c.with_cancel_after_polls(k);
        }
        if let Some(p) = &checkpoint_path {
            c = c.with_checkpoint(p, 1);
        }
        if let Some(b) = mem_budget {
            c = c.with_mem_budget(b);
        }
        ctl = c;
    }

    let mut params = AdvisorParams {
        faults,
        what_if_budget: xia_advisor::WhatIfBudget::calls(what_if_calls),
        strict,
        prune,
        fastpath,
        ctl,
        ..AdvisorParams::default()
    };
    if let Some(jobs) = jobs {
        params.jobs = jobs;
    }
    if journal_path.is_some() {
        params.journal = xia_obs::EventJournal::new();
    }
    let (workload, compressed_from) = advised_workload(workload, algo, &params);
    if let Some(statements) = compressed_from {
        let _ = writeln!(
            out,
            "workload compressed: {statements} statement(s) -> {} weighted template(s)",
            workload.len()
        );
    }
    let set = Advisor::prepare(&mut db, &workload, &params);
    // Resume: load the warm store once the candidate set (and hence the
    // digest the checkpoint must match) is known. A stale or corrupt
    // checkpoint degrades to a cold start with a warning — never an error.
    if let Some(rpath) = &resume_path {
        match xia_advisor::load_checkpoint(
            rpath,
            xia_advisor::candidate_digest(&set),
            &params.faults,
        ) {
            Ok(entries) => {
                params.ctl.install_warm(entries);
                let _ = writeln!(out, "resumed from checkpoint {rpath}");
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "warning: cannot resume from {rpath}: {e}; starting cold"
                );
            }
        }
    }
    let rec = Advisor::recommend_prepared(&mut db, &workload, &set, budget, algo, &params)?;
    // Write the journal before any follow-up optimizer work; all events
    // are coordinator-side, so the file is byte-identical for every
    // --jobs value.
    if let Some(jpath) = &journal_path {
        std::fs::write(jpath, params.journal.to_jsonl())
            .map_err(|e| CliError::new(format!("cannot write {jpath}: {e}")))?;
        let _ = writeln!(
            out,
            "journal: {} event(s) written to {jpath}",
            params.journal.len()
        );
    }
    // Snapshot the trace before any follow-up optimizer work (the tuning
    // report re-costs the workload) can inflate the counters.
    let traced = trace.map(|fmt| {
        (
            fmt,
            trace_report(
                &mut db,
                &workload,
                &set,
                &rec,
                &params.telemetry,
                &params.journal,
            ),
        )
    });

    for q in &rec.quarantined {
        let _ = writeln!(out, "warning: {q}");
    }
    for w in &rec.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    if let Some(p) = rec.partial() {
        let _ = writeln!(
            out,
            "warning: run stopped early ({}); the recommendation below is the best \
             configuration found so far, not necessarily the final answer",
            p.reason
        );
    }
    if rec.degraded {
        let _ = writeln!(
            out,
            "warning: degraded recommendation ({} statement(s) quarantined, {} heuristic cost fallback(s))",
            rec.quarantined.len(),
            rec.cost_fallbacks
        );
    }
    let _ = writeln!(
        out,
        "workload: {} statements; candidates: {} basic, {} total",
        workload.len(),
        rec.candidates_basic,
        rec.candidates_total
    );
    let _ = writeln!(
        out,
        "algorithm {}: estimated speedup {:.2}x, {} indexes ({} general, {} specific), {} bytes, {} optimizer calls",
        algo.name(),
        rec.speedup,
        rec.indexes.len(),
        rec.general_count,
        rec.specific_count,
        rec.total_size,
        rec.eval_stats.optimizer_calls
    );
    for ix in &rec.indexes {
        let _ = writeln!(
            out,
            "CREATE INDEX ON {} PATTERN '{}' AS {};",
            ix.collection, ix.pattern, ix.kind
        );
    }
    if report {
        let full = xia_advisor::TuningReport::build(&mut db, &workload, &set, &rec);
        let _ = writeln!(
            out,
            "
{}",
            full.render()
        );
    }
    if let Some((format, tr)) = &traced {
        push_trace(&mut out, *format, tr);
    }
    if apply {
        let n = Advisor::materialize(&mut db, &set, &rec.config);
        db.runstats_all();
        save_database(&db, &path)?;
        let _ = writeln!(out, "applied: {n} physical index(es) built; {path} saved");
    }
    // Lifecycle exit codes: a partial (deadline/cancelled) result outranks
    // a successful resume — scripts must know the answer is incomplete.
    let code = if !rec.complete {
        6
    } else if params.ctl.resumed() {
        7
    } else {
        0
    };
    Ok(crate::CmdOutput::with_code(out, code))
}

/// `xia whatif <db> -w <file> -i <collection>:<pattern>:<string|numerical> ...`
pub fn whatif(args: &[String]) -> Result<String, CliError> {
    let (_, mut db) = open(args.first().map(|s| s.as_str()))?;
    let mut workload_file = None;
    let mut specs: Vec<(String, xia_xpath::LinearPath, xia_xpath::ValueKind)> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-w" | "--workload" => {
                workload_file = Some(require(args, i + 1, "workload file after -w")?.to_string());
                i += 2;
            }
            "-i" | "--index" => {
                let spec = require(args, i + 1, "index spec after -i")?;
                specs.push(parse_index_spec(spec)?);
                i += 2;
            }
            other => return Err(CliError::new(format!("unknown flag `{other}`"))),
        }
    }
    let workload_file = workload_file.ok_or_else(|| CliError::new("missing -w <workload-file>"))?;
    if specs.is_empty() {
        return Err(CliError::new("missing -i <collection>:<pattern>:<kind>"));
    }
    let text = std::fs::read_to_string(&workload_file)
        .map_err(|e| CliError::new(format!("cannot read {workload_file}: {e}")))?;
    let workload = parse_workload(&text).map_err(CliError::new)?;
    let rec = Advisor::what_if(&mut db, &workload, &specs, &AdvisorParams::default())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "what-if configuration: estimated speedup {:.2}x, benefit {:.1}, {} bytes",
        rec.speedup, rec.est_benefit, rec.total_size
    );
    for ix in &rec.indexes {
        let _ = writeln!(
            out,
            "  {} '{}' [{}] {} bytes",
            ix.collection, ix.pattern, ix.kind, ix.size
        );
    }
    Ok(out)
}

/// Parses `collection:pattern:kind`, e.g. `SDOC:/Security/Symbol:string`.
pub fn parse_index_spec(
    spec: &str,
) -> Result<(String, xia_xpath::LinearPath, xia_xpath::ValueKind), CliError> {
    let (coll, rest) = spec.split_once(':').ok_or_else(|| {
        CliError::new(format!("bad index spec `{spec}` (collection:pattern:kind)"))
    })?;
    let (pattern, kind) = rest.rsplit_once(':').ok_or_else(|| {
        CliError::new(format!("bad index spec `{spec}` (collection:pattern:kind)"))
    })?;
    let kind = match kind {
        "string" | "str" => xia_xpath::ValueKind::Str,
        "numerical" | "num" | "double" => xia_xpath::ValueKind::Num,
        other => return Err(CliError::new(format!("bad index kind `{other}`"))),
    };
    let pattern = xia_xpath::parse_linear_path(pattern).map_err(CliError::new)?;
    Ok((coll.to_string(), pattern, kind))
}

/// `xia indexes <db>`
pub fn indexes(db_path: Option<&str>) -> Result<String, CliError> {
    let (_, db) = open(db_path)?;
    let mut out = String::new();
    for name in db.collection_names() {
        let catalog = db.catalog(name).expect("listed collection");
        for def in catalog.iter().filter(|d| !d.is_virtual()) {
            let _ = writeln!(
                out,
                "{name}: {} [{}] entries={} size={}B levels={}",
                def.pattern, def.kind, def.stats.entries, def.stats.size_bytes, def.stats.levels
            );
        }
    }
    if out.is_empty() {
        out.push_str("no physical indexes\n");
    }
    Ok(out)
}

/// `xia serve <db> [--tcp <addr>] [--socket <path>] [--max-conns <n>]
/// [--drift-threshold <x>] [--what-if-budget <calls>] [--jobs <n>]
/// [--inject <site>:<rate>] [--fault-seed <n>]`
///
/// Starts the warm advisor service over the given database and blocks
/// until a client sends the `shutdown` verb (or the process is killed).
/// The listening endpoints are printed before the server starts
/// accepting, so wrappers can wait for that line.
pub fn serve(args: &[String]) -> Result<String, CliError> {
    let (path, db) = open(args.first().map(|s| s.as_str()))?;
    let mut config = xia_server::ServerConfig::default();
    let mut fault_seed: u64 = 0;
    let mut inject_specs: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => {
                config.tcp = Some(require(args, i + 1, "address after --tcp")?.to_string());
                i += 2;
            }
            "--socket" => {
                config.socket = Some(
                    require(args, i + 1, "path after --socket")?
                        .to_string()
                        .into(),
                );
                i += 2;
            }
            "--max-conns" => {
                let v = require(args, i + 1, "count after --max-conns")?;
                config.max_connections = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad connection cap `{v}`")))?;
                i += 2;
            }
            "--drift-threshold" => {
                let v = require(args, i + 1, "value after --drift-threshold")?;
                config.drift_threshold = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && (0.0..=1.0).contains(t))
                    .ok_or_else(|| {
                        CliError::usage(format!("bad drift threshold `{v}` (expected 0..=1)"))
                    })?;
                i += 2;
            }
            "--what-if-budget" => {
                let v = require(args, i + 1, "call count after --what-if-budget")?;
                config.what_if_budget = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad what-if budget `{v}`")))?;
                i += 2;
            }
            "-j" | "--jobs" => {
                let v = require(args, i + 1, "worker count after --jobs")?;
                config.jobs = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("bad job count `{v}` (expected a number; 0 = auto)"))
                })?);
                i += 2;
            }
            "--inject" => {
                inject_specs.push(require(args, i + 1, "spec after --inject")?.to_string());
                i += 2;
            }
            "--fault-seed" => {
                let v = require(args, i + 1, "seed after --fault-seed")?;
                fault_seed = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad fault seed `{v}`")))?;
                i += 2;
            }
            other => return Err(CliError::usage(format!("unknown serve flag `{other}`"))),
        }
    }
    if config.tcp.is_none() && config.socket.is_none() {
        return Err(CliError::usage(
            "serve needs at least one of --tcp <addr> / --socket <path>",
        ));
    }
    // Validate injection specs up front (the server falls back to
    // fault-free on a bad spec; the CLI should reject it loudly instead).
    if !inject_specs.is_empty() {
        let mut f = xia_fault::FaultInjector::seeded(fault_seed);
        for spec in &inject_specs {
            f = f.with_spec(spec).map_err(CliError::usage)?;
        }
        config.fault_specs = inject_specs;
        config.fault_seed = fault_seed;
    }
    let handle = xia_server::start(config, db)
        .map_err(|e| CliError::internal(format!("cannot start server: {e}")))?;
    // Print endpoints immediately: the process now blocks until shutdown,
    // and wrappers poll for this banner.
    println!("serving {path}");
    if let Some(addr) = handle.tcp_addr() {
        println!("listening on tcp {addr}");
    }
    if let Some(sock) = handle.socket_path() {
        println!("listening on socket {}", sock.display());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    Ok("server stopped\n".to_string())
}

/// `xia client (--tcp <addr> | --socket <path>) <verb> [...]`
///
/// Verbs: `ping`, `hello`, `stats`, `journal`, `reset`, `shutdown`,
/// `observe (-w <workload-file> | <statement>...)`,
/// `recommend -b <budget> [-a <algo>]`. Prints the server's JSON reply;
/// an error reply maps to the same exit code the equivalent local
/// command would use.
pub fn client(args: &[String]) -> Result<String, CliError> {
    let mut tcp: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => {
                tcp = Some(require(args, i + 1, "address after --tcp")?.to_string());
                i += 2;
            }
            "--socket" => {
                socket = Some(require(args, i + 1, "path after --socket")?.to_string());
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    if tcp.is_none() && socket.is_none() {
        return Err(CliError::usage(
            "client needs one of --tcp <addr> / --socket <path>",
        ));
    }
    let verb = rest
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::usage("missing client verb"))?;
    let lines = build_client_requests(verb, &rest[1..])?;
    let replies = client_exchange(tcp.as_deref(), socket.as_deref(), &lines)?;
    let mut out = String::new();
    for reply in replies {
        // Map an error reply to the exit code the CLI taxonomy assigns it.
        if let Ok(v) = xia_obs::json::Json::parse(&reply) {
            if v.get("ok") == Some(&xia_obs::json::Json::Bool(false)) {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(xia_obs::json::Json::as_num)
                    .unwrap_or(5.0) as i32;
                let message = v
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(xia_obs::json::Json::as_str)
                    .unwrap_or("server error")
                    .to_string();
                let kind = match code {
                    2 => crate::ErrorKind::Usage,
                    3 => crate::ErrorKind::Input,
                    4 => crate::ErrorKind::CorruptDb,
                    _ => crate::ErrorKind::Internal,
                };
                return Err(CliError::with_kind(format!("server: {message}"), kind));
            }
        }
        let _ = writeln!(out, "{reply}");
    }
    Ok(out)
}

/// Reads a workload file into wire-shaped `{text, freq}` statement objects.
fn workload_statements(file: &str) -> Result<Vec<xia_obs::json::Json>, CliError> {
    use xia_obs::json::Json;
    let text = std::fs::read_to_string(file)
        .map_err(|e| CliError::new(format!("cannot read {file}: {e}")))?;
    Ok(crate::workload_file::split_statements(&text)
        .into_iter()
        .map(|(freq, stmt)| {
            Json::Obj(vec![
                ("text".into(), Json::Str(stmt)),
                ("freq".into(), Json::Num(freq)),
            ])
        })
        .collect())
}

/// Builds the request lines for a client verb. Sessions live exactly as
/// long as their connection, so a verb that needs prior observations
/// (`recommend -w`) expands to several requests sent over one connection.
fn build_client_requests(verb: &str, args: &[String]) -> Result<Vec<String>, CliError> {
    use xia_obs::json::Json;
    match verb {
        "ping" | "hello" | "stats" | "journal" | "reset" | "metrics" | "shutdown" => {
            Ok(vec![Json::Obj(vec![(
                "verb".into(),
                Json::Str(verb.into()),
            )])
            .render()])
        }
        "observe" => {
            let mut statements: Vec<Json> = Vec::new();
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "-w" | "--workload" => {
                        let file = require(args, i + 1, "workload file after -w")?;
                        statements.extend(workload_statements(file)?);
                        i += 2;
                    }
                    other if other.starts_with('-') => {
                        return Err(CliError::usage(format!("unknown observe flag `{other}`")));
                    }
                    stmt => {
                        statements.push(Json::Str(stmt.to_string()));
                        i += 1;
                    }
                }
            }
            if statements.is_empty() {
                return Err(CliError::usage(
                    "observe needs -w <workload-file> or statement arguments",
                ));
            }
            Ok(vec![Json::Obj(vec![
                ("verb".into(), Json::Str("observe".into())),
                ("statements".into(), Json::Arr(statements)),
            ])
            .render()])
        }
        "recommend" => {
            let mut budget: Option<u64> = None;
            let mut algo: Option<String> = None;
            let mut statements: Vec<Json> = Vec::new();
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "-b" | "--budget" => {
                        let v = require(args, i + 1, "budget after -b")?;
                        budget = Some(
                            parse_size(v)
                                .ok_or_else(|| CliError::usage(format!("bad budget `{v}`")))?,
                        );
                        i += 2;
                    }
                    "-a" | "--algo" => {
                        // Validated here for a fast local error; the
                        // server validates again.
                        let a = require(args, i + 1, "algorithm after -a")?;
                        parse_algo(a)?;
                        algo = Some(a.to_string());
                        i += 2;
                    }
                    "-w" | "--workload" => {
                        let file = require(args, i + 1, "workload file after -w")?;
                        statements.extend(workload_statements(file)?);
                        i += 2;
                    }
                    other => {
                        return Err(CliError::usage(format!("unknown recommend flag `{other}`")))
                    }
                }
            }
            let budget = budget.ok_or_else(|| CliError::usage("missing -b <budget>"))?;
            let mut lines = Vec::new();
            if !statements.is_empty() {
                lines.push(
                    Json::Obj(vec![
                        ("verb".into(), Json::Str("observe".into())),
                        ("statements".into(), Json::Arr(statements)),
                    ])
                    .render(),
                );
            }
            let mut fields = vec![
                ("verb".into(), Json::Str("recommend".into())),
                ("budget".into(), Json::Num(budget as f64)),
            ];
            if let Some(a) = algo {
                fields.push(("algo".into(), Json::Str(a)));
            }
            lines.push(Json::Obj(fields).render());
            Ok(lines)
        }
        other => Err(CliError::usage(format!("unknown client verb `{other}`"))),
    }
}

/// Connects once, then sends each request line and reads its reply line
/// over that single connection (so all requests share one session).
fn client_exchange(
    tcp: Option<&str>,
    socket: Option<&str>,
    lines: &[String],
) -> Result<Vec<String>, CliError> {
    use std::io::{BufRead as _, BufReader};
    fn exchange<S: std::io::Read + std::io::Write>(
        stream: S,
        lines: &[String],
    ) -> std::io::Result<Vec<String>> {
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::with_capacity(lines.len());
        for line in lines {
            let stream = reader.get_mut();
            // One write per request: split small writes trip Nagle +
            // delayed-ACK stalls on TCP.
            stream.write_all(format!("{line}\n").as_bytes())?;
            stream.flush()?;
            let mut reply = String::new();
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            replies.push(reply.trim_end().to_string());
        }
        Ok(replies)
    }
    let replies = if let Some(addr) = tcp {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| CliError::new(format!("cannot connect to tcp {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        exchange(stream, lines)
    } else if let Some(path) = socket {
        #[cfg(unix)]
        {
            let stream = std::os::unix::net::UnixStream::connect(path)
                .map_err(|e| CliError::new(format!("cannot connect to socket {path}: {e}")))?;
            exchange(stream, lines)
        }
        #[cfg(not(unix))]
        {
            return Err(CliError::usage(
                "unix sockets are not available on this platform",
            ));
        }
    } else {
        return Err(CliError::usage(
            "client needs one of --tcp <addr> / --socket <path>",
        ));
    };
    replies.map_err(|e| CliError::new(format!("server connection failed: {e}")))
}

/// Parses sizes like `1048576`, `64k`, `10m`, `2g`.
pub fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    let (num, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(prefix) => {
            let mult = match s.as_bytes()[s.len() - 1] {
                b'k' => 1024,
                b'm' => 1024 * 1024,
                b'g' => 1024 * 1024 * 1024,
                _ => unreachable!("strip_suffix matched"),
            };
            (prefix, mult)
        }
        None => (s.as_str(), 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xia_cli_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("1024"), Some(1024));
        assert_eq!(parse_size("64k"), Some(64 * 1024));
        assert_eq!(parse_size("10M"), Some(10 * 1024 * 1024));
        assert_eq!(parse_size("2g"), Some(2 * 1024 * 1024 * 1024));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn load_batch_is_all_or_nothing_and_names_the_bad_file() {
        let dir = tmpdir();
        let db = dir.join("batch.xiadb").to_string_lossy().to_string();
        init(Some(&db)).unwrap();
        let mut args = vec![db.clone(), "C".to_string()];
        for i in 0..6 {
            let f = dir.join(format!("batch{i}.xml"));
            let body = if i == 4 {
                "<broken".to_string()
            } else {
                format!("<a><b>{i}</b></a>")
            };
            std::fs::write(&f, body).unwrap();
            args.push(f.to_string_lossy().to_string());
        }
        args.push("--jobs".to_string());
        args.push("3".to_string());
        let err = load(&args).unwrap_err();
        assert!(err.to_string().contains("batch4.xml"), "{err}");
        // Nothing was inserted.
        let out = stats(Some(&db)).unwrap();
        assert!(out.contains("database is empty"), "{out}");
        // Unknown flags are usage errors.
        let err = load(&s(&[&db, "C", "x.xml", "--frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown load flag"), "{err}");
    }

    #[test]
    fn init_load_stats_explain_exec_recommend_round_trip() {
        let dir = tmpdir();
        let db = dir.join("t.xiadb").to_string_lossy().to_string();

        // init
        let out = init(Some(&db)).unwrap();
        assert!(out.contains("created"));
        assert!(init(Some(&db)).is_err(), "init must refuse to overwrite");

        // load documents — enough data, with realistic bulk, that an index
        // pays off.
        let filler = "settlement clearing custodian tranche coupon ".repeat(40);
        let mut file_args = vec![db.clone(), "SDOC".to_string()];
        for i in 0..60 {
            let f = dir.join(format!("doc{i}.xml"));
            std::fs::write(
                &f,
                format!(
                    "<Security><Symbol>{}</Symbol><Yield>{}.5</Yield>\
                     <Prospectus>{filler}</Prospectus></Security>",
                    if i == 0 {
                        "IBM".to_string()
                    } else {
                        format!("S{i}")
                    },
                    i % 9
                ),
            )
            .unwrap();
            file_args.push(f.to_string_lossy().to_string());
        }
        let out = load(&file_args).unwrap();
        assert!(out.contains("loaded 60"));

        // Reloading the same corpus through the DOM escape hatch and with
        // parallel workers produces the same database surface.
        let db_dom = dir.join("t_dom.xiadb").to_string_lossy().to_string();
        init(Some(&db_dom)).unwrap();
        let mut dom_args = vec![db_dom.clone()];
        dom_args.extend(file_args[1..].iter().cloned());
        dom_args.push("--no-stream".to_string());
        dom_args.push("--jobs".to_string());
        dom_args.push("4".to_string());
        let out = load(&dom_args).unwrap();
        assert!(out.contains("loaded 60"), "{out}");
        assert!(out.contains("4 worker(s)"), "{out}");
        assert_eq!(stats(Some(&db)).unwrap(), stats(Some(&db_dom)).unwrap());

        // stats
        let out = stats(Some(&db)).unwrap();
        assert!(out.contains("collection SDOC: 60 docs"), "{out}");
        assert!(out.contains("/Security/Symbol"));

        // explain
        let out = explain(&s(&[
            &db,
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "IBM" return $s"#,
        ]))
        .unwrap();
        assert!(out.contains("SCAN"), "{out}");
        assert!(out.contains("/Security/Symbol"), "{out}");

        // exec query
        let out = exec(&s(&[
            &db,
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "IBM" return $s"#,
        ]))
        .unwrap();
        assert!(out.contains("1 document(s) matched"), "{out}");

        // exec insert persists
        let out = exec(&s(&[
            &db,
            "insert into SDOC <Security><Symbol>GE</Symbol></Security>",
        ]))
        .unwrap();
        assert!(out.contains("inserted"));
        let out = stats(Some(&db)).unwrap();
        assert!(out.contains("61 docs"), "{out}");

        // recommend + apply
        let wl = dir.join("w.xq");
        std::fs::write(
            &wl,
            "for $s in SECURITY('SDOC')/Security\nwhere $s/Symbol = \"IBM\"\nreturn $s\n",
        )
        .unwrap();
        let out = recommend(&s(&[
            &db,
            "-w",
            wl.to_str().unwrap(),
            "-b",
            "10m",
            "-a",
            "heuristics",
            "--report",
            "--apply",
        ]))
        .unwrap();
        assert!(out.contains("CREATE INDEX"), "{out}");
        assert!(out.contains("applied"), "{out}");
        assert!(out.contains("per-statement impact"), "{out}");

        // indexes now lists the materialized index
        let out = indexes(Some(&db)).unwrap();
        assert!(out.contains("/Security/Symbol"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exec_delete_and_update_persist() {
        let dir = tmpdir();
        let db = dir.join("du.xiadb").to_string_lossy().to_string();
        init(Some(&db)).unwrap();
        let mut file_args = vec![db.clone(), "SDOC".to_string()];
        for i in 0..10 {
            let f = dir.join(format!("d{i}.xml"));
            std::fs::write(
                &f,
                format!("<Security><Symbol>S{i}</Symbol><Yield>{i}</Yield></Security>"),
            )
            .unwrap();
            file_args.push(f.to_string_lossy().to_string());
        }
        load(&file_args).unwrap();

        let out = exec(&s(&[
            &db,
            r#"update SDOC set /Security/Yield = 99 where /Security[Symbol = "S3"]"#,
        ]))
        .unwrap();
        assert!(out.contains("1 node(s) updated"), "{out}");
        let out = exec(&s(&[&db, r#"collection('SDOC')/Security[Yield = 99]"#])).unwrap();
        assert!(out.contains("1 document(s) matched"), "{out}");

        let out = exec(&s(&[
            &db,
            r#"delete from SDOC where /Security[Symbol = "S5"]"#,
        ]))
        .unwrap();
        assert!(out.contains("1 document(s) deleted"), "{out}");
        let out = stats(Some(&db)).unwrap();
        assert!(out.contains("9 docs"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_index_spec_variants() {
        let (c, p, k) = parse_index_spec("SDOC:/Security/Symbol:string").unwrap();
        assert_eq!(c, "SDOC");
        assert_eq!(p.to_string(), "/Security/Symbol");
        assert_eq!(k, xia_xpath::ValueKind::Str);
        let (_, p, k) = parse_index_spec("X://Yield:num").unwrap();
        assert_eq!(p.to_string(), "//Yield");
        assert_eq!(k, xia_xpath::ValueKind::Num);
        assert!(parse_index_spec("nocolons").is_err());
        assert!(parse_index_spec("C:/a/b:floating").is_err());
        assert!(parse_index_spec("C:[bad:string").is_err());
    }

    #[test]
    fn whatif_prices_a_config() {
        let dir = tmpdir();
        let db = dir.join("w.xiadb").to_string_lossy().to_string();
        init(Some(&db)).unwrap();
        let filler = "lorem ipsum dolor ".repeat(60);
        let mut file_args = vec![db.clone(), "SDOC".to_string()];
        for i in 0..40 {
            let f = dir.join(format!("w{i}.xml"));
            std::fs::write(
                &f,
                format!("<Security><Symbol>S{i}</Symbol><Pad>{filler}</Pad></Security>"),
            )
            .unwrap();
            file_args.push(f.to_string_lossy().to_string());
        }
        load(&file_args).unwrap();
        let wl = dir.join("w.xq");
        std::fs::write(&wl, "collection('SDOC')/Security[Symbol = \"S3\"]\n").unwrap();
        let out = whatif(&s(&[
            &db,
            "-w",
            wl.to_str().unwrap(),
            "-i",
            "SDOC:/Security/Symbol:string",
        ]))
        .unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("/Security/Symbol"), "{out}");
        // Missing flags error.
        assert!(whatif(&s(&[&db, "-w", wl.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a small database plus workload file for trace/explain tests;
    /// returns (db path, workload path).
    fn trace_fixture(dir: &std::path::Path) -> (String, String) {
        let db = dir.join("t.xiadb").to_string_lossy().to_string();
        init(Some(&db)).unwrap();
        let filler = "prospectus filler text ".repeat(50);
        let mut file_args = vec![db.clone(), "SDOC".to_string()];
        for i in 0..50 {
            let f = dir.join(format!("tr{i}.xml"));
            std::fs::write(
                &f,
                format!(
                    "<Security><Symbol>S{i}</Symbol><Yield>{}.5</Yield>\
                     <Pad>{filler}</Pad></Security>",
                    i % 9
                ),
            )
            .unwrap();
            file_args.push(f.to_string_lossy().to_string());
        }
        load(&file_args).unwrap();
        let wl = dir.join("w.xq");
        std::fs::write(
            &wl,
            "collection('SDOC')/Security[Symbol = \"S3\"]\n\n\
             collection('SDOC')/Security[Yield > 4.5]\n",
        )
        .unwrap();
        (db, wl.to_string_lossy().to_string())
    }

    #[test]
    fn recommend_trace_json_is_parseable_and_complete() {
        let dir = tmpdir().join("trace_json");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let out = recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--trace=json"])).unwrap();
        let json_line = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("a JSON trace line");
        let tr = xia_obs::TraceReport::from_json(json_line).unwrap();
        let nonzero = tr.counters.iter().filter(|&&(_, v)| v > 0).count();
        assert!(nonzero >= 8, "only {nonzero} non-zero counters: {tr:?}");
        assert!(tr.counter("optimizer_evaluate_calls").unwrap() > 0);
        assert_eq!(tr.counter("optimizer_enumerate_calls"), Some(2));
        // The phase tree covers the whole pipeline.
        let advise = tr
            .phases
            .iter()
            .find(|p| p.name == "advise")
            .expect("advise root span");
        {
            let phase = "search";
            assert!(
                advise.child(phase).is_some(),
                "missing {phase} under advise"
            );
        }
        for phase in ["enumerate", "generalize", "size"] {
            assert!(
                advise.child(phase).is_some() || tr.phases.iter().any(|p| p.name == phase),
                "missing {phase} phase"
            );
        }
        // Every algorithm records its own search-loop span (PR 9): the
        // default algorithm's evaluate phase nests under its name.
        let search = advise.child("search").unwrap();
        let algo_span = search.child("topdown-full").expect("per-algorithm span");
        assert!(algo_span.child("evaluate").is_some());
        // Per-statement what-if rows for both workload statements.
        assert_eq!(tr.statements.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The regression guard for the lazy image: a count of collections
    /// decoded, not a timing.
    #[test]
    fn trace_counts_whether_a_verb_touched_the_documents() {
        let dir = tmpdir().join("trace_dom");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        // A second collection, so "per collection touched" means something.
        let order = dir.join("o.xml");
        std::fs::write(&order, "<Order><Id>1</Id></Order>").unwrap();
        load(&s(&[&db, "ODOC", order.to_str().unwrap()])).unwrap();
        let image_bytes = std::fs::metadata(&db).unwrap().len();
        let counters = |out: &str| {
            let tr = xia_obs::TraceReport::from_json(out.lines().last().unwrap()).unwrap();
            (
                tr.counter("image_bytes_read").unwrap(),
                tr.counter("dom_materializations").unwrap(),
            )
        };

        // Advising reads statistics and the path dictionary: no document
        // of either collection is decoded, trace and tuning report
        // included.
        let out = recommend(&s(&[
            &db,
            "-w",
            &wl,
            "-b",
            "10m",
            "--report",
            "--trace=json",
        ]))
        .unwrap();
        assert_eq!(counters(&out.text), (image_bytes, 0), "{}", out.text);
        // Executing a query decodes the one collection it runs against.
        let query = r#"collection('SDOC')/Security[Symbol = "S3"]"#;
        let out = exec(&s(&[&db, query, "--trace=json"])).unwrap();
        assert!(out.contains("1 document(s) matched"), "{out}");
        assert_eq!(counters(&out), (image_bytes, 1), "{out}");
        // A modification decodes its own collection to change it and the
        // other to save it.
        let insert = "insert into ODOC <Order><Id>2</Id></Order>";
        let out = exec(&s(&[&db, insert, "--trace=json"])).unwrap();
        assert_eq!(counters(&out), (image_bytes, 2), "{out}");
        // Once indexes are applied, opening the image rebuilds them from
        // the indexed collection's columns: that collection is decoded by
        // the load, the other still is not.
        recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--apply"])).unwrap();
        let out = recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--trace=json"])).unwrap();
        assert_eq!(counters(&out.text).1, 1, "{}", out.text);

        let out = exec(&s(&[&db, query, "--trace"])).unwrap();
        assert!(out.contains("--- trace ---\nphases:"), "{out}");
        assert!(out.contains("dom_materializations"), "{out}");
        let err = exec(&s(&[&db, query, "--verbose"])).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Usage, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_trace_text_and_bad_format() {
        let dir = tmpdir().join("trace_text");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let out = recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--trace"])).unwrap();
        assert!(out.contains("--- trace ---"), "{out}");
        assert!(out.contains("phases:"), "{out}");
        assert!(out.contains("optimizer_evaluate_calls"), "{out}");
        let err = recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--trace=xml"])).unwrap_err();
        assert!(err.message.contains("bad trace format"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_advisor_mode_prints_breakdown() {
        let dir = tmpdir().join("explain_adv");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let out = explain(&s(&[&db, "-w", &wl, "-b", "10m", "-a", "heuristics"])).unwrap();
        assert!(out.contains("advisor run: 2 statements"), "{out}");
        assert!(out.contains("phases:"), "{out}");
        assert!(out.contains("counters:"), "{out}");
        assert!(out.contains("statement what-if costs:"), "{out}");
        // Missing budget errors.
        assert!(explain(&s(&[&db, "-w", &wl])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_requires_flags() {
        let dir = tmpdir();
        let db = dir.join("r.xiadb").to_string_lossy().to_string();
        init(Some(&db)).unwrap();
        assert!(recommend(&s(&[&db])).is_err());
        assert!(recommend(&s(&[&db, "-b", "1m"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_collection_errors() {
        let dir = tmpdir();
        let db = dir.join("u.xiadb").to_string_lossy().to_string();
        init(Some(&db)).unwrap();
        let err = explain(&s(&[&db, "collection('NOPE')/a[b = 1]"])).unwrap_err();
        assert!(err.message.contains("NOPE"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_dispatches_and_reports_unknown() {
        assert!(crate::run(&s(&["help"])).unwrap().contains("USAGE"));
        assert!(crate::run(&s(&["bogus"])).is_err());
        assert!(crate::run(&[]).is_err());
    }

    #[test]
    fn exit_codes_follow_the_taxonomy() {
        use crate::ErrorKind;
        // Usage errors: exit 2.
        assert_eq!(
            crate::run(&s(&["bogus"])).unwrap_err().kind,
            ErrorKind::Usage
        );
        assert_eq!(crate::run(&[]).unwrap_err().exit_code(), 2);
        assert_eq!(stats(None).unwrap_err().kind, ErrorKind::Usage);
        // Input errors (missing file): exit 3.
        let err = stats(Some("/nonexistent/xia/none.xiadb")).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Input, "{err}");
        assert_eq!(err.exit_code(), 3);
        // Corrupt database: exit 4.
        let dir = tmpdir().join("exit_codes");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.xiadb");
        std::fs::write(&bad, "NOT A DATABASE\ngarbage\n").unwrap();
        let err = stats(Some(bad.to_str().unwrap())).unwrap_err();
        assert_eq!(err.kind, ErrorKind::CorruptDb, "{err}");
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_output_is_byte_identical_across_jobs() {
        // --jobs changes only wall-clock time; the printed recommendation
        // (speedup, index list, optimizer-call count) must be identical for
        // every worker count, clean and under injected faults.
        let dir = tmpdir().join("jobs_identical");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let run = |jobs: &str, extra: &[&str]| {
            let mut args = vec![
                db.as_str(),
                "-w",
                wl.as_str(),
                "-b",
                "10m",
                "-a",
                "heuristics",
                "--jobs",
                jobs,
            ];
            args.extend_from_slice(extra);
            recommend(&s(&args)).unwrap()
        };
        let clean = run("1", &[]);
        assert!(clean.contains("CREATE INDEX"), "{clean}");
        for jobs in ["4", "8", "0"] {
            assert_eq!(
                clean,
                run(jobs, &[]),
                "clean output diverged at --jobs {jobs}"
            );
        }
        let faulty = run(
            "1",
            &["--inject", "optimizer-cost:0.3", "--fault-seed", "11"],
        );
        for jobs in ["4", "8"] {
            assert_eq!(
                faulty,
                run(
                    jobs,
                    &["--inject", "optimizer-cost:0.3", "--fault-seed", "11"]
                ),
                "faulty output diverged at --jobs {jobs}"
            );
        }
        assert!(
            recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--jobs", "x"])).is_err(),
            "bad job count must be a usage error"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_journal_is_byte_identical_across_jobs() {
        // --journal exports the decision journal as JSONL. All events are
        // emitted on the coordinator, so the file must be byte-identical
        // for every --jobs value — clean and under injected faults.
        let dir = tmpdir().join("journal_jobs");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let run = |jobs: &str, tag: &str, extra: &[&str]| -> (String, String) {
            let jpath = dir.join(format!("j_{tag}_{jobs}.jsonl"));
            let jp = jpath.to_string_lossy().to_string();
            let mut args = vec![
                db.as_str(),
                "-w",
                wl.as_str(),
                "-b",
                "10m",
                "-a",
                "heuristics",
                "--jobs",
                jobs,
                "--journal",
                jp.as_str(),
            ];
            args.extend_from_slice(extra);
            let out = recommend(&s(&args)).unwrap();
            (out.text, std::fs::read_to_string(&jpath).unwrap())
        };
        let (out1, j1) = run("1", "clean", &[]);
        assert!(out1.contains("journal:"), "{out1}");
        let events = xia_obs::EventJournal::parse_jsonl(&j1).unwrap();
        assert!(!events.is_empty(), "journal must record the run");
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, xia_obs::Event::KnapsackDecision { .. })),
            "journal must record search decisions"
        );
        for jobs in ["4", "8"] {
            let (_, j) = run(jobs, "clean", &[]);
            assert_eq!(j1, j, "clean journal diverged at --jobs {jobs}");
        }
        let faults = ["--inject", "optimizer-cost:0.3", "--fault-seed", "11"];
        let (_, f1) = run("1", "faulty", &faults);
        for jobs in ["4", "8"] {
            let (_, f) = run(jobs, "faulty", &faults);
            assert_eq!(f1, f, "faulty journal diverged at --jobs {jobs}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_why_replays_the_derivation_chain() {
        let dir = tmpdir().join("explain_why");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        // Pull a recommended pattern out of a normal run first.
        let rec = recommend(&s(&[&db, "-w", &wl, "-b", "10m", "-a", "heuristics"])).unwrap();
        let pattern = rec
            .lines()
            .find_map(|l| {
                let (_, rest) = l.split_once("PATTERN '")?;
                rest.split_once('\'').map(|(p, _)| p.to_string())
            })
            .expect("a recommended index");
        let out = explain(&s(&[
            &db,
            "-w",
            &wl,
            "-b",
            "10m",
            "-a",
            "heuristics",
            "--why",
            &pattern,
        ]))
        .unwrap();
        assert!(out.contains(&format!("--- why {pattern} ---")), "{out}");
        assert!(out.contains("final decision: KEPT"), "{out}");
        assert!(
            out.contains("candidate") || out.contains("generalized from"),
            "{out}"
        );
        // Unknown patterns still print a definitive (empty-chain) answer.
        let out = explain(&s(&[&db, "-w", &wl, "-b", "10m", "--why", "/No/Such"])).unwrap();
        assert!(out.contains("no journal events"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_no_prune_changes_only_call_counts() {
        // --no-prune disables the statement-relevance shortcut: the
        // recommendation (index list, sizes, speedup) must stay
        // byte-identical; only the reported optimizer-call count may
        // change, and pruning must never need *more* calls.
        let dir = tmpdir().join("no_prune");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let run = |extra: &[&str]| {
            let mut args = vec![
                db.as_str(),
                "-w",
                wl.as_str(),
                "-b",
                "10m",
                "-a",
                "heuristics",
            ];
            args.extend_from_slice(extra);
            recommend(&s(&args)).unwrap()
        };
        // Blank out the call count in the summary line so everything else
        // can be compared bytewise.
        let mask = |out: &str| -> String {
            out.lines()
                .map(|l| match (l.strip_suffix(" optimizer calls"), l) {
                    (Some(head), _) => match head.rfind(", ") {
                        Some(p) => format!("{}, <calls> optimizer calls", &head[..p]),
                        None => l.to_string(),
                    },
                    (None, l) => l.to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let calls = |out: &str| -> u64 {
            out.lines()
                .find_map(|l| l.strip_suffix(" optimizer calls"))
                .and_then(|head| head.rsplit(", ").next())
                .and_then(|n| n.parse().ok())
                .expect("summary line reports optimizer calls")
        };
        let pruned = run(&[]);
        let unpruned = run(&["--no-prune"]);
        assert_eq!(mask(&pruned), mask(&unpruned), "--no-prune changed output");
        assert!(
            calls(&pruned) <= calls(&unpruned),
            "pruning used more optimizer calls: {} vs {}",
            calls(&pruned),
            calls(&unpruned)
        );
        // The unpruned path is jobs-invariant too.
        assert_eq!(unpruned, run(&["--no-prune", "--jobs", "4"]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_no_fastpath_output_is_byte_identical() {
        // --no-fastpath runs the naive generalization fixpoint and plain
        // containment instead of the semi-naive/memoized fast path. Unlike
        // --no-prune, nothing about the costing changes, so the whole
        // output — index list, sizes, speedup, reported call counts — must
        // be byte-identical, clean and under fault injection.
        let dir = tmpdir().join("no_fastpath");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let run = |extra: &[&str]| {
            let mut args = vec![
                db.as_str(),
                "-w",
                wl.as_str(),
                "-b",
                "10m",
                "-a",
                "heuristics",
            ];
            args.extend_from_slice(extra);
            recommend(&s(&args)).unwrap()
        };
        let fast = run(&[]);
        let naive = run(&["--no-fastpath"]);
        assert_eq!(fast, naive, "--no-fastpath changed the output");
        // Parity holds under fault injection and across worker counts too.
        let faulty = &["--inject", "optimizer-cost:0.3", "--fault-seed", "11"];
        let fast_faulty = run(faulty);
        let mut naive_faulty_args = vec!["--no-fastpath"];
        naive_faulty_args.extend_from_slice(faulty);
        assert_eq!(
            fast_faulty,
            run(&naive_faulty_args),
            "--no-fastpath changed faulty output"
        );
        assert_eq!(naive, run(&["--no-fastpath", "--jobs", "4"]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_under_total_optimizer_faults_degrades_cleanly() {
        let dir = tmpdir().join("inject_opt");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let args = s(&[
            &db,
            "-w",
            &wl,
            "-b",
            "10m",
            "--inject",
            "optimizer-cost:1.0",
            "--fault-seed",
            "7",
        ]);
        let out = recommend(&args).unwrap();
        assert!(
            out.contains("warning: degraded recommendation"),
            "total cost failure must be reported: {out}"
        );
        // Same seed, same flags: the degraded output is reproducible.
        let again = recommend(&args).unwrap();
        assert_eq!(out, again, "seeded fault runs must be deterministic");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_rejects_bad_inject_specs_as_usage() {
        let dir = tmpdir().join("inject_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        for spec in ["bogus-site:0.5", "storage-io:notanumber", "nocolon"] {
            let err = recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--inject", spec])).unwrap_err();
            assert_eq!(err.kind, crate::ErrorKind::Usage, "spec {spec}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_quarantines_unparseable_statements_with_a_warning() {
        let dir = tmpdir().join("quarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        // Append a hopeless statement to the workload file.
        let mut text = std::fs::read_to_string(&wl).unwrap();
        text.push_str("\n\n???not xquery at all(((\n");
        std::fs::write(&wl, &text).unwrap();
        let out = recommend(&s(&[&db, "-w", &wl, "-b", "10m"])).unwrap();
        assert!(
            out.contains("warning: statement quarantined (parse)"),
            "{out}"
        );
        assert!(
            out.contains("CREATE INDEX"),
            "good statements still tune: {out}"
        );
        // Strict mode turns the same quarantine into an internal error.
        let err = recommend(&s(&[&db, "-w", &wl, "-b", "10m", "--strict"])).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Internal, "{err}");
        assert_eq!(err.exit_code(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_deadline_zero_returns_partial_with_exit_6() {
        let dir = tmpdir().join("lifecycle_deadline");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let cp = dir.join("dead.ckpt");
        let out = recommend(&s(&[
            &db,
            "-w",
            &wl,
            "-b",
            "10m",
            "-a",
            "heuristics",
            "--deadline-ms",
            "0",
            "--checkpoint",
            cp.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(out.code, 6, "{}", out.text);
        assert!(out.contains("run stopped early (deadline)"), "{}", out.text);
        assert!(
            cp.exists(),
            "a stopped run must leave a final checkpoint behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_resume_matches_uninterrupted_and_exits_7() {
        let dir = tmpdir().join("lifecycle_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let cp_full = dir.join("full.ckpt");
        let cp_kill = dir.join("kill.ckpt");
        let cp_next = dir.join("next.ckpt");
        let base = &[
            db.as_str(),
            "-w",
            wl.as_str(),
            "-b",
            "10m",
            "-a",
            "heuristics",
        ];
        let run = |extra: &[&str]| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend_from_slice(extra);
            recommend(&s(&args)).unwrap()
        };
        // Uninterrupted run with checkpointing on: the reference output.
        let full = run(&["--checkpoint", cp_full.to_str().unwrap()]);
        assert_eq!(full.code, 0, "{}", full.text);
        assert!(full.contains("CREATE INDEX"), "{}", full.text);
        // Kill deterministically mid-run; the partial run leaves a
        // checkpoint (cadence writes plus the final one on stop).
        let killed = run(&[
            "--cancel-after-polls",
            "2",
            "--checkpoint",
            cp_kill.to_str().unwrap(),
        ]);
        assert_eq!(killed.code, 6, "{}", killed.text);
        assert!(
            killed.contains("run stopped early (cancelled)"),
            "{}",
            killed.text
        );
        // Resume from the kill point: exit 7, and apart from the resume
        // banner the output is byte-identical to the uninterrupted run.
        let strip = |t: &str| {
            t.lines()
                .filter(|l| !l.starts_with("resumed from checkpoint"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let resumed = run(&[
            "--resume",
            cp_kill.to_str().unwrap(),
            "--checkpoint",
            cp_next.to_str().unwrap(),
        ]);
        assert_eq!(resumed.code, 7, "{}", resumed.text);
        assert!(
            resumed.contains("resumed from checkpoint"),
            "{}",
            resumed.text
        );
        assert_eq!(
            strip(&resumed),
            strip(&full),
            "resumed output must match the uninterrupted run"
        );
        // The resumed path is jobs-invariant like everything else.
        let resumed4 = run(&[
            "--resume",
            cp_kill.to_str().unwrap(),
            "--checkpoint",
            cp_next.to_str().unwrap(),
            "--jobs",
            "4",
        ]);
        assert_eq!(resumed.text, resumed4.text, "resume diverged at --jobs 4");
        // A garbage checkpoint degrades to a cold start with a warning.
        let garbage = dir.join("garbage.ckpt");
        std::fs::write(&garbage, "not a checkpoint\n").unwrap();
        let cold = run(&["--resume", garbage.to_str().unwrap()]);
        assert_eq!(cold.code, 0, "cold start is a plain success");
        assert!(cold.contains("starting cold"), "{}", cold.text);
        let strip_warn = |t: &str| {
            t.lines()
                .filter(|l| !l.starts_with("warning: cannot resume"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip_warn(&cold),
            strip(&full),
            "cold start must still agree"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_mem_budget_walks_the_ladder_deterministically() {
        let dir = tmpdir().join("lifecycle_governor");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        let jp = dir.join("gov.jsonl");
        let run = || {
            recommend(&s(&[
                &db,
                "-w",
                &wl,
                "-b",
                "10m",
                "-a",
                "heuristics",
                "--mem-budget",
                "1",
                "--journal",
                jp.to_str().unwrap(),
            ]))
            .unwrap()
        };
        let a = run();
        assert_eq!(a.code, 0, "{}", a.text);
        let j = std::fs::read_to_string(&jp).unwrap();
        assert!(
            j.contains("governor_demoted"),
            "a 1-byte budget must demote: {j}"
        );
        // The ladder fires at the same batches every run: output and
        // journal are reproducible.
        let b = run();
        assert_eq!(a, b, "governor runs must be deterministic");
        assert_eq!(j, std::fs::read_to_string(&jp).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_rejects_bad_lifecycle_flags_as_usage() {
        let dir = tmpdir().join("lifecycle_usage");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        for bad in [
            &["--deadline-ms", "soon"][..],
            &["--mem-budget", "lots"][..],
            &["--cancel-after-polls", "x"][..],
        ] {
            let mut args = vec![db.as_str(), "-w", wl.as_str(), "-b", "10m"];
            args.extend_from_slice(bad);
            let err = recommend(&s(&args)).unwrap_err();
            assert_eq!(err.kind, crate::ErrorKind::Usage, "{bad:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_survives_a_truncated_database_with_warnings() {
        let dir = tmpdir().join("trunc_db");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, wl) = trace_fixture(&dir);
        // Chop into the trailer so the frame checksum cannot verify.
        let bytes = std::fs::read(&db).unwrap();
        std::fs::write(&db, &bytes[..bytes.len() - 5]).unwrap();
        // Strict single-statement commands refuse the corrupt file...
        let err = stats(Some(&db)).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::CorruptDb, "{err}");
        // ...but recommend opens leniently, warns, and tunes what is left.
        let out = recommend(&s(&[&db, "-w", &wl, "-b", "10m"])).unwrap();
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("degraded database"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a small db file and returns its path (serve fixtures).
    fn serve_fixture(dir: &std::path::Path) -> String {
        let db = dir.join("serve.xiadb").to_string_lossy().to_string();
        init(Some(&db)).unwrap();
        // Padded documents so scans are expensive enough that a selective
        // index clears the benefit bar.
        let filler = "prospectus filler text ".repeat(50);
        let mut args = vec![db.clone(), "SDOC".to_string()];
        for i in 0..50 {
            let f = dir.join(format!("sdoc{i}.xml"));
            std::fs::write(
                &f,
                format!(
                    "<Security><Symbol>S{i}</Symbol><Yield>{}.25</Yield>\
                     <Pad>{filler}</Pad></Security>",
                    i % 8
                ),
            )
            .unwrap();
            args.push(f.to_string_lossy().to_string());
        }
        load(&args).unwrap();
        db
    }

    #[cfg(unix)]
    #[test]
    fn serve_and_client_round_trip_over_a_unix_socket() {
        let dir = tmpdir().join("serve_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let db = serve_fixture(&dir);
        let sock = dir.join("xia.sock").to_string_lossy().to_string();
        let serve_args = s(&[&db, "--socket", &sock, "--drift-threshold", "0.3"]);
        let server = std::thread::spawn(move || serve(&serve_args));
        // Wait for the listener (the socket file appears once bound).
        let sock_path = std::path::Path::new(&sock);
        for _ in 0..200 {
            if sock_path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(sock_path.exists(), "server never bound its socket");

        let out = client(&s(&["--socket", &sock, "ping"])).unwrap();
        assert_eq!(out.trim(), r#"{"ok":true,"pong":true}"#);

        let out = client(&s(&[
            "--socket",
            &sock,
            "observe",
            r#"collection('SDOC')/Security[Symbol = "S3"]"#,
        ]))
        .unwrap();
        assert!(out.contains(r#""observed":1"#), "{out}");

        // Sessions are per-connection, so `recommend -w` observes and
        // recommends over one connection: two replies, one invocation.
        let wl = dir.join("serve.workload").to_string_lossy().to_string();
        std::fs::write(
            &wl,
            "collection('SDOC')/Security[Symbol = \"S3\"]\n\ncollection('SDOC')/Security[Yield > 4.0]\n",
        )
        .unwrap();
        let out = client(&s(&[
            "--socket",
            &sock,
            "recommend",
            "-w",
            &wl,
            "-b",
            "10m",
            "-a",
            "heuristics",
        ]))
        .unwrap();
        assert!(out.contains(r#""observed":2"#), "{out}");
        assert!(out.contains("CREATE INDEX"), "{out}");

        // A second connection is a fresh session: recommending with no
        // observations is an input-class error, mapped to exit code 3.
        let err = client(&s(&["--socket", &sock, "recommend", "-b", "10m"])).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Input, "{err}");

        let out = client(&s(&["--socket", &sock, "shutdown"])).unwrap();
        assert!(out.contains("stopping"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("server stopped"), "{served}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_client_flag_validation() {
        let dir = tmpdir().join("serve_flags");
        std::fs::create_dir_all(&dir).unwrap();
        let db = serve_fixture(&dir);
        // serve: no listener, bad threshold, bad spec, unknown flag.
        for bad in [
            vec![db.as_str()],
            vec![db.as_str(), "--tcp"],
            vec![
                db.as_str(),
                "--tcp",
                "127.0.0.1:0",
                "--drift-threshold",
                "7",
            ],
            vec![db.as_str(), "--tcp", "127.0.0.1:0", "--inject", "bogus"],
            vec![db.as_str(), "--tcp", "127.0.0.1:0", "--frobnicate"],
        ] {
            let err = serve(&s(&bad)).unwrap_err();
            assert_eq!(err.kind, crate::ErrorKind::Usage, "{bad:?}: {err}");
        }
        // client: no endpoint, missing verb, unknown verb, missing budget.
        for bad in [
            vec!["ping"],
            vec!["--tcp", "127.0.0.1:1"],
            vec!["--tcp", "127.0.0.1:1", "frobnicate"],
            vec!["--tcp", "127.0.0.1:1", "recommend"],
            vec!["--tcp", "127.0.0.1:1", "observe"],
        ] {
            let err = client(&s(&bad)).unwrap_err();
            assert_eq!(err.kind, crate::ErrorKind::Usage, "{bad:?}: {err}");
        }
        // An unknown algorithm is an input error, same as local recommend.
        let err = client(&s(&[
            "--tcp",
            "127.0.0.1:1",
            "recommend",
            "-b",
            "10m",
            "-a",
            "quantum",
        ]))
        .unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Input, "{err}");
        // client: unreachable server is an input-class connection error.
        let err = client(&s(&["--tcp", "127.0.0.1:1", "ping"])).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Input, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
