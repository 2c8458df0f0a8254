//! Micro-benchmarks for the advisor's hot paths: containment,
//! generalization, optimizer costing, physical execution, the five
//! configuration searches, image save / load / record verification, and
//! telemetry overhead.
//!
//! Uses a small internal timing harness (the build environment has no
//! registry access, so criterion is unavailable): each benchmark is
//! warmed up, then run for a fixed wall-clock window, and the mean
//! ns/iteration is printed. Run with `cargo bench -p xia-bench`.

use std::time::{Duration, Instant};
use xia_advisor::{generalize_pair, Advisor, AdvisorParams, BenefitEvaluator, SearchAlgorithm};
use xia_bench::TpoxLab;
use xia_obs::{Counter, Telemetry};
use xia_optimizer::{execute_query, Optimizer};
use xia_workloads::tpox;
use xia_xpath::{contain, parse_linear_path, parse_statement};

/// Runs `f` repeatedly for ~`window` after a short warm-up and prints the
/// mean time per iteration.
fn bench<R>(name: &str, window: Duration, mut f: impl FnMut() -> R) {
    // Warm-up: a tenth of the window.
    let warm_until = Instant::now() + window / 10;
    while Instant::now() < warm_until {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < window {
        std::hint::black_box(f());
        iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    let (value, unit) = if per_iter >= 1e6 {
        (per_iter / 1e6, "ms")
    } else if per_iter >= 1e3 {
        (per_iter / 1e3, "µs")
    } else {
        (per_iter, "ns")
    };
    println!("{name:<40} {value:>10.2} {unit}/iter   ({iters} iters)");
}

fn quick() -> Duration {
    Duration::from_millis(300)
}

fn bench_containment() {
    let general = parse_linear_path("/Security//*").unwrap();
    let specific = parse_linear_path("/Security/SecInfo/*/Sector").unwrap();
    let deep_a = parse_linear_path("/a/b/c/d/e/f//g/*/h").unwrap();
    let deep_b = parse_linear_path("/a/b/c/d/e/f/x/g/y/h").unwrap();
    bench("contain/covers_shallow", quick(), || {
        contain::covers(
            std::hint::black_box(&general),
            std::hint::black_box(&specific),
        )
    });
    bench("contain/covers_deep", quick(), || {
        contain::covers(std::hint::black_box(&deep_a), std::hint::black_box(&deep_b))
    });
    // Same names on both sides, so the name mask passes and the product
    // search has to find the counterexample `/a/b`.
    let one_level = parse_linear_path("/a/*/b").unwrap();
    let any_depth = parse_linear_path("/a//b").unwrap();
    bench("contain/covers_reject_by_search", quick(), || {
        contain::covers(
            std::hint::black_box(&one_level),
            std::hint::black_box(&any_depth),
        )
    });
    // No names at all: the alphabet is the "other" letter alone.
    let universal = parse_linear_path("//*").unwrap();
    let two_levels = parse_linear_path("/*/*").unwrap();
    bench("contain/covers_wildcard_only", quick(), || {
        contain::covers(
            std::hint::black_box(&universal),
            std::hint::black_box(&two_levels),
        )
    });
}

fn bench_generalize() {
    let p = parse_linear_path("/Security/Symbol").unwrap();
    let q = parse_linear_path("/Security/SecInfo/*/Sector").unwrap();
    let r = parse_linear_path("/a/d/b/d").unwrap();
    let s = parse_linear_path("/a/b/d").unwrap();
    bench("generalize/paper_pair", quick(), || {
        generalize_pair(std::hint::black_box(&p), std::hint::black_box(&q))
    });
    bench("generalize/reoccurrence_pair", quick(), || {
        generalize_pair(std::hint::black_box(&s), std::hint::black_box(&r))
    });
}

fn bench_optimizer() {
    let lab = TpoxLab::quick();
    let coll = lab.db.collection(tpox::SECURITY_COLL).unwrap();
    let stats = lab.db.stats_cached(tpox::SECURITY_COLL).unwrap();
    let catalog = lab.db.catalog(tpox::SECURITY_COLL).unwrap();
    let opt = Optimizer::new(coll, stats, catalog);
    let stmt = parse_statement(
        r#"for $s in SECURITY('SDOC')/Security[Yield > 4.5]
           where $s/SecInfo/*/Sector = "Energy" return $s/Name"#,
    )
    .unwrap();
    bench("optimizer/evaluate_mode_scan", quick(), || {
        opt.optimize(std::hint::black_box(&stmt))
    });
    bench("optimizer/enumerate_mode", quick(), || {
        opt.enumerate_indexes(std::hint::black_box(&stmt))
    });
    // One advisor what-if task: the statement prepared once, planned under
    // an overlay of two pre-derived candidates. This, against the pool
    // spawn below, is what `PAR_MIN_TASKS` in xia-advisor is sized from.
    let prepared = opt.prepare(&stmt);
    let defs = [
        ("/Security/Yield", xia_xpath::ValueKind::Num),
        ("/Security/SecInfo//Sector", xia_xpath::ValueKind::Str),
    ]
    .iter()
    .enumerate()
    .map(|(slot, (p, kind))| {
        let p = parse_linear_path(p).unwrap();
        std::sync::Arc::new(catalog.derive_virtual(coll, stats, &p, *kind, slot))
    })
    .collect::<Vec<_>>();
    bench("optimizer/prepare", quick(), || {
        opt.prepare(std::hint::black_box(&stmt))
    });
    bench("optimizer/whatif_task_prepared", quick(), || {
        let mut overlay = catalog.overlay();
        for def in &defs {
            overlay.add(def.clone());
        }
        Optimizer::with_view(coll, stats, overlay.view()).plan(std::hint::black_box(&prepared))
    });
    for workers in [2, 4] {
        bench(
            &format!("par/scoped_pool_spawn_join_{workers}"),
            quick(),
            || {
                std::thread::scope(|scope| {
                    let handles: Vec<_> =
                        (0..workers).map(|_| scope.spawn(Telemetry::new)).collect();
                    handles.into_iter().filter_map(|h| h.join().ok()).count()
                })
            },
        );
    }
}

fn bench_execution() {
    let mut lab = TpoxLab::quick();
    let name = tpox::SECURITY_COLL;
    {
        let (collection, catalog, _) = lab.db.parts_mut(name).unwrap();
        catalog.create_physical(
            collection,
            &parse_linear_path("/Security/Symbol").unwrap(),
            xia_xpath::ValueKind::Str,
        );
    }
    lab.db.runstats_all();
    let (collection, catalog, stats) = lab.db.parts(name).unwrap();
    let opt = Optimizer::new(collection, stats, catalog);
    let stmt = parse_statement(
        r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00007" return $s"#,
    )
    .unwrap();
    let indexed_plan = opt.optimize(&stmt);
    let scan_plan = xia_optimizer::Plan {
        access: xia_optimizer::AccessChoice::Scan,
        ..indexed_plan.clone()
    };
    bench("exec/index_probe", quick(), || {
        execute_query(&stmt, &indexed_plan, collection, catalog).unwrap()
    });
    bench("exec/full_scan", quick(), || {
        execute_query(&stmt, &scan_plan, collection, catalog).unwrap()
    });
}

fn bench_searches() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let budget = set.config_size(&Advisor::all_index_config(&set));
    for algo in SearchAlgorithm::ALL {
        bench(
            &format!("search/{}", algo.name()),
            Duration::from_secs(1),
            || Advisor::recommend_prepared(&mut lab.db, &workload, &set, budget, algo, &params),
        );
    }
}

fn bench_benefit_cache() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let all = set.basic_ids();
    {
        let mut ev = BenefitEvaluator::new(&mut lab.db, &workload, &set);
        ev.benefit(&all); // warm the cache
        bench("benefit/cached", Duration::from_secs(1), || {
            ev.benefit(std::hint::black_box(&all))
        });
    }
    {
        // Cache off turns off the statement cache as well as the memo, so
        // every iteration re-costs every affected statement.
        let mut ev = BenefitEvaluator::new(&mut lab.db, &workload, &set);
        ev.use_cache = false;
        bench("benefit/uncached", Duration::from_secs(1), || {
            ev.benefit(std::hint::black_box(&all))
        });
    }
}

fn bench_storage() {
    let lab = TpoxLab::quick();
    let coll = lab.db.collection(tpox::SECURITY_COLL).unwrap();
    bench("storage/runstats", quick(), || {
        xia_storage::runstats(std::hint::black_box(coll))
    });
    bench("storage/build_physical_index", quick(), || {
        xia_storage::PhysicalIndex::build(
            std::hint::black_box(coll),
            &parse_linear_path("/Security/Symbol").unwrap(),
            xia_xpath::ValueKind::Str,
        )
    });
    bench("storage/persist_save", quick(), || {
        let mut buf = Vec::with_capacity(1 << 20);
        xia_storage::persist::save_database_to(std::hint::black_box(&lab.db), &mut buf).unwrap();
        buf
    });
    let mut buf = Vec::new();
    xia_storage::persist::save_database_to(&lab.db, &mut buf).unwrap();
    bench("storage/persist_load", quick(), || {
        xia_storage::persist::load_database_from(&mut std::io::Cursor::new(std::hint::black_box(
            &buf,
        )))
        .unwrap()
    });
    // The first document record of the image — the 9-byte magic line,
    // then records of a 13-byte header (tag, length, checksum) and a
    // payload — with the vocabulary of the collection record before it.
    let (mut pos, mut collections) = (9, 0);
    let (payload, sum) = loop {
        let len = u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(buf[pos + 5..pos + 13].try_into().unwrap());
        match buf[pos] {
            b'C' => collections += 1,
            b'D' => break (&buf[pos + 13..pos + 13 + len], sum),
            _ => {}
        }
        pos += 13 + len;
    };
    let name = lab.db.collection_names()[collections - 1];
    let check = xia_xml::PreorderCheck::new(lab.db.collection(name).unwrap().vocab());
    let mut seen = Vec::new();
    bench("storage/verify_doc_record", quick(), || {
        let payload = std::hint::black_box(payload);
        xia_storage::sum64(payload) == sum
            && xia_storage::persist::check_document_record(payload, &check, &mut seen).is_ok()
    });
}

/// The telemetry counters must cost nanoseconds whether the handle is live
/// or off — this is the "bounded overhead" check in measurable form.
fn bench_telemetry() {
    let on = Telemetry::new();
    let off = Telemetry::off();
    bench("obs/counter_incr_enabled", quick(), || {
        on.incr(std::hint::black_box(Counter::OptimizerEvaluateCalls))
    });
    bench("obs/counter_incr_off", quick(), || {
        off.incr(std::hint::black_box(Counter::OptimizerEvaluateCalls))
    });
    bench("obs/span_enter_exit", quick(), || on.span("bench_phase"));
}

/// The fault handle mirrors the telemetry contract: disabled, a roll is a
/// null check; the full advise loop with the default (off) injector should
/// match the plain `search/*` numbers above — that is the "no measurable
/// overhead when disabled" acceptance check in measurable form.
fn bench_faults() {
    use xia_fault::{FaultInjector, FaultSite};
    let off = FaultInjector::off();
    let on = FaultInjector::seeded(7).with_rate(FaultSite::OptimizerCost, 0.01);
    bench("fault/roll_off", quick(), || {
        off.roll(std::hint::black_box(FaultSite::OptimizerCost))
            .is_ok()
    });
    bench("fault/roll_seeded", quick(), || {
        on.roll(std::hint::black_box(FaultSite::OptimizerCost))
            .is_ok()
    });
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default(); // faults: FaultInjector::off()
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let budget = set.config_size(&Advisor::all_index_config(&set));
    bench("fault/advise_injector_off", Duration::from_secs(1), || {
        Advisor::recommend_prepared(
            &mut lab.db,
            &workload,
            &set,
            budget,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
    });
}

fn main() {
    println!("xia micro-benchmarks (internal harness; mean over a fixed window)");
    bench_containment();
    bench_generalize();
    bench_optimizer();
    bench_execution();
    bench_searches();
    bench_benefit_cache();
    bench_storage();
    bench_telemetry();
    bench_faults();
}
