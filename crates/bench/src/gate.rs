//! `xia-bench gate`: the CI gates.
//!
//! Timing legs are noisy on shared runners, so they retry up to
//! [`ROUNDS`] rounds and fail only if every round regresses;
//! `XIA_GATE_TOLERANCE` sets their relative tolerance (default 0.05).
//! Identity, parity, certificate and drift legs are exact: a failure
//! there is a bug, not noise, so it panics without a retry.
//!
//! * `cophy` — the LP certificate, the DP gap and compression
//!   losslessness of the CoPhy search.
//! * `datapath` — streaming ingest vs the DOM path, sharded vs serial
//!   index builds.
//! * `lifecycle` / `obs` — a disabled-by-default handle (the run
//!   controller, the decision journal): a run with it armed stays within
//!   the tolerance of the run with it off, and an op on the off handle
//!   costs no more than a disabled counter increment.
//! * `server` — the warm service's speedup, scaling, identity and drift
//!   contracts (E17).

use crate::experiments::server_warm::{self, observe_line, recommend_line, Conn};
use crate::lab::{env_or, TpoxLab};
use std::hint::black_box;
use std::time::Instant;
use xia_advisor::search::{cophy_with_outcome, dp_knapsack, standalone_benefits};
use xia_advisor::{
    Advisor, AdvisorParams, BenefitEvaluator, CandId, RunController, SearchAlgorithm,
};
use xia_obs::{Counter, Event, EventJournal, Telemetry};
use xia_server::{start, ServerConfig};
use xia_storage::{Collection, Database, PhysicalIndex};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_xpath::{parse_linear_path, ValueKind};

/// A gate's name and its run, which returns whether it passed.
pub type Gate = (&'static str, fn() -> bool);

/// Every gate, in the order `xia-bench gate` lists them.
pub const GATES: &[Gate] = &[
    ("cophy", cophy),
    ("datapath", datapath),
    ("lifecycle", || {
        overhead(
            "lifecycle",
            "controller",
            // A deadline far beyond any run here: the controller is armed
            // (polls check the clock) but never fires.
            |p| p.ctl = RunController::new().with_deadline_ms(600_000),
            |p| {
                black_box(p.ctl.poll());
            },
        )
    }),
    ("obs", || {
        overhead(
            "obs",
            "journal",
            |p| p.journal = EventJournal::new(),
            |p| {
                p.journal.emit(|| Event::FaultInjected {
                    statement: black_box(3),
                })
            },
        )
    }),
    ("server", server),
];

/// Retry rounds of a timing leg.
pub const ROUNDS: usize = 5;

fn tolerance() -> f64 {
    env_or("XIA_GATE_TOLERANCE", 0.05)
}

/// Runs `round` for rounds 1..=[`ROUNDS`] until one passes.
fn any_round(round: impl FnMut(usize) -> bool) -> bool {
    (1..=ROUNDS).any(round)
}

fn mark(ok: bool, bad: &str) -> &str {
    if ok {
        "ok"
    } else {
        bad
    }
}

/// Prints the gate's verdict against its bar and passes it through.
fn verdict(gate: &str, pass: bool, bar: &str) -> bool {
    if pass {
        println!("{gate} gate: PASS ({bar})");
    } else {
        eprintln!("{gate} gate: FAIL ({bar})");
    }
    pass
}

/// One full greedy-heuristics advisor run with telemetry off; wall
/// seconds.
fn advise_secs(lab: &mut TpoxLab, params: &AdvisorParams) -> f64 {
    let workload = lab.workload();
    let t0 = Instant::now();
    let rec = Advisor::recommend(
        &mut lab.db,
        &workload,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        params,
    )
    .expect("advise");
    black_box(rec.speedup);
    t0.elapsed().as_secs_f64()
}

/// Advisor work each side of a macro leg does per round, in seconds: one
/// run is well under a millisecond, too short to compare alone.
const MACRO_SIDE_SECS: f64 = 0.05;

/// Median of an odd number of samples (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall seconds of `k` advisor runs per side, the sides
/// alternating which one goes first: `(off, on)`. Each run on the `on`
/// side gets freshly armed parameters, as a real run would.
fn advise_medians(
    lab: &mut TpoxLab,
    off: &AdvisorParams,
    on: impl Fn() -> AdvisorParams,
    k: usize,
) -> (f64, f64) {
    let (mut base, mut armed) = (Vec::with_capacity(k), Vec::with_capacity(k));
    for i in 0..k {
        let on = on();
        if i % 2 == 0 {
            base.push(advise_secs(lab, off));
            armed.push(advise_secs(lab, &on));
        } else {
            armed.push(advise_secs(lab, &on));
            base.push(advise_secs(lab, off));
        }
    }
    (median(&mut base), median(&mut armed))
}

/// Mean cost of `f` in nanoseconds over a tight loop.
fn micro_mean_ns(f: impl Fn()) -> f64 {
    const ITERS: u32 = 5_000_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS)
}

/// The overhead gate of a disabled-by-default handle. Macro leg: a full
/// advisor run with the handle armed by `arm` stays within the tolerance
/// of the run with it off (the production default), each side timed as
/// the median of `k` order-alternated runs, `k` odd and enough for
/// [`MACRO_SIDE_SECS`] of work per side. Micro leg: `off_op`
/// on the off handle costs no more than `Telemetry::incr` on an off
/// handle (both a branch on `None`), plus 1 ns of slack for timer
/// granularity. When the armed handle journals, each round also reports
/// how many events one armed run records and the overhead per event.
fn overhead(
    gate: &str,
    handle: &str,
    arm: impl Fn(&mut AdvisorParams),
    off_op: impl Fn(&AdvisorParams),
) -> bool {
    let tol = tolerance();
    let mut lab = TpoxLab::standard();
    let quiet = || AdvisorParams {
        telemetry: Telemetry::off(),
        ..AdvisorParams::default()
    };
    let off = quiet();
    // Warm-up: fault the caches and code paths in before timing; the
    // fastest warm-up run sizes the macro leg.
    let one = (0..3)
        .map(|_| advise_secs(&mut lab, &off))
        .fold(f64::MAX, f64::min);
    let k = (MACRO_SIDE_SECS / one).ceil() as usize | 1;
    let armed_params = || {
        let mut on = quiet();
        arm(&mut on);
        on
    };
    let events = {
        let on = armed_params();
        advise_secs(&mut lab, &on);
        on.journal.high_water()
    };
    let pass = any_round(|round| {
        let (base, armed) = advise_medians(&mut lab, &off, armed_params, k);
        let op_ns = micro_mean_ns(|| off_op(&off));
        let incr_ns = micro_mean_ns(|| off.telemetry.incr(black_box(Counter::GreedyIterations)));
        let macro_ok = armed <= base * (1.0 + tol);
        let micro_ok = op_ns <= incr_ns * (1.0 + tol) + 1.0;
        let per_event = if events > 0 {
            let ns = (armed - base) * 1e9 / events as f64;
            format!(" = {events} events at {ns:.0} ns/event")
        } else {
            String::new()
        };
        println!(
            "round {round}: median of {k} advise runs off {:.2} ms, {handle}-on {:.2} ms \
             ({:+.1}%{per_event}) [{}]; off-handle {handle} op {op_ns:.2} ns vs incr \
             {incr_ns:.2} ns [{}]",
            base * 1e3,
            armed * 1e3,
            (armed / base - 1.0) * 100.0,
            mark(macro_ok, "REGRESSED"),
            mark(micro_ok, "REGRESSED"),
        );
        macro_ok && micro_ok
    });
    let bar = format!(
        "{handle} on within {:.0}% of off (median of {k} runs each), off-handle op at \
         the incr floor, in one of {ROUNDS} rounds",
        tol * 100.0
    );
    verdict(gate, pass, &bar)
}

/// Three legs on instances small enough for the DP optimum. Certificate:
/// over a budget sweep, the LP bound dominates the cophy and the DP
/// values and the rounded solution keeps half the bound (exact, 1e-6
/// epsilon for float accumulation). Quality: cophy within the tolerance
/// of the DP optimum. Losslessness: a compressed `cophy` advisor run
/// recommends what the same search over the raw workload does.
fn cophy() -> bool {
    const EPS: f64 = 1e-6;
    let tol = tolerance();
    let mut lab = TpoxLab::quick();
    let workloads = [
        ("tpox-11", lab.workload()),
        ("synthetic-64", lab.synthetic_workload(64, 0x9A7E)),
        ("mixed-30", lab.mixed_workload(19)),
    ];
    let mut pass = true;
    let mut leg = |ok: bool, what: String| {
        pass &= ok;
        println!("{what} [{}]", mark(ok, "VIOLATED"));
    };
    for (tag, w) in &workloads {
        let set = Advisor::prepare(&mut lab.db, w, &AdvisorParams::default());
        let all: Vec<CandId> = set.ids().collect();
        let all_index = set.config_size(&Advisor::all_index_config(&set));
        for frac in [0.15, 0.4, 0.8, 1.0] {
            let budget = (all_index as f64 * frac) as u64;
            let mut ev = BenefitEvaluator::new(&mut lab.db, w, &set);
            let benefits = standalone_benefits(&mut ev, &all);
            let out = cophy_with_outcome(&mut ev, &all, budget);
            let v_dp: f64 = dp_knapsack(&mut ev, &all, budget)
                .iter()
                .map(|id| benefits[id])
                .sum();
            let (v, lp) = (out.value, out.lp_bound);
            leg(
                v <= lp + EPS,
                format!("{tag} @{frac}: v_cophy {v:.2} <= lp_bound {lp:.2}"),
            );
            leg(
                v_dp <= lp + EPS,
                format!("{tag} @{frac}: v_dp {v_dp:.2} <= lp_bound {lp:.2}"),
            );
            leg(
                v >= 0.5 * lp - EPS,
                format!(
                    "{tag} @{frac}: v_cophy {v:.2} >= lp_bound/2 {:.2}",
                    0.5 * lp
                ),
            );
            leg(
                v >= v_dp * (1.0 - tol),
                format!(
                    "{tag} @{frac}: v_cophy {v:.2} >= v_dp {v_dp:.2} within {:.0}%",
                    tol * 100.0
                ),
            );
        }
    }
    for (tag, w) in &workloads {
        let params = AdvisorParams::default();
        let (budget, algo) = (u64::MAX / 2, SearchAlgorithm::Cophy);
        let compressed = Advisor::recommend(&mut lab.db, w, budget, algo, &params);
        let set = Advisor::prepare(&mut lab.db, w, &params);
        let raw = Advisor::recommend_prepared(&mut lab.db, w, &set, budget, algo, &params);
        let (on, off) = (
            compressed.expect("advise").indexes,
            raw.expect("advise").indexes,
        );
        let what = if on == off {
            format!("{tag}: compression lossless ({} indexes)", on.len())
        } else {
            format!("{tag}: compression CHANGED the recommendation: {on:?} vs raw {off:?}")
        };
        leg(on == off, what);
    }
    let bar = format!(
        "LP certificate, DP gap within {:.0}%, lossless",
        tol * 100.0
    );
    verdict("cophy", pass, &bar)
}

/// Inserts every text into a fresh collection; returns it and the secs.
fn ingest_secs(texts: &[String], use_dom: bool) -> (Collection, f64) {
    let mut c = Collection::new("GATE");
    let t0 = Instant::now();
    for t in texts {
        let r = if use_dom {
            c.insert_xml_dom(t)
        } else {
            c.insert_xml(t)
        };
        r.expect("generated TPoX documents parse");
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(c.len());
    (c, secs)
}

/// Throughput: streaming parse-and-insert (fused columnar append) of the
/// tiny TPoX corpus stays within the tolerance of the DOM path it
/// replaced, after a parity check that both build the same collection.
/// Index build: over 20 copies of the corpus, doc-range-sharded
/// `PhysicalIndex` builds equal the serial build at 2/4/8 workers and do
/// not lag it beyond the tolerance at 4.
fn datapath() -> bool {
    let tol = tolerance();
    let (mut texts, orders, customers) = tpox::docs_xml(&TpoxConfig::tiny());
    texts.extend(orders);
    texts.extend(customers);

    let (stream, _) = ingest_secs(&texts, false);
    let (dom, _) = ingest_secs(&texts, true);
    assert_eq!(
        stream.vocab(),
        dom.vocab(),
        "streaming and DOM vocabularies differ"
    );
    assert!(
        stream.iter_docs().eq(dom.iter_docs()),
        "streaming and DOM documents differ"
    );
    assert_eq!(
        stream.columns(),
        dom.columns(),
        "streaming and DOM column stores differ"
    );
    println!("parity: streaming == DOM over {} documents", texts.len());

    let pass = any_round(|round| {
        let (_, dom_secs) = ingest_secs(&texts, true);
        let (_, stream_secs) = ingest_secs(&texts, false);
        let ok = stream_secs <= dom_secs * (1.0 + tol);
        println!(
            "round {round}: dom {:.1} ms, streaming {:.1} ms ({:+.1}%) [{}]",
            dom_secs * 1e3,
            stream_secs * 1e3,
            (stream_secs / dom_secs - 1.0) * 100.0,
            mark(ok, "REGRESSED"),
        );
        ok
    });
    let bar = format!(
        "streaming within {:.0}% of DOM in one of {ROUNDS} rounds",
        tol * 100.0
    );
    if !verdict("datapath", pass, &bar) {
        return false;
    }

    let mut big = Collection::new("GATE");
    for _ in 0..20 {
        for t in &texts {
            big.insert_xml(t).expect("generated TPoX documents parse");
        }
    }
    assert!(big.columns().is_some(), "columnar projection must be live");
    let patterns = [
        ("/Security//*", ValueKind::Str),
        ("/Security/Symbol", ValueKind::Str),
        ("/Security/Yield", ValueKind::Num),
    ]
    .map(|(pat, kind)| (parse_linear_path(pat).expect("valid pattern"), kind));
    for (p, kind) in &patterns {
        let serial = PhysicalIndex::build_with_jobs(&big, p, *kind, 1);
        for jobs in [2, 4, 8] {
            let sharded = PhysicalIndex::build_with_jobs(&big, p, *kind, jobs);
            assert_eq!(
                serial, sharded,
                "sharded build diverged ({p:?}, jobs={jobs})"
            );
        }
    }
    println!(
        "parity: sharded index build == serial over {} documents, {} patterns",
        big.len(),
        patterns.len()
    );
    let build_secs = |jobs| {
        let t0 = Instant::now();
        for (p, kind) in &patterns {
            black_box(PhysicalIndex::build_with_jobs(&big, p, *kind, jobs).entries());
        }
        t0.elapsed().as_secs_f64()
    };
    let pass = any_round(|round| {
        let (serial, sharded) = (build_secs(1), build_secs(4));
        let ok = sharded <= serial * (1.0 + tol);
        println!(
            "round {round}: serial build {:.1} ms, sharded(4) {:.1} ms ({:+.1}%) [{}]",
            serial * 1e3,
            sharded * 1e3,
            (sharded / serial - 1.0) * 100.0,
            mark(ok, "REGRESSED"),
        );
        ok
    });
    let bar = format!(
        "sharded(4) within {:.0}% of serial in one of {ROUNDS} rounds",
        tol * 100.0
    );
    verdict("index-build", pass, &bar)
}

/// E17 at the tiny TPoX config. Speedup: the median warm repeat
/// recommend is at least `XIA_SERVER_GATE_MIN_SPEEDUP` (default 2.5)
/// times faster than a cold run; EXPERIMENTS.md records how the bar was
/// derived. Scaling: two concurrent sessions serve at least 1.4× the
/// replies/s of one (skipped on one core). Identity: every warm
/// recommendation is byte-identical to the cold one. Drift: a
/// drift-crossing observe stream re-advises exactly once. `XIA_JOBS` sets
/// the what-if worker count on both paths.
fn server() -> bool {
    const MIN_SCALING: f64 = 1.4;
    let min_speedup: f64 = env_or("XIA_SERVER_GATE_MIN_SPEEDUP", 2.5);
    let jobs = Some(env_or("XIA_JOBS", 0usize)).filter(|&j| j > 0);
    let cfg = TpoxConfig::tiny();

    let mut best: Option<server_warm::E17> = None;
    let pass = any_round(|round| {
        let e = server_warm::run(&cfg, 5, 12, jobs);
        assert!(e.identical, "warm recommendation diverged (round {round})");
        assert!(
            e.concurrent_identical,
            "a concurrent session's recommendation diverged (round {round})"
        );
        let fast = e.speedup >= min_speedup;
        // One core cannot run two sessions in parallel: nothing to gate.
        let scales = e.cores < 2 || e.scaling(2) >= MIN_SCALING;
        println!(
            "round {round}: cold {:.1} ms, warm {:.2} ms ({:.1}x) [{}], \
             2 sessions serve {:.2}x the replies/s of 1 [{}]",
            e.cold_secs * 1e3,
            e.warm_secs * 1e3,
            e.speedup,
            mark(fast, "TOO SLOW"),
            e.scaling(2),
            if e.cores < 2 {
                "skipped: 1 core"
            } else {
                mark(scales, "NOT SCALING")
            },
        );
        if best.as_ref().is_none_or(|b| e.speedup > b.speedup) {
            best = Some(e);
        }
        fast && scales
    });
    let best = best.expect("at least one round ran");
    print!("{}", server_warm::table(&best).render());
    let bar = format!(
        "warm >= {min_speedup}x cold and 2 sessions >= {MIN_SCALING}x 1 in one of {ROUNDS} \
         rounds; best speedup {:.1}x",
        best.speedup
    );
    if !verdict("server", pass, &bar) {
        return false;
    }

    let mut db = Database::new();
    tpox::generate(&mut db, &cfg);
    let config = ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        drift_threshold: 0.3,
        jobs,
        ..Default::default()
    };
    let handle = start(config, db).expect("loopback listener binds");
    let addr = handle.tcp_addr().expect("tcp listener is up").to_string();
    let mut conn = Conn::connect(&addr).expect("connect");
    let q_symbol = r#"collection('SDOC')/Security[Symbol = "SYM00001"]"#.to_string();
    let q_yield = r#"collection('SDOC')/Security[Yield > 4.5]"#.to_string();
    conn.request(&observe_line(&[q_symbol])).expect("observe");
    conn.request(&recommend_line()).expect("baseline recommend");
    let reply = conn
        .request(&observe_line(&[q_yield.clone(), q_yield.clone(), q_yield]))
        .expect("drifting observe");
    assert!(
        reply.contains(r#""readvised":true"#),
        "drift crossing did not re-advise: {reply}"
    );
    let journal = conn.request(r#"{"verb":"journal"}"#).expect("journal");
    let events = journal.matches("drift_detected").count();
    assert_eq!(events, 1, "expected one drift_detected event: {journal}");
    handle.shutdown();
    drop(conn);
    handle.join();
    println!("drift gate: PASS (one crossing, one drift_detected event)");
    true
}
