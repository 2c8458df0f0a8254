//! Release gate for the warm advisor service, meant for CI: exits
//! non-zero if the warm path stops paying for itself or stops being
//! correct.
//!
//! Four legs:
//!
//! * **Speedup**: E17 warm-vs-cold — the median repeat recommend on a
//!   live server must be at least `XIA_SERVER_GATE_MIN_SPEEDUP` (default
//!   2.5) times faster than a cold batch run of the same workload. The
//!   bar is derived from the measurement: at the tiny TPoX configuration
//!   a cold run is about 0.95 ms (0.2 ms to open the v3 image, the rest
//!   observe + prepare + benefit fan-out + search) against 0.24–0.37 ms
//!   warm (a search over the session's kept costs + wire), 2.6–3.9× over
//!   15 rounds with a median of 3.3×; 2.5 sits just under the slowest
//!   round. (While a warm recommend replayed a costing log through a
//!   fresh evaluator it took 0.5 ms, the ratio read 1.3–1.9× and the bar
//!   was 1.5×; while opening an image meant re-parsing it, 11× and 5×.)
//!   Timing is noisy on shared CI runners, so the gate retries a few
//!   rounds and fails only if every round misses a bar.
//! * **Scaling**: sessions read one snapshot without a lock, so two
//!   concurrent sessions must serve at least 1.4× the replies per second
//!   of one. Needs two cores; skipped, with a note, on a 1-core runner.
//! * **Identity**: a fast wrong answer must not pass — every round's
//!   warm recommendation (single-session and across concurrent sessions)
//!   must be byte-identical to the cold one. Identity failures are not
//!   retried; they are bugs, not noise.
//! * **Drift**: a drift-crossing observe stream triggers exactly one
//!   incremental re-recommendation, visible as exactly one
//!   `drift_detected` event in the session journal.
//!
//! The best round's numbers are written to `BENCH_server.json` so the
//! perf trajectory is tracked across PRs. `XIA_JOBS` sets the what-if
//! worker count on both paths.

use xia_bench::experiments::server_warm::{self, observe_line, recommend_line, Conn};
use xia_bench::write_bench_json;
use xia_server::{start, ServerConfig};
use xia_storage::Database;
use xia_workloads::tpox::{self, TpoxConfig};

const ROUNDS: usize = 5;
/// Least acceptable ratio of 2-session to 1-session throughput.
const MIN_SCALING: f64 = 1.4;

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let min_speedup: f64 = env_num("XIA_SERVER_GATE_MIN_SPEEDUP", 2.5);
    let jobs: usize = env_num("XIA_JOBS", 0);
    let jobs = (jobs > 0).then_some(jobs);
    let cfg = TpoxConfig::tiny();

    // Speedup, scaling and identity legs.
    let mut best: Option<server_warm::E17> = None;
    let mut pass = false;
    for round in 1..=ROUNDS {
        let e = server_warm::run(&cfg, 5, 12, jobs);
        assert!(
            e.identical,
            "warm recommendation diverged from the cold one (round {round})"
        );
        assert!(
            e.concurrent_identical,
            "a concurrent session's recommendation diverged from the cold one (round {round})"
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
            if fast { "ok" } else { "TOO SLOW" },
            e.scaling(2),
            match (scales, e.cores) {
                (_, 1) => "skipped: 1 core",
                (true, _) => "ok",
                (false, _) => "NOT SCALING",
            },
        );
        if best.as_ref().is_none_or(|b| e.speedup > b.speedup) {
            best = Some(e);
        }
        if fast && scales {
            pass = true;
            break;
        }
    }
    let best = best.expect("at least one round ran");
    print!("{}", server_warm::table(&best).render());
    if let Some(path) = write_bench_json("server", server_warm::bench_fields(&best)) {
        println!("wrote {}", path.display());
    }
    if !pass {
        eprintln!(
            "server gate: FAIL — no round of {ROUNDS} had both warm repeat recommend \
             {min_speedup}x faster than cold and 2-session throughput {MIN_SCALING}x \
             1-session (best speedup {:.1}x)",
            best.speedup
        );
        std::process::exit(1);
    }
    println!(
        "server gate: PASS (speedup {:.1}x >= {min_speedup}x)",
        best.speedup
    );

    // Drift leg: exactly one incremental re-advise per threshold crossing.
    let mut db = Database::new();
    tpox::generate(&mut db, &cfg);
    let handle = start(
        ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            drift_threshold: 0.3,
            jobs,
            ..Default::default()
        },
        db,
    )
    .expect("loopback listener binds");
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
    assert_eq!(
        events, 1,
        "expected exactly one drift_detected event, got {events}: {journal}"
    );
    handle.shutdown();
    drop(conn);
    handle.join();
    println!("drift gate: PASS (one crossing, one drift_detected event)");
}
