//! E17: warm advisor service vs cold batch advising.
//!
//! Cold: every recommend pays the full `xia recommend` pipeline — open
//! the persisted database image (verify it, decode its statistics),
//! candidate enumeration, generalization, sizing, and the what-if
//! benefit fan-out — with fresh caches, which is exactly what a
//! standalone invocation does. Warm: a live `xia-server` session keeps the prepared
//! candidate set and its costing state resident, so the 2nd..Nth
//! recommends search the costs the first one computed instead of
//! re-running the optimizer. The warm path is measured over a real TCP connection,
//! so protocol framing and JSON rendering are inside the measurement,
//! not excluded from it.
//!
//! The experiment reports three things: median cold latency, median warm
//! repeat-recommend latency (with the speedup between them), and how
//! throughput scales from 1 to 8 concurrent sessions — sessions read one
//! shared snapshot without a lock, so it should scale with the cores —
//! plus byte-identity checks proving that the fast path returns the
//! *same* recommendation as the cold one, for a single session and
//! across concurrent sessions.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use crate::report::{f, Table};
use xia_advisor::{AdvisorParams, SearchAlgorithm, TuningSession};
use xia_obs::json::Json;
use xia_server::{render_recommendation, start, ServerConfig};
use xia_storage::Database;
use xia_workloads::tpox::{self, TpoxConfig};

/// Index-size budget used by every recommend in this experiment (well
/// under the wire protocol's numeric cap).
pub const BUDGET: u64 = 1 << 40;

/// The search algorithm under test. Greedy isolates the cache effect the
/// experiment is about: the cold path's cost is dominated by preparation
/// plus the what-if benefit fan-out (exactly what the warm server keeps
/// resident), while the knapsack search the warm path must still run per
/// request stays small. The byte-identity checks hold for any algorithm.
pub const ALGO: SearchAlgorithm = SearchAlgorithm::GreedyHeuristics;

/// A blocking request/reply client over one TCP connection — one warm
/// session for as long as the connection lives. Shared by the E17
/// experiment, the `server_overhead_gate` bin, and the determinism suite.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to a server's TCP listener.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Small request/reply lines: Nagle + delayed-ACK would add ~40 ms
        // per direction to every exchange.
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line, reads one reply line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let stream = self.reader.get_mut();
        stream.write_all(format!("{line}\n").as_bytes())?;
        stream.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// Renders an `observe` request over the given statement texts.
pub fn observe_line(texts: &[String]) -> String {
    Json::Obj(vec![
        ("verb".into(), Json::Str("observe".into())),
        (
            "statements".into(),
            Json::Arr(texts.iter().map(|t| Json::Str(t.clone())).collect()),
        ),
    ])
    .render()
}

/// Renders a `recommend` request at the experiment's budget/algorithm.
pub fn recommend_line() -> String {
    Json::Obj(vec![
        ("verb".into(), Json::Str("recommend".into())),
        ("budget".into(), Json::Num(BUDGET as f64)),
        ("algo".into(), Json::Str(ALGO.name().into())),
    ])
    .render()
}

/// Concurrent-session counts of the throughput leg.
pub const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// E17 results.
#[derive(Debug, Clone)]
pub struct E17 {
    /// Median cold-path latency (full prepare + recommend), seconds.
    pub cold_secs: f64,
    /// Median warm-path repeat-recommend latency over TCP, seconds.
    pub warm_secs: f64,
    /// `cold_secs / warm_secs`.
    pub speedup: f64,
    /// Warm reply's recommendation is byte-identical to the cold one.
    pub identical: bool,
    /// Measurement rounds per leg.
    pub rounds: usize,
    /// Recommends issued per session in the throughput leg.
    pub recommends_per_session: usize,
    /// Cores the run had (`available_parallelism`); throughput cannot
    /// scale past them.
    pub cores: usize,
    /// `(sessions, median replies served per second)` for each of
    /// [`SESSION_COUNTS`].
    pub throughput: Vec<(usize, f64)>,
    /// Every concurrent session's final recommendation matched the cold
    /// one byte for byte.
    pub concurrent_identical: bool,
}

impl E17 {
    /// Throughput at `sessions` concurrent sessions over throughput at
    /// one.
    pub fn scaling(&self, sessions: usize) -> f64 {
        let rps = |n| {
            self.throughput
                .iter()
                .find(|&&(s, _)| s == n)
                .map_or(f64::NAN, |&(_, rps)| rps)
        };
        rps(sessions) / rps(1)
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Extracts the rendered `recommendation` object from a recommend reply.
fn recommendation_of(reply: &str) -> String {
    Json::parse(reply)
        .ok()
        .and_then(|v| v.get("recommendation").map(Json::render))
        .unwrap_or_else(|| format!("unparseable reply: {reply}"))
}

/// One throughput measurement: `sessions` new connections, each observing
/// the workload and issuing `recommends` recommends, all released
/// together once every connection is up. Returns replies per second and
/// each session's last reply.
fn throughput_round(
    addr: &str,
    texts: &[String],
    sessions: usize,
    recommends: usize,
) -> (f64, Vec<String>) {
    let start = Arc::new(Barrier::new(sessions + 1));
    let workers: Vec<_> = (0..sessions)
        .map(|_| {
            let (addr, observe) = (addr.to_string(), observe_line(texts));
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut c = Conn::connect(&addr).expect("connect concurrent session");
                start.wait();
                c.request(&observe).expect("observe");
                let mut last = String::new();
                for _ in 0..recommends {
                    last = c.request(&recommend_line()).expect("recommend");
                }
                last
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let finals: Vec<String> = workers
        .into_iter()
        .map(|w| w.join().expect("session thread"))
        .collect();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    ((sessions * (recommends + 1)) as f64 / secs, finals)
}

/// Runs E17 at the given TPoX scale: `rounds` timing rounds per leg,
/// the throughput leg at each of [`SESSION_COUNTS`] with every session
/// issuing `recommends_per_session` recommends. `jobs` overrides the
/// what-if worker count on both paths (`None` = advisor default).
pub fn run(
    cfg: &TpoxConfig,
    rounds: usize,
    recommends_per_session: usize,
    jobs: Option<usize>,
) -> E17 {
    let rounds = rounds.max(1);
    let recommends_per_session = recommends_per_session.max(1);
    let texts = tpox::queries(cfg);

    // Serialize the database once; both legs start from the same image.
    let mut db = Database::new();
    tpox::generate(&mut db, cfg);
    let mut image = Vec::new();
    xia_storage::persist::save_database_to(&db, &mut image).expect("serialize lab database");
    drop(db);

    // Cold leg: every round is a full `xia recommend` invocation — open
    // the database image, prepare, benefit fan-out, search —
    // with nothing carried over. This is the repeat-invocation model the
    // warm service replaces.
    let mut cold_times = Vec::with_capacity(rounds);
    let mut cold_json = String::new();
    for _ in 0..rounds {
        let t0 = Instant::now();
        let db = xia_storage::persist::load_database_from(&mut std::io::Cursor::new(&image))
            .expect("database image round-trips");
        let mut session = TuningSession::new();
        if let Some(j) = jobs {
            let params = AdvisorParams {
                jobs: j,
                ..Default::default()
            };
            session.set_params(params);
        }
        for t in &texts {
            session.observe(t).expect("generated TPoX queries parse");
        }
        let rec = session
            .recommend(&db, BUDGET, ALGO)
            .expect("TPoX workload recommends");
        cold_times.push(t0.elapsed().as_secs_f64());
        cold_json = render_recommendation(&rec).render();
    }

    // Warm leg: one live server, one connection; the first recommend pays
    // the preparation cost, rounds 2..N search what it kept.
    let server_db = xia_storage::persist::load_database_from(&mut std::io::Cursor::new(&image))
        .expect("database image round-trips");
    let config = ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        // Room for the largest leg plus the previous leg's connections,
        // whose threads may not have noticed their peers closing yet.
        max_connections: 4 * SESSION_COUNTS[SESSION_COUNTS.len() - 1],
        jobs,
        ..Default::default()
    };
    let handle = start(config, server_db).expect("loopback listener binds");
    let addr = handle.tcp_addr().expect("tcp listener is up").to_string();

    let mut conn = Conn::connect(&addr).expect("connect to warm server");
    conn.request(&observe_line(&texts)).expect("observe");
    conn.request(&recommend_line()).expect("first recommend");
    let mut warm_times = Vec::with_capacity(rounds);
    let mut warm_reply = String::new();
    for _ in 0..rounds {
        let t0 = Instant::now();
        warm_reply = conn.request(&recommend_line()).expect("warm recommend");
        warm_times.push(t0.elapsed().as_secs_f64());
    }
    let identical = recommendation_of(&warm_reply) == cold_json;

    // Throughput leg: concurrent sessions against the same warm server.
    let mut concurrent_identical = true;
    let throughput = SESSION_COUNTS
        .iter()
        .map(|&sessions| {
            let mut rps: Vec<f64> = (0..rounds)
                .map(|_| {
                    let (rps, finals) =
                        throughput_round(&addr, &texts, sessions, recommends_per_session);
                    concurrent_identical &=
                        finals.iter().all(|r| recommendation_of(r) == cold_json);
                    rps
                })
                .collect();
            (sessions, median(&mut rps))
        })
        .collect();

    handle.shutdown();
    drop(conn);
    handle.join();

    let cold_secs = median(&mut cold_times);
    let warm_secs = median(&mut warm_times).max(1e-9);
    E17 {
        cold_secs,
        warm_secs,
        speedup: cold_secs / warm_secs,
        identical,
        rounds,
        recommends_per_session,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        throughput,
        concurrent_identical,
    }
}

/// Renders the E17 results table.
pub fn table(e: &E17) -> Table {
    let yes_no = |b: bool| if b { "yes" } else { "NO" }.to_string();
    let mut t = Table::new(
        "E17: warm service vs cold batch (repeat recommend)",
        &["metric", "value"],
    );
    t.row(vec![
        "cold recommend (ms, median)".into(),
        f(e.cold_secs * 1e3),
    ]);
    t.row(vec![
        "warm recommend (ms, median)".into(),
        f(e.warm_secs * 1e3),
    ]);
    t.row(vec!["warm speedup (x)".into(), f(e.speedup)]);
    t.row(vec!["byte-identical".into(), yes_no(e.identical)]);
    t.row(vec![
        "recommends/session".into(),
        e.recommends_per_session.to_string(),
    ]);
    t.row(vec!["cores".into(), e.cores.to_string()]);
    for &(sessions, rps) in &e.throughput {
        t.row(vec![
            format!("throughput at {sessions} sessions (replies/s)"),
            f(rps),
        ]);
    }
    t.row(vec![
        "throughput 2 vs 1 sessions (x)".into(),
        f(e.scaling(2)),
    ]);
    t.row(vec![
        "concurrent byte-identical".into(),
        yes_no(e.concurrent_identical),
    ]);
    t
}

/// The machine-readable fields for `BENCH_server.json`.
pub fn bench_fields(e: &E17) -> Vec<(String, Json)> {
    vec![
        ("experiment".into(), Json::Str("E17_server_warm".into())),
        ("cold_ms".into(), Json::Num(e.cold_secs * 1e3)),
        ("warm_ms".into(), Json::Num(e.warm_secs * 1e3)),
        ("speedup".into(), Json::Num(e.speedup)),
        ("identical".into(), Json::Bool(e.identical)),
        ("rounds".into(), Json::Num(e.rounds as f64)),
        (
            "recommends_per_session".into(),
            Json::Num(e.recommends_per_session as f64),
        ),
        ("cores".into(), Json::Num(e.cores as f64)),
        (
            "throughput".into(),
            Json::Arr(
                e.throughput
                    .iter()
                    .map(|&(sessions, rps)| {
                        Json::Obj(vec![
                            ("sessions".into(), Json::Num(sessions as f64)),
                            ("rps".into(), Json::Num(rps)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "concurrent_identical".into(),
            Json::Bool(e.concurrent_identical),
        ),
    ]
}
