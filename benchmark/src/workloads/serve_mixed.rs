//! `serve-mixed`: two tuning clients against one warm `xia-server`.
//!
//! The workload that uses the advisor layer differently: writes
//! (`observe` extends a session's prepared candidates, `reset` discards
//! them) beside reads (`recommend` replays warm costs, `stats`), from two
//! concurrent sessions over TCP against one `Mutex<Database>`. One op is a
//! whole tuning round on one connection, so the latency distribution is
//! one mode and not a mix of 0.1 ms and 6 ms verbs.

use super::{advisor_params, parse_workload, Quality, Scenario, Timed};
use crate::inputs;
use crate::trace::Tracer;
use crate::verify::{self, ExecTotals, IndexSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use xia_advisor::{Advisor, SearchAlgorithm};
use xia_obs::json::Json;
use xia_server::protocol::ok_reply;
use xia_server::{parse_request, Request, ServerConfig, ServerHandle, ServerSession};
use xia_server::{SessionOptions, WireError};
use xia_storage::Database;

/// The workload's name.
pub const NAME: &str = "serve-mixed";
/// Concurrent client connections, one thread each: the box's two cores.
pub const CLIENTS: usize = 2;
/// Statement streams per client; episodes rotate over them.
const STREAMS: usize = 10;
/// Tuning rounds per episode; the last one ends with `reset`.
pub const ROUNDS: usize = 6;
/// Statements observed in an episode's first round: the 11 TPoX queries
/// and 29 synthetic ones.
const FIRST_OBSERVE: usize = 40;
/// Synthetic statements observed in every later round.
const LATER_OBSERVE: usize = 8;
const STATEMENTS: usize = FIRST_OBSERVE + (ROUNDS - 1) * LATER_OBSERVE;
/// Untimed episodes on one connection that end set-up: client 0's
/// streams twice over.
const WARMUP_EPISODES: usize = 2 * STREAMS;
/// The four recommends of a round: algorithm, and the divisor of the
/// stream's All-Index size that gives the budget.
const RECOMMENDS: [(SearchAlgorithm, u64); 4] = [
    (SearchAlgorithm::GreedyHeuristics, 1),
    (SearchAlgorithm::TopDownLite, 2),
    (SearchAlgorithm::Greedy, 3),
    (SearchAlgorithm::GreedyHeuristics, 4),
];

/// One request line, the span it is traced under, and (for recommends,
/// whose replies must repeat byte for byte) the first reply seen.
struct WireRequest {
    line: String,
    span: &'static str,
    first_reply: Option<String>,
}

impl WireRequest {
    fn new(span: &'static str, fields: Vec<(String, Json)>) -> Self {
        Self {
            line: Json::Obj(fields).render(),
            span,
            first_reply: None,
        }
    }

    fn is_recommend(&self) -> bool {
        self.span.starts_with("server.recommend")
    }

    fn verb(span: &'static str, verb: &str) -> Self {
        Self::new(span, vec![("verb".into(), Json::Str(verb.into()))])
    }
}

/// One episode: six rounds of pre-rendered request lines over one
/// statement stream. A `reset` ends it, so every repetition of an episode
/// is the same pure function of its requests.
pub struct Episode {
    statements: Vec<String>,
    rounds: Vec<Vec<WireRequest>>,
}

impl Episode {
    fn new(db: &mut Database, seed: u64, stream: u64) -> Self {
        let statements = inputs::mixed_statements(db, seed, stream, STATEMENTS - 11, false);
        let set = Advisor::prepare(db, &parse_workload(&statements), &advisor_params());
        let all_index_size = set.config_size(&Advisor::all_index_config(&set));
        let rounds = (0..ROUNDS)
            .map(|round| {
                let observed = if round == 0 {
                    &statements[..FIRST_OBSERVE]
                } else {
                    let from = FIRST_OBSERVE + (round - 1) * LATER_OBSERVE;
                    &statements[from..from + LATER_OBSERVE]
                };
                let mut requests = vec![WireRequest::new(
                    "server.observe",
                    vec![
                        ("verb".into(), Json::Str("observe".into())),
                        (
                            "statements".into(),
                            Json::Arr(observed.iter().cloned().map(Json::Str).collect()),
                        ),
                    ],
                )];
                for (i, (algorithm, divisor)) in RECOMMENDS.iter().enumerate() {
                    let span = if round == 0 && i == 0 {
                        "server.recommend-first"
                    } else {
                        "server.recommend-warm"
                    };
                    requests.push(WireRequest::new(
                        span,
                        vec![
                            ("verb".into(), Json::Str("recommend".into())),
                            (
                                "budget".into(),
                                Json::Num((all_index_size / divisor) as f64),
                            ),
                            ("algo".into(), Json::Str(algorithm.name().into())),
                        ],
                    ));
                }
                requests.push(WireRequest::verb("server.stats", "stats"));
                if round == ROUNDS - 1 {
                    requests.push(WireRequest::verb("server.reset", "reset"));
                }
                requests
            })
            .collect();
        Self { statements, rounds }
    }

    /// Every request line, in sending order.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.rounds.iter().flatten().map(|r| r.line.as_str())
    }

    /// Request lines grouped by round.
    pub fn round_lines(&self) -> impl Iterator<Item = Vec<&str>> {
        self.rounds
            .iter()
            .map(|round| round.iter().map(|r| r.line.as_str()).collect())
    }

    /// The statement texts the episode observes.
    pub fn statements(&self) -> &[String] {
        &self.statements
    }

    /// The episode's last recommend, whose reply is its final answer.
    fn final_recommend(&self) -> &WireRequest {
        &self.rounds[ROUNDS - 1][RECOMMENDS.len()]
    }
}

/// A blocking request/reply client: one connection, one warm session.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Small lines both ways: Nagle plus delayed ACK would add 40 ms.
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<String> {
        let stream = self.reader.get_mut();
        stream.write_all(format!("{line}\n").as_bytes())?;
        stream.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// Runs `f` inside a span when tracing, bare when not.
fn maybe_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, |t| f(&mut Some(t))),
        None => f(&mut None),
    }
}

/// What one client thread brings back.
struct ClientRun {
    timed: Timed,
    /// The stream of the last recommend answered, and the reply. After a
    /// whole episode that is the episode's final answer.
    final_reply: Option<(usize, String)>,
}

/// One client: `episodes` episodes on one connection, a round per op.
fn run_client(
    addr: &str,
    client: usize,
    streams: &mut [Episode],
    episodes: usize,
    cap: Duration,
    start: &Barrier,
    mut tracer: Option<&mut Tracer>,
) -> ClientRun {
    let mut run = ClientRun {
        timed: Timed::default(),
        final_reply: None,
    };
    let mut conn = Conn::connect(addr);
    start.wait();
    let began = Instant::now();
    let Ok(conn) = conn.as_mut() else {
        run.timed.failed = (episodes * ROUNDS) as u64;
        return run;
    };
    for e in 0..episodes {
        if began.elapsed() > cap {
            break;
        }
        let stream = e % STREAMS;
        let episode = &mut streams[stream];
        for (r, round) in episode.rounds.iter_mut().enumerate() {
            if let Some(t) = tracer.as_deref_mut() {
                t.set_op(((client * 1_000_000 + e) * ROUNDS + r) as u64);
            }
            run.timed.record(|| {
                maybe_span(&mut tracer, "driver.round", |tracer| {
                    let mut ok = true;
                    for request in round.iter_mut() {
                        let reply =
                            maybe_span(tracer, request.span, |_| conn.request(&request.line));
                        let Ok(reply) = reply else {
                            return false;
                        };
                        ok &= reply.starts_with(r#"{"ok":true"#);
                        if request.is_recommend() {
                            ok &=
                                *request.first_reply.get_or_insert_with(|| reply.clone()) == reply;
                            run.final_reply = Some((stream, reply));
                        }
                    }
                    ok
                })
            });
        }
    }
    run
}

/// Answers one request line on an in-process session, as the server's
/// dispatch does but with no socket and no lock.
pub fn answer(session: &mut ServerSession, db: &mut Database, line: &str) -> String {
    let reply = match parse_request(line) {
        Err(e) => Err(e),
        Ok(Request::Observe { statements }) => session.observe(db, &statements),
        Ok(Request::Recommend { budget, algorithm }) => {
            session.recommend_reply(db, budget, algorithm)
        }
        Ok(Request::Stats) => Ok(ok_reply(vec![("session".into(), session.stats_json())])),
        Ok(Request::Reset) => Ok(session.reset_reply()),
        Ok(other) => Err(WireError::usage(format!(
            "{other:?} is not part of a round"
        ))),
    };
    reply.unwrap_or_else(|e| e.render())
}

/// A session configured as the benchmark's server configures its own.
pub fn new_session() -> ServerSession {
    ServerSession::new(&SessionOptions {
        jobs: Some(1),
        ..SessionOptions::default()
    })
}

/// State of one run.
pub struct ServeMixed {
    seed: u64,
    /// `None` once stopped.
    server: Option<ServerHandle>,
    addr: String,
    /// `[client][stream]`.
    episodes: Vec<Vec<Episode>>,
    /// Client 0's last episode: its stream, and the server's final answer.
    final_reply: Option<(usize, String)>,
    requests_sent: u64,
    violations: Vec<String>,
}

impl ServeMixed {
    /// Runs episodes `0..episodes` on each of `clients` connections at
    /// once. Spans go to `tracer` when one is given.
    pub fn run_clients(
        &mut self,
        clients: usize,
        episodes: usize,
        cap: Duration,
        tracer: Option<&mut Tracer>,
    ) -> Timed {
        let start = Barrier::new(clients + 1);
        let epoch = tracer.as_ref().map(|t| t.epoch());
        let addr = self.addr.as_str();
        let (began, runs) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .episodes
                .iter_mut()
                .take(clients)
                .enumerate()
                .map(|(client, streams)| {
                    let start = &start;
                    scope.spawn(move || {
                        let mut own = epoch.map(Tracer::new);
                        let run =
                            run_client(addr, client, streams, episodes, cap, start, own.as_mut());
                        (run, own)
                    })
                })
                .collect();
            start.wait();
            let began = Instant::now();
            let runs: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            (began, runs)
        });
        let mut timed = Timed {
            wall_s: began.elapsed().as_secs_f64(),
            ..Timed::default()
        };
        let mut tracer = tracer;
        for (client, (run, own)) in runs.into_iter().enumerate() {
            timed.latencies_ms.extend(run.timed.latencies_ms);
            timed.failed += run.timed.failed;
            if client == 0 {
                self.final_reply = run.final_reply.or(self.final_reply.take());
            }
            if let (Some(t), Some(own)) = (tracer.as_deref_mut(), own) {
                t.absorb(own);
            }
        }
        let per_episode: usize = self.episodes[0][0].rounds.iter().map(Vec::len).sum();
        self.requests_sent += (timed.latencies_ms.len() / ROUNDS * per_episode) as u64;
        timed
    }

    /// Requests sent by every [`ServeMixed::run_clients`] so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// One of client 0's episodes.
    pub fn episode(&self, stream: usize) -> &Episode {
        &self.episodes[0][stream % STREAMS]
    }

    /// Stops the server and waits for its threads; a no-op the second
    /// time. A handle that is merely dropped leaves them running.
    fn stop_server(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }

    /// The server's `(error replies, rejected connections)` counters.
    pub fn server_counters(&self) -> (u64, u64) {
        let get = |name| {
            let counters = self.server.as_ref().map(ServerHandle::counters);
            counters
                .iter()
                .flatten()
                .find(|(n, _)| *n == name)
                .map_or(0, |c| c.1)
        };
        (get("errors"), get("rejected"))
    }
}

impl Scenario for ServeMixed {
    const NAME: &'static str = NAME;
    /// 290 episodes of 6 rounds on each client in 30 s.
    const UNITS_PER_SECOND: f64 = 290.0 / 30.0;
    const ALGORITHM: SearchAlgorithm = RECOMMENDS[0].0;
    const STAGES_MUST_ADD_UP: bool = false;

    fn setup(seed: u64) -> Self {
        let mut db = inputs::build_db(seed);
        let episodes = (0..CLIENTS)
            .map(|client| {
                (0..STREAMS)
                    .map(|k| Episode::new(&mut db, seed, (client * STREAMS + k) as u64))
                    .collect()
            })
            .collect();
        let server = xia_server::start(
            ServerConfig {
                tcp: Some("127.0.0.1:0".into()),
                jobs: Some(1),
                prewarm: true,
                ..ServerConfig::default()
            },
            db,
        )
        .expect("a loopback listener binds");
        let addr = server
            .tcp_addr()
            .expect("the TCP listener is up")
            .to_string();
        let mut state = Self {
            seed,
            server: Some(server),
            addr,
            episodes,
            final_reply: None,
            requests_sent: 0,
            violations: Vec::new(),
        };
        let warmup = state.run_clients(1, WARMUP_EPISODES, Duration::MAX, None);
        if warmup.failed > 0 {
            state.violations.push(format!(
                "{} warm-up rounds failed their checks",
                warmup.failed
            ));
        }
        state
    }

    fn timed(&mut self, units: usize, cap: Duration) -> Timed {
        self.run_clients(CLIENTS, units, cap, None)
    }

    fn staged(&mut self, units: usize, tracer: &mut Tracer) -> Timed {
        self.run_clients(CLIENTS, units, Duration::MAX, Some(tracer))
    }

    fn probe_statements(&self) -> Vec<String> {
        self.episodes[0][0].statements.clone()
    }

    fn finish(mut self) -> Quality {
        let (errors, rejected) = self.server_counters();
        if errors + rejected > 0 {
            self.violations.push(format!(
                "server counted {errors} error replies and {rejected} rejected connections"
            ));
        }
        self.stop_server();

        // Every episode ends with `reset`, so the server's last answer to
        // client 0 must equal a fresh in-process session fed the same
        // episode, whatever the other client did meanwhile.
        let mut db = inputs::build_db(self.seed);
        let replayed = self.final_reply.as_ref().map(|(stream, _)| {
            let last = &self.episodes[0][*stream];
            let mut session = new_session();
            let replies: Vec<String> = last
                .lines()
                .map(|line| answer(&mut session, &mut db, line))
                .collect();
            // The final recommend is followed by `stats` and `reset`.
            (*stream, replies[replies.len() - 3].clone())
        });
        if replayed.is_none() || replayed != self.final_reply {
            self.violations
                .push("client 0's final recommendation differs from the in-process replay".into());
        }

        let mut exec = ExecTotals::default();
        let mut speedups = Vec::new();
        for episode in self.episodes.iter().flatten() {
            let Some(reply) = &episode.final_recommend().first_reply else {
                continue; // only a quick run leaves a stream unvisited
            };
            match final_recommendation(reply) {
                Ok((speedup, specs)) => {
                    speedups.push(speedup);
                    let workload = parse_workload(&episode.statements);
                    verify::execute_both_ways(
                        &mut db,
                        &workload,
                        verify::SAMPLE,
                        &specs,
                        &mut exec,
                    );
                }
                Err(e) => self.violations.push(e),
            }
        }
        Quality {
            est_speedup: speedups.iter().sum::<f64>() / speedups.len() as f64,
            exec,
            violations: std::mem::take(&mut self.violations),
        }
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.stop_server();
    }
}

/// Estimated speedup and index list of a recommend reply.
fn final_recommendation(reply: &str) -> Result<(f64, Vec<IndexSpec>), String> {
    let bad = || format!("unexpected recommend reply: {reply}");
    let parsed = Json::parse(reply).map_err(|_| bad())?;
    let rec = parsed.get("recommendation").ok_or_else(bad)?;
    let complete = rec.get("complete") == Some(&Json::Bool(true))
        && rec.get("degraded") == Some(&Json::Bool(false));
    let speedup = rec
        .get("speedup")
        .and_then(Json::as_num)
        .filter(|_| complete);
    let specs = rec
        .get("indexes")
        .and_then(Json::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(|ix| {
            let field = |f| ix.get(f).and_then(Json::as_str).ok_or_else(bad);
            verify::index_spec(field("collection")?, field("pattern")?, field("kind")?)
        })
        .collect::<Result<_, _>>()?;
    Ok((speedup.ok_or_else(bad)?, specs))
}
