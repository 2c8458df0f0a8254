//! The daemon: listeners, admission control, and the connection loop.
//!
//! One [`Server`] publishes one immutable [`Database`] snapshot, warm
//! across requests and connections. Each accepted connection gets its own
//! OS thread and its own [`ServerSession`]; a request reads the snapshot
//! through a plain shared reference with no lock, so sessions run in
//! parallel, one core each, while each session's caches stay private.
//!
//! Listeners are non-blocking and polled, so `shutdown` (the wire verb or
//! [`ServerHandle::shutdown`]) stops the accept loop promptly; connection
//! reads use a short timeout and re-check the stop flag, so connection
//! threads drain within one poll interval.
//!
//! **Determinism under sharing.** No verb writes the database, and an
//! injected `stats-unavailable` fault reaches the advisor through a
//! per-phase [`xia_storage::StatsView`] private to the request, so no
//! session can leave anything behind for another: every reply is a
//! function of the snapshot and the session's own request stream.
//!
//! The one exception is by design: `metrics` answers for the whole server
//! (per-verb latency histograms, connection gauges, each live session's
//! kept-cost gauges), so its reply carries wall-clock values and what
//! other connections did. Nothing it reports appears in any other reply.

use crate::protocol::{ok_reply, parse_request, Request, WireError, MAX_LINE_BYTES, VERBS};
use crate::session::{CostingGauges, ServerSession, SessionOptions};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xia_advisor::Advisor;
use xia_fault::FaultInjector;
use xia_obs::json::Json;
use xia_obs::{hist_summary_to_json, LatencyHistogram, Telemetry};
use xia_storage::Database;

/// How long a connection read waits before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long the accept loop sleeps when no listener had a connection.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address, e.g. `127.0.0.1:0` (`None` = no TCP listener).
    pub tcp: Option<String>,
    /// Unix-domain socket path (`None` = no unix listener; unix only).
    pub socket: Option<PathBuf>,
    /// Admission cap: connections beyond this get a `busy` error reply
    /// and are closed.
    pub max_connections: usize,
    /// Total-variation drift that triggers an incremental re-advise.
    pub drift_threshold: f64,
    /// Per-run what-if optimizer-call budget (0 = unlimited).
    pub what_if_budget: u64,
    /// What-if worker threads per request (`None` = advisor default).
    pub jobs: Option<usize>,
    /// Fault-injection specs (`site:rate`), applied per session.
    pub fault_specs: Vec<String>,
    /// Seed for the per-session fault streams.
    pub fault_seed: u64,
    /// Inert: [`start`] always freshens the database before publishing
    /// it. Kept so `ServerConfig { prewarm, .. }` literals still build.
    pub prewarm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tcp: None,
            socket: None,
            max_connections: 8,
            drift_threshold: 0.25,
            what_if_budget: 0,
            jobs: None,
            fault_specs: Vec::new(),
            fault_seed: 0,
            prewarm: true,
        }
    }
}

/// Server-level counters (plain atomics; session-level determinism lives
/// in [`ServerSession::stats_json`], these are operational gauges).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted (including rejected ones).
    pub connections: AtomicU64,
    /// Connections rejected by the admission cap.
    pub rejected: AtomicU64,
    /// Request lines parsed (valid or not).
    pub requests: AtomicU64,
    /// Error replies written.
    pub errors: AtomicU64,
}

/// The histogram row of request lines that named no verb the server
/// knows (malformed JSON, wrong shape, unknown verb).
const INVALID_VERB: &str = "invalid";

/// What the `metrics` verb reports beyond the plain counters: wall-clock
/// and cross-session values, kept apart from everything a deterministic
/// reply is rendered from.
struct Metrics {
    /// Request latency per verb (line framed → reply written), [`VERBS`]
    /// order then [`INVALID_VERB`]; a histogram's count is the verb's
    /// request count.
    verbs: Vec<(&'static str, LatencyHistogram)>,
    /// Kept-cost gauges of every live session, by connection number.
    sessions: BTreeMap<u64, CostingGauges>,
    /// Finished connection threads whose handles were reaped.
    reaped: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            verbs: VERBS
                .iter()
                .chain([&INVALID_VERB])
                .map(|&v| (v, LatencyHistogram::new()))
                .collect(),
            sessions: BTreeMap::new(),
            reaped: 0,
        }
    }
}

struct Shared {
    /// The published snapshot; connections only ever read it.
    db: Arc<Database>,
    config: ServerConfig,
    stop: AtomicBool,
    active: AtomicUsize,
    counters: ServerCounters,
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// One short critical section per request, after its reply is written.
    metrics: Mutex<Metrics>,
}

impl Shared {
    fn stats_json(&self) -> Json {
        Json::Obj(vec![
            (
                "connections".into(),
                Json::Num(self.counters.connections.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected".into(),
                Json::Num(self.counters.rejected.load(Ordering::Relaxed) as f64),
            ),
            (
                "requests".into(),
                Json::Num(self.counters.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "errors".into(),
                Json::Num(self.counters.errors.load(Ordering::Relaxed) as f64),
            ),
            (
                "active".into(),
                Json::Num(self.active.load(Ordering::Relaxed) as f64),
            ),
            (
                "max_connections".into(),
                Json::Num(self.config.max_connections as f64),
            ),
        ])
    }

    fn metrics(&self) -> std::sync::MutexGuard<'_, Metrics> {
        self.metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Books one answered request: its latency under its verb, and the
    /// session's gauges as the request left them.
    fn record_request(&self, verb: &str, elapsed: Duration, conn: u64, gauges: CostingGauges) {
        let mut m = self.metrics();
        if let Some((_, hist)) = m.verbs.iter_mut().find(|(v, _)| *v == verb) {
            hist.record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        m.sessions.insert(conn, gauges);
    }

    /// The `metrics` reply body.
    fn metrics_json(&self) -> Json {
        let load = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        let m = self.metrics();
        let verbs = (m.verbs.iter())
            .filter(|(_, hist)| hist.count() > 0)
            .map(|(verb, hist)| (verb.to_string(), hist_summary_to_json(&hist.summary())))
            .collect();
        let sessions = (m.sessions.iter())
            .map(|(conn, g)| {
                let ratio = if g.asked == 0 {
                    0.0
                } else {
                    g.served as f64 / g.asked as f64
                };
                Json::Obj(vec![
                    ("connection".into(), Json::Num(*conn as f64)),
                    ("retained_costings".into(), Json::Num(g.retained as f64)),
                    ("costings_asked".into(), Json::Num(g.asked as f64)),
                    ("costings_served".into(), Json::Num(g.served as f64)),
                    ("hit_ratio".into(), Json::Num(ratio)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("verbs".into(), Json::Obj(verbs)),
            (
                "connections".into(),
                Json::Obj(vec![
                    (
                        "live".into(),
                        Json::Num(self.active.load(Ordering::Relaxed) as f64),
                    ),
                    ("accepted".into(), load(&self.counters.connections)),
                    ("rejected".into(), load(&self.counters.rejected)),
                    ("reaped".into(), Json::Num(m.reaped as f64)),
                ]),
            ),
            ("sessions".into(), Json::Arr(sessions)),
        ])
    }
}

/// Handle to a running server: bound addresses, shutdown, join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    socket_path: Option<PathBuf>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (with the real port when `:0` was asked).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The unix socket path, if listening on one.
    pub fn socket_path(&self) -> Option<&Path> {
        self.socket_path.as_deref()
    }

    /// Asks the server to stop; returns immediately.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Whether the server has been asked to stop.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Server-level counter snapshot, in declaration order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let c = &self.shared.counters;
        vec![
            ("connections", c.connections.load(Ordering::Relaxed)),
            ("rejected", c.rejected.load(Ordering::Relaxed)),
            ("requests", c.requests.load(Ordering::Relaxed)),
            ("errors", c.errors.load(Ordering::Relaxed)),
        ]
    }

    /// Waits for the accept loop and every connection thread to finish.
    /// Call [`ServerHandle::shutdown`] first (or send the `shutdown`
    /// verb) or this blocks until a client stops the server.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles = match self.shared.conns.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// [`ServerHandle::shutdown`] + [`ServerHandle::join`].
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

/// Starts the server on the configured listeners (at least one of `tcp` /
/// `socket` must be set) and returns a handle. The accept loop runs on a
/// background thread; this returns as soon as the listeners are bound, so
/// clients can connect immediately.
pub fn start(config: ServerConfig, mut db: Database) -> io::Result<ServerHandle> {
    if config.tcp.is_none() && config.socket.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "server needs a TCP address or a unix socket path",
        ));
    }
    // Sessions only read the snapshot, so stale statistics and leftover
    // virtual indexes are fixed up here, before it is published.
    Advisor::freshen(&mut db, &Telemetry::off());
    let tcp = match &config.tcp {
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let tcp_addr = match &tcp {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    #[cfg(unix)]
    let unix = match &config.socket {
        Some(path) => {
            // A stale socket file from a dead server blocks rebinding.
            let _ = std::fs::remove_file(path);
            let l = std::os::unix::net::UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    #[cfg(not(unix))]
    if config.socket.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        ));
    }
    let socket_path = config.socket.clone();
    let shared = Arc::new(Shared {
        db: Arc::new(db),
        config,
        stop: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        counters: ServerCounters::default(),
        conns: Mutex::new(Vec::new()),
        metrics: Mutex::default(),
    });

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("xia-accept".into())
        .spawn(move || {
            accept_loop(
                &accept_shared,
                tcp,
                #[cfg(unix)]
                unix,
            )
        })?;

    Ok(ServerHandle {
        shared,
        tcp_addr,
        socket_path,
        accept: Some(accept),
    })
}

fn accept_loop(
    shared: &Arc<Shared>,
    tcp: Option<TcpListener>,
    #[cfg(unix)] unix: Option<std::os::unix::net::UnixListener>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        let mut accepted = false;
        if let Some(l) = &tcp {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    admit(shared, stream, |s| {
                        s.set_nonblocking(false)?;
                        s.set_nodelay(true)?;
                        s.set_read_timeout(Some(READ_POLL))
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        #[cfg(unix)]
        if let Some(l) = &unix {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    admit(shared, stream, |s| {
                        s.set_nonblocking(false)?;
                        s.set_read_timeout(Some(READ_POLL))
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        if !accepted {
            std::thread::sleep(ACCEPT_POLL);
        }
    }
}

/// Admission control: under the cap, spawn a connection thread; over it,
/// write one `busy` error reply and close.
fn admit<S>(shared: &Arc<Shared>, mut stream: S, configure: impl Fn(&S) -> io::Result<()>)
where
    S: Read + Write + Send + 'static,
{
    let conn = shared.counters.connections.fetch_add(1, Ordering::Relaxed) + 1;
    if configure(&stream).is_err() {
        return;
    }
    // Reserve a slot; back out if that oversubscribed the cap. The
    // fetch_add/compare makes the cap exact under concurrent accepts.
    let prev = shared.active.fetch_add(1, Ordering::SeqCst);
    if prev >= shared.config.max_connections {
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        let busy = WireError::busy(format!(
            "server at its connection cap ({})",
            shared.config.max_connections
        ));
        let _ = write_line(&mut stream, &busy.render());
        return;
    }
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("xia-conn".into())
        .spawn(move || {
            conn_loop(&conn_shared, conn, stream);
            conn_shared.metrics().sessions.remove(&conn);
            conn_shared.active.fetch_sub(1, Ordering::SeqCst);
        });
    match spawned {
        Ok(handle) => {
            if let Ok(mut conns) = shared.conns.lock() {
                // Reap connections that already ended, so a long-lived
                // daemon holds one handle per live connection, not one
                // per connection ever accepted.
                let held = conns.len();
                conns.retain(|h| !h.is_finished());
                shared.metrics().reaped += (held - conns.len()) as u64;
                conns.push(handle);
            }
        }
        Err(_) => {
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn write_line<S: Write>(stream: &mut S, line: &str) -> io::Result<()> {
    // One write per reply: a payload write followed by a separate newline
    // write trips Nagle + delayed-ACK stalls (~40 ms) on TCP.
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    stream.write_all(&framed)?;
    stream.flush()
}

/// Byte-capped, stop-aware line reader. Keeps leftover bytes between
/// calls so pipelined requests in one TCP segment all surface.
#[derive(Default)]
struct LineReader {
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched and free of newlines, so
    /// each chunk is searched once however many reads a line takes.
    scanned: usize,
    /// Bytes searched for a newline so far.
    #[cfg(test)]
    compared: usize,
}

impl LineReader {
    /// `Ok(None)` on EOF or server stop; `Ok(Some(Err(..)))` on an
    /// oversized or non-UTF-8 line (protocol error — the caller replies
    /// and closes); `Err` on a fatal transport error.
    fn next_line<S: Read>(
        &mut self,
        stream: &mut S,
        stop: &AtomicBool,
    ) -> io::Result<Option<Result<String, WireError>>> {
        loop {
            let found = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            #[cfg(test)]
            (self.compared += found.map_or(self.buf.len() - self.scanned, |off| off + 1));
            if let Some(off) = found {
                let pos = self.scanned + off;
                self.scanned = 0;
                if pos > MAX_LINE_BYTES {
                    return Ok(Some(Err(WireError::input(format!(
                        "request line exceeds {MAX_LINE_BYTES} bytes"
                    )))));
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(
                    String::from_utf8(line)
                        .map_err(|_| WireError::input("request line is not valid UTF-8")),
                ));
            }
            self.scanned = self.buf.len();
            // No newline yet: bound the buffer so a client cannot stream
            // an endless line into memory.
            if self.buf.len() > MAX_LINE_BYTES {
                return Ok(Some(Err(WireError::input(format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes"
                )))));
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn conn_loop<S: Read + Write>(shared: &Arc<Shared>, conn: u64, mut stream: S) {
    let faults = build_faults(&shared.config);
    let opts = SessionOptions {
        drift_threshold: shared.config.drift_threshold,
        what_if_budget: shared.config.what_if_budget,
        jobs: shared.config.jobs,
        faults,
    };
    let mut session = ServerSession::new(&opts);
    shared
        .metrics()
        .sessions
        .insert(conn, session.costing_gauges());
    let mut reader = LineReader::default();
    loop {
        let line = match reader.next_line(&mut stream, &shared.stop) {
            Ok(Some(Ok(line))) => line,
            Ok(Some(Err(protocol_err))) => {
                // Framing is lost (oversized/undecodable line): reply,
                // then close the connection.
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(&mut stream, &protocol_err.render());
                return;
            }
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let framed = Instant::now();
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let parsed = parse_request(&line);
        let verb = parsed.as_ref().map_or(INVALID_VERB, Request::verb);
        let outcome = match parsed {
            Ok(Request::Shutdown) => {
                let _ = write_line(
                    &mut stream,
                    &ok_reply(vec![("stopping".into(), Json::Bool(true))]),
                );
                shared.stop.store(true, Ordering::SeqCst);
                return;
            }
            parsed => parsed.and_then(|req| dispatch(&mut session, &shared.db, &req, shared)),
        };
        // The line framed correctly, so an error reply — malformed request
        // or failed verb — does not cost the client its connection.
        let reply = outcome.unwrap_or_else(|e| {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            e.render()
        });
        let written = write_line(&mut stream, &reply);
        shared.record_request(verb, framed.elapsed(), conn, session.costing_gauges());
        if written.is_err() {
            return;
        }
    }
}

fn dispatch(
    session: &mut ServerSession,
    db: &Database,
    req: &Request,
    shared: &Shared,
) -> Result<String, WireError> {
    match req {
        Request::Hello => Ok(session.hello_reply()),
        Request::Ping => Ok(session.ping_reply()),
        Request::Observe { statements } => session.observe(db, statements),
        Request::Recommend { budget, algorithm } => {
            session.recommend_reply(db, *budget, *algorithm)
        }
        Request::Stats => Ok(ok_reply(vec![
            ("session".into(), session.stats_json()),
            ("server".into(), shared.stats_json()),
        ])),
        Request::Journal => Ok(session.journal_reply()),
        Request::Reset => Ok(session.reset_reply()),
        Request::Metrics => Ok(ok_reply(vec![("metrics".into(), shared.metrics_json())])),
        // Handled by the connection loop before dispatch.
        Request::Shutdown => Ok(ok_reply(vec![("stopping".into(), Json::Bool(true))])),
    }
}

/// Each session derives its fault injector from the same seed and specs,
/// so a session's injection sequence depends only on its own operations —
/// never on how connections interleave.
fn build_faults(config: &ServerConfig) -> FaultInjector {
    if config.fault_specs.is_empty() {
        return FaultInjector::off();
    }
    let mut f = FaultInjector::seeded(config.fault_seed);
    for spec in &config.fault_specs {
        match f.with_spec(spec) {
            Ok(armed) => f = armed,
            Err(_) => return FaultInjector::off(),
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpStream;

    fn tpox_db() -> Database {
        let mut db = Database::new();
        xia_workloads::tpox::generate(&mut db, &xia_workloads::tpox::TpoxConfig::tiny());
        db
    }

    fn connect(handle: &ServerHandle) -> TcpStream {
        let addr = handle.tcp_addr().expect("tcp listener");
        TcpStream::connect(addr).expect("connect")
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        let mut s = stream.try_clone().expect("clone");
        write_line(&mut s, line).expect("write");
        let mut reader = std::io::BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    }

    fn start_tcp(config: ServerConfig) -> ServerHandle {
        let config = ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..config
        };
        start(config, tpox_db()).expect("start")
    }

    #[test]
    fn ping_hello_shutdown_over_tcp() {
        let handle = start_tcp(ServerConfig::default());
        let mut c = connect(&handle);
        let pong = roundtrip(&mut c, r#"{"verb":"ping"}"#);
        assert_eq!(pong, r#"{"ok":true,"pong":true}"#);
        let hello = roundtrip(&mut c, r#"{"verb":"hello"}"#);
        let v = Json::parse(&hello).expect("hello json");
        assert_eq!(v.get("server").unwrap().as_str(), Some("xia-server"));
        let bye = roundtrip(&mut c, r#"{"verb":"shutdown"}"#);
        assert!(bye.contains("stopping"), "{bye}");
        handle.join();
    }

    #[test]
    fn start_requires_a_listener() {
        let Err(err) = start(ServerConfig::default(), Database::new()) else {
            panic!("expected an error without listeners");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn admission_cap_rejects_with_busy() {
        let handle = start_tcp(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let mut first = connect(&handle);
        // A round trip guarantees the accept loop admitted this
        // connection before the second one arrives.
        let _ = roundtrip(&mut first, r#"{"verb":"ping"}"#);
        let mut second = connect(&handle);
        let mut reader = std::io::BufReader::new(&mut second);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("busy reply");
        let v = Json::parse(reply.trim_end()).expect("busy json");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("busy")
        );
        drop(second);
        handle.stop();
    }

    #[test]
    fn malformed_requests_get_typed_errors_and_keep_the_connection() {
        let handle = start_tcp(ServerConfig::default());
        let mut c = connect(&handle);
        let bad = roundtrip(&mut c, "this is not json");
        let v = Json::parse(&bad).expect("error json");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_num(),
            Some(3.0)
        );
        // Connection survives: the next request succeeds.
        let pong = roundtrip(&mut c, r#"{"verb":"ping"}"#);
        assert!(pong.contains("pong"), "{pong}");
        handle.stop();
    }

    #[test]
    fn oversized_lines_error_and_close() {
        let handle = start_tcp(ServerConfig::default());
        let mut c = connect(&handle);
        let huge = format!(
            r#"{{"verb":"observe","statements":["{}"]}}"#,
            "x".repeat(MAX_LINE_BYTES + 16)
        );
        let reply = roundtrip(&mut c, &huge);
        let v = Json::parse(&reply).expect("error json");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert!(v
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds"));
        // The server closed this connection; the next read is EOF.
        let mut rest = String::new();
        let n = std::io::BufReader::new(&mut c)
            .read_line(&mut rest)
            .expect("read after close");
        assert_eq!(n, 0, "connection must be closed, got {rest:?}");
        handle.stop();
    }

    /// Hands out one chunk per read.
    struct Chunked<'a>(std::slice::Chunks<'a, u8>);

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.0.next().unwrap_or(&[]);
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn a_maximal_line_frames_in_any_chunking_with_a_linear_scan() {
        let mut data = vec![b'x'; MAX_LINE_BYTES];
        data.extend_from_slice(b"\nping\r\n");
        let stop = AtomicBool::new(false);
        for step in [1, 4096] {
            let mut reader = LineReader::default();
            let mut stream = Chunked(data.chunks(step));
            let mut next = || reader.next_line(&mut stream, &stop).expect("transport");
            let line = next().expect("a line").expect("within the cap");
            assert_eq!(line.len(), MAX_LINE_BYTES, "step {step}");
            assert_eq!(next().expect("a line").expect("short line"), "ping");
            assert!(next().is_none(), "EOF after the last line");
            assert!(
                reader.compared <= data.len(),
                "step {step}: {}",
                reader.compared
            );
        }
    }

    #[test]
    fn finished_connections_are_reaped_on_admission() {
        let handle = start_tcp(ServerConfig::default());
        let mut most = 0;
        for _ in 0..200 {
            let mut c = connect(&handle);
            let _ = roundtrip(&mut c, r#"{"verb":"ping"}"#);
            most = most.max(handle.shared.conns.lock().expect("conns").len());
            drop(c);
            // Its thread gives the slot back as its last act.
            while handle.shared.active.load(Ordering::SeqCst) > 0 {
                std::thread::yield_now();
            }
        }
        assert!(most <= 4, "{most} handles held with one live connection");
        handle.stop();
    }

    #[test]
    fn observe_and_recommend_stay_warm_across_requests() {
        let handle = start_tcp(ServerConfig::default());
        let mut c = connect(&handle);
        let observe = r#"{"verb":"observe","statements":["collection('SDOC')/Security[Symbol = \"SYM00001\"]"]}"#;
        let v = Json::parse(&roundtrip(&mut c, observe)).expect("observe json");
        assert_eq!(v.get("observed").unwrap().as_num(), Some(1.0));
        let rec_req = r#"{"verb":"recommend","budget":1000000000,"algo":"heuristics"}"#;
        let r1 = roundtrip(&mut c, rec_req);
        let r2 = roundtrip(&mut c, rec_req);
        assert_eq!(r1, r2, "warm repeat must be byte-identical");
        let v = Json::parse(&r1).expect("recommend json");
        assert!(v.get("recommendation").is_some());
        handle.stop();
    }

    #[test]
    fn metrics_reports_verbs_connections_and_kept_costs() {
        let handle = start_tcp(ServerConfig::default());
        let mut a = connect(&handle);
        let observe = r#"{"verb":"observe","statements":["collection('SDOC')/Security[Symbol = \"SYM00001\"]"]}"#;
        let rec_req = r#"{"verb":"recommend","budget":1000000000,"algo":"greedy"}"#;
        let _ = roundtrip(&mut a, observe);
        let first = roundtrip(&mut a, rec_req);
        let again = roundtrip(&mut a, rec_req);
        assert_eq!(first, again);
        let _ = roundtrip(&mut a, "not json");
        // A request is booked after its reply is written; one more round
        // trip on the connection puts everything before it on the books.
        let _ = roundtrip(&mut a, r#"{"verb":"ping"}"#);
        let mut b = connect(&handle);
        let reply = roundtrip(&mut b, r#"{"verb":"metrics"}"#);
        let v = Json::parse(&reply).expect("metrics json");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let m = v.get("metrics").expect("metrics body");
        let count = |verb: &str| {
            let hist = m.get("verbs").and_then(|verbs| verbs.get(verb));
            hist.and_then(|h| h.get("count")).and_then(Json::as_num)
        };
        assert_eq!(count("observe"), Some(1.0));
        assert_eq!(count("recommend"), Some(2.0));
        assert_eq!(count("invalid"), Some(1.0));
        assert_eq!(count("stats"), None, "verbs never asked are left out");
        let p50 = m
            .get("verbs")
            .unwrap()
            .get("recommend")
            .unwrap()
            .get("p50_ns");
        assert!(p50.and_then(Json::as_num).unwrap() > 0.0);
        let conns = m.get("connections").unwrap();
        assert_eq!(conns.get("live").unwrap().as_num(), Some(2.0));
        assert_eq!(conns.get("accepted").unwrap().as_num(), Some(2.0));
        assert_eq!(conns.get("rejected").unwrap().as_num(), Some(0.0));
        // Both live sessions are listed; only the one that advised holds
        // costings, and its repeat recommend was answered from them.
        let sessions = m.get("sessions").unwrap().as_arr().unwrap();
        assert_eq!(sessions.len(), 2);
        let num = |s: &Json, f: &str| s.get(f).and_then(Json::as_num).unwrap();
        assert!(num(&sessions[0], "retained_costings") > 0.0);
        let ratio = num(&sessions[0], "hit_ratio");
        assert!((0.5..1.0).contains(&ratio), "{ratio}");
        assert_eq!(num(&sessions[1], "retained_costings"), 0.0);
        assert_eq!(num(&sessions[1], "hit_ratio"), 0.0);
        // A closed connection leaves the list.
        drop(a);
        while handle.shared.active.load(Ordering::SeqCst) > 1 {
            std::thread::yield_now();
        }
        let v = Json::parse(&roundtrip(&mut b, r#"{"verb":"metrics"}"#)).expect("json");
        let sessions = v.get("metrics").unwrap().get("sessions").unwrap();
        assert_eq!(sessions.as_arr().unwrap().len(), 1);
        let count = v
            .get("metrics")
            .unwrap()
            .get("verbs")
            .unwrap()
            .get("metrics");
        assert_eq!(count.unwrap().get("count").unwrap().as_num(), Some(1.0));
        handle.stop();
    }

    #[test]
    fn sessions_are_isolated_per_connection() {
        let handle = start_tcp(ServerConfig::default());
        let mut a = connect(&handle);
        let observe =
            r#"{"verb":"observe","statements":["collection('SDOC')/Security[Yield > 4]"]}"#;
        let _ = roundtrip(&mut a, observe);
        let mut b = connect(&handle);
        let stats = Json::parse(&roundtrip(&mut b, r#"{"verb":"stats"}"#)).expect("stats");
        assert_eq!(
            stats
                .get("session")
                .unwrap()
                .get("observed")
                .unwrap()
                .as_num(),
            Some(0.0),
            "b must not see a's observations"
        );
        handle.stop();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path =
            std::env::temp_dir().join(format!("xia-server-test-{}.sock", std::process::id()));
        let handle = start(
            ServerConfig {
                socket: Some(path.clone()),
                ..ServerConfig::default()
            },
            tpox_db(),
        )
        .expect("start");
        let mut stream =
            std::os::unix::net::UnixStream::connect(&path).expect("connect unix socket");
        write_line(&mut stream, r#"{"verb":"ping"}"#).expect("write");
        let mut reply = String::new();
        std::io::BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("read");
        assert_eq!(reply.trim_end(), r#"{"ok":true,"pong":true}"#);
        handle.stop();
        assert!(!path.exists(), "socket file must be cleaned up");
    }
}
