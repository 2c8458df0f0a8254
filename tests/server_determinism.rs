//! Concurrency-determinism suite for the warm advisor service.
//!
//! The server's contract: every session is a pure function of its own
//! request stream. N concurrent connections issuing interleaved
//! observe/recommend traffic must produce byte-identical replies,
//! session counters, and journal events to the same per-session scripts
//! replayed serially — clean and with injected faults, at jobs 1 and 4 —
//! and must leave the shared snapshot as they found it.
//! Server-level gauges (total connections, global request counts) are
//! interleaving-dependent by design and excluded from the comparison.

use xia_bench::experiments::server_warm::{observe_line, recommend_line, Conn};
use xia_obs::json::Json;
use xia_server::{start, ServerConfig, ServerHandle};
use xia_storage::Database;
use xia_workloads::tpox::{self, TpoxConfig};

fn fresh_server(fault_specs: Vec<String>, jobs: Option<usize>) -> (ServerHandle, String) {
    let mut db = Database::new();
    tpox::generate(&mut db, &TpoxConfig::tiny());
    let handle = start(
        ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            max_connections: 16,
            fault_specs,
            fault_seed: 0xfa57,
            jobs,
            ..Default::default()
        },
        db,
    )
    .expect("loopback listener binds");
    let addr = handle.tcp_addr().expect("tcp listener is up").to_string();
    (handle, addr)
}

/// The request script for session `i`: rotated query order so sessions
/// differ from each other, two observe/recommend cycles (the second one
/// extends the prepared candidates and may cross the drift threshold),
/// then journal and stats.
fn script(i: usize) -> Vec<String> {
    let texts = tpox::queries(&TpoxConfig::tiny());
    let mut rotated = texts.clone();
    rotated.rotate_left(i % texts.len());
    vec![
        observe_line(&rotated[..6]),
        recommend_line(),
        observe_line(&rotated[6..]),
        recommend_line(),
        r#"{"verb":"journal"}"#.to_string(),
        r#"{"verb":"stats"}"#.to_string(),
    ]
}

/// Runs one session's script over one connection, normalizing the stats
/// reply down to its session-scoped half (server gauges depend on what
/// other connections did).
fn run_script(addr: &str, lines: &[String]) -> Vec<String> {
    let mut conn = Conn::connect(addr).expect("connect");
    lines
        .iter()
        .map(|l| {
            let reply = conn.request(l).expect("request");
            match Json::parse(&reply) {
                Ok(v) if v.get("session").is_some() => {
                    v.get("session").expect("just checked").render()
                }
                _ => reply,
            }
        })
        .collect()
}

fn assert_concurrent_matches_serial(fault_specs: Vec<String>, jobs: Option<usize>) {
    const SESSIONS: usize = 8;
    let case = format!("faults={fault_specs:?} jobs={jobs:?}");

    // Serial replay: one connection at a time against a fresh server.
    let (handle, addr) = fresh_server(fault_specs.clone(), jobs);
    let serial: Vec<Vec<String>> = (0..SESSIONS)
        .map(|i| run_script(&addr, &script(i)))
        .collect();
    handle.shutdown();
    handle.join();

    // Concurrent replay: all sessions at once against a fresh server
    // with an identical database.
    let (handle, addr) = fresh_server(fault_specs, jobs);
    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || run_script(&addr, &script(i)))
        })
        .collect();
    let concurrent: Vec<Vec<String>> = workers
        .into_iter()
        .map(|w| w.join().expect("session thread"))
        .collect();
    // The storm left nothing behind in the snapshot: one more session on
    // the same server still answers as it would on a fresh one.
    let after_storm = run_script(&addr, &script(0));
    handle.shutdown();
    handle.join();

    assert_eq!(
        serial[0], after_storm,
        "{case}: a session after the storm diverges from one on a fresh server"
    );
    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(s.len(), c.len(), "{case}: session {i} transcript length");
        for (step, (a, b)) in s.iter().zip(c).enumerate() {
            assert_eq!(
                a, b,
                "{case}: session {i} step {step} diverges between serial and concurrent replay"
            );
        }
    }
}

#[test]
fn concurrent_sessions_match_serial_replay_clean() {
    assert_concurrent_matches_serial(Vec::new(), Some(1));
    assert_concurrent_matches_serial(Vec::new(), Some(4));
}

#[test]
fn concurrent_sessions_match_serial_replay_with_optimizer_faults() {
    let specs = vec!["optimizer-cost:0.2".to_string()];
    assert_concurrent_matches_serial(specs.clone(), Some(1));
    assert_concurrent_matches_serial(specs, Some(4));
}

#[test]
fn concurrent_sessions_match_serial_replay_with_stats_faults() {
    let specs = vec!["stats-unavailable:0.3".to_string()];
    assert_concurrent_matches_serial(specs.clone(), Some(1));
    assert_concurrent_matches_serial(specs, Some(4));
}

#[test]
fn drift_crossing_readvises_exactly_once() {
    let mut db = Database::new();
    tpox::generate(&mut db, &TpoxConfig::tiny());
    let handle = start(
        ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            drift_threshold: 0.3,
            ..Default::default()
        },
        db,
    )
    .expect("loopback listener binds");
    let addr = handle.tcp_addr().expect("tcp listener is up").to_string();
    let mut conn = Conn::connect(&addr).expect("connect");

    let q_symbol = r#"collection('SDOC')/Security[Symbol = "SYM00001"]"#.to_string();
    let q_yield = r#"collection('SDOC')/Security[Yield > 4.5]"#.to_string();
    conn.request(&observe_line(std::slice::from_ref(&q_symbol)))
        .expect("observe");
    let r = conn.request(&recommend_line()).expect("recommend");
    assert!(r.contains(r#""ok":true"#), "{r}");

    // Shift the template mass: three observations of a new template
    // against a baseline of one crosses a 0.3 total-variation threshold.
    let reply = conn
        .request(&observe_line(&[
            q_yield.clone(),
            q_yield.clone(),
            q_yield.clone(),
        ]))
        .expect("drifting observe");
    assert!(reply.contains(r#""readvised":true"#), "{reply}");
    assert!(reply.contains(r#""recommendation""#), "{reply}");

    // Re-observing the now-dominant template does not drift again — the
    // histogram was rebaselined at the re-advise.
    let reply = conn
        .request(&observe_line(std::slice::from_ref(&q_yield)))
        .expect("steady observe");
    assert!(reply.contains(r#""readvised":false"#), "{reply}");

    let journal = conn.request(r#"{"verb":"journal"}"#).expect("journal");
    let events = journal.matches("drift_detected").count();
    assert_eq!(
        events, 1,
        "expected exactly one drift_detected journal event, got {events}: {journal}"
    );
    handle.shutdown();
    drop(conn);
    handle.join();
}

#[test]
fn hostile_lines_get_error_replies_and_the_server_survives() {
    let (handle, addr) = fresh_server(Vec::new(), None);
    let cases = [
        ("{not json", "input"),
        ("[1,2,3]", "usage"),
        (r#"{"no":"verb"}"#, "usage"),
        (r#"{"verb":"frobnicate"}"#, "usage"),
        (r#"{"verb":"observe"}"#, "usage"),
        (r#"{"verb":"observe","statements":"x"}"#, "usage"),
        (r#"{"verb":"observe","statements":[{"freq":1}]}"#, "usage"),
        (r#"{"verb":"recommend"}"#, "usage"),
        (r#"{"verb":"recommend","budget":-5}"#, "usage"),
        (r#"{"verb":"recommend","budget":1e300}"#, "usage"),
        (
            r#"{"verb":"recommend","budget":1024,"algo":"quantum"}"#,
            "usage",
        ),
    ];
    let mut conn = Conn::connect(&addr).expect("connect");
    for (line, kind) in cases {
        let reply = conn.request(line).expect("error reply, connection kept");
        assert!(reply.contains(r#""ok":false"#), "{line}: {reply}");
        assert!(
            reply.contains(&format!(r#""kind":"{kind}""#)),
            "{line}: expected kind {kind}, got {reply}"
        );
    }
    // The same connection still serves valid traffic afterwards.
    let reply = conn.request(r#"{"verb":"ping"}"#).expect("ping");
    assert!(reply.contains(r#""pong":true"#), "{reply}");

    // An oversized line draws one error reply, then the connection closes
    // (framing is lost) — but the server keeps serving new connections.
    let huge = format!(
        r#"{{"verb":"observe","statements":["{}"]}}"#,
        "x".repeat(xia_server::MAX_LINE_BYTES + 16)
    );
    let reply = conn.request(&huge).expect("oversized reply");
    assert!(reply.contains(r#""ok":false"#), "{reply}");
    assert!(
        conn.request(r#"{"verb":"ping"}"#).is_err(),
        "connection must close"
    );
    let mut conn2 = Conn::connect(&addr).expect("reconnect");
    let reply = conn2
        .request(r#"{"verb":"ping"}"#)
        .expect("ping after hostility");
    assert!(reply.contains(r#""pong":true"#), "{reply}");
    handle.shutdown();
    drop(conn2);
    handle.join();
}
