//! # xia-server
//!
//! The warm advisor service: a long-lived daemon that keeps one
//! [`Database`](xia_storage::Database) — statistics, columnar stores,
//! prepared candidates, and warm what-if cost caches — resident across
//! requests, instead of paying the cold-start tax (load, RUNSTATS,
//! enumeration, generalization, benefit fan-out) on every `xia recommend`
//! invocation.
//!
//! Three layers:
//!
//! * [`protocol`] — line-delimited JSON over TCP and/or a unix socket:
//!   verbs `hello`, `ping`, `observe`, `recommend`, `stats`, `journal`,
//!   `reset`, `metrics`, `shutdown`; hostile-input caps; typed error
//!   replies mapped to the CLI's exit-code taxonomy.
//! * [`session`] — one [`ServerSession`] per connection: an incremental
//!   [`TuningSession`](xia_advisor::TuningSession) that keeps its
//!   prepared candidates and what-if costs across requests, with
//!   drift-triggered incremental re-advise over compressed-template mass.
//! * [`server`] — listeners, thread-per-connection with an admission
//!   cap, one immutable database snapshot read without a lock, and
//!   deterministic cleanup.
//!
//! Every session is a pure function of its own request stream, so N
//! concurrent clients get byte-identical replies to the same requests
//! replayed serially — the property the `server_determinism` test suite
//! and the `server_overhead_gate` release gate pin.

pub mod protocol;
pub mod server;
pub mod session;

pub use protocol::{
    parse_request, render_recommendation, Request, WireError, MAX_LINE_BYTES,
    MAX_STATEMENTS_PER_REQUEST, VERBS,
};
pub use server::{start, ServerConfig, ServerCounters, ServerHandle};
pub use session::{CostingGauges, ServerSession, SessionOptions};
