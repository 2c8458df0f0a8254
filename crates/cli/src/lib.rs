//! # xia-cli
//!
//! The `xia` command-line tool: an end-user frontend over the XML Index
//! Advisor. All command logic lives in this library (the binary is a thin
//! `main`), so every command is unit-testable without spawning processes.
//!
//! ```text
//! xia init      <db>                          create an empty database file
//! xia load      <db> <collection> <file...>   load XML documents [--jobs <n>] [--no-stream]
//! xia stats     <db>                          collection/path statistics
//! xia explain   <db> <statement>              show the optimizer's plan
//! xia exec      <db> <statement> [--trace]    execute a query
//! xia recommend <db> -w <workload> -b <bytes> [-a <algo>] [--jobs <n>] [--apply] [--trace]
//! xia whatif    <db> -w <workload> -i <spec>  price a hand-written config
//! xia indexes   <db>                          list physical indexes
//! ```
//!
//! Workload files contain statements separated by blank lines; `#` and
//! `--` lines are comments.

pub mod commands;
pub mod workload_file;

use std::fmt;

/// What went wrong, mapped to a distinct process exit code so scripts can
/// react without parsing stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad command line: unknown command/flag, missing argument. Exit 2.
    Usage,
    /// Bad user input: unparseable statement, unknown collection, missing
    /// or unreadable file. Exit 3.
    Input,
    /// The database file is corrupt or truncated. Exit 4.
    CorruptDb,
    /// Internal failure (injected fault, strict-mode degradation, bug).
    /// Exit 5.
    Internal,
}

impl ErrorKind {
    /// The process exit code for this kind of failure.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorKind::Usage => 2,
            ErrorKind::Input => 3,
            ErrorKind::CorruptDb => 4,
            ErrorKind::Internal => 5,
        }
    }
}

/// CLI error: a message for the user plus a process exit code. The message
/// may span multiple lines — one per link of the underlying error's
/// context chain.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Failure class, determines the exit code.
    pub kind: ErrorKind,
}

impl CliError {
    /// Creates an input error (exit 3) from anything printable.
    pub fn new(message: impl fmt::Display) -> Self {
        Self::with_kind(message, ErrorKind::Input)
    }

    /// Creates a usage error (exit 2).
    pub fn usage(message: impl fmt::Display) -> Self {
        Self::with_kind(message, ErrorKind::Usage)
    }

    /// Creates a corrupt-database error (exit 4).
    pub fn corrupt(message: impl fmt::Display) -> Self {
        Self::with_kind(message, ErrorKind::CorruptDb)
    }

    /// Creates an internal error (exit 5).
    pub fn internal(message: impl fmt::Display) -> Self {
        Self::with_kind(message, ErrorKind::Internal)
    }

    /// Creates an error with an explicit kind.
    pub fn with_kind(message: impl fmt::Display, kind: ErrorKind) -> Self {
        Self {
            message: message.to_string(),
            kind,
        }
    }

    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        self.kind.exit_code()
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Output of a successful command: the text to print plus the process
/// exit code. Most commands exit 0; `recommend` reserves nonzero success
/// code 6 for a deadline/cancel partial result, which scripts need to
/// tell apart from a complete answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text to print on stdout.
    pub text: String,
    /// Process exit code (0 = plain success).
    pub code: i32,
}

impl CmdOutput {
    /// Successful output with an explicit exit code.
    pub fn with_code(text: String, code: i32) -> Self {
        Self { text, code }
    }
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        Self { text, code: 0 }
    }
}

impl std::ops::Deref for CmdOutput {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for CmdOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<xia_storage::PersistError> for CliError {
    fn from(e: xia_storage::PersistError) -> Self {
        let kind = match &e {
            xia_storage::PersistError::Corrupt { .. } | xia_storage::PersistError::Format(_) => {
                ErrorKind::CorruptDb
            }
            _ => ErrorKind::Input,
        };
        CliError::with_kind(e, kind)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::new(e)
    }
}

impl From<xia_advisor::XiaError> for CliError {
    fn from(e: xia_advisor::XiaError) -> Self {
        use xia_advisor::XiaError;
        let kind = match e.root() {
            XiaError::Persist(p) => {
                return CliError {
                    message: e.chain().join("\n  caused by: "),
                    kind: match p {
                        xia_storage::PersistError::Corrupt { .. }
                        | xia_storage::PersistError::Format(_) => ErrorKind::CorruptDb,
                        _ => ErrorKind::Input,
                    },
                }
            }
            XiaError::Parse(_)
            | XiaError::Xml(_)
            | XiaError::EmptyWorkload
            | XiaError::AllStatementsQuarantined { .. }
            | XiaError::UnknownCollection(_) => ErrorKind::Input,
            _ => ErrorKind::Internal,
        };
        CliError {
            message: e.chain().join("\n  caused by: "),
            kind,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
xia — XML Index Advisor

USAGE:
  xia init      <db>                           create an empty database file
  xia load      <db> <collection> <file...>    load XML documents into a collection
                [--jobs <n>] [--no-stream]   parallel batch ingest (all-or-nothing);
                                             --no-stream uses the DOM parser instead
                                             of the default streaming path (the
                                             result is byte-identical either way)
  xia stats     <db>                           print collection and path statistics
  xia explain   <db> <statement>               show the best plan and its cost
  xia explain   <db> -w <workload-file> -b <budget-bytes> [-a <algo>]
                [--why <index-pattern>]      advisor breakdown: phase timings,
                                             counters, per-statement what-if costs;
                                             --why replays the decision journal for
                                             one pattern's derivation chain
  xia exec      <db> <statement> [--trace[=json|text]]
                                             execute a query statement
  xia recommend <db> -w <workload-file> -b <budget-bytes>
                [-a greedy|heuristics|topdown-lite|topdown-full|dp|cophy]
                [--apply] [--report] [--trace[=json|text]] [--strict]
                [--journal <path>] [--what-if-budget <calls>] [--jobs <n>]
                [--inject <site>:<rate>] [--fault-seed <n>]
                [--deadline-ms <n>] [--cancel-after-polls <k>]
  xia whatif    <db> -w <workload-file> -i <coll>:<pattern>:<string|numerical> ...
                                             price a hand-written configuration
  xia indexes   <db>                           list physical indexes
  xia serve     <db> (--tcp <addr> | --socket <path>)
                [--max-conns <n>] [--drift-threshold <0..1>]
                [--what-if-budget <calls>] [--jobs <n>]
                [--inject <site>:<rate>] [--fault-seed <n>]
                                             run the warm advisor service
  xia client    (--tcp <addr> | --socket <path>) <verb> [...]
                                             talk to a running server; verbs:
                                             ping, hello, stats, journal, reset,
                                             metrics (server-wide: per-verb
                                             latency, connections, each
                                             session's kept costs), shutdown,
                                             observe (-w <file> | <stmt>...),
                                             recommend -b <budget> [-a <algo>]
                                               [-w <file>] (-w observes first,
                                               on the same connection)

`serve` keeps one database resident with fresh statistics; each
connection gets its own tuning session, which keeps its prepared
candidates and what-if costs across requests. Sessions re-advise automatically when the
observed workload's template-mass distribution drifts past
--drift-threshold (total-variation distance; default 0.25). A client
error reply exits with the same code the equivalent local command would.

Workload files: statements separated by blank lines; '#'/'--' comment lines.
Statements that fail to parse are quarantined (reported, then skipped) by
`recommend`; other commands reject them.

--journal <path> writes the advisor's decision-provenance journal as
JSONL (one event per line: candidate generation, generalizations, prunes,
what-if evaluations, knapsack decisions). All events are emitted on the
coordinator, so the file is byte-identical for every --jobs value.

--jobs (or -j) sets the what-if worker-thread count for benefit
evaluation (0 = one per core; default 1, or the XIA_JOBS environment
variable). The recommendation is identical for every value.

-a cophy scales to huge workloads: the workload is first compressed into
weighted cost-identity templates, then a std-only LP/knapsack relaxation
picks the configuration and reports a certified quality bound. Applies to
`recommend` and advisor-mode `explain`.

Fault injection (for robustness testing): --inject storage-io:0.05
injects I/O faults in 5% of storage operations; sites are storage-io,
optimizer-cost, stats-unavailable. --fault-seed makes runs reproducible.

Run lifecycle: --deadline-ms bounds the advisor's wall-clock time; on
expiry the run unwinds cooperatively and prints the best configuration
found so far (a *partial* recommendation, exit 6).
--cancel-after-polls <k> cancels at the k-th cooperative poll (a
deterministic kill switch for testing).

Exit codes: 0 ok, 2 usage, 3 bad input, 4 corrupt database, 5 internal,
6 deadline/cancel partial result.
";

/// Dispatches a full argument vector (excluding `argv[0]`). Returns the
/// output to print plus the process exit code.
pub fn run(args: &[String]) -> Result<CmdOutput, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::usage(USAGE));
    };
    match cmd.as_str() {
        "init" => commands::init(args.get(1).map(|s| s.as_str())).map(Into::into),
        "load" => commands::load(&args[1..]).map(Into::into),
        "stats" => commands::stats(args.get(1).map(|s| s.as_str())).map(Into::into),
        "explain" => commands::explain(&args[1..]).map(Into::into),
        "exec" => commands::exec(&args[1..]).map(Into::into),
        "recommend" => commands::recommend(&args[1..]),
        "whatif" => commands::whatif(&args[1..]).map(Into::into),
        "indexes" => commands::indexes(args.get(1).map(|s| s.as_str())).map(Into::into),
        "serve" => commands::serve(&args[1..]).map(Into::into),
        "client" => commands::client(&args[1..]).map(Into::into),
        "help" | "--help" | "-h" => Ok(USAGE.to_string().into()),
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}
