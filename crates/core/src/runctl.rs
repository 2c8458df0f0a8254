//! Run-lifecycle control: deadlines, cooperative cancellation, crash-safe
//! checkpoints, and the resource-governor budget.
//!
//! [`RunController`] follows the crate's cheap-handle pattern
//! ([`xia_obs::Telemetry`], [`xia_fault::FaultInjector`]): a cloneable
//! `Option<Arc<...>>` whose disabled form ([`RunController::off`], the
//! default) turns every poll into a branch on `None`, so a run without
//! lifecycle features pays nothing.
//!
//! ## Cooperative stop
//!
//! The benefit evaluator's coordinator and all search algorithms call
//! [`RunController::poll`] at evaluation-group and loop boundaries. The
//! first expired condition (wall-clock deadline, external cancel, or the
//! deterministic `cancel_after_polls` test hook) *latches* a
//! [`StopReason`]; the searches then unwind with their best configuration
//! so far, and the advisor surfaces the result as a partial
//! recommendation rather than an error.
//!
//! ## Checkpoint/resume — the warm-store replay model
//!
//! Because the whole pipeline is deterministic (coordinator-planned,
//! jobs-invariant), a resumed run does not restore mid-search state: it
//! **re-runs the pipeline from scratch** and consults a read-only *warm
//! store* of previously executed optimizer costings at task-execution
//! time. Each warm entry carries the exact cost (f64 bits) and the
//! per-task telemetry counter deltas captured when the task originally
//! ran, so a warm-served task leaves the same footprint — costs, caches,
//! counters, journal events — as re-executing it. The replayed run is
//! therefore byte-identical to an uninterrupted one at any `--jobs`
//! value. Checkpoint lifecycle itself is deliberately *not* journaled
//! (it would break that identity); resumption surfaces only through the
//! CLI warning text and exit code.
//!
//! Replay is the *resume* mechanism and nothing else: the costing log is
//! recorded (and each call's counter footprint snapshotted) only while a
//! checkpoint file is armed. A tuning session that asks again keeps its
//! costs in a [`crate::CostingState`] instead of replaying a log.
//!
//! Checkpoint files are a line format checksummed with the storage
//! layer's FNV-1a (`xia_storage::fnv1a64`) under an `END <count>
//! <checksum>` trailer, are bound to the candidate set by digest, and
//! are written to a temp file renamed into place. Any read failure —
//! truncation, bit flips, digest mismatch, injected `checkpoint-io`
//! fault — degrades to a cold start with a warning, never a panic or a
//! wrong answer. A failed write abandons that checkpoint and keeps the
//! previous one.

use crate::candidate::{CandId, CandidateSet};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xia_fault::{FaultInjector, FaultSite};
use xia_obs::{Counter, Telemetry};
use xia_storage::fnv1a64;

/// Fault-stream salt for checkpoint writes (`checkpoint-io` rolls derive
/// per-write streams so schedules are replay-invariant).
const SALT_CKPT_WRITE: u64 = 0xC4_917E;
/// Fault-stream salt for checkpoint reads.
const SALT_CKPT_READ: u64 = 0xC4_9EAD;

/// Why a controller stopped a run early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The run was cancelled (externally, or by the deterministic
    /// poll-count hook).
    Cancelled,
}

impl StopReason {
    /// Stable snake_case name (used in the `run_stopped` journal event).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Deadline => "deadline",
            StopReason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Rungs of the resource governor's graceful-degradation ladder, in
/// demotion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GovernorRung {
    /// All caches live (the starting rung).
    Full,
    /// The sharded benefit memo was cleared. It may regrow; renewed
    /// pressure demotes further down the ladder.
    ShrinkMemo,
    /// Both caches were cleared and statement-cache inserts stop; the
    /// memo may still regrow.
    NoStmtCache,
    /// All cache inserts stop and uncached costings degrade to the
    /// heuristic fallback; no optimizer fan-out for uncached work.
    HeuristicOnly,
}

impl GovernorRung {
    /// Stable snake_case name (used in the `governor_demoted` event).
    pub fn name(self) -> &'static str {
        match self {
            GovernorRung::Full => "full",
            GovernorRung::ShrinkMemo => "shrink_memo",
            GovernorRung::NoStmtCache => "no_stmt_cache",
            GovernorRung::HeuristicOnly => "heuristic_only",
        }
    }

    /// The next rung down the ladder, if any.
    pub fn next(self) -> Option<GovernorRung> {
        match self {
            GovernorRung::Full => Some(GovernorRung::ShrinkMemo),
            GovernorRung::ShrinkMemo => Some(GovernorRung::NoStmtCache),
            GovernorRung::NoStmtCache => Some(GovernorRung::HeuristicOnly),
            GovernorRung::HeuristicOnly => None,
        }
    }
}

/// Identity of one executed optimizer costing: the per-task fault salt,
/// the statement index, and the canonical candidate projection it costed.
/// The salt alone is already a function of `(projection, statement)`, but
/// the full tuple keeps warm-store lookups collision-proof.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WarmKey {
    /// Per-task fault-stream salt the costing ran under.
    pub salt: u64,
    /// Workload statement index.
    pub si: usize,
    /// Canonical (sorted) candidate projection that was costed.
    pub proj: Vec<CandId>,
}

/// A warm-store entry: the exact cost plus the telemetry counter deltas
/// the original execution produced, so serving the entry replays the
/// task's full observable footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmEntry {
    /// `f64::to_bits` of the optimizer's total cost (bit-exact).
    pub cost_bits: u64,
    /// `(Counter::ALL index, delta)` pairs the task added to its worker's
    /// scratch telemetry.
    pub deltas: Vec<(usize, u64)>,
}

#[derive(Debug)]
struct CheckpointCfg {
    path: PathBuf,
    /// Write after every N evaluation-group batches.
    every: u64,
}

#[derive(Debug)]
struct CtlInner {
    /// Wall-clock deadline, anchored when the controller was built.
    deadline: Option<Instant>,
    /// External cancellation flag.
    cancel: AtomicBool,
    /// Deterministic test/ops hook: latch `Cancelled` once this many
    /// polls have happened. Polls are coordinator-side only, so the
    /// trigger point is jobs-invariant.
    cancel_after_polls: Option<u64>,
    polls: AtomicU64,
    /// The first stop condition to fire, latched for the rest of the run.
    stopped: Mutex<Option<StopReason>>,
    checkpoint: Option<CheckpointCfg>,
    mem_budget: Option<u64>,
    resumed: AtomicBool,
    /// Read-only warm store installed by `--resume`.
    warm: Mutex<HashMap<WarmKey, WarmEntry>>,
    /// Ordered log of every costing executed (or warm-served) this run;
    /// the payload of the next checkpoint.
    log: Mutex<Vec<(WarmKey, WarmEntry)>>,
    /// Evaluation-group batches seen since the run started.
    batches: AtomicU64,
    /// Checkpoints written so far (salts the per-write fault stream).
    writes: AtomicU64,
}

/// Cheap handle to shared run-lifecycle state. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct RunController {
    inner: Option<Arc<CtlInner>>,
}

impl RunController {
    /// A disabled handle: polls cost one branch, nothing ever stops.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled controller with no deadline, no checkpointing, and no
    /// memory budget; arm features builder-style before sharing clones.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(CtlInner {
                deadline: None,
                cancel: AtomicBool::new(false),
                cancel_after_polls: None,
                polls: AtomicU64::new(0),
                stopped: Mutex::new(None),
                checkpoint: None,
                mem_budget: None,
                resumed: AtomicBool::new(false),
                warm: Mutex::new(HashMap::new()),
                log: Mutex::new(Vec::new()),
                batches: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            })),
        }
    }

    fn configure(mut self, f: impl FnOnce(&mut CtlInner)) -> Self {
        if let Some(inner) = self.inner.as_mut().and_then(Arc::get_mut) {
            f(inner);
        }
        self
    }

    /// Arms a wall-clock deadline, anchored now. Builder-style; must be
    /// called before the handle is cloned.
    pub fn with_deadline(self, timeout: Duration) -> Self {
        let deadline = Instant::now().checked_add(timeout);
        self.configure(|i| i.deadline = deadline)
    }

    /// [`RunController::with_deadline`] in milliseconds (the CLI flag).
    pub fn with_deadline_ms(self, ms: u64) -> Self {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Arms the deterministic preemption hook: the controller latches
    /// `Cancelled` on the `n`-th poll. Used by the resume-determinism
    /// suite and `--cancel-after-polls` to kill a run at an exactly
    /// reproducible boundary.
    pub fn with_cancel_after_polls(self, n: u64) -> Self {
        self.configure(|i| i.cancel_after_polls = Some(n))
    }

    /// Arms periodic checkpointing: after every `every` evaluation-group
    /// batches (and once more when the run stops), the warm log is
    /// written to `path` atomically.
    pub fn with_checkpoint(self, path: impl Into<PathBuf>, every: u64) -> Self {
        let cfg = CheckpointCfg {
            path: path.into(),
            every: every.max(1),
        };
        self.configure(|i| i.checkpoint = Some(cfg))
    }

    /// Arms the resource governor with an approximate cache-byte budget.
    pub fn with_mem_budget(self, bytes: u64) -> Self {
        self.configure(|i| i.mem_budget = Some(bytes))
    }

    /// Whether this handle does anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Requests cancellation; the next poll latches it.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancel.store(true, Ordering::Relaxed);
        }
    }

    /// Coordinator-side stop check: counts the poll, latches the first
    /// stop condition to fire, and returns the latched reason (if any).
    /// On a disabled handle this is a single branch.
    #[inline]
    pub fn poll(&self) -> Option<StopReason> {
        let inner = self.inner.as_ref()?;
        self.poll_armed(inner)
    }

    /// Cold path of [`RunController::poll`], separated so the disabled
    /// handle inlines to a branch.
    fn poll_armed(&self, inner: &CtlInner) -> Option<StopReason> {
        let mut stopped = inner.stopped.lock().expect("controller poisoned");
        if stopped.is_some() {
            return *stopped;
        }
        let polls = inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
        let cancelled = inner.cancel.load(Ordering::Relaxed)
            || inner.cancel_after_polls.is_some_and(|n| polls >= n);
        let reason = if cancelled {
            Some(StopReason::Cancelled)
        } else if inner.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::Deadline)
        } else {
            None
        };
        *stopped = reason;
        reason
    }

    /// The latched stop reason, without counting a poll.
    pub fn stopped(&self) -> Option<StopReason> {
        let inner = self.inner.as_ref()?;
        *inner.stopped.lock().expect("controller poisoned")
    }

    /// Whether a warm store was installed from a checkpoint.
    pub fn resumed(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.resumed.load(Ordering::Relaxed))
    }

    /// The governor's cache-byte budget, if armed.
    pub fn mem_budget(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|i| i.mem_budget)
    }

    /// Whether a checkpoint file is armed, i.e. the warm log is being
    /// recorded (drives per-task counter-footprint capture).
    pub fn checkpointing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.checkpoint.is_some())
    }

    /// Installs warm-store entries loaded from a checkpoint and marks the
    /// run as resumed.
    pub fn install_warm(&self, entries: Vec<(WarmKey, WarmEntry)>) {
        if let Some(inner) = &self.inner {
            let mut warm = inner.warm.lock().expect("controller poisoned");
            for (k, v) in entries {
                warm.insert(k, v);
            }
            inner.resumed.store(true, Ordering::Relaxed);
        }
    }

    /// Looks up a previously executed costing in the warm store.
    pub fn warm_lookup(&self, key: &WarmKey) -> Option<WarmEntry> {
        let inner = self.inner.as_ref()?;
        if !inner.resumed.load(Ordering::Relaxed) {
            return None;
        }
        inner
            .warm
            .lock()
            .expect("controller poisoned")
            .get(key)
            .cloned()
    }

    /// Appends one executed (or warm-served) costing to the warm log —
    /// the payload of the next checkpoint. No-op unless a checkpoint file
    /// is armed.
    pub fn record_costing(&self, key: WarmKey, entry: WarmEntry) {
        if let Some(inner) = &self.inner {
            if inner.checkpoint.is_some() {
                inner
                    .log
                    .lock()
                    .expect("controller poisoned")
                    .push((key, entry));
            }
        }
    }

    /// Called by the evaluator after each evaluation-group batch: writes
    /// a checkpoint when the cadence says so. Returns a warning to
    /// surface when a write was abandoned.
    pub fn after_batch(
        &self,
        digest: u64,
        faults: &FaultInjector,
        telemetry: &Telemetry,
    ) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let cfg = inner.checkpoint.as_ref()?;
        let batches = inner.batches.fetch_add(1, Ordering::Relaxed) + 1;
        if batches % cfg.every != 0 {
            return None;
        }
        self.write_checkpoint(inner, cfg, digest, faults, telemetry)
    }

    /// Writes a final checkpoint unconditionally (called when a run is
    /// stopped early, so `--resume` sees all completed work). Returns a
    /// warning when the write was abandoned.
    pub fn final_checkpoint(
        &self,
        digest: u64,
        faults: &FaultInjector,
        telemetry: &Telemetry,
    ) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let cfg = inner.checkpoint.as_ref()?;
        self.write_checkpoint(inner, cfg, digest, faults, telemetry)
    }

    fn write_checkpoint(
        &self,
        inner: &CtlInner,
        cfg: &CheckpointCfg,
        digest: u64,
        faults: &FaultInjector,
        telemetry: &Telemetry,
    ) -> Option<String> {
        // Per-write derived stream: whether write #n fails is a pure
        // function of (seed, n), invariant under resume/replay.
        let write_no = inner.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let stream = faults.derive_stream(SALT_CKPT_WRITE ^ write_no);
        if let Err(e) = stream.roll(FaultSite::CheckpointIo) {
            return Some(format!(
                "checkpoint write abandoned ({e}); previous checkpoint kept"
            ));
        }
        let body = {
            let log = inner.log.lock().expect("controller poisoned");
            render_checkpoint(digest, &log)
        };
        match write_atomically(&cfg.path, &body) {
            Ok(()) => {
                telemetry.incr(Counter::CheckpointsWritten);
                None
            }
            Err(e) => Some(format!(
                "checkpoint write to {} failed ({e}); previous checkpoint kept",
                cfg.path.display()
            )),
        }
    }
}

/// Digest binding a checkpoint to the candidate set it was computed
/// over: FNV-1a of every candidate's rendered identity, in id order.
pub fn candidate_digest(set: &CandidateSet) -> u64 {
    let mut buf = String::new();
    for c in set.iter() {
        let _ = writeln!(buf, "{c}");
    }
    fnv1a64(buf.as_bytes())
}

/// First line of a checkpoint. The version names the per-task counter
/// footprint the entries replay: v2 tasks plan prepared statements and no
/// longer count selectivity estimates, so a v1 file's deltas are foreign —
/// it fails this check and the run cold-starts with the usual warning.
const CHECKPOINT_HEADER: &str = "XIACKPT v2";

/// Renders the checkpoint body: a checksummed line format.
fn render_checkpoint(digest: u64, log: &[(WarmKey, WarmEntry)]) -> String {
    let mut body = String::new();
    let _ = writeln!(body, "{CHECKPOINT_HEADER}");
    let _ = writeln!(body, "META {digest:016x} {}", log.len());
    for (key, entry) in log {
        let proj = if key.proj.is_empty() {
            "-".to_string()
        } else {
            key.proj
                .iter()
                .map(|id| id.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let deltas = if entry.deltas.is_empty() {
            "-".to_string()
        } else {
            entry
                .deltas
                .iter()
                .map(|(i, v)| format!("{i}:{v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            body,
            "W {:016x} {} {:016x} {proj} {deltas}",
            key.salt, key.si, entry.cost_bits
        );
    }
    let checksum = fnv1a64(body.as_bytes());
    let _ = writeln!(body, "END {} {checksum:016x}", log.len());
    body
}

/// Writes `body` to `path` via a temp file + atomic rename, so a crash
/// mid-write can never leave a torn checkpoint in place.
fn write_atomically(path: &Path, body: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Loads a checkpoint for `--resume`: verifies the framing checksum and
/// the candidate-set digest, and returns the warm entries. Every failure
/// mode — missing file, truncation, bit flips, digest mismatch, injected
/// `checkpoint-io` fault — is a `Err(reason)` the caller turns into a
/// cold-start warning.
pub fn load_checkpoint(
    path: impl AsRef<Path>,
    expected_digest: u64,
    faults: &FaultInjector,
) -> Result<Vec<(WarmKey, WarmEntry)>, String> {
    let path = path.as_ref();
    faults
        .derive_stream(SALT_CKPT_READ)
        .roll(FaultSite::CheckpointIo)
        .map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_checkpoint(&text, expected_digest)
}

/// Parses and verifies a checkpoint body (separated from I/O for the
/// corruption sweeps).
pub fn parse_checkpoint(
    text: &str,
    expected_digest: u64,
) -> Result<Vec<(WarmKey, WarmEntry)>, String> {
    // Strict framing: every line, including the END trailer, must be
    // newline-terminated, so no proper prefix of a checkpoint parses.
    if !text.ends_with('\n') {
        return Err("truncated checkpoint (unterminated trailer)".to_string());
    }
    let mut lines = text.lines();
    if lines.next() != Some(CHECKPOINT_HEADER) {
        return Err(format!(
            "not a checkpoint file (missing {CHECKPOINT_HEADER} header)"
        ));
    }
    let meta = lines.next().ok_or("truncated checkpoint (no META line)")?;
    let mut meta_parts = meta.split(' ');
    if meta_parts.next() != Some("META") {
        return Err("malformed checkpoint (expected META line)".to_string());
    }
    let digest = meta_parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("malformed META digest")?;
    let declared: usize = meta_parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("malformed META entry count")?;
    if digest != expected_digest {
        return Err(format!(
            "checkpoint was taken over a different candidate set \
             (digest {digest:016x}, expected {expected_digest:016x})"
        ));
    }
    let mut entries = Vec::with_capacity(declared);
    let mut end: Option<&str> = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("END ") {
            end = Some(rest);
            break;
        }
        let rest = line
            .strip_prefix("W ")
            .ok_or_else(|| format!("malformed checkpoint record `{line}`"))?;
        let mut parts = rest.split(' ');
        let salt = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("malformed record salt")?;
        let si: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("malformed record statement index")?;
        let cost_bits = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("malformed record cost")?;
        let proj_s = parts.next().ok_or("malformed record projection")?;
        let deltas_s = parts.next().ok_or("malformed record deltas")?;
        if parts.next().is_some() {
            return Err(format!("malformed checkpoint record `{line}`"));
        }
        let proj = if proj_s == "-" {
            Vec::new()
        } else {
            proj_s
                .split(',')
                .map(|p| p.parse().map(CandId))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| "malformed record projection".to_string())?
        };
        let deltas = if deltas_s == "-" {
            Vec::new()
        } else {
            deltas_s
                .split(',')
                .map(|p| {
                    let (i, v) = p.split_once(':')?;
                    Some((i.parse().ok()?, v.parse().ok()?))
                })
                .collect::<Option<Vec<(usize, u64)>>>()
                .ok_or("malformed record deltas")?
        };
        entries.push((WarmKey { salt, si, proj }, WarmEntry { cost_bits, deltas }));
    }
    let end = end.ok_or("truncated checkpoint (no END trailer)")?;
    let mut end_parts = end.split(' ');
    let count: usize = end_parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("malformed END count")?;
    let checksum = end_parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("malformed END checksum")?;
    if count != entries.len() || count != declared {
        return Err(format!(
            "checkpoint entry count mismatch (META {declared}, END {count}, parsed {})",
            entries.len()
        ));
    }
    // The checksum covers every byte before the END line.
    let body_len = text
        .find("\nEND ")
        .map(|i| i + 1)
        .ok_or("truncated checkpoint (no END trailer)")?;
    if fnv1a64(&text.as_bytes()[..body_len]) != checksum {
        return Err("checkpoint checksum mismatch (corrupt file)".to_string());
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<(WarmKey, WarmEntry)> {
        vec![
            (
                WarmKey {
                    salt: 0xBA5E,
                    si: 0,
                    proj: Vec::new(),
                },
                WarmEntry {
                    cost_bits: 1234.5f64.to_bits(),
                    deltas: vec![(0, 1), (3, 42)],
                },
            ),
            (
                WarmKey {
                    salt: 0xE7A1,
                    si: 2,
                    proj: vec![CandId(1), CandId(4)],
                },
                WarmEntry {
                    cost_bits: 99.25f64.to_bits(),
                    deltas: Vec::new(),
                },
            ),
        ]
    }

    #[test]
    fn checkpoint_round_trips() {
        let log = sample_log();
        let body = render_checkpoint(0xD1657, &log);
        let back = parse_checkpoint(&body, 0xD1657).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn older_format_version_is_rejected() {
        // A v1 checkpoint is intact and checksummed, but its per-task
        // counter deltas describe tasks that re-analysed the statement;
        // replaying them would inflate the counters, so it must not load.
        let body = render_checkpoint(1, &sample_log());
        assert!(body.starts_with("XIACKPT v2\n"));
        let v1 = body.replacen("XIACKPT v2", "XIACKPT v1", 1);
        let err = parse_checkpoint(&v1, 1).unwrap_err();
        assert!(err.contains("missing XIACKPT v2 header"), "{err}");
    }

    #[test]
    fn digest_mismatch_is_rejected() {
        let body = render_checkpoint(1, &sample_log());
        let err = parse_checkpoint(&body, 2).unwrap_err();
        assert!(err.contains("different candidate set"), "{err}");
    }

    #[test]
    fn truncation_and_bit_flips_are_rejected() {
        let body = render_checkpoint(7, &sample_log());
        for cut in 0..body.len() {
            assert!(
                parse_checkpoint(&body[..cut], 7).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut bytes = body.clone().into_bytes();
        for i in (0..bytes.len()).step_by(3) {
            bytes[i] ^= 0x08;
            if let Ok(flipped) = std::str::from_utf8(&bytes) {
                if let Ok(entries) = parse_checkpoint(flipped, 7) {
                    // The only acceptable parse of a flipped file is one
                    // that is byte-identical in the checksummed region —
                    // impossible here since we flipped a bit.
                    panic!("bit flip at {i} accepted ({} entries)", entries.len());
                }
            }
            bytes[i] ^= 0x08;
        }
    }

    #[test]
    fn poll_latches_cancellation_deterministically() {
        let ctl = RunController::new().with_cancel_after_polls(3);
        assert_eq!(ctl.poll(), None);
        assert_eq!(ctl.poll(), None);
        assert_eq!(ctl.poll(), Some(StopReason::Cancelled));
        // Latched: further polls keep reporting the first reason.
        assert_eq!(ctl.poll(), Some(StopReason::Cancelled));
        assert_eq!(ctl.stopped(), Some(StopReason::Cancelled));
    }

    #[test]
    fn zero_deadline_expires_on_first_poll() {
        let ctl = RunController::new().with_deadline_ms(0);
        assert_eq!(ctl.poll(), Some(StopReason::Deadline));
    }

    #[test]
    fn off_handle_never_stops() {
        let ctl = RunController::off();
        assert!(!ctl.is_enabled());
        ctl.cancel();
        assert_eq!(ctl.poll(), None);
        assert_eq!(ctl.stopped(), None);
        assert!(!ctl.resumed());
    }

    #[test]
    fn explicit_cancel_latches() {
        let ctl = RunController::new();
        assert_eq!(ctl.poll(), None);
        ctl.cancel();
        assert_eq!(ctl.poll(), Some(StopReason::Cancelled));
    }

    #[test]
    fn warm_store_serves_installed_entries() {
        let ctl = RunController::new();
        let (key, entry) = sample_log().remove(0);
        // Before install: nothing, and not resumed.
        assert_eq!(ctl.warm_lookup(&key), None);
        ctl.install_warm(vec![(key.clone(), entry.clone())]);
        assert!(ctl.resumed());
        assert_eq!(ctl.warm_lookup(&key), Some(entry));
    }

    #[test]
    fn checkpoint_write_and_load_via_file() {
        let dir = std::env::temp_dir().join(format!("xia_runctl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ctl = RunController::new().with_checkpoint(&path, 1);
        // Only a checkpoint file arms the costing log (and with it the
        // per-call counter snapshots).
        assert!(ctl.checkpointing());
        assert!(!RunController::new().with_mem_budget(1).checkpointing());
        for (k, v) in sample_log() {
            ctl.record_costing(k, v);
        }
        let tel = Telemetry::new();
        assert_eq!(ctl.after_batch(0xD16, &FaultInjector::off(), &tel), None);
        assert_eq!(tel.get(Counter::CheckpointsWritten), 1);
        let back = load_checkpoint(&path, 0xD16, &FaultInjector::off()).unwrap();
        assert_eq!(back, sample_log());
        // Wrong digest → cold-start error.
        assert!(load_checkpoint(&path, 0xBAD, &FaultInjector::off()).is_err());
        // Injected checkpoint-io fault on read → cold-start error.
        let faults = FaultInjector::seeded(1).with_always(FaultSite::CheckpointIo);
        assert!(load_checkpoint(&path, 0xD16, &faults).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_fault_abandons_the_checkpoint() {
        let dir = std::env::temp_dir().join(format!("xia_runctl_w_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ctl = RunController::new().with_checkpoint(&path, 1);
        let faults = FaultInjector::seeded(1).with_always(FaultSite::CheckpointIo);
        let tel = Telemetry::new();
        let warn = ctl.after_batch(1, &faults, &tel).unwrap();
        assert!(warn.contains("abandoned"), "{warn}");
        assert!(!path.exists());
        assert_eq!(tel.get(Counter::CheckpointsWritten), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_cadence_respects_every() {
        let dir = std::env::temp_dir().join(format!("xia_runctl_c_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ctl = RunController::new().with_checkpoint(&path, 3);
        let tel = Telemetry::new();
        let off = FaultInjector::off();
        assert_eq!(ctl.after_batch(1, &off, &tel), None);
        assert_eq!(ctl.after_batch(1, &off, &tel), None);
        assert!(!path.exists());
        assert_eq!(ctl.after_batch(1, &off, &tel), None);
        assert!(path.exists());
        assert_eq!(tel.get(Counter::CheckpointsWritten), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn governor_rungs_walk_in_order() {
        let mut rung = GovernorRung::Full;
        let mut names = Vec::new();
        while let Some(next) = rung.next() {
            rung = next;
            names.push(rung.name());
        }
        assert_eq!(
            names,
            vec!["shrink_memo", "no_stmt_cache", "heuristic_only"]
        );
    }
}
