//! Run-lifecycle control: deadlines, cooperative cancellation, and the
//! resource-governor budget.
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

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    mem_budget: Option<u64>,
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

    /// An enabled controller with no deadline and no memory budget; arm
    /// features builder-style before sharing clones.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(CtlInner {
                deadline: None,
                cancel: AtomicBool::new(false),
                cancel_after_polls: None,
                polls: AtomicU64::new(0),
                stopped: Mutex::new(None),
                mem_budget: None,
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
    /// `Cancelled` on the `n`-th poll. Used by the partial-result suites
    /// and `--cancel-after-polls` to stop a run at an exactly reproducible
    /// boundary.
    pub fn with_cancel_after_polls(self, n: u64) -> Self {
        self.configure(|i| i.cancel_after_polls = Some(n))
    }

    /// Arms the resource governor with an approximate cache-byte budget.
    pub fn with_mem_budget(self, bytes: u64) -> Self {
        self.configure(|i| i.mem_budget = Some(bytes))
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

    /// The governor's cache-byte budget, if armed.
    pub fn mem_budget(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|i| i.mem_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        ctl.cancel();
        assert_eq!(ctl.poll(), None);
        assert_eq!(ctl.stopped(), None);
    }

    #[test]
    fn explicit_cancel_latches() {
        let ctl = RunController::new();
        assert_eq!(ctl.poll(), None);
        ctl.cancel();
        assert_eq!(ctl.poll(), Some(StopReason::Cancelled));
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
