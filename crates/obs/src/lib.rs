//! # xia-obs
//!
//! Std-only telemetry for the XML Index Advisor: the measurement substrate
//! behind the paper's own evaluation artifacts (Fig. 3 advisor time,
//! Table III candidate counts, the benefit-cache ablation).
//!
//! Three pieces:
//!
//! * [`Telemetry`] — a cheap, cloneable handle. Cloning shares the
//!   underlying sinks; [`Telemetry::off`] yields a no-op handle whose
//!   every operation is a branch on `None`.
//! * [`Counter`] — the advisor's named event counters (optimizer
//!   invocations per mode, benefit-cache hits/misses, candidates
//!   enumerated/generalized/admitted/pruned, …), stored as one atomic
//!   per counter.
//! * [`TraceReport`] — a structured snapshot (counters + nested phase
//!   timings + optional per-statement costs) serializable to JSON and
//!   pretty text with a hand-rolled emitter (no serde; the build
//!   environment has no registry access).
//!
//! Phase timers are RAII scopes: [`Telemetry::span`] returns a guard that
//! records elapsed time into a tree on drop. Re-entering a phase name
//! under the same parent merges into one node (accumulating time and call
//! count), so hot loops produce bounded trees.

mod counter;
pub mod event;
mod hist;
pub mod journal;
pub mod json;
pub mod provenance;
mod report;
mod span;

pub use counter::Counter;
pub use event::{Event, PruneReason};
pub use hist::{Hist, HistSummary, LatencyHistogram};
pub use journal::EventJournal;
pub use report::{hist_summary_to_json, StatementTrace, TraceReport};
pub use span::SpanSnapshot;

use span::SpanStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    counters: [AtomicU64; Counter::COUNT],
    spans: Mutex<SpanStore>,
    hists: [Mutex<LatencyHistogram>; Hist::COUNT],
}

/// Cheap handle to a shared telemetry sink. See the crate docs.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Default for Telemetry {
    /// Defaults to an *enabled* handle (the advisor is observable unless
    /// explicitly opted out).
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh, enabled telemetry sink.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                spans: Mutex::new(SpanStore::default()),
                hists: std::array::from_fn(|_| Mutex::new(LatencyHistogram::new())),
            })),
        }
    }

    /// A disabled handle: every operation is a no-op.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter (0 on a disabled handle).
    pub fn get(&self, counter: Counter) -> u64 {
        match &self.inner {
            Some(inner) => inner.counters[counter.index()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Zeroes all counters and clears the span tree. Only call between
    /// phases — open spans are discarded.
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            for c in &inner.counters {
                c.store(0, Ordering::Relaxed);
            }
            inner.spans.lock().expect("span store poisoned").clear();
            for h in &inner.hists {
                *h.lock().expect("histogram poisoned") = LatencyHistogram::new();
            }
        }
    }

    /// Records one latency sample, in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, hist: Hist, nanos: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[hist.index()]
                .lock()
                .expect("histogram poisoned")
                .record(nanos);
        }
    }

    /// Records one latency sample from a [`Duration`].
    #[inline]
    pub fn record(&self, hist: Hist, elapsed: Duration) {
        if self.inner.is_some() {
            self.record_nanos(hist, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// A clone of a named histogram's current state (empty on a disabled
    /// handle).
    pub(crate) fn hist_snapshot(&self, hist: Hist) -> LatencyHistogram {
        match &self.inner {
            Some(inner) => inner.hists[hist.index()]
                .lock()
                .expect("histogram poisoned")
                .clone(),
            None => LatencyHistogram::new(),
        }
    }

    /// Condensed summary of a named histogram.
    pub fn hist_summary(&self, hist: Hist) -> HistSummary {
        match &self.inner {
            Some(inner) => inner.hists[hist.index()]
                .lock()
                .expect("histogram poisoned")
                .summary(),
            None => HistSummary::default(),
        }
    }

    /// Folds another sink's histograms into this one (used by the what-if
    /// worker merge; the fold is associative and commutative, so merge
    /// order cannot change the result).
    pub fn merge_hists_from(&self, other: &Telemetry) {
        if let (Some(inner), Some(_)) = (&self.inner, &other.inner) {
            for h in Hist::ALL {
                let scratch = other.hist_snapshot(h);
                if scratch.count() > 0 {
                    inner.hists[h.index()]
                        .lock()
                        .expect("histogram poisoned")
                        .merge_from(&scratch);
                }
            }
        }
    }

    /// Opens a named phase scope; time accrues to the tree node for
    /// `name` under the currently open span when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let inner = self.inner.clone();
        if let Some(inner) = &inner {
            inner.spans.lock().expect("span store poisoned").enter(name);
        }
        SpanGuard {
            inner,
            start: Instant::now(),
        }
    }

    /// All counters with their current values, in declaration order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }

    /// Snapshot of the phase-timing tree roots.
    pub fn span_snapshots(&self) -> Vec<SpanSnapshot> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("span store poisoned").snapshot(),
            None => Vec::new(),
        }
    }

    /// Total microseconds accrued to spans named `name`, summed over the
    /// whole tree (a phase may appear under several parents).
    pub fn span_micros(&self, name: &str) -> u64 {
        fn walk(nodes: &[SpanSnapshot], name: &str, acc: &mut u64) {
            for n in nodes {
                if n.name == name {
                    *acc += n.micros;
                }
                walk(&n.children, name, acc);
            }
        }
        let mut acc = 0;
        walk(&self.span_snapshots(), name, &mut acc);
        acc
    }

    /// Builds a [`TraceReport`] from the current counters and span tree.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            counters: self
                .counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            dropped_events: 0,
            phases: self.span_snapshots(),
            latencies: Hist::ALL
                .iter()
                .map(|&h| (h.name().to_string(), self.hist_summary(h)))
                .collect(),
            statements: Vec::new(),
        }
    }
}

/// RAII guard returned by [`Telemetry::span`]; closes the phase on drop.
#[must_use = "dropping the guard immediately records a zero-length span"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            inner
                .spans
                .lock()
                .expect("span store poisoned")
                .exit(self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let t = Telemetry::new();
        t.incr(Counter::OptimizerEvaluateCalls);
        t.add(Counter::OptimizerEvaluateCalls, 4);
        t.add(Counter::EstIndexBytes, 1024);
        assert_eq!(t.get(Counter::OptimizerEvaluateCalls), 5);
        assert_eq!(t.get(Counter::EstIndexBytes), 1024);
        assert_eq!(t.get(Counter::BenefitCacheHits), 0);
        t.reset();
        assert_eq!(t.get(Counter::OptimizerEvaluateCalls), 0);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::new();
        let u = t.clone();
        u.incr(Counter::GreedyIterations);
        assert_eq!(t.get(Counter::GreedyIterations), 1);
    }

    #[test]
    fn off_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        t.incr(Counter::GreedyIterations);
        assert_eq!(t.get(Counter::GreedyIterations), 0);
        let _g = t.span("phase");
        drop(_g);
        assert!(t.span_snapshots().is_empty());
    }

    #[test]
    fn spans_nest_and_merge_by_name() {
        let t = Telemetry::new();
        {
            let _outer = t.span("advise");
            for _ in 0..3 {
                let _inner = t.span("evaluate");
            }
            let _other = t.span("search");
        }
        let roots = t.span_snapshots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "advise");
        assert_eq!(roots[0].calls, 1);
        let children: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(children, vec!["evaluate", "search"]);
        assert_eq!(roots[0].children[0].calls, 3);
    }

    #[test]
    fn sibling_roots_are_separate() {
        let t = Telemetry::new();
        drop(t.span("a"));
        drop(t.span("b"));
        drop(t.span("a"));
        let roots = t.span_snapshots();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].calls, 2);
    }

    #[test]
    fn span_micros_sums_across_parents() {
        let t = Telemetry::new();
        {
            let _a = t.span("search");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _b = t.span("evaluate");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _c = t.span("evaluate");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // "evaluate" accrues under "search" and at the root: both count.
        assert!(t.span_micros("evaluate") >= 3_000);
        assert!(t.span_micros("search") >= 3_000);
        assert_eq!(t.span_micros("missing"), 0);
    }

    #[test]
    fn histograms_record_merge_and_reset() {
        let t = Telemetry::new();
        t.record(Hist::WhatIfCall, Duration::from_micros(10));
        t.record_nanos(Hist::ContainCheck, 500);
        assert_eq!(t.hist_summary(Hist::WhatIfCall).count, 1);
        let scratch = Telemetry::new();
        scratch.record(Hist::WhatIfCall, Duration::from_micros(20));
        t.merge_hists_from(&scratch);
        let s = t.hist_summary(Hist::WhatIfCall);
        assert_eq!(s.count, 2);
        assert!(s.max_ns >= 20_000);
        t.reset();
        assert_eq!(t.hist_summary(Hist::WhatIfCall).count, 0);
        assert_eq!(t.hist_summary(Hist::ContainCheck).count, 0);
    }

    #[test]
    fn off_handle_histograms_are_inert() {
        let t = Telemetry::off();
        t.record(Hist::WhatIfCall, Duration::from_micros(10));
        assert_eq!(t.hist_summary(Hist::WhatIfCall), HistSummary::default());
        assert_eq!(t.hist_snapshot(Hist::WhatIfCall).count(), 0);
    }

    #[test]
    fn span_latency_percentiles_populate() {
        let t = Telemetry::new();
        for _ in 0..4 {
            let _g = t.span("evaluate");
        }
        let roots = t.span_snapshots();
        assert_eq!(roots[0].latency.count, 4);
        assert!(roots[0].latency.max_ns >= roots[0].latency.p50_ns);
    }

    #[test]
    fn every_counter_appears_in_the_report() {
        let t = Telemetry::new();
        let report = t.report();
        assert_eq!(report.counters.len(), Counter::COUNT);
        let names: std::collections::HashSet<_> =
            report.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names.len(), Counter::COUNT, "duplicate counter names");
    }
}
