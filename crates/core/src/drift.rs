//! Workload drift detection over compressed-template mass.
//!
//! The serving layer re-advises only when the observed workload's
//! *distribution* moved, not on every statement. CoPhy-style templates
//! ([`xia_xpath::template_key`]) are the natural unit: parameter
//! variations of one shape fold into one template, so drift measures a
//! change in what kinds of statements run, not in their literals.
//!
//! [`DriftTracker`] keeps a frequency-mass histogram keyed by template
//! fingerprint. At each recommendation the current histogram is
//! snapshotted as the *baseline*; afterwards,
//! [`drift`](DriftTracker::drift) is the total-variation distance between
//! the normalized current and baseline distributions — `0` when nothing
//! changed, `1` when the workloads are disjoint. Crossing a configured
//! threshold means the last recommendation was computed for a workload
//! that no longer resembles the live one.
//!
//! The tracker is a pure function of the observation sequence (FNV
//! fingerprints, insertion-ordered accumulation), so concurrent sessions
//! fed the same statements report byte-identical drift.

use std::collections::HashMap;
use xia_xpath::{template_fingerprint, Statement};

/// Template-mass drift detector. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct DriftTracker {
    /// Frequency mass per template fingerprint, observed so far.
    current: HashMap<u64, f64>,
    /// The histogram as of the last [`DriftTracker::rebaseline`].
    baseline: HashMap<u64, f64>,
}

impl DriftTracker {
    /// An empty tracker (empty baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one observed statement's frequency mass.
    pub fn observe(&mut self, statement: &Statement, freq: f64) {
        let fp = template_fingerprint(statement);
        *self.current.entry(fp).or_insert(0.0) += freq.max(0.0);
    }

    /// Total-variation distance between the normalized current and
    /// baseline template-mass distributions, in `[0, 1]`. An empty
    /// baseline against a non-empty current is full drift (`1`); two
    /// empty histograms are at rest (`0`).
    pub fn drift(&self) -> f64 {
        let cur_total: f64 = self.current.values().sum();
        let base_total: f64 = self.baseline.values().sum();
        match (cur_total > 0.0, base_total > 0.0) {
            (false, false) => return 0.0,
            (true, false) | (false, true) => return 1.0,
            (true, true) => {}
        }
        // Accumulate in sorted-fingerprint order: float addition is not
        // associative and HashMap iteration order is randomly seeded, so
        // an unsorted sum would differ bit-for-bit between processes.
        let mut fps: Vec<u64> = self.current.keys().copied().collect();
        fps.extend(
            self.baseline
                .keys()
                .copied()
                .filter(|fp| !self.current.contains_key(fp)),
        );
        fps.sort_unstable();
        let mut tv = 0.0;
        for fp in fps {
            let cur = self.current.get(&fp).copied().unwrap_or(0.0);
            let base = self.baseline.get(&fp).copied().unwrap_or(0.0);
            tv += (cur / cur_total - base / base_total).abs();
        }
        (tv / 2.0).clamp(0.0, 1.0)
    }

    /// Snapshots the current histogram as the new baseline (called after
    /// each recommendation), returning drift to zero.
    pub fn rebaseline(&mut self) {
        self.baseline = self.current.clone();
    }

    /// Distinct templates observed so far.
    pub fn templates(&self) -> usize {
        self.current.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(text: &str) -> Statement {
        xia_xpath::parse_statement(text).unwrap()
    }

    #[test]
    fn fresh_tracker_is_at_rest_until_observed() {
        let mut d = DriftTracker::new();
        assert_eq!(d.drift(), 0.0);
        d.observe(
            &stmt(r#"for $s in S('C')/a where $s/b = "x" return $s"#),
            1.0,
        );
        assert_eq!(d.drift(), 1.0, "anything vs empty baseline is full drift");
        d.rebaseline();
        assert_eq!(d.drift(), 0.0);
    }

    #[test]
    fn parameter_variations_do_not_drift() {
        let mut d = DriftTracker::new();
        d.observe(
            &stmt(r#"for $s in S('C')/a where $s/b = "x" return $s"#),
            1.0,
        );
        d.rebaseline();
        for v in ["y", "z", "w"] {
            d.observe(
                &stmt(&format!(
                    r#"for $s in S('C')/a where $s/b = "{v}" return $s"#
                )),
                1.0,
            );
        }
        assert_eq!(
            d.drift(),
            0.0,
            "equality-literal variations share one template"
        );
    }

    #[test]
    fn shifting_mass_to_a_new_template_drifts_proportionally() {
        let mut d = DriftTracker::new();
        d.observe(
            &stmt(r#"for $s in S('C')/a where $s/b = "x" return $s"#),
            1.0,
        );
        d.rebaseline();
        // Equal mass on a brand-new template: current = (1/2, 1/2),
        // baseline = (1, 0) → TV = 1/2.
        d.observe(&stmt(r#"for $s in S('C')/a where $s/c = 1 return $s"#), 1.0);
        assert!((d.drift() - 0.5).abs() < 1e-12, "got {}", d.drift());
        d.rebaseline();
        assert_eq!(d.drift(), 0.0);
    }

    #[test]
    fn drift_is_deterministic_across_interleavings() {
        let a = r#"for $s in S('C')/a where $s/b = "x" return $s"#;
        let b = r#"for $s in S('C')/a where $s/c = 1 return $s"#;
        let mut d1 = DriftTracker::new();
        let mut d2 = DriftTracker::new();
        for _ in 0..3 {
            d1.observe(&stmt(a), 1.0);
            d1.observe(&stmt(b), 2.0);
        }
        for _ in 0..3 {
            d2.observe(&stmt(b), 2.0);
        }
        for _ in 0..3 {
            d2.observe(&stmt(a), 1.0);
        }
        assert_eq!(d1.drift().to_bits(), d2.drift().to_bits());
        assert_eq!(d1.templates(), 2);
    }

    #[test]
    fn negative_frequencies_are_clamped() {
        let mut d = DriftTracker::new();
        d.observe(
            &stmt(r#"for $s in S('C')/a where $s/b = "x" return $s"#),
            -5.0,
        );
        assert_eq!(d.drift(), 0.0, "clamped mass must not poison the totals");
    }
}
