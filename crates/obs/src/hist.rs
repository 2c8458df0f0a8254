//! Log-bucketed latency histograms (HDR-style).
//!
//! Fixed u64 bucket layout: values below 16 get exact buckets; above
//! that, each power-of-two octave is split into 8 linear sub-buckets
//! (3 significant bits), for 496 buckets total covering the full u64
//! range. Relative quantile error is bounded by one sub-bucket width
//! (≤ 12.5%), which is plenty for latency percentiles.
//!
//! Histograms are *mergeable*: [`LatencyHistogram::merge_from`] is
//! element-wise saturating addition plus min/max folding, which is
//! associative and commutative — per-worker scratch histograms can be
//! folded into the shared sink in any order with the same result (the
//! same guarantee the counter merge relies on).

/// Significant bits kept per octave (8 sub-buckets).
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// Exact buckets for values in `0..2*SUBS`.
const EXACT: usize = (2 * SUBS) as usize;
/// Total bucket count: 16 exact + 60 octaves × 8 sub-buckets.
pub const NUM_BUCKETS: usize = EXACT + (63 - SUB_BITS as usize) * SUBS as usize;

/// Bucket index for a recorded value.
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUBS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS + 1
        let octave = (msb - SUB_BITS) as usize; // ≥ 1
        let sub = ((v >> (msb - SUB_BITS)) - SUBS) as usize; // 0..SUBS
        EXACT + (octave - 1) * SUBS as usize + sub
    }
}

/// Inclusive upper bound of a bucket (the value reported for quantiles
/// that land in it), clamped to `u64::MAX` for the topmost bucket.
fn bucket_upper(idx: usize) -> u64 {
    if idx < EXACT {
        idx as u64
    } else {
        let rel = idx - EXACT;
        let octave = (rel / SUBS as usize + 1) as u32;
        let sub = (rel % SUBS as usize) as u64;
        let upper = ((SUBS + sub + 1) as u128) << octave;
        u64::try_from(upper - 1).unwrap_or(u64::MAX)
    }
}

/// A fixed-bucket log histogram of u64 samples (nanoseconds, typically).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    /// Saturating sum of all samples (mean estimation).
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v as u128);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 with no samples).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample (0 with no samples).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of the recorded samples (0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `q`-ranked sample, clamped to the exact observed max. Returns 0
    /// with no samples; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`. Associative and commutative (saturating
    /// adds of non-negative counts), so worker merge order cannot change
    /// the result.
    pub fn merge_from(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Condensed summary for reports and snapshots.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
            max_ns: self.max(),
        }
    }
}

/// Condensed histogram summary: the fields reports carry (the full bucket
/// array stays inside the sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Median, in nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, in nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, in nanoseconds.
    pub p99_ns: u64,
    /// Exact observed maximum, in nanoseconds.
    pub max_ns: u64,
}

/// Named latency histograms tracked by a [`crate::Telemetry`] sink.
/// Per-phase wall time comes from the span tree (each span node keeps its
/// own per-call histogram); these cover the hot per-call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// One what-if optimizer call (`Optimizer::try_plan_cost`) during
    /// benefit evaluation or baseline costing.
    WhatIfCall,
    /// One containment check answered through the evaluator
    /// (`BenefitEvaluator::covers`), cache hit or full NFA search.
    ContainCheck,
}

impl Hist {
    /// All histograms, in declaration order.
    pub const ALL: [Hist; 2] = [Hist::WhatIfCall, Hist::ContainCheck];

    /// Number of histograms.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in reports and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            Hist::WhatIfCall => "what_if_call",
            Hist::ContainCheck => "contain_check",
        }
    }

    /// Slot index in the sink's histogram array.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 1234);
        assert_eq!(h.max(), 1234);
        // Quantiles clamp to the exact max, so a single sample is exact.
        assert_eq!(h.quantile(0.0), 1234);
        assert_eq!(h.quantile(0.5), 1234);
        assert_eq!(h.quantile(1.0), 1234);
    }

    #[test]
    fn u64_max_sample_is_representable() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile(0.25), 0);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let probes: Vec<u64> = (0..64)
            .flat_map(|b| {
                let v = 1u64 << b;
                [v.saturating_sub(1), v, v.saturating_add(1)]
            })
            .chain([0, 7, 15, 16, 100, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut prev = 0usize;
        for v in sorted {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= prev, "bucket index not monotone at {v}");
            assert!(bucket_upper(idx) >= v, "upper bound below member {v}");
            prev = idx;
        }
    }

    #[test]
    fn quantile_error_is_within_one_sub_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let est = h.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 0.125, "q={q}: est {est} vs {exact} (err {err})");
        }
    }

    /// Deterministic xorshift for the property tests (no external crates,
    /// no wall-clock seeding).
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn random_histogram(seed: u64, samples: usize) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        let mut s = seed.max(1);
        for _ in 0..samples {
            // Mix magnitudes: shift a 64-bit draw by a random amount so
            // every octave gets traffic.
            let v = xorshift(&mut s) >> (xorshift(&mut s) % 64);
            h.record(v);
        }
        h
    }

    fn assert_same(a: &LatencyHistogram, b: &LatencyHistogram) {
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.count, b.count);
        assert_eq!(a.sum, b.sum);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }

    /// Property: merge(a, merge(b, c)) == merge(merge(a, b), c), across
    /// random histograms including empty and saturated ones.
    #[test]
    fn merge_is_associative() {
        for seed in 1..=20u64 {
            let a = random_histogram(seed, 200);
            let b = random_histogram(seed.wrapping_mul(0x9E37_79B9), 150);
            let mut c = random_histogram(seed.wrapping_mul(0xBF58_476D), 0);
            if seed % 3 == 0 {
                // Saturation edge: counts near u64::MAX still merge
                // associatively (saturating adds of non-negatives).
                c.count = u64::MAX - 1;
                c.buckets[0] = u64::MAX - 1;
                c.min = 0;
            }
            let mut left = b.clone();
            left.merge_from(&c);
            let mut lhs = a.clone();
            lhs.merge_from(&left);

            let mut right = a.clone();
            right.merge_from(&b);
            right.merge_from(&c);

            assert_same(&lhs, &right);
        }
    }

    #[test]
    fn merge_is_commutative_and_identity_on_empty() {
        let a = random_histogram(7, 100);
        let b = random_histogram(11, 100);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_same(&ab, &ba);

        let mut with_empty = a.clone();
        with_empty.merge_from(&LatencyHistogram::new());
        assert_same(&with_empty, &a);
    }

    #[test]
    fn hist_names_are_unique_and_indices_dense() {
        let mut seen = std::collections::HashSet::new();
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
            assert!(seen.insert(h.name()), "duplicate name {}", h.name());
        }
    }
}
