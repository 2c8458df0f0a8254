//! Order statistics over latency samples and over repeated runs.

/// Sorts samples ascending. Timings are finite, so the order is total.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// The `p`-th percentile (0–100) of ascending `sorted` samples, linearly
/// interpolated between the two closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Percentiles the tail diagnostic may report, ascending, in tenths of a
/// percent so that "ten samples beyond" is exact integer arithmetic.
const TAIL_LADDER: [usize; 8] = [500, 750, 900, 950, 980, 990, 995, 999];

/// The highest percentile of the ladder that still has at least ten of
/// `samples` beyond it (the guide's tail rule); the median when even p75
/// has fewer.
pub fn tail_percentile(samples: usize) -> f64 {
    let per_mille = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| samples * (1000 - p) >= 10 * 1000)
        .unwrap_or(TAIL_LADDER[0]);
    per_mille as f64 / 10.0
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method
/// the acceptance rule uses). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let len = data.len();
    assert!(len >= 2, "quartiles need two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the acceptance rule compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert!((percentile(&s, 90.0) - 37.0).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(28), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(600), 98.0);
        assert_eq!(tail_percentile(1_740), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in [20usize, 56, 140, 1_200, 3_480] {
            let p = tail_percentile(n);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0, "{n} at p{p}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
