//! Order statistics used for every reported timing.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
/// Empty input reads 0 so a layer that did no work reports 0, not NaN.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the median (the mean of the two middle
/// values for an even count, as Python's `statistics.median`).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// The tail percentiles the harness may report, lowest first.
const TAILS: [(&str, f64); 5] =
    [("p90", 0.90), ("p95", 0.95), ("p99", 0.99), ("p99.9", 0.999), ("p99.99", 0.9999)];

/// The highest tail percentile that still has at least ten samples
/// beyond it, or `None` below 100 samples. A percentile with fewer
/// samples above it is one or two outliers, not a tail.
pub fn highest_supported_tail(n: usize) -> Option<(&'static str, f64)> {
    TAILS.iter().rev().find(|(_, q)| (n as f64) * (1.0 - q) >= 10.0 - 1e-9).copied()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let at = |k: usize| {
        // 1-based position k(n+1)/4, clamped into [1, n-1] like CPython.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100).unwrap().0, "p90");
        assert_eq!(highest_supported_tail(199).unwrap().0, "p90");
        assert_eq!(highest_supported_tail(200).unwrap().0, "p95");
        assert_eq!(highest_supported_tail(999).unwrap().0, "p95");
        assert_eq!(highest_supported_tail(1000).unwrap().0, "p99");
        assert_eq!(highest_supported_tail(10_000).unwrap().0, "p99.9");
        assert_eq!(highest_supported_tail(45_000).unwrap().0, "p99.9");
        assert_eq!(highest_supported_tail(100_000).unwrap().0, "p99.99");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
