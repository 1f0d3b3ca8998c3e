//! Order statistics for reported timings: the median, and a percentile only
//! when at least ten samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the report considers, in per mille, highest first.
const PERCENTILES: [u32; 3] = [999, 990, 900];

/// Linear-interpolation (type 7) quantile of ascending-sorted values.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    match sorted.get(lo + 1) {
        Some(&next) => sorted[lo] + (h - lo as f64) * (next - sorted[lo]),
        None => sorted[lo],
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// How many of `n` samples lie beyond the `permille` percentile.
pub fn samples_beyond(n: usize, permille: u32) -> usize {
    n * (1000 - permille.min(1000) as usize) / 1000
}

/// The `permille` percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (a p90 needs at least 100 samples).
pub fn percentile(values: &[f64], permille: u32) -> Option<f64> {
    (samples_beyond(values.len(), permille) >= MIN_BEYOND)
        .then(|| quantile_sorted(&sorted(values), f64::from(permille) / 1000.0))
}

/// The highest considered percentile (per mille) that `n` samples support.
pub fn highest_valid_percentile(n: usize) -> Option<u32> {
    PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// The metric-name label of a per-mille percentile: 900 → `p90`,
/// 999 → `p99.9`.
pub fn label(permille: u32) -> String {
    match permille % 10 {
        0 => format!("p{}", permille / 10),
        tenth => format!("p{}.{tenth}", permille / 10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 900), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Position 99 * 0.9 = 89.1 between the 90th and 91st values.
        let p90 = percentile(&v, 900).expect("100 samples support a p90");
        assert!((p90 - 90.1).abs() < 1e-9, "p90 = {p90}");
        assert_eq!(samples_beyond(100, 900), 10);
        assert_eq!(samples_beyond(99, 900), 9);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_valid_percentile(0), None);
        assert_eq!(highest_valid_percentile(99), None);
        assert_eq!(highest_valid_percentile(100), Some(900));
        assert_eq!(highest_valid_percentile(999), Some(900));
        assert_eq!(highest_valid_percentile(1000), Some(990));
        assert_eq!(highest_valid_percentile(10_000), Some(999));
        assert_eq!(
            (label(900), label(990), label(999)),
            ("p90".into(), "p99".into(), "p99.9".into())
        );
    }
}
