//! Two-sample t statistics: Welch (unequal variances) and pooled variance.
//!
//! Sign convention: the numerator is `mean(group 1) − mean(group 0)`; the
//! permutation test is invariant to the convention, but raw statistics are
//! part of the public result so it is fixed and documented here.

use super::moments::{pivot_of, GroupSums};
use super::soa::Real;

/// Accumulate group sums for a row under the given labels, with NA exclusion
/// and pivot shifting. Returns `(g0, g1)`.
#[inline]
pub(crate) fn group_sums(row: &[f64], labels: &[u8]) -> (GroupSums, GroupSums) {
    debug_assert_eq!(row.len(), labels.len());
    let pivot = pivot_of(row);
    let mut g = [GroupSums::default(), GroupSums::default()];
    for (&v, &l) in row.iter().zip(labels) {
        if !v.is_nan() {
            g[l as usize].push(v - pivot);
        }
    }
    (g[0], g[1])
}

/// Welch two-sample t (`test = "t"`): `(m1 − m0) / sqrt(s1²/n1 + s0²/n0)`.
/// `NaN` when either group has fewer than two present values or both
/// variances vanish.
pub fn welch_t(row: &[f64], labels: &[u8]) -> f64 {
    let (g0, g1) = group_sums(row, labels);
    if g0.n < 2 || g1.n < 2 {
        return f64::NAN;
    }
    let se2 = g1.variance() / g1.n as f64 + g0.variance() / g0.n as f64;
    if se2 <= 0.0 {
        return f64::NAN;
    }
    (g1.mean() - g0.mean()) / se2.sqrt()
}

/// Pooled-variance two-sample t (`test = "t.equalvar"`).
pub fn equalvar_t(row: &[f64], labels: &[u8]) -> f64 {
    let (g0, g1) = group_sums(row, labels);
    if g0.n < 2 || g1.n < 2 {
        return f64::NAN;
    }
    let n0 = g0.n as f64;
    let n1 = g1.n as f64;
    let pooled = (g0.ss() + g1.ss()) / (n0 + n1 - 2.0);
    let se2 = pooled * (1.0 / n0 + 1.0 / n1);
    if se2 <= 0.0 {
        return f64::NAN;
    }
    (g1.mean() - g0.mean()) / se2.sqrt()
}

/// Welch t from group moments (n, Σx, Σx²), mirroring [`welch_t`] +
/// `GroupSums::variance` operation for operation (same clamps and guards).
/// Generic over the accumulation precision; at `f64` the sequence is
/// bit-for-bit the scalar one. The `se2 <= 0` guard is a select, not a
/// branch, so lane loops over it vectorize; the caller applies the
/// group-size guard the same way.
#[inline(always)]
pub(crate) fn welch_from_moments<R: Real>(n0: R, s0: R, q0: R, n1: R, s1: R, q1: R) -> R {
    let one = R::from_f64(1.0);
    let v1 = ((q1 - s1 * s1 / n1) / (n1 - one)).max(R::ZERO);
    let v0 = ((q0 - s0 * s0 / n0) / (n0 - one)).max(R::ZERO);
    let se2 = v1 / n1 + v0 / n0;
    let t = (s1 / n1 - s0 / n0) / se2.sqrt();
    if se2 <= R::ZERO {
        R::nan()
    } else {
        t
    }
}

/// Pooled-variance t from group moments, mirroring [`equalvar_t`] +
/// `GroupSums::ss` operation for operation, with the same select-guard as
/// [`welch_from_moments`].
#[inline(always)]
pub(crate) fn equalvar_from_moments<R: Real>(n0: R, s0: R, q0: R, n1: R, s1: R, q1: R) -> R {
    let one = R::from_f64(1.0);
    let ss0 = (q0 - s0 * s0 / n0).max(R::ZERO);
    let ss1 = (q1 - s1 * s1 / n1).max(R::ZERO);
    let pooled = (ss0 + ss1) / (n0 + n1 - R::from_f64(2.0));
    let se2 = pooled * (one / n0 + one / n1);
    let t = (s1 / n1 - s0 / n0) / se2.sqrt();
    if se2 <= R::ZERO {
        R::nan()
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn welch_hand_computed() {
        // g0 = [1,2,3], g1 = [4,5,7]:
        // m0 = 2, m1 = 16/3; s0² = 1, s1² = 7/3;
        // t = (10/3) / sqrt(7/9 + 1/3) = sqrt(10) ≈ 3.16227766.
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 7.0];
        let labels = [0, 0, 0, 1, 1, 1];
        assert!((welch_t(&row, &labels) - 10f64.sqrt()).abs() < TOL);
    }

    #[test]
    fn welch_vs_equalvar_differ_for_unbalanced_groups() {
        // g0 = [1,2], g1 = [4,5,6]:
        // Welch: 3.5/sqrt(0.25 + 1/3) = 4.582575695;
        // equalvar: sp² = 2.5/3, t = 3.5/sqrt(sp²·(1/2+1/3)) = 4.2.
        let row = [1.0, 2.0, 4.0, 5.0, 6.0];
        let labels = [0, 0, 1, 1, 1];
        assert!((welch_t(&row, &labels) - 4.58257569495584).abs() < TOL);
        assert!((equalvar_t(&row, &labels) - 4.2).abs() < TOL);
    }

    #[test]
    fn sign_convention_group1_minus_group0() {
        let row = [10.0, 10.0, 1.0, 1.0];
        // group1 smaller → negative statistic (needs nonzero variance).
        let row = [row[0], row[1] + 0.1, row[2], row[3] + 0.1];
        let labels = [0, 0, 1, 1];
        assert!(welch_t(&row, &labels) < 0.0);
        assert!(equalvar_t(&row, &labels) < 0.0);
    }

    #[test]
    fn label_permutation_changes_statistic() {
        let row = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0];
        let a = welch_t(&row, &[0, 0, 0, 1, 1, 1]);
        let b = welch_t(&row, &[1, 0, 0, 0, 1, 1]);
        assert_ne!(a, b);
    }

    #[test]
    fn na_values_are_excluded() {
        let row = [1.0, 2.0, f64::NAN, 4.0, 5.0, 6.0, f64::NAN];
        let labels = [0, 0, 0, 1, 1, 1, 1];
        // Equivalent to g0 = [1,2], g1 = [4,5,6].
        let clean_row = [1.0, 2.0, 4.0, 5.0, 6.0];
        let clean_labels = [0, 0, 1, 1, 1];
        assert!((welch_t(&row, &labels) - welch_t(&clean_row, &clean_labels)).abs() < TOL);
        assert!((equalvar_t(&row, &labels) - equalvar_t(&clean_row, &clean_labels)).abs() < TOL);
    }

    #[test]
    fn too_few_observations_give_nan() {
        // After NA exclusion group 1 has one value.
        let row = [1.0, 2.0, 3.0, f64::NAN];
        let labels = [0, 0, 1, 1];
        assert!(welch_t(&row, &labels).is_nan());
        assert!(equalvar_t(&row, &labels).is_nan());
    }

    #[test]
    fn zero_variance_rows_give_nan() {
        let row = [5.0; 6];
        let labels = [0, 0, 0, 1, 1, 1];
        assert!(welch_t(&row, &labels).is_nan());
        assert!(equalvar_t(&row, &labels).is_nan());
    }

    #[test]
    fn translation_invariance() {
        // Adding a constant to every value must not change t.
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 7.0];
        let shifted: Vec<f64> = row.iter().map(|v| v + 1.0e7).collect();
        let labels = [0, 0, 0, 1, 1, 1];
        let a = welch_t(&row, &labels);
        let b = welch_t(&shifted, &labels);
        assert!((a - b).abs() < 1e-6, "a={a} b={b}");
    }

    #[test]
    fn scale_invariance() {
        // Multiplying by a positive constant must not change t.
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 7.0];
        let scaled: Vec<f64> = row.iter().map(|v| v * 1000.0).collect();
        let labels = [0, 0, 0, 1, 1, 1];
        assert!((welch_t(&row, &labels) - welch_t(&scaled, &labels)).abs() < TOL);
        assert!((equalvar_t(&row, &labels) - equalvar_t(&scaled, &labels)).abs() < TOL);
    }
}
