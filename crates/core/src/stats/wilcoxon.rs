//! Standardized Wilcoxon rank-sum statistic (`test = "wilcoxon"`).
//!
//! The row is expected to be **already rank-transformed** (see
//! [`super::prepare_matrix`]): ranks depend only on the data, so they are
//! computed once, and each permutation only re-sums them by group —
//! the same optimization as the `multtest` C implementation.
//!
//! Statistic: `(W − n1(n+1)/2) / sqrt(n0·n1·(n+1)/12)` where `W` is the rank
//! sum of group 1 and `n = n0 + n1` counts the non-missing cells. Ties were
//! given midranks by the transform; the variance term uses the classic
//! no-tie-correction form, matching `multtest`.

use super::soa::Real;

/// Standardized rank sum from the group counts and the group-1 rank sum.
/// [`wilcoxon_from_ranks`] and the lane loops both call it, so they compute
/// the same bits (the counts are whole numbers, so `n0 + n1` is exact in
/// either precision). Var[W] > 0 whenever both groups are non-empty, which
/// every caller checks first: the scalar path with an early return, the
/// lane loops with a select (so they vectorize).
#[inline(always)]
pub(crate) fn wilcoxon_from_counts<R: Real>(n0: R, n1: R, w: R) -> R {
    let one = R::from_f64(1.0);
    let n = n0 + n1;
    let expect = n1 * (n + one) / R::from_f64(2.0);
    let var = n0 * n1 * (n + one) / R::from_f64(12.0);
    (w - expect) / var.sqrt()
}

/// Compute the standardized rank sum from a rank-transformed row.
pub fn wilcoxon_from_ranks(ranks: &[f64], labels: &[u8]) -> f64 {
    debug_assert_eq!(ranks.len(), labels.len());
    let mut n0 = 0usize;
    let mut n1 = 0usize;
    let mut w = 0.0f64;
    for (&r, &l) in ranks.iter().zip(labels) {
        if r.is_nan() {
            continue;
        }
        if l == 1 {
            n1 += 1;
            w += r;
        } else {
            n0 += 1;
        }
    }
    if n0 == 0 || n1 == 0 {
        return f64::NAN;
    }
    wilcoxon_from_counts(n0 as f64, n1 as f64, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ranks::midranks;

    const TOL: f64 = 1e-9;

    #[test]
    fn hand_computed_no_ties() {
        // Values 1..6 with group 1 = last three: W = 4+5+6 = 15,
        // E = 3·7/2 = 10.5, V = 9·7/12 = 5.25 → z = 4.5/√5.25 ≈ 1.96396101.
        let ranks = midranks(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let labels = [0, 0, 0, 1, 1, 1];
        assert!((wilcoxon_from_ranks(&ranks, &labels) - 1.9639610121239315).abs() < TOL);
    }

    #[test]
    fn symmetric_labels_negate() {
        let ranks = midranks(&[3.0, 1.0, 4.0, 1.5, 5.0, 9.0]);
        let a = wilcoxon_from_ranks(&ranks, &[0, 0, 0, 1, 1, 1]);
        let b = wilcoxon_from_ranks(&ranks, &[1, 1, 1, 0, 0, 0]);
        assert!((a + b).abs() < TOL, "swapping groups must flip the sign");
    }

    #[test]
    fn monotone_transform_invariance() {
        // Wilcoxon depends only on the ordering of the data.
        let data = [0.3f64, 2.0, -1.0, 7.0, 0.5, 4.0];
        let transformed: Vec<f64> = data.iter().map(|&v| v.exp()).collect();
        let labels = [0, 1, 0, 1, 0, 1];
        let a = wilcoxon_from_ranks(&midranks(&data), &labels);
        let b = wilcoxon_from_ranks(&midranks(&transformed), &labels);
        assert!((a - b).abs() < TOL);
    }

    #[test]
    fn na_cells_do_not_count() {
        let data = [1.0, 2.0, f64::NAN, 4.0, 5.0, 6.0];
        let labels = [0, 0, 0, 1, 1, 1];
        let with_na = wilcoxon_from_ranks(&midranks(&data), &labels);
        let clean = wilcoxon_from_ranks(&midranks(&[1.0, 2.0, 4.0, 5.0, 6.0]), &[0, 0, 1, 1, 1]);
        assert!((with_na - clean).abs() < TOL);
    }

    #[test]
    fn empty_group_gives_nan() {
        let ranks = midranks(&[1.0, 2.0, 3.0]);
        assert!(wilcoxon_from_ranks(&ranks, &[0, 0, 0]).is_nan());
        // All of group 1's cells missing.
        let ranks2 = [1.0, 2.0, f64::NAN];
        assert!(wilcoxon_from_ranks(&ranks2, &[0, 0, 1]).is_nan());
    }

    #[test]
    fn balanced_extreme_split_is_maximal() {
        // Group 1 holding the top half of the ranks maximizes the statistic
        // over label arrangements of the same sizes.
        let ranks = midranks(&[10.0, 20.0, 30.0, 40.0]);
        let max = wilcoxon_from_ranks(&ranks, &[0, 0, 1, 1]);
        for labels in [
            [0, 1, 0, 1],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 1, 0],
            [1, 1, 0, 0],
        ] {
            assert!(wilcoxon_from_ranks(&ranks, &labels) <= max + TOL);
        }
    }
}
