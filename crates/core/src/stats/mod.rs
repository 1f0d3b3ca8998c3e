//! Test statistics: the six methods of `mt.maxT`/`pmaxT`, a per-run
//! dispatcher, and the data preparation step (NA canonicalization and rank
//! transforms).

pub mod block_f;
pub mod corr;
pub mod f_stat;
pub mod moments;
pub mod pair_t;
pub mod ranks;
pub mod scorer;
pub mod soa;
pub mod two_sample;
pub mod wilcoxon;

use std::borrow::Cow;

use crate::labels::{ClassLabels, Design};
use crate::matrix::Matrix;
use crate::options::TestMethod;

/// Prepare the data matrix for a run: rank-transform rows when the method is
/// Wilcoxon or `nonpara = "y"` asks for non-parametric statistics. Returns a
/// borrowed matrix when no transform is needed (zero copy).
///
/// Ranks depend only on the data, never on the label permutation, so doing
/// this once up front removes all ranking work from the permutation kernel —
/// the same optimization as the `multtest` C implementation.
pub fn prepare_matrix<'m>(data: &'m Matrix, method: TestMethod, nonpara: bool) -> Cow<'m, Matrix> {
    let needs_ranks = method == TestMethod::Wilcoxon || nonpara;
    if !needs_ranks {
        return Cow::Borrowed(data);
    }
    let mut owned = data.clone();
    let mut scratch = Vec::with_capacity(owned.cols());
    owned.map_rows_in_place(|row| ranks::midranks_in_place(row, &mut scratch));
    Cow::Owned(owned)
}

/// A per-run statistic dispatcher binding the method to its design constants
/// (class count, treatment count). `compute` is the inner call of the
/// permutation kernel.
#[derive(Debug, Clone, Copy)]
pub struct StatComputer {
    method: TestMethod,
    /// Classes for `f` / treatments for `blockf`; 2 for two-sample methods.
    k: usize,
}

impl StatComputer {
    /// Build from validated labels.
    pub fn new(method: TestMethod, labels: &ClassLabels) -> Self {
        let k = match labels.design() {
            Design::TwoSample { .. } => 2,
            Design::MultiClass { counts } => counts.len(),
            Design::Paired { .. } => 2,
            Design::Block { treatments, .. } => *treatments,
        };
        StatComputer { method, k }
    }

    /// The bound method.
    pub fn method(&self) -> TestMethod {
        self.method
    }

    /// Classes for `f` / treatments for `blockf`; 2 for the two-sample and
    /// paired designs.
    pub fn classes(&self) -> usize {
        self.k
    }

    /// Compute the statistic of one (prepared) row under a label arrangement.
    #[inline]
    pub fn compute(&self, row: &[f64], labels: &[u8]) -> f64 {
        match self.method {
            TestMethod::T => two_sample::welch_t(row, labels),
            TestMethod::TEqualVar => two_sample::equalvar_t(row, labels),
            TestMethod::Wilcoxon => wilcoxon::wilcoxon_from_ranks(row, labels),
            TestMethod::F => f_stat::oneway_f(row, labels, self.k),
            TestMethod::PairT => pair_t::paired_t(row, labels),
            TestMethod::BlockF => block_f::block_f(row, labels, self.k),
            TestMethod::Corr => corr::pearson_corr(row, labels),
            // tmax reuses the per-gene Welch t; it differs from `t` only in
            // how the maxT layer counts (single-step global max).
            TestMethod::TMax => two_sample::welch_t(row, labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TestMethod;

    fn matrix_2x4() -> Matrix {
        Matrix::from_vec(2, 4, vec![4.0, 1.0, 3.0, 2.0, 10.0, 20.0, 30.0, 40.0]).unwrap()
    }

    #[test]
    fn prepare_is_zero_copy_for_parametric() {
        let m = matrix_2x4();
        let p = prepare_matrix(&m, TestMethod::T, false);
        assert!(matches!(p, Cow::Borrowed(_)));
    }

    #[test]
    fn prepare_ranks_for_wilcoxon() {
        let m = matrix_2x4();
        let p = prepare_matrix(&m, TestMethod::Wilcoxon, false);
        assert!(matches!(p, Cow::Owned(_)));
        assert_eq!(p.row(0), &[4.0, 1.0, 3.0, 2.0]); // already rank-like values
        assert_eq!(p.row(1), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn prepare_ranks_for_nonpara() {
        let m = matrix_2x4();
        let p = prepare_matrix(&m, TestMethod::T, true);
        assert!(matches!(p, Cow::Owned(_)));
        assert_eq!(p.row(1), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dispatcher_routes_every_method() {
        // Two-sample family on a 6-column row.
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 7.0];
        let two = ClassLabels::new(vec![0, 0, 0, 1, 1, 1], TestMethod::T).unwrap();
        for method in [TestMethod::T, TestMethod::TEqualVar] {
            let c = StatComputer::new(method, &two);
            assert!(c.compute(&row, two.as_slice()).is_finite());
            assert_eq!(c.method(), method);
        }
        // Wilcoxon works on pre-ranked rows.
        let ranked = ranks::midranks(&row);
        let c = StatComputer::new(TestMethod::Wilcoxon, &two);
        assert!(c.compute(&ranked, two.as_slice()).is_finite());
        // F with three classes.
        let f_labels = ClassLabels::new(vec![0, 0, 1, 1, 2, 2], TestMethod::F).unwrap();
        let c = StatComputer::new(TestMethod::F, &f_labels);
        assert!(c.compute(&row, f_labels.as_slice()).is_finite());
        // Paired t.
        let p_labels = ClassLabels::new(vec![0, 1, 0, 1, 0, 1], TestMethod::PairT).unwrap();
        let c = StatComputer::new(TestMethod::PairT, &p_labels);
        let p_row = [1.0, 2.0, 3.0, 5.0, 2.0, 4.5];
        assert!(c.compute(&p_row, p_labels.as_slice()).is_finite());
        // Block F.
        let b_labels = ClassLabels::new(vec![0, 1, 0, 1, 0, 1], TestMethod::BlockF).unwrap();
        let c = StatComputer::new(TestMethod::BlockF, &b_labels);
        let b_row = [1.0, 2.3, 2.0, 4.1, 3.0, 6.2];
        assert!(c.compute(&b_row, b_labels.as_slice()).is_finite());
    }

    #[test]
    fn wilcoxon_equals_nonpara_rank_pipeline() {
        // Preparing with Wilcoxon and computing the rank-sum must equal
        // manually ranking then computing.
        let m = Matrix::from_vec(1, 6, vec![0.3, 2.0, -1.0, 7.0, 0.5, 4.0]).unwrap();
        let labels = ClassLabels::new(vec![0, 1, 0, 1, 0, 1], TestMethod::Wilcoxon).unwrap();
        let prepared = prepare_matrix(&m, TestMethod::Wilcoxon, false);
        let c = StatComputer::new(TestMethod::Wilcoxon, &labels);
        let via_pipeline = c.compute(prepared.row(0), labels.as_slice());
        let manual = wilcoxon::wilcoxon_from_ranks(&ranks::midranks(m.row(0)), labels.as_slice());
        assert_eq!(via_pipeline, manual);
    }
}
