//! `mt_maxt` — the serial reference implementation, equivalent to the R/C
//! `mt.maxT` function that `pmaxT` parallelizes. The parallel driver is
//! tested for bit-identical agreement with this function.

use crate::admit::{admit, Entry};
use crate::error::Result;
use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::maxt::engine::maxt_on;
use crate::maxt::MaxTResult;
use crate::options::PmaxtOptions;

/// Run the full serial permutation test.
///
/// ```
/// use sprint_core::matrix::Matrix;
/// use sprint_core::options::PmaxtOptions;
/// use sprint_core::maxt::serial::mt_maxt;
///
/// // Two genes, four samples, two classes.
/// let data = Matrix::from_vec(2, 4, vec![
///     1.0, 2.0, 8.0, 9.0, // strongly differential
///     5.0, 1.0, 4.0, 2.0, // noise
/// ]).unwrap();
/// let result = mt_maxt(&data, &[0, 0, 1, 1], &PmaxtOptions::default().permutations(0)).unwrap();
/// assert_eq!(result.b_used, 6); // complete enumeration of C(4,2)
/// assert!(result.rawp[0] < result.rawp[1]);
/// ```
pub fn mt_maxt(data: &Matrix, classlabel: &[u8], opts: &PmaxtOptions) -> Result<MaxTResult> {
    // Dispatch through the batched multi-threaded engine with the geometry
    // resolved from the options and environment. Any geometry produces
    // bit-identical results (see `crate::maxt::engine`), so this stays the
    // serial *reference* in the semantic sense while using the hardware.
    let adm = admit(data, classlabel, opts, Entry::MaxT { engine: None })?;
    maxt_on(&adm.run, &adm.data)
}

/// Admission for the in-process maxT entry ([`crate::admit`]) plus the rank
/// transform, as owned parts: the labels, the resolved permutation count and
/// the prepared matrix. Alternative backends (e.g. the bench crates) run the
/// same pipeline through it without re-implementing any of it.
pub fn prepare_run(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
) -> Result<(ClassLabels, u64, Matrix)> {
    let adm = admit(data, classlabel, opts, Entry::MaxT { engine: None })?;
    let prepared = adm.run.prepare(&adm.data).into_owned();
    Ok((adm.run.labels, adm.run.b, prepared))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::options::TestMethod;
    use crate::side::Side;

    fn two_class_data() -> (Matrix, Vec<u8>) {
        // 3 genes x 6 samples; gene 0 strongly differential.
        let data = Matrix::from_vec(
            3,
            6,
            vec![
                1.0, 2.0, 1.5, 9.0, 10.0, 9.5, // differential
                5.0, 4.0, 6.0, 5.5, 4.5, 5.2, // flat
                2.0, 8.0, 3.0, 7.0, 2.5, 7.5, // noisy
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn differential_gene_is_most_significant() {
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().permutations(0); // complete: C(6,3)=20
        let r = mt_maxt(&data, &labels, &opts).unwrap();
        assert_eq!(r.b_used, 20);
        assert_eq!(r.order[0], 0, "gene 0 should rank first");
        // Two-sided complete test: min possible p = 2/20.
        assert!((r.rawp[0] - 0.1).abs() < 1e-12);
        assert!(r.rawp[1] > r.rawp[0]);
    }

    #[test]
    fn all_methods_run_end_to_end() {
        let (data, two) = two_class_data();
        for (method, labels) in [
            (TestMethod::T, two.clone()),
            (TestMethod::TEqualVar, two.clone()),
            (TestMethod::Wilcoxon, two.clone()),
            (TestMethod::F, vec![0, 0, 1, 1, 2, 2]),
            (TestMethod::PairT, vec![0, 1, 0, 1, 0, 1]),
            (TestMethod::BlockF, vec![0, 1, 0, 1, 0, 1]),
        ] {
            let opts = PmaxtOptions::default().test(method).permutations(50);
            let r =
                mt_maxt(&data, &labels, &opts).unwrap_or_else(|e| panic!("{method:?} failed: {e}"));
            assert_eq!(r.b_used, 50);
            for g in 0..3 {
                let p = r.rawp[g];
                assert!(
                    p.is_nan() || (0.0 < p && p <= 1.0),
                    "{method:?} gene {g} p={p}"
                );
            }
        }
    }

    #[test]
    fn sides_differ_appropriately() {
        let (data, labels) = two_class_data();
        // Gene 0: group 1 larger, so statistic (m1-m0) is positive — upper
        // side should be more significant than lower.
        let upper = mt_maxt(
            &data,
            &labels,
            &PmaxtOptions::default().side(Side::Upper).permutations(0),
        )
        .unwrap();
        let lower = mt_maxt(
            &data,
            &labels,
            &PmaxtOptions::default().side(Side::Lower).permutations(0),
        )
        .unwrap();
        assert!(upper.rawp[0] < lower.rawp[0]);
    }

    #[test]
    fn na_code_is_applied() {
        let data = Matrix::from_vec(1, 6, vec![1.0, 2.0, -999.0, 9.0, 10.0, 9.5]).unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let with_code = mt_maxt(
            &data,
            &labels,
            &PmaxtOptions::default().na_code(-999.0).permutations(0),
        )
        .unwrap();
        let data_nan = Matrix::from_vec(1, 6, vec![1.0, 2.0, f64::NAN, 9.0, 10.0, 9.5]).unwrap();
        let with_nan =
            mt_maxt(&data_nan, &labels, &PmaxtOptions::default().permutations(0)).unwrap();
        assert_eq!(with_code.rawp, with_nan.rawp);
        assert_eq!(with_code.teststat, with_nan.teststat);
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let (data, _) = two_class_data();
        let err = mt_maxt(&data, &[0, 1], &PmaxtOptions::default()).unwrap_err();
        assert!(matches!(err, Error::BadLabels(_)));
    }

    #[test]
    fn nonpara_equals_manual_rank_transform() {
        let (data, labels) = two_class_data();
        let opts = PmaxtOptions::default().nonpara(true).permutations(40);
        let nonpara = mt_maxt(&data, &labels, &opts).unwrap();
        // Manually rank-transform and run parametric.
        let mut ranked = data.clone();
        let mut scratch = Vec::new();
        ranked.map_rows_in_place(|row| crate::stats::ranks::midranks_in_place(row, &mut scratch));
        let manual = mt_maxt(&ranked, &labels, &PmaxtOptions::default().permutations(40)).unwrap();
        assert_eq!(nonpara.rawp, manual.rawp);
        assert_eq!(nonpara.adjp, manual.adjp);
    }

    #[test]
    fn stored_and_fixed_seed_sample_different_but_valid() {
        let (data, labels) = two_class_data();
        let fixed = mt_maxt(&data, &labels, &PmaxtOptions::default().permutations(100)).unwrap();
        let stored = mt_maxt(
            &data,
            &labels,
            &PmaxtOptions::default()
                .permutations(100)
                .fixed_seed_sampling("n")
                .unwrap(),
        )
        .unwrap();
        // Different Monte-Carlo streams, but both valid probabilities and the
        // same observed statistics.
        assert_eq!(fixed.teststat, stored.teststat);
        for g in 0..3 {
            assert!(stored.rawp[g] > 0.0 && stored.rawp[g] <= 1.0);
        }
    }

    #[test]
    fn wilcoxon_complete_is_exact() {
        // Perfectly separated gene: under |z| the observed split is one of
        // the 2 most extreme of 20 → rawp = 2/20.
        let data = Matrix::from_vec(1, 6, vec![1.0, 2.0, 3.0, 10.0, 11.0, 12.0]).unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let r = mt_maxt(
            &data,
            &labels,
            &PmaxtOptions::default()
                .test(TestMethod::Wilcoxon)
                .permutations(0),
        )
        .unwrap();
        assert_eq!(r.b_used, 20);
        assert!((r.rawp[0] - 0.1).abs() < 1e-12);
    }
}
