//! Per-permutation statistic streams — the `mt.sample.teststat` /
//! `mt.sample.rawp` companions of `multtest`: expose the permutation
//! distribution itself for diagnostics, QQ plots and downstream method
//! development.

use crate::admit::{admit, Entry};
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::options::PmaxtOptions;
use crate::perm::build_generator;
use crate::stats::StatComputer;

/// The permutation distribution of one gene's statistic: `stats[b]` is the
/// raw statistic under the `b`-th label arrangement (`b = 0` is the observed
/// labelling).
pub fn sample_teststats(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    gene: usize,
) -> Result<Vec<f64>> {
    if gene >= data.rows() {
        return Err(Error::BadMatrix(format!(
            "gene index {gene} out of range for {} rows",
            data.rows()
        )));
    }
    let adm = admit(data, classlabel, opts, Entry::Sample)?;
    let (labels, b) = (&adm.run.labels, adm.run.b);
    let prepared = adm.run.prepare(&adm.data);
    let computer = StatComputer::new(opts.test, labels);
    let row = prepared.row(gene);
    let mut gen = build_generator(labels, opts, b)?;
    let mut buf = vec![0u8; labels.len()];
    let mut out = Vec::with_capacity(b as usize);
    while gen.next_into(&mut buf) {
        out.push(computer.compute(row, &buf));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxt::serial::mt_maxt;
    use crate::side::Side;

    fn data() -> (Matrix, Vec<u8>) {
        (
            Matrix::from_vec(
                2,
                6,
                vec![1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 5.0, 1.0, 4.0, 2.0, 3.0, 6.0],
            )
            .unwrap(),
            vec![0, 0, 0, 1, 1, 1],
        )
    }

    #[test]
    fn first_entry_is_the_observed_statistic() {
        let (m, l) = data();
        let opts = PmaxtOptions::default().permutations(25);
        let stats = sample_teststats(&m, &l, &opts, 0).unwrap();
        assert_eq!(stats.len(), 25);
        let result = mt_maxt(&m, &l, &opts).unwrap();
        assert_eq!(stats[0], result.teststat[0]);
    }

    #[test]
    fn raw_p_recomputable_from_the_stream() {
        // The definition: rawp = #{b : score_b ≥ score_0 − ε} / B.
        let (m, l) = data();
        let opts = PmaxtOptions::default().permutations(0); // complete: 20
        for gene in 0..2 {
            let stats = sample_teststats(&m, &l, &opts, gene).unwrap();
            let obs = Side::Abs.score(stats[0]);
            let count = stats
                .iter()
                .filter(|&&s| Side::Abs.score(s) >= obs - crate::maxt::EPSILON)
                .count();
            let p = count as f64 / stats.len() as f64;
            let result = mt_maxt(&m, &l, &opts).unwrap();
            assert!((p - result.rawp[gene]).abs() < 1e-12, "gene {gene}");
        }
    }

    #[test]
    fn complete_two_sample_distribution_is_sign_symmetric() {
        // Complete enumeration of a balanced two-class design contains each
        // arrangement's mirror, so the t-statistic multiset is symmetric.
        let (m, l) = data();
        let opts = PmaxtOptions::default().permutations(0);
        let mut stats = sample_teststats(&m, &l, &opts, 0).unwrap();
        stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = stats.len();
        for i in 0..n / 2 {
            assert!(
                (stats[i] + stats[n - 1 - i]).abs() < 1e-9,
                "asymmetry at {i}: {} vs {}",
                stats[i],
                stats[n - 1 - i]
            );
        }
    }

    #[test]
    fn bootstrap_workload_is_refused() {
        // The stream of a permutation statistic: bootstrap draws are column
        // indices, not label arrangements.
        let (m, l) = data();
        let opts = PmaxtOptions::default()
            .permutations(5)
            .workload(crate::options::Workload::Bootstrap);
        assert!(matches!(
            sample_teststats(&m, &l, &opts, 0),
            Err(Error::BadOption {
                param: "workload",
                ..
            })
        ));
    }

    #[test]
    fn out_of_range_gene_rejected() {
        let (m, l) = data();
        let opts = PmaxtOptions::default().permutations(5);
        assert!(matches!(
            sample_teststats(&m, &l, &opts, 2),
            Err(Error::BadMatrix(_))
        ));
    }
}
