//! `pcor` — parallel Pearson correlation, the second function of the SPRINT
//! library.
//!
//! The paper's introduction: SPRINT's prototype "parallelized a key
//! statistical correlation function of important generic use to machine
//! learning algorithms (clustering, classification) in genomic data analysis"
//! (Hill et al. 2008) before `pmaxT` was added. This module reproduces it:
//! the gene × gene Pearson correlation matrix of the expression rows,
//! distributed by *row blocks* (in contrast to `pmaxT`'s permutation-count
//! distribution — the two functions exercise both decomposition styles the
//! framework supports).
//!
//! Missing values use pairwise-complete observations (R's
//! `use = "pairwise.complete.obs"`), and pairs with fewer than three shared
//! observations or zero variance yield `NaN`.

use std::any::Any;
use std::sync::Arc;

use mpi_sim::{Communicator, MASTER};
use sprint_core::matrix::Matrix;

use crate::args::Value;
use crate::framework::Master;
use crate::registry::Registry;

/// Pearson correlation of two rows over pairwise-complete cells.
pub fn pearson_pairwise(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut n = 0usize;
    let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        if x.is_nan() || y.is_nan() {
            continue;
        }
        n += 1;
        sa += x;
        sb += y;
        saa += x * x;
        sbb += y * y;
        sab += x * y;
    }
    if n < 3 {
        return f64::NAN;
    }
    let nf = n as f64;
    let cov = sab - sa * sb / nf;
    let va = saa - sa * sa / nf;
    let vb = sbb - sb * sb / nf;
    if va <= 0.0 || vb <= 0.0 {
        return f64::NAN;
    }
    (cov / (va * vb).sqrt()).clamp(-1.0, 1.0)
}

/// Serial reference: the full genes × genes correlation matrix (row-major).
///
/// ```
/// use sprint_core::matrix::Matrix;
/// use sprint::pcor::cor_matrix;
///
/// let m = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]).unwrap();
/// let c = cor_matrix(&m);
/// assert!((c[1] - 1.0).abs() < 1e-12); // rows are proportional
/// ```
pub fn cor_matrix(data: &Matrix) -> Vec<f64> {
    let n = data.rows();
    let mut out = vec![0.0f64; n * n];
    for i in 0..n {
        out[i * n + i] = 1.0;
        for j in (i + 1)..n {
            let r = pearson_pairwise(data.row(i), data.row(j));
            out[i * n + j] = r;
            out[j * n + i] = r;
        }
    }
    out
}

/// The contiguous row block assigned to `rank` of `size`: `(start, len)`.
pub fn row_block(rows: usize, size: usize, rank: usize) -> (usize, usize) {
    let base = rows / size;
    let extra = rows % size;
    let len = base + usize::from(rank < extra);
    let start = rank * base + rank.min(extra);
    (start, len)
}

/// SPMD body: broadcast the matrix, compute the local row block against all
/// rows, gather blocks on the master. Returns the full matrix on the master.
pub fn pcor_rank(comm: &Communicator, master_data: Option<&Arc<Matrix>>) -> Option<Vec<f64>> {
    let payload = if comm.is_master() {
        let m = master_data.expect("master supplies the matrix");
        Some((m.rows(), m.cols(), m.as_slice().to_vec()))
    } else {
        None
    };
    let (rows, cols, data) = comm.bcast(MASTER, payload).expect("data broadcast");
    let local = Matrix::from_vec(rows, cols, data).expect("validated dims");
    let (start, len) = row_block(rows, comm.size(), comm.rank());
    let mut block = vec![0.0f64; len * rows];
    for bi in 0..len {
        let i = start + bi;
        for j in 0..rows {
            block[bi * rows + j] = if i == j {
                1.0
            } else {
                pearson_pairwise(local.row(i), local.row(j))
            };
        }
    }
    let gathered = comm.gather(MASTER, block).expect("block gather");
    gathered.map(|blocks| {
        let mut out = Vec::with_capacity(rows * rows);
        for b in blocks {
            out.extend_from_slice(&b);
        }
        debug_assert_eq!(out.len(), rows * rows);
        out
    })
}

/// Payload key for the staged matrix.
pub const PCOR_INPUT_KEY: &str = "pcor:input";

/// Register `pcor` in the function registry.
pub fn register_pcor(registry: &mut Registry) -> u32 {
    registry.register("pcor", |ctx, _args| {
        let input: Option<Arc<Matrix>> = if ctx.comm.is_master() {
            let m: Matrix = ctx
                .payload
                .take(PCOR_INPUT_KEY)
                .expect("script must stage the dataset before calling pcor");
            Some(Arc::new(m))
        } else {
            None
        };
        pcor_rank(ctx.comm, input.as_ref()).map(|m| Box::new(m) as Box<dyn Any + Send>)
    })
}

/// Script-side typed wrapper: `pcor(X)` through the framework. Returns the
/// row-major genes × genes correlation matrix.
pub fn call_pcor(master: &Master<'_>, data: Matrix) -> Vec<f64> {
    master.stage(PCOR_INPUT_KEY, data);
    *master
        .call(
            "pcor",
            crate::args::Args::new().with("use", Value::Str("pairwise".into())),
        )
        .downcast::<Vec<f64>>()
        .expect("pcor returns the correlation matrix")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::standard_registry;
    use crate::framework::Sprint;

    const TOL: f64 = 1e-12;

    #[test]
    fn pearson_known_values() {
        // Perfect positive / negative / zero correlation.
        assert!((pearson_pairwise(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < TOL);
        assert!((pearson_pairwise(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < TOL);
        // Hand-computed: x=[1,2,3,4], y=[1,3,2,4]: r = 0.8.
        assert!((pearson_pairwise(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]) - 0.8).abs() < TOL);
    }

    #[test]
    fn pairwise_complete_na_handling() {
        let a = [1.0, 2.0, f64::NAN, 3.0, 4.0];
        let b = [2.0, 4.0, 100.0, 6.0, 8.0];
        // NA pair excluded → remaining points are exactly collinear.
        assert!((pearson_pairwise(&a, &b) - 1.0).abs() < TOL);
    }

    #[test]
    fn degenerate_pairs_are_nan() {
        // Too few shared observations.
        let a = [1.0, f64::NAN, f64::NAN, 4.0];
        let b = [2.0, 3.0, 4.0, 8.0];
        assert!(pearson_pairwise(&a, &b).is_nan());
        // Zero variance.
        assert!(pearson_pairwise(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn cor_matrix_is_symmetric_with_unit_diagonal() {
        let m = Matrix::from_vec(
            4,
            5,
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 2.0, 4.0, 6.0, 8.0, 10.0, 5.0, 3.0, 4.0, 1.0, 2.0, -1.0,
                0.5, 2.0, -3.0, 1.0,
            ],
        )
        .unwrap();
        let c = cor_matrix(&m);
        for i in 0..4 {
            assert!((c[i * 4 + i] - 1.0).abs() < TOL);
            for j in 0..4 {
                assert_eq!(c[i * 4 + j], c[j * 4 + i]);
            }
        }
        // Rows 0 and 1 are exactly proportional.
        assert!((c[1] - 1.0).abs() < TOL);
    }

    #[test]
    fn row_blocks_partition_exactly() {
        for rows in [1usize, 5, 16, 100] {
            for size in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![0u32; rows];
                for rank in 0..size {
                    let (start, len) = row_block(rows, size, rank);
                    for slot in covered.iter_mut().skip(start).take(len) {
                        *slot += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "rows={rows} size={size}");
            }
        }
    }

    #[test]
    fn parallel_pcor_equals_serial() {
        let m = Matrix::from_vec(
            6,
            8,
            (0..48)
                .map(|i| ((i * 37 % 23) as f64).sin() * 4.0 + i as f64 * 0.1)
                .collect(),
        )
        .unwrap();
        let serial = cor_matrix(&m);
        for ranks in [1usize, 2, 3, 5, 8] {
            let data = m.clone();
            let par = Sprint::new(standard_registry())
                .run(ranks, move |master| call_pcor(master, data))
                .unwrap();
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert!(
                    (a.is_nan() && b.is_nan()) || a == b,
                    "ranks={ranks}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn pcor_and_pmaxt_share_one_universe() {
        // The framework serves multiple different parallel functions in one
        // script — the SPRINT library story.
        use crate::driver::call_pmaxt;
        use sprint_core::options::PmaxtOptions;
        let m = Matrix::from_vec(
            4,
            6,
            vec![
                1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 5.0, 4.0, 6.0, 5.5, 4.5, 5.2, 2.0, 8.0, 3.0, 7.0,
                2.5, 7.5, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0,
            ],
        )
        .unwrap();
        let labels = vec![0u8, 0, 0, 1, 1, 1];
        let (out_cor, out_p) = Sprint::new(standard_registry())
            .run(3, move |master| {
                let c = call_pcor(master, m.clone());
                let p = call_pmaxt(
                    master,
                    m,
                    &labels,
                    &PmaxtOptions::default().permutations(20),
                )
                .unwrap();
                (c, p)
            })
            .unwrap();
        assert_eq!(out_cor.len(), 16);
        assert_eq!(out_p.b_used, 20);
    }
}
