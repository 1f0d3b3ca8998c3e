//! Oracle cross-check: an independent, textbook re-implementation of the
//! Westfall–Young step-down maxT procedure (Ge, Dudoit & Speed 2003,
//! Box 2) written directly in this test — no shared code with the kernel
//! beyond the statistic functions — compared against `mt_maxt` on complete
//! enumerations, where both are exact.

use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::maxt::EPSILON;
use sprint_core::options::{KernelChoice, PmaxtOptions, TestMethod};
use sprint_core::perm::{build_generator, resolve_permutation_count};
use sprint_core::side::Side;
use sprint_core::stats::{prepare_matrix, StatComputer};

/// Textbook step-down maxT, straight from the definition:
/// 1. collect the full genes × B score matrix;
/// 2. order genes by decreasing observed score;
/// 3. `adjp(s_i) = (1/B) Σ_b 1[ max_{j ≥ i} z_{s_j, b} ≥ z_{s_i, obs} ]`;
/// 4. enforce monotonicity.
fn oracle_maxt(data: &Matrix, classlabel: &[u8], opts: &PmaxtOptions) -> (Vec<f64>, Vec<f64>) {
    let labels = ClassLabels::new(classlabel.to_vec(), opts.test).unwrap();
    let b = resolve_permutation_count(&labels, opts).unwrap();
    let prepared = prepare_matrix(data, opts.test, opts.nonpara);
    let computer = StatComputer::new(opts.test, &labels);
    let genes = data.rows();

    // Full score matrix, the naive way.
    let mut stream = build_generator(&labels, opts, b).unwrap();
    let mut perms = Vec::new();
    let mut arrangement = vec![0u8; data.cols()];
    while stream.next_into(&mut arrangement) {
        perms.push(arrangement.clone());
    }
    assert_eq!(perms.len(), b as usize);
    let score = |g: usize, arrangement: &[u8]| -> f64 {
        opts.side
            .score(computer.compute(prepared.row(g), arrangement))
    };
    let z: Vec<Vec<f64>> = (0..genes)
        .map(|g| perms.iter().map(|p| score(g, p)).collect())
        .collect();

    // Raw p-values directly from the definition.
    let rawp: Vec<f64> = (0..genes)
        .map(|g| {
            let obs = z[g][0];
            if obs == f64::NEG_INFINITY {
                return f64::NAN;
            }
            let count = z[g].iter().filter(|&&v| v >= obs - EPSILON).count();
            count as f64 / b as f64
        })
        .collect();

    // Order genes by decreasing observed score (stable).
    let mut order: Vec<usize> = (0..genes).collect();
    order.sort_by(|&a, &c| z[c][0].partial_cmp(&z[a][0]).unwrap());

    // adjp(s_i) from the definition, with the inner max recomputed from
    // scratch for every (i, b) — quadratic and slow, deliberately different
    // from the kernel's running-maximum trick.
    let mut adj_ordered = vec![0.0f64; genes];
    for (i, slot) in adj_ordered.iter_mut().enumerate() {
        let obs = z[order[i]][0];
        let count = (0..b as usize)
            .filter(|&bi| {
                let tail_max = order[i..]
                    .iter()
                    .map(|&g| z[g][bi])
                    .fold(f64::NEG_INFINITY, f64::max);
                tail_max >= obs - EPSILON
            })
            .count();
        *slot = count as f64 / b as f64;
    }
    for i in 1..genes {
        adj_ordered[i] = adj_ordered[i].max(adj_ordered[i - 1]);
    }
    let mut adjp = vec![f64::NAN; genes];
    for (i, &g) in order.iter().enumerate() {
        if z[g][0] > f64::NEG_INFINITY {
            adjp[g] = adj_ordered[i];
        }
    }
    (rawp, adjp)
}

fn compare_against_oracle(data: &Matrix, labels: &[u8], opts: &PmaxtOptions) {
    let (oracle_raw, oracle_adj) = oracle_maxt(data, labels, opts);
    let kernel = mt_maxt(data, labels, opts).unwrap();
    for g in 0..data.rows() {
        let (kr, or) = (kernel.rawp[g], oracle_raw[g]);
        assert!(
            (kr.is_nan() && or.is_nan()) || (kr - or).abs() < 1e-12,
            "rawp gene {g}: kernel {kr} oracle {or} ({opts:?})"
        );
        let (ka, oa) = (kernel.adjp[g], oracle_adj[g]);
        assert!(
            (ka.is_nan() && oa.is_nan()) || (ka - oa).abs() < 1e-12,
            "adjp gene {g}: kernel {ka} oracle {oa} ({opts:?})"
        );
    }
}

#[test]
fn oracle_agrees_on_complete_two_sample() {
    let data = Matrix::from_vec(
        5,
        6,
        vec![
            1.0, 2.0, 1.5, 9.0, 10.0, 9.5, // strong
            5.0, 4.0, 6.0, 5.5, 4.5, 5.2, // flat
            2.0, 8.0, 3.0, 7.0, 2.5, 7.5, // noisy
            1.0, 1.1, 0.9, 1.2, 0.8, 1.05, // tiny variance
            3.0, 3.0, 3.0, 3.0, 3.0, 3.0, // constant (NaN statistic)
        ],
    )
    .unwrap();
    let labels = vec![0u8, 0, 0, 1, 1, 1];
    for side in [Side::Abs, Side::Upper, Side::Lower] {
        for method in [TestMethod::T, TestMethod::TEqualVar, TestMethod::Wilcoxon] {
            let opts = PmaxtOptions::default()
                .test(method)
                .side(side)
                .permutations(0);
            compare_against_oracle(&data, &labels, &opts);
        }
    }
}

#[test]
fn oracle_agrees_on_complete_paired_and_block() {
    let data = Matrix::from_vec(
        3,
        8,
        vec![
            1.0, 2.0, 3.0, 5.0, 2.0, 4.0, 5.0, 9.0, //
            4.0, 4.2, 3.9, 4.1, 4.3, 4.0, 3.8, 4.2, //
            0.5, 2.5, 1.0, 3.5, 1.5, 2.0, 2.5, 4.5, //
        ],
    )
    .unwrap();
    let paired_labels = vec![0u8, 1, 0, 1, 0, 1, 0, 1];
    let opts = PmaxtOptions::default()
        .test(TestMethod::PairT)
        .permutations(0);
    compare_against_oracle(&data, &paired_labels, &opts); // 2^4 = 16 perms

    let block_labels = vec![0u8, 1, 1, 0, 0, 1, 1, 0];
    let opts = PmaxtOptions::default()
        .test(TestMethod::BlockF)
        .permutations(0);
    compare_against_oracle(&data, &block_labels, &opts); // (2!)^4 = 16 perms
}

#[test]
fn oracle_agrees_on_complete_multiclass_f() {
    let data = Matrix::from_vec(
        3,
        6,
        vec![
            1.0, 2.0, 4.0, 6.0, 5.0, 9.0, //
            3.0, 3.1, 2.9, 3.2, 3.0, 3.1, //
            9.0, 1.0, 5.0, 5.0, 1.0, 9.0, //
        ],
    )
    .unwrap();
    let labels = vec![0u8, 0, 1, 1, 2, 2];
    // 6!/(2!2!2!) = 90 complete arrangements.
    let opts = PmaxtOptions::default().test(TestMethod::F).permutations(0);
    compare_against_oracle(&data, &labels, &opts);
}

#[test]
fn oracle_agrees_with_both_kernels_explicitly() {
    // The oracle computes its score matrix with the scalar `StatComputer`
    // only; running `mt_maxt` once per explicit kernel choice pins the
    // sufficient-statistic fast path against that independent reference to
    // 1e-12, not merely against the scalar path. NA rows force the mixed
    // fast/scalar dispatch inside a single run.
    let data = Matrix::from_vec(
        4,
        6,
        vec![
            1.0,
            2.0,
            1.5,
            9.0,
            10.0,
            9.5, // clean strong
            5.0,
            f64::NAN,
            6.0,
            5.5,
            4.5,
            5.2, // NA → scalar fallback row
            2.0,
            8.0,
            3.0,
            7.0,
            2.5,
            7.5, // clean noisy
            3.0,
            3.0,
            3.0,
            3.0,
            3.0,
            3.0, // constant (NaN statistic)
        ],
    )
    .unwrap();
    let labels = vec![0u8, 0, 0, 1, 1, 1];
    for kernel in [KernelChoice::Scalar, KernelChoice::Fast] {
        for method in [TestMethod::T, TestMethod::TEqualVar, TestMethod::Wilcoxon] {
            for side in [Side::Abs, Side::Upper, Side::Lower] {
                let opts = PmaxtOptions::default()
                    .test(method)
                    .side(side)
                    .kernel(kernel)
                    .permutations(0);
                compare_against_oracle(&data, &labels, &opts);
            }
        }
    }
}

#[test]
fn oracle_agrees_on_random_sampling_too() {
    // Same seed → same permutation stream → identical estimates.
    let data = Matrix::from_vec(
        4,
        8,
        vec![
            1.0, 2.0, 1.5, 2.5, 9.0, 10.0, 9.5, 10.5, //
            5.0, 4.0, 6.0, 5.5, 4.5, 5.2, 5.8, 4.9, //
            2.0, 8.0, 3.0, 7.0, 2.5, 7.5, 3.5, 6.5, //
            1.0, 1.0, 2.0, 1.5, 3.0, 4.0, 2.0, 3.5, //
        ],
    )
    .unwrap();
    let labels = vec![0u8, 0, 0, 0, 1, 1, 1, 1];
    for sampling in ["y", "n"] {
        let opts = PmaxtOptions::default()
            .permutations(64)
            .fixed_seed_sampling(sampling)
            .unwrap();
        compare_against_oracle(&data, &labels, &opts);
    }
}
