//! Tile-geometry invariance of the fast scorers.
//!
//! The SoA fast path processes genes in `SOA_TILE`-wide sub-tiles and
//! samples in `LANE`-wide SIMD chunks with scalar remainders. These tests
//! pin the contract that makes every engine geometry interchangeable: the
//! per-(gene, arrangement) operation sequence is independent of where tile
//! boundaries fall, so splitting a gene range at **any** point — including
//! gene counts that are not a multiple of either width, and odd sample
//! counts that leave lane remainders — reproduces the unsplit result
//! bitwise, NA cells included, at both accumulation precisions.
//!
//! The opt-in `f32` mode gives up agreement with `f64`, not repeatability:
//! its per-(gene, arrangement) operation sequence is as fixed as the `f64`
//! one, so a whole `f32` maxT run also gives the same bits at any thread
//! count and batch size. Together with `isa_equivalence.rs` (every ISA body,
//! both precisions) this records that `f32` repeats across thread counts,
//! batch sizes, tile splits and ISA bodies.

use proptest::prelude::*;

use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::{maxt_with_config, EngineConfig, MaxTResult};
use sprint_core::options::{KernelChoice, PmaxtOptions, Precision, TestMethod};
use sprint_core::perm::build_generator;
use sprint_core::stats::prepare_matrix;
use sprint_core::stats::scorer::build_scorer;

/// Valid labels per method. `a`/`b`/`c` are deliberately allowed to be odd
/// so the two-sample and `f` cells exercise lane remainders; the paired and
/// block designs have structural sample counts (pairs / complete blocks).
fn labels_for(method: TestMethod, a: usize, b: usize, c: usize) -> Vec<u8> {
    match method {
        TestMethod::T
        | TestMethod::TEqualVar
        | TestMethod::Wilcoxon
        | TestMethod::Corr
        | TestMethod::TMax => {
            let mut v = vec![0u8; a];
            v.extend(std::iter::repeat_n(1u8, b));
            v
        }
        TestMethod::F => {
            let mut v = vec![0u8; a];
            v.extend(std::iter::repeat_n(1u8, b));
            v.extend(std::iter::repeat_n(2u8, c));
            v
        }
        TestMethod::PairT => (0..a + b).flat_map(|_| [0u8, 1u8]).collect(),
        TestMethod::BlockF => (0..a + b).flat_map(|_| [0u8, 1u8, 2u8]).collect(),
    }
}

#[allow(clippy::type_complexity)]
fn geometry(
    max_genes: usize,
) -> impl Strategy<Value = (usize, usize, usize, Vec<f64>, Vec<bool>, Vec<u8>, u64, bool)> {
    // Gene counts straddle the SOA_TILE = 128 sub-tile boundary and are
    // almost never a multiple of it; odd a/b/c leave LANE = 8 remainders.
    (
        0usize..8,
        3usize..8,
        3usize..8,
        2usize..5,
        1usize..max_genes,
    )
        .prop_flat_map(|(method_sel, a, b, c, genes)| {
            let labels = labels_for(TestMethod::ALL[method_sel], a, b, c);
            let cells = genes * labels.len();
            (
                Just(method_sel),
                Just(genes),
                1usize..(genes + 1), // split point for the tile boundary
                proptest::collection::vec(-40.0f64..120.0, cells),
                proptest::collection::vec(proptest::bool::weighted(0.15), cells),
                Just(labels),
                4u64..12,      // batch of arrangements
                any::<bool>(), // f32 accumulation
            )
        })
}

/// A dataset of the strategy's shape, with its NA cells set to NaN.
fn dataset(genes: usize, cols: usize, mut values: Vec<f64>, na_mask: &[bool]) -> Matrix {
    for (v, &is_na) in values.iter_mut().zip(na_mask) {
        if is_na {
            *v = f64::NAN;
        }
    }
    Matrix::from_vec(genes, cols, values).unwrap()
}

fn precision_of(f32_mode: bool) -> Precision {
    if f32_mode {
        Precision::F32
    } else {
        Precision::F64
    }
}

/// Every bit of a maxT result, NaN p-values included.
fn result_bits(r: &MaxTResult) -> (Vec<usize>, u64, [Vec<u64>; 3]) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        r.order.clone(),
        r.b_used,
        [bits(&r.teststat), bits(&r.rawp), bits(&r.adjp)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting the gene range at an arbitrary point, and scoring one
    /// arrangement at a time through `stats_into`, are both bitwise
    /// identical to one full-width `score_tile` call, at either precision.
    #[test]
    fn split_tiles_and_single_arrangements_match_full_tile_bitwise(
        (method_sel, genes, split, values, na_mask, raw_labels, b, f32_mode) in geometry(140)
    ) {
        let method = TestMethod::ALL[method_sel];
        let precision = precision_of(f32_mode);
        let cols = raw_labels.len();
        let m = dataset(genes, cols, values, &na_mask);
        let labels = ClassLabels::new(raw_labels, method).unwrap();
        let opts = PmaxtOptions::default().test(method).permutations(b);
        let prepared = prepare_matrix(&m, method, false);
        let scorer = build_scorer(&prepared, &labels, method, KernelChoice::Fast, precision);

        // A batch of genuine permutations of the labels.
        let mut gen = build_generator(&labels, &opts, b).unwrap();
        let mut bufs = Vec::new();
        let mut buf = vec![0u8; cols];
        while gen.next_into(&mut buf) {
            bufs.push(buf.clone());
        }
        prop_assert!(!bufs.is_empty());
        let stride = bufs.len();

        // Reference: one score_tile over the whole gene range.
        let mut scratch = scorer.make_scratch();
        scorer.begin_batch(&bufs, &mut scratch);
        let mut full = vec![0.0f64; genes * stride];
        scorer.score_tile(&bufs, 0..genes, &mut scratch, &mut full, stride);

        // Same batch, gene range split at an arbitrary point.
        let mut split_out = vec![0.0f64; genes * stride];
        scorer.score_tile(&bufs, 0..split, &mut scratch, &mut split_out, stride);
        scorer.score_tile(&bufs, split..genes, &mut scratch, &mut split_out, stride);
        for (g, (f, s)) in full.iter().zip(&split_out).enumerate() {
            prop_assert_eq!(
                f.to_bits(), s.to_bits(),
                "split at {} diverges at slot {} ({:?} {:?}, {} genes, {} cols)",
                split, g, method, precision, genes, cols
            );
        }

        // Each arrangement scored alone matches its column of the batch.
        let mut one = vec![0.0f64; genes];
        for (j, labelling) in bufs.iter().enumerate() {
            scorer.stats_into(labelling, &mut scratch, &mut one);
            for g in 0..genes {
                prop_assert_eq!(
                    one[g].to_bits(), full[g * stride + j].to_bits(),
                    "arrangement {} gene {} diverges ({:?} {:?})", j, g, method, precision
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A whole maxT run gives the same bits at the two engine geometries of
    /// the pinned-digest test (1 thread × batch 32 and 3 × 5), at either
    /// precision; gene counts reach past one `GENE_TILE` (256).
    #[test]
    fn maxt_runs_repeat_across_engine_geometry_at_both_precisions(
        (method_sel, genes, _split, values, na_mask, raw_labels, _b, f32_mode) in geometry(300)
    ) {
        let method = TestMethod::ALL[method_sel];
        let precision = precision_of(f32_mode);
        let m = dataset(genes, raw_labels.len(), values, &na_mask);
        let opts = PmaxtOptions::default()
            .test(method)
            .permutations(120)
            .seed(23)
            .precision(precision);
        let run = |threads, batch| {
            maxt_with_config(&m, &raw_labels, &opts, EngineConfig { threads, batch }).unwrap()
        };
        prop_assert_eq!(
            result_bits(&run(1, 32)),
            result_bits(&run(3, 5)),
            "{:?} {:?}: engine geometries disagree", method, precision
        );
    }
}
