//! Every compilation of every fast scorer's tile body produces the same bits.
//!
//! Each SoA lane kernel is compiled for the target's baseline ISA and, on
//! x86-64, once more with AVX2 + FMA and once with AVX-512F; a scorer picks
//! one when it is built. This suite builds every fast scorer on each ISA the
//! host runs, scores an arbitrary gene range (often starting mid-block and
//! ending at the last gene, where a block reaches into the column padding)
//! for a batch of 1–64 arrangements, at both precisions and with NA cells,
//! and asserts:
//!
//! - each wider body's output is bitwise the baseline body's;
//! - the range's output is bitwise the same genes' output from one
//!   full-width call;
//! - no slot outside the range is written.
//!
//! The wider bodies of `t`, `t.equalvar` and `tmax` divide by the group
//! counts through reciprocals in the blocks whose inputs DESIGN.md §4.10's
//! proof covers, while the baseline body divides. A second proptest plants
//! values outside the proof's range (subnormal, ±0.0, ≥ 2^200, ±∞, NA,
//! whole rows scaled far up or down) into some genes, so blocks on either
//! path sit side by side, and holds every body to the baseline's bits.

use proptest::prelude::*;

use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::options::{PmaxtOptions, Precision, TestMethod};
use sprint_core::perm::build_generator;
use sprint_core::stats::prepare_matrix;
use sprint_core::stats::scorer::{fast_scorer_on, Scorer};
use sprint_core::stats::soa::Isa;

/// Valid labels per method with at least five samples per group, so every
/// design has more than 64 distinct arrangements; two-sample designs reach
/// past 64 columns (two-word missing-cell masks).
fn labels_for(method: TestMethod, a: usize, b: usize) -> Vec<u8> {
    match method {
        TestMethod::F => [0u8, 1, 2]
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, if c == 1 { b } else { a }))
            .collect(),
        TestMethod::PairT => (0..a)
            .flat_map(|p| [(p % 2) as u8, 1 - (p % 2) as u8])
            .collect(),
        TestMethod::BlockF => (0..a).flat_map(|_| [0u8, 1, 2]).collect(),
        _ => {
            let mut v = vec![0u8; a];
            v.extend(std::iter::repeat_n(1u8, b));
            v
        }
    }
}

#[allow(clippy::type_complexity)]
fn case() -> impl Strategy<
    Value = (
        usize,
        usize,
        (usize, usize),
        Vec<f64>,
        Vec<bool>,
        Vec<u8>,
        usize,
        bool,
    ),
> {
    (0usize..8, 5usize..40, 5usize..40, 1usize..300, 0usize..2).prop_flat_map(
        |(method_sel, a, b, genes, to_end)| {
            let labels = labels_for(TestMethod::ALL[method_sel], a, b);
            let cells = genes * labels.len();
            (
                Just(method_sel),
                Just(genes),
                // A gene range; half of them end at the last gene.
                (0usize..genes).prop_flat_map(move |lo| {
                    let first_hi = if to_end == 1 { genes } else { lo + 1 };
                    (Just(lo), first_hi..genes + 1)
                }),
                proptest::collection::vec(-40.0f64..120.0, cells),
                proptest::collection::vec(proptest::bool::weighted(0.1), cells),
                Just(labels),
                1usize..65, // batch of arrangements
                any::<bool>(),
            )
        },
    )
}

/// Score `genes` for every arrangement of `bufs` into a NaN-sentinel buffer
/// whose sentinel has a payload no statistic produces.
fn score(
    scorer: &dyn Scorer,
    bufs: &[Vec<u8>],
    rows: usize,
    genes: std::ops::Range<usize>,
) -> Vec<u64> {
    let stride = bufs.len();
    let mut scratch = scorer.make_scratch();
    scorer.begin_batch(bufs, &mut scratch);
    let mut out = vec![f64::from_bits(SENTINEL); rows * stride];
    scorer.score_tile(bufs, genes, &mut scratch, &mut out, stride);
    out.iter().map(|v| v.to_bits()).collect()
}

const SENTINEL: u64 = 0x7ff4_dead_beef_0001;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_tile_body_is_bitwise_the_baseline_body(
        (method_sel, rows, (lo, hi), mut values, na_mask, raw_labels, batch, f32_mode) in case()
    ) {
        for (v, &is_na) in values.iter_mut().zip(&na_mask) {
            if is_na {
                *v = f64::NAN;
            }
        }
        let method = TestMethod::ALL[method_sel];
        let cols = raw_labels.len();
        let m = Matrix::from_vec(rows, cols, values).unwrap();
        let labels = ClassLabels::new(raw_labels, method).unwrap();
        let precision = if f32_mode { Precision::F32 } else { Precision::F64 };
        let prepared = prepare_matrix(&m, method, false);

        let opts = PmaxtOptions::default().test(method).permutations(batch as u64);
        let mut gen = build_generator(&labels, &opts, batch as u64).unwrap();
        let mut bufs = Vec::new();
        let mut buf = vec![0u8; cols];
        while gen.next_into(&mut buf) {
            bufs.push(buf.clone());
        }
        prop_assert_eq!(bufs.len(), batch);
        let stride = bufs.len();

        let baseline = fast_scorer_on(Isa::Baseline, &prepared, &labels, method, precision)
            .expect("every host runs the baseline ISA");
        let full = score(baseline.as_ref(), &bufs, rows, 0..rows);
        let ranged = score(baseline.as_ref(), &bufs, rows, lo..hi);
        for (slot, (&f, &r)) in full.iter().zip(&ranged).enumerate() {
            let g = slot / stride;
            if (lo..hi).contains(&g) {
                prop_assert_eq!(
                    f, r,
                    "{:?} {:?}: range {}..{} of {} diverges at gene {}",
                    method, precision, lo, hi, rows, g
                );
            } else {
                prop_assert_eq!(
                    r, SENTINEL,
                    "{:?}: gene {} outside {}..{} written", method, g, lo, hi
                );
            }
        }

        for isa in [Isa::Avx2, Isa::Avx512] {
            let Some(wider) = fast_scorer_on(isa, &prepared, &labels, method, precision) else {
                continue;
            };
            for genes in [0..rows, lo..hi] {
                let wide = score(wider.as_ref(), &bufs, rows, genes.clone());
                let base = if genes == (0..rows) { &full } else { &ranged };
                for (slot, (&w, &b)) in wide.iter().zip(base).enumerate() {
                    prop_assert_eq!(
                        w, b,
                        "{:?} {:?}: {} vs baseline at gene {} arrangement {} (range {:?})",
                        method, precision, isa.as_str(), slot / stride, slot % stride, genes
                    );
                }
            }
        }
    }
}

/// Overwrite one gene's `row` with a value or scale outside the range the
/// reciprocal division's proof covers, or at its edge.
fn plant(row: &mut [f64], kind: usize, col: usize) {
    let scale = |row: &mut [f64], by: f64| row.iter_mut().for_each(|v| *v *= by);
    match kind {
        0 => scale(row, 2f64.powi(-240)),
        1 => scale(row, 2f64.powi(230)),
        // Q near 2^−200, the edge of the range.
        2 => scale(row, 2f64.powi(-101)),
        // Squares and variance quotients near the bottom of the normal
        // range, where the reciprocal sequence can round differently.
        3 => scale(row, 2f64.powi(-515)),
        // Subnormal shifted values.
        4 => scale(row, 2f64.powi(-1000) * 2f64.powi(-60)),
        5 => row.fill(-0.0),
        6 => row[col] = -0.0,
        7 => row[col] = 0.0,
        8 => row[col] = 2f64.powi(200) * if col.is_multiple_of(2) { 1.0 } else { -3.0 },
        9 => row[col] = f64::INFINITY,
        10 => row[col] = f64::NEG_INFINITY,
        _ => row[col] = f64::NAN,
    }
}

#[allow(clippy::type_complexity)]
fn planted_case() -> impl Strategy<
    Value = (
        usize,
        usize,
        usize,
        Vec<f64>,
        Vec<Option<(usize, usize)>>,
        usize,
        bool,
    ),
> {
    (0usize..3, 5usize..40, 5usize..40, 1usize..120).prop_flat_map(|(method_sel, a, b, genes)| {
        (
            Just(method_sel),
            Just(a),
            Just(b),
            proptest::collection::vec(-40.0f64..120.0, genes * (a + b)),
            // About one gene in twenty is planted, so roughly half of the
            // 16-gene blocks stay within the range.
            proptest::collection::vec(
                (proptest::bool::weighted(0.05), 0usize..12, 0usize..a + b)
                    .prop_map(|(planted, kind, col)| planted.then_some((kind, col))),
                genes,
            ),
            1usize..65,
            any::<bool>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planted_extremes_give_the_baseline_bits_in_every_body(
        (method_sel, a, b, mut values, plants, batch, f32_mode) in planted_case()
    ) {
        let method = [TestMethod::T, TestMethod::TEqualVar, TestMethod::TMax][method_sel];
        let cols = a + b;
        let rows = plants.len();
        for (row, plant_at) in values.chunks_mut(cols).zip(&plants) {
            if let Some((kind, col)) = *plant_at {
                plant(row, kind, col);
            }
        }
        let m = Matrix::from_vec(rows, cols, values).unwrap();
        let labels = ClassLabels::new(labels_for(method, a, b), method).unwrap();
        let precision = if f32_mode { Precision::F32 } else { Precision::F64 };
        let prepared = prepare_matrix(&m, method, false);

        let opts = PmaxtOptions::default().test(method).permutations(batch as u64);
        let mut gen = build_generator(&labels, &opts, batch as u64).unwrap();
        let mut bufs = Vec::new();
        let mut buf = vec![0u8; cols];
        while gen.next_into(&mut buf) {
            bufs.push(buf.clone());
        }
        let stride = bufs.len();

        let baseline = fast_scorer_on(Isa::Baseline, &prepared, &labels, method, precision)
            .expect("every host runs the baseline ISA");
        let base = score(baseline.as_ref(), &bufs, rows, 0..rows);
        for isa in [Isa::Avx2, Isa::Avx512] {
            let Some(wider) = fast_scorer_on(isa, &prepared, &labels, method, precision) else {
                continue;
            };
            let wide = score(wider.as_ref(), &bufs, rows, 0..rows);
            for (slot, (&w, &b)) in wide.iter().zip(&base).enumerate() {
                let g = slot / stride;
                prop_assert_eq!(
                    w, b,
                    "{:?} {:?}: {} vs baseline at gene {} (planted {:?}) arrangement {}",
                    method, precision, isa.as_str(), g, plants[g], slot % stride
                );
            }
        }
    }
}
