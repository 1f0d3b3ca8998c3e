//! Content digests of run inputs — the identity layer under checkpointing
//! (`sprint::checkpoint`) and the job service's content-addressed result
//! cache (`jobd`).
//!
//! Three digests with three invalidation scopes:
//!
//! - [`dataset_digest`]: dimensions, every data bit, and the class labels —
//!   anything that changes a statistic changes this;
//! - [`options_digest`]: the result-relevant option fields *including* the
//!   permutation count. Two runs with equal dataset and options digests
//!   produce bitwise-identical results, so this is the checkpoint key;
//! - [`stream_digest`]: like [`options_digest`] but with `b` canonicalized
//!   to its *stream class* (complete vs Monte-Carlo). Every generator's
//!   `j`-th arrangement is independent of the total count, so two
//!   Monte-Carlo runs differing only in `B` share one permutation stream —
//!   a `B`-permutation result is a reusable prefix of any `B′ > B` run.
//!   This is the cache key that makes incremental extension possible.
//!
//! Implementation-selection fields (`kernel`, `threads`, `batch`) never
//! enter any digest: every kernel and every engine geometry produces
//! bitwise-identical counts (asserted by the engine/kernel test suites), so
//! a run started under one configuration may resume or extend under another.

use crate::matrix::Matrix;
use crate::options::PmaxtOptions;

/// Incremental FNV-1a over byte slices.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Start from the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Digest of the data a run computes on: dimensions, every matrix bit
/// (NaN patterns included) and the raw class-label vector.
pub fn dataset_digest(data: &Matrix, classlabel: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(data.rows() as u64);
    h.write_u64(data.cols() as u64);
    for v in data.as_slice() {
        h.write_u64(v.to_bits());
    }
    h.write(classlabel);
    h.finish()
}

/// Absorb the result-relevant option fields. `canonical_b` lets the two
/// public digests differ only in how they treat the permutation count.
fn eat_options(h: &mut Fnv1a, opts: &PmaxtOptions, canonical_b: u64) {
    h.write(opts.test.as_str().as_bytes());
    h.write(opts.side.as_str().as_bytes());
    h.write(opts.sampling.as_str().as_bytes());
    h.write_u64(canonical_b);
    match opts.na {
        Some(code) => {
            h.write(&[1]);
            h.write_u64(code.to_bits());
        }
        None => h.write(&[0]),
    }
    h.write(&[opts.nonpara as u8]);
    h.write_u64(opts.seed);
    // f32 accumulation changes the statistics, so it must change the digest;
    // the marker is absorbed only in that mode so every pre-existing f64
    // digest (and the results cached under it) stays valid.
    if opts.precision == crate::options::Precision::F32 {
        h.write(b"precision=f32");
    }
    // Bootstrap draws a different stream and reports different results, so
    // the marker lands in both digests — and only for the non-default
    // workload, so every pre-existing permutation digest stays valid.
    if opts.workload == crate::options::Workload::Bootstrap {
        h.write(b"workload=bootstrap");
    }
}

/// Digest of the result-relevant options, `B` included. Equal
/// `(dataset_digest, options_digest)` pairs identify runs with
/// bitwise-identical results regardless of kernel or engine geometry.
pub fn options_digest(opts: &PmaxtOptions) -> u64 {
    let mut h = Fnv1a::new();
    eat_options(&mut h, opts, opts.b);
    // Adaptive mode changes what a run *reports* (bounds and diagnostics
    // instead of exact counts), so results must not be confused with exact
    // ones — but it consumes a prefix of the same permutation stream and its
    // exact-prefix checkpoints are valid exact state. The marker therefore
    // lands here and NOT in `stream_digest`: adaptive and exact runs share a
    // cache address, which is exactly what makes upgrade-to-exact a plain
    // B-extension of the cached prefix.
    if opts.mode == crate::options::Mode::Adaptive {
        h.write(b"mode=adaptive");
    }
    h.finish()
}

/// Digest of the permutation *stream* a run consumes: like
/// [`options_digest`] but `b` collapses to `0` (complete enumeration) vs
/// `1` (Monte-Carlo). Monte-Carlo runs differing only in `B` draw prefixes
/// of one stream, so they share this digest — the content address under
/// which a result cache can extend a `B`-permutation run to `B′ > B`
/// without recomputing the shared prefix.
pub fn stream_digest(opts: &PmaxtOptions) -> u64 {
    let mut h = Fnv1a::new();
    eat_options(&mut h, opts, u64::from(opts.b > 0));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{KernelChoice, TestMethod};
    use crate::side::Side;

    fn data() -> (Matrix, Vec<u8>) {
        let m = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        (m, vec![0, 0, 1, 1])
    }

    #[test]
    fn dataset_digest_sensitive_to_values_and_labels() {
        let (m, labels) = data();
        let base = dataset_digest(&m, &labels);
        let mut v = m.as_slice().to_vec();
        v[3] += 0.5;
        let m2 = Matrix::from_vec(2, 4, v).unwrap();
        assert_ne!(base, dataset_digest(&m2, &labels));
        assert_ne!(base, dataset_digest(&m, &[0, 1, 0, 1]));
        assert_eq!(base, dataset_digest(&m, &labels));
    }

    #[test]
    fn options_digest_tracks_result_relevant_fields_only() {
        let o = PmaxtOptions::default();
        let base = options_digest(&o);
        assert_ne!(base, options_digest(&o.clone().test(TestMethod::Wilcoxon)));
        assert_ne!(base, options_digest(&o.clone().side(Side::Upper)));
        assert_ne!(base, options_digest(&o.clone().seed(1)));
        assert_ne!(base, options_digest(&o.clone().permutations(99)));
        assert_ne!(base, options_digest(&o.clone().na_code(-9.0)));
        assert_ne!(base, options_digest(&o.clone().nonpara(true)));
        // Implementation selection never invalidates.
        assert_eq!(base, options_digest(&o.clone().threads(7).batch(3)));
        assert_eq!(
            base,
            options_digest(&o.clone().kernel(KernelChoice::Scalar))
        );
        assert_eq!(base, options_digest(&o.clone().max_complete(42)));
    }

    #[test]
    fn f32_precision_changes_digests_but_f64_stays_stable() {
        use crate::options::Precision;
        let o = PmaxtOptions::default();
        // Explicit f64 is the default: digests (and cached results keyed by
        // them) are unchanged by the field's introduction.
        assert_eq!(
            options_digest(&o),
            options_digest(&o.clone().precision(Precision::F64))
        );
        assert_eq!(
            stream_digest(&o),
            stream_digest(&o.clone().precision(Precision::F64))
        );
        // f32 produces different statistics, so both digests must move.
        assert_ne!(
            options_digest(&o),
            options_digest(&o.clone().precision(Precision::F32))
        );
        assert_ne!(
            stream_digest(&o),
            stream_digest(&o.clone().precision(Precision::F32))
        );
    }

    #[test]
    fn adaptive_mode_marks_options_digest_but_not_stream_digest() {
        use crate::options::Mode;
        let o = PmaxtOptions::default();
        // Explicit exact is the default: pre-existing digests stay valid.
        assert_eq!(
            options_digest(&o),
            options_digest(&o.clone().mode(Mode::Exact))
        );
        assert_eq!(
            stream_digest(&o),
            stream_digest(&o.clone().mode(Mode::Exact))
        );
        // Adaptive results are not exact results: the checkpoint key moves.
        assert_ne!(
            options_digest(&o),
            options_digest(&o.clone().mode(Mode::Adaptive))
        );
        // But the permutation stream is identical — the cache address must
        // not move, or adaptive runs could never be upgraded to exact.
        assert_eq!(
            stream_digest(&o),
            stream_digest(&o.clone().mode(Mode::Adaptive))
        );
    }

    #[test]
    fn bootstrap_workload_marks_both_digests_but_pmaxt_stays_stable() {
        use crate::options::Workload;
        let o = PmaxtOptions::default();
        // Explicit pmaxt is the default: pre-existing digests stay valid.
        assert_eq!(
            options_digest(&o),
            options_digest(&o.clone().workload(Workload::Pmaxt))
        );
        assert_eq!(
            stream_digest(&o),
            stream_digest(&o.clone().workload(Workload::Pmaxt))
        );
        // Bootstrap consumes a different stream and reports different
        // results: both digests must move.
        assert_ne!(
            options_digest(&o),
            options_digest(&o.clone().workload(Workload::Bootstrap))
        );
        assert_ne!(
            stream_digest(&o),
            stream_digest(&o.clone().workload(Workload::Bootstrap))
        );
    }

    #[test]
    fn permutation_digests_are_pinned_across_refactors() {
        // Literal digests recorded before the resampling-stream refactor.
        // Checkpoints and jobd cache entries on disk are addressed by these
        // values; any drift silently orphans them. If this test fails, the
        // change broke cache/checkpoint compatibility — fix the digest, do
        // not update the constants.
        let o = PmaxtOptions::default();
        assert_eq!(options_digest(&o), 0xca038b58ed148b12);
        assert_eq!(stream_digest(&o), 0x25fadd0c1a183e26);
        let cases: [(PmaxtOptions, u64, u64); 8] = [
            (
                o.clone().test(TestMethod::Wilcoxon),
                0xa283252c49696837,
                0xcd754ac1d5d785ab,
            ),
            (
                o.clone().test(TestMethod::F),
                0xdecdf469881c2c80,
                0xb574aa2f88c9a6a8,
            ),
            (
                o.clone().test(TestMethod::PairT),
                0x6bd83d8e2a36ad8e,
                0x6bfd1786eae19f7a,
            ),
            (
                o.clone().test(TestMethod::BlockF),
                0x10eabc908ec0e679,
                0xfdd956c60831d5d9,
            ),
            (
                o.clone().side(Side::Upper),
                0x28b239e83350d63a,
                0x969a194515253a2e,
            ),
            (
                o.clone().fixed_seed_sampling("n").unwrap(),
                0x9b5953bf08d9dcbb,
                0x4df6d75f35ace1c7,
            ),
            (
                o.clone().permutations(0),
                0xf4766257b496eb23,
                0xf4766257b496eb23,
            ),
            (o.clone().seed(7), 0xff474955d1dd7d7e, 0x011ee843abef0d42),
        ];
        for (opts, opt_d, stream_d) in &cases {
            assert_eq!(options_digest(opts), *opt_d, "{opts:?}");
            assert_eq!(stream_digest(opts), *stream_d, "{opts:?}");
        }
    }

    /// FNV-1a over every reported bit of a bootstrap result.
    fn boot_result_digest(r: &crate::boot::BootstrapResult) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(r.offset as u64);
        h.write_u64(r.replicates);
        h.write_u64(r.level.to_bits());
        for col in [&r.theta, &r.se, &r.pct_lo, &r.pct_hi, &r.bca_lo, &r.bca_hi] {
            h.write_u64(col.len() as u64);
            for v in col.iter() {
                h.write_u64(v.to_bits());
            }
        }
        h.finish()
    }

    /// Seeded `genes × 11` bootstrap dataset (5 + 6 interleaved samples).
    /// With `na`, about 1 cell in 9 carries the NA code `-99`, gene 4 (when
    /// present) loses its whole class-1 group, and gene 7 keeps a single
    /// class-1 cell, so many of its resamples have an empty group.
    fn boot_dataset(genes: usize, na: bool) -> (Matrix, Vec<u8>) {
        let labels = vec![0u8, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1];
        let cols = labels.len();
        let mut rng = crate::rng::SplitMix64::new(0x5eed_b007 ^ genes as u64);
        let mut cells = Vec::with_capacity(genes * cols);
        for g in 0..genes {
            let shift = (g % 5) as f64 * 0.75;
            for &l in &labels {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let mut v = 12.0 * u - 5.0 + if l == 1 { shift } else { 0.0 };
                if na && rng.next_u64().is_multiple_of(9) {
                    v = -99.0;
                }
                cells.push(v);
            }
        }
        if na {
            for (c, &l) in labels.iter().enumerate() {
                if genes > 4 && l == 1 {
                    cells[4 * cols + c] = -99.0;
                }
                if genes > 7 && l == 1 {
                    cells[7 * cols + c] = if c == 2 { 1.5 } else { -99.0 };
                }
            }
        }
        (Matrix::from_vec(genes, cols, cells).unwrap(), labels)
    }

    #[test]
    fn bootstrap_results_are_pinned_across_refactors() {
        // Literal digests of whole bootstrap results (θ̂, SE, all four
        // interval bounds, replicate count, offset) recorded before the
        // bootstrap driver moved from replicate bands to gene tiles. `.boot`
        // cache entries are addressed by the unchanged options digest, so
        // any drift here would serve stale intervals from disk. If this test
        // fails, the driver changed the replicate bits — fix the driver, do
        // not update the constants.
        use crate::boot::{boot_run, boot_run_slice};
        use crate::options::Workload;
        let base = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .seed(11);
        let stored = base.clone().fixed_seed_sampling("n").unwrap();
        // (genes, B, NA cells, stored sampling, gene slice, digest)
        #[allow(clippy::type_complexity)]
        let cases: [(usize, u64, bool, bool, Option<std::ops::Range<usize>>, u64); 11] = [
            (1, 257, false, false, None, 0xf55cb200c75bbd),
            (1, 2, false, false, None, 0xef22a3654d401fd4),
            (9, 257, true, false, None, 0x9195f68357a09d43),
            (9, 2, true, false, None, 0x24a33e708194a127),
            (129, 257, true, false, None, 0x24bb15e4e399f2b1),
            (129, 257, true, true, None, 0x6645490a2f5f9bab),
            (129, 2, false, false, None, 0x3057c5ca7d546b2c),
            (300, 257, false, false, None, 0x1e803231c3b15f09),
            (300, 2, true, false, None, 0xec74c65697fbbf3),
            (300, 257, true, true, None, 0x6f81de10aa404e83),
            (300, 257, true, false, Some(70..250), 0x315f05eff7bbf29a),
        ];
        let mut got = Vec::new();
        for (genes, b, na, stored_mode, slice, _) in &cases {
            let (m, labels) = boot_dataset(*genes, *na);
            let mut o = if *stored_mode {
                stored.clone()
            } else {
                base.clone()
            };
            o = o.permutations(*b);
            if *na {
                o = o.na_code(-99.0);
            }
            let r = match slice {
                Some(range) => boot_run_slice(&m, &labels, &o, range.clone()).unwrap(),
                None => boot_run(&m, &labels, &o).unwrap(),
            };
            if *na && slice.is_none() && *genes > 7 {
                // The planted cases do what the doc comment says.
                assert!(r.theta[4].is_nan());
                assert!(r.theta[7].is_finite());
            }
            got.push(boot_result_digest(&r));
        }
        let want: Vec<u64> = cases.iter().map(|c| c.5).collect();
        assert_eq!(got, want, "{:#x?}", got);
    }

    /// FNV-1a over every reported bit of a maxT result.
    fn maxt_result_digest(r: &crate::maxt::MaxTResult) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(r.b_used);
        for col in [&r.teststat, &r.rawp, &r.adjp] {
            h.write_u64(col.len() as u64);
            for v in col.iter() {
                h.write_u64(v.to_bits());
            }
        }
        for &g in &r.order {
            h.write_u64(g as u64);
        }
        h.finish()
    }

    /// Seeded `genes × 14|15` dataset in the design `method` needs. Values
    /// sit on a 0.25 grid, so rows carry ties (midranks, equal statistics)
    /// and class-1 cells of every other gene are shifted. With `na`, about
    /// 1 cell in 9 is NaN, gene 4 (when present) loses every class-1 cell
    /// and gene 7 keeps a single one.
    fn maxt_dataset(method: TestMethod, genes: usize, na: bool) -> (Matrix, Vec<u8>) {
        let labels: Vec<u8> = match method {
            TestMethod::F | TestMethod::Corr => vec![0, 2, 1, 1, 0, 2, 2, 0, 1, 0, 1, 2, 2, 1, 0],
            TestMethod::PairT => vec![0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0],
            TestMethod::BlockF => vec![0, 1, 2, 2, 0, 1, 1, 2, 0, 0, 2, 1, 2, 1, 0],
            _ => vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1],
        };
        let cols = labels.len();
        let mut rng = crate::rng::SplitMix64::new(0x3a17_d16e ^ genes as u64);
        let mut cells = Vec::with_capacity(genes * cols);
        for g in 0..genes {
            let shift = (g % 4) as f64 * 0.5;
            for &l in &labels {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let mut v = (40.0 * u).round() / 4.0 + if l == 1 { shift } else { 0.0 };
                if na && rng.next_u64().is_multiple_of(9) {
                    v = f64::NAN;
                }
                cells.push(v);
            }
        }
        if na {
            for (c, &l) in labels.iter().enumerate() {
                if genes > 4 && l == 1 {
                    cells[4 * cols + c] = f64::NAN;
                }
                if genes > 7 && l == 1 {
                    cells[7 * cols + c] = if c == 2 { 1.5 } else { f64::NAN };
                }
            }
        }
        (Matrix::from_vec(genes, cols, cells).unwrap(), labels)
    }

    #[test]
    fn maxt_results_are_pinned_across_refactors() {
        // Literal digests of whole maxT results (teststat, rawp and adjp
        // bits, the order, b_used) recorded before the maxT kernel moved to
        // register blocks. Each digest folds every side of one statistic on
        // one data flavour over gene counts on both sides of BLOCK, SOA_TILE
        // and GENE_TILE. Both engine geometries must reproduce it. If this
        // test fails, the kernel changed the output bits — fix the kernel,
        // do not update the constants.
        use crate::maxt::{maxt_with_config, EngineConfig};
        use crate::side::Side;
        let geometries = [
            EngineConfig {
                threads: 1,
                batch: 32,
            },
            EngineConfig {
                threads: 3,
                batch: 5,
            },
        ];
        // (statistic, NA cells, digest)
        let cases: [(TestMethod, bool, u64); 16] = [
            (TestMethod::T, false, 0x77ef3b8a635c9b62),
            (TestMethod::T, true, 0xf2196219f42a2223),
            (TestMethod::TEqualVar, false, 0x73beb770bb4556fa),
            (TestMethod::TEqualVar, true, 0x5cb2c4a187a49b10),
            (TestMethod::Wilcoxon, false, 0xb22809500ea5ac61),
            (TestMethod::Wilcoxon, true, 0xcd1f75c90a39efba),
            (TestMethod::F, false, 0x1c041e720ec3b63),
            (TestMethod::F, true, 0x498ffbf1dc413c7d),
            (TestMethod::PairT, false, 0x3d6e6e056d0d9519),
            (TestMethod::PairT, true, 0x1e8fcede356463ea),
            (TestMethod::BlockF, false, 0x6ad7e67c5b8485c5),
            (TestMethod::BlockF, true, 0x50720351eed3dddc),
            (TestMethod::Corr, false, 0x13a683bbae4bad9a),
            (TestMethod::Corr, true, 0xe80856276bf61f62),
            (TestMethod::TMax, false, 0x7aa576ac11988082),
            (TestMethod::TMax, true, 0xd5c6b8d6beec8b8d),
        ];
        let mut got = Vec::new();
        for &(method, na, _) in &cases {
            let mut per_geometry = Vec::new();
            for cfg in geometries {
                let mut h = Fnv1a::new();
                for genes in [1usize, 15, 17, 129, 300] {
                    let (m, labels) = maxt_dataset(method, genes, na);
                    for side in [Side::Abs, Side::Upper, Side::Lower] {
                        let opts = PmaxtOptions::default()
                            .test(method)
                            .side(side)
                            .permutations(120)
                            .seed(23);
                        let r = maxt_with_config(&m, &labels, &opts, cfg).unwrap();
                        h.write_u64(maxt_result_digest(&r));
                    }
                }
                per_geometry.push(h.finish());
            }
            assert_eq!(
                per_geometry[0], per_geometry[1],
                "{method:?} na={na}: engine geometries disagree"
            );
            got.push(per_geometry[0]);
        }
        let want: Vec<u64> = cases.iter().map(|c| c.2).collect();
        assert_eq!(got, want, "{:#x?}", got);
    }

    #[test]
    fn minp_results_are_pinned_across_refactors() {
        // Literal digests of whole minP results (teststat, rawp and adjp
        // bits, the order, b_used) recorded before minP moved onto the
        // engine. Each digest folds every side of one statistic on one data
        // flavour over gene counts on both sides of BLOCK, SOA_TILE and
        // GENE_TILE, under Monte-Carlo, stored and (where the design is
        // small enough) complete sampling. The serial driver at two engine
        // geometries and the parallel driver at three ranks must each
        // reproduce it. If this test fails, the change moved minP's output
        // bits — fix the driver, do not update the constants.
        use crate::maxt::minp::{mt_minp, pminp};
        type Driver = fn(&Matrix, &[u8], &PmaxtOptions) -> crate::maxt::MaxTResult;
        let drivers: [(&str, Driver); 3] = [
            ("mt_minp threads(1).batch(32)", |m, labels, o| {
                mt_minp(m, labels, &o.clone().threads(1).batch(32)).unwrap()
            }),
            ("mt_minp threads(3).batch(5)", |m, labels, o| {
                mt_minp(m, labels, &o.clone().threads(3).batch(5)).unwrap()
            }),
            ("pminp 3 ranks", |m, labels, o| {
                pminp(m, labels, &o.clone().threads(2).batch(7), 3).unwrap()
            }),
        ];
        let monte_carlo = PmaxtOptions::default().permutations(120).seed(23);
        let stored = monte_carlo.clone().fixed_seed_sampling("n").unwrap();
        let complete = PmaxtOptions::default().permutations(0);
        // (statistic, NA cells, complete enumeration, digest)
        let cases: [(TestMethod, bool, bool, u64); 16] = [
            (TestMethod::T, false, true, 0xe79144cef5183ae3),
            (TestMethod::T, true, true, 0x91d572c037bb0824),
            (TestMethod::TEqualVar, false, false, 0x3fb5aef529166e7d),
            (TestMethod::TEqualVar, true, false, 0xf0c27e2714e4b0c2),
            (TestMethod::Wilcoxon, false, true, 0x49590d5d16d7d849),
            (TestMethod::Wilcoxon, true, true, 0x3c53affb51b6221c),
            (TestMethod::F, false, false, 0x4461615e482d2d),
            (TestMethod::F, true, false, 0x5d92489324403c07),
            (TestMethod::PairT, false, true, 0xce2416aaaef84b3),
            (TestMethod::PairT, true, true, 0xc776c3bcd93dc104),
            (TestMethod::BlockF, false, false, 0x2fca669ad8128d68),
            (TestMethod::BlockF, true, false, 0x86c616e1d2239aa1),
            (TestMethod::Corr, false, false, 0x32e0be4a90350745),
            (TestMethod::Corr, true, false, 0x12c51ed5ae86da7a),
            (TestMethod::TMax, false, false, 0x978720c6e0545d1f),
            (TestMethod::TMax, true, false, 0x48a4c07460ebc9c1),
        ];
        let mut got = Vec::new();
        for &(method, na, enumerate, _) in &cases {
            let mut samplings = vec![monte_carlo.clone(), stored.clone()];
            if enumerate {
                samplings.push(complete.clone());
            }
            let mut per_driver = Vec::new();
            for (_, driver) in &drivers {
                let mut h = Fnv1a::new();
                for genes in [1usize, 15, 17, 129, 300] {
                    let (m, labels) = maxt_dataset(method, genes, na);
                    for side in [Side::Abs, Side::Upper, Side::Lower] {
                        for sampling in &samplings {
                            let opts = sampling.clone().test(method).side(side);
                            h.write_u64(maxt_result_digest(&driver(&m, &labels, &opts)));
                        }
                    }
                }
                per_driver.push(h.finish());
            }
            for (i, (name, _)) in drivers.iter().enumerate() {
                assert_eq!(
                    per_driver[i], per_driver[0],
                    "{method:?} na={na}: {name} disagrees with {}",
                    drivers[0].0
                );
            }
            got.push(per_driver[0]);
        }
        let want: Vec<u64> = cases.iter().map(|c| c.3).collect();
        assert_eq!(got, want, "{:#x?}", got);
    }

    #[test]
    fn every_option_row_moves_the_digests_its_scope_names() {
        use crate::options::{DigestScope, Mode, Precision, SamplingMode, Workload, OPTIONS};
        // Every field off its default. The literal names every field, so a
        // field added to `PmaxtOptions` fails to compile here until it has a
        // value, and then fails below until it has a row.
        let moved = PmaxtOptions {
            test: TestMethod::Wilcoxon,
            side: Side::Upper,
            sampling: SamplingMode::Stored,
            b: 77,
            na: Some(-1.0),
            nonpara: true,
            seed: 99,
            max_complete: 5_000,
            kernel: KernelChoice::Scalar,
            threads: 6,
            batch: 48,
            precision: Precision::F32,
            mode: Mode::Adaptive,
            workload: Workload::Bootstrap,
        };
        let base = PmaxtOptions::default();
        let mut every_row = base.clone();
        for row in &OPTIONS {
            let text = moved.text(row).expect("a moved field has a value");
            every_row.set_text(row, &text).unwrap();
            let mut one = base.clone();
            one.set_text(row, &text).unwrap();
            assert_ne!(one, base, "{}: the row moves no field", row.name);
            let moves = (
                options_digest(&one) != options_digest(&base),
                stream_digest(&one) != stream_digest(&base),
            );
            let want = match row.digest {
                DigestScope::Both => (true, true),
                DigestScope::OptionsOnly | DigestScope::CountClass => (true, false),
                DigestScope::None => (false, false),
            };
            assert_eq!(moves, want, "{}: {:?}", row.name, row.digest);
            if row.digest == DigestScope::CountClass {
                // The other count class, complete enumeration, is another
                // stream.
                one.set_text(row, "0").unwrap();
                assert_ne!(stream_digest(&one), stream_digest(&base), "{}", row.name);
            }
        }
        assert_eq!(every_row, moved, "a field no row reaches");
    }

    #[test]
    fn stream_digest_collapses_b_but_separates_complete() {
        let o = PmaxtOptions::default();
        assert_eq!(
            stream_digest(&o.clone().permutations(100)),
            stream_digest(&o.clone().permutations(100_000)),
            "Monte-Carlo runs share one stream"
        );
        assert_ne!(
            stream_digest(&o.clone().permutations(0)),
            stream_digest(&o.clone().permutations(20)),
            "complete enumeration is a different stream"
        );
        assert_ne!(
            stream_digest(&o.clone().permutations(100).seed(1)),
            stream_digest(&o.clone().permutations(100).seed(2))
        );
    }
}
