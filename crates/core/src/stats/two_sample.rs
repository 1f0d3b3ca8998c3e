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

/// A group count as the two-sample combines divide by it. `R` itself
/// divides with `/`; [`Recip`] multiplies by a rounded reciprocal and
/// corrects the quotient with two FMAs, which DESIGN.md §4.10 proves returns
/// the same bits wherever [`recip_safe`] holds for the block's inputs.
pub(crate) trait Count<R>: Copy {
    /// `x / n`, correctly rounded.
    fn div(x: R, n: Self) -> R;
    /// `1 / n`, correctly rounded.
    fn recip(self) -> R;
}

impl<R: Real> Count<R> for R {
    #[inline(always)]
    fn div(x: R, n: R) -> R {
        x / n
    }
    #[inline(always)]
    fn recip(self) -> R {
        R::from_f64(1.0) / self
    }
}

/// A count `d` with its reciprocal `r = RN(1/d)`, computed once per
/// arrangement size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Recip<R> {
    d: R,
    r: R,
}

impl<R: Real> Recip<R> {
    /// The divisor `d`, for `1 ≤ d < 2^51` (the theorem's range at f64).
    pub(crate) fn new(d: usize) -> Self {
        debug_assert!(
            d >= 1 && (d as u64) < 1 << 51,
            "count {d} outside the proof"
        );
        let d = R::from_usize(d);
        Recip {
            d,
            r: R::from_f64(1.0) / d,
        }
    }
}

impl<R: Real> Count<R> for Recip<R> {
    /// Markstein's correction: `q = x·r`, `e = x − q·d` (exact), `q + e·r`.
    #[inline(always)]
    fn div(x: R, n: Self) -> R {
        let q = x * n.r;
        let e = (-q).mul_add(n.d, x);
        e.mul_add(n.r, q)
    }
    #[inline(always)]
    fn recip(self) -> R {
        self.r
    }
}

/// 2^−200 and 2^200, the smallest and largest magnitude [`recip_safe`]
/// admits besides ±0.0.
const SAFE_MIN: f64 = f64::from_bits((1023 - 200) << 52);
const SAFE_MAX: f64 = f64::from_bits((1023 + 200) << 52);

/// Whether `x` is ±0.0 or has magnitude in [2^−200, 2^200]. When every
/// pivot-shifted value of a block and every gene's totals S and Q pass,
/// every dividend of the two-sample combines is +0.0 or a normal number far
/// from underflow and overflow, so [`Recip`] divides exactly (DESIGN.md
/// §4.10). NaN and ±∞ fail.
#[inline(always)]
pub(crate) fn recip_safe(x: f64) -> bool {
    x == 0.0 || (SAFE_MIN..=SAFE_MAX).contains(&x.abs())
}

/// The divisors of a two-sample combine for groups of n0 and n1 values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split<C> {
    n0: C,
    n1: C,
    /// n0 − 1 and n1 − 1: Welch's variance divisors.
    n0_less_1: C,
    n1_less_1: C,
    /// n0 + n1 − 2: the pooled variance divisor.
    pooled: C,
}

impl<R: Real> Split<R> {
    /// Divide with `/` by per-lane counts (whole numbers, so the
    /// subtractions are exact).
    #[inline(always)]
    pub(crate) fn exact(n0: R, n1: R) -> Self {
        let one = R::from_f64(1.0);
        Split {
            n0,
            n1,
            n0_less_1: n0 - one,
            n1_less_1: n1 - one,
            pooled: n0 + n1 - R::from_f64(2.0),
        }
    }
}

impl<R: Real> Split<Recip<R>> {
    /// Divide through reciprocals; `None` when a group has fewer than two
    /// values (the combines' group-size guard then applies, on `/`).
    pub(crate) fn recip(n0: usize, n1: usize) -> Option<Self> {
        (n0 >= 2 && n1 >= 2).then(|| Split {
            n0: Recip::new(n0),
            n1: Recip::new(n1),
            n0_less_1: Recip::new(n0 - 1),
            n1_less_1: Recip::new(n1 - 1),
            pooled: Recip::new(n0 + n1 - 2),
        })
    }
}

/// Welch t from group moments (Σx, Σx² per group), mirroring [`welch_t`] +
/// `GroupSums::variance` operation for operation (same clamps and guards),
/// with each division by a count done as `C` divides. Generic over the
/// accumulation precision; at `f64` the sequence is bit-for-bit the scalar
/// one. The `se2 <= 0` guard is a select, not a branch, so lane loops over
/// it vectorize; the caller applies the group-size guard the same way.
#[inline(always)]
pub(crate) fn welch_from_moments<R: Real, C: Count<R>>(
    n: Split<C>,
    s0: R,
    q0: R,
    s1: R,
    q1: R,
) -> R {
    let v1 = C::div(q1 - C::div(s1 * s1, n.n1), n.n1_less_1).max(R::ZERO);
    let v0 = C::div(q0 - C::div(s0 * s0, n.n0), n.n0_less_1).max(R::ZERO);
    let se2 = C::div(v1, n.n1) + C::div(v0, n.n0);
    let t = (C::div(s1, n.n1) - C::div(s0, n.n0)) / se2.sqrt();
    if se2 <= R::ZERO {
        R::nan()
    } else {
        t
    }
}

/// Pooled-variance t from group moments, mirroring [`equalvar_t`] +
/// `GroupSums::ss` operation for operation, with the same count division
/// and select-guard as [`welch_from_moments`]. `1/n0 + 1/n1` is
/// `C::recip`'s, which is `RN(1/n)` either way.
#[inline(always)]
pub(crate) fn equalvar_from_moments<R: Real, C: Count<R>>(
    n: Split<C>,
    s0: R,
    q0: R,
    s1: R,
    q1: R,
) -> R {
    let ss0 = (q0 - C::div(s0 * s0, n.n0)).max(R::ZERO);
    let ss1 = (q1 - C::div(s1 * s1, n.n1)).max(R::ZERO);
    let pooled = C::div(ss0 + ss1, n.pooled);
    let se2 = pooled * (n.n0.recip() + n.n1.recip());
    let t = (C::div(s1, n.n1) - C::div(s0, n.n0)) / se2.sqrt();
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

    /// `x / d` through [`Recip`], as the scorer's reciprocal blocks divide.
    fn recip_div(x: f64, d: usize) -> f64 {
        <Recip<f64> as Count<f64>>::div(x, Recip::new(d))
    }

    /// `2^e` for a normal exponent.
    fn pow2(e: i64) -> f64 {
        f64::from_bits(((e + 1023) as u64) << 52)
    }

    /// Every count up to 4096, the paper shape's counts, and counts beside
    /// powers of two up to the largest the proof covers (2^51 − 1).
    fn divisors() -> impl Iterator<Item = usize> {
        (1..=4096).chain([
            76,
            6102,
            (1 << 20) - 1,
            (1 << 20) + 1,
            (1 << 40) + 3,
            (1 << 51) - 1,
        ])
    }

    /// Check [`Recip`] against `/` bitwise for every divisor on `per_d`
    /// groups of dividends with exponents in −600…600: a random significand,
    /// a power of two and its predecessor, and the five floats within two
    /// ulps of `d` × a quotient midpoint, each with a random sign. Returns
    /// the number of pairs checked.
    fn sweep(per_d: usize, seed: u64) -> u64 {
        let mut rng = crate::rng::Xoshiro256::seed_from(seed);
        let mut checked = 0;
        for d in divisors() {
            let mut check = |x: f64| {
                let (want, got) = (x / d as f64, recip_div(x, d));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{x:e} / {d}: {got:e} vs {want:e}"
                );
                checked += 1;
            };
            for _ in 0..per_d {
                let sign = rng.next_u64() & (1 << 63);
                let e = rng.next_below(1201) as i64 - 600;
                let mantissa = rng.next_u64() >> 12;
                check(f64::from_bits(sign | ((e + 1023) as u64) << 52 | mantissa));
                let p = f64::from_bits(sign | pow2(e).to_bits());
                check(p);
                check(f64::from_bits(p.to_bits() - 1));
                // The midpoint above the quotient K·2^(e−52), with K its
                // 53-bit significand, is (2K + 1)·2^(e−53); x = RN(d·that).
                let k = (1u64 << 52) | (rng.next_u64() >> 12);
                let x = (d as u128 * (2 * k as u128 + 1)) as f64 * pow2(e - 53);
                for ulps in -2i64..=2 {
                    check(f64::from_bits(sign | (x.to_bits() as i64 + ulps) as u64));
                }
            }
        }
        checked
    }

    #[test]
    fn reciprocal_division_is_bitwise_the_divide_instruction() {
        assert_eq!(sweep(256, 1), 4102 * 256 * 8);
        // +0.0 is inside the theorem too.
        for d in divisors() {
            assert_eq!(recip_div(0.0, d).to_bits(), 0.0f64.to_bits());
        }
    }

    /// About 200 M pairs; run it on an optimized build with
    /// `cargo test --release -p sprint-core --lib two_sample -- --ignored`.
    #[test]
    #[ignore = "release sweep, about 200 M pairs"]
    fn reciprocal_division_sweep() {
        assert_eq!(sweep(6_100, 2), 4102 * 6_100 * 8);
    }

    #[test]
    fn reciprocal_division_differs_outside_its_hypotheses() {
        // A subnormal quotient can round differently, which is why a block
        // whose inputs could produce one keeps `/`.
        let bottom = f64::MIN_POSITIVE;
        let subnormal = (3..=4096).any(|d| {
            (0..64u64).any(|i| {
                let x = f64::from_bits(bottom.to_bits() + i * 0x0000_3c4d_5e6f_7081);
                recip_div(x, d).to_bits() != (x / d as f64).to_bits()
            })
        });
        assert!(subnormal, "no subnormal quotient differed");
        // −0.0 gives +0.0, and ±∞ gives NaN.
        assert_eq!((-0.0f64 / 3.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(recip_div(-0.0, 3).to_bits(), 0.0f64.to_bits());
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            assert!((inf / 3.0).is_infinite());
            assert!(recip_div(inf, 3).is_nan());
        }
    }

    #[test]
    fn recip_range_ends_at_two_to_the_plus_and_minus_200() {
        for sign in [1.0, -1.0] {
            for x in [0.0, pow2(-200), pow2(200), 1.0, pow2(-200) * 1.5] {
                assert!(recip_safe(sign * x), "{:e}", sign * x);
            }
            let below = f64::from_bits(pow2(-200).to_bits() - 1);
            let above = f64::from_bits(pow2(200).to_bits() + 1);
            for x in [pow2(-201), below, pow2(201), above, f64::INFINITY, 1e-310] {
                assert!(!recip_safe(sign * x), "{:e}", sign * x);
            }
        }
        assert!(!recip_safe(f64::NAN));
    }
}
