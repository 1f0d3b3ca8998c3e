//! Generalized-Pareto tail approximation of the smallest p-values, after
//! permApprox (Peschel et al.) and Knijnenburg et al. (2009): the upper tail
//! of a gene's permutation score distribution is approximately GPD by the
//! Pickands–Balkema–de Haan theorem, so a modest sample of permutation
//! scores yields a *continuous* tail estimate far below the `1/B` resolution
//! floor of the empirical p-value.
//!
//! The fit is moment-matched (the permApprox default): with excess mean `m`
//! and variance `s²`, shape `ξ = (1 − m²/s²)/2` and scale
//! `σ = m(1 + m²/s²)/2`. Every fit carries diagnostics — the tail threshold,
//! the fitted shape/scale, and an Anderson–Darling-style goodness flag — so
//! a consumer can see *when the approximation is trustworthy*, not just its
//! point estimate.

use crate::admit::Run;
use crate::matrix::Matrix;
use crate::maxt::MaxTContext;

use super::runner::sub_matrix;
use super::AdaptiveConfig;

/// A fitted generalized-Pareto tail for one gene, with diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TailFit {
    /// Score threshold `u` above which the GPD models the tail.
    pub threshold: f64,
    /// GPD shape `ξ` (ξ < 0: bounded tail, ξ = 0: exponential, ξ > 0: heavy).
    pub shape: f64,
    /// GPD scale `σ` (> 0).
    pub scale: f64,
    /// Number of threshold excesses the fit used.
    pub exceedances: usize,
    /// Tail-approximated p-value at the observed score.
    pub p_tail: f64,
    /// Anderson–Darling-style statistic of the excesses against the fit.
    pub ad_stat: f64,
    /// Goodness flag: `ad_stat` below the acceptance cut — the moment fit
    /// describes the sampled tail well enough to quote `p_tail`.
    pub good: bool,
}

/// Acceptance cut for the Anderson–Darling-style statistic. The asymptotic
/// 5%-level critical values for a GPD with estimated parameters sit near
/// 0.75–1.1 depending on the shape (Choulakian & Stephens 2001); one fixed
/// cut keeps the flag simple and errs toward flagging dubious fits.
const AD_CUT: f64 = 1.0;

/// GPD survival function `P(Y > y)` for an excess `y ≥ 0`.
pub fn gpd_survival(y: f64, shape: f64, scale: f64) -> f64 {
    debug_assert!(scale > 0.0);
    if y <= 0.0 {
        return 1.0;
    }
    if shape.abs() < 1e-12 {
        return (-y / scale).exp();
    }
    let t = 1.0 + shape * y / scale;
    if t <= 0.0 {
        // Beyond the upper endpoint of a bounded (ξ < 0) tail.
        return 0.0;
    }
    t.powf(-1.0 / shape)
}

/// Moment-matched GPD parameters `(shape, scale)` from threshold excesses.
/// `None` when the sample is degenerate (zero variance).
pub fn fit_gpd_moments(excesses: &[f64]) -> Option<(f64, f64)> {
    let n = excesses.len() as f64;
    if excesses.len() < 2 {
        return None;
    }
    let mean = excesses.iter().sum::<f64>() / n;
    let var = excesses
        .iter()
        .map(|&y| (y - mean) * (y - mean))
        .sum::<f64>()
        / (n - 1.0);
    // NaN-safe positivity guards: a NaN moment must bail, not fit.
    if !mean.is_finite() || mean <= 0.0 || !var.is_finite() || var <= 0.0 {
        return None;
    }
    let r = mean * mean / var;
    let shape = 0.5 * (1.0 - r);
    let scale = 0.5 * mean * (1.0 + r);
    if !scale.is_finite() || scale <= 0.0 || !shape.is_finite() {
        return None;
    }
    Some((shape, scale))
}

/// Anderson–Darling-style statistic of `excesses` (any order) against a
/// fitted GPD — the standard A² formula over the probability-transformed
/// sample.
pub fn ad_statistic(excesses: &[f64], shape: f64, scale: f64) -> f64 {
    let mut z: Vec<f64> = excesses
        .iter()
        .map(|&y| (1.0 - gpd_survival(y, shape, scale)).clamp(1e-12, 1.0 - 1e-12))
        .collect();
    z.sort_by(|a, b| a.partial_cmp(b).expect("clamped probabilities"));
    let n = z.len();
    let mut s = 0.0;
    for (i, &zi) in z.iter().enumerate() {
        s += (2 * i + 1) as f64 * (zi.ln() + (1.0 - z[n - 1 - i]).ln());
    }
    -(n as f64) - s / n as f64
}

/// Fit a GPD tail to one gene's sampled permutation scores and evaluate the
/// tail p-value at its observed score.
///
/// Returns `None` when no trustworthy fit is possible: the observed score is
/// not beyond the tail threshold (the empirical estimate is fine there), the
/// excesses are too few or degenerate (heavily tied discrete scores), or the
/// sample is dominated by non-computable (−∞) scores.
pub fn fit_tail(scores: &[f64], observed: f64) -> Option<TailFit> {
    let m = scores.len();
    if m < 32 || !observed.is_finite() {
        return None;
    }
    let mut sorted = scores.to_vec();
    // Side::score maps NaN statistics to −∞, so total order holds.
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("scores are NaN-free"));
    // Top ~10% of the sample are the tail excesses, as in permApprox.
    let n_tail = (m / 10).clamp(16, m / 2);
    let u = sorted[n_tail];
    if !u.is_finite() || observed <= u {
        return None;
    }
    let excesses: Vec<f64> = sorted[..n_tail]
        .iter()
        .map(|&s| s - u)
        .filter(|&y| y > 0.0)
        .collect();
    if excesses.len() < 8 {
        return None;
    }
    let (shape, scale) = fit_gpd_moments(&excesses)?;
    let ad = ad_statistic(&excesses, shape, scale);
    // P(score > u) is estimated empirically, the conditional tail by the GPD.
    let tail_mass = excesses.len() as f64 / m as f64;
    let p_tail = (tail_mass * gpd_survival(observed - u, shape, scale)).max(f64::MIN_POSITIVE);
    Some(TailFit {
        threshold: u,
        shape,
        scale,
        exceedances: excesses.len(),
        p_tail,
        ad_stat: ad,
        good: ad < AD_CUT,
    })
}

/// Score the tail-candidate genes over a fresh prefix of the run's
/// permutation stream and fit each one's tail. Returns `(gene, fit)` pairs
/// plus the number of gene-permutations scored (for the budget accounting).
///
/// Candidates are the most significant `tail_top` computable genes — by
/// construction the ones whose p-values are smallest and where the `1/B`
/// resolution floor bites. Only their rows are scored, by the engine on a
/// tiny sub-matrix, so the pass costs `tail_top × tail_m`
/// gene-permutations, noise next to the main run.
pub(crate) fn tail_pass(
    run: &Run,
    prepared: &Matrix,
    ctx: &MaxTContext<'_>,
    config: &AdaptiveConfig,
) -> (Vec<(usize, TailFit)>, u64) {
    let take = config.tail_m.min(run.b);
    let candidates: Vec<usize> = ctx
        .order()
        .iter()
        .copied()
        .filter(|&g| ctx.observed_scores()[g] > f64::NEG_INFINITY)
        .take(config.tail_top)
        .collect();
    if candidates.is_empty() || take < 32 {
        return (Vec::new(), 0);
    }
    let sub = sub_matrix(prepared, &candidates);
    let mut scores = run.scores(&run.context(&sub), &mut *run.stream(0), take);
    scores.iter_mut().for_each(|s| *s = run.opts.side.score(*s));
    let fits = candidates
        .iter()
        .zip(scores.chunks(take as usize))
        .filter_map(|(&g, row)| Some((g, fit_tail(row, ctx.observed_scores()[g])?)))
        .collect();
    (fits, take * candidates.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_matches_closed_forms() {
        // Exponential limit at ξ = 0.
        assert!((gpd_survival(2.0, 0.0, 1.0) - (-2.0f64).exp()).abs() < 1e-12);
        // Heavy tail ξ = 1, σ = 1: S(y) = 1/(1+y).
        assert!((gpd_survival(3.0, 1.0, 1.0) - 0.25).abs() < 1e-12);
        // Bounded tail ξ = −0.5, σ = 1: endpoint at y = 2.
        assert_eq!(gpd_survival(2.5, -0.5, 1.0), 0.0);
        assert!(gpd_survival(1.9, -0.5, 1.0) > 0.0);
        // No excess → survival 1.
        assert_eq!(gpd_survival(0.0, 0.3, 1.0), 1.0);
    }

    #[test]
    fn moment_fit_recovers_an_exponential_sample() {
        // Deterministic exponential "sample" via inverse-CDF at midpoints:
        // the moment fit must land near ξ = 0, σ = 1 and the AD flag must
        // accept it.
        let n = 400;
        let sample: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        let (shape, scale) = fit_gpd_moments(&sample).unwrap();
        assert!(shape.abs() < 0.1, "shape {shape} should be near 0");
        assert!((scale - 1.0).abs() < 0.1, "scale {scale} should be near 1");
        let ad = ad_statistic(&sample, shape, scale);
        assert!(ad < AD_CUT, "AD {ad} should accept the generating family");
    }

    #[test]
    fn degenerate_samples_refuse_to_fit() {
        assert_eq!(fit_gpd_moments(&[1.0, 1.0, 1.0]), None);
        assert_eq!(fit_gpd_moments(&[2.0]), None);
        assert_eq!(fit_gpd_moments(&[]), None);
    }

    #[test]
    fn misfit_raises_the_ad_statistic() {
        // A two-point sample is nothing like the smooth GPD fitted to an
        // exponential: evaluating a lumpy empirical sample under mismatched
        // parameters must score far worse than the matched case.
        let n = 200;
        let good: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        let lumpy: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.01 } else { 3.0 })
            .collect();
        let (shape, scale) = fit_gpd_moments(&good).unwrap();
        let ad_good = ad_statistic(&good, shape, scale);
        let ad_bad = ad_statistic(&lumpy, shape, scale);
        assert!(ad_bad > 10.0 * ad_good, "{ad_bad} vs {ad_good}");
    }

    #[test]
    fn fit_tail_requires_an_extreme_observation() {
        let n = 1000;
        let scores: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        // Observation deep in the tail: fits, with a sub-empirical p.
        let fit = fit_tail(&scores, 12.0).expect("tail fit");
        assert!(fit.p_tail > 0.0 && fit.p_tail < 1.0 / n as f64);
        assert!(fit.exceedances >= 8);
        assert!(fit.scale > 0.0);
        // Observation in the bulk: the empirical estimate suffices.
        assert!(fit_tail(&scores, 0.5).is_none());
        // Tiny samples refuse.
        assert!(fit_tail(&scores[..16], 12.0).is_none());
    }

    #[test]
    fn constant_scores_refuse_to_fit() {
        let scores = vec![1.0; 500];
        assert!(fit_tail(&scores, 5.0).is_none());
    }
}
