//! Rejection-region side (`side = "abs" | "upper" | "lower"`).

use crate::options::spelled_enum;

spelled_enum! {
    /// Which tail of the permutation distribution counts as extreme.
    #[derive(Default)]
    pub enum Side("side") {
        /// Absolute difference — two-sided test (R default).
        #[default]
        Abs = "abs",
        /// Upper tail — reject for large statistics.
        Upper = "upper",
        /// Lower tail — reject for small statistics.
        Lower = "lower",
    }
}

impl Side {
    /// Map a raw statistic to an *extremeness score*: larger score = more
    /// extreme in the chosen rejection direction. `NaN` statistics (not
    /// computable, e.g. all values missing) map to `-inf`, i.e. never extreme,
    /// so they can never inflate a count — the C code's handling of NA
    /// statistics.
    #[inline]
    pub fn score(self, stat: f64) -> f64 {
        if stat.is_nan() {
            return f64::NEG_INFINITY;
        }
        match self {
            Side::Abs => stat.abs(),
            Side::Upper => stat,
            Side::Lower => -stat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in ["abs", "upper", "lower"] {
            assert_eq!(Side::parse(s).unwrap().as_str(), s);
        }
        assert!(Side::parse("two-sided").is_err());
        assert!(
            Side::parse("ABS").is_err(),
            "parsing is case-sensitive like R"
        );
    }

    #[test]
    fn default_is_abs() {
        assert_eq!(Side::default(), Side::Abs);
    }

    #[test]
    fn scores_order_extremeness() {
        // Abs: both tails extreme.
        assert_eq!(Side::Abs.score(-3.0), 3.0);
        assert_eq!(Side::Abs.score(3.0), 3.0);
        // Upper: only positive extreme.
        assert!(Side::Upper.score(3.0) > Side::Upper.score(-3.0));
        // Lower: only negative extreme.
        assert!(Side::Lower.score(-3.0) > Side::Lower.score(3.0));
    }

    #[test]
    fn nan_is_never_extreme() {
        for side in [Side::Abs, Side::Upper, Side::Lower] {
            assert_eq!(side.score(f64::NAN), f64::NEG_INFINITY);
            assert!(side.score(f64::NAN) < side.score(-1e300));
        }
    }
}
