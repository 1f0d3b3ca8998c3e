//! Test-method and run options, mirroring the R signature
//!
//! ```text
//! pmaxT(X, classlabel, test = "t", side = "abs", fixed.seed.sampling = "y",
//!       B = 10000, na = .mt.naNUM, nonpara = "n")
//! ```
//!
//! The interface of `pmaxT` is identical to `mt.maxT` (paper §3.2); this
//! module preserves the parameter names, string forms and defaults.
//!
//! ## The option table
//!
//! [`OPTIONS`] declares every [`PmaxtOptions`] field once: its R name, its
//! jobd JSON key, its [`Form`], its `pmaxt` flags, its `SPRINT_*` override
//! and the digests it enters. Every surface walks the table instead of
//! naming options: the `pmaxt` flag parser, jobd's JSON codec (which the
//! journal also writes), `sprint::marshal`, the environment overrides and
//! the digest-scope test. A field's value crosses every surface as its text
//! form ([`PmaxtOptions::text`], [`PmaxtOptions::set_text`]); each surface
//! maps a row's form to its own value type. A new option is one field and
//! one row.

use crate::error::{Error, Result};
use crate::side::Side;

/// Declare an option enum with one spelling per variant. The spellings are
/// one list that `parse`, `as_str`, the option table ([`Form::Word`]) and
/// `sprint::marshal`'s IntCoded vocabulary all read. `$param` is the
/// option's row name, which a bad spelling's [`Error::BadOption`] names.
macro_rules! spelled_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($param:literal) {
            $($(#[$vmeta:meta])* $variant:ident = $word:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: [$name; [$($word),+].len()] = [$($name::$variant),+];

            /// The string forms, aligned with [`Self::ALL`].
            pub const SPELLINGS: &'static [&'static str] = &[$($word),+];

            /// Parse the string form (case-sensitive, like R).
            pub fn parse(s: &str) -> $crate::error::Result<Self> {
                match Self::SPELLINGS.iter().position(|&w| w == s) {
                    Some(i) => Ok(Self::ALL[i]),
                    None => Err($crate::error::Error::BadOption {
                        param: $param,
                        value: s.to_string(),
                    }),
                }
            }

            /// The string form.
            pub fn as_str(self) -> &'static str {
                Self::SPELLINGS[self as usize]
            }
        }

        impl $crate::options::Text for $name {
            fn text(&self) -> Option<String> {
                Some(self.as_str().to_string())
            }
            fn set(&mut self, s: &str) -> bool {
                Self::parse(s).map(|v| *self = v).is_ok()
            }
        }
    };
}
pub(crate) use spelled_enum;

spelled_enum! {
    /// The supported test statistics: the paper's six (§3.1) plus the
    /// PERMUTOOLS-style correlation and tmax max-statistic variants.
    pub enum TestMethod("test") {
        /// Two-sample Welch t-statistic, unequal variances.
        T = "t",
        /// Two-sample t-statistic with pooled variance.
        TEqualVar = "t.equalvar",
        /// Standardized rank-sum Wilcoxon statistic.
        Wilcoxon = "wilcoxon",
        /// One-way F-statistic over k classes.
        F = "f",
        /// Paired t-statistic.
        PairT = "pairt",
        /// Block F-statistic adjusting for block differences.
        BlockF = "blockf",
        /// Pearson correlation between each gene row and the numeric class
        /// labels (point-biserial for two classes). Association test in the
        /// PERMUTOOLS style.
        Corr = "corr",
        /// Welch t-statistic with single-step tmax adjustment: the adjusted
        /// counts compare every gene against the *global* permutation
        /// maximum instead of the step-down successive maxima (PERMUTOOLS'
        /// max-statistic multiple-comparison correction).
        TMax = "tmax",
    }
}

impl TestMethod {
    /// True for the methods that share the two-sample/multi-class shuffle
    /// generators (paper §3.1: t, t.equalvar, wilcoxon, f; plus corr and
    /// tmax, whose designs are multi-class and two-sample respectively).
    pub fn uses_shuffle_generator(self) -> bool {
        !matches!(self, TestMethod::PairT | TestMethod::BlockF)
    }

    /// True for the tmax single-step variant: adjusted counts use the global
    /// permutation maximum rather than step-down successive maxima.
    pub fn single_step_max(self) -> bool {
        matches!(self, TestMethod::TMax)
    }
}

spelled_enum! {
    /// How permutations are produced (paper §3.1 "generator/store"), the R
    /// `fixed.seed.sampling` flag.
    #[derive(Default)]
    pub enum SamplingMode("fixed.seed.sampling") {
        /// `"y"`: the b-th permutation is derived from a seed that is a pure
        /// function of b, so a rank or a peer jumps to its chunk in O(1).
        /// Default.
        #[default]
        FixedSeedOnTheFly = "y",
        /// `"n"`: all permutations are drawn from one sequential stream, the
        /// stream R stores. It is drawn on the fly, as the paper serves
        /// `blockf`'s stored request, and holds one label vector, never the
        /// B × n matrix; a rank or a peer that starts mid-run replays the
        /// draws before its chunk once.
        Stored = "n",
    }
}

spelled_enum! {
    /// Which [`Scorer`](crate::stats::scorer::Scorer) implementation the
    /// permutation loop uses.
    ///
    /// Every statistic has a fast scorer that caches per-gene sufficient
    /// statistics once (class sums, pair differences, per-block partials)
    /// and reduces each permutation to an indexed gather per gene — NA rows
    /// included, via per-permutation group-count adjustment. This knob is a
    /// debug override: `Scalar` forces the reference per-column scalar
    /// scorer everywhere; `Auto`/`Fast` select the per-method fast scorer.
    /// Its environment override (see [`OPTIONS`]) beats this option — the
    /// debugging escape hatch.
    #[derive(Default)]
    pub enum KernelChoice("kernel") {
        /// Use the per-method fast scorer. Default.
        #[default]
        Auto = "auto",
        /// Force the reference scalar per-column scorer everywhere.
        Scalar = "scalar",
        /// Synonym of `Auto` kept for compatibility with existing scripts.
        Fast = "fast",
    }
}

impl KernelChoice {
    /// Apply the environment override, if set to a valid value. Every
    /// context construction consults this, so the override forces the
    /// scalar path through any driver without touching options plumbing.
    pub fn env_override(self) -> Self {
        env_override("kernel", |o| o.kernel).unwrap_or(self)
    }
}

spelled_enum! {
    /// Accumulation precision of the fast scorers' SoA kernels.
    ///
    /// `F64` (the default) is the reference precision: fast-scorer sums are
    /// bitwise identical to the scalar path and exceedance counts are exact.
    /// `F32` halves the score-tile footprint and doubles SIMD lane width at
    /// the cost of rounding: statistics drift by a documented bound (see
    /// DESIGN.md §4.10) and counts are no longer guaranteed to match the f64
    /// reference, so every bitwise-reproducibility surface (checkpoint
    /// resume, the jobd result cache) rejects it with a typed usage error.
    /// The scalar reference scorer always computes in f64 regardless of this
    /// knob. An environment override beats this option, as for
    /// [`KernelChoice`].
    #[derive(Default)]
    pub enum Precision("precision") {
        /// Accumulate in `f64` (bitwise-reproducible). Default.
        #[default]
        F64 = "f64",
        /// Accumulate in `f32` (opt-in, bounded-error, not reproducible vs
        /// f64).
        F32 = "f32",
    }
}

impl Precision {
    /// Apply the environment override, if set to a valid value. Consulted
    /// wherever a fast scorer is built *and* wherever f32 must be rejected,
    /// so the override cannot smuggle reduced precision past a
    /// reproducibility gate.
    pub fn env_override(self) -> Self {
        env_override("precision", |o| o.precision).unwrap_or(self)
    }
}

spelled_enum! {
    /// How the permutation budget is spent.
    ///
    /// `Exact` (the default) scores every gene against all `B` permutations
    /// — the paper's semantics, bitwise-reproducible across any engine
    /// geometry. `Adaptive` routes the run through the
    /// [`adaptive`](crate::adaptive) subsystem: genes whose raw p-value is
    /// clearly non-significant are deactivated early under an anytime-valid
    /// confidence-sequence bound, and the smallest p-values get a
    /// generalized-Pareto tail fit. Adaptive results carry deterministic
    /// per-gene p-value *bounds* instead of exact counts, so every surface
    /// that contracts bitwise reproducibility (checkpoint resume, jobd span
    /// execution) refuses the mode — an adaptive job can later be
    /// *upgraded* to exact by resubmitting in exact mode, which extends the
    /// cached exact prefix. An environment override beats this option, as
    /// for [`KernelChoice`].
    #[derive(Default)]
    pub enum Mode("mode") {
        /// Score all `B` permutations for every gene. Default.
        #[default]
        Exact = "exact",
        /// Early-stop clearly non-significant genes; tail-fit the smallest
        /// p-values. Reports bounds and diagnostics, not exact counts.
        Adaptive = "adaptive",
    }
}

impl Mode {
    /// Apply the environment override, if set to a valid value. Consulted
    /// where a run dispatches on mode *and* wherever adaptive must be
    /// rejected, so the override cannot smuggle an approximate run past a
    /// reproducibility gate.
    pub fn env_override(self) -> Self {
        env_override("mode", |o| o.mode).unwrap_or(self)
    }
}

spelled_enum! {
    /// Which resampling workload a run computes.
    ///
    /// `Pmaxt` (the default) is the paper's permutation test: label
    /// arrangements drive the maxT step-down adjustment. `Bootstrap` draws
    /// samples *with replacement* over the same resampling-stream seam and
    /// reports percentile and BCa confidence intervals for each gene's
    /// group-mean difference instead of p-values. The workload selects what
    /// a draw means: a label arrangement, or a vector of resampled column
    /// indices ([`Rule::Bootstrap`](crate::perm::random::Rule)). Digests
    /// absorb a marker only for non-default workloads so every pre-existing
    /// permutation digest (and the caches keyed by them) stays valid.
    #[derive(Default)]
    pub enum Workload("workload") {
        /// Westfall–Young maxT permutation testing. Default.
        #[default]
        Pmaxt = "pmaxt",
        /// Case-resampling bootstrap with percentile + BCa confidence
        /// intervals.
        Bootstrap = "bootstrap",
    }
}

/// The spellings of R's yes/no flags ([`Form::YesNo`]), yes first.
pub const YES_NO: [&str; 2] = ["y", "n"];

/// How an option's value is written. Each variant names its text form,
/// which the `pmaxt` flags and the `SPRINT_*` variables read, then what
/// jobd's JSON and `sprint::marshal` carry it as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// One of an enum's spellings. JSON string; marshal string, sent as a
    /// one-byte code by IntCoded.
    Word(&'static [&'static str]),
    /// A non-negative decimal integer. JSON number (at most 2^53, the
    /// integers a JSON number holds exactly); marshal integer.
    Count,
    /// A decimal `u64` of any size. JSON decimal string, since JSON numbers
    /// lose integers past 2^53; marshal integer.
    Seed,
    /// One of [`YES_NO`]. JSON boolean; marshal string.
    YesNo,
    /// A missing-value code: a float, absent when unset. JSON number
    /// (finite: JSON has no other); marshal float.
    NaCode,
}

impl Form {
    /// What the text form accepts, for messages.
    pub fn accepted(self) -> String {
        let words = match self {
            Form::Word(words) => words,
            Form::YesNo => &YES_NO[..],
            Form::Count => return "a non-negative integer".to_string(),
            Form::Seed => return "an unsigned 64-bit integer".to_string(),
            Form::NaCode => return "a number".to_string(),
        };
        let quoted: Vec<String> = words.iter().map(|w| format!("{w:?}")).collect();
        match quoted.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => quoted.concat(),
        }
    }
}

/// Which content digests an option enters ([`crate::digest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestScope {
    /// Both digests: the option changes the stream a run draws or the
    /// numbers it reports.
    Both,
    /// `options_digest` only: the option changes what a run reports but
    /// not the stream it draws (`mode`).
    OptionsOnly,
    /// `options_digest` in full, `stream_digest` as its count class,
    /// complete enumeration or Monte-Carlo (`B`).
    CountClass,
    /// Neither: implementation selection and limits, which never change a
    /// result.
    None,
}

/// One option: everything a surface needs to read, write or key it.
#[derive(Debug, Clone, Copy)]
pub struct OptionRow {
    /// The R argument name, which is also `sprint::marshal`'s argument name
    /// and the `param` of a bad value's [`Error::BadOption`].
    pub name: &'static str,
    /// jobd's JSON key; `None` for an option requests do not carry.
    pub json: Option<&'static str>,
    /// How the value is written.
    pub form: Form,
    /// The `pmaxt run`/`submit` flags; the first is the one the usage text
    /// shows.
    pub flags: &'static [&'static str],
    /// The `SPRINT_*` environment variable that overrides the option where
    /// a run reads it.
    pub env: Option<&'static str>,
    /// The digests the option enters.
    pub digest: DigestScope,
}

const fn row(
    name: &'static str,
    json: Option<&'static str>,
    form: Form,
    flags: &'static [&'static str],
    env: Option<&'static str>,
    digest: DigestScope,
) -> OptionRow {
    OptionRow {
        name,
        json,
        form,
        flags,
        env,
        digest,
    }
}

/// Every [`PmaxtOptions`] field, one row each, in the order jobd's JSON
/// writes them (its bytes are pinned, so rows keep their places).
#[rustfmt::skip]
pub const OPTIONS: [OptionRow; 14] = {
    use DigestScope::{Both, CountClass, OptionsOnly};
    use Form::{Count, NaCode, Seed, Word, YesNo};
    [
        //  name                   JSON key           form                           flags                      environment               digests
        row("test",                Some("test"),      Word(TestMethod::SPELLINGS),   &["--test"],               None,                     Both),
        row("side",                Some("side"),      Word(Side::SPELLINGS),         &["--side"],               None,                     Both),
        row("fixed.seed.sampling", Some("sampling"),  Word(SamplingMode::SPELLINGS), &["--fixed-seed"],         None,                     Both),
        row("B",                   Some("b"),         Count,                         &["-B", "--permutations"], None,                     CountClass),
        row("nonpara",             Some("nonpara"),   YesNo,                         &["--nonpara"],            None,                     Both),
        row("seed",                Some("seed"),      Seed,                          &["--seed"],               None,                     Both),
        row("kernel",              Some("kernel"),    Word(KernelChoice::SPELLINGS), &["--kernel"],             Some("SPRINT_KERNEL"),    DigestScope::None),
        row("precision",           Some("precision"), Word(Precision::SPELLINGS),    &["--precision"],          Some("SPRINT_PRECISION"), Both),
        row("mode",                Some("mode"),      Word(Mode::SPELLINGS),         &["--mode"],               Some("SPRINT_MODE"),      OptionsOnly),
        row("threads",             Some("threads"),   Count,                         &["--threads"],            Some("SPRINT_THREADS"),   DigestScope::None),
        row("batch",               Some("batch"),     Count,                         &["--batch"],              Some("SPRINT_BATCH"),     DigestScope::None),
        row("workload",            Some("workload"),  Word(Workload::SPELLINGS),     &["--workload"],           None,                     Both),
        row("na",                  Some("na"),        NaCode,                        &["--na"],                 None,                     Both),
        row("max.complete",        None,              Count,                         &[],                       None,                     DigestScope::None),
    ]
};

impl OptionRow {
    /// The row named `name`.
    ///
    /// # Panics
    /// If no row has that name.
    pub(crate) fn named(name: &str) -> &'static OptionRow {
        OPTIONS
            .iter()
            .find(|row| row.name == name)
            .unwrap_or_else(|| panic!("no option row named {name:?}"))
    }
}

/// A field's text form: the string form of an enum, a decimal integer,
/// [`YES_NO`] for a flag, a float for the NA code.
pub(crate) trait Text {
    /// The text; `None` when the field is unset (an absent NA code).
    fn text(&self) -> Option<String>;
    /// Parse `s` into the field; `false`, leaving it alone, when `s` does
    /// not parse.
    fn set(&mut self, s: &str) -> bool;
}

macro_rules! decimal_text {
    ($($int:ty),+) => {$(
        impl Text for $int {
            fn text(&self) -> Option<String> {
                Some(self.to_string())
            }
            fn set(&mut self, s: &str) -> bool {
                s.parse().map(|v| *self = v).is_ok()
            }
        }
    )+};
}
decimal_text!(u64, usize);

impl Text for bool {
    fn text(&self) -> Option<String> {
        Some(YES_NO[usize::from(!*self)].to_string())
    }
    fn set(&mut self, s: &str) -> bool {
        let yes = YES_NO.iter().position(|&w| w == s).map(|i| i == 0);
        yes.map(|yes| *self = yes).is_some()
    }
}

impl Text for Option<f64> {
    fn text(&self) -> Option<String> {
        self.map(|v| v.to_string())
    }
    fn set(&mut self, s: &str) -> bool {
        s.parse().map(|v| *self = Some(v)).is_ok()
    }
}

/// Row `name`'s `SPRINT_*` override, read through the row's text form and
/// handed back by `field`. A value that does not parse is ignored with one
/// stderr warning per variable naming the accepted forms — never silently:
/// silent swallowing made `SPRINT_KERNEL=Fast` or `SPRINT_THREADS=4x` run
/// the default configuration with no sign anything was wrong.
pub(crate) fn env_override<T>(name: &str, field: impl FnOnce(&PmaxtOptions) -> T) -> Option<T> {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static WARNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let row = OptionRow::named(name);
    let var = row.env?;
    let value = std::env::var(var).ok()?;
    let mut opts = PmaxtOptions::default();
    if opts.set_text(row, &value).is_ok() {
        return Some(field(&opts));
    }
    let warned = WARNED.get_or_init(|| Mutex::new(HashSet::new()));
    if warned
        .lock()
        .expect("no thread panics holding the set")
        .insert(var)
    {
        let accepted = row.form.accepted();
        eprintln!("warning: ignoring invalid {var}={value:?}: accepted values are {accepted}");
    }
    None
}

/// The default maximum number of complete permutations accepted when `B = 0`.
/// Beyond this the run refuses and asks for Monte-Carlo sampling, as the
/// paper describes.
pub const DEFAULT_MAX_COMPLETE: u64 = 100_000_000;

/// Options of `pmaxT`/`mt.maxT` with the R defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct PmaxtOptions {
    /// `test`: the statistic (default `"t"`).
    pub test: TestMethod,
    /// `side`: the rejection region (default `"abs"`).
    pub side: Side,
    /// `fixed.seed.sampling`: generator/store choice (default `"y"`).
    pub sampling: SamplingMode,
    /// `B`: requested permutation count; `0` requests complete enumeration
    /// (default 10 000).
    pub b: u64,
    /// `na`: the missing-value code; cells equal to it are excluded. `None`
    /// means only `NaN` cells are missing (the `.mt.naNUM` default behaves
    /// this way after canonicalization).
    pub na: Option<f64>,
    /// `nonpara`: rank-transform the data before computing the statistic
    /// (default `"n"`).
    pub nonpara: bool,
    /// RNG seed for the permutation streams. The R implementation seeds from
    /// a fixed constant; we expose it for reproducibility studies.
    pub seed: u64,
    /// Cap on complete enumeration (see [`DEFAULT_MAX_COMPLETE`]).
    pub max_complete: u64,
    /// Scorer selection (see [`KernelChoice`]). Not part of the R
    /// signature — all scorers produce the same counts, this only selects
    /// the implementation.
    pub kernel: KernelChoice,
    /// Worker threads per rank for the permutation engine; `0` (default)
    /// means "use available parallelism". An environment override beats it
    /// (see [`OPTIONS`]). Any value produces identical results — the
    /// engine's count reduction is exact.
    pub threads: usize,
    /// Permutations per engine batch; `0` (default) selects the built-in
    /// batch size. An environment override beats it. Any value produces
    /// identical results.
    pub batch: usize,
    /// Accumulation precision of the fast scorers (see [`Precision`]). Not
    /// part of the R signature; `F64` (default) is exact, `F32` trades a
    /// bounded statistic error for speed and is rejected by surfaces that
    /// require bitwise reproducibility. An environment override beats it.
    pub precision: Precision,
    /// Permutation-budget mode (see [`Mode`]). Not part of the R signature;
    /// `Exact` (default) preserves the paper's semantics, `Adaptive` spends
    /// the budget unevenly and reports per-gene bounds and diagnostics. An
    /// environment override beats it.
    pub mode: Mode,
    /// Resampling workload (see [`Workload`]). Not part of the R signature;
    /// `Pmaxt` (default) is the paper's permutation test, `Bootstrap` draws
    /// with replacement and reports confidence intervals.
    pub workload: Workload,
}

impl Default for PmaxtOptions {
    fn default() -> Self {
        PmaxtOptions {
            test: TestMethod::T,
            side: Side::Abs,
            sampling: SamplingMode::FixedSeedOnTheFly,
            b: 10_000,
            na: None,
            nonpara: false,
            seed: 44_561, // multtest's historical default RNG seed
            max_complete: DEFAULT_MAX_COMPLETE,
            kernel: KernelChoice::Auto,
            threads: 0,
            batch: 0,
            precision: Precision::F64,
            mode: Mode::Exact,
            workload: Workload::Pmaxt,
        }
    }
}

impl PmaxtOptions {
    /// Start from the R defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `test` from the R string form.
    pub fn test_str(mut self, s: &str) -> Result<Self> {
        self.test = TestMethod::parse(s)?;
        Ok(self)
    }

    /// Set `test`.
    pub fn test(mut self, m: TestMethod) -> Self {
        self.test = m;
        self
    }

    /// Set `side` from the R string form.
    pub fn side_str(mut self, s: &str) -> Result<Self> {
        self.side = Side::parse(s)?;
        Ok(self)
    }

    /// Set `side`.
    pub fn side(mut self, s: Side) -> Self {
        self.side = s;
        self
    }

    /// Set `fixed.seed.sampling` from `"y"`/`"n"`.
    pub fn fixed_seed_sampling(mut self, s: &str) -> Result<Self> {
        self.sampling = SamplingMode::parse(s)?;
        Ok(self)
    }

    /// Set the permutation count (`0` = complete enumeration).
    pub fn permutations(mut self, b: u64) -> Self {
        self.b = b;
        self
    }

    /// Set the missing-value code.
    pub fn na_code(mut self, na: f64) -> Self {
        self.na = Some(na);
        self
    }

    /// Enable/disable the non-parametric rank transform.
    pub fn nonpara(mut self, yes: bool) -> Self {
        self.nonpara = yes;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the complete-enumeration cap.
    pub fn max_complete(mut self, max: u64) -> Self {
        self.max_complete = max;
        self
    }

    /// Set the scoring kernel.
    pub fn kernel(mut self, k: KernelChoice) -> Self {
        self.kernel = k;
        self
    }

    /// Set the per-rank worker-thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the engine batch size (`0` = built-in default).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Set the fast-scorer accumulation precision.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Set the permutation-budget mode.
    pub fn mode(mut self, m: Mode) -> Self {
        self.mode = m;
        self
    }

    /// Set the resampling workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// The field behind `row`: the one place a row name meets a field.
    /// Panics for a row that is not one of [`OPTIONS`].
    fn field(&mut self, row: &OptionRow) -> &mut dyn Text {
        match row.name {
            "test" => &mut self.test,
            "side" => &mut self.side,
            "fixed.seed.sampling" => &mut self.sampling,
            "B" => &mut self.b,
            "na" => &mut self.na,
            "nonpara" => &mut self.nonpara,
            "seed" => &mut self.seed,
            "max.complete" => &mut self.max_complete,
            "kernel" => &mut self.kernel,
            "threads" => &mut self.threads,
            "batch" => &mut self.batch,
            "precision" => &mut self.precision,
            "mode" => &mut self.mode,
            "workload" => &mut self.workload,
            other => panic!("no options field for row {other:?}"),
        }
    }

    /// `row`'s value in its text form; `None` when unset (no NA code).
    /// `row` is one of [`OPTIONS`].
    pub fn text(&self, row: &OptionRow) -> Option<String> {
        // Read through a copy, so that one match serves both directions.
        self.clone().field(row).text()
    }

    /// Set `row`'s field (`row` is one of [`OPTIONS`]) from its text form;
    /// a value that does not parse is a [`Error::BadOption`] naming the row
    /// and leaves the field alone.
    pub fn set_text(&mut self, row: &OptionRow, text: &str) -> Result<()> {
        if self.field(row).set(text) {
            return Ok(());
        }
        Err(Error::BadOption {
            param: row.name,
            value: text.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_r_signature() {
        let o = PmaxtOptions::default();
        assert_eq!(o.test, TestMethod::T);
        assert_eq!(o.side, Side::Abs);
        assert_eq!(o.sampling, SamplingMode::FixedSeedOnTheFly);
        assert_eq!(o.b, 10_000);
        assert_eq!(o.na, None);
        assert!(!o.nonpara);
    }

    #[test]
    fn method_strings_round_trip() {
        for m in TestMethod::ALL {
            assert_eq!(TestMethod::parse(m.as_str()).unwrap(), m);
        }
        assert!(TestMethod::parse("ttest").is_err());
        assert!(TestMethod::parse("").is_err());
    }

    #[test]
    fn sampling_mode_round_trips() {
        assert_eq!(
            SamplingMode::parse("y").unwrap(),
            SamplingMode::FixedSeedOnTheFly
        );
        assert_eq!(SamplingMode::parse("n").unwrap(), SamplingMode::Stored);
        assert!(SamplingMode::parse("yes").is_err());
    }

    #[test]
    fn builder_composes() {
        let o = PmaxtOptions::new()
            .test_str("wilcoxon")
            .unwrap()
            .side_str("upper")
            .unwrap()
            .fixed_seed_sampling("n")
            .unwrap()
            .permutations(500)
            .na_code(-99.0)
            .nonpara(true)
            .seed(7);
        assert_eq!(o.test, TestMethod::Wilcoxon);
        assert_eq!(o.side, Side::Upper);
        assert_eq!(o.sampling, SamplingMode::Stored);
        assert_eq!(o.b, 500);
        assert_eq!(o.na, Some(-99.0));
        assert!(o.nonpara);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn kernel_choice_round_trips_and_defaults_to_auto() {
        assert_eq!(PmaxtOptions::default().kernel, KernelChoice::Auto);
        for k in [KernelChoice::Auto, KernelChoice::Scalar, KernelChoice::Fast] {
            assert_eq!(KernelChoice::parse(k.as_str()).unwrap(), k);
        }
        assert!(KernelChoice::parse("simd").is_err());
        let mut o = PmaxtOptions::new();
        o.set_text(OptionRow::named("kernel"), "scalar").unwrap();
        assert_eq!(o.kernel, KernelChoice::Scalar);
        assert_eq!(o.kernel(KernelChoice::Fast).kernel, KernelChoice::Fast);
    }

    #[test]
    fn thread_and_batch_builders_default_to_auto() {
        let o = PmaxtOptions::default();
        assert_eq!(o.threads, 0);
        assert_eq!(o.batch, 0);
        let o = PmaxtOptions::new().threads(4).batch(16);
        assert_eq!(o.threads, 4);
        assert_eq!(o.batch, 16);
    }

    #[test]
    fn precision_round_trips_and_defaults_to_f64() {
        assert_eq!(PmaxtOptions::default().precision, Precision::F64);
        for p in [Precision::F64, Precision::F32] {
            assert_eq!(Precision::parse(p.as_str()).unwrap(), p);
        }
        assert!(Precision::parse("f16").is_err());
        assert!(Precision::parse("F32").is_err());
        let mut o = PmaxtOptions::new();
        o.set_text(OptionRow::named("precision"), "f32").unwrap();
        assert_eq!(o.precision, Precision::F32);
        assert_eq!(o.precision(Precision::F64).precision, Precision::F64);
    }

    #[test]
    fn mode_round_trips_and_defaults_to_exact() {
        assert_eq!(PmaxtOptions::default().mode, Mode::Exact);
        for m in [Mode::Exact, Mode::Adaptive] {
            assert_eq!(Mode::parse(m.as_str()).unwrap(), m);
        }
        assert!(Mode::parse("approx").is_err());
        assert!(Mode::parse("Adaptive").is_err());
        let mut o = PmaxtOptions::new();
        o.set_text(OptionRow::named("mode"), "adaptive").unwrap();
        assert_eq!(o.mode, Mode::Adaptive);
        assert_eq!(o.mode(Mode::Exact).mode, Mode::Exact);
    }

    #[test]
    fn generator_family_classification() {
        assert!(TestMethod::T.uses_shuffle_generator());
        assert!(TestMethod::TEqualVar.uses_shuffle_generator());
        assert!(TestMethod::Wilcoxon.uses_shuffle_generator());
        assert!(TestMethod::F.uses_shuffle_generator());
        assert!(TestMethod::Corr.uses_shuffle_generator());
        assert!(TestMethod::TMax.uses_shuffle_generator());
        assert!(!TestMethod::PairT.uses_shuffle_generator());
        assert!(!TestMethod::BlockF.uses_shuffle_generator());
        assert!(TestMethod::TMax.single_step_max());
        assert!(!TestMethod::T.single_step_max());
    }

    #[test]
    fn workload_round_trips_and_defaults_to_pmaxt() {
        assert_eq!(PmaxtOptions::default().workload, Workload::Pmaxt);
        for w in [Workload::Pmaxt, Workload::Bootstrap] {
            assert_eq!(Workload::parse(w.as_str()).unwrap(), w);
        }
        assert!(Workload::parse("jackknife").is_err());
        assert!(Workload::parse("Bootstrap").is_err());
        let mut o = PmaxtOptions::new();
        o.set_text(OptionRow::named("workload"), "bootstrap")
            .unwrap();
        assert_eq!(o.workload, Workload::Bootstrap);
        assert_eq!(o.workload(Workload::Pmaxt).workload, Workload::Pmaxt);
    }

    #[test]
    fn every_row_reads_and_writes_its_own_field() {
        let base = PmaxtOptions::default();
        for row in &OPTIONS {
            // The default's text sets the default back.
            let mut o = base.clone();
            match base.text(row) {
                Some(text) => o.set_text(row, &text).unwrap(),
                None => assert_eq!(row.form, Form::NaCode, "{}", row.name),
            }
            assert_eq!(o, base, "{}", row.name);
            // A value outside the form is refused, naming the row, and
            // leaves the options alone.
            let err = o.set_text(row, "1x").unwrap_err();
            assert!(
                matches!(err, Error::BadOption { param, .. } if param == row.name),
                "{}: {err}",
                row.name
            );
            assert_eq!(o, base, "{}", row.name);
        }
    }

    #[test]
    fn rows_name_every_surface_at_most_once() {
        fn distinct<'a>(what: &str, items: impl Iterator<Item = &'a str>) {
            let mut seen = std::collections::HashSet::new();
            for item in items {
                assert!(seen.insert(item), "{what} {item:?} appears twice");
            }
        }
        distinct("name", OPTIONS.iter().map(|r| r.name));
        distinct("JSON key", OPTIONS.iter().filter_map(|r| r.json));
        distinct("flag", OPTIONS.iter().flat_map(|r| r.flags.iter().copied()));
        distinct("variable", OPTIONS.iter().filter_map(|r| r.env));
        assert_eq!(OptionRow::named("B").json, Some("b"));
    }

    #[test]
    fn yes_no_takes_only_y_or_n() {
        let row = OptionRow::named("nonpara");
        let mut o = PmaxtOptions::default();
        o.set_text(row, "y").unwrap();
        assert!(o.nonpara);
        assert_eq!(o.text(row).as_deref(), Some("y"));
        for bad in ["yes", "Y", "true", "1", ""] {
            assert!(o.set_text(row, bad).is_err(), "{bad:?}");
            assert!(o.nonpara, "{bad:?} changed the flag");
        }
        o.set_text(row, "n").unwrap();
        assert!(!o.nonpara);
    }

    #[test]
    fn na_code_text_keeps_every_bit() {
        let row = OptionRow::named("na");
        for na in [-99.5, -0.0, 1e300, 5e-324, f64::INFINITY] {
            let o = PmaxtOptions::default().na_code(na);
            let mut back = PmaxtOptions::default();
            back.set_text(row, &o.text(row).unwrap()).unwrap();
            assert_eq!(back.na.map(f64::to_bits), Some(na.to_bits()));
        }
        assert_eq!(PmaxtOptions::default().text(row), None);
    }

    #[test]
    fn accepted_forms_read_as_lists() {
        assert_eq!(
            OptionRow::named("kernel").form.accepted(),
            r#""auto", "scalar" or "fast""#
        );
        assert_eq!(
            OptionRow::named("mode").form.accepted(),
            r#""exact" or "adaptive""#
        );
        assert_eq!(OptionRow::named("nonpara").form.accepted(), r#""y" or "n""#);
        assert_eq!(
            OptionRow::named("threads").form.accepted(),
            "a non-negative integer"
        );
    }
}
