//! Admission: the one place a run is checked before it runs.
//!
//! The paper's Step 1 has the master validate and pre-process `pmaxT`'s
//! parameters once, before anything is broadcast. Every run is admitted
//! exactly once, by [`admit`] at the entry it comes in by, in four steps: it
//! builds the class labels and checks them against the columns,
//! canonicalizes NA (in place when the entry hands its matrix over,
//! borrowing it when no code is given), resolves B, and decides the entry ×
//! workload × mode × precision cell in one `match`, each refusal naming the
//! contract it protects. It then resolves the engine geometry once and holds
//! one working-set formula against one budget, [`BUDGET_BYTES`]. The
//! admission is a matrix-free [`Run`] plus the NA-canonical matrix; every
//! driver below the entry runs on those two, so the budget counts the
//! workers the run uses. DESIGN.md §4.2.1 tabulates the cells.

use std::borrow::Cow;
use std::ops::Deref;

use crate::error::{Error, Result};
use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::maxt::engine::{available_threads, EngineConfig, GENE_TILE};
use crate::maxt::MaxTContext;
use crate::options::{Mode, PmaxtOptions, Precision, TestMethod, Workload};
use crate::perm::arrangement::resolve_draw_count;
use crate::perm::bootstrap::MAX_BOOTSTRAP_COLS;
use crate::stats::prepare_matrix;
use crate::stats::scorer::Statistic;

/// The memory a run may hold: 512 MiB.
pub const BUDGET_BYTES: usize = 512 << 20;

/// Where a run enters, with what the caller fixes beyond the options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `mt_maxt`, `prepare_run` (`engine: None`, resolved from the options
    /// and environment) and `maxt_with_config` (pinned).
    MaxT { engine: Option<EngineConfig> },
    /// `pmaxt()` and the framework's `call_pmaxt`: the engine on every rank.
    Spmd { ranks: usize },
    /// `adaptive_maxt`.
    Adaptive,
    /// `mt_minp` (one rank) and `pminp`.
    MinP { ranks: usize },
    /// `sample_teststats`.
    Sample,
    /// `boot_run` and `boot_run_slice`.
    Bootstrap,
    /// The checkpoint runner, `run_with_checkpoints`.
    Checkpoint,
    /// `pmaxt run`, with its `--ranks`, `--minp` and `--perm-file` flags.
    Cli {
        ranks: usize,
        minp: bool,
        replay: bool,
    },
    /// A job service `submit`; `threads = 0` takes the daemon's `job_threads`.
    Submit { job_threads: usize },
    /// A job service `span_exec`: one unit of a peer coordinator's job.
    Span { job_threads: usize },
}

/// An admitted run without its matrix: everything its drivers read but the
/// data. It is plain owned data, so the `pmaxt` master broadcasts it as its
/// parameters and the job service keeps it for a job's life.
#[derive(Debug, Clone)]
pub struct Run {
    pub labels: ClassLabels,
    /// B, or the complete count for `B = 0`.
    pub b: u64,
    /// The mode the run is dispatched on, with `SPRINT_MODE` folded in where
    /// the entry reads it; `Exact` for bootstrap.
    pub mode: Mode,
    /// The engine geometry every driver of the run uses.
    pub engine: EngineConfig,
    /// The options the run was admitted with.
    pub opts: PmaxtOptions,
}

impl Run {
    /// `data` (the run's NA-canonical matrix, or rows of it) as the run's
    /// scorer reads it: rank-transformed for `wilcoxon` and `nonpara`,
    /// borrowed otherwise.
    pub fn prepare<'m>(&self, data: &'m Matrix) -> Cow<'m, Matrix> {
        prepare_matrix(data, self.opts.test, self.opts.nonpara)
    }

    /// The run's maxT context over a prepared matrix; for a bootstrap run,
    /// over rows of its NA-canonical matrix, with the bootstrap's scorer.
    pub fn context<'m>(&self, prepared: &'m Matrix) -> MaxTContext<'m> {
        let o = &self.opts;
        let stat = match o.workload {
            Workload::Pmaxt => Statistic::Test(o.test),
            Workload::Bootstrap => Statistic::BootMeanDiff,
        };
        MaxTContext::with_scorer(prepared, &self.labels, stat, o.side, o.kernel, o.precision)
    }
}

/// An admission: the run, and its NA-canonical matrix. It reads as its
/// [`Run`].
#[derive(Debug)]
pub struct Admitted<'a> {
    pub run: Run,
    /// The NA-canonical matrix: the entry's own when it handed its matrix
    /// over (NA rewritten in place), else borrowed unless an NA code
    /// rewrote a copy.
    pub data: Cow<'a, Matrix>,
}

impl Deref for Admitted<'_> {
    type Target = Run;

    fn deref(&self) -> &Run {
        &self.run
    }
}

/// Admit a run entering at `entry`, or refuse it with a typed error. An
/// entry that owns its matrix passes it by value, and an NA code is then
/// rewritten in that matrix; a borrowed matrix is copied only to rewrite
/// one.
pub fn admit<'a>(
    data: impl Into<Cow<'a, Matrix>>,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    entry: Entry,
) -> Result<Admitted<'a>> {
    let data = data.into();
    let labels = ClassLabels::new(classlabel.to_vec(), opts.test)?;
    if labels.len() != data.cols() {
        return Err(Error::BadLabels(format!(
            "classlabel length {} does not match {} data columns",
            labels.len(),
            data.cols()
        )));
    }
    let data = match opts.na {
        None => data,
        // A code no cell can equal (NaN), or one JSON cannot carry.
        Some(code) if !code.is_finite() => {
            return Err(Error::BadOption {
                param: "na",
                value: format!("{code} (an NA code must be a finite number)"),
            })
        }
        Some(code) => {
            let (rows, cols) = (data.rows(), data.cols());
            let cells = data.into_owned().into_vec();
            Cow::Owned(Matrix::from_vec_with_na(rows, cols, cells, code)?)
        }
    };
    let b = resolve_draw_count(&labels, opts)?;
    let mode = decide(entry, opts, &labels, b)?;
    let engine = fit(entry, opts, &labels, data.rows(), b)?;
    let run = Run {
        labels,
        b,
        mode,
        engine,
        opts: opts.clone(),
    };
    Ok(Admitted { run, data })
}

/// Step 4: the cell. Returns the mode the run is dispatched on.
fn decide(entry: Entry, opts: &PmaxtOptions, labels: &ClassLabels, b: u64) -> Result<Mode> {
    use Entry::*;
    use Workload::{Bootstrap as Boot, Pmaxt};
    // The environment forms are read where the entry picks a driver by mode
    // or contracts reproducible counts, so an override cannot carry a
    // refused value past its gate. The bootstrap driver builds no scorer and
    // has no adaptive mode, so its own gates read the request.
    let (mode, precision) = match entry {
        Checkpoint | Cli { .. } | Submit { .. } | Span { .. } => {
            (opts.mode.env_override(), opts.precision.env_override())
        }
        _ => (opts.mode, opts.precision),
    };
    let (adaptive, f32) = (mode == Mode::Adaptive, precision == Precision::F32);
    // `pmaxt run`'s flags: each picks a driver other than maxT on one rank.
    let (ranks, picked) = match entry {
        Cli {
            ranks,
            minp,
            replay,
        } => (ranks, minp || replay || ranks > 1),
        _ => (1, false),
    };
    let bad = |param, why: &str| {
        Err(Error::BadOption {
            param,
            value: why.into(),
        })
    };
    // Bootstrap draws are column indices, not label arrangements.
    let labels_only = "bootstrap (the permutation drivers score label arrangements)";
    match (entry, opts.workload) {
        (MaxT { .. } | Spmd { .. } | Adaptive | MinP { .. } | Sample, Boot) => {
            bad("workload", labels_only)
        }
        (Cli { .. }, Boot) if picked => bad("workload", labels_only),
        (Bootstrap, Pmaxt) => bad("workload", "pmaxt (the bootstrap driver runs bootstrap)"),
        // A checkpoint resumes exact counts bit for bit.
        (Checkpoint, _) if f32 => bad("precision", "f32 (checkpoints resume exact f64 counts)"),
        (Checkpoint, _) if adaptive => bad("mode", "adaptive (checkpoints resume exact counts)"),
        (Checkpoint, Boot) => bad(
            "workload",
            "bootstrap (checkpoints resume permutation counts)",
        ),
        // The bootstrap estimate: the two-group mean difference, in f64.
        (_, Boot) if opts.test != TestMethod::T => {
            let test = opts.test.as_str();
            bad(
                "test",
                &format!("{test} (the bootstrap estimate requires test=\"t\")"),
            )
        }
        (_, Boot) if opts.mode == Mode::Adaptive => bad(
            "mode",
            "adaptive (bootstrap replicates have no early-stopping bound)",
        ),
        (_, Boot) if opts.precision == Precision::F32 => bad(
            "precision",
            "f32 (bootstrap intervals are validated for f64 only)",
        ),
        (_, Boot) if labels.len() > MAX_BOOTSTRAP_COLS => Err(Error::BadLabels(format!(
            "bootstrap supports at most {MAX_BOOTSTRAP_COLS} sample columns, got {}",
            labels.len()
        ))),
        // The job service extends cached counts and merges sharded ones.
        (Submit { .. } | Span { .. }, _) if f32 => bad(
            "precision",
            "f32 (the job service requires bitwise-reproducible f64)",
        ),
        (Span { .. }, Pmaxt) if adaptive => bad(
            "mode",
            "adaptive (span execution serves bitwise-exact sharded runs only)",
        ),
        (
            Cli {
                minp, replay: true, ..
            },
            _,
        ) if minp || ranks > 1 => bad(
            "perm-file",
            "given (replay is maxT in one process; drop --minp, --ranks)",
        ),
        (Cli { .. }, _) if ranks as u64 > b => Err(Error::RanksExceedPermutations {
            b,
            ranks: ranks as u64,
        }),
        (Cli { .. }, _) if adaptive && picked => bad(
            "mode",
            "adaptive (maxT on one generated stream and one process only)",
        ),
        (_, Boot) => Ok(Mode::Exact),
        (_, Pmaxt) => Ok(mode),
    }
}

/// Step 5: the engine geometry, resolved once, and the one working-set
/// formula held against [`BUDGET_BYTES`]. Per draw (B, or B − 1 bootstrap
/// replicates) a run holds:
///
/// - bootstrap: one block of `GENE_TILE` 8-byte replicates, charged whole
///   whatever the gene count, and a sorted value and a value of the
///   (stable) sort's scratch, 8 bytes each, for each finalizing worker (one
///   per engine thread, at most one per block row);
/// - minP: one block of `min(genes, GENE_TILE)` 8-byte scores (p-values
///   once the block is folded), an 8-byte running minimum, and an 8-byte
///   sorted score for each of the master's sorting workers (one per engine
///   thread, at most one per block row);
/// - `sample_teststats`: the 8-byte statistic it returns.
///
/// A B whose draws exceed the budget is refused, naming the largest B
/// accepted. Every engine worker also holds batch × (n + 8·genes + 8) bytes
/// of batch buffers, the genes of one block for the bootstrap; the batch is
/// clamped into the room the draws leave, at least one arrangement, because
/// any batch gives the same bits.
fn fit(
    entry: Entry,
    opts: &PmaxtOptions,
    labels: &ClassLabels,
    genes: usize,
    b: u64,
) -> Result<EngineConfig> {
    let mut engine = match entry {
        Entry::MaxT { engine: Some(cfg) } => EngineConfig::explicit(cfg.threads, cfg.batch),
        // A remote request: never this daemon's environment, and no more
        // threads than the host has.
        Entry::Submit { job_threads } | Entry::Span { job_threads } => {
            let threads = match opts.threads {
                0 => job_threads,
                t => t,
            };
            EngineConfig::explicit(threads.clamp(1, available_threads()), opts.batch)
        }
        _ => EngineConfig::resolve(opts),
    };
    let (n, g, threads) = (labels.len() as u128, genes as u128, engine.threads as u128);
    // Ranks, engine workers per rank, and what the driver itself holds per
    // draw.
    let block = g.min(GENE_TILE as u128);
    let sorters = threads.min(block).max(1);
    let minp = (
        8 * block + 8 + 8 * sorters,
        format!("{block} x 8 block score + 8 running minimum + {sorters} x 8 sorted minP"),
    );
    let (ranks, workers, (own, what)) = match entry {
        Entry::MinP { ranks }
        | Entry::Cli {
            ranks, minp: true, ..
        } => (ranks as u128, threads, minp),
        Entry::Spmd { ranks } | Entry::Cli { ranks, .. } => {
            (ranks as u128, threads, (0, String::new()))
        }
        Entry::Sample => (1, 0, (8, "8 statistic".into())),
        _ => (1, threads, (0, String::new())),
    };
    let boot = opts.workload == Workload::Bootstrap;
    let (draws, per_draw, scored) = match boot {
        true => (b - 1, 8 * GENE_TILE as u128 + 16 * sorters, block),
        false => (b, own, g),
    };
    let budget = BUDGET_BYTES as u128;
    let need = per_draw * u128::from(draws);
    if need > budget {
        let held = match boot {
            true => format!("{GENE_TILE} x 8 block replicates + {sorters} x (8 sorted + 8 sort)"),
            false => what,
        };
        return Err(Error::BadOption {
            param: "b",
            value: format!(
                "{b} (each draw holds {held} bytes = {per_draw} bytes, {need} bytes in all, over \
                 the {} MiB budget; the largest B accepted is {})",
                budget >> 20,
                budget / per_draw + u128::from(boot)
            ),
        });
    }
    let per_arrangement = ranks * workers * (n + 8 * scored + 8);
    if let Some(room) = (budget - need).checked_div(per_arrangement) {
        let room = usize::try_from(room).unwrap_or(usize::MAX);
        engine.batch = engine.batch.min(room).max(1);
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(genes: usize, cols: usize) -> Matrix {
        Matrix::from_vec(
            genes,
            cols,
            (0..genes * cols).map(|i| (i % 7) as f64).collect(),
        )
        .unwrap()
    }

    fn largest(e: Error) -> u128 {
        match e {
            Error::BadOption { param: "b", value } => value
                .split("the largest B accepted is ")
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("no largest B in {value:?}")),
            other => panic!("expected a b refusal, got {other:?}"),
        }
    }

    #[test]
    fn stored_sampling_is_admitted_at_any_b() {
        // `--fixed-seed n` draws its sequential stream on the fly, so B costs
        // it no memory. Each of these entries was refused at B = 2^40 while
        // every engine worker stored all B label vectors.
        let m = data(3, 8);
        let labels = [0u8, 0, 0, 0, 1, 1, 1, 1];
        let stored = PmaxtOptions::default()
            .fixed_seed_sampling("n")
            .unwrap()
            .threads(2)
            .batch(4)
            .permutations(1 << 40);
        let pinned = Entry::MaxT {
            engine: Some(EngineConfig::explicit(2, 4)),
        };
        let cli = Entry::Cli {
            ranks: 1,
            minp: false,
            replay: false,
        };
        for entry in [
            pinned,
            cli,
            Entry::Spmd { ranks: 3 },
            Entry::Submit { job_threads: 1 },
        ] {
            assert_eq!(admit(&m, &labels, &stored, entry).unwrap().b, 1 << 40);
        }
    }

    #[test]
    fn batch_is_clamped_into_the_room_the_draws_leave() {
        // 6102 genes x 76 columns, the paper's matrix shape.
        let (genes, cols) = (6102usize, 76usize);
        let m = Matrix::from_vec(genes, cols, vec![1.0; genes * cols]).unwrap();
        let labels: Vec<u8> = (0..cols).map(|c| u8::from(c >= 27)).collect();
        let per_arrangement = (cols + 8 * genes + 8) as u128;
        let opts = PmaxtOptions::default().permutations(1_000_000);
        let entry = Entry::MaxT {
            engine: Some(EngineConfig::explicit(2, 1_000_000)),
        };
        let run = admit(&m, &labels, &opts, entry).unwrap();
        assert_eq!(run.engine.threads, 2);
        let room = BUDGET_BYTES as u128 / (2 * per_arrangement);
        assert_eq!(run.engine.batch as u128, room);
        // A fitting batch stays as requested.
        let small = Entry::MaxT {
            engine: Some(EngineConfig::explicit(2, 32)),
        };
        assert_eq!(admit(&m, &labels, &opts, small).unwrap().engine.batch, 32);
        // minP's draws take their share first, on every rank; the batch gets
        // what is left, and never less than one arrangement.
        let minp = opts.threads(2).batch(1_000_000);
        let engine = EngineConfig::resolve(&minp);
        let threads = engine.threads as u128;
        let per_draw = GENE_TILE as u128 * 8 + 8 + threads.min(GENE_TILE as u128) * 8;
        for ranks in [1usize, 3] {
            let entry = Entry::MinP { ranks };
            let e = admit(&m, &labels, &minp.clone().permutations(u64::MAX), entry).unwrap_err();
            let b = largest(e);
            assert_eq!(b, BUDGET_BYTES as u128 / per_draw);
            let full = admit(&m, &labels, &minp.clone().permutations(b as u64), entry).unwrap();
            assert_eq!(full.engine.batch, 1);
            let half = admit(&m, &labels, &minp.clone().permutations(b as u64 / 2), entry);
            let left = BUDGET_BYTES as u128 - b / 2 * per_draw;
            let room = left / (ranks as u128 * threads * per_arrangement);
            let want = room.min(engine.batch as u128);
            assert_eq!(half.unwrap().engine.batch as u128, want, "{ranks} ranks");
        }
    }

    #[test]
    fn bootstrap_batch_is_clamped_into_the_room_its_block_leaves() {
        // The engine scores the bootstrap one block of genes at a time, so a
        // worker's batch buffers hold one block's statistics per draw.
        let (genes, cols) = (1000usize, 10usize);
        let m = data(genes, cols);
        let labels: Vec<u8> = (0..cols).map(|c| u8::from(c >= cols / 2)).collect();
        let greedy = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .threads(2)
            .batch(1 << 40);
        let b = 1000u64;
        let asked = EngineConfig::resolve(&greedy).batch as u128;
        let run = admit(&m, &labels, &greedy.permutations(b), Entry::Bootstrap).unwrap();
        let threads = run.engine.threads as u128;
        let per_draw = GENE_TILE as u128 * 8 + threads.min(GENE_TILE as u128) * 16;
        let room = BUDGET_BYTES as u128 - u128::from(b - 1) * per_draw;
        let per_arrangement = threads * (cols + 8 * GENE_TILE + 8) as u128;
        let want = (room / per_arrangement).min(asked);
        assert_eq!(run.engine.batch as u128, want);
    }

    #[test]
    fn service_threads_take_the_daemon_share_and_the_host_cap() {
        let m = data(3, 8);
        let labels = [0u8, 0, 0, 0, 1, 1, 1, 1];
        let cores = available_threads();
        let auto = PmaxtOptions::default().permutations(20);
        for entry in [
            Entry::Submit { job_threads: 1 },
            Entry::Span { job_threads: 1 },
        ] {
            assert_eq!(admit(&m, &labels, &auto, entry).unwrap().engine.threads, 1);
            let greedy = auto.clone().threads(1_000_000).batch(1 << 40);
            let run = admit(&m, &labels, &greedy, entry).unwrap();
            assert_eq!(run.engine.threads, cores);
            let per_arrangement = (8 + 8 * 3 + 8) as u128 * cores as u128;
            assert_eq!(
                run.engine.batch as u128,
                BUDGET_BYTES as u128 / per_arrangement
            );
        }
    }

    #[test]
    fn minp_score_matrix_is_refused_before_anything_is_allocated() {
        let m = data(3, 8);
        let labels = [0u8, 0, 0, 0, 1, 1, 1, 1];
        let opts = PmaxtOptions::default().permutations(u64::MAX);
        let threads = EngineConfig::resolve(&opts).threads as u128;
        let e = admit(&m, &labels, &opts, Entry::MinP { ranks: 1 }).unwrap_err();
        let per_draw = 3 * 8 + 8 + threads.min(3) * 8;
        assert_eq!(largest(e), BUDGET_BYTES as u128 / per_draw);
        // The maxT engine holds no score matrix.
        let pinned = Entry::MaxT {
            engine: Some(EngineConfig::explicit(1, 8)),
        };
        assert!(admit(&m, &labels, &opts, pinned).is_ok());
    }

    #[test]
    fn minp_holds_one_block_whatever_the_gene_count() {
        let labels = [0u8, 0, 0, 0, 1, 1, 1, 1];
        let opts = PmaxtOptions::default().permutations(u64::MAX);
        let threads = EngineConfig::resolve(&opts).threads as u128;
        let per_draw = GENE_TILE as u128 * 8 + 8 + threads.min(GENE_TILE as u128) * 8;
        for genes in [300, 3_000] {
            for entry in [Entry::MinP { ranks: 1 }, Entry::MinP { ranks: 3 }] {
                let e = admit(data(genes, 8), &labels, &opts, entry).unwrap_err();
                assert_eq!(largest(e), BUDGET_BYTES as u128 / per_draw, "{genes} genes");
            }
        }
    }

    #[test]
    fn na_code_is_canonicalized_and_no_code_borrows() {
        let m = Matrix::from_vec(1, 4, vec![1.0, -9.0, 3.0, 4.0]).unwrap();
        let opts = PmaxtOptions::default().permutations(5);
        let run = admit(&m, &[0, 0, 1, 1], &opts, Entry::Sample).unwrap();
        assert!(matches!(run.data, Cow::Borrowed(_)));
        let coded = opts.na_code(-9.0);
        let run = admit(&m, &[0, 0, 1, 1], &coded, Entry::Sample).unwrap();
        assert!(matches!(run.data, Cow::Owned(_)));
        assert!(run.data.as_slice()[1].is_nan());
        // A matrix handed over is rewritten in place: the same cells come back.
        let cells = m.as_slice().as_ptr();
        let run = admit(m, &[0, 0, 1, 1], &coded, Entry::Sample).unwrap();
        assert_eq!(run.data.as_slice().as_ptr(), cells);
        assert!(run.data.as_slice()[1].is_nan());
    }

    #[test]
    fn non_finite_na_codes_are_refused() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let opts = PmaxtOptions::default().permutations(5);
        for code in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for entry in [
                Entry::Sample,
                Entry::Cli {
                    ranks: 1,
                    minp: false,
                    replay: false,
                },
            ] {
                assert!(matches!(
                    admit(&m, &[0, 0, 1, 1], &opts.clone().na_code(code), entry),
                    Err(Error::BadOption { param: "na", .. })
                ));
            }
        }
        assert!(admit(&m, &[0, 0, 1, 1], &opts.na_code(-1e300), Entry::Sample).is_ok());
    }

    #[test]
    fn labels_are_checked_against_the_columns() {
        let m = data(2, 6);
        let opts = PmaxtOptions::default().permutations(5);
        for entry in [Entry::Adaptive, Entry::Checkpoint, Entry::Bootstrap] {
            assert!(matches!(
                admit(&m, &[0, 0, 1, 1, 1], &opts, entry),
                Err(Error::BadLabels(_))
            ));
        }
    }
}
