//! The admission table: for every entry × workload × mode × precision ×
//! sampling cell, whether [`admit`] accepts the run or which parameter its
//! refusal names; and, for the entry points in this crate, that each one
//! decides exactly as admission does at its entry.
//!
//! CI runs this file again under `SPRINT_PRECISION=f32` and under
//! `SPRINT_MODE=adaptive`. The test reads the overrides as the drivers do
//! and expects each gate's environment form: the checkpoint runner and the
//! job service read `SPRINT_PRECISION`; the checkpoint runner reads
//! `SPRINT_MODE` for every workload, and `pmaxt run` and the job service for
//! the permutation workload (the bootstrap driver has no adaptive mode, so
//! its own gates read the request).

use sprint_core::adaptive::{adaptive_maxt, AdaptiveConfig};
use sprint_core::admit::{admit, Entry};
use sprint_core::boot::{boot_run, boot_run_slice};
use sprint_core::error::Error;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::minp::{mt_minp, pminp};
use sprint_core::maxt::sample::sample_teststats;
use sprint_core::maxt::serial::{mt_maxt, prepare_run};
use sprint_core::maxt::{maxt_with_config, EngineConfig};
use sprint_core::options::{Mode, PmaxtOptions, Precision, SamplingMode, Workload};
use sprint_core::pmaxt::pmaxt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Run,
    /// A typed usage refusal naming this parameter.
    Refused(&'static str),
    /// A rank would get no permutation (`pmaxt run` exits 3).
    RanksExceed,
}

use Decision::*;

fn decision<T>(outcome: Result<T, Error>) -> Decision {
    match outcome {
        Ok(_) => Run,
        Err(Error::BadOption { param, .. }) => Refused(param),
        Err(Error::RanksExceedPermutations { .. }) => RanksExceed,
        Err(other) => panic!("unexpected refusal {other:?}"),
    }
}

const B: u64 = 16;
const PINNED: EngineConfig = EngineConfig {
    threads: 2,
    batch: 5,
};

const fn cli(ranks: usize, minp: bool, replay: bool) -> Entry {
    Entry::Cli {
        ranks,
        minp,
        replay,
    }
}

/// The drivers that score label arrangements in this crate.
const LABEL_DRIVERS: [Entry; 8] = [
    Entry::MaxT { engine: None },
    Entry::MaxT {
        engine: Some(PINNED),
    },
    Entry::Spmd { ranks: 1 },
    Entry::Spmd { ranks: 3 },
    Entry::Adaptive,
    Entry::MinP { ranks: 1 },
    Entry::MinP { ranks: 3 },
    Entry::Sample,
];

const SUBMIT: Entry = Entry::Submit { job_threads: 2 };
const SPAN: Entry = Entry::Span { job_threads: 2 };

/// Columns of each row: exact/f64, exact/f32, adaptive/f64, adaptive/f32,
/// as the gates see them.
type Row = (&'static [Entry], Workload, [Decision; 4]);

const W: Decision = Refused("workload");
const P: Decision = Refused("precision");
const M: Decision = Refused("mode");

const PMAXT: Workload = Workload::Pmaxt;
const BOOT: Workload = Workload::Bootstrap;

const TABLE: &[Row] = &[
    // Label drivers take every mode and precision; a bootstrap draw is
    // not a label arrangement.
    (&LABEL_DRIVERS, PMAXT, [Run, Run, Run, Run]),
    (&LABEL_DRIVERS, BOOT, [W, W, W, W]),
    // The bootstrap estimate: exact mode, f64 sums.
    (&[Entry::Bootstrap], PMAXT, [W, W, W, W]),
    (&[Entry::Bootstrap], BOOT, [Run, P, M, M]),
    // A checkpoint resumes exact f64 permutation counts.
    (&[Entry::Checkpoint], PMAXT, [Run, P, M, P]),
    (&[Entry::Checkpoint], BOOT, [W, P, M, P]),
    // pmaxt run: the mode picks the driver on one rank; every flag names
    // one driver, and every rank needs a permutation.
    (&[cli(1, false, false)], PMAXT, [Run, Run, Run, Run]),
    (&[cli(1, false, false)], BOOT, [Run, P, M, M]),
    (
        &[
            cli(3, false, false),
            cli(1, true, false),
            cli(3, true, false),
            cli(1, false, true),
        ],
        PMAXT,
        [Run, Run, M, M],
    ),
    (
        &[cli(1, true, true), cli(3, false, true)],
        PMAXT,
        [Refused("perm-file"); 4],
    ),
    (&[cli(20, false, false)], PMAXT, [RanksExceed; 4]),
    (
        &[
            cli(3, false, false),
            cli(1, true, false),
            cli(3, true, false),
            cli(1, false, true),
            cli(1, true, true),
            cli(3, false, true),
            cli(20, false, false),
        ],
        BOOT,
        [W, W, W, W],
    ),
    // The job service extends cached counts and merges sharded ones; a
    // submission may run adaptive on this daemon, a peer unit may not.
    (&[SUBMIT], PMAXT, [Run, P, Run, P]),
    (&[SPAN], PMAXT, [Run, P, M, P]),
    (&[SUBMIT, SPAN], BOOT, [Run, P, M, M]),
];

fn column(mode: Mode, precision: Precision) -> usize {
    2 * usize::from(mode == Mode::Adaptive) + usize::from(precision == Precision::F32)
}

/// The table's decision at `entry` for a cell as its gates see it.
fn expected(entry: Entry, workload: Workload, mode: Mode, precision: Precision) -> Decision {
    let rows: Vec<Decision> = TABLE
        .iter()
        .filter(|(entries, w, _)| *w == workload && entries.contains(&entry))
        .map(|(_, _, cells)| cells[column(mode, precision)])
        .collect();
    assert_eq!(rows.len(), 1, "{entry:?} {workload:?}: one row per cell");
    rows[0]
}

/// The mode and precision a gate at `entry` sees for a request, with the
/// environment forms folded in where that gate reads them.
fn seen(entry: Entry, workload: Workload, mode: Mode, precision: Precision) -> (Mode, Precision) {
    let service = matches!(
        entry,
        Entry::Checkpoint | Entry::Submit { .. } | Entry::Span { .. }
    );
    let reads_mode = matches!(entry, Entry::Checkpoint)
        || (workload == Workload::Pmaxt
            && matches!(
                entry,
                Entry::Cli { .. } | Entry::Submit { .. } | Entry::Span { .. }
            ));
    (
        if reads_mode {
            mode.env_override()
        } else {
            mode
        },
        if service {
            precision.env_override()
        } else {
            precision
        },
    )
}

fn dataset() -> (Matrix, Vec<u8>) {
    let data = Matrix::from_vec(
        3,
        8,
        vec![
            1.0, 2.0, 1.5, 2.5, 9.0, 10.0, 9.5, 10.5, // shifted
            5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.1, 4.9, // flat
            2.0, 8.0, 3.0, 7.0, 2.5, 7.5, 4.0, 6.0, // noisy
        ],
    )
    .unwrap();
    (data, vec![0, 0, 0, 0, 1, 1, 1, 1])
}

/// Every entry point in this crate, with the entry it admits at.
fn entry_points(data: &Matrix, labels: &[u8], opts: &PmaxtOptions) -> Vec<(Entry, Decision)> {
    let maxt = Entry::MaxT { engine: None };
    vec![
        (maxt, decision(mt_maxt(data, labels, opts))),
        (maxt, decision(prepare_run(data, labels, opts))),
        (
            Entry::MaxT {
                engine: Some(PINNED),
            },
            decision(maxt_with_config(data, labels, opts, PINNED)),
        ),
        (
            Entry::Spmd { ranks: 1 },
            decision(pmaxt(data, labels, opts, 1)),
        ),
        (
            Entry::Spmd { ranks: 3 },
            decision(pmaxt(data, labels, opts, 3)),
        ),
        (
            Entry::Adaptive,
            decision(adaptive_maxt(
                data,
                labels,
                opts,
                &AdaptiveConfig::default(),
            )),
        ),
        (
            Entry::MinP { ranks: 1 },
            decision(mt_minp(data, labels, opts)),
        ),
        (
            Entry::MinP { ranks: 3 },
            decision(pminp(data, labels, opts, 3)),
        ),
        (
            Entry::Sample,
            decision(sample_teststats(data, labels, opts, 0)),
        ),
        (Entry::Bootstrap, decision(boot_run(data, labels, opts))),
        (
            Entry::Bootstrap,
            decision(boot_run_slice(data, labels, opts, 0..1)),
        ),
    ]
}

#[test]
fn admission_decides_every_cell_at_every_entry() {
    let (data, labels) = dataset();
    let mut entries: Vec<Entry> = Vec::new();
    for (row_entries, _, _) in TABLE {
        for &e in *row_entries {
            if !entries.contains(&e) {
                entries.push(e);
            }
        }
    }
    assert_eq!(entries.len(), 8 + 2 + 8 + 2, "every entry has rows");
    let mut cells = 0;
    for workload in [Workload::Pmaxt, Workload::Bootstrap] {
        for mode in [Mode::Exact, Mode::Adaptive] {
            for precision in [Precision::F64, Precision::F32] {
                for sampling in [SamplingMode::FixedSeedOnTheFly, SamplingMode::Stored] {
                    let opts = PmaxtOptions {
                        workload,
                        mode,
                        precision,
                        sampling,
                        b: B,
                        ..PmaxtOptions::default()
                    };
                    let cell = format!("{workload:?} {mode:?} {precision:?} {sampling:?}");
                    for &entry in &entries {
                        let (m, p) = seen(entry, workload, mode, precision);
                        let want = expected(entry, workload, m, p);
                        let outcome = admit(&data, &labels, &opts, entry);
                        if let Ok(run) = &outcome {
                            let dispatched = match workload {
                                Workload::Bootstrap => Mode::Exact,
                                Workload::Pmaxt => m,
                            };
                            assert_eq!(run.mode, dispatched, "{entry:?} {cell}: mode");
                        }
                        assert_eq!(decision(outcome), want, "{entry:?} {cell}");
                        cells += 1;
                    }
                    for (entry, got) in entry_points(&data, &labels, &opts) {
                        let (m, p) = seen(entry, workload, mode, precision);
                        assert_eq!(
                            got,
                            expected(entry, workload, m, p),
                            "entry point at {entry:?}, {cell}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(cells, 20 * 16);
}
