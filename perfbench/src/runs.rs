//! `maxt-paper` and `boot-paper`: the paper run through the release `pmaxt`
//! binary, one process at a time, each output checked against the
//! in-process reference.

use std::io;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use microarray::io::read_dataset;
use sprint_core::boot::boot_run;
use sprint_core::maxt::{maxt_with_config, EngineConfig};
use sprint_core::options::{PmaxtOptions, Workload};

use crate::data::{self, PAPER};
use crate::{procs, stats, Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Engine threads of every computation: one per core of the reference host.
pub const THREADS: usize = 2;
/// Permutations of the paper's maxT run.
const MAXT_B: u64 = 10_000;
/// Draws of the paper-sized bootstrap run.
const BOOT_B: u64 = 2_000;
/// Draws of the warm-up process, which pages in the binary and the input.
const WARMUP_B: u64 = 200;

/// Options of the paper run: `t`, `abs`, fixed-seed sampling; maxT or
/// bootstrap.
pub fn paper_opts(bootstrap: bool, seed: u64) -> PmaxtOptions {
    let opts = PmaxtOptions::default().seed(seed).threads(THREADS);
    if bootstrap {
        opts.workload(Workload::Bootstrap).permutations(BOOT_B)
    } else {
        opts.permutations(MAXT_B)
    }
}

/// The `pmaxt run` command line for `opts`, writing its table to `table`.
fn pmaxt_run(ctx: &Ctx, tsv: &Path, opts: &PmaxtOptions, table: &Path) -> Command {
    let mut cmd = Command::new(&ctx.pmaxt);
    cmd.arg("run").arg(tsv).args([
        "--workload",
        opts.workload.as_str(),
        "--test",
        "t",
        "--side",
        "abs",
    ]);
    for (flag, value) in [
        ("-B", opts.b),
        ("--seed", opts.seed),
        ("--threads", opts.threads as u64),
    ] {
        cmd.arg(flag).arg(value.to_string());
    }
    cmd.arg("--out").arg(table);
    cmd
}

pub fn run(ctx: &Ctx, bootstrap: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let tsv = ctx.dir.join("paper.tsv");
    let table = ctx.dir.join("table.tsv");
    let log = ctx.dir.join("pmaxt.log");
    let opts = paper_opts(bootstrap, data::derive(ctx.seed, 2));
    let warmup = PmaxtOptions {
        b: WARMUP_B,
        ..opts.clone()
    };

    // Set-up: input generation and one small warm-up process, repeated.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        data::write_input(PAPER, data::derive(ctx.seed, 1), &tsv)?;
        if !procs::time_run(&mut pmaxt_run(ctx, &tsv, &warmup, &table), &log)?.ok {
            return Err(io::Error::other(format!(
                "the warm-up pmaxt run failed; see {}",
                log.display()
            )));
        }
        setups.push(start.elapsed().as_secs_f64());
    }

    // The measured window: one process at a time until `seconds` passed.
    let (mut walls, mut tables, mut rss) = (Vec::new(), Vec::new(), 0.0f64);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let _ = std::fs::remove_file(&table);
        let run = procs::time_run(&mut pmaxt_run(ctx, &tsv, &opts, &table), &log)?;
        walls.push(run.wall);
        rss = rss.max(run.max_rss_mib);
        tables.push(if run.ok {
            std::fs::read_to_string(&table).ok()
        } else {
            None
        });
    }

    // The reference, computed in-process from the same file after the window.
    let (matrix, labels) = read_dataset(&tsv)?;
    let expected = if bootstrap {
        data::boot_table(&boot_run(&matrix, &labels, &opts).map_err(io::Error::other)?)
    } else {
        let engine = EngineConfig::explicit(THREADS, 0);
        let result = maxt_with_config(&matrix, &labels, &opts, engine).map_err(io::Error::other)?;
        data::maxt_table(&result)
    };
    for table in &tables {
        out.check(table.as_deref() == Some(expected.as_str()));
    }
    let ms: Vec<f64> = walls.iter().map(|w| 1e3 * w).collect();
    out.add("setup_s", stats::median(&setups), "s");
    out.add_median("op_p50_ms", &ms, "ms");
    // Processes per second of process time: unlike a count over the window,
    // this does not jump by a whole process when one more fits.
    out.add(
        "jobs_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.add("peak_rss_mb", rss, "MiB");
    Ok(out)
}
