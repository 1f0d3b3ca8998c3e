//! `pmaxt` — command-line permutation testing over TSV datasets.
//!
//! The CLI equivalent of the paper's
//! `mpiexec -n NSLOTS R --no-save -f SPRINT_SCRIPT_NAME`:
//!
//! ```text
//! # make a demo dataset (600 genes, 8 + 8 samples)
//! pmaxt generate demo.tsv --genes 600 --n0 8 --n1 8 --seed 1
//!
//! # run the permutation test on 4 ranks and write the result table
//! pmaxt run demo.tsv --ranks 4 -B 10000 --test t --side abs --out result.tsv
//!
//! # step-down minP instead of maxT
//! pmaxt run demo.tsv -B 2000 --minp
//!
//! # long-lived job service with a result cache
//! pmaxt serve unix:/tmp/pmaxt.sock --cache /var/cache/pmaxt &
//! pmaxt submit unix:/tmp/pmaxt.sock demo.tsv -B 100000   # returns a job id
//! pmaxt result unix:/tmp/pmaxt.sock 1                     # blocks, prints table
//! pmaxt submit unix:/tmp/pmaxt.sock demo.tsv -B 200000   # extends the cached run
//! ```
//!
//! Dataset format: the `microarray::io` TSV (`#classlabel` header + one row
//! per gene, `NA` for missing cells).
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, server, engine), `2`
//! usage error (bad flags or option values), `3` resource-allocation error
//! (`--ranks` exceeds the permutation count).

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use microarray::io::{read_dataset, write_dataset};
use microarray::prelude::*;
use mpi_sim::SectionTimer;
use sprint_core::adaptive::{adaptive_maxt_on, AdaptiveConfig, AdaptiveReport};
use sprint_core::admit::{admit, Entry, Run};
use sprint_core::boot::{boot_run_on, BootstrapResult};
use sprint_core::error::Error as CoreError;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::ChunkHooks;
use sprint_core::maxt::minp::pminp_on;
use sprint_core::maxt::MaxTResult;
use sprint_core::options::{Mode, PmaxtOptions, Workload, OPTIONS};
use sprint_core::perm::stored::StoredMatrix;
use sprint_core::pmaxt::{pmaxt_on, sections, MasterInput};
use sprint_jobd::client::{expect_ok, request_retried, Client, RetryPolicy};
use sprint_jobd::json::Json;
use sprint_jobd::{protocol, Durability, Faults, JobManager, ManagerConfig, Server, ServerConfig};

/// CLI failure, carrying the process exit code.
#[derive(Debug, Clone, PartialEq)]
enum CliError {
    /// Bad flags or option values → exit 2.
    Usage(String),
    /// I/O, server or engine failure → exit 1.
    Runtime(String),
    /// `ranks > B` resource-allocation rejection → exit 3.
    Ranks(String),
}

impl CliError {
    fn from_core(e: CoreError) -> CliError {
        match e {
            CoreError::RanksExceedPermutations { .. } => CliError::Ranks(e.to_string()),
            CoreError::BadOption { .. }
            | CoreError::BadLabels(_)
            | CoreError::BadMatrix(_)
            | CoreError::ArrangementWidth { .. }
            | CoreError::TooManyPermutations { .. } => CliError::Usage(e.to_string()),
            CoreError::Comm(_) | CoreError::Cancelled => CliError::Runtime(e.to_string()),
        }
    }

    /// Map a server error response by its wire code.
    fn from_wire((msg, code): (String, String)) -> CliError {
        match code.as_str() {
            "usage" => CliError::Usage(msg),
            _ => CliError::Runtime(msg),
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime(msg: impl ToString) -> CliError {
    CliError::Runtime(msg.to_string())
}

/// Parsed command line for `pmaxt run`.
#[derive(Debug, Clone, PartialEq)]
struct RunConfig {
    input: PathBuf,
    opts: PmaxtOptions,
    ranks: usize,
    minp: bool,
    out: Option<PathBuf>,
    top: usize,
    /// Replay file (`--perm-file`): score exactly these stored label
    /// arrangements instead of a generated stream.
    perm_file: Option<PathBuf>,
}

/// Parsed command line for `pmaxt generate`.
#[derive(Debug, Clone, PartialEq)]
struct GenerateConfig {
    output: PathBuf,
    genes: usize,
    n0: usize,
    n1: usize,
    diff: f64,
    effect: f64,
    na_rate: f64,
    seed: u64,
}

/// Parsed command line for `pmaxt serve`.
#[derive(Debug, Clone, PartialEq)]
struct ServeConfig {
    addr: String,
    workers: usize,
    span: u64,
    queue: usize,
    job_threads: usize,
    cache: Option<PathBuf>,
    /// Peer daemon addresses (`--peer ADDR`, repeatable): jobs submitted
    /// here are sharded across the roster of this daemon plus every peer.
    peers: Vec<String>,
    /// Per-connection idle read deadline (`--idle-timeout SECS`).
    idle_timeout: Option<Duration>,
    /// Per-connection write deadline (`--write-timeout SECS`).
    write_timeout: Option<Duration>,
    /// Journal fsync policy (`--durability full|batch|off`). Served daemons
    /// default to `batch`: group-committed accept records survive `kill -9`
    /// up to one flush interval, at a few percent accept-latency cost.
    durability: Durability,
}

/// Parsed command line for the client subcommands.
#[derive(Debug, Clone, PartialEq)]
struct ClientConfig {
    addr: String,
    /// Dataset path for `submit`, unused otherwise.
    data: Option<PathBuf>,
    /// Job id for `status`/`result`/`cancel`/`watch`.
    job: Option<u64>,
    opts: PmaxtOptions,
    wait: bool,
    out: Option<PathBuf>,
    top: usize,
    /// Attempts per request (`--retries N`; 1 = fail fast).
    retries: u32,
    /// First retry backoff (`--retry-base-ms N`), doubling per attempt.
    retry_base_ms: u64,
    /// Per-read socket timeout (`--timeout SECS`); `None` waits forever.
    timeout: Option<Duration>,
}

fn usage_text() -> &'static str {
    "usage:\n  pmaxt run <data.tsv> [--test t|t.equalvar|wilcoxon|f|pairt|blockf|corr|tmax]\n            [--side abs|upper|lower] [--fixed-seed y|n] [-B N (0=complete)]\n            [--nonpara y|n] [--na CODE] [--seed N] [--ranks N] [--minp]\n            [--workload pmaxt|bootstrap (bootstrap = resample with replacement,\n             report percentile + BCa confidence intervals)]\n            [--perm-file FILE (replay stored label arrangements, one per line)]\n            [--kernel auto|scalar|fast (scalar = reference-scorer debug override)]\n            [--precision f64|f32 (f32 = faster, not bitwise reproducible)]\n            [--mode exact|adaptive (adaptive = early-stop null genes with\n             anytime-valid p-value bounds)]\n            [--threads N (0=auto)] [--batch N (0=auto)]\n            [--out result.tsv] [--top N]\n  pmaxt generate <out.tsv> [--genes N] [--n0 N] [--n1 N] [--diff F]\n            [--effect F] [--na-rate F] [--seed N]\n  pmaxt serve <addr> [--workers N] [--span N] [--queue N] [--job-threads N]\n            [--cache DIR | --no-cache] [--peer ADDR]... \n            [--idle-timeout SECS] [--write-timeout SECS]\n            [--durability full|batch|off (write-ahead job journal: full =\n             fsync per accept, batch = group commit, off = no journal;\n             default batch, degrades to off under --no-cache)]\n  pmaxt submit <addr> <data.tsv> [run options] [--wait] [--out f] [--top N]\n  pmaxt status <addr> <job>\n  pmaxt result <addr> <job> [--no-wait] [--out f] [--top N]\n  pmaxt cancel <addr> <job>\n  pmaxt watch  <addr> <job>\n  pmaxt shutdown <addr> [--drain]\n\n  client commands also take [--retries N] [--retry-base-ms N] [--timeout SECS]\n  (idempotent retry on torn connections; resubmits dedup onto the live job).\n  <addr> is unix:/path/to.sock or host:port; exit codes: 0 ok, 1 runtime,\n  2 usage, 3 ranks > permutations.\n  --kernel, --precision, --mode, --threads and --batch yield to SPRINT_<NAME>\n  (the flag's name in capitals) where the environment sets it.\n  SPRINT_FAULTS=class:prob,... arms deterministic fault injection in serve."
}

/// Consume one option flag (a flag of an option-table row) and its value
/// from the argument stream. Returns `Ok(false)` when `a` is no option flag
/// (the caller handles it).
fn parse_opts_flag(
    opts: &mut PmaxtOptions,
    a: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, String> {
    let Some(row) = OPTIONS.iter().find(|row| row.flags.contains(&a)) else {
        return Ok(false);
    };
    let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
    opts.set_text(row, value)
        .map_err(|e| format!("{a}: {e} (want {})", row.form.accepted()))?;
    Ok(true)
}

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut input = None;
    let mut opts = PmaxtOptions::default();
    let mut ranks = 1usize;
    let mut minp = false;
    let mut out = None;
    let mut top = 10usize;
    let mut perm_file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if parse_opts_flag(&mut opts, a, &mut it)? {
            continue;
        }
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--ranks" => {
                ranks = take("--ranks")?
                    .parse()
                    .map_err(|e| format!("bad --ranks: {e}"))?
            }
            "--minp" => minp = true,
            "--perm-file" => perm_file = Some(PathBuf::from(take("--perm-file")?)),
            "--out" => out = Some(PathBuf::from(take("--out")?)),
            "--top" => {
                top = take("--top")?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?
            }
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunConfig {
        input: input.ok_or("missing input dataset path")?,
        opts,
        ranks: ranks.max(1),
        minp,
        out,
        top,
        perm_file,
    })
}

fn parse_generate(args: &[String]) -> Result<GenerateConfig, String> {
    let mut cfg = GenerateConfig {
        output: PathBuf::new(),
        genes: 600,
        n0: 8,
        n1: 8,
        diff: 0.05,
        effect: 2.0,
        na_rate: 0.0,
        seed: 1,
    };
    let mut have_out = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        macro_rules! num {
            ($flag:literal, $field:expr) => {{
                let v = take($flag)?;
                $field = v.parse().map_err(|e| format!("bad {}: {e}", $flag))?;
            }};
        }
        match a.as_str() {
            "--genes" => num!("--genes", cfg.genes),
            "--n0" => num!("--n0", cfg.n0),
            "--n1" => num!("--n1", cfg.n1),
            "--diff" => num!("--diff", cfg.diff),
            "--effect" => num!("--effect", cfg.effect),
            "--na-rate" => num!("--na-rate", cfg.na_rate),
            "--seed" => num!("--seed", cfg.seed),
            other if !other.starts_with('-') && !have_out => {
                cfg.output = PathBuf::from(other);
                have_out = true;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !have_out {
        return Err("missing output path".into());
    }
    Ok(cfg)
}

fn parse_serve(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        addr: String::new(),
        workers: 2,
        span: 4096,
        queue: 64,
        job_threads: 0,
        cache: Some(PathBuf::from(".pmaxt-cache")),
        peers: Vec::new(),
        idle_timeout: None,
        write_timeout: None,
        durability: Durability::Batch,
    };
    let mut durability_explicit = false;
    let mut have_addr = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        macro_rules! num {
            ($flag:literal, $field:expr) => {{
                let v = take($flag)?;
                $field = v.parse().map_err(|e| format!("bad {}: {e}", $flag))?;
            }};
        }
        macro_rules! secs {
            ($flag:literal, $field:expr) => {{
                let v: f64 = take($flag)?
                    .parse()
                    .map_err(|e| format!("bad {}: {e}", $flag))?;
                if v.is_nan() || v <= 0.0 {
                    return Err(format!("{} must be positive seconds", $flag));
                }
                $field = Some(Duration::from_secs_f64(v));
            }};
        }
        match a.as_str() {
            "--workers" => num!("--workers", cfg.workers),
            "--span" => num!("--span", cfg.span),
            "--queue" => num!("--queue", cfg.queue),
            "--job-threads" => num!("--job-threads", cfg.job_threads),
            "--cache" => cfg.cache = Some(PathBuf::from(take("--cache")?)),
            "--no-cache" => cfg.cache = None,
            "--peer" => cfg.peers.push(take("--peer")?.clone()),
            "--idle-timeout" => secs!("--idle-timeout", cfg.idle_timeout),
            "--write-timeout" => secs!("--write-timeout", cfg.write_timeout),
            "--durability" => {
                let v = take("--durability")?;
                cfg.durability = Durability::parse(v)
                    .ok_or_else(|| format!("bad --durability {v:?} (want full, batch or off)"))?;
                durability_explicit = true;
            }
            other if !other.starts_with('-') && !have_addr => {
                cfg.addr = other.to_string();
                have_addr = true;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !have_addr {
        return Err("missing listen address".into());
    }
    if cfg.span == 0 {
        return Err("--span must be positive".into());
    }
    if cfg.cache.is_none() && cfg.durability != Durability::Off {
        // The journal lives under the cache directory, so a cacheless daemon
        // cannot keep one. An explicit request for durability is a conflict;
        // the default just degrades.
        if durability_explicit {
            return Err(format!(
                "--no-cache cannot honour --durability {} (the journal lives in the cache)",
                cfg.durability.as_str()
            ));
        }
        cfg.durability = Durability::Off;
    }
    Ok(cfg)
}

/// Parse the client subcommands. `needs_data` for `submit`, `needs_job` for
/// the job-addressing commands.
fn parse_client(
    args: &[String],
    needs_data: bool,
    needs_job: bool,
) -> Result<ClientConfig, String> {
    let mut cfg = ClientConfig {
        addr: String::new(),
        data: None,
        job: None,
        opts: PmaxtOptions::default(),
        wait: false,
        out: None,
        top: 10,
        retries: 3,
        retry_base_ms: 100,
        timeout: None,
    };
    let mut positional = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if needs_data && parse_opts_flag(&mut cfg.opts, a, &mut it)? {
            continue;
        }
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--wait" => cfg.wait = true,
            "--no-wait" => cfg.wait = false,
            "--out" => cfg.out = Some(PathBuf::from(take("--out")?)),
            "--top" => {
                cfg.top = take("--top")?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?
            }
            "--retries" => {
                cfg.retries = take("--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries: {e}"))?;
                if cfg.retries == 0 {
                    return Err("--retries must be at least 1".into());
                }
            }
            "--retry-base-ms" => {
                cfg.retry_base_ms = take("--retry-base-ms")?
                    .parse()
                    .map_err(|e| format!("bad --retry-base-ms: {e}"))?
            }
            "--timeout" => {
                let v: f64 = take("--timeout")?
                    .parse()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                if v.is_nan() || v <= 0.0 {
                    return Err("--timeout must be positive seconds".into());
                }
                cfg.timeout = Some(Duration::from_secs_f64(v));
            }
            other if !other.starts_with('-') || other.parse::<u64>().is_ok() => {
                match positional {
                    0 => cfg.addr = other.to_string(),
                    1 if needs_data => cfg.data = Some(PathBuf::from(other)),
                    1 if needs_job => {
                        cfg.job = Some(other.parse().map_err(|e| format!("bad job id: {e}"))?)
                    }
                    _ => return Err(format!("unexpected argument {other:?}")),
                }
                positional += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.addr.is_empty() {
        return Err("missing server address".into());
    }
    if needs_data && cfg.data.is_none() {
        return Err("missing dataset path".into());
    }
    if needs_job && cfg.job.is_none() {
        return Err("missing job id".into());
    }
    Ok(cfg)
}

fn write_result_table(path: &std::path::Path, result: &MaxTResult) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tteststat\trawp\tadjp")?;
    for row in result.by_significance() {
        writeln!(
            w,
            "{}\t{:.6}\t{:.6}\t{:.6}",
            row.index, row.teststat, row.rawp, row.adjp
        )?;
    }
    w.flush()
}

fn print_result(result: &MaxTResult, top: usize, out: Option<&PathBuf>) -> Result<(), CliError> {
    println!(
        "{:>6} {:>12} {:>9} {:>9}",
        "index", "teststat", "rawp", "adjp"
    );
    for row in result.by_significance().take(top) {
        println!(
            "{:>6} {:>12.4} {:>9.5} {:>9.5}",
            row.index, row.teststat, row.rawp, row.adjp
        );
    }
    if let Some(out) = out {
        write_result_table(out, result).map_err(|e| runtime(format!("writing {out:?}: {e}")))?;
        eprintln!("full table written to {out:?}");
    }
    Ok(())
}

fn cmd_run(cfg: &RunConfig) -> Result<(), CliError> {
    let (data, labels) =
        read_dataset(&cfg.input).map_err(|e| runtime(format!("reading {:?}: {e}", cfg.input)))?;
    let (genes, samples) = (data.rows(), data.cols());
    // The run's one admission, its pre-processing: it decides every option
    // and flag combination, and the rank allocation (exit 3 when a rank
    // would get no permutation), before any work starts. Every body below
    // runs on the run it returns, and the matrix is handed down, not copied.
    let entry = Entry::Cli {
        ranks: cfg.ranks,
        minp: cfg.minp,
        replay: cfg.perm_file.is_some(),
    };
    let mut timer = SectionTimer::new();
    let admitted = timer
        .time(sections::PRE_PROCESSING, || {
            admit(data, &labels, &cfg.opts, entry)
        })
        .map_err(CliError::from_core)?;
    let input = MasterInput::new(timer, admitted);
    let (run, data) = (&input.run, &input.data);
    if cfg.opts.workload == Workload::Bootstrap {
        eprintln!(
            "loaded {genes} genes x {samples} samples; workload=bootstrap B={} level={:.0}%",
            cfg.opts.b,
            100.0 * sprint_core::boot::CI_LEVEL,
        );
        let t0 = std::time::Instant::now();
        let result = boot_run_on(run, data, 0..genes).map_err(CliError::from_core)?;
        eprintln!(
            "done: {} bootstrap replicates in {:.2?}",
            result.replicates,
            t0.elapsed()
        );
        return print_boot(&result, cfg.top, cfg.out.as_ref());
    }
    if let Some(perm_file) = &cfg.perm_file {
        return run_replay(cfg, run, data, perm_file);
    }
    let mode = run.mode;
    eprintln!(
        "loaded {genes} genes x {samples} samples; test={} side={} B={} ranks={}{}{}",
        cfg.opts.test.as_str(),
        cfg.opts.side.as_str(),
        cfg.opts.b,
        cfg.ranks,
        if cfg.minp { " (minP)" } else { "" },
        if mode == Mode::Adaptive {
            " (adaptive)"
        } else {
            ""
        }
    );
    if mode == Mode::Adaptive {
        let t0 = std::time::Instant::now();
        let out =
            adaptive_maxt_on(run, data, &AdaptiveConfig::default()).map_err(CliError::from_core)?;
        eprintln!(
            "done: scored {} of {} gene-permutations ({:.1}%) in {:.2?}",
            out.report.gene_perms_scored,
            out.report.gene_perms_exact,
            100.0 * out.report.budget_fraction(),
            t0.elapsed()
        );
        return print_adaptive(&out.result, &out.report, cfg.top, cfg.out.as_ref());
    }
    let t0 = std::time::Instant::now();
    let result = if cfg.minp {
        pminp_on(input.run, input.data, cfg.ranks).map_err(CliError::from_core)?
    } else {
        pmaxt_on(input, cfg.ranks)
            .map_err(CliError::from_core)?
            .result
    };
    eprintln!(
        "done: B = {} permutations in {:.2?}",
        result.b_used,
        t0.elapsed()
    );
    print_result(&result, cfg.top, cfg.out.as_ref())
}

/// Render one gene's adaptive row: deterministic p-value bounds, the scored
/// prefix, where (if anywhere) the gene deactivated, and the GPD tail
/// p-value when one was fitted.
fn adaptive_row(result: &MaxTResult, r: &AdaptiveReport, g: usize) -> String {
    let stopped = r.stopped_at[g]
        .map(|c| c.to_string())
        .unwrap_or_else(|| "-".into());
    let tail = r.tail[g]
        .as_ref()
        .map(|f| {
            format!(
                "{:.2e}{}",
                f.p_tail,
                if f.good { "" } else { " (poor fit)" }
            )
        })
        .unwrap_or_else(|| "-".into());
    format!(
        "{:>6} {:>12.4} {:>9.5} {:>9.5} {:>9.5} {:>8} {:>8} {:>12}",
        g, result.teststat[g], r.p_point[g], r.p_lower[g], r.p_upper[g], r.scored[g], stopped, tail
    )
}

/// Print an adaptive run's bounds table — for `pmaxt run` and for results
/// served by the daemon alike — and write the full 9-column table to `path`.
fn print_adaptive(
    result: &MaxTResult,
    r: &AdaptiveReport,
    top: usize,
    path: Option<&PathBuf>,
) -> Result<(), CliError> {
    eprintln!(
        "adaptive: {}/{} genes stopped early; exact-prefix watermark {} of B={}",
        r.genes_stopped(),
        r.scored.len(),
        r.watermark,
        r.b
    );
    let fitted = r.tail.iter().filter(|t| t.is_some()).count();
    if fitted > 0 {
        eprintln!(
            "adaptive: GPD tail fit on {fitted} gene(s) ({} passed diagnostics)",
            r.tail.iter().flatten().filter(|f| f.good).count()
        );
    }
    println!(
        "{:>6} {:>12} {:>9} {:>9} {:>9} {:>8} {:>8} {:>12}",
        "index", "teststat", "p", "p_lower", "p_upper", "scored", "stopped", "tail_p"
    );
    for row in result.by_significance().take(top) {
        println!("{}", adaptive_row(result, r, row.index));
    }
    if let Some(path) = path {
        use std::io::Write as _;
        let write = || -> std::io::Result<()> {
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(
                w,
                "index\tteststat\tp_point\tp_lower\tp_upper\tscored\tstopped_at\ttail_p\ttail_good"
            )?;
            for row in result.by_significance() {
                let g = row.index;
                let stopped = r.stopped_at[g]
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "NA".into());
                let (tail_p, tail_good) = match &r.tail[g] {
                    Some(f) => (format!("{:.6e}", f.p_tail), f.good.to_string()),
                    None => ("NA".into(), "NA".into()),
                };
                writeln!(
                    w,
                    "{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{}\t{}\t{}\t{}",
                    g,
                    result.teststat[g],
                    r.p_point[g],
                    r.p_lower[g],
                    r.p_upper[g],
                    r.scored[g],
                    stopped,
                    tail_p,
                    tail_good
                )?;
            }
            w.flush()
        };
        write().map_err(|e| runtime(format!("writing {path:?}: {e}")))?;
        eprintln!("full adaptive table written to {path:?}");
    }
    Ok(())
}

/// Parse a `--perm-file`: one label arrangement per line, whitespace-separated
/// class codes, `#` comments and blank lines ignored.
fn read_perm_file(path: &std::path::Path) -> Result<Vec<Vec<u8>>, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| runtime(format!("reading {path:?}: {e}")))?;
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let row: Result<Vec<u8>, _> = line.split_whitespace().map(str::parse).collect();
        rows.push(row.map_err(|e| usage(format!("{path:?} line {}: {e}", lineno + 1)))?);
    }
    if rows.is_empty() {
        return Err(usage(format!("{path:?} holds no arrangements")));
    }
    Ok(rows)
}

/// `pmaxt run --perm-file`: replay an explicit arrangement set through the
/// engine, as a [`StoredMatrix`] stream, on the admitted run's geometry over
/// its NA-canonical matrix. The observed labelling is scored first (every
/// stream's index 0 is the identity draw), then the file's rows.
fn run_replay(
    cfg: &RunConfig,
    run: &Run,
    data: &Matrix,
    path: &std::path::Path,
) -> Result<(), CliError> {
    let labels = run.labels.as_slice();
    let rows = read_perm_file(path)?;
    let cols = data.cols();
    // Width mismatches surface as the typed `ArrangementWidth` error → exit 2,
    // with the row index matching the file's arrangement ordinal.
    StoredMatrix::try_from_rows(&rows, cols).map_err(CliError::from_core)?;
    let prepared = run.prepare(data);
    let mut want = labels.to_vec();
    want.sort_unstable();
    for (i, row) in rows.iter().enumerate() {
        let mut got = row.clone();
        got.sort_unstable();
        if got != want {
            return Err(usage(format!(
                "--perm-file row {i} is not a rearrangement of the dataset's class labels"
            )));
        }
    }
    let mut all = Vec::with_capacity(rows.len() + 1);
    all.push(labels.to_vec());
    all.extend(rows);
    let b = all.len() as u64;
    let mut stream = StoredMatrix::try_from_rows(&all, cols).map_err(CliError::from_core)?;
    let ctx = run.context(&prepared);
    let t0 = std::time::Instant::now();
    let counts = run.chunk(&ctx, &mut stream, b, ChunkHooks::default());
    let counts = counts.map_err(CliError::from_core)?.counts;
    let done = counts.n_perm;
    eprintln!(
        "done: replayed {done} stored arrangement(s) (identity + {} from {path:?}) in {:.2?}",
        done.saturating_sub(1),
        t0.elapsed()
    );
    print_result(&ctx.finalize(&counts), cfg.top, cfg.out.as_ref())
}

/// Order genes for the bootstrap table: largest |θ̂/se| first (the
/// strongest standardized effects), NaN-scored genes last.
fn boot_order(result: &BootstrapResult) -> Vec<usize> {
    let score = |g: usize| {
        let z = (result.theta[g] / result.se[g]).abs();
        if z.is_nan() {
            f64::NEG_INFINITY
        } else {
            z
        }
    };
    let mut order: Vec<usize> = (0..result.genes()).collect();
    order.sort_by(|&a, &b| score(b).partial_cmp(&score(a)).unwrap().then(a.cmp(&b)));
    order
}

fn write_boot_table(path: &std::path::Path, result: &BootstrapResult) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\ttheta\tse\tpct_lo\tpct_hi\tbca_lo\tbca_hi")?;
    for g in boot_order(result) {
        writeln!(
            w,
            "{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            result.offset + g,
            result.theta[g],
            result.se[g],
            result.pct_lo[g],
            result.pct_hi[g],
            result.bca_lo[g],
            result.bca_hi[g]
        )?;
    }
    w.flush()
}

fn print_boot(result: &BootstrapResult, top: usize, out: Option<&PathBuf>) -> Result<(), CliError> {
    println!(
        "{:>6} {:>12} {:>10} {:>22} {:>22}",
        "index", "theta", "se", "percentile CI", "BCa CI"
    );
    for g in boot_order(result).into_iter().take(top) {
        println!(
            "{:>6} {:>12.4} {:>10.4} [{:>9.4}, {:>9.4}] [{:>9.4}, {:>9.4}]",
            result.offset + g,
            result.theta[g],
            result.se[g],
            result.pct_lo[g],
            result.pct_hi[g],
            result.bca_lo[g],
            result.bca_hi[g]
        );
    }
    if let Some(out) = out {
        write_boot_table(out, result).map_err(|e| runtime(format!("writing {out:?}: {e}")))?;
        eprintln!("full bootstrap table written to {out:?}");
    }
    Ok(())
}

fn cmd_generate(cfg: &GenerateConfig) -> Result<(), CliError> {
    let ds = SynthConfig::two_class(cfg.genes, cfg.n0, cfg.n1)
        .diff_fraction(cfg.diff)
        .effect_size(cfg.effect)
        .na_rate(cfg.na_rate)
        .seed(cfg.seed)
        .generate();
    write_dataset(&cfg.output, &ds.matrix, &ds.labels)
        .map_err(|e| runtime(format!("writing {:?}: {e}", cfg.output)))?;
    eprintln!(
        "wrote {} genes x {} samples ({} planted differential) to {:?}",
        ds.matrix.rows(),
        ds.matrix.cols(),
        ds.truth.iter().filter(|&&t| t).count(),
        cfg.output
    );
    Ok(())
}

fn cmd_serve(cfg: &ServeConfig) -> Result<(), CliError> {
    let faults = Faults::from_env();
    if faults.armed() {
        eprintln!("jobd: fault injection armed via SPRINT_FAULTS");
    }
    let manager = JobManager::new(ManagerConfig {
        workers: cfg.workers,
        queue_cap: cfg.queue,
        span: cfg.span,
        job_threads: cfg.job_threads,
        cache_dir: cfg.cache.clone(),
        peers: cfg.peers.clone(),
        faults: faults.clone(),
        durability: cfg.durability,
    })
    .map_err(|e| runtime(format!("starting job manager: {e}")))?;
    if let Some(rep) = manager.recovery_report() {
        eprintln!(
            "jobd: journal replayed: {} record(s) in {} segment(s), {} pending \
             ({} requeued, {} from cache, {} unrecoverable)",
            rep.records, rep.segments, rep.pending, rep.requeued, rep.from_cache, rep.unrecoverable
        );
        if rep.torn_bytes > 0 || rep.resyncs > 0 {
            eprintln!(
                "jobd: journal damage handled: {} torn tail byte(s) quarantined, {} resync(s)",
                rep.torn_bytes, rep.resyncs
            );
        }
    }
    let server = Server::bind_with(
        &cfg.addr,
        manager,
        ServerConfig {
            read_timeout: cfg.idle_timeout,
            write_timeout: cfg.write_timeout,
            faults,
        },
    )
    .map_err(|e| runtime(format!("binding {}: {e}", cfg.addr)))?;
    eprintln!(
        "jobd: listening on {} ({} workers, span {}, cache {}, durability {})",
        server.local_addr().to_addr_string(),
        cfg.workers,
        cfg.span,
        cfg.cache
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "disabled".into()),
        cfg.durability.as_str(),
    );
    if !cfg.peers.is_empty() {
        eprintln!(
            "jobd: sharding submissions across {} peer(s): {}",
            cfg.peers.len(),
            cfg.peers.join(", ")
        );
    }
    server.run().map_err(|e| runtime(format!("serving: {e}")))
}

fn connect(addr: &str) -> Result<Client, CliError> {
    Client::connect(addr).map_err(|e| runtime(format!("connecting to {addr}: {e}")))
}

fn request(client: &mut Client, req: &Json) -> Result<Json, CliError> {
    let resp = client.request(req).map_err(runtime)?;
    expect_ok(resp).map_err(CliError::from_wire)
}

fn retry_policy(cfg: &ClientConfig) -> RetryPolicy {
    RetryPolicy {
        attempts: cfg.retries,
        base: Duration::from_millis(cfg.retry_base_ms),
        ..RetryPolicy::default()
    }
}

/// One idempotent request under the client's retry policy: a fresh
/// connection per attempt, protocol envelope unwrapped. Wire-level errors
/// (`ok: false`) are never retried — the daemon answered.
fn request_retrying(cfg: &ClientConfig, req: &Json) -> Result<Json, CliError> {
    let resp = request_retried(&cfg.addr, req, &retry_policy(cfg), cfg.timeout)
        .map_err(|e| runtime(format!("request to {}: {e}", cfg.addr)))?;
    expect_ok(resp).map_err(CliError::from_wire)
}

fn print_status_line(resp: &Json) {
    let field = |k: &str| resp.get(k).and_then(Json::as_u64).unwrap_or(0);
    let text = |k: &str| {
        resp.get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut line = format!(
        "job {} {}: {}/{} permutations (cache {}",
        field("job"),
        text("state"),
        field("done"),
        field("total"),
        text("cache"),
    );
    let resumed = field("resumed_from");
    if resumed > 0 {
        line.push_str(&format!(", resumed from {resumed}"));
    }
    line.push(')');
    if let Some(eta) = resp.get("eta_secs").and_then(Json::as_f64) {
        line.push_str(&format!(", eta {eta:.1}s"));
    }
    if let Some(err) = resp.get("error").and_then(Json::as_str) {
        line.push_str(&format!(", error: {err}"));
    }
    println!("{line}");
    // Sharded jobs carry a comm block: roster size, span accounting and
    // wire-level counters from the coordinator's point of view.
    if let Some(comm) = resp.get("comm") {
        let c = |k: &str| comm.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut comm_line = format!(
            "  comm: {} peer(s), spans {} total / {} local / {} remote",
            c("peers"),
            c("spans_total"),
            c("spans_local"),
            c("spans_remote"),
        );
        if c("peers_failed") > 0 {
            comm_line.push_str(&format!(
                ", {} peer(s) failed, {} span(s) reassigned",
                c("peers_failed"),
                c("spans_reassigned"),
            ));
        }
        comm_line.push_str(&format!(
            "; wire: {} request(s), {} retried, {} B out / {} B in",
            c("requests_sent"),
            c("retries"),
            c("bytes_sent"),
            c("bytes_received"),
        ));
        println!("{comm_line}");
    }
}

fn fetch_and_print_result(cfg: &ClientConfig, job: u64, wait: bool) -> Result<(), CliError> {
    // Safe to retry even with `wait`: the result request is read-only and the
    // daemon resolves it from the job table / cache on every attempt.
    let resp = request_retrying(cfg, &protocol::result_request(job, wait))?;
    if resp.get("workload").and_then(Json::as_str) == Some("bootstrap") {
        let result = protocol::boot_from_json(&resp).map_err(usage)?;
        eprintln!(
            "job {job}: {} bootstrap replicates, {:.0}% intervals",
            result.replicates,
            100.0 * result.level
        );
        return print_boot(&result, cfg.top, cfg.out.as_ref());
    }
    let result = protocol::result_from_json(&resp).map_err(usage)?;
    if let Some(adaptive) = resp.get("adaptive") {
        let report = protocol::adaptive_from_json(adaptive).map_err(usage)?;
        eprintln!(
            "job {job}: scored {} of {} gene-permutations ({:.1}%)",
            report.gene_perms_scored,
            report.gene_perms_exact,
            100.0 * report.budget_fraction()
        );
        return print_adaptive(&result, &report, cfg.top, cfg.out.as_ref());
    }
    eprintln!("job {job}: B = {} permutations", result.b_used);
    print_result(&result, cfg.top, cfg.out.as_ref())
}

fn cmd_submit(cfg: &ClientConfig) -> Result<(), CliError> {
    let data = cfg.data.as_ref().expect("parser enforces data");
    // The server reads the dataset from its own filesystem; send an absolute
    // path so client and server working directories need not agree.
    let path =
        std::fs::canonicalize(data).map_err(|e| runtime(format!("resolving {data:?}: {e}")))?;
    // Submission is idempotent (content-digest dedup), so a torn first
    // attempt resubmits safely.
    let req = protocol::submit_request(&path.display().to_string(), &cfg.opts);
    let resp = request_retrying(cfg, &req)?;
    let job = resp
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| usage("malformed submit response"))?;
    let text = |k: &str| {
        resp.get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut note = format!(
        "job {} {} (cache {}, {} permutations",
        job,
        text("state"),
        text("cache"),
        resp.get("total").and_then(Json::as_u64).unwrap_or(0),
    );
    let resumed = resp.get("resumed_from").and_then(Json::as_u64).unwrap_or(0);
    if resumed > 0 {
        note.push_str(&format!(", resumed from {resumed}"));
    }
    if resp.get("deduped").and_then(Json::as_bool) == Some(true) {
        note.push_str(", deduplicated");
    }
    note.push(')');
    eprintln!("{note}");
    if cfg.wait {
        fetch_and_print_result(cfg, job, true)
    } else {
        println!("{job}");
        Ok(())
    }
}

fn cmd_status(cfg: &ClientConfig) -> Result<(), CliError> {
    let job = cfg.job.expect("parser enforces job");
    let resp = request_retrying(cfg, &protocol::job_request("status", job))?;
    print_status_line(&resp);
    Ok(())
}

fn cmd_result(cfg: &ClientConfig) -> Result<(), CliError> {
    let job = cfg.job.expect("parser enforces job");
    fetch_and_print_result(cfg, job, cfg.wait)
}

fn cmd_cancel(cfg: &ClientConfig) -> Result<(), CliError> {
    let job = cfg.job.expect("parser enforces job");
    // Cancelling an already-terminal job is a no-op status echo, so retrying
    // a torn cancel is safe.
    let resp = request_retrying(cfg, &protocol::job_request("cancel", job))?;
    print_status_line(&resp);
    Ok(())
}

fn cmd_watch(cfg: &ClientConfig) -> Result<(), CliError> {
    let job = cfg.job.expect("parser enforces job");
    let policy = retry_policy(cfg);
    // Watching is idempotent: every (re)subscription starts with a status
    // snapshot, so after a dropped stream we reconnect and resume. Only
    // transport errors are retried; protocol errors surface immediately.
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let stream = Client::connect_with(&cfg.addr, cfg.timeout).and_then(|mut client| {
            let mut resp = client.request(&protocol::job_request("watch", job))?;
            loop {
                let ok = expect_ok(resp).map_err(|wire| {
                    io::Error::new(io::ErrorKind::InvalidData, encode_wire(wire))
                })?;
                print_status_line(&ok);
                let state = ok.get("state").and_then(Json::as_str).unwrap_or("");
                if matches!(state, "finished" | "cancelled" | "failed") {
                    return Ok(());
                }
                resp = client.read_response()?;
            }
        });
        match stream {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData && e.get_ref().is_some() => {
                // A daemon-delivered error (unknown job, usage) — not a
                // transport fault, so never retried.
                return Err(decode_wire(&e.to_string()));
            }
            Err(e) if attempt < policy.attempts.max(1) => {
                eprintln!("watch: {e}; reconnecting (attempt {attempt})");
                std::thread::sleep(policy.backoff(attempt + 1));
            }
            Err(e) => return Err(runtime(format!("watching job {job}: {e}"))),
        }
    }
}

/// Smuggle a wire error `(message, code)` through `io::Error` so the watch
/// closure can stay `io::Result`.
fn encode_wire((msg, code): (String, String)) -> String {
    format!("{code}\u{1f}{msg}")
}

fn decode_wire(encoded: &str) -> CliError {
    match encoded.split_once('\u{1f}') {
        Some((code, msg)) => CliError::from_wire((msg.to_string(), code.to_string())),
        None => runtime(encoded.to_string()),
    }
}

fn cmd_shutdown(addr: &str, drain: bool) -> Result<(), CliError> {
    // Deliberately not retried: with `--drain` the ack only arrives after the
    // daemon settles all work, and retrying a torn ack against the now-dead
    // server would misreport a successful shutdown as a failure.
    let mut client = connect(addr)?;
    request(&mut client, &protocol::shutdown_request(drain))?;
    eprintln!(
        "jobd at {addr}: shut down{}",
        if drain { " (drained)" } else { "" }
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..])
            .map_err(usage)
            .and_then(|cfg| cmd_run(&cfg)),
        Some("generate") => parse_generate(&args[1..])
            .map_err(usage)
            .and_then(|cfg| cmd_generate(&cfg)),
        Some("serve") => parse_serve(&args[1..])
            .map_err(usage)
            .and_then(|cfg| cmd_serve(&cfg)),
        Some("submit") => parse_client(&args[1..], true, false)
            .map_err(usage)
            .and_then(|cfg| cmd_submit(&cfg)),
        Some("status") => parse_client(&args[1..], false, true)
            .map_err(usage)
            .and_then(|cfg| cmd_status(&cfg)),
        Some("result") => parse_client(&args[1..], false, true)
            .map(|mut cfg| {
                // `result` waits by default; `--no-wait` polls.
                if !args[1..].iter().any(|a| a == "--no-wait") {
                    cfg.wait = true;
                }
                cfg
            })
            .map_err(usage)
            .and_then(|cfg| cmd_result(&cfg)),
        Some("cancel") => parse_client(&args[1..], false, true)
            .map_err(usage)
            .and_then(|cfg| cmd_cancel(&cfg)),
        Some("watch") => parse_client(&args[1..], false, true)
            .map_err(usage)
            .and_then(|cfg| cmd_watch(&cfg)),
        Some("shutdown") => {
            let rest = &args[1..];
            let drain = rest.iter().any(|a| a == "--drain");
            let extra: Vec<&String> = rest
                .iter()
                .filter(|a| a.as_str() != "--drain" && !a.starts_with("--"))
                .collect();
            match (
                extra.as_slice(),
                rest.iter().all(|a| !a.starts_with("--") || a == "--drain"),
            ) {
                ([addr], true) => cmd_shutdown(addr, drain),
                _ => Err(usage("usage: pmaxt shutdown <addr> [--drain]")),
            }
        }
        _ => Err(usage(usage_text())),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(CliError::Ranks(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_core::options::{Form, KernelChoice, Precision, SamplingMode, TestMethod, YES_NO};
    use sprint_core::side::Side;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_run_defaults() {
        let cfg = parse_run(&strs(&["data.tsv"])).unwrap();
        assert_eq!(cfg.input, PathBuf::from("data.tsv"));
        assert_eq!(cfg.opts, PmaxtOptions::default());
        assert_eq!(cfg.ranks, 1);
        assert!(!cfg.minp);
        assert_eq!(cfg.top, 10);
    }

    #[test]
    fn parse_run_full_flags() {
        let cfg = parse_run(&strs(&[
            "d.tsv",
            "--test",
            "wilcoxon",
            "--side",
            "upper",
            "--fixed-seed",
            "n",
            "-B",
            "500",
            "--nonpara",
            "y",
            "--na",
            "-999",
            "--seed",
            "7",
            "--ranks",
            "4",
            "--minp",
            "--kernel",
            "scalar",
            "--precision",
            "f32",
            "--threads",
            "3",
            "--batch",
            "16",
            "--out",
            "r.tsv",
            "--top",
            "25",
        ]))
        .unwrap();
        assert_eq!(cfg.opts.test, TestMethod::Wilcoxon);
        assert_eq!(cfg.opts.kernel, KernelChoice::Scalar);
        assert_eq!(cfg.opts.precision, Precision::F32);
        assert_eq!(cfg.opts.side, Side::Upper);
        assert_eq!(cfg.opts.sampling, SamplingMode::Stored);
        assert_eq!(cfg.opts.b, 500);
        assert!(cfg.opts.nonpara);
        assert_eq!(cfg.opts.na, Some(-999.0));
        assert_eq!(cfg.opts.seed, 7);
        assert_eq!(cfg.opts.threads, 3);
        assert_eq!(cfg.opts.batch, 16);
        assert_eq!(cfg.ranks, 4);
        assert!(cfg.minp);
        assert_eq!(cfg.out, Some(PathBuf::from("r.tsv")));
        assert_eq!(cfg.top, 25);
    }

    #[test]
    fn parse_run_rejects_garbage() {
        assert!(parse_run(&strs(&["--test"])).is_err());
        assert!(parse_run(&strs(&["d.tsv", "--bogus"])).is_err());
        assert!(parse_run(&strs(&["d.tsv", "--test", "zzz"])).is_err());
        assert!(parse_run(&strs(&[])).is_err());
        assert!(parse_run(&strs(&["d.tsv", "--nonpara", "yes"])).is_err());
    }

    #[test]
    fn usage_text_shows_every_option_flag_and_spelling() {
        let usage = usage_text();
        for row in &OPTIONS {
            let Some(flag) = row.flags.first() else {
                continue;
            };
            let shown = match row.form {
                Form::Word(words) => format!("[{flag} {}", words.join("|")),
                Form::YesNo => format!("[{flag} {}", YES_NO.join("|")),
                Form::Count | Form::Seed | Form::NaCode => format!("[{flag} "),
            };
            assert!(usage.contains(&shown), "usage text lacks {shown:?}");
        }
    }

    #[test]
    fn parse_generate_round_trip() {
        let cfg = parse_generate(&strs(&[
            "out.tsv",
            "--genes",
            "100",
            "--n0",
            "5",
            "--n1",
            "6",
            "--diff",
            "0.2",
            "--effect",
            "3.0",
            "--na-rate",
            "0.1",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(cfg.genes, 100);
        assert_eq!(cfg.n0, 5);
        assert_eq!(cfg.n1, 6);
        assert_eq!(cfg.diff, 0.2);
        assert_eq!(cfg.effect, 3.0);
        assert_eq!(cfg.na_rate, 0.1);
        assert_eq!(cfg.seed, 9);
        assert!(parse_generate(&strs(&["--genes", "5"])).is_err());
    }

    #[test]
    fn parse_serve_flags() {
        let cfg = parse_serve(&strs(&[
            "unix:/tmp/x.sock",
            "--workers",
            "4",
            "--span",
            "1000",
            "--queue",
            "8",
            "--job-threads",
            "2",
            "--cache",
            "/tmp/cachedir",
        ]))
        .unwrap();
        assert_eq!(cfg.addr, "unix:/tmp/x.sock");
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.span, 1000);
        assert_eq!(cfg.queue, 8);
        assert_eq!(cfg.job_threads, 2);
        assert_eq!(cfg.cache, Some(PathBuf::from("/tmp/cachedir")));
        assert_eq!(cfg.durability, Durability::Batch);
        let no_cache = parse_serve(&strs(&["127.0.0.1:0", "--no-cache"])).unwrap();
        assert_eq!(no_cache.cache, None);
        // The default durability degrades without a cache; an explicit
        // request is a conflict.
        assert_eq!(no_cache.durability, Durability::Off);
        assert!(parse_serve(&strs(&["a:1", "--no-cache", "--durability", "full"])).is_err());
        let full = parse_serve(&strs(&["a:1", "--durability", "full"])).unwrap();
        assert_eq!(full.durability, Durability::Full);
        assert!(parse_serve(&strs(&["a:1", "--durability", "sometimes"])).is_err());
        assert!(parse_serve(&strs(&[])).is_err());
        assert!(parse_serve(&strs(&["a:1", "--span", "0"])).is_err());
    }

    #[test]
    fn parse_client_submit_and_job_forms() {
        let cfg = parse_client(
            &strs(&["unix:/s.sock", "d.tsv", "-B", "500", "--wait", "--top", "3"]),
            true,
            false,
        )
        .unwrap();
        assert_eq!(cfg.addr, "unix:/s.sock");
        assert_eq!(cfg.data, Some(PathBuf::from("d.tsv")));
        assert_eq!(cfg.opts.b, 500);
        assert!(cfg.wait);
        assert_eq!(cfg.top, 3);

        let cfg = parse_client(&strs(&["127.0.0.1:9000", "17"]), false, true).unwrap();
        assert_eq!(cfg.job, Some(17));
        assert!(parse_client(&strs(&["addr:1"]), false, true).is_err());
        assert!(parse_client(&strs(&[]), true, false).is_err());
    }

    #[test]
    fn exit_code_mapping_from_core_errors() {
        let ranks = CoreError::RanksExceedPermutations { b: 5, ranks: 9 };
        assert!(matches!(CliError::from_core(ranks), CliError::Ranks(_)));
        let opt = CoreError::BadOption {
            param: "side",
            value: "x".into(),
        };
        assert!(matches!(CliError::from_core(opt), CliError::Usage(_)));
        let comm = CoreError::Comm("boom".into());
        assert!(matches!(CliError::from_core(comm), CliError::Runtime(_)));
        assert!(matches!(
            CliError::from_wire(("m".into(), "usage".into())),
            CliError::Usage(_)
        ));
        assert!(matches!(
            CliError::from_wire(("m".into(), "busy".into())),
            CliError::Runtime(_)
        ));
    }

    #[test]
    fn an_expired_answer_is_a_runtime_error() {
        // The daemon no longer keeps the job's result: resubmitting the
        // request is the remedy, so this is no usage mistake (exit 1).
        let msg = "job 1 has expired: its result was evicted";
        let err = CliError::from_wire((msg.into(), "expired".into()));
        assert!(matches!(&err, CliError::Runtime(m) if m == msg));
    }

    #[test]
    fn generate_then_run_end_to_end() {
        let dir = std::env::temp_dir();
        let data = dir.join(format!("pmaxt-cli-{}.tsv", std::process::id()));
        let out = dir.join(format!("pmaxt-cli-{}-result.tsv", std::process::id()));
        cmd_generate(&GenerateConfig {
            output: data.clone(),
            genes: 50,
            n0: 5,
            n1: 5,
            diff: 0.1,
            effect: 3.0,
            na_rate: 0.02,
            seed: 3,
        })
        .unwrap();
        let cfg = RunConfig {
            input: data.clone(),
            opts: PmaxtOptions::default().permutations(100),
            ranks: 2,
            minp: false,
            out: Some(out.clone()),
            top: 5,
            perm_file: None,
        };
        cmd_run(&cfg).unwrap();
        let table = std::fs::read_to_string(&out).unwrap();
        assert!(table.starts_with("index\tteststat\trawp\tadjp"));
        assert_eq!(table.lines().count(), 51); // header + 50 genes
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn run_rejects_oversubscribed_ranks_with_typed_error() {
        let dir = std::env::temp_dir();
        let data = dir.join(format!("pmaxt-cli-ranks-{}.tsv", std::process::id()));
        cmd_generate(&GenerateConfig {
            output: data.clone(),
            genes: 10,
            n0: 4,
            n1: 4,
            diff: 0.0,
            effect: 2.0,
            na_rate: 0.0,
            seed: 5,
        })
        .unwrap();
        let cfg = RunConfig {
            input: data.clone(),
            opts: PmaxtOptions::default().permutations(3),
            ranks: 8,
            minp: false,
            out: None,
            top: 3,
            perm_file: None,
        };
        let err = cmd_run(&cfg).unwrap_err();
        assert!(matches!(err, CliError::Ranks(_)), "got {err:?}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn parse_run_mode_flag() {
        let cfg = parse_run(&strs(&["d.tsv", "--mode", "adaptive"])).unwrap();
        assert_eq!(cfg.opts.mode, Mode::Adaptive);
        assert!(parse_run(&strs(&["d.tsv", "--mode", "guess"])).is_err());
        // The submit parser shares parse_opts_flag, so --mode rides along.
        let cfg =
            parse_client(&strs(&["a:1", "d.tsv", "--mode", "adaptive"]), true, false).unwrap();
        assert_eq!(cfg.opts.mode, Mode::Adaptive);
    }

    #[test]
    fn run_adaptive_mode_end_to_end() {
        let dir = std::env::temp_dir();
        let data = dir.join(format!("pmaxt-cli-adaptive-{}.tsv", std::process::id()));
        let out = dir.join(format!(
            "pmaxt-cli-adaptive-{}-result.tsv",
            std::process::id()
        ));
        cmd_generate(&GenerateConfig {
            output: data.clone(),
            genes: 40,
            n0: 5,
            n1: 5,
            diff: 0.05,
            effect: 4.0,
            na_rate: 0.0,
            seed: 6,
        })
        .unwrap();
        let mut opts = PmaxtOptions::default().permutations(2000);
        opts.mode = Mode::Adaptive;
        let cfg = RunConfig {
            input: data.clone(),
            opts,
            ranks: 1,
            minp: false,
            out: Some(out.clone()),
            top: 5,
            perm_file: None,
        };
        cmd_run(&cfg).unwrap();
        let table = std::fs::read_to_string(&out).unwrap();
        assert!(table.starts_with(
            "index\tteststat\tp_point\tp_lower\tp_upper\tscored\tstopped_at\ttail_p\ttail_good"
        ));
        assert_eq!(table.lines().count(), 41); // header + 40 genes

        // Adaptive refuses the exact-only combinations with a usage error.
        let mut minp_opts = PmaxtOptions::default().permutations(200);
        minp_opts.mode = Mode::Adaptive;
        let bad = RunConfig {
            input: data.clone(),
            opts: minp_opts,
            ranks: 1,
            minp: true,
            out: None,
            top: 5,
            perm_file: None,
        };
        assert!(matches!(cmd_run(&bad).unwrap_err(), CliError::Usage(_)));
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn run_minp_path_works() {
        let dir = std::env::temp_dir();
        let data = dir.join(format!("pmaxt-cli-minp-{}.tsv", std::process::id()));
        cmd_generate(&GenerateConfig {
            output: data.clone(),
            genes: 20,
            n0: 4,
            n1: 4,
            diff: 0.1,
            effect: 3.0,
            na_rate: 0.0,
            seed: 4,
        })
        .unwrap();
        let cfg = RunConfig {
            input: data.clone(),
            opts: PmaxtOptions::default().permutations(60),
            ranks: 1,
            minp: true,
            out: None,
            top: 3,
            perm_file: None,
        };
        cmd_run(&cfg).unwrap();
        std::fs::remove_file(&data).ok();
    }
}
