//! The repository benchmark. One leg per invocation:
//!
//! ```text
//! perfbench --pmaxt <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload against the release `pmaxt` binary for
//! `--seconds` and reports the end-to-end metrics; `--trace 1` is the traced
//! leg, which times the calls into each layer's public functions from this
//! process and reports the per-layer metrics. Either way every output is
//! checked against an in-process reference, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod data;
mod mix;
mod procs;
mod profile;
mod runs;
mod serve;
mod stats;
mod trace;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use sprint_jobd::json::Json;

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "maxt-paper",
        "the paper's reference run: pmaxt run t/abs, B=10000, 2 threads on a seeded 6102x76 \
         matrix; the maxT kernel does almost all the work",
    ),
    (
        "boot-paper",
        "pmaxt run --workload bootstrap, B=2000 on the same matrix: with-replacement draws, \
         scalar per-gene loop, serial finalize, ~98 MB replicate matrix; maxT engine idle",
    ),
    (
        "serve-mix",
        "pmaxt serve on a unix socket, 2 closed-loop clients, 60% hits / 30% misses / 10% \
         extends over two datasets and t|wilcoxon: read path and write path both loaded",
    ),
];

/// Everything a leg needs to know about its invocation.
pub struct Ctx {
    /// The release `pmaxt` binary under test.
    pub pmaxt: PathBuf,
    /// The leg's scratch directory, removed when the leg ends.
    pub dir: PathBuf,
    /// Where the traced leg writes its spans.
    pub out: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
}

/// What a leg measured and how many of its outputs were right.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts behind the reported order statistics.
    pub samples: Vec<(String, usize)>,
}

impl Outcome {
    /// Count one operation; a wrong or failed one counts as failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A median with the number of samples it was taken over.
    pub fn add_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.add(name, stats::median(values), unit);
        self.samples.push((name.to_string(), values.len()));
    }

    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.as_str(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_json()
    }
}

struct Args {
    pmaxt: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut pmaxt, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--pmaxt" => pmaxt = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        pmaxt: pmaxt.ok_or("--pmaxt is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(ctx: &Ctx, traced: bool) -> io::Result<Outcome> {
    match (ctx.workload.as_str(), traced) {
        ("maxt-paper", false) => runs::run(ctx, false),
        ("boot-paper", false) => runs::run(ctx, true),
        ("serve-mix", false) => serve::run(ctx),
        (_, true) => profile::run(ctx),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// A line of text from a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers come from: host, toolchain, build, source, and the
/// workload with its seed and the reason it was chosen.
fn fingerprint(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let why = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map_or("", |(_, why)| why);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "build",
            Json::str(format!(
                "release, lto=thin, RUSTFLAGS={:?}, default features",
                std::env::var("RUSTFLAGS").unwrap_or_default()
            )),
        ),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workload", Json::str(&args.workload)),
        ("why", Json::str(why)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.pmaxt.is_file() {
        eprintln!("perfbench: no pmaxt binary at {}", args.pmaxt.display());
        return ExitCode::from(2);
    }
    let out = PathBuf::from("perfbench/out");
    let ctx = Ctx {
        pmaxt: args.pmaxt.clone(),
        dir: out.join(format!("work-{}-{}", args.workload, std::process::id())),
        out,
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    println!("fingerprint {}", fingerprint(&args).to_json());
    let outcome = std::fs::create_dir_all(&ctx.dir).and_then(|()| run(&ctx, args.trace));
    let _ = std::fs::remove_dir_all(&ctx.dir);
    match outcome {
        Ok(outcome) if outcome.attempted > 0 => {
            for (name, n) in &outcome.samples {
                println!("samples {name} {n}");
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: no operation completed in the measured window");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
