//! # sprint-bench — benchmark harness for the paper's tables and figures
//!
//! Two kinds of measurement live here:
//!
//! - **Simulated platform tables** (via `cluster-sim`): Tables I–V, Table VI
//!   and Figure 3 at the paper's scale (up to 512 processes) — regenerated by
//!   the `make_tables` binary;
//! - **Real local measurements**: the `pmaxt` implementation profiled on this
//!   machine's cores through `mpi-sim` ([`local_profile_table`]), plus
//!   criterion microbenches (statistics, generators, kernel scaling, and the
//!   three ablations: marshalling codec, transpose strategy, SPMD ranks vs
//!   the engine's threads in one process).

use microarray::prelude::SynthConfig;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::{self, EngineConfig};
use sprint_core::maxt::serial::prepare_run;
use sprint_core::maxt::{CountAccumulator, MaxTContext};
use sprint_core::options::{PmaxtOptions, TestMethod};
use sprint_core::pmaxt::{chunk_for_rank, pmaxt, sections};

/// Schema version stamped into every `BENCH_*.json` document `make_tables`
/// emits. Bump when a field is renamed, removed, or changes meaning — adding
/// fields is backward compatible and does not require a bump.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Prepend the shared provenance header — `schema_version`, the `make_tables`
/// subcommand that produced the document, and the options the run was invoked
/// with — to a hand-rolled JSON document. Every emitter in this crate opens
/// its document with `"{\n"`, so the header splices in as the first keys.
///
/// `options` values must already be rendered as JSON (numbers unquoted,
/// strings pre-quoted, booleans literal).
pub fn stamp_bench_json(body: &str, subcommand: &str, options: &[(&str, String)]) -> String {
    use std::fmt::Write as _;
    let rest = body
        .strip_prefix("{\n")
        .expect("bench JSON documents open with '{\\n'");
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"subcommand\": \"{subcommand}\",");
    let rendered: Vec<String> = options
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let _ = writeln!(s, "  \"options\": {{{}}},", rendered.join(", "));
    s.push_str(rest);
    s
}

/// One row of a locally measured profile table.
#[derive(Debug, Clone)]
pub struct LocalRow {
    /// Rank count of the run.
    pub procs: usize,
    /// The five section times in seconds (paper order).
    pub sections: [f64; 5],
    /// Total wall time.
    pub total: f64,
}

/// Run `pmaxt` locally at each rank count and produce rows in the paper's
/// table format. Honest caveat printed by the harness: on a single-core host
/// ranks time-share, so wall-clock speedup is bounded by the core count.
pub fn local_profile_rows(
    data: &Matrix,
    labels: &[u8],
    opts: &PmaxtOptions,
    proc_counts: &[usize],
) -> Vec<LocalRow> {
    let names = [
        sections::PRE_PROCESSING,
        sections::BROADCAST_PARAMETERS,
        sections::CREATE_DATA,
        sections::MAIN_KERNEL,
        sections::COMPUTE_P_VALUES,
    ];
    proc_counts
        .iter()
        .map(|&p| {
            let run = pmaxt(data, labels, opts, p).expect("valid run");
            let mut secs = [0.0f64; 5];
            for (i, n) in names.iter().enumerate() {
                secs[i] = run.profile.seconds(n);
            }
            LocalRow {
                procs: p,
                sections: secs,
                total: secs.iter().sum(),
            }
        })
        .collect()
}

/// Format local rows like the paper's Tables I–V.
pub fn format_local_rows(rows: &[LocalRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>7} {:>12} {:>12} {:>10} {:>12} {:>12} {:>9} {:>9}",
        "Procs",
        "Preproc(s)",
        "Bcast(s)",
        "Create(s)",
        "Kernel(s)",
        "P-values(s)",
        "Speedup",
        "Spd(krn)"
    );
    let t1 = rows[0].total;
    let k1 = rows[0].sections[3];
    for r in rows {
        let _ = writeln!(
            s,
            "{:>7} {:>12.4} {:>12.4} {:>10.4} {:>12.4} {:>12.4} {:>9.2} {:>9.2}",
            r.procs,
            r.sections[0],
            r.sections[1],
            r.sections[2],
            r.sections[3],
            r.sections[4],
            t1 / r.total,
            k1 / r.sections[3],
        );
    }
    s
}

/// One cell of the kernel ablation grid: the same accumulate loop timed with
/// the scalar and the sufficient-statistic fast kernel.
#[derive(Debug, Clone)]
pub struct KernelCell {
    /// Gene (row) count of the synthetic workload.
    pub genes: usize,
    /// Sample (column) count.
    pub samples: usize,
    /// Permutations accumulated per timing.
    pub b: u64,
    /// Wall seconds of the scalar kernel.
    pub scalar_secs: f64,
    /// Wall seconds of the fast kernel.
    pub fast_secs: f64,
}

impl KernelCell {
    /// Scalar time over fast time.
    pub fn speedup(&self) -> f64 {
        self.scalar_secs / self.fast_secs
    }

    /// Fast-kernel throughput in gene·permutations per second — the
    /// shape-independent rate (`genes · B / fast_secs`) that makes cells of
    /// different grid sizes directly comparable.
    pub fn throughput(&self) -> f64 {
        (self.genes as f64) * (self.b as f64) / self.fast_secs
    }

    /// Scalar-kernel throughput in gene·permutations per second.
    pub fn scalar_throughput(&self) -> f64 {
        (self.genes as f64) * (self.b as f64) / self.scalar_secs
    }
}

/// Identity labelling for the 76-sample reference workload under each
/// method's design: two 38-sample groups for the two-sample family, a
/// 26+25+25 three-class split for `f`, and 38 two-member pairs/blocks for
/// `pairt`/`blockf`.
pub fn kernel_labels(test: TestMethod) -> Vec<u8> {
    match test {
        TestMethod::T
        | TestMethod::TEqualVar
        | TestMethod::Wilcoxon
        | TestMethod::Corr
        | TestMethod::TMax => {
            let mut v = vec![0u8; 38];
            v.extend(std::iter::repeat_n(1u8, 38));
            v
        }
        TestMethod::F => {
            let mut v = vec![0u8; 26];
            v.extend(std::iter::repeat_n(1u8, 25));
            v.extend(std::iter::repeat_n(2u8, 25));
            v
        }
        TestMethod::PairT | TestMethod::BlockF => (0..38).flat_map(|_| [0u8, 1u8]).collect(),
    }
}

/// Time the production single-thread engine (batched tile path — the loop
/// `mt_maxt` and the checkpoint runner actually execute) under the scalar
/// and fast scorers over a genes×B grid (NA-free 76-sample workloads — the
/// paper's shape — relabelled per method via [`kernel_labels`]). Counts are
/// asserted identical between scorers in every cell, so a speedup claim can
/// never come from a diverging implementation.
pub fn kernel_grid(genes_list: &[usize], b_list: &[u64], test: TestMethod) -> Vec<KernelCell> {
    use sprint_core::options::KernelChoice;
    use std::time::Instant;
    let mut cells = Vec::new();
    let raw_labels = kernel_labels(test);
    for &genes in genes_list {
        let ds = microarray::prelude::SynthConfig::two_class(genes, 38, 38)
            .diff_fraction(0.05)
            .seed(11)
            .generate();
        for &b in b_list {
            let opts = PmaxtOptions::default().test(test).permutations(b);
            let (labels, b_res, prepared) =
                prepare_run(&ds.matrix, &raw_labels, &opts).expect("valid workload");
            let time_kernel = |choice: KernelChoice| -> (f64, CountAccumulator) {
                let ctx = MaxTContext::with_scorer(
                    &prepared,
                    &labels,
                    opts.test,
                    opts.side,
                    choice,
                    opts.precision,
                );
                let t0 = Instant::now();
                let run = engine::accumulate_chunk(
                    &ctx,
                    &labels,
                    &opts,
                    b_res,
                    0,
                    b_res,
                    EngineConfig::explicit(1, 0),
                )
                .expect("engine run");
                (t0.elapsed().as_secs_f64(), run.counts)
            };
            let (scalar_secs, scalar_counts) = time_kernel(KernelChoice::Scalar);
            let (fast_secs, fast_counts) = time_kernel(KernelChoice::Fast);
            assert_eq!(
                scalar_counts, fast_counts,
                "kernel divergence at {genes} genes, B={b}"
            );
            cells.push(KernelCell {
                genes,
                samples: 76,
                b,
                scalar_secs,
                fast_secs,
            });
        }
    }
    cells
}

/// The kernel ISA body (`baseline`, `avx2`, `avx512`) that produced a
/// document's fast-scorer columns: the host's, as every fast scorer picks it.
fn fast_isa() -> &'static str {
    sprint_core::stats::soa::Isa::host().as_str()
}

/// Serialize per-method grid cells as one JSON document (hand-rolled — the
/// workspace carries no serde): `{"fast_isa": "avx2", "tests": [{"test":
/// "t", "cells": [...]}, ...]}`.
pub fn kernel_cells_to_json(results: &[(TestMethod, Vec<KernelCell>)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"fast_isa\": \"{}\",", fast_isa());
    s.push_str("  \"tests\": [\n");
    for (t, (test, cells)) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{\"test\": \"{}\", \"cells\": [", test.as_str());
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(
                s,
                "      {{\"genes\": {}, \"samples\": {}, \"B\": {}, \"scalar_secs\": {:.6}, \"fast_secs\": {:.6}, \"speedup\": {:.3}, \"scalar_genes_b_per_sec\": {:.0}, \"fast_genes_b_per_sec\": {:.0}}}",
                c.genes, c.samples, c.b, c.scalar_secs, c.fast_secs, c.speedup(),
                c.scalar_throughput(), c.throughput()
            );
            s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
        }
        s.push_str("    ]}");
        s.push_str(if t + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// One cell of the hybrid (ranks × threads) scaling grid.
#[derive(Debug, Clone)]
pub struct ThreadCell {
    /// Simulated rank count.
    pub ranks: usize,
    /// Worker threads per rank.
    pub threads: usize,
    /// Engine batch size used.
    pub batch: usize,
    /// Permutations of the run.
    pub b: u64,
    /// Total busy time summed over every worker of every rank — the work the
    /// configuration actually performed.
    pub total_busy_secs: f64,
    /// Critical path: the busiest single worker. With ranks and threads
    /// genuinely concurrent this is the modelled wall-clock of the kernel.
    pub critical_path_secs: f64,
    /// Wall-clock of the measurement itself (workers run sequentially here,
    /// so on any host this is ≈ `total_busy_secs`).
    pub measured_wall_secs: f64,
}

/// Measure the engine's hybrid scaling on a ranks × threads grid, the way the
/// paper's simulated tables do: every (rank, thread) worker sub-chunk is
/// executed **sequentially in isolation** and timed, so per-worker busy times
/// are uncontended measurements even on a single-core host. The modelled
/// wall-clock of a configuration is its critical path (the busiest worker) —
/// ranks are processes and workers are threads, all concurrent in a real
/// deployment. A worker's sub-chunk is an even split of its rank's chunk, a
/// model of rank chunking, not of the engine's workers, which pull batches.
///
/// Counts are asserted identical to the 1-rank/1-thread reference in every
/// cell, so a speedup claim can never come from a diverging implementation.
pub fn thread_grid(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    rank_counts: &[usize],
    thread_counts: &[usize],
    batch: usize,
) -> Vec<ThreadCell> {
    use std::time::Instant;
    let (labels, b, prepared) = prepare_run(data, classlabel, opts).expect("valid workload");
    let ctx = MaxTContext::with_scorer(
        &prepared,
        &labels,
        opts.test,
        opts.side,
        opts.kernel,
        opts.precision,
    );
    let mut reference: Option<CountAccumulator> = None;
    let mut cells = Vec::new();
    for &ranks in rank_counts {
        for &threads in thread_counts {
            let wall_start = Instant::now();
            let mut merged = CountAccumulator::new(prepared.rows());
            let mut busy = Vec::new();
            for rank in 0..ranks as u64 {
                let (start, take) =
                    chunk_for_rank(b, ranks as u64, rank).expect("ranks <= b in the grid");
                // One engine call per virtual worker (threads pinned to 1)
                // keeps each busy-time measurement free of time-sharing
                // contention; the counts are identical by construction.
                for (sub_start, sub_take) in engine::split_chunk(start, take, threads) {
                    let run = engine::accumulate_chunk(
                        &ctx,
                        &labels,
                        opts,
                        b,
                        sub_start,
                        sub_take,
                        EngineConfig { threads: 1, batch },
                    )
                    .expect("engine chunk");
                    for w in &run.workers {
                        busy.push(w.busy.as_secs_f64());
                    }
                    merged.merge(&run.counts);
                }
            }
            let measured_wall_secs = wall_start.elapsed().as_secs_f64();
            assert_eq!(merged.n_perm, b, "grid cell dropped permutations");
            match &reference {
                Some(r) => assert_eq!(
                    &merged, r,
                    "engine divergence at ranks={ranks} threads={threads}"
                ),
                None => reference = Some(merged),
            }
            cells.push(ThreadCell {
                ranks,
                threads,
                batch,
                b,
                total_busy_secs: busy.iter().sum(),
                critical_path_secs: busy.iter().copied().fold(0.0, f64::max),
                measured_wall_secs,
            });
        }
    }
    cells
}

/// Serialize thread-grid cells as JSON (hand-rolled — no serde in the
/// workspace), leading with an honest note about what the numbers mean.
pub fn thread_cells_to_json(genes: usize, samples: usize, cells: &[ThreadCell]) -> String {
    use std::fmt::Write as _;
    let baseline = cells
        .iter()
        .find(|c| c.ranks == 1 && c.threads == 1)
        .map(|c| c.critical_path_secs);
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"per-worker busy times measured in isolation, each \
         worker taking an even split of its rank's chunk (a model of rank \
         chunking; the engine's workers pull batches from one stream); \
         critical_path_secs models all ranks x threads running concurrently \
         (busiest worker); speedup = critical path of 1x1 over critical path \
         of the cell; measured_wall_secs is the serialized measurement on \
         this host\","
    );
    let _ = writeln!(s, "  \"fast_isa\": \"{}\",", fast_isa());
    let _ = writeln!(s, "  \"genes\": {genes},");
    let _ = writeln!(s, "  \"samples\": {samples},");
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let speedup = match baseline {
            Some(base) if c.critical_path_secs > 0.0 => base / c.critical_path_secs,
            _ => f64::NAN,
        };
        let _ = write!(
            s,
            "    {{\"ranks\": {}, \"threads\": {}, \"batch\": {}, \"B\": {}, \
             \"total_busy_secs\": {:.6}, \"critical_path_secs\": {:.6}, \
             \"measured_wall_secs\": {:.6}, \"speedup\": {:.3}}}",
            c.ranks,
            c.threads,
            c.batch,
            c.b,
            c.total_busy_secs,
            c.critical_path_secs,
            c.measured_wall_secs,
            speedup
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Measurements of the jobd layer: throughput of distinct jobs through the
/// queue/worker pool, cache-hit latency, and incremental-extension cost.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Dataset shape.
    pub genes: usize,
    /// Samples per gene.
    pub samples: usize,
    /// Permutations per job.
    pub b: u64,
    /// Number of distinct jobs pushed through the pool.
    pub jobs: usize,
    /// Wall-clock seconds for all `jobs` submissions to finish (cold cache).
    pub cold_secs: f64,
    /// Cold throughput, `jobs / cold_secs`.
    pub jobs_per_sec: f64,
    /// Mean submit→result seconds when every job is a cache hit.
    pub hit_latency_secs: f64,
    /// Wall-clock seconds to extend one cached run from `b` to `3b/2`.
    pub extend_secs: f64,
    /// Wall-clock seconds for a fresh (uncached) run at `3b/2`, for scale.
    pub fresh_secs: f64,
}

/// Run the jobd serve benchmark: `jobs` distinct submissions (differing
/// seeds) through a worker pool over a shared cache, then the same
/// submissions again as pure cache hits, then one incremental extension.
///
/// Drives [`sprint_jobd::JobManager`] in-process — the socket layer adds
/// only line-JSON framing, so this measures the costs that matter:
/// orchestration, checkpointing and cache service.
pub fn serve_bench(genes: usize, samples: usize, b: u64, jobs: usize) -> ServeBench {
    use sprint_jobd::{JobManager, JobSpec, ManagerConfig};
    let n0 = samples / 2;
    let ds = SynthConfig::two_class(genes, n0, samples - n0)
        .diff_fraction(0.05)
        .seed(7)
        .generate();
    let cache = std::env::temp_dir().join(format!("sprint-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cfg = || ManagerConfig {
        workers: 2,
        span: (b / 4).max(1),
        cache_dir: Some(cache.clone()),
        ..ManagerConfig::default()
    };
    let spec = |seed: u64, b: u64| JobSpec {
        data: ds.matrix.clone(),
        classlabel: ds.labels.clone(),
        opts: PmaxtOptions::default().permutations(b).seed(seed),
        source_path: None,
    };

    // Cold: distinct jobs, empty cache.
    let mgr = JobManager::new(cfg()).expect("manager");
    let t0 = std::time::Instant::now();
    let ids: Vec<u64> = (0..jobs)
        .map(|j| mgr.submit(spec(j as u64 + 1, b)).expect("submit").id)
        .collect();
    for id in &ids {
        mgr.wait_result(*id, None).expect("result");
    }
    let cold_secs = t0.elapsed().as_secs_f64();
    drop(mgr);

    // Warm: identical submissions against a fresh manager over the same
    // cache — every one must be a hit served without computation.
    let mgr = JobManager::new(cfg()).expect("manager");
    let t0 = std::time::Instant::now();
    for j in 0..jobs {
        let info = mgr.submit(spec(j as u64 + 1, b)).expect("submit");
        mgr.wait_result(info.id, None).expect("result");
    }
    let hit_latency_secs = t0.elapsed().as_secs_f64() / jobs.max(1) as f64;

    // Extend one run to 3b/2, and compare with computing 3b/2 fresh.
    let b_ext = b + b / 2;
    let t0 = std::time::Instant::now();
    let info = mgr.submit(spec(1, b_ext)).expect("submit");
    mgr.wait_result(info.id, None).expect("result");
    let extend_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let info = mgr.submit(spec(jobs as u64 + 99, b_ext)).expect("submit");
    mgr.wait_result(info.id, None).expect("result");
    let fresh_secs = t0.elapsed().as_secs_f64();
    drop(mgr);
    let _ = std::fs::remove_dir_all(&cache);

    ServeBench {
        genes,
        samples,
        b,
        jobs,
        cold_secs,
        jobs_per_sec: jobs as f64 / cold_secs.max(f64::EPSILON),
        hit_latency_secs,
        extend_secs,
        fresh_secs,
    }
}

/// Serialize the serve benchmark as JSON (hand-rolled — no serde in the
/// workspace).
pub fn serve_bench_to_json(r: &ServeBench) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"jobd measured in-process (no socket framing): cold = \
         distinct jobs through a 2-worker pool with an empty cache; hit = \
         mean submit-to-result latency when every request is served from the \
         cache; extend = raising one cached run from B to 3B/2, vs computing \
         3B/2 fresh\","
    );
    let _ = writeln!(s, "  \"genes\": {},", r.genes);
    let _ = writeln!(s, "  \"samples\": {},", r.samples);
    let _ = writeln!(s, "  \"B\": {},", r.b);
    let _ = writeln!(s, "  \"jobs\": {},", r.jobs);
    let _ = writeln!(s, "  \"cold_secs\": {:.6},", r.cold_secs);
    let _ = writeln!(s, "  \"jobs_per_sec\": {:.3},", r.jobs_per_sec);
    let _ = writeln!(s, "  \"hit_latency_secs\": {:.6},", r.hit_latency_secs);
    let _ = writeln!(s, "  \"extend_secs\": {:.6},", r.extend_secs);
    let _ = writeln!(s, "  \"fresh_secs\": {:.6}", r.fresh_secs);
    s.push_str("}\n");
    s
}

/// One durability mode's cost through the job manager: mean accept-path
/// latency (submit call, which carries the journal append) and end-to-end
/// throughput of the same distinct-job workload.
#[derive(Debug, Clone)]
pub struct RecoveryMode {
    /// `off`, `batch`, or `full`.
    pub mode: String,
    /// Mean seconds per `submit` call — the accept ack the client waits on.
    pub accept_secs: f64,
    /// End-to-end jobs per second (submit through result) for the workload.
    pub jobs_per_sec: f64,
}

/// Measurements of the durability layer: accept-path cost per journal mode
/// and journal replay time as a function of record count.
#[derive(Debug, Clone)]
pub struct RecoveryBench {
    pub genes: usize,
    pub samples: usize,
    pub b: u64,
    pub jobs: usize,
    /// One entry per durability mode, `off` first (the baseline).
    pub modes: Vec<RecoveryMode>,
    /// `(records, replay_secs)` — cold `Journal::open` replay time over a
    /// journal holding that many lifecycle records.
    pub replay: Vec<(usize, f64)>,
}

impl RecoveryBench {
    /// Accept-path overhead of a mode relative to `off`, in percent. The
    /// acceptance target for `batch` is <= 10%.
    pub fn overhead_pct(&self, mode: &str) -> f64 {
        let base = self.modes[0].accept_secs.max(f64::EPSILON);
        self.modes
            .iter()
            .find(|m| m.mode == mode)
            .map(|m| (m.accept_secs / base - 1.0) * 100.0)
            .unwrap_or(f64::NAN)
    }
}

/// Run the durability benchmark: the same distinct-job workload through the
/// manager under each journal mode, then replay timing against synthetic
/// journals of growing length.
pub fn recovery_bench(genes: usize, samples: usize, b: u64, jobs: usize) -> RecoveryBench {
    use sprint_jobd::journal::{Durability, Journal, JournalRecord, RecordKind};
    use sprint_jobd::{Faults, JobManager, JobSpec, ManagerConfig};
    let n0 = samples / 2;
    let ds = SynthConfig::two_class(genes, n0, samples - n0)
        .diff_fraction(0.05)
        .seed(13)
        .generate();
    let root = std::env::temp_dir().join(format!("sprint-recovery-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = |seed: u64| JobSpec {
        data: ds.matrix.clone(),
        classlabel: ds.labels.clone(),
        opts: PmaxtOptions::default().permutations(b).seed(seed),
        source_path: None,
    };

    let mut modes = Vec::new();
    for mode in [Durability::Off, Durability::Batch, Durability::Full] {
        let cache = root.join(mode.as_str());
        let mgr = JobManager::new(ManagerConfig {
            workers: 2,
            span: (b / 4).max(1),
            cache_dir: Some(cache),
            durability: mode,
            ..ManagerConfig::default()
        })
        .expect("manager");
        let t0 = std::time::Instant::now();
        let ids: Vec<u64> = (0..jobs)
            .map(|j| mgr.submit(spec(j as u64 + 1)).expect("submit").id)
            .collect();
        let accept_secs = t0.elapsed().as_secs_f64() / jobs.max(1) as f64;
        for id in &ids {
            mgr.wait_result(*id, None).expect("result");
        }
        let total = t0.elapsed().as_secs_f64();
        drop(mgr);
        modes.push(RecoveryMode {
            mode: mode.as_str().to_string(),
            accept_secs,
            jobs_per_sec: jobs as f64 / total.max(f64::EPSILON),
        });
    }

    // Replay cost vs journal length: append n lifecycle records (accept +
    // terminal pairs keep the pending fold small, like a healthy journal),
    // then time a cold open, which decodes and folds every frame.
    let mut replay = Vec::new();
    for n in [200usize, 2_000, 20_000] {
        let dir = root.join(format!("replay-{n}"));
        std::fs::create_dir_all(&dir).expect("replay dir");
        let (journal, _) =
            Journal::open(&dir, Durability::Batch, Faults::disabled()).expect("journal");
        for i in 0..n as u64 {
            let kind = if i % 2 == 0 {
                RecordKind::Accepted
            } else {
                RecordKind::Finished
            };
            let rec = JournalRecord::transition(kind, &format!("{:032x}", i / 2), b, "exact");
            journal.append(&rec).expect("append");
        }
        journal.flush().expect("flush");
        drop(journal);
        let t0 = std::time::Instant::now();
        let (_j, rep) = Journal::open(&dir, Durability::Batch, Faults::disabled()).expect("reopen");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(rep.records.len(), n, "replay must see every record");
        replay.push((n, secs));
    }
    let _ = std::fs::remove_dir_all(&root);

    RecoveryBench {
        genes,
        samples,
        b,
        jobs,
        modes,
        replay,
    }
}

/// Serialize the recovery benchmark as JSON (hand-rolled — no serde in the
/// workspace).
pub fn recovery_bench_to_json(r: &RecoveryBench) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"durability cost, measured in-process: accept_secs = \
         mean submit-call latency (the ack the client waits on, carrying the \
         journal append); jobs_per_sec = end-to-end throughput of the same \
         distinct-job workload; replay = cold Journal::open over a journal \
         of N lifecycle records\","
    );
    let _ = writeln!(s, "  \"genes\": {},", r.genes);
    let _ = writeln!(s, "  \"samples\": {},", r.samples);
    let _ = writeln!(s, "  \"B\": {},", r.b);
    let _ = writeln!(s, "  \"jobs\": {},", r.jobs);
    s.push_str("  \"modes\": [\n");
    for (i, m) in r.modes.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"mode\": \"{}\", \"accept_secs\": {:.9}, \"jobs_per_sec\": {:.3}, \
             \"accept_overhead_pct\": {:.2}}}",
            m.mode,
            m.accept_secs,
            m.jobs_per_sec,
            r.overhead_pct(&m.mode)
        );
        s.push_str(if i + 1 < r.modes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"batch_overhead_pct\": {:.2},",
        r.overhead_pct("batch")
    );
    s.push_str("  \"replay\": [\n");
    for (i, (n, secs)) in r.replay.iter().enumerate() {
        let _ = write!(s, "    {{\"records\": {n}, \"replay_secs\": {secs:.6}}}");
        s.push_str(if i + 1 < r.replay.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// One fault-overhead measurement: the same workload through the job
/// manager with the injection registry disabled, armed at probability zero
/// (every injection point draws, nothing fires), and armed at a soak-level
/// spec (recovery paths actually taken).
pub struct FaultsBench {
    pub genes: usize,
    pub samples: usize,
    pub b: u64,
    pub jobs: usize,
    /// Wall time with `Faults::disabled()` — the production configuration.
    pub disabled_secs: f64,
    /// Wall time with all classes armed at probability 0.0.
    pub armed_zero_secs: f64,
    /// Wall time with worker faults injected at a few percent, including the
    /// resubmit-until-finished recovery.
    pub soak_secs: f64,
    /// Resubmissions the soak needed beyond the first attempt per job.
    pub soak_retries: u64,
    /// `(class, checked, fired)` counters from the soak registry.
    pub soak_report: Vec<(String, u64, u64)>,
}

impl FaultsBench {
    /// Overhead of compiled-in-but-idle injection, in percent of the
    /// disabled wall time (the acceptance target is < 2%).
    pub fn armed_zero_overhead_pct(&self) -> f64 {
        (self.armed_zero_secs / self.disabled_secs.max(f64::EPSILON) - 1.0) * 100.0
    }
}

/// Measure what the fault-injection hooks cost when idle, and what a soak
/// spec costs end to end. All three passes run identical job sets through
/// [`sprint_jobd::JobManager`]; only the registry differs.
pub fn faults_bench(genes: usize, samples: usize, b: u64, jobs: usize) -> FaultsBench {
    use sprint_jobd::{FaultKind, Faults, JobError, JobManager, JobSpec, ManagerConfig};
    let n0 = samples / 2;
    let ds = SynthConfig::two_class(genes, n0, samples - n0)
        .diff_fraction(0.05)
        .seed(11)
        .generate();
    let cache = std::env::temp_dir().join(format!("sprint-faults-bench-{}", std::process::id()));
    let spec = |seed: u64| JobSpec {
        data: ds.matrix.clone(),
        classlabel: ds.labels.clone(),
        opts: PmaxtOptions::default().permutations(b).seed(seed),
        source_path: None,
    };
    // Small spans so the per-span injection points are drawn often enough to
    // be visible if they ever become expensive.
    let span = (b / 16).max(1);
    let run = |faults: Faults, cache_dir: Option<std::path::PathBuf>| -> (f64, u64) {
        let mgr = JobManager::new(ManagerConfig {
            workers: 2,
            span,
            cache_dir,
            faults,
            ..ManagerConfig::default()
        })
        .expect("manager");
        let t0 = std::time::Instant::now();
        let mut retries = 0u64;
        for j in 0..jobs {
            loop {
                let info = mgr.submit(spec(j as u64 + 1)).expect("submit");
                match mgr.wait_result(info.id, None) {
                    Ok(_) => break,
                    Err(JobError::Failed(_)) => retries += 1,
                    Err(e) => panic!("faults bench job error: {e}"),
                }
            }
        }
        (t0.elapsed().as_secs_f64(), retries)
    };

    let (disabled_secs, _) = run(Faults::disabled(), None);
    let armed_zero = Faults::builder().seed(1).build();
    let (armed_zero_secs, _) = run(armed_zero, None);
    let soak = Faults::builder()
        .prob(FaultKind::WorkerPanic, 0.03)
        .prob(FaultKind::SpanIo, 0.03)
        .prob(FaultKind::CacheCorrupt, 0.03)
        .seed(2)
        .build();
    let _ = std::fs::remove_dir_all(&cache);
    let (soak_secs, soak_retries) = run(soak.clone(), Some(cache.clone()));
    let _ = std::fs::remove_dir_all(&cache);

    FaultsBench {
        genes,
        samples,
        b,
        jobs,
        disabled_secs,
        armed_zero_secs,
        soak_secs,
        soak_retries,
        soak_report: soak
            .report()
            .into_iter()
            .map(|(k, checked, fired)| (k.as_str().to_string(), checked, fired))
            .collect(),
    }
}

/// Serialize the faults benchmark as JSON.
pub fn faults_bench_to_json(r: &FaultsBench) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"identical job sets through the jobd manager: disabled = \
         injection registry off; armed_zero = every injection point draws but \
         nothing fires (overhead target < 2%); soak = worker faults at 3% with \
         resubmit-until-finished recovery\","
    );
    let _ = writeln!(s, "  \"genes\": {},", r.genes);
    let _ = writeln!(s, "  \"samples\": {},", r.samples);
    let _ = writeln!(s, "  \"B\": {},", r.b);
    let _ = writeln!(s, "  \"jobs\": {},", r.jobs);
    let _ = writeln!(s, "  \"disabled_secs\": {:.6},", r.disabled_secs);
    let _ = writeln!(s, "  \"armed_zero_secs\": {:.6},", r.armed_zero_secs);
    let _ = writeln!(
        s,
        "  \"armed_zero_overhead_pct\": {:.3},",
        r.armed_zero_overhead_pct()
    );
    let _ = writeln!(s, "  \"soak_secs\": {:.6},", r.soak_secs);
    let _ = writeln!(s, "  \"soak_retries\": {},", r.soak_retries);
    let _ = writeln!(s, "  \"soak_faults\": [");
    for (i, (class, checked, fired)) in r.soak_report.iter().enumerate() {
        let comma = if i + 1 < r.soak_report.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"class\": \"{class}\", \"checked\": {checked}, \"fired\": {fired}}}{comma}"
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// One roster size of the cluster benchmark: the same job set through a
/// coordinator daemon sharding over `daemons - 1` live TCP peers (or running
/// purely locally when `daemons == 1`).
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// Roster size: the coordinator plus its peers.
    pub daemons: usize,
    /// Wall-clock seconds for all jobs to finish.
    pub wall_secs: f64,
    /// Throughput, `jobs / wall_secs`.
    pub jobs_per_sec: f64,
    /// Total kernel seconds across the roster (local + peer-reported), summed
    /// over all jobs.
    pub kernel_total_secs: f64,
    /// Critical-path kernel seconds under the balanced `span_plan` split:
    /// `kernel_total_secs / daemons`.
    pub kernel_critical_secs: f64,
    /// Kernel speedup over the one-daemon baseline:
    /// `baseline_kernel_secs * jobs / kernel_critical_secs`.
    pub kernel_speedup: f64,
    /// Share of wall time not spent in any kernel — framing, dataset
    /// re-reads, validation, merging, scheduling: `(wall - kernel_total) /
    /// wall`, floored at zero.
    pub comm_overhead_share: f64,
    /// Spans computed by the coordinator itself, across all jobs.
    pub spans_local: u64,
    /// Spans computed on peers, across all jobs.
    pub spans_remote: u64,
    /// Request bytes on the wire, across all jobs.
    pub bytes_sent: u64,
    /// Response bytes on the wire, across all jobs.
    pub bytes_received: u64,
}

/// The cross-daemon sharding benchmark: jobs/sec and critical-path kernel
/// speedup at each roster size, against a serial kernel baseline and a
/// single process granted the same total thread count.
#[derive(Debug, Clone)]
pub struct ClusterBench {
    /// Dataset shape.
    pub genes: usize,
    /// Samples per gene.
    pub samples: usize,
    /// Permutations per job.
    pub b: u64,
    /// Jobs per roster size.
    pub jobs: usize,
    /// Serial engine kernel seconds for one job (`prepare` excluded) — the
    /// `K_1` of the critical-path model.
    pub baseline_kernel_secs: f64,
    /// Wall seconds for the same job set through one process whose engine is
    /// granted `threads == max(daemons)` — the equal-total-threads
    /// comparison row.
    pub single_process_wall_secs: f64,
    /// Threads granted to the single-process comparison run.
    pub single_process_threads: usize,
    /// One row per roster size.
    pub rows: Vec<ClusterRow>,
}

/// Run the cluster benchmark: for each roster size in `daemon_counts`, spawn
/// `n - 1` real peer daemons on ephemeral localhost TCP ports, shard `jobs`
/// distinct submissions across the roster, and read the kernel/wire
/// telemetry back from the coordinator's comm counters.
///
/// Speedup is reported under the **critical-path kernel model**: every
/// participant reports the seconds its spans spent inside
/// `accumulate_chunk`, and `span_plan` splits `0..B` into balanced
/// contiguous ranges, so a roster of `n` daemons on `n` cores would finish
/// the kernel work in `kernel_total / n` seconds. On a machine with fewer
/// cores than daemons the *wall* row shows serialization (every daemon
/// shares one CPU), while the kernel rows measure what the sharding actually
/// achieves: each participant only computes `1/n`-th of the permutations.
pub fn cluster_bench(
    genes: usize,
    samples: usize,
    b: u64,
    jobs: usize,
    daemon_counts: &[usize],
) -> ClusterBench {
    use microarray::io::write_dataset;
    use sprint_core::maxt::MaxTContext;
    use sprint_jobd::client::Client;
    use sprint_jobd::json::Json;
    use sprint_jobd::{JobManager, JobSpec, ManagerConfig, Server};
    use std::time::Instant;

    let n0 = samples / 2;
    let ds = SynthConfig::two_class(genes, n0, samples - n0)
        .diff_fraction(0.05)
        .seed(7)
        .generate();
    let dir = std::env::temp_dir().join(format!("sprint-cluster-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let dataset = dir.join("dataset.tsv");
    write_dataset(&dataset, &ds.matrix, &ds.labels).expect("write dataset");

    let opts_for = |seed: u64| PmaxtOptions::default().permutations(b).seed(seed);

    // K_1: the serial kernel over the full range, prepare excluded — exactly
    // the work a one-daemon roster performs per job.
    let baseline_kernel_secs = {
        let opts = opts_for(1);
        let (labels, b_res, prepared) =
            prepare_run(&ds.matrix, &ds.labels, &opts).expect("valid workload");
        let ctx = MaxTContext::with_scorer(
            &prepared,
            &labels,
            opts.test,
            opts.side,
            opts.kernel,
            opts.precision,
        );
        let t0 = Instant::now();
        engine::accumulate_chunk(
            &ctx,
            &labels,
            &opts,
            b_res,
            0,
            b_res,
            EngineConfig::explicit(1, 0),
        )
        .expect("engine run");
        t0.elapsed().as_secs_f64()
    };

    let max_daemons = daemon_counts.iter().copied().max().unwrap_or(1);
    // Enough spans that every roster member gets several, so reassignment
    // and pipelining are exercised without drowning the run in framing.
    let span = (b / (2 * max_daemons as u64).max(2)).max(1);
    let mgr_cfg = |peers: Vec<String>| ManagerConfig {
        workers: 1,
        span,
        job_threads: 1,
        cache_dir: None,
        peers,
        ..ManagerConfig::default()
    };
    let spec = |seed: u64| JobSpec {
        data: ds.matrix.clone(),
        classlabel: ds.labels.clone(),
        opts: opts_for(seed),
        source_path: Some(dataset.clone()),
    };
    let shutdown = |addr: &str| {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.request(&Json::obj(vec![("cmd", Json::str("shutdown"))]));
        }
    };

    let mut rows = Vec::new();
    for &n in daemon_counts {
        let peers: Vec<String> = (1..n)
            .map(|_| {
                let server = Server::bind(
                    "127.0.0.1:0",
                    JobManager::new(mgr_cfg(Vec::new())).expect("peer manager"),
                )
                .expect("peer bind");
                let addr = server.local_addr().to_addr_string();
                std::thread::spawn(move || server.run());
                addr
            })
            .collect();
        let mgr = JobManager::new(mgr_cfg(peers.clone())).expect("coordinator");

        let t0 = Instant::now();
        let ids: Vec<u64> = (0..jobs)
            .map(|j| mgr.submit(spec(j as u64 + 1)).expect("submit").id)
            .collect();
        for id in &ids {
            mgr.wait_result(*id, None).expect("result");
        }
        let wall_secs = t0.elapsed().as_secs_f64();

        let mut kernel_total_secs = 0.0;
        let (mut spans_local, mut spans_remote) = (0u64, 0u64);
        let (mut bytes_sent, mut bytes_received) = (0u64, 0u64);
        for id in &ids {
            match mgr.status(*id).expect("status").comm {
                Some(c) => {
                    kernel_total_secs +=
                        (c.kernel_local_micros + c.kernel_remote_micros) as f64 / 1e6;
                    spans_local += c.spans_local;
                    spans_remote += c.spans_remote;
                    bytes_sent += c.bytes_sent;
                    bytes_received += c.bytes_received;
                }
                // A one-daemon roster runs the plain local path; its kernel
                // work is the measured serial baseline by definition.
                None => kernel_total_secs += baseline_kernel_secs,
            }
        }
        drop(mgr);
        for addr in &peers {
            shutdown(addr);
        }

        let kernel_critical_secs = kernel_total_secs / n as f64;
        rows.push(ClusterRow {
            daemons: n,
            wall_secs,
            jobs_per_sec: jobs as f64 / wall_secs.max(f64::EPSILON),
            kernel_total_secs,
            kernel_critical_secs,
            kernel_speedup: baseline_kernel_secs * jobs as f64
                / kernel_critical_secs.max(f64::EPSILON),
            comm_overhead_share: ((wall_secs - kernel_total_secs) / wall_secs.max(f64::EPSILON))
                .max(0.0),
            spans_local,
            spans_remote,
            bytes_sent,
            bytes_received,
        });
    }

    // The equal-total-threads comparison: one process, one worker, engine
    // threads equal to the largest roster benchmarked.
    let single_process_wall_secs = {
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span,
            job_threads: max_daemons,
            cache_dir: None,
            ..ManagerConfig::default()
        })
        .expect("single-process manager");
        let t0 = Instant::now();
        let ids: Vec<u64> = (0..jobs)
            .map(|j| {
                let mut s = spec(j as u64 + 1);
                s.source_path = None;
                mgr.submit(s).expect("submit").id
            })
            .collect();
        for id in &ids {
            mgr.wait_result(*id, None).expect("result");
        }
        t0.elapsed().as_secs_f64()
    };

    let _ = std::fs::remove_dir_all(&dir);
    ClusterBench {
        genes,
        samples,
        b,
        jobs,
        baseline_kernel_secs,
        single_process_wall_secs,
        single_process_threads: max_daemons,
        rows,
    }
}

/// Adaptive-vs-exact comparison on one workload: wall time, the scored
/// gene-permutation budget, and per-gene p-value agreement between the
/// adaptive bounds and the exact run.
#[derive(Debug, Clone)]
pub struct AdaptiveBench {
    /// Dataset shape.
    pub genes: usize,
    /// Samples per gene.
    pub samples: usize,
    /// Permutations of both runs.
    pub b: u64,
    /// Wall seconds of the exact serial reference (`mt_maxt`).
    pub exact_secs: f64,
    /// Wall seconds of the adaptive run.
    pub adaptive_secs: f64,
    /// Gene-permutations exact mode scores (`genes × B`).
    pub gene_perms_exact: u64,
    /// Gene-permutations the adaptive run actually scored.
    pub gene_perms_scored: u64,
    /// Genes deactivated before the end of the run.
    pub genes_stopped: usize,
    /// Exact-prefix watermark cursor of the adaptive run.
    pub watermark: u64,
    /// Genes that received a GPD tail fit.
    pub tail_fitted: usize,
    /// Whether the mass-deactivation diagnostic fired.
    pub mass_deactivation: bool,
    /// Genes with a computable exact raw p-value.
    pub comparable: usize,
    /// Genes whose deterministic envelope failed to contain the exact raw
    /// p-value. The envelope is a certainty, not a confidence statement, so
    /// anything other than zero is an implementation bug.
    pub bound_violations: usize,
    /// Mean `p_upper − p_lower` over comparable genes.
    pub mean_bound_width: f64,
    /// Widest envelope over comparable genes.
    pub max_bound_width: f64,
    /// `max |p_point − exact rawp|` over comparable genes.
    pub max_point_abs_err: f64,
    /// Per-gene agreement rows for the most significant genes.
    pub top_genes: Vec<AdaptiveGeneRow>,
}

impl AdaptiveBench {
    /// Fraction of exact mode's gene-permutations the adaptive run scored.
    pub fn budget_fraction(&self) -> f64 {
        self.gene_perms_scored as f64 / self.gene_perms_exact as f64
    }
}

/// One gene's adaptive-vs-exact agreement row.
#[derive(Debug, Clone)]
pub struct AdaptiveGeneRow {
    /// Gene index.
    pub gene: usize,
    /// Exact raw p-value (`NaN` for non-computable genes).
    pub exact_rawp: f64,
    /// Deterministic lower bound from the adaptive run.
    pub p_lower: f64,
    /// Deterministic upper bound.
    pub p_upper: f64,
    /// Adaptive point estimate.
    pub p_point: f64,
    /// Permutations the adaptive run scored for this gene.
    pub scored: u64,
    /// Deactivation cursor, if the gene stopped early.
    pub stopped_at: Option<u64>,
    /// GPD tail p-value, if a fit exists for this gene.
    pub tail_p: Option<f64>,
}

/// Run the exact serial reference and the adaptive runner on the same
/// workload and tabulate the agreement. Every envelope is checked against
/// the exact raw p-value; the returned `bound_violations` must be zero.
pub fn adaptive_bench(genes: usize, samples: usize, b: u64, top: usize) -> AdaptiveBench {
    use sprint_core::adaptive::{adaptive_maxt, AdaptiveConfig};
    use sprint_core::maxt::serial::mt_maxt;
    use std::time::Instant;
    let n0 = samples / 2;
    let ds = SynthConfig::two_class(genes, n0, samples - n0)
        .diff_fraction(0.05)
        .seed(11)
        .generate();
    let opts = PmaxtOptions::default().permutations(b);

    let t0 = Instant::now();
    let exact = mt_maxt(&ds.matrix, &ds.labels, &opts).expect("exact run");
    let exact_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let out = adaptive_maxt(&ds.matrix, &ds.labels, &opts, &AdaptiveConfig::default())
        .expect("adaptive run");
    let adaptive_secs = t0.elapsed().as_secs_f64();
    let r = &out.report;

    let mut comparable = 0usize;
    let mut bound_violations = 0usize;
    let mut width_sum = 0.0f64;
    let mut max_bound_width = 0.0f64;
    let mut max_point_abs_err = 0.0f64;
    for g in 0..genes {
        if exact.rawp[g].is_nan() {
            continue;
        }
        comparable += 1;
        let (lo, hi) = (r.p_lower[g], r.p_upper[g]);
        if !(lo <= exact.rawp[g] + 1e-12 && exact.rawp[g] <= hi + 1e-12) {
            bound_violations += 1;
        }
        let width = hi - lo;
        width_sum += width;
        max_bound_width = max_bound_width.max(width);
        max_point_abs_err = max_point_abs_err.max((r.p_point[g] - exact.rawp[g]).abs());
    }

    let top_genes = exact
        .by_significance()
        .take(top)
        .map(|row| {
            let g = row.index;
            AdaptiveGeneRow {
                gene: g,
                exact_rawp: exact.rawp[g],
                p_lower: r.p_lower[g],
                p_upper: r.p_upper[g],
                p_point: r.p_point[g],
                scored: r.scored[g],
                stopped_at: r.stopped_at[g],
                tail_p: r.tail[g].as_ref().map(|f| f.p_tail),
            }
        })
        .collect();

    AdaptiveBench {
        genes,
        samples,
        b,
        exact_secs,
        adaptive_secs,
        gene_perms_exact: r.gene_perms_exact,
        gene_perms_scored: r.gene_perms_scored,
        genes_stopped: r.genes_stopped(),
        watermark: r.watermark,
        tail_fitted: r.tail.iter().filter(|t| t.is_some()).count(),
        mass_deactivation: r.mass_deactivation,
        comparable,
        bound_violations,
        mean_bound_width: width_sum / comparable.max(1) as f64,
        max_bound_width,
        max_point_abs_err,
        top_genes,
    }
}

/// Serialize the adaptive benchmark as JSON (hand-rolled — no serde in the
/// workspace). `NaN` encodes as `null`.
pub fn adaptive_bench_to_json(r: &AdaptiveBench) -> String {
    use std::fmt::Write as _;
    let num = |v: f64| -> String {
        if v.is_finite() {
            format!("{v:.6}")
        } else {
            "null".into()
        }
    };
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"adaptive early stopping vs the exact serial reference on \
         the same workload: gene_perms_scored counts the permutations the \
         adaptive run actually paid for (main run + GPD tail pass) against the \
         genes x B an exact run scores; bound_violations counts genes whose \
         deterministic envelope missed the exact raw p-value and must be 0; \
         top_genes lists per-gene agreement for the most significant genes\","
    );
    let _ = writeln!(s, "  \"genes\": {},", r.genes);
    let _ = writeln!(s, "  \"samples\": {},", r.samples);
    let _ = writeln!(s, "  \"B\": {},", r.b);
    let _ = writeln!(s, "  \"exact_secs\": {:.6},", r.exact_secs);
    let _ = writeln!(s, "  \"adaptive_secs\": {:.6},", r.adaptive_secs);
    let _ = writeln!(s, "  \"gene_perms_exact\": {},", r.gene_perms_exact);
    let _ = writeln!(s, "  \"gene_perms_scored\": {},", r.gene_perms_scored);
    let _ = writeln!(s, "  \"budget_fraction\": {:.6},", r.budget_fraction());
    let _ = writeln!(s, "  \"genes_stopped\": {},", r.genes_stopped);
    let _ = writeln!(s, "  \"watermark\": {},", r.watermark);
    let _ = writeln!(s, "  \"tail_fitted\": {},", r.tail_fitted);
    let _ = writeln!(s, "  \"mass_deactivation\": {},", r.mass_deactivation);
    let _ = writeln!(s, "  \"comparable_genes\": {},", r.comparable);
    let _ = writeln!(s, "  \"bound_violations\": {},", r.bound_violations);
    let _ = writeln!(s, "  \"mean_bound_width\": {},", num(r.mean_bound_width));
    let _ = writeln!(s, "  \"max_bound_width\": {},", num(r.max_bound_width));
    let _ = writeln!(s, "  \"max_point_abs_err\": {},", num(r.max_point_abs_err));
    let _ = writeln!(s, "  \"top_genes\": [");
    for (i, g) in r.top_genes.iter().enumerate() {
        let comma = if i + 1 < r.top_genes.len() { "," } else { "" };
        let stopped = g
            .stopped_at
            .map(|c| c.to_string())
            .unwrap_or_else(|| "null".into());
        let tail = g
            .tail_p
            .map(|p| format!("{p:.6e}"))
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            s,
            "    {{\"gene\": {}, \"exact_rawp\": {}, \"p_lower\": {}, \
             \"p_upper\": {}, \"p_point\": {}, \"scored\": {}, \
             \"stopped_at\": {}, \"tail_p\": {}}}{}",
            g.gene,
            num(g.exact_rawp),
            num(g.p_lower),
            num(g.p_upper),
            num(g.p_point),
            g.scored,
            stopped,
            tail,
            comma
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// Serialize the cluster benchmark as JSON.
pub fn cluster_bench_to_json(r: &ClusterBench) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"cross-daemon sharding over localhost TCP, critical-path \
         kernel model: every participant reports seconds spent inside \
         accumulate_chunk, span_plan splits 0..B evenly, so kernel_critical = \
         kernel_total / daemons is the roster's kernel time on one core per \
         daemon. kernel_speedup = baseline_kernel * jobs / kernel_critical. \
         Wall rows serialize on this machine's cores and carry framing, \
         per-span dataset re-reads and merging; their share is \
         comm_overhead_share. single_process_wall_secs runs the same jobs in \
         one process granted threads equal to the largest roster.\","
    );
    let _ = writeln!(s, "  \"genes\": {},", r.genes);
    let _ = writeln!(s, "  \"samples\": {},", r.samples);
    let _ = writeln!(s, "  \"B\": {},", r.b);
    let _ = writeln!(s, "  \"jobs\": {},", r.jobs);
    let _ = writeln!(
        s,
        "  \"baseline_kernel_secs\": {:.6},",
        r.baseline_kernel_secs
    );
    let _ = writeln!(
        s,
        "  \"single_process_threads\": {},",
        r.single_process_threads
    );
    let _ = writeln!(
        s,
        "  \"single_process_wall_secs\": {:.6},",
        r.single_process_wall_secs
    );
    let _ = writeln!(s, "  \"rows\": [");
    for (i, row) in r.rows.iter().enumerate() {
        let comma = if i + 1 < r.rows.len() { "," } else { "" };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"daemons\": {},", row.daemons);
        let _ = writeln!(s, "      \"wall_secs\": {:.6},", row.wall_secs);
        let _ = writeln!(s, "      \"jobs_per_sec\": {:.3},", row.jobs_per_sec);
        let _ = writeln!(
            s,
            "      \"kernel_total_secs\": {:.6},",
            row.kernel_total_secs
        );
        let _ = writeln!(
            s,
            "      \"kernel_critical_secs\": {:.6},",
            row.kernel_critical_secs
        );
        let _ = writeln!(s, "      \"kernel_speedup\": {:.3},", row.kernel_speedup);
        let _ = writeln!(
            s,
            "      \"comm_overhead_share\": {:.3},",
            row.comm_overhead_share
        );
        let _ = writeln!(s, "      \"spans_local\": {},", row.spans_local);
        let _ = writeln!(s, "      \"spans_remote\": {},", row.spans_remote);
        let _ = writeln!(s, "      \"bytes_sent\": {},", row.bytes_sent);
        let _ = writeln!(s, "      \"bytes_received\": {}", row.bytes_received);
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// One driver of the bootstrap benchmark: the same workload through the
/// serial reference, the in-process run with gene tiles spread over worker
/// threads, or a 2-daemon gene-sharded roster over localhost TCP.
#[derive(Debug, Clone)]
pub struct BootModeRow {
    /// `"serial"`, `"threaded"`, or `"sharded"`.
    pub mode: &'static str,
    /// Engine threads granted to each participant.
    pub threads: usize,
    /// Roster size (1 except for the sharded row).
    pub daemons: usize,
    /// Wall-clock seconds, submit to merged result.
    pub wall_secs: f64,
    /// `serial_wall / wall` — 1.0 by definition for the serial row.
    pub speedup: f64,
}

/// One replicate-count point of the CI-width curve: how fast the percentile
/// and BCa intervals tighten as `B` grows on the reference workload.
#[derive(Debug, Clone)]
pub struct BootCiRow {
    /// Requested `B` (replicates drawn is `B − 1`).
    pub b: u64,
    /// Replicates actually drawn.
    pub replicates: u64,
    /// Wall seconds of the (threaded) run at this `B`.
    pub wall_secs: f64,
    /// Mean percentile-interval width over genes with finite bounds.
    pub mean_pct_width: f64,
    /// Mean BCa-interval width over genes with finite bounds.
    pub mean_bca_width: f64,
    /// Widest percentile interval.
    pub max_pct_width: f64,
    /// Widest BCa interval.
    pub max_bca_width: f64,
}

/// The bootstrap workload benchmark: serial vs threaded vs 2-daemon sharded
/// wall times on one `B`, plus the CI-width-vs-replicates curve. All three
/// drivers must agree bitwise — `bitwise_identical` is an acceptance gate,
/// not a statistic.
#[derive(Debug, Clone)]
pub struct BootBench {
    /// Dataset shape.
    pub genes: usize,
    /// Samples per gene.
    pub samples: usize,
    /// `B` of the three timed runs.
    pub b: u64,
    /// Replicates drawn by the timed runs (`B − 1`).
    pub replicates: u64,
    /// Threads granted to the threaded row.
    pub threads: usize,
    /// Whether threaded and sharded results equal the serial reference
    /// bit-for-bit (they must).
    pub bitwise_identical: bool,
    /// One row per driver.
    pub rows: Vec<BootModeRow>,
    /// CI width at each requested replicate count.
    pub ci: Vec<BootCiRow>,
}

/// Run the bootstrap benchmark: time `boot_run` serially (`threads = 1`),
/// with its gene tiles spread over `threads` worker threads, and as one job
/// sharded by gene band across a coordinator plus one real TCP peer daemon;
/// then sweep `ci_grid` replicate counts for the CI-width curve.
///
/// The three timed runs use the same seed and must produce bitwise-identical
/// estimates — the gene tiling and the gene-band shard merge are both
/// partition-invariant by construction, so any difference is a bug, and the
/// caller is expected to fail on `!bitwise_identical`.
pub fn boot_bench(
    genes: usize,
    samples: usize,
    b: u64,
    threads: usize,
    ci_grid: &[u64],
) -> BootBench {
    use microarray::io::write_dataset;
    use sprint_core::boot::boot_run;
    use sprint_core::options::Workload;
    use sprint_jobd::client::Client;
    use sprint_jobd::json::Json;
    use sprint_jobd::{JobManager, JobSpec, ManagerConfig, Server};
    use std::time::Instant;

    let n0 = samples / 2;
    let ds = SynthConfig::two_class(genes, n0, samples - n0)
        .diff_fraction(0.05)
        .seed(7)
        .generate();
    let opts_at = |b: u64| {
        PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(b)
            .seed(5)
    };

    let t0 = Instant::now();
    let serial =
        boot_run(&ds.matrix, &ds.labels, &opts_at(b).threads(1)).expect("serial bootstrap");
    let serial_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let threaded =
        boot_run(&ds.matrix, &ds.labels, &opts_at(b).threads(threads)).expect("threaded bootstrap");
    let threaded_secs = t0.elapsed().as_secs_f64();

    // The sharded row needs the dataset on disk: peers re-read it from the
    // source path rather than receiving the matrix over the wire.
    let dir = std::env::temp_dir().join(format!("sprint-boot-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let dataset = dir.join("dataset.tsv");
    write_dataset(&dataset, &ds.matrix, &ds.labels).expect("write dataset");
    let mgr_cfg = |peers: Vec<String>| ManagerConfig {
        workers: 1,
        job_threads: 1,
        cache_dir: None,
        peers,
        ..ManagerConfig::default()
    };
    let peer = Server::bind(
        "127.0.0.1:0",
        JobManager::new(mgr_cfg(Vec::new())).expect("peer manager"),
    )
    .expect("peer bind");
    let peer_addr = peer.local_addr().to_addr_string();
    std::thread::spawn(move || peer.run());
    let mgr = JobManager::new(mgr_cfg(vec![peer_addr.clone()])).expect("coordinator");
    let t0 = Instant::now();
    let info = mgr
        .submit(JobSpec {
            data: ds.matrix.clone(),
            classlabel: ds.labels.clone(),
            opts: opts_at(b),
            source_path: Some(dataset.clone()),
        })
        .expect("submit bootstrap job");
    let sharded = mgr
        .wait_boot_result(info.id, None)
        .expect("sharded bootstrap");
    let sharded_secs = t0.elapsed().as_secs_f64();
    drop(mgr);
    if let Ok(mut c) = Client::connect(&peer_addr) {
        let _ = c.request(&Json::obj(vec![("cmd", Json::str("shutdown"))]));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let bitwise_identical = threaded == serial && sharded == serial;

    let mut ci = Vec::new();
    for &cb in ci_grid {
        let t0 = Instant::now();
        let r = boot_run(&ds.matrix, &ds.labels, &opts_at(cb).threads(threads))
            .expect("ci-curve bootstrap");
        let wall_secs = t0.elapsed().as_secs_f64();
        let (mut pct_sum, mut bca_sum) = (0.0f64, 0.0f64);
        let (mut pct_max, mut bca_max) = (0.0f64, 0.0f64);
        let mut counted = 0usize;
        for g in 0..r.genes() {
            let pw = r.pct_hi[g] - r.pct_lo[g];
            let bw = r.bca_hi[g] - r.bca_lo[g];
            if !pw.is_finite() || !bw.is_finite() {
                continue;
            }
            counted += 1;
            pct_sum += pw;
            bca_sum += bw;
            pct_max = pct_max.max(pw);
            bca_max = bca_max.max(bw);
        }
        ci.push(BootCiRow {
            b: cb,
            replicates: r.replicates,
            wall_secs,
            mean_pct_width: pct_sum / counted.max(1) as f64,
            mean_bca_width: bca_sum / counted.max(1) as f64,
            max_pct_width: pct_max,
            max_bca_width: bca_max,
        });
    }

    BootBench {
        genes,
        samples,
        b,
        replicates: serial.replicates,
        threads,
        bitwise_identical,
        rows: vec![
            BootModeRow {
                mode: "serial",
                threads: 1,
                daemons: 1,
                wall_secs: serial_secs,
                speedup: 1.0,
            },
            BootModeRow {
                mode: "threaded",
                threads,
                daemons: 1,
                wall_secs: threaded_secs,
                speedup: serial_secs / threaded_secs.max(f64::EPSILON),
            },
            BootModeRow {
                mode: "sharded",
                threads: 1,
                daemons: 2,
                wall_secs: sharded_secs,
                speedup: serial_secs / sharded_secs.max(f64::EPSILON),
            },
        ],
        ci,
    }
}

/// Serialize the bootstrap benchmark as JSON.
pub fn boot_bench_to_json(r: &BootBench) -> String {
    use std::fmt::Write as _;
    let num = |v: f64| -> String {
        if v.is_finite() {
            format!("{v:.6}")
        } else {
            "null".into()
        }
    };
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"note\": \"bootstrap workload through three drivers on the same \
         seed: serial = boot_run with one thread; threaded = boot_run with its \
         gene tiles spread over the worker threads; sharded = one job split by \
         gene band across a coordinator plus one real TCP peer daemon. All \
         three must agree bitwise \
         (bitwise_identical). The ci rows sweep replicate counts and report \
         percentile and BCa interval widths over genes with finite bounds — \
         widths shrink roughly as 1/sqrt(B).\","
    );
    let _ = writeln!(s, "  \"genes\": {},", r.genes);
    let _ = writeln!(s, "  \"samples\": {},", r.samples);
    let _ = writeln!(s, "  \"B\": {},", r.b);
    let _ = writeln!(s, "  \"replicates\": {},", r.replicates);
    let _ = writeln!(s, "  \"threads\": {},", r.threads);
    let _ = writeln!(s, "  \"bitwise_identical\": {},", r.bitwise_identical);
    let _ = writeln!(s, "  \"rows\": [");
    for (i, row) in r.rows.iter().enumerate() {
        let comma = if i + 1 < r.rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"daemons\": {}, \
             \"wall_secs\": {:.6}, \"speedup\": {:.3}}}{}",
            row.mode, row.threads, row.daemons, row.wall_secs, row.speedup, comma
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"ci\": [");
    for (i, row) in r.ci.iter().enumerate() {
        let comma = if i + 1 < r.ci.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"B\": {}, \"replicates\": {}, \"wall_secs\": {:.6}, \
             \"mean_pct_width\": {}, \"mean_bca_width\": {}, \
             \"max_pct_width\": {}, \"max_bca_width\": {}}}{}",
            row.b,
            row.replicates,
            row.wall_secs,
            num(row.mean_pct_width),
            num(row.mean_bca_width),
            num(row.max_pct_width),
            num(row.max_bca_width),
            comma
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_core::maxt::serial::mt_maxt;

    #[test]
    fn engine_threads_equal_serial() {
        let ds = SynthConfig::two_class(30, 5, 5).seed(1).generate();
        let opts = PmaxtOptions::default().permutations(50);
        let serial = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::explicit(threads, 0);
            let par = engine::maxt_with_config(&ds.matrix, &ds.labels, &opts, cfg).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn kernel_grid_produces_consistent_cells_and_json() {
        // Every method runs on the same 76-sample workload under its own
        // design; the grid itself asserts scalar/fast count identity.
        let mut results = Vec::new();
        for test in TestMethod::ALL {
            let cells = kernel_grid(&[20], &[30], test);
            assert_eq!(cells.len(), 1, "{test:?}");
            for c in &cells {
                assert_eq!(c.samples, 76);
                assert!(c.scalar_secs > 0.0 && c.fast_secs > 0.0);
                assert!(c.speedup().is_finite());
                assert!(c.throughput() > 0.0 && c.scalar_throughput() > 0.0);
                // throughput is speedup expressed as a rate ratio
                let ratio = c.throughput() / c.scalar_throughput();
                assert!((ratio - c.speedup()).abs() < 1e-9 * c.speedup());
            }
            results.push((test, cells));
        }
        let json = kernel_cells_to_json(&results);
        assert!(json.contains("\"tests\""));
        assert!(json.contains(&format!("\"fast_isa\": \"{}\"", fast_isa())));
        for test in TestMethod::ALL {
            assert!(json.contains(&format!("\"test\": \"{}\"", test.as_str())));
        }
        assert!(json.contains("\"genes\": 20"));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"fast_genes_b_per_sec\""));
        assert!(json.contains("\"scalar_genes_b_per_sec\""));
        assert_eq!(json.matches("{\"genes\"").count(), TestMethod::ALL.len());
    }

    #[test]
    fn thread_grid_cells_are_consistent_and_serialize() {
        let ds = SynthConfig::two_class(30, 5, 5).seed(3).generate();
        let opts = PmaxtOptions::default().permutations(64);
        let cells = thread_grid(&ds.matrix, &ds.labels, &opts, &[1, 2], &[1, 4], 8);
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert_eq!(c.b, 64);
            assert!(c.total_busy_secs > 0.0);
            assert!(c.critical_path_secs > 0.0);
            assert!(c.critical_path_secs <= c.total_busy_secs + 1e-12);
            // 1×1 has exactly one worker: critical path == total busy.
            if c.ranks == 1 && c.threads == 1 {
                assert!((c.critical_path_secs - c.total_busy_secs).abs() < 1e-12);
            }
        }
        let json = thread_cells_to_json(30, 10, &cells);
        assert!(json.contains("\"note\""));
        assert!(json.contains(&format!("\"fast_isa\": \"{}\"", fast_isa())));
        assert!(json.contains("\"ranks\": 2"));
        assert!(json.contains("\"speedup\""));
        assert_eq!(json.matches("{\"ranks\"").count(), 4);
    }

    #[test]
    fn faults_bench_runs_all_three_passes_and_serializes() {
        let r = faults_bench(20, 8, 64, 2);
        assert!(r.disabled_secs > 0.0 && r.armed_zero_secs > 0.0 && r.soak_secs > 0.0);
        // The soak registry must actually have drawn at its injection points.
        let drawn: u64 = r.soak_report.iter().map(|(_, checked, _)| checked).sum();
        assert!(drawn > 0, "soak pass made no fault draws");
        let json = faults_bench_to_json(&r);
        assert!(json.contains("\"armed_zero_overhead_pct\""));
        assert!(json.contains("\"class\": \"worker_panic\""));
        assert!(json.contains("\"soak_retries\""));
    }

    #[test]
    fn cluster_bench_rows_are_consistent_and_serialize() {
        let r = cluster_bench(24, 8, 64, 2, &[1, 2]);
        assert!(r.baseline_kernel_secs > 0.0);
        assert!(r.single_process_wall_secs > 0.0);
        assert_eq!(r.rows.len(), 2);
        let one = &r.rows[0];
        assert_eq!(one.daemons, 1);
        assert_eq!(one.spans_remote, 0, "one daemon has no peers");
        assert!(
            (one.kernel_speedup - 1.0).abs() < 1e-9,
            "N=1 is the baseline"
        );
        let two = &r.rows[1];
        assert_eq!(two.daemons, 2);
        assert!(
            two.spans_remote >= 1,
            "two daemons must ship spans over TCP"
        );
        assert!(two.bytes_sent > 0 && two.bytes_received > 0);
        assert!(
            two.kernel_critical_secs < two.kernel_total_secs,
            "critical path shrinks with roster size"
        );
        assert!(two.comm_overhead_share >= 0.0 && two.comm_overhead_share <= 1.0);
        let json = cluster_bench_to_json(&r);
        assert!(json.contains("\"kernel_speedup\""));
        assert!(json.contains("\"comm_overhead_share\""));
        assert!(json.contains("\"single_process_wall_secs\""));
        assert_eq!(json.matches("\"daemons\"").count(), 2);
    }

    #[test]
    fn adaptive_bench_agrees_with_exact_and_serializes() {
        let r = adaptive_bench(120, 20, 800, 8);
        assert_eq!(r.bound_violations, 0, "envelope must contain exact rawp");
        assert!(r.comparable > 0);
        assert!(r.gene_perms_scored < r.gene_perms_exact);
        assert!(r.genes_stopped > 0);
        assert_eq!(r.top_genes.len(), 8);
        let json = adaptive_bench_to_json(&r);
        assert!(json.contains("\"bound_violations\": 0"));
        assert!(json.contains("\"budget_fraction\""));
        assert!(json.contains("\"top_genes\""));
        assert_eq!(json.matches("{\"gene\"").count(), 8);
    }

    #[test]
    fn local_rows_produce_all_sections() {
        let ds = SynthConfig::two_class(40, 4, 4).seed(2).generate();
        let opts = PmaxtOptions::default().permutations(30);
        let rows = local_profile_rows(&ds.matrix, &ds.labels, &opts, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].sections[3] > 0.0, "kernel time measured");
        assert!(rows[0].total >= rows[0].sections[3]);
        let formatted = format_local_rows(&rows);
        assert!(formatted.contains("Kernel"));
        assert_eq!(formatted.lines().count(), 3);
    }
}
