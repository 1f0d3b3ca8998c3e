//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! make_tables table1|table2|table3|table4|table5   simulated profile tables
//! make_tables table6                               large-workload table (256 procs)
//! make_tables figure3                              speedup curves (CSV + ASCII)
//! make_tables compare                              model vs paper, per cell
//! make_tables whatif                               efficiency/crossover/network analysis
//! make_tables local [GENES] [B] [MAXPROCS]         real run on this machine
//! make_tables kernel [OUT.json] [--quick]                    scalar vs fast kernel grid
//! make_tables threads [OUT.json]                   hybrid ranks x threads grid
//! make_tables serve [JOBS] [B] [OUT.json]          jobd throughput + cache latency
//! make_tables faults [JOBS] [B] [OUT.json]         fault-hook overhead + soak recovery
//! make_tables cluster [JOBS] [B] [OUT.json]        cross-daemon sharding over TCP
//! make_tables adaptive [B] [--quick]               adaptive early stopping vs exact
//! make_tables bootstrap [B] [--quick]              bootstrap CIs: serial/threaded/sharded
//! make_tables all                                  everything above
//! ```
//!
//! Every JSON-writing subcommand also accepts `--out PATH`, which overrides
//! both the positional OUT form and the `BENCH_*.json` default (the default
//! silently overwrites any committed file of the same name). Every emitted
//! document carries a `schema_version` / `subcommand` / `options` provenance
//! header ([`sprint_bench::stamp_bench_json`]).

use cluster_sim::platform::{ec2, ecdf, hector, ness, quadcore, PlatformSpec};
use cluster_sim::{compare, figure, tables, whatif};
use microarray::prelude::SynthConfig;
use sprint_bench::{
    format_local_rows, kernel_cells_to_json, kernel_grid, local_profile_rows, stamp_bench_json,
    thread_cells_to_json, thread_grid,
};
use sprint_core::options::{PmaxtOptions, TestMethod};

fn platform_table(plat: &PlatformSpec, label: &str) {
    println!(
        "=== {label} (simulated {}; reference workload 6102x76, B=150000) ===",
        plat.name
    );
    print!("{}", tables::profile_table(plat));
    println!();
}

fn run_table6() {
    println!("=== Table VI (simulated HECToR, 256 processes) ===");
    let rows = tables::table6(&hector(), 256);
    print!("{}", tables::format_table6(&rows, 256));
    println!();
}

fn run_figure3() {
    println!("=== Figure 3: pmaxT speed-up on the various systems ===");
    let series = figure::figure3_series();
    print!("{}", figure::ascii_plot(&series, 72, 24));
    println!("--- CSV ---");
    print!("{}", figure::to_csv(&series));
    println!();
}

fn run_compare() {
    println!("=== Model vs paper (per published cell) ===");
    for (name, rows) in compare::compare_all() {
        print!("{}", compare::format_comparison(&name, &rows));
        println!();
    }
    println!("### Table VI");
    println!("| genes | B | total model (s) | total paper (s) | err |");
    println!("|---|---|---|---|---|");
    for c in compare::compare_table6() {
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.1}% |",
            c.genes,
            c.permutations,
            c.total_model,
            c.total_paper,
            100.0 * c.rel_error()
        );
    }
    println!();
}

fn run_whatif() {
    use cluster_sim::{simulate, Workload, REFERENCE};
    println!("=== What-if analysis (platform models) ===");
    println!("parallel efficiency at each platform's maximum process count:");
    for plat in [hector(), ecdf(), ec2(), ness(), quadcore()] {
        let p = *plat.proc_counts.last().unwrap();
        let eff = whatif::efficiency(&plat, REFERENCE, p);
        let half = whatif::max_procs_at_efficiency(&plat, REFERENCE, 0.5);
        println!(
            "  {:<12} {:>4} procs: {:>5.1}% efficient; >=50% efficiency up to {:>4} procs",
            plat.name,
            p,
            eff * 100.0,
            half
        );
    }
    println!();
    println!("desktop vs cloud crossover (6102 genes):");
    let quad = quadcore();
    let cloud = ec2();
    match whatif::crossover_permutations(&cloud, 32, &quad, 4, 6_102, 100, 1 << 22) {
        Some(b) => println!(
            "  32 EC2 processes overtake the quad-core desktop near B = {b}              (at B = {b}: EC2 {:.1} s vs desktop {:.1} s)",
            simulate(&cloud, Workload::new(6_102, b), 32).total(),
            simulate(&quad, Workload::new(6_102, b), 4).total()
        ),
        None => println!("  no crossover in range"),
    }
    println!();
    println!("EC2 network sensitivity (total time at 32 processes, reference workload):");
    for factor in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0] {
        let plat = whatif::with_network_scaled(&ec2(), factor);
        println!(
            "  network cost x{factor:<4}: {:>7.2} s",
            simulate(&plat, REFERENCE, 32).total()
        );
    }
    println!();
}

fn run_local(genes: usize, b: u64, max_procs: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== Local measured profile (this machine: {cores} core(s)) ===");
    println!(
        "workload: {genes} genes x 76 samples, B = {b}; ranks are threads, so \
         wall-clock speedup is bounded by the physical core count"
    );
    let ds = SynthConfig::two_class(genes, 38, 38)
        .diff_fraction(0.05)
        .seed(7)
        .generate();
    let opts = PmaxtOptions::default().permutations(b);
    let mut procs = vec![1usize];
    while *procs.last().unwrap() * 2 <= max_procs {
        procs.push(procs.last().unwrap() * 2);
    }
    let rows = local_profile_rows(&ds.matrix, &ds.labels, &opts, &procs);
    print!("{}", format_local_rows(&rows));
    println!();
}

fn run_kernel(out: Option<&str>, quick: bool) {
    println!("=== Scorer ablation: scalar vs sufficient-statistic fast scorer ===");
    println!("(serial accumulate loop, 76-sample workloads, NA-free, all six statistics)");
    // The 6102-gene row is the paper's reference workload shape; B is kept
    // moderate so the grid completes in seconds — per-permutation cost is
    // what's being compared, and it does not depend on B. `--quick` shrinks
    // the grid to one cell per statistic: a CI-sized smoke run whose only
    // claim is "every fast path actually beats scalar" (exit 1 otherwise).
    let (genes_grid, b_grid): (&[usize], &[u64]) = if quick {
        (&[600], &[200])
    } else {
        (&[600, 2_000, 6_102], &[200, 1_000])
    };
    let mut results = Vec::new();
    let mut regressions = Vec::new();
    for test in TestMethod::ALL {
        println!("\n--- test = {} ---", test.as_str());
        let cells = kernel_grid(genes_grid, b_grid, test);
        println!(
            "{:>6} {:>8} {:>6} {:>12} {:>12} {:>9} {:>14}",
            "genes", "samples", "B", "scalar(s)", "fast(s)", "speedup", "gene·perm/s"
        );
        for c in &cells {
            println!(
                "{:>6} {:>8} {:>6} {:>12.4} {:>12.4} {:>8.2}x {:>14.3e}",
                c.genes,
                c.samples,
                c.b,
                c.scalar_secs,
                c.fast_secs,
                c.speedup(),
                c.throughput()
            );
            if c.speedup() < 1.0 {
                regressions.push(format!(
                    "{} at {} genes, B={}: {:.2}x",
                    test.as_str(),
                    c.genes,
                    c.b,
                    c.speedup()
                ));
            }
        }
        results.push((test, cells));
    }
    if quick {
        if regressions.is_empty() {
            println!("\nquick gate: every fast path beats scalar");
        } else {
            eprintln!("\nquick gate FAILED — fast path slower than scalar:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        return;
    }
    let json = stamp_bench_json(
        &kernel_cells_to_json(&results),
        "kernel",
        &[("quick", quick.to_string())],
    );
    let path = out.unwrap_or("BENCH_kernel.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\ngrid written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn run_threads(out: Option<&str>) {
    println!("=== Hybrid scaling: simulated ranks x engine threads ===");
    println!(
        "(reference workload shape 6102x76; per-worker busy times measured in \
         isolation, wall-clock modelled as the critical path — see the JSON note)"
    );
    let ds = SynthConfig::two_class(6_102, 38, 38)
        .diff_fraction(0.05)
        .seed(7)
        .generate();
    // B is kept moderate: per-permutation cost is what the grid compares and
    // it does not depend on B, while 12 cells each process the full B.
    let opts = PmaxtOptions::default().permutations(2_000);
    let cells = thread_grid(&ds.matrix, &ds.labels, &opts, &[1, 2, 4], &[1, 2, 4, 8], 32);
    let baseline = cells
        .iter()
        .find(|c| c.ranks == 1 && c.threads == 1)
        .map_or(f64::NAN, |c| c.critical_path_secs);
    println!(
        "{:>6} {:>8} {:>6} {:>10} {:>14} {:>9}",
        "ranks", "threads", "B", "busy(s)", "critical(s)", "speedup"
    );
    for c in &cells {
        println!(
            "{:>6} {:>8} {:>6} {:>10.3} {:>14.3} {:>8.2}x",
            c.ranks,
            c.threads,
            c.b,
            c.total_busy_secs,
            c.critical_path_secs,
            baseline / c.critical_path_secs
        );
    }
    let json = stamp_bench_json(
        &thread_cells_to_json(ds.matrix.rows(), ds.matrix.cols(), &cells),
        "threads",
        &[("B", "2000".to_string())],
    );
    let path = out.unwrap_or("BENCH_threads.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\ngrid written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn run_serve(jobs: usize, b: u64, out: Option<&str>) {
    println!("=== jobd service: throughput, cache-hit latency, extension ===");
    println!(
        "(reference workload shape 6102x76; {jobs} distinct jobs at B = {b} \
         through a 2-worker pool, then the same requests as cache hits, then \
         one incremental extension to 3B/2)"
    );
    let r = sprint_bench::serve_bench(6_102, 76, b, jobs);
    println!(
        "  cold:   {jobs} jobs in {:>8.3} s  ({:.2} jobs/s)",
        r.cold_secs, r.jobs_per_sec
    );
    println!(
        "  hits:   {:>8.3} ms mean submit-to-result latency",
        r.hit_latency_secs * 1e3
    );
    println!(
        "  extend: B -> 3B/2 in {:>8.3} s  (fresh 3B/2 run: {:.3} s)",
        r.extend_secs, r.fresh_secs
    );
    let json = stamp_bench_json(
        &sprint_bench::serve_bench_to_json(&r),
        "serve",
        &[("jobs", jobs.to_string()), ("B", b.to_string())],
    );
    let path = out.unwrap_or("BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn run_faults(jobs: usize, b: u64, out: Option<&str>) {
    println!("=== fault injection: idle-hook overhead and soak recovery cost ===");
    println!(
        "(reference workload shape 6102x76; {jobs} jobs at B = {b}, run three \
         times: injection disabled, armed at probability zero, and a 3% \
         worker-fault soak with resubmit recovery)"
    );
    let r = sprint_bench::faults_bench(6_102, 76, b, jobs);
    println!("  disabled:   {:>8.3} s", r.disabled_secs);
    println!(
        "  armed zero: {:>8.3} s  ({:+.2}% vs disabled, target < 2%)",
        r.armed_zero_secs,
        r.armed_zero_overhead_pct()
    );
    println!(
        "  soak 3%:    {:>8.3} s  ({} resubmits)",
        r.soak_secs, r.soak_retries
    );
    for (class, checked, fired) in &r.soak_report {
        println!("    {class:>14}: {fired:>4} fired / {checked} drawn");
    }
    let json = stamp_bench_json(
        &sprint_bench::faults_bench_to_json(&r),
        "faults",
        &[("jobs", jobs.to_string()), ("B", b.to_string())],
    );
    let path = out.unwrap_or("BENCH_faults.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn run_recovery(jobs: usize, b: u64, out: Option<&str>) {
    println!("=== durability: accept-path cost per journal mode, replay scaling ===");
    println!(
        "(reference workload shape 6102x76; {jobs} distinct jobs at B = {b} \
         through a 2-worker pool under each durability mode, then cold journal \
         replays at growing record counts)"
    );
    let r = sprint_bench::recovery_bench(6_102, 76, b, jobs);
    for m in &r.modes {
        println!(
            "  {:>5}: {:>9.3} ms accept, {:>7.2} jobs/s  ({:+.2}% accept vs off)",
            m.mode,
            m.accept_secs * 1e3,
            m.jobs_per_sec,
            r.overhead_pct(&m.mode)
        );
    }
    println!(
        "  batch accept overhead: {:+.2}% (target <= 10%)",
        r.overhead_pct("batch")
    );
    for (n, secs) in &r.replay {
        println!("  replay {n:>6} records: {:>8.3} ms", secs * 1e3);
    }
    let json = stamp_bench_json(
        &sprint_bench::recovery_bench_to_json(&r),
        "recovery",
        &[("jobs", jobs.to_string()), ("B", b.to_string())],
    );
    let path = out.unwrap_or("BENCH_recovery.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn run_cluster(jobs: usize, b: u64, out: Option<&str>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== cross-daemon sharding: 1/2/4 daemons over localhost TCP ===");
    println!(
        "(reference workload shape 6102x76; {jobs} jobs at B = {b}; this machine \
         has {cores} core(s), so speedup is the critical-path *kernel* model: \
         each daemon computes 1/N of the permutations and reports its kernel \
         seconds — wall rows serialize on the shared CPU)"
    );
    let r = sprint_bench::cluster_bench(6_102, 76, b, jobs, &[1, 2, 4]);
    println!(
        "  serial kernel baseline: {:.3} s/job; single process with {} engine \
         threads: {:.3} s wall",
        r.baseline_kernel_secs, r.single_process_threads, r.single_process_wall_secs
    );
    println!(
        "{:>8} {:>9} {:>9} {:>11} {:>13} {:>9} {:>7} {:>13}",
        "daemons", "wall(s)", "jobs/s", "kernel(s)", "critical(s)", "speedup", "comm%", "spans l/r"
    );
    for row in &r.rows {
        println!(
            "{:>8} {:>9.3} {:>9.2} {:>11.3} {:>13.3} {:>8.2}x {:>6.1}% {:>8}/{}",
            row.daemons,
            row.wall_secs,
            row.jobs_per_sec,
            row.kernel_total_secs,
            row.kernel_critical_secs,
            row.kernel_speedup,
            row.comm_overhead_share * 100.0,
            row.spans_local,
            row.spans_remote,
        );
    }
    let json = stamp_bench_json(
        &sprint_bench::cluster_bench_to_json(&r),
        "cluster",
        &[("jobs", jobs.to_string()), ("B", b.to_string())],
    );
    let path = out.unwrap_or("BENCH_cluster.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn run_adaptive(b: u64, quick: bool, out: Option<&str>) {
    println!("=== adaptive early stopping vs the exact reference ===");
    println!(
        "(reference workload 6102x76 at B = {b}: exact scores genes x B \
         gene-permutations; adaptive deactivates certifiably-null genes under \
         an anytime-valid bound and reports deterministic p-value envelopes)"
    );
    let r = sprint_bench::adaptive_bench(6_102, 76, b, 20);
    println!(
        "  exact:    {:>8.3} s, {} gene-permutations",
        r.exact_secs, r.gene_perms_exact
    );
    println!(
        "  adaptive: {:>8.3} s, {} gene-permutations ({:.1}% of exact), \
         {} of {} genes stopped, watermark {}",
        r.adaptive_secs,
        r.gene_perms_scored,
        100.0 * r.budget_fraction(),
        r.genes_stopped,
        r.genes,
        r.watermark
    );
    println!(
        "  agreement: {} comparable genes, {} bound violations, mean envelope \
         width {:.5}, max {:.5}, max point error {:.5}, {} tail fits",
        r.comparable,
        r.bound_violations,
        r.mean_bound_width,
        r.max_bound_width,
        r.max_point_abs_err,
        r.tail_fitted
    );
    // The envelope is deterministic — a violation is an implementation bug,
    // so it fails the command in every mode, not just --quick.
    if r.bound_violations > 0 {
        eprintln!(
            "\nFAILED — {} gene(s) whose envelope missed the exact p-value",
            r.bound_violations
        );
        std::process::exit(1);
    }
    if quick {
        if r.gene_perms_scored >= r.gene_perms_exact {
            eprintln!(
                "\nquick gate FAILED — adaptive scored {} gene-permutations, \
                 exact scores {}",
                r.gene_perms_scored, r.gene_perms_exact
            );
            std::process::exit(1);
        }
        println!(
            "\nquick gate: adaptive scored {:.1}% of the exact budget with 0 \
             bound violations",
            100.0 * r.budget_fraction()
        );
        return;
    }
    let json = stamp_bench_json(
        &sprint_bench::adaptive_bench_to_json(&r),
        "adaptive",
        &[("B", b.to_string()), ("quick", quick.to_string())],
    );
    let path = out.unwrap_or("BENCH_adaptive.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn run_bootstrap(b: u64, quick: bool, out: Option<&str>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.clamp(2, 4);
    // `--quick` is the CI smoke gate: a small workload proving (a) the two
    // statistics this seam added still beat their scalar references, and
    // (b) the three bootstrap drivers agree bitwise. It writes no JSON.
    let (genes, b, ci_grid): (usize, u64, &[u64]) = if quick {
        (600, b.min(300), &[100, 300])
    } else {
        (6_102, b, &[200, 500, 1_000, 2_000])
    };
    println!("=== bootstrap CIs: serial vs threaded vs 2-daemon sharded ===");
    println!(
        "(workload {genes}x76 at B = {b}: percentile + BCa intervals per gene; \
         the threaded run uses {threads} engine threads, the sharded run splits \
         gene bands across a coordinator and one TCP peer; all three must \
         agree bitwise)"
    );
    let r = sprint_bench::boot_bench(genes, 76, b, threads, ci_grid);
    println!(
        "{:>9} {:>8} {:>8} {:>9} {:>9}",
        "mode", "threads", "daemons", "wall(s)", "speedup"
    );
    for row in &r.rows {
        println!(
            "{:>9} {:>8} {:>8} {:>9.3} {:>8.2}x",
            row.mode, row.threads, row.daemons, row.wall_secs, row.speedup
        );
    }
    println!(
        "{:>7} {:>11} {:>9} {:>15} {:>15}",
        "B", "replicates", "wall(s)", "mean pct width", "mean BCa width"
    );
    for row in &r.ci {
        println!(
            "{:>7} {:>11} {:>9.3} {:>15.5} {:>15.5}",
            row.b, row.replicates, row.wall_secs, row.mean_pct_width, row.mean_bca_width
        );
    }
    // Bitwise agreement across the three drivers is a correctness invariant,
    // not a statistic — fail in every mode, like adaptive bound violations.
    if !r.bitwise_identical {
        eprintln!("\nFAILED — threaded or sharded bootstrap differs from the serial reference");
        std::process::exit(1);
    }
    if quick {
        let mut regressions = Vec::new();
        for test in [TestMethod::Corr, TestMethod::TMax] {
            for c in kernel_grid(&[600], &[200], test) {
                if c.speedup() < 1.0 {
                    regressions.push(format!(
                        "{} at {} genes, B={}: {:.2}x",
                        test.as_str(),
                        c.genes,
                        c.b,
                        c.speedup()
                    ));
                }
            }
        }
        if regressions.is_empty() {
            println!(
                "\nquick gate: drivers agree bitwise and every fast path beats \
                 scalar (corr, tmax)"
            );
        } else {
            eprintln!("\nquick gate FAILED — fast path slower than scalar:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        return;
    }
    let json = stamp_bench_json(
        &sprint_bench::boot_bench_to_json(&r),
        "bootstrap",
        &[
            ("B", b.to_string()),
            ("threads", threads.to_string()),
            ("quick", quick.to_string()),
        ],
    );
    let path = out.unwrap_or("BENCH_boot.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

/// Pull `--out PATH` (the explicit output-path form shared by every
/// JSON-writing subcommand) out of the argument list, leaving the positional
/// forms untouched.
fn take_out_flag(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--out")?;
    if i + 1 >= args.len() {
        eprintln!("--out needs a value");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out_flag = take_out_flag(&mut args);
    let args = args;
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "table1" => platform_table(&hector(), "Table I"),
        "table2" => platform_table(&ecdf(), "Table II"),
        "table3" => platform_table(&ec2(), "Table III"),
        "table4" => platform_table(&ness(), "Table IV"),
        "table5" => platform_table(&quadcore(), "Table V"),
        "table6" => run_table6(),
        "figure3" => run_figure3(),
        "compare" => run_compare(),
        "whatif" => run_whatif(),
        "local" => {
            let genes = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(600);
            let b = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2_000);
            let maxp = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);
            run_local(genes, b, maxp);
        }
        "kernel" => {
            let quick = args.iter().any(|a| a == "--quick");
            let out = args[1..].iter().find(|a| !a.starts_with("--"));
            run_kernel(out_flag.as_deref().or(out.map(String::as_str)), quick);
        }
        "threads" => run_threads(out_flag.as_deref().or(args.get(1).map(String::as_str))),
        "serve" => {
            let jobs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
            let b = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);
            run_serve(
                jobs,
                b,
                out_flag.as_deref().or(args.get(3).map(String::as_str)),
            );
        }
        "faults" => {
            let jobs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
            let b = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);
            run_faults(
                jobs,
                b,
                out_flag.as_deref().or(args.get(3).map(String::as_str)),
            );
        }
        "recovery" => {
            let jobs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
            let b = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);
            run_recovery(
                jobs,
                b,
                out_flag.as_deref().or(args.get(3).map(String::as_str)),
            );
        }
        "cluster" => {
            let jobs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
            let b = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2_000);
            run_cluster(
                jobs,
                b,
                out_flag.as_deref().or(args.get(3).map(String::as_str)),
            );
        }
        "adaptive" => {
            let quick = args.iter().any(|a| a == "--quick");
            let b = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .and_then(|s| s.parse().ok())
                .unwrap_or(if quick { 500 } else { 5_000 });
            run_adaptive(b, quick, out_flag.as_deref());
        }
        "bootstrap" => {
            let quick = args.iter().any(|a| a == "--quick");
            let b = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .and_then(|s| s.parse().ok())
                .unwrap_or(if quick { 300 } else { 2_000 });
            run_bootstrap(b, quick, out_flag.as_deref());
        }
        "all" => {
            platform_table(&hector(), "Table I");
            platform_table(&ecdf(), "Table II");
            platform_table(&ec2(), "Table III");
            platform_table(&ness(), "Table IV");
            platform_table(&quadcore(), "Table V");
            run_table6();
            run_figure3();
            run_compare();
            run_whatif();
            run_local(600, 2_000, 4);
            run_kernel(None, false);
            run_threads(None);
            run_serve(4, 400, None);
            run_faults(4, 400, None);
            run_recovery(8, 400, None);
            run_adaptive(5_000, false, None);
            run_bootstrap(2_000, false, None);
        }
        other => {
            eprintln!("unknown command {other:?}");
            eprintln!("usage: make_tables [table1..table6|figure3|compare|whatif|local [GENES B MAXPROCS]|kernel [OUT.json] [--quick]|threads [OUT.json]|serve [JOBS B OUT.json]|faults [JOBS B OUT.json]|recovery [JOBS B OUT.json]|cluster [JOBS B OUT.json]|adaptive [B] [--quick]|bootstrap [B] [--quick]|all] [--out PATH]");
            std::process::exit(2);
        }
    }
}
