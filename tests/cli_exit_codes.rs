//! Exit-code contract of the `pmaxt` binary.
//!
//! The CLI promises distinct exit codes so batch schedulers and shell
//! scripts can tell misuse from infrastructure failure: `0` success, `1`
//! runtime failure (missing file, dead server), `2` usage error (bad flags
//! or option values), `3` the `ranks > B` resource-allocation rejection
//! from `chunk_for_rank`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pmaxt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmaxt"))
        .args(args)
        .env_remove("SPRINT_KERNEL")
        .env_remove("SPRINT_THREADS")
        .env_remove("SPRINT_BATCH")
        .output()
        .expect("spawn pmaxt")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pmaxt-exit-{}-{name}", std::process::id()))
}

fn generate(path: &std::path::Path, genes: &str) {
    let out = pmaxt(&[
        "generate",
        path.to_str().unwrap(),
        "--genes",
        genes,
        "--n0",
        "4",
        "--n1",
        "4",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
}

#[test]
fn no_subcommand_is_usage_error() {
    let out = pmaxt(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn unknown_flag_is_usage_error() {
    let out = pmaxt(&["run", "whatever.tsv", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_option_value_is_usage_error() {
    let out = pmaxt(&["run", "whatever.tsv", "--side", "sideways"]);
    assert_eq!(out.status.code(), Some(2));
    let out = pmaxt(&["run", "whatever.tsv", "--test", "anova9000"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_dataset_is_runtime_error() {
    let out = pmaxt(&["run", "/nonexistent/never/there.tsv", "-B", "10"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
}

#[test]
fn ranks_exceeding_permutations_is_exit_3() {
    let data = tmp("ranks.tsv");
    generate(&data, "10");
    let out = pmaxt(&["run", data.to_str().unwrap(), "-B", "3", "--ranks", "8"]);
    assert_eq!(out.status.code(), Some(3), "out: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("3") && stderr.contains("8"),
        "diagnostic should name both counts: {stderr}"
    );
    std::fs::remove_file(&data).ok();
}

#[test]
fn successful_run_is_exit_0() {
    let data = tmp("ok.tsv");
    generate(&data, "20");
    let out = pmaxt(&["run", data.to_str().unwrap(), "-B", "50", "--ranks", "2"]);
    assert_eq!(out.status.code(), Some(0), "out: {out:?}");
    std::fs::remove_file(&data).ok();
}

#[test]
fn invalid_kernel_env_warns_once_but_still_runs() {
    let data = tmp("env.tsv");
    generate(&data, "15");
    let out = Command::new(env!("CARGO_BIN_EXE_pmaxt"))
        .args(["run", data.to_str().unwrap(), "-B", "40"])
        .env("SPRINT_KERNEL", "warpdrive")
        .env_remove("SPRINT_THREADS")
        .env_remove("SPRINT_BATCH")
        .output()
        .expect("spawn pmaxt");
    assert_eq!(out.status.code(), Some(0), "out: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("SPRINT_KERNEL") && stderr.contains("warpdrive"),
        "expected a warning naming the bad value: {stderr}"
    );
    assert_eq!(
        stderr.matches("warpdrive").count(),
        1,
        "warning should be emitted once: {stderr}"
    );
    std::fs::remove_file(&data).ok();
}

#[test]
fn client_without_server_is_runtime_error() {
    let out = pmaxt(&["status", "unix:/nonexistent/jobd.sock", "1"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn client_missing_job_id_is_usage_error() {
    let out = pmaxt(&["status", "unix:/nonexistent/jobd.sock"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn perm_file_width_mismatch_is_usage_error() {
    let data = tmp("permwidth.tsv");
    generate(&data, "10"); // 4 + 4 samples → 8 columns
    let perms = tmp("permwidth-rows.txt");
    // Second arrangement is one label short: the StoredMatrix width check
    // must refuse it with a typed error → usage exit, naming the row.
    std::fs::write(&perms, "1 1 0 0 1 0 1 0\n0 1 1 0 1 0 1\n").unwrap();
    let out = pmaxt(&[
        "run",
        data.to_str().unwrap(),
        "--perm-file",
        perms.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "out: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("arrangement 1") && stderr.contains("8") && stderr.contains("7"),
        "diagnostic should name the row and both widths: {stderr}"
    );
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&perms).ok();
}

#[test]
fn perm_file_replay_runs_clean() {
    let data = tmp("permreplay.tsv");
    generate(&data, "10");
    let perms = tmp("permreplay-rows.txt");
    std::fs::write(
        &perms,
        "# two rearrangements of the 4 + 4 labelling\n1 1 0 0 1 0 1 0\n0 1 1 0 1 0 1 0\n",
    )
    .unwrap();
    let out = pmaxt(&[
        "run",
        data.to_str().unwrap(),
        "--perm-file",
        perms.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "out: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("replayed 3"),
        "identity + 2 file rows: {stderr}"
    );
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&perms).ok();
}

#[test]
fn perm_file_foreign_labelling_is_usage_error() {
    let data = tmp("permforeign.tsv");
    generate(&data, "10");
    let perms = tmp("permforeign-rows.txt");
    // Right width, wrong multiset (five 1s): not a rearrangement.
    std::fs::write(&perms, "1 1 1 1 1 0 0 0\n").unwrap();
    let out = pmaxt(&[
        "run",
        data.to_str().unwrap(),
        "--perm-file",
        perms.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "out: {out:?}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&perms).ok();
}

#[test]
fn bootstrap_workload_runs_and_minp_combo_is_usage_error() {
    let data = tmp("bootcli.tsv");
    generate(&data, "12");
    let out = pmaxt(&[
        "run",
        data.to_str().unwrap(),
        "--workload",
        "bootstrap",
        "-B",
        "200",
    ]);
    assert_eq!(out.status.code(), Some(0), "out: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("percentile CI") && stdout.contains("BCa CI"),
        "stdout: {stdout}"
    );
    let out = pmaxt(&[
        "run",
        data.to_str().unwrap(),
        "--workload",
        "bootstrap",
        "-B",
        "200",
        "--minp",
    ]);
    assert_eq!(out.status.code(), Some(2), "out: {out:?}");
    let out = pmaxt(&["run", data.to_str().unwrap(), "--workload", "jackknife"]);
    assert_eq!(out.status.code(), Some(2), "out: {out:?}");
    std::fs::remove_file(&data).ok();
}

#[test]
fn bootstrap_beyond_memory_budget_is_usage_error() {
    // A billion replicates cannot fit the 512 MiB bootstrap working set at
    // any thread count; the refusal comes before any draw is made and names
    // the largest B that would be accepted.
    let data = tmp("bootbudget.tsv");
    generate(&data, "12");
    let out = pmaxt(&[
        "run",
        data.to_str().unwrap(),
        "--workload",
        "bootstrap",
        "-B",
        "1000000000",
    ]);
    assert_eq!(out.status.code(), Some(2), "out: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("largest B accepted"), "stderr: {stderr}");
    std::fs::remove_file(&data).ok();
}
