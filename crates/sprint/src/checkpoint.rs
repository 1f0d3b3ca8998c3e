//! Checkpoint/restart for long permutation runs — the paper's future-work
//! item 1: "Better support for fault tolerance and checkpointing; … this may
//! be of increasing importance as life scientists wish to perform even more
//! tests on ever larger datasets."
//!
//! A checkpoint is the pair (permutation cursor, partial counts): because
//! every generator supports `skip`, resuming is exactly "forward the
//! generator to the cursor and keep counting". The final p-values are
//! **bit-identical** to an uninterrupted run — asserted by the tests.
//!
//! The file format is a self-describing text format with an input digest, so
//! a checkpoint can never be resumed against different data or options.

use std::io::{self, BufRead, Write};
use std::path::Path;

use sprint_core::admit::{admit, Entry};
use sprint_core::digest;
use sprint_core::error::{Error, Result};
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::ChunkHooks;
use sprint_core::maxt::{CountAccumulator, MaxTResult};
use sprint_core::options::PmaxtOptions;

/// A saved checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Digest of (data, labels, options) the run was started with.
    pub digest: u64,
    /// Next permutation index to process.
    pub cursor: u64,
    /// Total permutation count of the run.
    pub b: u64,
    /// Partial counts accumulated so far.
    pub counts: CountAccumulator,
}

/// Digest of the run inputs: every data bit, the labels and the
/// result-relevant option fields (see [`sprint_core::digest`]). Changing
/// anything that affects the result invalidates old checkpoints;
/// implementation selection (`threads`/`batch`/`kernel`) is canonicalized
/// away, because any configuration produces bit-identical counts — a run
/// checkpointed on 1 thread under one kernel may resume on 8 under another.
pub fn digest_run(data: &Matrix, labels: &[u8], opts: &PmaxtOptions) -> u64 {
    let mut h = digest::Fnv1a::new();
    h.write_u64(digest::dataset_digest(data, labels));
    h.write_u64(digest::options_digest(opts));
    h.finish()
}

/// Write a checkpoint atomically and crash-consistently: serialize in
/// memory, write a unique temporary sibling, fsync it, rename it over the
/// target, fsync the parent directory. A crash at any instant leaves either
/// the previous checkpoint or the new one — never a torn or empty file —
/// which is what lets the jobd recovery path trust every `.ckpt` it finds.
pub fn save(path: &Path, state: &CheckpointState) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(text, "pmaxt-checkpoint-v1");
    let _ = writeln!(text, "digest {}", state.digest);
    let _ = writeln!(text, "cursor {}", state.cursor);
    let _ = writeln!(text, "b {}", state.b);
    let _ = writeln!(text, "n_perm {}", state.counts.n_perm);
    let _ = writeln!(text, "genes {}", state.counts.genes());
    let _ = write!(text, "count_raw");
    for c in &state.counts.count_raw {
        let _ = write!(text, " {c}");
    }
    let _ = writeln!(text);
    let _ = write!(text, "count_adj");
    for c in &state.counts.count_adj {
        let _ = write!(text, " {c}");
    }
    let _ = writeln!(text);
    atomic_write(path, text.as_bytes())
}

/// Crash-consistent file replacement: unique tmp → fsync file → rename →
/// fsync parent dir. The job service routes its own persistent writes
/// through `jobd::storage::atomic_write`; that crate sits *above* this one,
/// so the checkpoint path carries its own copy of the sequence (identical
/// semantics, no fault-injection hooks).
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ckpt".to_string());
    let tmp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load a checkpoint; `Ok(None)` when the file does not exist.
///
/// Every writer keeps `cursor == n_perm <= b` and no count above `n_perm`,
/// so a file that breaks one of these is corrupt (`InvalidData`), even when
/// it parses and its digest matches: a resume from a wrong cursor would
/// silently count some permutations twice or skip them.
pub fn load(path: &Path) -> io::Result<Option<CheckpointState>> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = io::BufReader::new(file).lines();
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut next_line =
        || -> io::Result<String> { lines.next().ok_or_else(|| bad("truncated checkpoint"))? };
    if next_line()? != "pmaxt-checkpoint-v1" {
        return Err(bad("bad magic"));
    }
    let mut field = |name: &str| -> io::Result<String> {
        let line = next_line()?;
        line.strip_prefix(&format!("{name} "))
            .map(str::to_string)
            .ok_or_else(|| bad(&format!("expected field {name}")))
    };
    let parse_u64 =
        |s: &str| -> io::Result<u64> { s.parse().map_err(|_| bad(&format!("bad number {s:?}"))) };
    let digest = parse_u64(&field("digest")?)?;
    let cursor = parse_u64(&field("cursor")?)?;
    let b = parse_u64(&field("b")?)?;
    let n_perm = parse_u64(&field("n_perm")?)?;
    let genes = parse_u64(&field("genes")?)? as usize;
    let parse_counts = |line: String, tag: &str| -> io::Result<Vec<u64>> {
        let rest = line
            .strip_prefix(tag)
            .ok_or_else(|| bad(&format!("expected {tag}")))?;
        let v: Vec<u64> = rest
            .split_whitespace()
            .map(|t| t.parse::<u64>().map_err(|_| bad("bad count")))
            .collect::<io::Result<_>>()?;
        if v.len() != genes {
            return Err(bad("count length mismatch"));
        }
        Ok(v)
    };
    let count_raw = parse_counts(next_line()?, "count_raw")?;
    let count_adj = parse_counts(next_line()?, "count_adj")?;
    if cursor != n_perm {
        return Err(bad("cursor disagrees with n_perm"));
    }
    if cursor > b {
        return Err(bad("cursor beyond b"));
    }
    if count_raw.iter().chain(&count_adj).any(|&c| c > n_perm) {
        return Err(bad("count exceeds n_perm"));
    }
    Ok(Some(CheckpointState {
        digest,
        cursor,
        b,
        counts: CountAccumulator {
            count_raw,
            count_adj,
            n_perm,
        },
    }))
}

/// Outcome metadata of a checkpointed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// Cursor the session resumed from (0 for a fresh start).
    pub resumed_from: u64,
    /// Checkpoints written during the session.
    pub checkpoints_written: u64,
}

/// Run (or resume) a checkpointed serial permutation test.
///
/// Processes at most `session_limit` permutations if given, checkpointing to
/// `path` every `every` permutations. Returns `(None, info)` when the run is
/// incomplete (resume later with the same arguments) or `(Some(result),
/// info)` when finished — in which case the checkpoint file is removed.
///
/// Admission ([`sprint_core::admit`]) refuses what a resume could not
/// continue bit for bit — f32 accumulation, adaptive mode (either through
/// `SPRINT_PRECISION` / `SPRINT_MODE` too) and the bootstrap workload — and
/// stored arrangements beyond the memory budget.
pub fn run_with_checkpoints(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    path: &Path,
    every: u64,
    session_limit: Option<u64>,
) -> Result<(Option<MaxTResult>, SessionInfo)> {
    assert!(every > 0, "checkpoint interval must be positive");
    let adm = admit(data, classlabel, opts, Entry::Checkpoint)?;
    let (run, data) = (&adm.run, &*adm.data);
    let b = run.b;
    let digest = digest_run(data, classlabel, opts);
    let prepared = run.prepare(data);
    let ctx = run.context(&prepared);
    let mut acc = CountAccumulator::new(data.rows());
    let mut cursor = 0u64;

    let resumed_from = match load(path).map_err(|e| Error::Comm(e.to_string()))? {
        Some(state) if state.digest == digest && state.b == b => {
            cursor = state.cursor;
            acc = state.counts;
            state.cursor
        }
        Some(_) => {
            // Stale checkpoint for different inputs: start over.
            0
        }
        None => 0,
    };

    // Each inter-checkpoint span is one engine chunk of one stream, skipped
    // to the cursor once per session and kept across spans, so a plain
    // cursor is the whole resumable state — exactly what the checkpoint
    // stores.
    let mut stream = run.stream(cursor);
    let mut remaining_session = session_limit.unwrap_or(u64::MAX);
    let mut checkpoints_written = 0u64;
    while cursor < b && remaining_session > 0 {
        let take = every.min(b - cursor).min(remaining_session);
        let chunk = run.chunk(&ctx, &mut *stream, take, ChunkHooks::default())?;
        debug_assert_eq!(chunk.counts.n_perm, take, "chunk shorter than assigned");
        acc.merge(&chunk.counts);
        cursor += take;
        remaining_session -= take;
        let state = CheckpointState {
            digest,
            cursor,
            b,
            counts: acc.clone(),
        };
        save(path, &state).map_err(|e| Error::Comm(e.to_string()))?;
        checkpoints_written += 1;
    }

    let info = SessionInfo {
        resumed_from,
        checkpoints_written,
    };
    if cursor >= b {
        std::fs::remove_file(path).ok();
        Ok((Some(ctx.finalize(&acc)), info))
    } else {
        Ok((None, info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_core::maxt::serial::mt_maxt;
    use sprint_core::options::{Mode, Precision, Workload};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sprint-ckpt-{}-{name}", std::process::id()));
        p
    }

    fn data_and_labels() -> (Matrix, Vec<u8>) {
        let data = Matrix::from_vec(
            3,
            6,
            vec![
                1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 5.0, 4.0, 6.0, 5.5, 4.5, 5.2, 2.0, 8.0, 3.0, 7.0,
                2.5, 7.5,
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn uninterrupted_checkpointed_run_matches_mt_maxt() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default().permutations(50);
        let path = tmp("uninterrupted");
        let (result, info) = run_with_checkpoints(&data, &labels, &opts, &path, 7, None).unwrap();
        let direct = mt_maxt(&data, &labels, &opts).unwrap();
        assert_eq!(result.unwrap(), direct);
        assert_eq!(info.resumed_from, 0);
        assert_eq!(info.checkpoints_written, 8); // ceil(50/7)
        assert!(!path.exists(), "checkpoint removed after completion");
    }

    #[test]
    fn f32_precision_is_rejected_with_a_typed_usage_error() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default()
            .permutations(50)
            .precision(Precision::F32);
        let path = tmp("f32-rejected");
        let err = run_with_checkpoints(&data, &labels, &opts, &path, 7, None).unwrap_err();
        match err {
            Error::BadOption { param, .. } => assert_eq!(param, "precision"),
            other => panic!("expected BadOption, got {other:?}"),
        }
        assert!(!path.exists(), "rejected run must not create a checkpoint");
    }

    #[test]
    fn adaptive_mode_is_rejected_with_a_typed_usage_error() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default()
            .permutations(50)
            .mode(Mode::Adaptive);
        let path = tmp("adaptive-rejected");
        let err = run_with_checkpoints(&data, &labels, &opts, &path, 7, None).unwrap_err();
        match err {
            Error::BadOption { param, .. } => assert_eq!(param, "mode"),
            other => panic!("expected BadOption, got {other:?}"),
        }
        assert!(!path.exists(), "rejected run must not create a checkpoint");
    }

    #[test]
    fn bootstrap_workload_is_rejected_with_a_typed_usage_error() {
        // A checkpoint resumes permutation counts; a bootstrap run has none.
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default()
            .permutations(50)
            .workload(Workload::Bootstrap);
        let path = tmp("bootstrap-rejected");
        match run_with_checkpoints(&data, &labels, &opts, &path, 7, None) {
            Err(Error::BadOption { param, .. }) => assert_eq!(param, "workload"),
            other => panic!("expected BadOption, got {other:?}"),
        }
        assert!(!path.exists(), "rejected run must not create a checkpoint");
    }

    #[test]
    fn stored_sampling_at_a_huge_b_runs_and_checkpoints() {
        // Stored sampling draws its sequential stream on the fly, so no B is
        // too large for memory: a run of 2^40 permutations is admitted, and
        // two spans of it checkpoint as any run's do.
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default()
            .permutations(1 << 40)
            .fixed_seed_sampling("n")
            .unwrap();
        let path = tmp("stored-huge-b");
        let (partial, info) =
            run_with_checkpoints(&data, &labels, &opts, &path, 7, Some(14)).unwrap();
        assert!(partial.is_none());
        assert_eq!((info.resumed_from, info.checkpoints_written), (0, 2));
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default().permutations(60);
        let path = tmp("interrupted");
        // Session 1: only 25 permutations, then "crash".
        let (partial, info1) =
            run_with_checkpoints(&data, &labels, &opts, &path, 10, Some(25)).unwrap();
        assert!(partial.is_none());
        assert!(path.exists());
        assert_eq!(info1.resumed_from, 0);
        // Session 2: resume and finish.
        let (result, info2) = run_with_checkpoints(&data, &labels, &opts, &path, 10, None).unwrap();
        assert_eq!(info2.resumed_from, 25);
        let direct = mt_maxt(&data, &labels, &opts).unwrap();
        assert_eq!(result.unwrap(), direct);
        assert!(!path.exists());
    }

    #[test]
    fn resume_works_for_stored_sampling_and_complete() {
        let (data, labels) = data_and_labels();
        for opts in [
            PmaxtOptions::default()
                .permutations(40)
                .fixed_seed_sampling("n")
                .unwrap(),
            PmaxtOptions::default().permutations(0), // complete: C(6,3)=20
        ] {
            let path = tmp(&format!("mode-{:?}-{}", opts.sampling, opts.b));
            let (p1, _) = run_with_checkpoints(&data, &labels, &opts, &path, 6, Some(13)).unwrap();
            assert!(p1.is_none());
            let (p2, _) = run_with_checkpoints(&data, &labels, &opts, &path, 6, None).unwrap();
            let direct = mt_maxt(&data, &labels, &opts).unwrap();
            assert_eq!(p2.unwrap(), direct);
        }
    }

    #[test]
    fn resume_with_different_thread_geometry_is_bit_identical() {
        // The digest canonicalizes threads/batch away: a run checkpointed
        // under one engine geometry resumes under another, bit-identically.
        let (data, labels) = data_and_labels();
        let opts1 = PmaxtOptions::default().permutations(60).threads(1).batch(4);
        let opts2 = PmaxtOptions::default()
            .permutations(60)
            .threads(3)
            .batch(16);
        assert_eq!(
            digest_run(&data, &labels, &opts1),
            digest_run(&data, &labels, &opts2)
        );
        let path = tmp("geometry");
        let (p1, _) = run_with_checkpoints(&data, &labels, &opts1, &path, 10, Some(25)).unwrap();
        assert!(p1.is_none());
        let (result, info) = run_with_checkpoints(&data, &labels, &opts2, &path, 10, None).unwrap();
        assert_eq!(info.resumed_from, 25);
        assert_eq!(result.unwrap(), mt_maxt(&data, &labels, &opts1).unwrap());
    }

    #[test]
    fn stale_checkpoint_for_different_inputs_is_ignored() {
        let (data, labels) = data_and_labels();
        let opts_a = PmaxtOptions::default().permutations(30).seed(1);
        let opts_b = PmaxtOptions::default().permutations(30).seed(2);
        let path = tmp("stale");
        let (_, _) = run_with_checkpoints(&data, &labels, &opts_a, &path, 5, Some(10)).unwrap();
        assert!(path.exists());
        // Different options: the old checkpoint must not be resumed.
        let (result, info) = run_with_checkpoints(&data, &labels, &opts_b, &path, 5, None).unwrap();
        assert_eq!(info.resumed_from, 0);
        assert_eq!(result.unwrap(), mt_maxt(&data, &labels, &opts_b).unwrap());
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let state = CheckpointState {
            digest: 0xDEADBEEF,
            cursor: 123,
            b: 1000,
            counts: CountAccumulator {
                count_raw: vec![1, 2, 3],
                count_adj: vec![4, 5, 6],
                n_perm: 123,
            },
        };
        let path = tmp("roundtrip");
        save(&path, &state).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, state);
    }

    #[test]
    fn flipped_cursor_digit_is_a_typed_error_not_a_wrong_result() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default().permutations(60);
        let path = tmp("flipped-cursor");
        let (partial, _) =
            run_with_checkpoints(&data, &labels, &opts, &path, 10, Some(25)).unwrap();
        assert!(partial.is_none());
        // One bit: "cursor 25" -> "cursor 24" ('5' 0x35 -> '4' 0x34). The
        // file still parses and its input digest still matches the run.
        let mut bytes = std::fs::read(&path).unwrap();
        let line = b"cursor 25\n";
        let at = bytes
            .windows(line.len())
            .position(|w| w == line)
            .expect("mid-run checkpoint at cursor 25");
        bytes[at + line.len() - 2] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        match run_with_checkpoints(&data, &labels, &opts, &path, 10, None) {
            Err(Error::Comm(msg)) => assert!(msg.contains("cursor"), "{msg}"),
            other => panic!("expected a typed load error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_cursor_b_or_counts_are_invalid_data() {
        let good = CheckpointState {
            digest: 7,
            cursor: 20,
            b: 50,
            counts: CountAccumulator {
                count_raw: vec![20, 3],
                count_adj: vec![5, 20],
                n_perm: 20,
            },
        };
        let mut beyond_b = good.clone();
        beyond_b.b = 10;
        let mut count_above = good.clone();
        count_above.counts.count_adj[0] = 21;
        let mut cursor_off = good.clone();
        cursor_off.cursor = 19;
        let path = tmp("inconsistent");
        save(&path, &good).unwrap();
        assert_eq!(load(&path).unwrap(), Some(good));
        for bad in [beyond_b, count_above, cursor_off] {
            save(&path, &bad).unwrap();
            let err = load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_loads_none_and_corrupt_errors() {
        let path = tmp("missing");
        assert!(load(&path).unwrap().is_none());
        std::fs::write(&path, "garbage").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_is_sensitive_to_inputs() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default();
        let base = digest_run(&data, &labels, &opts);
        assert_ne!(base, digest_run(&data, &labels, &opts.clone().seed(1)));
        let mut labels2 = labels.clone();
        labels2.swap(0, 3);
        assert_ne!(base, digest_run(&data, &labels2, &opts));
        let mut v = data.as_slice().to_vec();
        v[0] += 1.0;
        let data2 = Matrix::from_vec(3, 6, v).unwrap();
        assert_ne!(base, digest_run(&data2, &labels, &opts));
    }
}
