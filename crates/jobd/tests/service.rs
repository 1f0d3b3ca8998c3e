//! End-to-end guarantees of the job service: whatever the scheduling,
//! geometry, caching or interruption history, a jobd-served result is
//! bitwise-identical to a direct serial `mt_maxt` call.

use std::sync::mpsc;
use std::time::Duration;

use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::options::{PmaxtOptions, TestMethod};
use sprint_core::side::Side;
use sprint_jobd::{CacheDisposition, JobManager, JobSpec, JobState, ManagerConfig};

const WAIT: Duration = Duration::from_secs(120);

/// Deterministic pseudo-random matrix (no external RNG dep in tests).
fn synth_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut v = Vec::with_capacity(rows * cols);
    for g in 0..rows {
        let shift = if g % 7 == 0 { 1.5 } else { 0.0 };
        for c in 0..cols {
            let bump = if c >= cols / 2 { shift } else { 0.0 };
            v.push(next() * 4.0 - 2.0 + bump);
        }
    }
    Matrix::from_vec(rows, cols, v).unwrap()
}

fn two_class_labels(n0: usize, n1: usize) -> Vec<u8> {
    let mut l = vec![0u8; n0];
    l.extend(std::iter::repeat_n(1u8, n1));
    l
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jobd-it-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submit(mgr: &JobManager, data: &Matrix, labels: &[u8], opts: &PmaxtOptions) -> u64 {
    mgr.submit(JobSpec {
        data: data.clone(),
        classlabel: labels.to_vec(),
        opts: opts.clone(),
        source_path: None,
    })
    .unwrap()
    .id
}

/// N simultaneous jobs with mixed engine geometries all come back
/// bitwise-identical to serial references computed independently.
#[test]
fn concurrent_mixed_geometry_jobs_match_serial() {
    let data = synth_matrix(60, 12, 42);
    let labels = two_class_labels(6, 6);
    let mgr = JobManager::new(ManagerConfig {
        workers: 3,
        span: 16,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap();
    let variants: Vec<PmaxtOptions> = vec![
        PmaxtOptions::default().permutations(97).threads(1).batch(1),
        PmaxtOptions::default()
            .permutations(128)
            .threads(2)
            .batch(7)
            .seed(9),
        PmaxtOptions::default()
            .permutations(73)
            .threads(3)
            .batch(32)
            .test(TestMethod::Wilcoxon),
        PmaxtOptions::default()
            .permutations(200)
            .threads(2)
            .batch(5)
            .side(Side::Upper),
        PmaxtOptions::default()
            .permutations(55)
            .threads(1)
            .batch(16)
            .test(TestMethod::TEqualVar)
            .side(Side::Lower),
        PmaxtOptions::default()
            .permutations(160)
            .threads(3)
            .batch(3)
            .seed(77),
    ];
    let ids: Vec<u64> = variants
        .iter()
        .map(|o| submit(&mgr, &data, &labels, o))
        .collect();
    for (id, opts) in ids.iter().zip(&variants) {
        let served = mgr.wait_result(*id, Some(WAIT)).unwrap();
        let direct = mt_maxt(&data, &labels, opts).unwrap();
        assert_eq!(served, direct, "geometry must not change the result");
    }
}

/// Cancelling mid-run leaves a resumable checkpoint: a fresh manager over
/// the same cache resumes from the last completed span and finishes with
/// the exact serial result.
#[test]
fn cancel_leaves_resumable_checkpoint() {
    let data = synth_matrix(200, 20, 7);
    let labels = two_class_labels(10, 10);
    let opts = PmaxtOptions::default().permutations(20_000).threads(1);
    let cache = tmpdir("cancel");

    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 64,
        cache_dir: Some(cache.clone()),
        ..ManagerConfig::default()
    })
    .unwrap();
    let info = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_eq!(info.cache, CacheDisposition::Miss);

    // Wait for at least one completed span (span-completion events carry
    // done > 0), then cancel.
    let rx = mgr.subscribe(info.id).unwrap();
    let mut progressed = 0;
    for event in rx.iter() {
        if event.state.is_terminal() {
            panic!("job finished before it could be cancelled");
        }
        if event.done > 0 {
            progressed = event.done;
            break;
        }
    }
    assert!(progressed > 0 && progressed < 20_000);
    mgr.cancel(info.id).unwrap();
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let st = mgr.status(info.id).unwrap();
        if st.state.is_terminal() {
            assert_eq!(st.state, JobState::Cancelled);
            assert!(st.done < st.total, "cancel must interrupt the run");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "cancel never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(mgr);

    // A new manager (fresh process, same cache) resumes rather than restarts.
    let mgr2 = JobManager::new(ManagerConfig {
        workers: 1,
        span: 64,
        cache_dir: Some(cache.clone()),
        ..ManagerConfig::default()
    })
    .unwrap();
    let resumed = mgr2
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    match resumed.cache {
        CacheDisposition::Resume { from } => assert!(from > 0, "resume cursor must advance"),
        other => panic!("expected Resume, got {other:?}"),
    }
    let served = mgr2.wait_result(resumed.id, Some(WAIT)).unwrap();
    let status = mgr2.status(resumed.id).unwrap();
    assert!(
        status.computed < 20_000,
        "resumption must not recompute the prefix"
    );
    let direct = mt_maxt(&data, &labels, &opts).unwrap();
    assert_eq!(served, direct, "resumed run must be bitwise-identical");
    std::fs::remove_dir_all(&cache).ok();
}

/// A repeated request is served from the cache without computing anything.
#[test]
fn cache_hit_skips_computation() {
    let data = synth_matrix(40, 10, 3);
    let labels = two_class_labels(5, 5);
    let opts = PmaxtOptions::default().permutations(60);
    let cache = tmpdir("hit");

    let cfg = || ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: Some(cache.clone()),
        ..ManagerConfig::default()
    };
    let mgr = JobManager::new(cfg()).unwrap();
    let first = submit(&mgr, &data, &labels, &opts);
    let first_result = mgr.wait_result(first, Some(WAIT)).unwrap();
    drop(mgr);

    let mgr2 = JobManager::new(cfg()).unwrap();
    let info = mgr2
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_eq!(info.cache, CacheDisposition::Hit);
    assert_eq!(info.state, JobState::Finished, "hits finalize instantly");
    let status = mgr2.status(info.id).unwrap();
    assert_eq!(status.computed, 0, "a hit must not compute permutations");
    let served = mgr2.wait_result(info.id, Some(WAIT)).unwrap();
    assert_eq!(served, first_result);
    let direct = mt_maxt(&data, &labels, &opts).unwrap();
    assert_eq!(served, direct);
    std::fs::remove_dir_all(&cache).ok();
}

/// Extending a cached B = 40 run to B′ = 70 computes only the new
/// permutations and lands bitwise-identical to a fresh B′ = 70 run — for
/// every statistic × side combination, under both samplings. Under
/// `--fixed-seed n` the extension skips its stream to the checkpoint once,
/// then keeps it from one span to the next.
#[test]
fn extension_is_bitwise_identical_for_all_statistics_and_sides() {
    let tests: [(TestMethod, Vec<u8>); 6] = [
        (TestMethod::T, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::TEqualVar, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::Wilcoxon, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::F, vec![0, 0, 1, 1, 2, 2, 2, 2]),
        (TestMethod::PairT, vec![0, 1, 0, 1, 1, 0, 0, 1]),
        (TestMethod::BlockF, vec![0, 1, 1, 0, 0, 1, 1, 0]),
    ];
    let sides = [Side::Abs, Side::Upper, Side::Lower];
    for (test, labels) in &tests {
        for (side, sampling) in sides.into_iter().flat_map(|s| [(s, "y"), (s, "n")]) {
            let data = synth_matrix(30, labels.len(), 1000 + *test as u64);
            let base = PmaxtOptions::default()
                .test(*test)
                .side(side)
                .permutations(40)
                .seed(5)
                .fixed_seed_sampling(sampling)
                .unwrap();
            let extended = base.clone().permutations(70);
            let cache = tmpdir(&format!(
                "ext-{}-{}-{sampling}",
                test.as_str(),
                side.as_str()
            ));
            let cfg = || ManagerConfig {
                workers: 1,
                span: 16,
                cache_dir: Some(cache.clone()),
                ..ManagerConfig::default()
            };

            let mgr = JobManager::new(cfg()).unwrap();
            let first = submit(&mgr, &data, labels, &base);
            mgr.wait_result(first, Some(WAIT)).unwrap();
            drop(mgr);

            let mgr2 = JobManager::new(cfg()).unwrap();
            let info = mgr2
                .submit(JobSpec {
                    data: data.clone(),
                    classlabel: labels.clone(),
                    opts: extended.clone(),
                    source_path: None,
                })
                .unwrap();
            assert_eq!(
                info.cache,
                CacheDisposition::Extend { from: 40 },
                "{}/{}/{sampling}: expected an extension",
                test.as_str(),
                side.as_str()
            );
            let served = mgr2.wait_result(info.id, Some(WAIT)).unwrap();
            let status = mgr2.status(info.id).unwrap();
            assert_eq!(
                status.computed,
                30,
                "{}/{}/{sampling}: extension must compute only B' - B permutations",
                test.as_str(),
                side.as_str()
            );
            let fresh = mt_maxt(&data, labels, &extended).unwrap();
            assert_eq!(
                served,
                fresh,
                "{}/{}/{sampling}: extension must be bitwise-identical to a fresh run",
                test.as_str(),
                side.as_str()
            );
            std::fs::remove_dir_all(&cache).ok();
        }
    }
}

/// Progress events are monotone, carry an ETA after the first span, and end
/// with exactly one terminal event.
#[test]
fn progress_events_are_monotone_with_eta() {
    let data = synth_matrix(80, 12, 21);
    let labels = two_class_labels(6, 6);
    let opts = PmaxtOptions::default().permutations(400).threads(1);
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 50,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap();
    let info = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts,
            source_path: None,
        })
        .unwrap();
    let rx = mgr.subscribe(info.id).unwrap();
    let mut last_done = 0u64;
    let mut saw_eta = false;
    let mut terminal = 0;
    let deadline = std::time::Instant::now() + WAIT;
    while terminal == 0 {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        let event = match rx.recv_timeout(remaining) {
            Ok(e) => e,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no terminal event"),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        assert!(event.done >= last_done, "progress must be monotone");
        last_done = event.done;
        if event.done > 0 && !event.state.is_terminal() {
            saw_eta |= event.eta_secs.is_some();
        }
        if event.state.is_terminal() {
            assert_eq!(event.state, JobState::Finished);
            assert_eq!(event.done, 400);
            terminal += 1;
        }
    }
    assert_eq!(terminal, 1);
    assert!(saw_eta, "mid-run events should carry an ETA");
}
