//! What a served cache hit reuses, through a real server: the `result` line
//! a finished job keeps, and the dataset digest the dataset table keeps.
//!
//! Every `result` response of a finished job — the first, the second and
//! later ones, under both `wait` values and after a deduplicated
//! resubmission — is byte-identical to a fresh encode, and with
//! `frame_truncate` armed a client retry receives the complete kept line.
//! The table's digest keys a job only when no NA code rewrites the matrix,
//! and a job recovered from the journal resolves the key it was accepted
//! under.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use microarray::io::{read_dataset, write_dataset};
use sprint_core::boot::boot_run;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::options::{Mode, PmaxtOptions, Workload};
use sprint_jobd::json::Json;
use sprint_jobd::{
    protocol, CacheKey, Durability, FaultKind, Faults, JobManager, ManagerConfig, Server,
    ServerConfig,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jobd-hits-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `rows × cols` matrix of seeded noise, labelled half 0 and half 1.
fn synth(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut x = 88172645463325252u64 ^ seed;
    let v = (0..rows * cols)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
        })
        .collect();
    let labels = (0..cols).map(|c| u8::from(c >= cols / 2)).collect();
    (Matrix::from_vec(rows, cols, v).unwrap(), labels)
}

/// A daemon on a unix socket under `dir`: one worker, injection off in the
/// manager, `framing` faults in the server.
fn serve(
    dir: &Path,
    cache: Option<PathBuf>,
    durability: Durability,
    framing: Faults,
) -> (PathBuf, JoinHandle<std::io::Result<()>>) {
    let manager = JobManager::new(ManagerConfig {
        workers: 1,
        span: 64,
        cache_dir: cache,
        durability,
        faults: Faults::disabled(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let sock = dir.join("jobd.sock");
    let cfg = ServerConfig {
        faults: framing,
        ..ServerConfig::default()
    };
    let server = Server::bind_with(&format!("unix:{}", sock.display()), manager, cfg).unwrap();
    (sock, std::thread::spawn(move || server.run()))
}

/// Send `request` on a fresh connection and return what came back, up to
/// and including the newline; a torn frame comes back without one.
fn exchange(sock: &Path, request: &Json) -> String {
    let mut conn = UnixStream::connect(sock).unwrap();
    conn.write_all(format!("{}\n", request.to_json()).as_bytes())
        .unwrap();
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).unwrap();
    line
}

fn parse(line: &str) -> Json {
    let resp = Json::parse(line.trim_end()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    resp
}

fn submit(sock: &Path, path: &Path, opts: &PmaxtOptions) -> Json {
    parse(&exchange(
        sock,
        &protocol::submit_request(path.to_str().unwrap(), opts),
    ))
}

fn job_of(resp: &Json) -> u64 {
    resp.get("job").and_then(Json::as_u64).unwrap()
}

fn stop(sock: &Path, handle: JoinHandle<std::io::Result<()>>) {
    parse(&exchange(sock, &protocol::shutdown_request(false)));
    handle.join().unwrap().unwrap();
}

#[test]
fn every_result_fetch_of_a_finished_job_is_byte_identical() {
    let dir = temp_dir("fetches");
    let path = dir.join("data.tsv");
    let (data, labels) = synth(60, 12, 1);
    write_dataset(&path, &data, &labels).unwrap();
    let (sock, handle) = serve(&dir, None, Durability::Off, Faults::disabled());
    let exact = PmaxtOptions::default().permutations(300).seed(5);
    let adaptive = PmaxtOptions::default()
        .permutations(2_000)
        .seed(6)
        .mode(Mode::Adaptive);
    let bootstrap = PmaxtOptions::default()
        .workload(Workload::Bootstrap)
        .permutations(300)
        .seed(7);
    for opts in [&exact, &adaptive, &bootstrap] {
        let job = job_of(&submit(&sock, &path, opts));
        let fetch = |wait: bool| exchange(&sock, &protocol::result_request(job, wait));
        // The first fetch is encoded fresh; the second is encoded and kept;
        // later ones, and a resubmission's, are the kept line.
        let first = fetch(true);
        parse(&first);
        for wait in [false, true, false, true] {
            assert_eq!(fetch(wait), first, "{opts:?} wait={wait}");
        }
        let again = submit(&sock, &path, opts);
        assert_eq!(job_of(&again), job);
        assert_eq!(again.get("deduped").and_then(Json::as_bool), Some(true));
        for wait in [true, false] {
            assert_eq!(fetch(wait), first, "{opts:?} resubmitted, wait={wait}");
        }
        // The line is the encode of a direct run's result; an adaptive
        // one carries its per-gene report.
        let direct = match (opts.workload, opts.mode) {
            (Workload::Bootstrap, _) => {
                protocol::boot_result_to_json(job, &boot_run(&data, &labels, opts).unwrap())
            }
            (_, Mode::Adaptive) => {
                assert!(parse(&first).get("adaptive").is_some());
                continue;
            }
            _ => protocol::result_to_json(job, &mt_maxt(&data, &labels, opts).unwrap(), None),
        };
        assert_eq!(first, format!("{}\n", direct.to_json()), "{opts:?}");
    }
    stop(&sock, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_retry_after_a_torn_frame_receives_the_complete_kept_line() {
    let dir = temp_dir("torn");
    let path = dir.join("data.tsv");
    let (data, labels) = synth(60, 12, 2);
    write_dataset(&path, &data, &labels).unwrap();
    let framing = Faults::builder()
        .prob(FaultKind::FrameTruncate, 0.5)
        .seed(20261017)
        .build();
    let (sock, handle) = serve(&dir, None, Durability::Off, framing.clone());
    // Retry each request on a fresh connection until a whole line arrives,
    // as clients do; returns the line and the torn attempts before it.
    let retried = |request: &Json| {
        for torn in 0..64 {
            let line = exchange(&sock, request);
            if line.ends_with('\n') {
                return (line, torn);
            }
        }
        panic!("no whole line in 64 attempts");
    };
    let opts = PmaxtOptions::default().permutations(300).seed(8);
    let submit = protocol::submit_request(path.to_str().unwrap(), &opts);
    let job = job_of(&parse(&retried(&submit).0));
    let fetch = protocol::result_request(job, true);
    let direct = protocol::result_to_json(job, &mt_maxt(&data, &labels, &opts).unwrap(), None);
    let want = format!("{}\n", direct.to_json());
    // Two whole fetches keep the line; then fetch until a torn write of the
    // kept line has been retried.
    let mut retried_kept = 0;
    for fetched in 0..40 {
        let (line, torn) = retried(&fetch);
        assert_eq!(line, want, "fetch {fetched}");
        if fetched >= 2 && torn > 0 {
            retried_kept += 1;
        }
    }
    assert!(retried_kept > 0, "no kept line was torn and retried");
    assert!(framing.fired(FaultKind::FrameTruncate) > 0);
    // A torn shutdown acknowledgement leaves the daemon up; the retry
    // stops it.
    retried(&protocol::shutdown_request(false));
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_na_submission_is_keyed_by_the_na_canonical_matrix() {
    let dir = temp_dir("na");
    let path = dir.join("data.tsv");
    let (data, labels) = synth(40, 12, 3);
    let mut cells = data.as_slice().to_vec();
    for g in (0..40).step_by(3) {
        cells[g * 12 + g % 12] = -99.0;
    }
    let data = Matrix::from_vec(40, 12, cells).unwrap();
    write_dataset(&path, &data, &labels).unwrap();
    let (parsed, parsed_labels) = read_dataset(&path).unwrap();
    let canonical = Matrix::from_vec_with_na(
        parsed.rows(),
        parsed.cols(),
        parsed.as_slice().to_vec(),
        -99.0,
    )
    .unwrap();
    let (sock, handle) = serve(&dir, None, Durability::Off, Faults::disabled());
    let key = |resp: &Json| resp.get("key").and_then(Json::as_str).unwrap().to_string();
    // Without an NA code the table's digest is the key's; with one, the
    // rewritten matrix is digested, for the same file and the same entry.
    let plain = PmaxtOptions::default().permutations(200).seed(9);
    let na = plain.clone().na_code(-99.0);
    let want_plain = CacheKey::new(&parsed, &parsed_labels, &plain).hex();
    let want_na = CacheKey::new(&canonical, &parsed_labels, &na).hex();
    assert_ne!(
        CacheKey::new(&parsed, &parsed_labels, &na).hex(),
        want_na,
        "the NA code must rewrite cells of this file"
    );
    for _ in 0..2 {
        assert_eq!(key(&submit(&sock, &path, &plain)), want_plain);
        assert_eq!(key(&submit(&sock, &path, &na)), want_na);
    }
    stop(&sock, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_job_recovered_from_the_journal_resolves_the_key_it_was_accepted_under() {
    let dir = temp_dir("recover");
    let path = dir.join("data.tsv");
    let cache = dir.join("cache");
    let (data, labels) = synth(200, 30, 4);
    write_dataset(&path, &data, &labels).unwrap();
    // Long enough that the daemon stops with the job still running.
    let opts = PmaxtOptions::default().permutations(2_000_000).seed(10);
    let (sock, handle) = serve(
        &dir,
        Some(cache.clone()),
        Durability::Full,
        Faults::disabled(),
    );
    let accepted = submit(&sock, &path, &opts);
    let key = accepted.get("key").and_then(Json::as_str).unwrap();
    let (parsed, parsed_labels) = read_dataset(&path).unwrap();
    assert_eq!(key, CacheKey::new(&parsed, &parsed_labels, &opts).hex());
    stop(&sock, handle);
    // The restart replays the accept record and resubmits the job through
    // the dataset table; the same request then dedups onto it.
    let (sock, handle) = serve(&dir, Some(cache), Durability::Full, Faults::disabled());
    let again = submit(&sock, &path, &opts);
    assert_eq!(again.get("recovered").and_then(Json::as_bool), Some(true));
    assert_eq!(again.get("deduped").and_then(Json::as_bool), Some(true));
    assert_eq!(again.get("key").and_then(Json::as_str), Some(key));
    parse(&exchange(
        &sock,
        &protocol::job_request("cancel", job_of(&again)),
    ));
    stop(&sock, handle);
    std::fs::remove_dir_all(&dir).ok();
}
