//! The dataset table through a real server: `submit` and `span_exec` load
//! datasets through it, and no load ever serves the parse of bytes the file
//! no longer holds — not after a same-length rewrite that restores the
//! file's mtime, not after a delete, not after a replacement by rename.

use std::fs::{FileTimes, OpenOptions};
use std::io::Write;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use microarray::io::{read_dataset, write_dataset};
use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::maxt::{CountAccumulator, MaxTContext, MaxTResult};
use sprint_core::options::PmaxtOptions;
use sprint_core::stats::prepare_matrix;
use sprint_jobd::client::{expect_ok, Client};
use sprint_jobd::json::Json;
use sprint_jobd::{protocol, Faults, JobManager, ManagerConfig, Server};

const LABELS: [u8; 10] = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jobd-table-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn synth(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut x = 88172645463325252u64 ^ seed;
    let v = (0..rows * cols)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
        })
        .collect();
    Matrix::from_vec(rows, cols, v).unwrap()
}

/// The bytes `write_dataset` produces for `data` and `labels`.
fn dataset_bytes(dir: &Path, data: &Matrix, labels: &[u8]) -> Vec<u8> {
    let staged = dir.join("staged.tsv");
    write_dataset(&staged, data, labels).unwrap();
    let bytes = std::fs::read(&staged).unwrap();
    std::fs::remove_file(&staged).unwrap();
    bytes
}

/// A one-worker daemon on a unix socket under `dir`, without a cache.
fn serve(dir: &Path, name: &str) -> (String, JoinHandle<std::io::Result<()>>) {
    let manager = JobManager::new(ManagerConfig {
        workers: 1,
        span: 64,
        cache_dir: None,
        faults: Faults::disabled(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let sock = dir.join(format!("{name}.sock"));
    let server = Server::bind(&format!("unix:{}", sock.display()), manager).unwrap();
    let addr = server.local_addr().to_addr_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(client: &mut Client, handle: JoinHandle<std::io::Result<()>>) {
    expect_ok(client.request(&protocol::shutdown_request(false)).unwrap()).unwrap();
    handle.join().unwrap().unwrap();
}

fn path_str(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// Submit `path` and wait for its maxT result.
fn submitted(client: &mut Client, path: &Path, opts: &PmaxtOptions) -> MaxTResult {
    let resp = expect_ok(
        client
            .request(&protocol::submit_request(path_str(path), opts))
            .unwrap(),
    )
    .unwrap();
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    let resp = expect_ok(
        client
            .request(&protocol::result_request(job, true))
            .unwrap(),
    )
    .unwrap();
    protocol::result_from_json(&resp).unwrap()
}

/// Ask the daemon for the whole permutation range of `path` as one
/// `span_exec` unit, and finalize its counts against the file's current
/// content.
fn span_executed(client: &mut Client, path: &Path, opts: &PmaxtOptions) -> MaxTResult {
    let b = opts.b;
    let req = protocol::span_exec_request(path_str(path), opts, b, 0, b);
    let resp = expect_ok(client.request(&req).unwrap()).unwrap();
    let (start, take, flat) = protocol::span_counts_from_json(&resp).unwrap();
    assert_eq!((start, take), (0, b));
    let (data, labels) = read_dataset(path).unwrap();
    let labels = ClassLabels::new(labels, opts.test).unwrap();
    let prepared = prepare_matrix(&data, opts.test, opts.nonpara);
    let ctx = MaxTContext::new(&prepared, &labels, opts.test, opts.side);
    ctx.finalize(&CountAccumulator::from_flat(&flat, data.rows()))
}

/// A direct run on the file's current content.
fn direct(path: &Path, opts: &PmaxtOptions) -> MaxTResult {
    let (data, labels) = read_dataset(path).unwrap();
    mt_maxt(&data, &labels, opts).unwrap()
}

/// Overwrite `path` in place with `bytes` of the same length, then restore
/// its modification and access times: size, inode and mtime all read as
/// before, and only the content (and ctime) changed.
fn rewrite_in_place(path: &Path, bytes: &[u8]) {
    let before = std::fs::metadata(path).unwrap();
    assert_eq!(before.len(), bytes.len() as u64, "a same-length rewrite");
    let mut file = OpenOptions::new().write(true).open(path).unwrap();
    file.write_all(bytes).unwrap();
    let times = FileTimes::new()
        .set_modified(before.modified().unwrap())
        .set_accessed(before.accessed().unwrap());
    file.set_times(times).unwrap();
    drop(file);
    let after = std::fs::metadata(path).unwrap();
    let stamp = |m: &std::fs::Metadata| (m.len(), m.ino(), m.modified().unwrap());
    assert_eq!(stamp(&after), stamp(&before));
}

#[test]
fn in_place_rewrite_with_restored_mtime_is_seen_by_submit_and_span_exec() {
    let dir = temp_dir("rewrite");
    let path = dir.join("data.tsv");
    let data = synth(40, 10, 1);
    write_dataset(&path, &data, &LABELS).unwrap();
    // Same cells, one label moved: a header of the same length.
    let moved = [1, 0, 0, 0, 0, 0, 1, 1, 1, 1];
    let rewritten = dataset_bytes(&dir, &data, &moved);
    let opts = PmaxtOptions::default().permutations(200);
    let (lone, lone_handle) = serve(&dir, "lone");
    let (peer, peer_handle) = serve(&dir, "peer");
    let mut lone = Client::connect(&lone).unwrap();
    let mut peer = Client::connect(&peer).unwrap();

    let before = direct(&path, &opts);
    assert_eq!(submitted(&mut lone, &path, &opts), before);
    assert_eq!(span_executed(&mut peer, &path, &opts), before);

    rewrite_in_place(&path, &rewritten);
    let after = direct(&path, &opts);
    assert_ne!(after, before, "the rewrite must change the answer");
    assert_eq!(submitted(&mut lone, &path, &opts), after);
    assert_eq!(span_executed(&mut peer, &path, &opts), after);

    shutdown(&mut lone, lone_handle);
    shutdown(&mut peer, peer_handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deleted_file_is_a_runtime_error_and_a_renamed_replacement_is_read() {
    let dir = temp_dir("replace");
    let path = dir.join("data.tsv");
    write_dataset(&path, &synth(30, 10, 2), &LABELS).unwrap();
    let opts = PmaxtOptions::default().permutations(150);
    let (addr, handle) = serve(&dir, "lone");
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(submitted(&mut client, &path, &opts), direct(&path, &opts));

    std::fs::remove_file(&path).unwrap();
    let resp = client
        .request(&protocol::submit_request(path_str(&path), &opts))
        .unwrap();
    let (message, code) = expect_ok(resp).unwrap_err();
    let reader = read_dataset(&path).unwrap_err();
    assert_eq!(code, "runtime");
    assert_eq!(message, format!("cannot read dataset {path:?}: {reader}"));

    let staged = dir.join("data.tsv.new");
    write_dataset(&staged, &synth(30, 10, 3), &LABELS).unwrap();
    std::fs::rename(&staged, &path).unwrap();
    assert_eq!(submitted(&mut client, &path, &opts), direct(&path, &opts));

    shutdown(&mut client, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn peer_refuses_a_unit_once_its_file_diverges() {
    let dir = temp_dir("drift");
    let path = dir.join("data.tsv");
    let data = synth(20, 10, 4);
    write_dataset(&path, &data, &LABELS).unwrap();
    // Complete enumeration: B is the number of distinct labellings, which
    // the class sizes decide — C(10, 5) = 252 before, C(10, 4) = 210 after.
    let opts = PmaxtOptions::default().permutations(0);
    let unit = protocol::span_exec_request(path_str(&path), &opts, 252, 0, 16);
    let (addr, handle) = serve(&dir, "peer");
    let mut peer = Client::connect(&addr).unwrap();
    expect_ok(peer.request(&unit).unwrap()).unwrap();

    let divergent = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
    rewrite_in_place(&path, &dataset_bytes(&dir, &data, &divergent));
    let (message, code) = expect_ok(peer.request(&unit).unwrap()).unwrap_err();
    assert_eq!(code, "usage");
    assert!(
        message.contains("coordinator resolved B=252 but this daemon resolves B=210"),
        "{message}"
    );

    shutdown(&mut peer, handle);
    std::fs::remove_dir_all(&dir).ok();
}
