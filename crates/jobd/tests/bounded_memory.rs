//! A long-running daemon's memory is bounded, through a real server: a
//! finished job's payload leaves the bounded store once newer ones push it
//! out, and a job's record once newer records do; either answers `expired`,
//! and resubmitting the request serves the same result again. The client's
//! retry never resends such an answer.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use microarray::io::write_dataset;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::options::PmaxtOptions;
use sprint_jobd::client::{expect_ok, Client};
use sprint_jobd::json::Json;
use sprint_jobd::manager::{PAYLOAD_BYTES, RECORDS};
use sprint_jobd::{
    protocol, request_retried, Faults, JobManager, ManagerConfig, RetryPolicy, Server,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jobd-bounded-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `rows` genes of seeded noise over 3 + 3 samples.
fn synth(rows: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut x = 88172645463325252u64 ^ seed;
    let v = (0..rows * 6)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
        })
        .collect();
    (
        Matrix::from_vec(rows, 6, v).unwrap(),
        vec![0, 0, 0, 1, 1, 1],
    )
}

/// A daemon without a cache on a unix socket under `dir`.
fn serve(dir: &Path) -> (String, JoinHandle<std::io::Result<()>>) {
    let manager = JobManager::new(ManagerConfig {
        workers: 2,
        span: 64,
        cache_dir: None,
        faults: Faults::disabled(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let addr = format!("unix:{}", dir.join("jobd.sock").display());
    let server = Server::bind(&addr, manager).unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

fn request(addr: &str, req: &Json) -> Json {
    Client::connect(addr).unwrap().request(req).unwrap()
}

/// Submit the request for `opts` over `path`: the job id and whether it
/// was deduplicated.
fn submit(addr: &str, path: &Path, opts: &PmaxtOptions) -> (u64, bool) {
    let resp = request(
        addr,
        &protocol::submit_request(&path.display().to_string(), opts),
    );
    let resp = expect_ok(resp).unwrap();
    let id = resp.get("job").and_then(Json::as_u64).unwrap();
    (
        id,
        resp.get("deduped").and_then(Json::as_bool) == Some(true),
    )
}

/// The error code and message of a failed response.
fn refusal(resp: Json) -> (String, String) {
    let (msg, code) = expect_ok(resp).unwrap_err();
    (code, msg)
}

#[test]
fn an_evicted_result_answers_expired_and_a_resubmission_serves_it_again() {
    let dir = temp_dir("payload");
    // Results of 40 000 genes charge 1.28 MB each: the store keeps the
    // newest `kept` of them, so one more pushes the first out.
    let genes = 40_000;
    let payload = genes * 32;
    let kept = PAYLOAD_BYTES / payload;
    let (data, labels) = synth(genes, 1);
    let path = dir.join("wide.tsv");
    write_dataset(&path, &data, &labels).unwrap();
    let (addr, server) = serve(&dir);
    let opts = |seed: u64| PmaxtOptions::default().permutations(40).seed(seed);
    let fetch = |id: u64| request(&addr, &protocol::result_request(id, true));

    let (first, _) = submit(&addr, &path, &opts(1));
    let direct = mt_maxt(&data, &labels, &opts(1)).unwrap();
    let served = protocol::result_from_json(&expect_ok(fetch(first)).unwrap()).unwrap();
    assert_eq!(served, direct);
    for seed in 2..=kept as u64 + 1 {
        let (id, _) = submit(&addr, &path, &opts(seed));
        expect_ok(fetch(id)).unwrap();
    }
    let (code, msg) = refusal(fetch(first));
    assert_eq!(code, "expired");
    assert!(msg.contains("expired") && msg.contains("resubmit"), "{msg}");
    // Without waiting, too; the record itself is still kept.
    let (code, _) = refusal(request(&addr, &protocol::result_request(first, false)));
    assert_eq!(code, "expired");
    let status = expect_ok(request(&addr, &protocol::job_request("status", first))).unwrap();
    assert_eq!(status.get("state").and_then(Json::as_str), Some("finished"));

    // An expired job is no dedup target: the request runs again, to the
    // same bits.
    let (again, deduped) = submit(&addr, &path, &opts(1));
    assert!(again != first && !deduped);
    let served = protocol::result_from_json(&expect_ok(fetch(again)).unwrap()).unwrap();
    assert_eq!(served, direct);
    // Now kept, it is deduplicated onto.
    assert_eq!(submit(&addr, &path, &opts(1)), (again, true));

    request(&addr, &protocol::shutdown_request(false));
    server.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_id_whose_record_was_evicted_answers_expired_not_unknown() {
    let dir = temp_dir("records");
    let (data, labels) = synth(4, 2);
    let path = dir.join("tiny.tsv");
    write_dataset(&path, &data, &labels).unwrap();
    let (addr, server) = serve(&dir);
    let opts = |seed: u64| PmaxtOptions::default().permutations(20).seed(seed);
    let (first, _) = submit(&addr, &path, &opts(0));
    expect_ok(request(&addr, &protocol::result_request(first, true))).unwrap();
    let mut last = first;
    for seed in 1..=RECORDS as u64 {
        last = submit(&addr, &path, &opts(seed)).0;
        expect_ok(request(&addr, &protocol::result_request(last, true))).unwrap();
    }
    // The last finish evicts the first record just after it is visible.
    let deadline = Instant::now() + Duration::from_secs(30);
    while expect_ok(request(&addr, &protocol::job_request("status", first))).is_ok() {
        assert!(
            Instant::now() < deadline,
            "job {first}'s record was never evicted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for cmd in ["status", "cancel", "watch"] {
        let (code, msg) = refusal(request(&addr, &protocol::job_request(cmd, first)));
        assert_eq!(
            (code.as_str(), msg.contains("expired")),
            ("expired", true),
            "{cmd}"
        );
    }
    let (code, _) = refusal(request(&addr, &protocol::result_request(first, true)));
    assert_eq!(code, "expired");
    // An id never issued is a caller mistake, as before.
    let (code, msg) = refusal(request(&addr, &protocol::job_request("status", last + 1)));
    assert_eq!(code, "usage", "{msg}");
    // The request's dedup slot went with the record.
    let (again, deduped) = submit(&addr, &path, &opts(0));
    assert!(again > last && !deduped);

    request(&addr, &protocol::shutdown_request(false));
    server.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_client_never_resends_an_expired_answer() {
    let dir = temp_dir("retry");
    let sock = dir.join("answers.sock");
    let listener = UnixListener::bind(&sock).unwrap();
    let accepted = AtomicUsize::new(0);
    let answer = protocol::err_response("job 1 has expired", "expired").to_json();
    let resp = std::thread::scope(|s| {
        s.spawn(|| {
            for conn in listener.incoming() {
                let mut conn = conn.unwrap();
                if accepted.fetch_add(1, Ordering::SeqCst) > 0 {
                    return; // the wake-up below
                }
                let mut line = String::new();
                BufReader::new(&conn).read_line(&mut line).unwrap();
                conn.write_all(format!("{answer}\n").as_bytes()).unwrap();
            }
        });
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let addr = format!("unix:{}", sock.display());
        let timeout = Some(Duration::from_secs(5));
        let resp = request_retried(&addr, &protocol::result_request(1, true), &policy, timeout);
        // Every attempt the client made has been accepted by now.
        let attempts = accepted.load(Ordering::SeqCst);
        std::os::unix::net::UnixStream::connect(&sock).unwrap();
        (resp.unwrap(), attempts)
    });
    assert_eq!(resp.1, 1, "the daemon answered; nothing may be resent");
    assert_eq!(refusal(resp.0).0, "expired");
    std::fs::remove_dir_all(&dir).ok();
}
