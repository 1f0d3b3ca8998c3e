//! Cross-daemon sharding, end to end over real TCP: a coordinator daemon
//! splits one job's permutation range across itself and peer daemons, each
//! peer recomputes its spans from its own copy of the dataset, and the
//! merged result is bitwise-identical to a serial `mt_maxt` call — for every
//! statistic, and regardless of peers dying mid-run (their spans are
//! reassigned to survivors).

use std::time::Duration;

use microarray::design::LabelDesign;
use microarray::io::write_dataset;
use microarray::prelude::*;
use sprint_core::boot::boot_run;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::options::{PmaxtOptions, TestMethod, Workload};
use sprint_jobd::client::{expect_ok, Client};
use sprint_jobd::json::Json;
use sprint_jobd::{
    protocol, FaultKind, Faults, JobError, JobManager, JobSpec, JobState, ManagerConfig, Server,
};

fn ok(resp: Json) -> Json {
    expect_ok(resp).expect("server error response")
}

fn u(resp: &Json, key: &str) -> u64 {
    resp.get(key).and_then(Json::as_u64).unwrap_or_else(|| {
        panic!("missing field {key} in {}", resp.to_json());
    })
}

fn dataset_for(method: TestMethod, genes: usize, seed: u64) -> SyntheticDataset {
    let design = match method {
        TestMethod::F => LabelDesign::MultiClass {
            counts: vec![4, 3, 5],
        },
        TestMethod::PairT => LabelDesign::Paired { pairs: 6 },
        TestMethod::BlockF => LabelDesign::Block {
            blocks: 4,
            treatments: 3,
        },
        _ => LabelDesign::TwoClass { n0: 6, n1: 6 },
    };
    SynthConfig::new(genes, design)
        .diff_fraction(0.1)
        .effect_size(1.8)
        .seed(seed)
        .generate()
}

/// Start a plain (peer) daemon on an ephemeral TCP port; returns its
/// `host:port` address.
fn spawn_peer(span: u64) -> String {
    let manager = JobManager::new(ManagerConfig {
        workers: 1,
        span,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap();
    let server = Server::bind("127.0.0.1:0", manager).unwrap();
    let addr = server.local_addr().to_addr_string();
    std::thread::spawn(move || server.run());
    addr
}

/// Start a coordinator daemon with the given peer roster; returns its
/// address.
fn spawn_coordinator(span: u64, peers: Vec<String>, cache: Option<std::path::PathBuf>) -> String {
    let manager = JobManager::new(ManagerConfig {
        workers: 1,
        span,
        cache_dir: cache,
        peers,
        ..ManagerConfig::default()
    })
    .unwrap();
    let server = Server::bind("127.0.0.1:0", manager).unwrap();
    let addr = server.local_addr().to_addr_string();
    std::thread::spawn(move || server.run());
    addr
}

fn shutdown(addr: &str) {
    if let Ok(mut c) = Client::connect(addr) {
        let _ = c.request(&Json::obj(vec![("cmd", Json::str("shutdown"))]));
    }
}

/// Three daemons over localhost TCP: every statistic's sharded result is
/// bitwise-identical to the serial engine, and the coordinator's comm
/// counters show real remote execution.
#[test]
fn three_daemons_all_statistics_bitwise_identical() {
    let dir = std::env::temp_dir().join(format!("jobd-cluster-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let peer_a = spawn_peer(16);
    let peer_b = spawn_peer(16);
    let coord = spawn_coordinator(16, vec![peer_a.clone(), peer_b.clone()], None);

    for method in TestMethod::ALL {
        let ds = dataset_for(method, 40, 4_000 + method as u64);
        let dataset = dir.join(format!("data-{method:?}.tsv"));
        write_dataset(&dataset, &ds.matrix, &ds.labels).unwrap();

        let opts = PmaxtOptions::default()
            .test(method)
            .permutations(400)
            .seed(11);
        let mut client = Client::connect(&coord).unwrap();
        let resp = ok(client
            .request(&protocol::submit_request(dataset.to_str().unwrap(), &opts))
            .unwrap());
        let job = u(&resp, "job");
        let resp = ok(client
            .request(&protocol::result_request(job, true))
            .unwrap());
        let served = protocol::result_from_json(&resp).unwrap();
        let serial = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();
        assert_eq!(
            served, serial,
            "{method:?}: sharded result must be bitwise-identical to serial"
        );

        let st = ok(client
            .request(&protocol::job_request("status", job))
            .unwrap());
        let comm = st
            .get("comm")
            .unwrap_or_else(|| panic!("{method:?}: sharded job must expose comm counters"));
        let c = |k: &str| comm.get(k).and_then(Json::as_u64).unwrap_or(0);
        assert_eq!(c("peers"), 3, "{method:?}: roster is self + two peers");
        assert!(
            c("spans_remote") >= 1,
            "{method:?}: at least one span must run on a peer"
        );
        assert!(
            c("spans_local") >= 1,
            "{method:?}: the identity chunk runs locally"
        );
        assert_eq!(
            c("spans_total"),
            c("spans_local") + c("spans_remote"),
            "{method:?}: every span accounted exactly once"
        );
        assert!(c("bytes_sent") > 0 && c("bytes_received") > 0);
    }

    shutdown(&coord);
    shutdown(&peer_a);
    shutdown(&peer_b);
    std::fs::remove_dir_all(&dir).ok();
}

/// A dead roster entry (nothing listening) must not change the answer: its
/// spans are reassigned to the survivors and the merged result stays
/// bitwise-identical to serial.
#[test]
fn dead_peer_spans_reassigned_bitwise_identical() {
    let dir = std::env::temp_dir().join(format!("jobd-cluster-dead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Reserve a port, then free it: connections to it are refused.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let live_peer = spawn_peer(16);
    let coord = spawn_coordinator(16, vec![dead_addr, live_peer.clone()], None);

    let ds = dataset_for(TestMethod::T, 40, 77);
    let dataset = dir.join("data.tsv");
    write_dataset(&dataset, &ds.matrix, &ds.labels).unwrap();

    let opts = PmaxtOptions::default().permutations(600).seed(3);
    let mut client = Client::connect(&coord).unwrap();
    let resp = ok(client
        .request(&protocol::submit_request(dataset.to_str().unwrap(), &opts))
        .unwrap());
    let job = u(&resp, "job");
    let resp = ok(client
        .request(&protocol::result_request(job, true))
        .unwrap());
    let served = protocol::result_from_json(&resp).unwrap();
    let serial = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();
    assert_eq!(served, serial, "peer death must not change the result");

    let st = ok(client
        .request(&protocol::job_request("status", job))
        .unwrap());
    let comm = st.get("comm").expect("comm counters");
    let c = |k: &str| comm.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(c("peers_failed"), 1, "exactly one roster entry is dead");
    assert!(
        c("spans_reassigned") >= 1,
        "the dead peer's spans must be reassigned"
    );
    assert!(
        c("retries") >= 1,
        "the dead peer was retried before being declared dead"
    );

    shutdown(&coord);
    shutdown(&live_peer);
    std::fs::remove_dir_all(&dir).ok();
}

/// Bootstrap jobs shard by gene bands instead of permutation spans: two peer
/// daemons each recompute their band's replicate draws from their own copy of
/// the dataset, and the merged interval estimates are bitwise-identical to a
/// serial `boot_run` — every theta, standard error, and CI bound.
#[test]
fn sharded_bootstrap_bitwise_identical_to_serial() {
    let dir = std::env::temp_dir().join(format!("jobd-cluster-boot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let peer_a = spawn_peer(16);
    let peer_b = spawn_peer(16);
    let coord = spawn_coordinator(16, vec![peer_a.clone(), peer_b.clone()], None);

    let ds = dataset_for(TestMethod::T, 40, 909);
    let dataset = dir.join("data.tsv");
    write_dataset(&dataset, &ds.matrix, &ds.labels).unwrap();

    let opts = PmaxtOptions::default()
        .workload(Workload::Bootstrap)
        .permutations(500)
        .seed(21);
    let mut client = Client::connect(&coord).unwrap();
    let resp = ok(client
        .request(&protocol::submit_request(dataset.to_str().unwrap(), &opts))
        .unwrap());
    let job = u(&resp, "job");
    let resp = ok(client
        .request(&protocol::result_request(job, true))
        .unwrap());
    assert_eq!(
        resp.get("workload").and_then(Json::as_str),
        Some("bootstrap")
    );
    let served = protocol::boot_from_json(&resp).unwrap();
    let serial = boot_run(&ds.matrix, &ds.labels, &opts).unwrap();
    assert_eq!(
        served, serial,
        "sharded bootstrap must be bitwise-identical to serial"
    );
    assert_eq!(served.replicates, 499);

    let st = ok(client
        .request(&protocol::job_request("status", job))
        .unwrap());
    let comm = st
        .get("comm")
        .expect("sharded bootstrap job must expose comm counters");
    let c = |k: &str| comm.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(c("peers"), 3, "roster is self + two peers");
    assert!(
        c("spans_remote") >= 2,
        "each peer computes one gene band remotely"
    );
    assert!(c("spans_local") >= 1, "the coordinator keeps its own band");
    assert!(c("bytes_sent") > 0 && c("bytes_received") > 0);

    shutdown(&coord);
    shutdown(&peer_a);
    shutdown(&peer_b);
    std::fs::remove_dir_all(&dir).ok();
}

/// A dead roster entry during a sharded bootstrap run: its gene band is
/// recomputed locally and the merged estimates stay bitwise-identical.
#[test]
fn sharded_bootstrap_survives_dead_peer() {
    let dir = std::env::temp_dir().join(format!("jobd-cluster-bootdead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let live_peer = spawn_peer(16);
    let coord = spawn_coordinator(16, vec![dead_addr, live_peer.clone()], None);

    let ds = dataset_for(TestMethod::T, 31, 131);
    let dataset = dir.join("data.tsv");
    write_dataset(&dataset, &ds.matrix, &ds.labels).unwrap();

    let opts = PmaxtOptions::default()
        .workload(Workload::Bootstrap)
        .permutations(300)
        .seed(8);
    let mut client = Client::connect(&coord).unwrap();
    let resp = ok(client
        .request(&protocol::submit_request(dataset.to_str().unwrap(), &opts))
        .unwrap());
    let job = u(&resp, "job");
    let resp = ok(client
        .request(&protocol::result_request(job, true))
        .unwrap());
    let served = protocol::boot_from_json(&resp).unwrap();
    let serial = boot_run(&ds.matrix, &ds.labels, &opts).unwrap();
    assert_eq!(served, serial, "peer death must not change the estimates");

    let st = ok(client
        .request(&protocol::job_request("status", job))
        .unwrap());
    let comm = st.get("comm").expect("comm counters");
    let c = |k: &str| comm.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(c("peers_failed"), 1, "exactly one roster entry is dead");
    assert!(
        c("spans_reassigned") >= 1,
        "the dead peer's band was recomputed locally"
    );

    shutdown(&coord);
    shutdown(&live_peer);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sharded runs checkpoint in frontier order, so a completed sharded job is
/// a cache hit for an identical resubmission — same contract as local runs.
#[test]
fn sharded_run_checkpoints_and_caches() {
    let dir = std::env::temp_dir().join(format!("jobd-cluster-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let peer = spawn_peer(16);
    let coord = spawn_coordinator(16, vec![peer.clone()], Some(dir.join("cache")));

    let ds = dataset_for(TestMethod::T, 30, 5);
    let dataset = dir.join("data.tsv");
    write_dataset(&dataset, &ds.matrix, &ds.labels).unwrap();

    let opts = PmaxtOptions::default().permutations(300).seed(9);
    let mut client = Client::connect(&coord).unwrap();
    let resp = ok(client
        .request(&protocol::submit_request(dataset.to_str().unwrap(), &opts))
        .unwrap());
    let job = u(&resp, "job");
    let first = ok(client
        .request(&protocol::result_request(job, true))
        .unwrap());
    let first = protocol::result_from_json(&first).unwrap();

    // Restart the coordinator over the same cache directory: an identical
    // resubmission must finalize from the sharded run's checkpoint without
    // recomputing (dedup can't explain it — it's a fresh daemon).
    shutdown(&coord);
    std::thread::sleep(Duration::from_millis(50));
    let coord = spawn_coordinator(16, vec![peer.clone()], Some(dir.join("cache")));
    let mut client = Client::connect(&coord).unwrap();
    let resp = ok(client
        .request(&protocol::submit_request(dataset.to_str().unwrap(), &opts))
        .unwrap());
    let cache = resp
        .get("cache")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(cache, "hit", "a finished sharded run is a cache hit");
    let again = u(&resp, "job");
    let second = ok(client
        .request(&protocol::result_request(again, true))
        .unwrap());
    let second = protocol::result_from_json(&second).unwrap();
    assert_eq!(first, second);

    shutdown(&coord);
    shutdown(&peer);
    std::fs::remove_dir_all(&dir).ok();
}

/// A panic inside the peer dispatcher thread fails the sharded job with a
/// message naming the peer, instead of stranding the peer's units and the
/// job with them, and the coordinator's only worker goes on to the next job.
#[test]
fn panicking_peer_dispatcher_fails_its_job_and_frees_the_worker() {
    let dir = std::env::temp_dir().join(format!("jobd-cluster-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let peer = spawn_peer(16);
    let coord = JobManager::new(ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: None,
        peers: vec![peer.clone()],
        faults: Faults::builder().prob(FaultKind::PeerPanic, 1.0).build(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let ds = dataset_for(TestMethod::T, 40, 6_100);
    let dataset = dir.join("data.tsv");
    write_dataset(&dataset, &ds.matrix, &ds.labels).unwrap();
    let spec = |seed: u64, source_path| JobSpec {
        data: ds.matrix.clone(),
        classlabel: ds.labels.clone(),
        opts: PmaxtOptions::default().permutations(400).seed(seed),
        source_path,
    };
    let wait = Some(Duration::from_secs(60));

    let sharded = coord.submit(spec(3, Some(dataset))).unwrap();
    let outcome = coord.wait_result(sharded.id, wait);
    assert!(
        !matches!(outcome, Ok(_) | Err(JobError::Timeout(_))),
        "the sharded job must fail, not finish or hang: {outcome:?}"
    );
    let status = coord.status(sharded.id).unwrap();
    assert_eq!(status.state, JobState::Failed);
    let error = status.error.unwrap_or_default();
    assert!(
        error.contains(&peer) && error.contains("dispatcher panicked"),
        "the failure names the peer: {error}"
    );

    // Without a source path the next job runs locally, on the same worker.
    let next = coord.submit(spec(4, None)).unwrap();
    let served = coord
        .wait_result(next.id, wait)
        .expect("the worker is free");
    let opts = PmaxtOptions::default().permutations(400).seed(4);
    assert_eq!(served, mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap());

    coord.shutdown();
    shutdown(&peer);
    std::fs::remove_dir_all(&dir).ok();
}
