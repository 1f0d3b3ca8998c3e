//! `serve-mix`: the real `pmaxt serve` daemon on a unix socket, driven by a
//! closed loop of two client connections from this process. Each client
//! replays its own seeded hit/miss/extend stream and sends its next submit
//! only after the previous result arrived, with zero think time.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use microarray::io::read_dataset;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::{maxt_with_config, EngineConfig};
use sprint_core::options::{PmaxtOptions, TestMethod};
use sprint_jobd::client::{expect_ok, Client};
use sprint_jobd::json::Json;
use sprint_jobd::protocol;

use crate::data::{self, PAPER, SMALL};
use crate::mix::{self, Class, Key, MixStream};
use crate::procs::Daemon;
use crate::trace::Tracer;
use crate::{runs, stats, Ctx, Outcome};

/// Closed-loop client connections: one per core of the reference host.
const CLIENTS: u64 = 2;
/// Finished requests after which the daemon's peak memory is read; when
/// the window ends first, it is read at the end.
const RSS_AFTER: usize = 200;

/// The serve mix's two datasets, indexed by `Key::dataset`.
pub struct Inputs {
    pub paths: [PathBuf; 2],
}

impl Inputs {
    pub fn new(dir: &Path) -> Inputs {
        Inputs {
            paths: [dir.join("paper.tsv"), dir.join("small.tsv")],
        }
    }

    /// Generate both datasets from the workload seed.
    pub fn write(&self, seed: u64) -> io::Result<()> {
        data::write_input(PAPER, data::derive(seed, 1), &self.paths[0])?;
        data::write_input(SMALL, data::derive(seed, 3), &self.paths[1])
    }

    /// Read both datasets back, as the daemon reads them.
    pub fn load(&self) -> io::Result<Vec<(Matrix, Vec<u8>)>> {
        self.paths.iter().map(|path| read_dataset(path)).collect()
    }
}

/// The run options a key stands for.
pub fn key_opts(key: &Key) -> PmaxtOptions {
    let test = if key.wilcoxon {
        TestMethod::Wilcoxon
    } else {
        TestMethod::T
    };
    PmaxtOptions::default()
        .test(test)
        .permutations(key.b)
        .seed(key.seed)
}

/// The digest of the in-process reference result for `key`, computed on
/// first use.
pub fn expected(
    refs: &mut BTreeMap<Key, u64>,
    sets: &[(Matrix, Vec<u8>)],
    key: &Key,
) -> io::Result<u64> {
    if let Some(&digest) = refs.get(key) {
        return Ok(digest);
    }
    let (matrix, labels) = &sets[key.dataset];
    let engine = EngineConfig::explicit(runs::THREADS, 0);
    let result =
        maxt_with_config(matrix, labels, &key_opts(key), engine).map_err(io::Error::other)?;
    let digest = data::maxt_digest(&result);
    refs.insert(*key, digest);
    Ok(digest)
}

/// References of the hot keys, computed before the measured window.
pub fn hot_references(sets: &[(Matrix, Vec<u8>)], seed: u64) -> io::Result<BTreeMap<Key, u64>> {
    let mut refs = BTreeMap::new();
    for key in mix::hot_keys(seed) {
        expected(&mut refs, sets, &key)?;
    }
    Ok(refs)
}

/// Check every answer against the reference for its key, and that the
/// daemon's cache served it as its class intends (otherwise the mix is not
/// the one measured); a wrong or failed answer counts as failed.
pub fn verify(
    answers: &[Answer],
    sets: &[(Matrix, Vec<u8>)],
    refs: &mut BTreeMap<Key, u64>,
    out: &mut Outcome,
) -> io::Result<()> {
    for answer in answers {
        let want = expected(refs, sets, &answer.key)?;
        out.check(answer.digest == Some(want) && answer.cache == answer.class.as_str());
    }
    Ok(())
}

fn request_ok(client: &mut Client, request: &Json) -> io::Result<Json> {
    expect_ok(client.request(request)?).map_err(|(message, _)| io::Error::other(message))
}

fn submit(client: &mut Client, inputs: &Inputs, key: &Key) -> io::Result<Json> {
    let path = inputs.paths[key.dataset].display().to_string();
    request_ok(client, &protocol::submit_request(&path, &key_opts(key)))
}

fn job_of(answer: &Json) -> io::Result<u64> {
    answer
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| io::Error::other("submit answer without a job id"))
}

/// One set-up: generate the inputs; start a daemon on a fresh cache,
/// prefill the hot keys through it and stop it; start the measured daemon
/// on that cache (its journal replays before the socket accepts); warm it
/// up with one hit per dataset.
pub fn setup(ctx: &Ctx, inputs: &Inputs, name: &str) -> io::Result<Daemon> {
    let dir = ctx.dir.join(name);
    std::fs::create_dir_all(&dir)?;
    inputs.write(ctx.seed)?;
    let (cache, log) = (dir.join("cache"), dir.join("jobd.log"));
    let hot = mix::hot_keys(ctx.seed);
    let prefill = Daemon::spawn(&ctx.pmaxt, &dir.join("prefill.sock"), &cache, &log)?;
    {
        let mut client = Client::connect(&prefill.addr)?;
        let jobs = hot
            .iter()
            .map(|key| job_of(&submit(&mut client, inputs, key)?))
            .collect::<io::Result<Vec<u64>>>()?;
        for job in jobs {
            request_ok(&mut client, &protocol::result_request(job, true))?;
        }
    }
    prefill.stop()?;
    let daemon = Daemon::spawn(&ctx.pmaxt, &dir.join("jobd.sock"), &cache, &log)?;
    let mut client = Client::connect(&daemon.addr)?;
    for key in [hot[0], hot[mix::HOT_PER_COMBO]] {
        let job = job_of(&submit(&mut client, inputs, &key)?)?;
        request_ok(&mut client, &protocol::result_request(job, true))?;
    }
    Ok(daemon)
}

/// One request as its client saw it.
pub struct Answer {
    pub class: Class,
    pub key: Key,
    /// Tracer request id of the exchange.
    pub request: u64,
    /// Seconds from the submit to the parsed result.
    pub latency: f64,
    /// How the daemon's cache served the submit (`hit`, `miss`, `extend`),
    /// or `error`.
    pub cache: String,
    /// Length of the result line.
    pub result_bytes: usize,
    /// Digest of the decoded result; `None` when the exchange failed.
    pub digest: Option<u64>,
}

/// Submit `key` and wait for its result over `client`.
fn exchange(
    client: &mut Client,
    tracer: &Tracer,
    inputs: &Inputs,
    class: Class,
    key: Key,
) -> Answer {
    let request = tracer.request();
    let start = Instant::now();
    let outcome = tracer.span(
        "serve.request",
        None,
        request,
        |root| -> io::Result<(String, Json)> {
            let answer = tracer.span("jobd.client.submit", root, request, |_| {
                submit(client, inputs, &key)
            })?;
            let cache = answer
                .get("cache")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let job = job_of(&answer)?;
            let result = tracer.span("jobd.client.result", root, request, |_| {
                request_ok(client, &protocol::result_request(job, true))
            })?;
            Ok((cache, result))
        },
    );
    let latency = start.elapsed().as_secs_f64();
    let mut answer = Answer {
        class,
        key,
        request,
        latency,
        cache: "error".to_string(),
        result_bytes: 0,
        digest: None,
    };
    match outcome {
        Ok((cache, result)) => {
            // Outside the latency: the result's wire size, the cost of
            // parsing it, and its digest for the correctness check.
            let line = result.to_json();
            let parsed = tracer.span("jobd.json.parse", None, request, |_| Json::parse(&line));
            answer.digest = parsed
                .ok()
                .and_then(|json| protocol::result_from_json(&json).ok())
                .map(|r| data::maxt_digest(&r));
            answer.cache = cache;
            answer.result_bytes = line.len();
        }
        Err(e) => eprintln!("perfbench: {} request failed: {e}", class.as_str()),
    }
    answer
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Send no request after this instant.
    Until(Instant),
    /// Send this many requests per client.
    Requests(usize),
}

/// Drive the closed loop against `addr`, counting finished requests in
/// `done`. Returns every answer and the wall time of the loop.
pub fn drive(
    addr: &str,
    inputs: &Inputs,
    seed: u64,
    limit: Limit,
    tracer: &Tracer,
    done: &AtomicUsize,
) -> io::Result<(Vec<Answer>, f64)> {
    let start = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> io::Result<Vec<Answer>> {
                    let mut client = Client::connect(addr)?;
                    let mut answers = Vec::new();
                    for req in MixStream::new(seed, c) {
                        let stop = match limit {
                            Limit::Until(deadline) => Instant::now() >= deadline,
                            Limit::Requests(n) => answers.len() >= n,
                        };
                        if stop {
                            break;
                        }
                        answers.push(exchange(&mut client, tracer, inputs, req.class, req.key));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(answers)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let answers = per_client.into_iter().flatten().collect();
    Ok((answers, start.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let inputs = Inputs::new(&ctx.dir);
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for rep in 0..runs::SETUP_REPS {
        if let Some(previous) = daemon.take() {
            previous.stop()?;
        }
        let start = Instant::now();
        daemon = Some(setup(ctx, &inputs, &format!("setup{rep}"))?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("SETUP_REPS is positive");
    let sets = inputs.load()?;
    let mut refs = hot_references(&sets, ctx.seed)?;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let done = AtomicUsize::new(0);
    let tracer = Tracer::new(false);
    // The daemon keeps every finished job, so its memory grows with the
    // jobs served; reading it after a fixed number of requests keeps a
    // faster daemon from reading as a larger one.
    let (driven, rss) = std::thread::scope(|scope| {
        let loop_ = scope.spawn(|| {
            let limit = Limit::Until(deadline);
            drive(&daemon.addr, &inputs, ctx.seed, limit, &tracer, &done)
        });
        let mut rss = None;
        while !loop_.is_finished() {
            if rss.is_none() && done.load(Ordering::Relaxed) >= RSS_AFTER {
                rss = Some(daemon.peak_rss_mib());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let driven = loop_.join().expect("the client loop panicked");
        (driven, rss.unwrap_or_else(|| daemon.peak_rss_mib()))
    });
    let (answers, window) = driven?;
    let rss = rss?;
    daemon.stop()?;
    verify(&answers, &sets, &mut refs, &mut out)?;

    let all: Vec<f64> = answers.iter().map(|a| 1e3 * a.latency).collect();
    out.add("setup_s", stats::median(&setups), "s");
    out.add_median("op_p50_ms", &all, "ms");
    out.add("jobs_per_s", answers.len() as f64 / window, "1/s");
    out.add("peak_rss_mb", rss, "MiB");
    report_classes(&answers);
    Ok(out)
}

/// Submit-to-result latency of `class`, in milliseconds.
pub fn class_ms(answers: &[Answer], class: Class) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.class == class)
        .map(|a| 1e3 * a.latency)
        .collect()
}

/// Print each class's median latency, and the highest percentile its
/// sample count supports, above the result line.
pub fn report_classes(answers: &[Answer]) {
    for class in Class::ALL {
        let ms = class_ms(answers, class);
        if ms.is_empty() {
            continue;
        }
        let mut line = format!(
            "class {} n={} p50_ms={:.3}",
            class.as_str(),
            ms.len(),
            stats::median(&ms)
        );
        if let Some(p) = stats::highest_valid_percentile(ms.len()) {
            let value = stats::percentile(&ms, p).expect("the percentile is valid");
            line += &format!(" {}_ms={value:.3}", stats::label(p));
        }
        println!("{line}");
    }
}
