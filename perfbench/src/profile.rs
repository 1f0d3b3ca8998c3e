//! The traced leg. It calls each layer's public functions from this process,
//! records a span around every call, and reports per-layer self times,
//! counts and ratios. Every workload's traced leg profiles every layer, so
//! each reports the same metrics; the workload picks the operation whose
//! tracing overhead is measured and which is repeated most: the maxT run
//! (`maxt-paper`), the bootstrap run (`boot-paper`) or the served mix
//! (`serve-mix`). The spans are written to
//! `perfbench/out/trace-<workload>-seed<n>.json` when the leg ends.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;
use std::time::Instant;

use microarray::io::read_dataset;
use sprint_core::boot::{boot_run, BootstrapResult};
use sprint_core::digest::dataset_digest;
use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::{accumulate_chunk, ChunkRun};
use sprint_core::maxt::serial::prepare_run;
use sprint_core::maxt::{maxt_with_config, EngineConfig, MaxTContext, MaxTResult};
use sprint_core::options::{PmaxtOptions, TestMethod};
use sprint_core::perm::build_stream;
use sprint_core::pmaxt::{pmaxt, sections};
use sprint_jobd::cache::{CacheKey, CacheProbe, ResultCache};
use sprint_jobd::faults::Faults;
use sprint_jobd::journal::{Durability, Journal, JournalRecord, RecordKind};
use sprint_jobd::json::Json;
use sprint_jobd::manager::{CacheDisposition, JobManager, JobSpec, JobState, ManagerConfig};
use sprint_jobd::protocol;

use crate::mix::{self, Class, Key, MixStream};
use crate::serve::{self, Inputs, Limit};
use crate::trace::{self, Tracer};
use crate::{data, runs, stats, Ctx, Outcome};

/// Requests per client in each pass over the mix: one block.
const MIX_REQUESTS: usize = mix::BLOCK;
/// Journal records appended per durability mode.
const JOURNAL_RECORDS: usize = 200;
/// Miss submissions timed per durability mode in the accept comparison.
const ACCEPTS: u64 = 20;
/// Permutations of an accept-comparison job: few, so the queue drains fast.
const ACCEPT_B: u64 = 200;
/// Times each cache entry is probed and stored again.
const CACHE_REPS: usize = 3;

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// One `pmaxt run` replayed through its layers: read, prepare, engine
/// chunk, finalize.
fn maxt_op(
    tracer: &Tracer,
    request: u64,
    path: &Path,
    opts: &PmaxtOptions,
) -> io::Result<(MaxTResult, ChunkRun)> {
    tracer.span("core.maxt.op", None, request, |root| {
        let (matrix, labels) =
            tracer.span("microarray.io.read", root, request, |_| read_dataset(path))?;
        let (cl, b, prepared) = tracer
            .span("core.stats.prepare", root, request, |_| {
                prepare_run(&matrix, &labels, opts)
            })
            .map_err(other)?;
        let mctx = tracer.span("core.stats.prepare", root, request, |_| {
            MaxTContext::with_scorer(
                &prepared,
                &cl,
                opts.test,
                opts.side,
                opts.kernel,
                opts.precision,
            )
        });
        let engine = EngineConfig::explicit(runs::THREADS, 0);
        let chunk = tracer
            .span("core.maxt.engine.chunk", root, request, |_| {
                accumulate_chunk(&mctx, &cl, opts, b, 0, b, engine)
            })
            .map_err(other)?;
        let result = tracer.span("core.maxt.finalize", root, request, |_| {
            mctx.finalize(&chunk.counts)
        });
        Ok((result, chunk))
    })
}

/// One bootstrap run replayed through its layers: read, then `boot_run`.
fn boot_op(
    tracer: &Tracer,
    request: u64,
    path: &Path,
    opts: &PmaxtOptions,
) -> io::Result<BootstrapResult> {
    tracer.span("core.boot.op", None, request, |root| {
        let (matrix, labels) =
            tracer.span("microarray.io.read", root, request, |_| read_dataset(path))?;
        tracer
            .span("core.boot.run", root, request, |_| {
                boot_run(&matrix, &labels, opts)
            })
            .map_err(other)
    })
}

/// Walls of one operation run traced and untraced, and the traced requests.
#[derive(Default)]
struct OpWalls {
    requests: Vec<u64>,
    /// Summed wall time of the traced requests, each timed on its own.
    traced_total: f64,
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

/// A served or replayed request and what became of it.
struct Replayed {
    request: u64,
    class: Class,
    cache: CacheDisposition,
    /// Milliseconds from the acknowledged submit to the first `Running`
    /// event; `None` when the job never queued.
    queue_wait_ms: Option<f64>,
    /// Milliseconds from the acknowledged submit to the result.
    run_ms: f64,
    computed: u64,
    total: u64,
}

struct Profile<'a> {
    ctx: &'a Ctx,
    on: Tracer,
    off: Tracer,
    inputs: Inputs,
    sets: Vec<(Matrix, Vec<u8>)>,
    out: Outcome,
    /// The class of every traced client or manager request.
    classes: BTreeMap<u64, Class>,
    /// Each worker's busy seconds, per traced engine chunk.
    busy: Vec<Vec<f64>>,
    /// Gene-permutations of one engine chunk.
    gene_perms: f64,
}

impl Profile<'_> {
    /// Run `op` untraced and traced in alternation, `reps` times each. Every
    /// output must have the digest `want`.
    fn alternate(
        &mut self,
        reps: usize,
        want: u64,
        op: &dyn Fn(&Tracer, u64) -> io::Result<u64>,
    ) -> io::Result<OpWalls> {
        let mut walls = OpWalls::default();
        for _ in 0..reps {
            for traced in [false, true] {
                let tracer = if traced { &self.on } else { &self.off };
                let request = tracer.request();
                let start = Instant::now();
                let digest = op(tracer, request)?;
                let wall = start.elapsed().as_secs_f64();
                self.out.check(digest == want);
                if traced {
                    walls.traced.push(wall);
                    walls.traced_total += wall;
                    walls.requests.push(request);
                } else {
                    walls.untraced.push(wall);
                }
            }
        }
        Ok(walls)
    }

    /// The maxT layers on the paper run, the paper driver's section
    /// profile, scorer preparation, the dataset digest and the resampling
    /// streams alone.
    fn maxt_layers(&mut self, reps: usize) -> io::Result<OpWalls> {
        let opts = runs::paper_opts(false, data::derive(self.ctx.seed, 2));
        let path = self.inputs.paths[0].clone();
        let (matrix, labels) = self.sets[0].clone();

        // The paper driver at one rank is the reference of the replays.
        let run = self
            .on
            .span("core.pmaxt", None, self.on.request(), |_| {
                pmaxt(&matrix, &labels, &opts, 1)
            })
            .map_err(other)?;
        let want = data::maxt_digest(&run.result);
        for (section, name) in [
            (sections::PRE_PROCESSING, "pre_processing"),
            (sections::BROADCAST_PARAMETERS, "broadcast_parameters"),
            (sections::CREATE_DATA, "create_data"),
            (sections::MAIN_KERNEL, "main_kernel"),
            (sections::COMPUTE_P_VALUES, "compute_p_values"),
        ] {
            let seconds = run.profile.seconds(section);
            self.out.add(format!("core.pmaxt.{name}_s"), seconds, "s");
        }

        let busy = Mutex::new(Vec::new());
        let walls = self.alternate(reps, want, &|tracer, request| {
            let (result, chunk) = maxt_op(tracer, request, &path, &opts)?;
            if tracer.enabled() {
                let secs = chunk.workers.iter().map(|w| w.busy.as_secs_f64()).collect();
                busy.lock()
                    .expect("no thread panicked holding the list")
                    .push(secs);
            }
            Ok(data::maxt_digest(&result))
        })?;
        self.busy = busy
            .into_inner()
            .expect("no thread panicked holding the list");
        let (genes, cols) = (matrix.rows() as f64, matrix.cols() as f64);
        self.gene_perms = genes * opts.b as f64;
        self.out
            .add("core.maxt.engine.gene_perms", self.gene_perms, "count");
        // Computed, not measured: every permutation reads the whole matrix.
        let bytes = genes * cols * 8.0 * opts.b as f64;
        self.out
            .add("core.maxt.engine.bytes_computed", bytes, "bytes");
        let file = std::fs::metadata(&path)?.len();
        self.out.add("microarray.io.bytes", file as f64, "bytes");

        let wilcoxon = opts.clone().test(TestMethod::Wilcoxon);
        for _ in 0..reps.max(2) {
            let request = self.on.request();
            self.on
                .span("core.stats.prepare.wilcoxon", None, request, |_| {
                    let (cl, _, prepared) = prepare_run(&matrix, &labels, &wilcoxon)?;
                    let w = &wilcoxon;
                    let mctx = MaxTContext::with_scorer(
                        &prepared,
                        &cl,
                        w.test,
                        w.side,
                        w.kernel,
                        w.precision,
                    );
                    Ok::<_, sprint_core::error::Error>(std::hint::black_box(mctx.genes()))
                })
                .map_err(other)?;
            self.on.span("core.digest.dataset", None, request, |_| {
                std::hint::black_box(dataset_digest(&matrix, &labels))
            });
        }

        let boot = runs::paper_opts(true, opts.seed);
        for (span, count, o) in [
            ("core.perm.stream", "core.perm.arrangements", &opts),
            ("core.perm.boot_stream", "core.perm.boot_draws", &boot),
        ] {
            let cl = ClassLabels::new(labels.clone(), o.test).map_err(other)?;
            let drawn = self
                .on
                .span(span, None, self.on.request(), |_| {
                    let mut plan = build_stream(&cl, o, o.b)?;
                    let mut buf = vec![0u8; labels.len()];
                    let mut drawn = 0u64;
                    while plan.stream.next_into(&mut buf) {
                        drawn += 1;
                    }
                    std::hint::black_box(&buf);
                    Ok::<_, sprint_core::error::Error>(drawn)
                })
                .map_err(other)?;
            self.out.check(drawn == o.b);
            self.out.add(count, drawn as f64, "count");
        }
        Ok(walls)
    }

    /// The bootstrap layer at one thread (the reference) and at two (the
    /// op, whose output must match it bitwise).
    fn boot_layers(&mut self, reps: usize) -> io::Result<OpWalls> {
        let opts = runs::paper_opts(true, data::derive(self.ctx.seed, 2));
        let path = self.inputs.paths[0].clone();
        let (matrix, labels) = &self.sets[0];
        let serial = opts.clone().threads(1);
        let one = self
            .on
            .span("core.boot.run_1t", None, self.on.request(), |_| {
                boot_run(matrix, labels, &serial)
            })
            .map_err(other)?;
        let replicates = matrix.rows() as f64 * (opts.b - 1) as f64 * 8.0;
        self.out
            .add("core.boot.replicate_bytes", replicates, "bytes");
        let want = data::boot_digest(&one);
        self.alternate(reps, want, &|tracer, request| {
            Ok(data::boot_digest(&boot_op(tracer, request, &path, &opts)?))
        })
    }

    /// The served mix through the real daemon, traced on the client side.
    /// With `untraced_too`, the same mix runs untraced first on a daemon set
    /// up the same way, for the tracing overhead.
    fn serve_layers(&mut self, untraced_too: bool) -> io::Result<OpWalls> {
        let mut refs = serve::hot_references(&self.sets, self.ctx.seed)?;
        let (ctx, inputs) = (self.ctx, &self.inputs);
        let pass = |tracer: &Tracer, name: &str| -> io::Result<(Vec<serve::Answer>, f64)> {
            let daemon = serve::setup(ctx, inputs, name)?;
            let driven = serve::drive(
                &daemon.addr,
                inputs,
                ctx.seed,
                Limit::Requests(MIX_REQUESTS),
                tracer,
                &AtomicUsize::new(0),
            );
            daemon.stop()?;
            driven
        };
        let mut walls = OpWalls::default();
        if untraced_too {
            let (answers, wall) = pass(&self.off, "untraced")?;
            serve::verify(&answers, &self.sets, &mut refs, &mut self.out)?;
            walls.untraced.push(wall);
        }
        let (answers, wall) = pass(&self.on, "traced")?;
        serve::verify(&answers, &self.sets, &mut refs, &mut self.out)?;
        serve::report_classes(&answers);
        walls.traced.push(wall);
        walls.requests = answers.iter().map(|a| a.request).collect();
        walls.traced_total = answers.iter().map(|a| a.latency).sum();
        for class in Class::ALL {
            let of_class = answers.iter().filter(|a| a.class == class);
            let ms: Vec<f64> = of_class.clone().map(|a| 1e3 * a.latency).collect();
            let bytes: Vec<f64> = of_class.map(|a| a.result_bytes as f64).collect();
            let c = class.as_str();
            self.out
                .add(format!("serve.{c}_p50_ms"), stats::median(&ms), "ms");
            self.out.add(
                format!("jobd.client.result_bytes.{c}"),
                stats::median(&bytes),
                "bytes",
            );
        }
        self.classes
            .extend(answers.iter().map(|a| (a.request, a.class)));
        Ok(walls)
    }

    fn spec(&self, key: &Key) -> JobSpec {
        let (data, classlabel) = self.sets[key.dataset].clone();
        JobSpec {
            data,
            classlabel,
            opts: serve::key_opts(key),
            source_path: Some(self.inputs.paths[key.dataset].clone()),
        }
    }

    fn manager(&self, cache: &Path, durability: Durability) -> io::Result<JobManager> {
        JobManager::new(ManagerConfig {
            workers: 2,
            job_threads: 1,
            cache_dir: Some(cache.to_path_buf()),
            faults: Faults::disabled(),
            durability,
            ..ManagerConfig::default()
        })
    }

    /// Submit `key` to `manager` and follow it to its result.
    fn replay(
        &self,
        manager: &JobManager,
        class: Class,
        key: &Key,
    ) -> io::Result<(Replayed, MaxTResult)> {
        let spec = self.spec(key);
        let request = self.on.request();
        let start = Instant::now();
        let info = self
            .on
            .span("jobd.manager.submit", None, request, |_| {
                manager.submit(spec)
            })
            .map_err(other)?;
        let ack = start.elapsed().as_secs_f64();
        let events = manager.subscribe(info.id).map_err(other)?;
        let mut queue_wait_ms = None;
        for event in events.iter() {
            if event.state == JobState::Running || event.state.is_terminal() {
                if info.state == JobState::Queued {
                    queue_wait_ms = Some(1e3 * (start.elapsed().as_secs_f64() - ack));
                }
                break;
            }
        }
        let result = self
            .on
            .span("jobd.manager.wait_result", None, request, |_| {
                manager.wait_result(info.id, None)
            })
            .map_err(other)?;
        let run_ms = 1e3 * (start.elapsed().as_secs_f64() - ack);
        let status = manager.status(info.id).map_err(other)?;
        let replayed = Replayed {
            request,
            class,
            cache: info.cache,
            queue_wait_ms,
            run_ms,
            computed: status.computed,
            total: status.total,
        };
        Ok((replayed, result))
    }

    /// The mix replayed in-process against a `JobManager` on a prefilled
    /// cache, then that cache's entries probed and stored directly.
    fn manager_layers(&mut self) -> io::Result<()> {
        let cache = self.ctx.dir.join("manager-cache");
        let hot = mix::hot_keys(self.ctx.seed);
        let prefill = self.manager(&cache, Durability::Batch)?;
        for key in &hot {
            self.replay(&prefill, Class::Miss, key)?;
        }
        prefill.shutdown();
        drop(prefill);

        let manager = self.manager(&cache, Durability::Batch)?;
        let this = &*self;
        let replayed = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|client| {
                    let manager = &manager;
                    scope.spawn(move || -> io::Result<Vec<(Replayed, Key, MaxTResult)>> {
                        MixStream::new(this.ctx.seed, client)
                            .take(MIX_REQUESTS)
                            .map(|req| {
                                let (r, result) = this.replay(manager, req.class, &req.key)?;
                                Ok((r, req.key, result))
                            })
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a replay thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        manager.shutdown();
        drop(manager);
        let replayed: Vec<_> = replayed.into_iter().flatten().collect();

        let mut refs = BTreeMap::new();
        for (_, key, result) in &replayed {
            let want = serve::expected(&mut refs, &self.sets, key)?;
            self.out.check(data::maxt_digest(result) == want);
        }
        let replayed: Vec<Replayed> = replayed.into_iter().map(|(r, _, _)| r).collect();
        let count = |d: fn(&CacheDisposition) -> bool| {
            replayed.iter().filter(|r| d(&r.cache)).count() as f64
        };
        let hits = count(|d| *d == CacheDisposition::Hit);
        let hot_submits = replayed.iter().filter(|r| r.class == Class::Hit).count() as f64;
        self.out.add("jobd.cache.hits", hits, "count");
        self.out.add(
            "jobd.cache.misses",
            count(|d| *d == CacheDisposition::Miss),
            "count",
        );
        self.out.add(
            "jobd.cache.extends",
            count(|d| matches!(d, CacheDisposition::Extend { .. })),
            "count",
        );
        self.out
            .add("jobd.cache.hit_ratio", hits / hot_submits, "ratio");
        let computed: u64 = replayed.iter().map(|r| r.computed).sum();
        let total: u64 = replayed.iter().map(|r| r.total).sum();
        self.out.add(
            "jobd.manager.perms_computed_ratio",
            computed as f64 / total as f64,
            "ratio",
        );
        let waits: Vec<f64> = replayed.iter().filter_map(|r| r.queue_wait_ms).collect();
        let runs: Vec<f64> = replayed
            .iter()
            .filter(|r| r.class != Class::Hit)
            .map(|r| r.run_ms)
            .collect();
        self.out
            .add("jobd.manager.queue_wait_ms", stats::median(&waits), "ms");
        self.out
            .add("jobd.manager.run_ms", stats::median(&runs), "ms");
        self.classes
            .extend(replayed.iter().map(|r| (r.request, r.class)));

        // The cache layer alone, on the entries the replay left.
        let store = ResultCache::open(&cache)?;
        for _ in 0..CACHE_REPS {
            for key in &hot {
                let (matrix, labels) = &self.sets[key.dataset];
                let ckey = CacheKey::new(matrix, labels, &serve::key_opts(key));
                let request = self.on.request();
                let probe = self.on.span("jobd.cache.probe", None, request, |_| {
                    store.probe(&ckey, key.b)
                });
                let CacheProbe::Hit(state) = probe else {
                    self.out.check(false);
                    continue;
                };
                self.out.check(true);
                self.on.span("jobd.cache.store", None, request, |_| {
                    store.store(&ckey, &state)
                })?;
            }
        }
        Ok(())
    }

    /// Submit latency under each journal durability: the accept path with
    /// no journal, with group commit and with an fsync per accept.
    fn accept_layers(&mut self) -> io::Result<()> {
        let mut refs = BTreeMap::new();
        for (mode, span) in [
            (Durability::Off, "jobd.manager.accept.off"),
            (Durability::Batch, "jobd.manager.accept.batch"),
            (Durability::Full, "jobd.manager.accept.full"),
        ] {
            let cache = self.ctx.dir.join(format!("accept-{}", mode.as_str()));
            let manager = self.manager(&cache, mode)?;
            let mut jobs = Vec::new();
            for i in 0..ACCEPTS {
                let key = Key {
                    dataset: 1,
                    wilcoxon: false,
                    seed: 1 + i,
                    b: ACCEPT_B,
                };
                let spec = self.spec(&key);
                let info = self
                    .on
                    .span(span, None, self.on.request(), |_| manager.submit(spec))
                    .map_err(other)?;
                jobs.push((key, info.id));
            }
            for (key, id) in jobs {
                let result = manager.wait_result(id, None).map_err(other)?;
                let want = serve::expected(&mut refs, &self.sets, &key)?;
                self.out.check(data::maxt_digest(&result) == want);
            }
            manager.shutdown();
        }
        Ok(())
    }

    /// `Journal::append` under `full` and `batch`, then a replay of the
    /// `full` journal.
    fn journal_layers(&mut self) -> io::Result<()> {
        let opts = serve::key_opts(&mix::hot_keys(self.ctx.seed)[0]);
        let source = self.inputs.paths[0].display().to_string();
        for (mode, span) in [
            (Durability::Full, "jobd.journal.append.full"),
            (Durability::Batch, "jobd.journal.append.batch"),
        ] {
            let dir = self.ctx.dir.join(format!("journal-{}", mode.as_str()));
            let (journal, _) = Journal::open(&dir, mode, Faults::disabled())?;
            for i in 0..JOURNAL_RECORDS {
                let mut record = JournalRecord::transition(
                    RecordKind::Accepted,
                    &format!("{i:016x}-0"),
                    1_000,
                    "exact",
                );
                record.source = Some(source.clone());
                record.opts = Some(opts.clone());
                self.on
                    .span(span, None, self.on.request(), |_| journal.append(&record))?;
            }
        }
        let dir = self.ctx.dir.join("journal-full");
        let (_, replay) = self
            .on
            .span("jobd.journal.replay", None, self.on.request(), |_| {
                Journal::open(&dir, Durability::Full, Faults::disabled())
            })?;
        self.out.check(replay.records.len() == JOURNAL_RECORDS);
        Ok(())
    }

    /// `result_to_json` and its serialization, on the hot keys' results.
    fn protocol_layer(&mut self) -> io::Result<()> {
        for key in mix::hot_keys(self.ctx.seed) {
            let (matrix, labels) = &self.sets[key.dataset];
            let engine = EngineConfig::explicit(runs::THREADS, 0);
            let result =
                maxt_with_config(matrix, labels, &serve::key_opts(&key), engine).map_err(other)?;
            for _ in 0..CACHE_REPS {
                let line = self
                    .on
                    .span("jobd.protocol.encode", None, self.on.request(), |_| {
                        protocol::result_to_json(1, &result, None).to_json()
                    });
                let back = Json::parse(&line)
                    .ok()
                    .and_then(|j| protocol::result_from_json(&j).ok());
                self.out.check(
                    back.is_some_and(|r| data::maxt_digest(&r) == data::maxt_digest(&result)),
                );
            }
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let inputs = Inputs::new(&ctx.dir);
    inputs.write(ctx.seed)?;
    let sets = inputs.load()?;
    let mut p = Profile {
        ctx,
        on: Tracer::new(true),
        off: Tracer::new(false),
        inputs,
        sets,
        out: Outcome::default(),
        classes: BTreeMap::new(),
        busy: Vec::new(),
        gene_perms: f64::NAN,
    };
    let focus = |name: &str, many: usize| if ctx.workload == name { many } else { 1 };
    let maxt = p.maxt_layers(focus("maxt-paper", 3))?;
    let boot = p.boot_layers(focus("boot-paper", 2))?;
    let served = p.serve_layers(ctx.workload == "serve-mix")?;
    p.manager_layers()?;
    p.accept_layers()?;
    p.journal_layers()?;
    p.protocol_layer()?;

    let spans = p.on.spans();
    let times = trace::self_times(&spans);
    let per =
        |name: &str, keep: &dyn Fn(u64) -> bool| trace::per_request(&spans, &times, name, keep);
    let med = |name: &str| stats::median(&per(name, &|_| true));
    let mut out = std::mem::take(&mut p.out);

    for (metric, span) in [
        ("microarray.io.read_s", "microarray.io.read"),
        ("core.digest.dataset_s", "core.digest.dataset"),
        ("core.stats.prepare_s", "core.stats.prepare"),
        (
            "core.stats.prepare_s.wilcoxon",
            "core.stats.prepare.wilcoxon",
        ),
        ("core.perm.stream_s", "core.perm.stream"),
        ("core.perm.boot_stream_s", "core.perm.boot_stream"),
        ("core.maxt.engine.chunk_s", "core.maxt.engine.chunk"),
        ("core.maxt.finalize_s", "core.maxt.finalize"),
        ("core.boot.run_s", "core.boot.run"),
        ("core.boot.run_1t_s", "core.boot.run_1t"),
    ] {
        out.add(metric, med(span), "s");
    }
    // Engine chunks, each against its own workers' busy times: the part of
    // a chunk no worker was busy is pool start-up and the merge.
    let chunks: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.maxt.engine.chunk")
        .map(|s| s.end - s.start)
        .collect();
    let per_chunk = |f: &dyn Fn(f64, &[f64]) -> f64| -> f64 {
        let values: Vec<f64> = chunks.iter().zip(&p.busy).map(|(&c, b)| f(c, b)).collect();
        stats::median(&values)
    };
    let max = |b: &[f64]| b.iter().copied().fold(0.0, f64::max);
    let busy_sum = per_chunk(&|_, b| b.iter().sum());
    out.add("core.maxt.engine.busy_sum_s", busy_sum, "s");
    out.add(
        "core.maxt.engine.busy_max_s",
        per_chunk(&|_, b| max(b)),
        "s",
    );
    let imbalance = per_chunk(&|_, b| max(b) * b.len() as f64 / b.iter().sum::<f64>());
    out.add("core.maxt.engine.imbalance", imbalance, "ratio");
    out.add(
        "core.maxt.engine.merge_s",
        per_chunk(&|c, b| c - max(b)),
        "s",
    );
    out.add(
        "core.maxt.engine.gene_perms_per_busy_s",
        p.gene_perms / busy_sum,
        "1/s",
    );
    out.add(
        "core.boot.thread_speedup",
        med("core.boot.run_1t") / med("core.boot.run"),
        "ratio",
    );

    let classes = &p.classes;
    for class in Class::ALL {
        let of = |r: u64| classes.get(&r) == Some(&class);
        let c = class.as_str();
        for (metric, span) in [
            ("jobd.client.submit_ack_ms", "jobd.client.submit"),
            ("jobd.client.result_wait_ms", "jobd.client.result"),
            ("jobd.json.parse_ms", "jobd.json.parse"),
            ("jobd.manager.submit_ms", "jobd.manager.submit"),
        ] {
            out.add(
                format!("{metric}.{c}"),
                1e3 * stats::median(&per(span, &of)),
                "ms",
            );
        }
    }
    for (metric, span) in [
        ("jobd.manager.accept_ms.off", "jobd.manager.accept.off"),
        ("jobd.manager.accept_ms.batch", "jobd.manager.accept.batch"),
        ("jobd.manager.accept_ms.full", "jobd.manager.accept.full"),
        ("jobd.cache.probe_ms", "jobd.cache.probe"),
        ("jobd.cache.store_ms", "jobd.cache.store"),
        ("jobd.journal.append_ms.full", "jobd.journal.append.full"),
        ("jobd.journal.append_ms.batch", "jobd.journal.append.batch"),
        ("jobd.journal.replay_ms", "jobd.journal.replay"),
        ("jobd.protocol.encode_ms", "jobd.protocol.encode"),
    ] {
        out.add(metric, 1e3 * med(span), "ms");
    }

    // The instrument: overhead and coverage on the workload's own operation.
    let (op, root) = match ctx.workload.as_str() {
        "maxt-paper" => (&maxt, "core.maxt.op"),
        "boot-paper" => (&boot, "core.boot.op"),
        _ => (&served, "serve.request"),
    };
    let (traced, untraced) = (stats::median(&op.traced), stats::median(&op.untraced));
    out.add(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    let covered: f64 = spans
        .iter()
        .zip(&times)
        .filter(|(s, _)| op.requests.contains(&s.request) && (s.parent.is_some() || s.name == root))
        .map(|(_, t)| t)
        .sum();
    out.add("trace.op_coverage", covered / op.traced_total, "ratio");
    out.add("trace.spans", spans.len() as f64, "count");

    let path = ctx
        .out
        .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    std::fs::write(&path, trace::to_json(&spans).to_json())?;
    println!("trace {} spans written to {}", spans.len(), path.display());
    Ok(out)
}
