//! The job executor: one plan → run → merge → finalize cycle for every job
//! the daemon runs.
//!
//! The paper's `pmaxT` is this cycle run once: the master splits the
//! permutation index range into contiguous chunks, workers compute them with
//! skip-ahead, and the master merges exact counts into p-values. jobd runs
//! it for three kinds of job, each a [`JobKind`]:
//!
//! - **maxT counts** ([`Counts`]): units are permutation spans of
//!   `ManagerConfig::span`, a part is one span's exceedance counts, every
//!   merge stores the merged prefix as a checkpoint, and finalizing turns
//!   the counts into p-values.
//! - **bootstrap** ([`Bands`]): units are gene bands, one per roster
//!   participant (the whole gene range on a lone daemon), a part is one
//!   band's interval estimates, and the merge that completes the range
//!   stores them as a `.boot` cache entry.
//! - **adaptive** ([`Adaptive`]): one unit, the whole run from the cached
//!   exact prefix, always on this daemon — the live gene set shrinks between
//!   engine chunks, which a unit range cannot express. Its exact-prefix
//!   watermark is stored as an ordinary checkpoint.
//!
//! ## Scheduling
//!
//! Every runnable job waits in the manager's one bounded queue. A worker
//! that pops a local job runs **one unit** of it and requeues the job at the
//! back while units remain, so jobs interleave round-robin and a short job
//! never starves behind a long one. A worker that pops a sharded job drives
//! the whole roster: one dispatcher thread per peer sends `span_exec`
//! requests, a local participant runs this daemon's share, a dead peer's
//! units go to one orphan queue that every survivor drains, and the popping
//! worker merges.
//!
//! ## Determinism
//!
//! Parts merge strictly at the frontier, in unit order, and a duplicate (a
//! unit re-run after its peer was declared dead) is dropped by its start
//! index. Units are fixed slices of skip-ahead streams and counts are
//! integers, so a served result is bitwise-identical to a serial run
//! whatever the span size, roster, interleaving or failure history.
//!
//! ## Failure domains
//!
//! A panic in a unit — real, or the injected `worker_panic` — is caught at
//! the unit boundary and fails the *job*, never the daemon; the injected
//! `span_io` error takes the ordinary engine-error path. Either way the
//! unit's part is discarded, so the job's durable state stays its last
//! merged checkpoint and resubmitting the identical request resumes there,
//! bitwise-identically. Cancellation is polled between engine batches, and
//! an interrupted unit is discarded the same way.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sprint::checkpoint::CheckpointState;
use sprint_core::adaptive::{AdaptiveConfig, AdaptiveOutcome, AdaptiveReport, AdaptiveRunner};
use sprint_core::admit::{self as core_admit, Run};
use sprint_core::boot::{self, BootstrapResult};
use sprint_core::error::Error as CoreError;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::ChunkHooks;
use sprint_core::maxt::{CountAccumulator, MaxTResult};
use sprint_core::options::{Mode, PmaxtOptions, Workload};
use sprint_core::perm::ResamplingStream;
use sprint_core::pmaxt::span_plan;

use crate::cache::{CacheKey, CacheProbe, ResultCache};
use crate::client::RetryPolicy;
use crate::faults::{crash_point, FaultKind};
use crate::journal::{JournalRecord, RecordKind};
use crate::json::Json;
use crate::manager::{
    plock, AdaptiveBrief, CacheDisposition, Inner, JobError, JobEvent, JobState, JobStatus,
};
use crate::protocol;
use crate::shard::{self, slice_spans, PeerError, PeerLink, ShardStats, SpanQueue};

/// Everything a unit needs of its job but its matrix, which the job's
/// progress holds until the job is terminal. Immutable after admission,
/// but for the stream a local maxT job keeps between its units, which a
/// terminal job drops.
pub(crate) struct JobWork {
    /// The admitted run: labels, B, mode (env override folded in), engine
    /// geometry and options.
    pub(crate) run: Run,
    /// Gene rows of the job's matrix.
    pub(crate) genes: usize,
    pub(crate) check_digest: u64,
    pub(crate) cached: bool,
    /// Dataset path for sharded dispatch (peers read it themselves).
    pub(crate) source: Option<PathBuf>,
    /// The stream where the last unit run here left it: the next unit in
    /// order draws on from it, and any other builds its own and skips once.
    pub(crate) stream: Mutex<Option<Box<dyn ResamplingStream>>>,
}

/// Mutable per-job state, guarded by one mutex.
pub(crate) struct JobProgress {
    pub(crate) state: JobState,
    /// The matrix units run on: scorer-prepared for the maxT kinds, the
    /// NA-canonical data for bootstrap. Released when the job turns
    /// terminal; a running unit holds its own reference.
    pub(crate) data: Option<Arc<Matrix>>,
    /// Permutations merged (maxT), or `b` once a bootstrap or adaptive run
    /// is complete.
    pub(crate) cursor: u64,
    /// Counts of the merged prefix (the maxT kinds); dropped, like the
    /// matrix, when the job turns terminal.
    pub(crate) counts: CountAccumulator,
    pub(crate) computed: u64,
    pub(crate) cache: CacheDisposition,
    pub(crate) secs_per_perm: Option<f64>,
    /// The job's output while it is built — the bootstrap bands merged so
    /// far, or an adaptive run's outcome — and then the finished payload,
    /// until the manager moves it to its store of finished payloads.
    pub(crate) payload: Option<Payload>,
    /// Summary of a finished adaptive run, kept with the job's record.
    pub(crate) brief: Option<AdaptiveBrief>,
    pub(crate) error: Option<String>,
}

/// A finished job's output, as the manager's store of finished payloads
/// keeps it.
#[derive(Debug)]
pub(crate) enum Payload {
    /// maxT p-values, with an adaptive run's per-gene report.
    MaxT(MaxTResult, Option<AdaptiveReport>),
    /// Bootstrap interval estimates.
    Boot(BootstrapResult),
}

impl Payload {
    /// The bytes the store charges for it: its per-gene arrays, 32 per gene
    /// for a maxT result.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of_val as size;
        match self {
            Payload::MaxT(r, report) => {
                let result = size(&r.teststat[..])
                    + size(&r.rawp[..])
                    + size(&r.adjp[..])
                    + size(&r.order[..]);
                result
                    + report.as_ref().map_or(0, |a| {
                        size(&a.scored[..])
                            + size(&a.counts[..])
                            + size(&a.stopped_at[..])
                            + size(&a.p_lower[..])
                            + size(&a.p_upper[..])
                            + size(&a.p_point[..])
                            + size(&a.tail[..])
                    })
            }
            Payload::Boot(r) => {
                let ends = [&r.theta, &r.se, &r.pct_lo, &r.pct_hi, &r.bca_lo, &r.bca_hi];
                ends.iter().map(|v| size(&v[..])).sum()
            }
        }
    }
}

impl JobProgress {
    /// A queued job over `data` with nothing computed yet.
    pub(crate) fn new(data: Arc<Matrix>) -> JobProgress {
        JobProgress {
            state: JobState::Queued,
            cursor: 0,
            counts: CountAccumulator::new(data.rows()),
            data: Some(data),
            computed: 0,
            cache: CacheDisposition::Uncached,
            secs_per_perm: None,
            payload: None,
            brief: None,
            error: None,
        }
    }
}

/// Drop what only a live job needs — its matrix, its counts and its kept
/// stream — once `job` is terminal (`prog` is its progress, locked).
pub(crate) fn release(work: &JobWork, prog: &mut JobProgress) {
    prog.data = None;
    prog.counts = CountAccumulator::new(0);
    *plock(&work.stream) = None;
}

pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) key: CacheKey,
    pub(crate) work: JobWork,
    pub(crate) cancel: AtomicBool,
    /// Cursor plus live intra-unit progress, updated lock-free by engine
    /// workers for cheap status/ETA reads.
    pub(crate) live_done: AtomicU64,
    /// Wire counters when this job is sharded across peer daemons.
    pub(crate) shard: Option<ShardStats>,
    /// Recovery provenance: re-enqueued from the journal after a restart.
    pub(crate) recovered: bool,
    /// Journal bookkeeping: set once the accept record is appended (only
    /// then do lifecycle records make sense), and once-guards for the
    /// started/terminal records so retries and races stay idempotent.
    pub(crate) jrn_accepted: AtomicBool,
    jrn_started: AtomicBool,
    jrn_closed: AtomicBool,
    /// Set by the job's first successful `result` fetch; the server keeps
    /// the encoded line of a job fetched before.
    pub(crate) fetched: AtomicBool,
    pub(crate) prog: Mutex<JobProgress>,
    /// Watchers' senders, dropped once the terminal event is sent.
    pub(crate) subs: Mutex<Vec<mpsc::Sender<JobEvent>>>,
}

impl Job {
    pub(crate) fn new(
        id: u64,
        key: CacheKey,
        work: JobWork,
        prog: JobProgress,
        sharded: bool,
        recovered: bool,
    ) -> Job {
        Job {
            id,
            key,
            work,
            cancel: AtomicBool::new(false),
            live_done: AtomicU64::new(prog.cursor),
            shard: sharded.then(ShardStats::default),
            recovered,
            jrn_accepted: AtomicBool::new(false),
            jrn_started: AtomicBool::new(false),
            jrn_closed: AtomicBool::new(false),
            fetched: AtomicBool::new(false),
            prog: Mutex::new(prog),
            subs: Mutex::new(Vec::new()),
        }
    }

    /// Point-in-time status.
    pub(crate) fn status(&self) -> JobStatus {
        let prog = plock(&self.prog);
        let done = self.live_done.load(Ordering::Relaxed).max(prog.cursor);
        let eta_secs = match prog.state {
            JobState::Queued | JobState::Running => prog
                .secs_per_perm
                .map(|per| (self.work.run.b.saturating_sub(done)) as f64 * per),
            _ => None,
        };
        JobStatus {
            id: self.id,
            state: prog.state,
            done,
            total: self.work.run.b,
            computed: prog.computed,
            cache: prog.cache,
            eta_secs,
            error: prog.error.clone(),
            comm: self.shard.as_ref().map(|s| s.snapshot()),
            adaptive: prog.brief,
            recovered: self.recovered,
        }
    }

    /// The current status as a progress event.
    pub(crate) fn event(&self) -> JobEvent {
        let st = self.status();
        JobEvent {
            job: st.id,
            state: st.state,
            done: st.done,
            total: st.total,
            eta_secs: st.eta_secs,
            comm: st.comm,
        }
    }

    /// Send the current status to every watcher; a terminal event is the
    /// last, so the watchers' senders go with it.
    fn emit(&self) {
        let event = self.event();
        let mut subs = plock(&self.subs);
        subs.retain(|tx| tx.send(event.clone()).is_ok());
        if event.state.is_terminal() {
            *subs = Vec::new();
        }
    }
}

/// Where a request enters the executor.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Entry {
    /// A client submission.
    Submit,
    /// A unit of a peer coordinator's job, with the coordinator's resolved
    /// B, which this daemon must reproduce from its own dataset copy.
    Peer(u64, Unit),
}

/// An admitted request: the run, its matrix, and where it runs.
pub(crate) struct Admission {
    pub(crate) run: Run,
    /// The NA-canonical matrix (also the cache-key input): the submitted
    /// one, shared, unless an NA code rewrote it.
    pub(crate) data: Arc<Matrix>,
    /// Split across the peer roster instead of run on this daemon alone.
    pub(crate) sharded: bool,
}

/// Admit a client submission or a peer unit. Core admission
/// ([`sprint_core::admit`]) decides the run itself — labels, NA, B, the
/// option cell, geometry and memory; this adds only what is jobd's own: a
/// draining daemon takes nothing, a submission with a dataset path shards
/// across a peer roster, and a peer unit must reproduce its coordinator's
/// B and fall inside its range.
pub(crate) fn admit(
    inner: &Inner,
    data: Arc<Matrix>,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    has_source: bool,
    entry: Entry,
) -> Result<Admission, JobError> {
    if inner.shutdown.load(Ordering::Relaxed) || inner.draining.load(Ordering::Relaxed) {
        return Err(JobError::ShuttingDown);
    }
    let refuse = |param: &'static str, value: String| {
        Err(JobError::Invalid(CoreError::BadOption { param, value }))
    };
    let job_threads = inner.cfg.job_threads;
    let at = match entry {
        Entry::Submit => core_admit::Entry::Submit { job_threads },
        Entry::Peer(..) => core_admit::Entry::Span { job_threads },
    };
    let adm = core_admit::admit(&*data, classlabel, opts, at).map_err(JobError::Invalid)?;
    let (b, run) = (adm.run.b, adm.run);
    // Keep the submitted matrix unless the NA code rewrote it.
    let data = owned(adm.data).map_or(data, Arc::new);
    let sharded = match entry {
        // Adaptive runs stay on this daemon (see the module docs).
        Entry::Submit => has_source && run.mode == Mode::Exact && !inner.cfg.peers.is_empty(),
        Entry::Peer(b_resolved, (start, take)) => {
            // A peer with a stale or divergent file must never contribute.
            if b_resolved != b {
                return refuse(
                    "b",
                    format!(
                        "coordinator resolved B={b_resolved} but this daemon resolves B={b} \
                         (dataset or option drift between peers)"
                    ),
                );
            }
            let (end, what) = if opts.workload == Workload::Bootstrap {
                (data.rows() as u64, "gene rows")
            } else {
                (b, "permutations")
            };
            if start.checked_add(take).is_none_or(|e| e > end) {
                return refuse(
                    "span",
                    format!("[{start}, {start}+{take}) exceeds {end} {what}"),
                );
            }
            false
        }
    };
    Ok(Admission { run, data, sharded })
}

/// The matrix a validation or preparation step made, when it made one
/// rather than borrowing its input.
fn owned(m: Cow<'_, Matrix>) -> Option<Matrix> {
    match m {
        Cow::Owned(m) => Some(m),
        Cow::Borrowed(_) => None,
    }
}

impl JobWork {
    /// Ready an admitted request for its units: the admitted run, and the
    /// matrix the units run on — scorer-prepared for the maxT kinds.
    pub(crate) fn new(
        adm: Admission,
        source: Option<PathBuf>,
        check_digest: u64,
    ) -> (JobWork, Arc<Matrix>) {
        let Admission { run, data, .. } = adm;
        let prepared = if run.opts.workload == Workload::Bootstrap {
            data
        } else {
            // Shared unless the scorer ranks it.
            owned(run.prepare(&data)).map_or(data, Arc::new)
        };
        let work = JobWork {
            run,
            genes: prepared.rows(),
            check_digest,
            cached: false,
            source,
            stream: Mutex::new(None),
        };
        (work, prepared)
    }
}

/// Unit `[start, start + take)` in its kind's own coordinates: permutation
/// indices for maxT spans, gene rows for bootstrap bands.
pub(crate) type Unit = (u64, u64);

/// One kind of job, as the executor drives it: a range of units that run
/// independently — on this daemon or on a peer — and merge in order. Every
/// kind asks a peer for a unit with the same `span_exec` request, whose
/// options (`workload` included) tell the peer which kind it serves.
trait JobKind: Sync {
    /// What running one unit produces.
    type Part: Send;

    /// `(frontier, end)`: where the next unit starts, and where the job is
    /// complete — by default the permutation cursor and `B`.
    fn extent(&self, work: &JobWork, prog: &JobProgress) -> (u64, u64) {
        (prog.cursor, work.run.b)
    }

    /// Largest unit one participant takes at a time, given the configured
    /// span — by default everything that remains.
    fn granule(&self, _span: u64) -> u64 {
        u64::MAX
    }

    /// Run one unit on this daemon over the job's matrix `data`: its part,
    /// and the seconds it spent in the kernel (for the shard telemetry).
    fn run(
        &self,
        work: &JobWork,
        data: &Matrix,
        unit: Unit,
        hooks: ChunkHooks<'_>,
    ) -> Result<(Self::Part, f64), CoreError>;

    /// Merge the part of the unit at the frontier into `prog`, storing the
    /// checkpoint (or the `.boot` entry) it completes.
    fn merge(
        &self,
        cache: Option<&ResultCache>,
        job: &Job,
        prog: &mut JobProgress,
        unit: Unit,
        part: Self::Part,
    ) -> Result<(), CoreError>;

    /// Fill in the final result once the frontier has reached the end, when
    /// the merges have not already.
    fn finalize(&self, _work: &JobWork, _data: &Matrix, _prog: &mut JobProgress) {}

    /// A peer's `span_exec` reply carrying one unit's part. Kinds that never
    /// leave their coordinator keep this default and [`JobKind::decode`]'s,
    /// which refuse.
    fn reply(&self, _unit: Unit, _part: &Self::Part, _kernel_secs: f64) -> Json {
        protocol::err_response("this job kind runs on its coordinator only", "usage")
    }

    /// Decode a peer's reply, checking that it answers `unit`.
    fn decode(&self, _work: &JobWork, _unit: Unit, _resp: &Json) -> Result<Self::Part, String> {
        Err("this job kind runs on its coordinator only".into())
    }
}

/// maxT counts: units are permutation spans, parts their exceedance counts.
struct Counts;

impl JobKind for Counts {
    type Part = CountAccumulator;

    fn granule(&self, span: u64) -> u64 {
        span
    }

    fn run(
        &self,
        work: &JobWork,
        data: &Matrix,
        (start, take): Unit,
        hooks: ChunkHooks<'_>,
    ) -> Result<(CountAccumulator, f64), CoreError> {
        let ctx = work.run.context(data);
        let cpu0 = shard::thread_cpu_secs();
        // Taken out while the unit runs: a unit that stops short drops it.
        let kept = plock(&work.stream).take().filter(|s| s.position() == start);
        let mut stream = kept.unwrap_or_else(|| work.run.stream(start));
        let run = work.run.chunk(&ctx, &mut *stream, take, hooks)?;
        *plock(&work.stream) = Some(stream);
        let busy = run.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        let secs = kernel_secs(cpu0, run.workers.len() <= 1, busy);
        Ok((run.counts, secs))
    }

    fn merge(
        &self,
        cache: Option<&ResultCache>,
        job: &Job,
        prog: &mut JobProgress,
        (_, take): Unit,
        counts: CountAccumulator,
    ) -> Result<(), CoreError> {
        prog.counts.merge(&counts);
        prog.cursor += take;
        prog.computed += take;
        store_checkpoint(cache, job, prog.cursor, &prog.counts);
        Ok(())
    }

    fn finalize(&self, work: &JobWork, data: &Matrix, prog: &mut JobProgress) {
        let result = work.run.context(data).finalize(&prog.counts);
        prog.payload = Some(Payload::MaxT(result, None));
    }

    fn reply(&self, (start, take): Unit, counts: &CountAccumulator, kernel_secs: f64) -> Json {
        protocol::span_counts_to_json(start, take, &counts.to_flat(), kernel_secs)
    }

    fn decode(&self, work: &JobWork, unit: Unit, resp: &Json) -> Result<CountAccumulator, String> {
        let (start, take, flat) = protocol::span_counts_from_json(resp)?;
        let genes = work.genes;
        if (start, take) != unit || flat.len() != CountAccumulator::new(genes).to_flat().len() {
            return Err("span/shape mismatch in response".into());
        }
        // A span of `take` permutations counts each of them once: a reply
        // claiming more would corrupt the merged counts and the checkpoint.
        let counts = CountAccumulator::from_flat(&flat, genes);
        let mut all = counts.count_raw.iter().chain(&counts.count_adj);
        if counts.n_perm != take || all.any(|&c| c > take) {
            return Err("counts overrun their span in response".into());
        }
        Ok(counts)
    }
}

/// Bootstrap: units are gene bands, parts their interval estimates. A band
/// computes the *full* replicate set for its rows, and per-gene
/// finalization is independent, so a band is bitwise-equal to the same rows
/// of a whole run. Interval estimates are order statistics over every
/// replicate, so a band has no checkpointable prefix: a participant's whole
/// band is one unit, whatever the span.
struct Bands;

impl JobKind for Bands {
    type Part = BootstrapResult;

    fn extent(&self, work: &JobWork, prog: &JobProgress) -> (u64, u64) {
        let merged = match &prog.payload {
            Some(Payload::Boot(bands)) => bands.genes(),
            _ => 0,
        };
        (merged as u64, work.genes as u64)
    }

    fn run(
        &self,
        work: &JobWork,
        data: &Matrix,
        (start, take): Unit,
        _hooks: ChunkHooks<'_>,
    ) -> Result<(BootstrapResult, f64), CoreError> {
        let cpu0 = shard::thread_cpu_secs();
        let t0 = Instant::now();
        let genes = start as usize..(start + take) as usize;
        let band = boot::boot_run_on(&work.run, data, genes)?;
        let inline = work.run.engine.threads <= 1;
        let secs = kernel_secs(cpu0, inline, t0.elapsed().as_secs_f64());
        Ok((band, secs))
    }

    fn merge(
        &self,
        cache: Option<&ResultCache>,
        job: &Job,
        prog: &mut JobProgress,
        _unit: Unit,
        band: BootstrapResult,
    ) -> Result<(), CoreError> {
        match &mut prog.payload {
            Some(Payload::Boot(merged)) => merged.extend(&band)?,
            _ => prog.payload = Some(Payload::Boot(band)),
        }
        let work = &job.work;
        let (merged, genes) = self.extent(work, prog);
        if merged == genes {
            prog.cursor = work.run.b;
            prog.computed = work.run.b;
            if let (Some(cache), Some(Payload::Boot(result))) =
                (cache.filter(|_| work.cached), &prog.payload)
            {
                if let Err(e) = cache.store_boot(&job.key, work.run.b, result) {
                    warn_store(job, &e);
                }
            }
        }
        Ok(())
    }

    fn reply(&self, _unit: Unit, band: &BootstrapResult, kernel_secs: f64) -> Json {
        protocol::boot_slice_to_json(band, kernel_secs)
    }

    fn decode(&self, work: &JobWork, unit: Unit, resp: &Json) -> Result<BootstrapResult, String> {
        let band = protocol::boot_from_json(resp)?;
        if (band.offset as u64, band.genes() as u64) != unit || band.replicates != work.run.b - 1 {
            return Err("band shape mismatch in response".into());
        }
        Ok(band)
    }
}

/// Adaptive maxT: one unit — the whole run, resumed from the cached exact
/// prefix — on this daemon only.
#[derive(Default)]
struct Adaptive {
    /// Exact-prefix counts the run resumes from (`None` for a cold start).
    seed: Option<CountAccumulator>,
}

impl JobKind for Adaptive {
    type Part = AdaptiveOutcome;

    fn run(
        &self,
        work: &JobWork,
        data: &Matrix,
        _unit: Unit,
        hooks: ChunkHooks<'_>,
    ) -> Result<(AdaptiveOutcome, f64), CoreError> {
        let ctx = work.run.context(data);
        let mut runner = AdaptiveRunner::new(&work.run, &ctx, data, AdaptiveConfig::default());
        if let Some(seed) = &self.seed {
            runner.resume_from(seed);
        }
        Ok((runner.run(hooks)?, 0.0))
    }

    /// The watermark is stored as an ordinary exact checkpoint — but only
    /// when it improves on the stored cursor, so an adaptive run never
    /// clobbers a longer exact prefix some other job already paid for. A
    /// later exact submission of the same stream then probes `Partial` at the
    /// watermark and extends it, reproducing a fresh exact run bit for bit.
    fn merge(
        &self,
        cache: Option<&ResultCache>,
        job: &Job,
        prog: &mut JobProgress,
        _unit: Unit,
        out: AdaptiveOutcome,
    ) -> Result<(), CoreError> {
        let work = &job.work;
        if let Some(c) = cache.filter(|_| work.cached) {
            let improves = match c.probe(&job.key, work.run.b) {
                CacheProbe::Miss => true,
                CacheProbe::Partial(s) => s.cursor < out.watermark.n_perm,
                CacheProbe::Hit(_) | CacheProbe::Beyond => false,
            };
            if improves && out.watermark.n_perm > 0 {
                store_checkpoint(cache, job, out.watermark.n_perm, &out.watermark);
            }
        }
        // Stream cursor the runner reached: genes live at the end were
        // scored through it (all-stopped runs halt earlier).
        let reached = out.report.scored.iter().copied().max().unwrap_or(0);
        prog.computed = reached.saturating_sub(prog.cursor);
        prog.cursor = work.run.b;
        prog.payload = Some(Payload::MaxT(out.result, Some(out.report)));
        Ok(())
    }

    /// Reached without a run only when the cache already held the whole
    /// exact stream: every gene was scored over all of it, so the envelope
    /// collapses to the exact p-value and nothing was spent.
    fn finalize(&self, work: &JobWork, data: &Matrix, prog: &mut JobProgress) {
        if prog.payload.is_some() {
            return;
        }
        let result = work.run.context(data).finalize(&prog.counts);
        let (genes, b) = (result.rawp.len(), work.run.b);
        let report = AdaptiveReport {
            b,
            scored: vec![b; genes],
            counts: prog.counts.count_raw.clone(),
            stopped_at: vec![None; genes],
            p_lower: result.rawp.clone(),
            p_upper: result.rawp.clone(),
            p_point: result.rawp.clone(),
            tail: vec![None; genes],
            gene_perms_scored: 0,
            gene_perms_exact: genes as u64 * b,
            watermark: b,
            mass_deactivation: false,
        };
        prog.payload = Some(Payload::MaxT(result, Some(report)));
    }
}

/// Store `counts`, the exact prefix `[0, cursor)` of `job`'s stream, as its
/// checkpoint — when the job caches at all.
fn store_checkpoint(
    cache: Option<&ResultCache>,
    job: &Job,
    cursor: u64,
    counts: &CountAccumulator,
) {
    let Some(cache) = cache.filter(|_| job.work.cached) else {
        return;
    };
    let state = CheckpointState {
        digest: job.work.check_digest,
        cursor,
        b: job.work.run.b,
        counts: counts.clone(),
    };
    if let Err(e) = cache.store(&job.key, &state) {
        warn_store(job, &e);
    }
}

fn warn_store(job: &Job, e: &std::io::Error) {
    eprintln!(
        "jobd: warning: failed to write cache entry {}: {e}",
        job.key.hex()
    );
}

/// Seconds of kernel work in one unit, for the shard telemetry counters:
/// the caller's thread-CPU delta since `cpu0` when the unit ran `inline` on
/// it (one worker — immune to CPU oversubscription across roster daemons),
/// `elsewhere` (the engine workers' busy sum, or wall time) otherwise.
fn kernel_secs(cpu0: Option<f64>, inline: bool, elsewhere: f64) -> f64 {
    match (cpu0, shard::thread_cpu_secs()) {
        (Some(a), Some(z)) if inline => (z - a).max(0.0),
        _ => elsewhere,
    }
}

/// Finalize when the frontier has reached the end, completing the job's
/// payload and [`release`]-ing the rest; returns whether it had. The caller
/// moves the payload to the manager's store.
fn finish<K: JobKind>(kind: &K, work: &JobWork, prog: &mut JobProgress) -> bool {
    let (from, end) = kind.extent(work, prog);
    if from < end {
        return false;
    }
    if let Some(data) = prog.data.take() {
        kind.finalize(work, &data, prog);
    }
    if let Some(Payload::MaxT(_, Some(r))) = &prog.payload {
        prog.brief = Some(AdaptiveBrief {
            genes_stopped: r.genes_stopped() as u64,
            budget_fraction: r.budget_fraction(),
            watermark: r.watermark,
            mass_deactivation: r.mass_deactivation,
        });
    }
    release(work, prog);
    prog.state = JobState::Finished;
    true
}

/// Seed a submitted job's progress from the cache (when there is one), and
/// [`finish`] it on the spot when the cache already completes it — a hit.
pub(crate) fn seed(
    cache: Option<&ResultCache>,
    key: &CacheKey,
    work: &mut JobWork,
    prog: &mut JobProgress,
) -> bool {
    if let Some(cache) = cache {
        work.cached = true;
        prog.cache = probe(cache, key, work, prog);
    }
    match (work.run.opts.workload, work.run.mode) {
        (Workload::Bootstrap, _) => finish(&Bands, work, prog),
        (_, Mode::Adaptive) => finish(&Adaptive::default(), work, prog),
        _ => finish(&Counts, work, prog),
    }
}

/// What the cache already holds of a new job, and how it served it.
fn probe(
    cache: &ResultCache,
    key: &CacheKey,
    work: &mut JobWork,
    prog: &mut JobProgress,
) -> CacheDisposition {
    if work.run.opts.workload == Workload::Bootstrap {
        // Interval estimates are order statistics: there is no prefix state
        // to resume, only a finished `.boot` entry of exactly this B.
        return match cache.probe_boot(key, work.run.b) {
            Some(r) if r.offset == 0 && r.genes() == work.genes => {
                prog.payload = Some(Payload::Boot(r));
                prog.cursor = work.run.b;
                CacheDisposition::Hit
            }
            _ => CacheDisposition::Miss,
        };
    }
    match cache.probe(key, work.run.b) {
        CacheProbe::Hit(state) | CacheProbe::Partial(state) => {
            let from = state.cursor;
            prog.cursor = from;
            prog.counts = state.counts;
            if from == work.run.b {
                CacheDisposition::Hit
            } else if state.b == work.run.b {
                CacheDisposition::Resume { from }
            } else {
                CacheDisposition::Extend { from }
            }
        }
        // The entry covers more than requested: computing fresh must not
        // clobber it.
        CacheProbe::Beyond => {
            work.cached = false;
            CacheDisposition::Uncached
        }
        CacheProbe::Miss => CacheDisposition::Miss,
    }
}

/// Run one unit of a peer coordinator's job over `data` and encode the
/// reply — the `span_exec` verb. Admission has refused adaptive units
/// already.
pub(crate) fn serve_unit(work: &JobWork, data: &Matrix, unit: Unit) -> Result<Json, CoreError> {
    fn go<K: JobKind>(
        kind: &K,
        work: &JobWork,
        data: &Matrix,
        unit: Unit,
    ) -> Result<Json, CoreError> {
        let (part, secs) = kind.run(work, data, unit, ChunkHooks::default())?;
        Ok(kind.reply(unit, &part, secs))
    }
    match work.run.opts.workload {
        Workload::Bootstrap => go(&Bands, work, data, unit),
        Workload::Pmaxt => go(&Counts, work, data, unit),
    }
}

/// Pop jobs until shutdown, running one step of each.
pub(crate) fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut queue = plock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Units catch their own panics; this catches the rest (claim, merge
        // and finalize code), so job-processing code never reaches the
        // daemon's failure domain and this worker moves on.
        let requeue = catch_unwind(AssertUnwindSafe(|| step(inner, &job))).unwrap_or_else(|p| {
            fail_job(
                inner,
                &job,
                format!("worker panicked: {}", panic_message(p.as_ref())),
            );
            false
        });
        if requeue {
            plock(&inner.queue).push_back(job);
            inner.queue_cv.notify_one();
        }
    }
}

/// Claim a popped job and run one step of it: one unit of a local job, the
/// whole roster of a sharded one. Returns whether to requeue it.
fn step(inner: &Inner, job: &Job) -> bool {
    let data = {
        let mut prog = plock(&job.prog);
        if prog.state != JobState::Queued {
            return false;
        }
        if job.cancel.load(Ordering::Relaxed) {
            drop(prog);
            terminate(inner, job, JobState::Cancelled, None);
            return false;
        }
        prog.state = JobState::Running;
        // The step's own reference: the job may turn terminal, and release
        // its matrix, while a unit still runs on it.
        prog.data.clone().expect("a queued job holds its matrix")
    };
    journal_transition(inner, job);
    match (job.work.run.opts.workload, job.work.run.mode) {
        (Workload::Bootstrap, _) => drive(&Bands, inner, job, &data),
        (_, Mode::Adaptive) => {
            let counts = plock(&job.prog).counts.clone();
            let seed = (counts.n_perm > 0).then_some(counts);
            drive(&Adaptive { seed }, inner, job, &data)
        }
        _ => drive(&Counts, inner, job, &data),
    }
}

fn drive<K: JobKind>(kind: &K, inner: &Inner, job: &Job, data: &Matrix) -> bool {
    let (from, end) = kind.extent(&job.work, &plock(&job.prog));
    if from >= end {
        // Complete at claim (e.g. a resumed entry that already covers B).
        return settle(kind, inner, job);
    }
    match &job.shard {
        Some(stats) => {
            shard(kind, inner, job, data, stats, from, end);
            false
        }
        None => {
            let unit = (from, kind.granule(inner.cfg.span).min(end - from));
            run_local(kind, inner, job, data, unit)
        }
    }
}

/// How a unit stopped short of a part.
enum Stop {
    Cancelled,
    Failed(String),
}

/// Run one unit on this daemon behind the two in-unit fault injection points
/// and the panic boundary. The injected panic unwinds exactly as a real
/// engine panic would; the injected I/O error takes the ordinary
/// engine-error path.
fn run_unit<K: JobKind>(
    kind: &K,
    inner: &Inner,
    work: &JobWork,
    data: &Matrix,
    unit: Unit,
    hooks: ChunkHooks<'_>,
) -> Result<(K::Part, f64), Stop> {
    let faults = &inner.cfg.faults;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if faults.fire(FaultKind::WorkerPanic) {
            panic!("injected worker panic (SPRINT_FAULTS worker_panic)");
        }
        if faults.fire(FaultKind::SpanIo) {
            return Err(CoreError::Comm("injected span I/O error".to_string()));
        }
        kind.run(work, data, unit, hooks)
    }));
    match outcome {
        Ok(Ok(done)) => Ok(done),
        Ok(Err(CoreError::Cancelled)) => Err(Stop::Cancelled),
        Ok(Err(e)) => Err(Stop::Failed(e.to_string())),
        Err(p) => Err(Stop::Failed(format!(
            "worker panicked: {}",
            panic_message(p.as_ref())
        ))),
    }
}

/// Run `unit` of a local job over its matrix `data` and merge it. Returns
/// whether units remain.
fn run_local<K: JobKind>(kind: &K, inner: &Inner, job: &Job, data: &Matrix, unit: Unit) -> bool {
    let progress = |n: u64| {
        job.live_done.fetch_add(n, Ordering::Relaxed);
    };
    let hooks = ChunkHooks {
        cancel: Some(&job.cancel),
        progress: Some(&progress),
    };
    let t0 = Instant::now();
    let part = match run_unit(kind, inner, &job.work, data, unit, hooks) {
        Ok((part, _)) => part,
        Err(Stop::Cancelled) => {
            terminate(inner, job, JobState::Cancelled, None);
            return false;
        }
        Err(Stop::Failed(msg)) => {
            fail_job(inner, job, msg);
            return false;
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let mut prog = plock(&job.prog);
    let before = prog.cursor;
    if let Err(e) = kind.merge(inner.cache.as_ref(), job, &mut prog, unit, part) {
        drop(prog);
        fail_job(inner, job, e.to_string());
        return false;
    }
    // ETA model: a unit's wall time per permutation (its work over the
    // engine workers that pull its batches), smoothed across units.
    if prog.cursor > before {
        let per_perm = secs / (prog.cursor - before) as f64;
        prog.secs_per_perm = Some(
            prog.secs_per_perm
                .map_or(per_perm, |old| 0.6 * old + 0.4 * per_perm),
        );
    }
    drop(prog);
    settle(kind, inner, job)
}

/// After a merge: finalize when the frontier reached the end, otherwise
/// park the job for its next unit. Returns whether units remain.
fn settle<K: JobKind>(kind: &K, inner: &Inner, job: &Job) -> bool {
    let mut prog = plock(&job.prog);
    let more = !finish(kind, &job.work, &mut prog);
    if more {
        prog.state = JobState::Queued;
    } else {
        inner.keep_payload(job.id, &mut prog);
    }
    job.live_done.store(prog.cursor, Ordering::Relaxed);
    drop(prog);
    publish(inner, job);
    more
}

/// Per-attempt socket deadline for peer dispatch: long enough for a busy
/// peer to grind a unit, short enough that a hung peer is declared dead and
/// its units reassigned within one retry budget.
const PEER_TIMEOUT: Duration = Duration::from_secs(30);

fn micros(secs: f64) -> u64 {
    (secs.max(0.0) * 1e6) as u64
}

/// Drive a sharded job over `[from, end)` to its end: deal the range across
/// the roster (this daemon plus every peer) with the same [`span_plan`]
/// arithmetic the SPMD ranks use, slice each share into units, dispatch
/// remote units as `span_exec` requests, run the local share on a scoped
/// thread, and merge on this one, in frontier order, so every checkpoint is
/// an exact prefix and every unit is counted once.
fn shard<K: JobKind>(
    kind: &K,
    inner: &Inner,
    job: &Job,
    data: &Matrix,
    stats: &ShardStats,
    from: u64,
    end: u64,
) {
    let work = &job.work;
    let peers = &inner.cfg.peers;
    let faults = &inner.cfg.faults;
    // Participant 0 is this daemon, so the identity permutation (index 0)
    // is always computed where the coordinator lives.
    let granule = kind.granule(inner.cfg.span);
    let mut queues: Vec<VecDeque<Unit>> = match span_plan(end - from, 1 + peers.len()) {
        Ok(plan) => plan
            .iter()
            .map(|&(s, t)| slice_spans(from + s, t, granule).into())
            .collect(),
        Err(e) => return fail_job(inner, job, e.to_string()),
    };
    stats.peers.store(queues.len() as u64, Ordering::Relaxed);
    let units = queues.iter().map(|q| q.len() as u64).sum();
    stats.spans_total.store(units, Ordering::Relaxed);
    let path = work
        .source
        .as_ref()
        .expect("sharded job has a source path")
        .display()
        .to_string();
    let orphans = SpanQueue::new();
    let done = AtomicBool::new(false);
    // Blocking next unit for one participant: its own share first, then
    // orphans of dead peers. Polls the orphan queue until the job is done so
    // a late peer death never strands a unit — the merger flips `done` when
    // the frontier reaches the end (or on failure).
    let next = |own: &mut VecDeque<Unit>| loop {
        let stop = [&done, &job.cancel, &inner.shutdown];
        if stop.iter().any(|flag| flag.load(Ordering::Relaxed)) {
            return None;
        }
        if let Some(unit) = own.pop_front().or_else(|| orphans.pop()) {
            return Some(unit);
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    // Participants report a unit's part, or a failure that makes the work
    // invalid everywhere (engine error, rejected request): the job fails,
    // reassignment cannot help.
    let (tx, rx) = mpsc::channel::<Result<(Unit, K::Part), String>>();
    let mut failure: Option<String> = None;

    std::thread::scope(|scope| {
        // Peer dispatchers: participants 1..roster, one thread per peer.
        for (idx, addr) in peers.iter().enumerate() {
            let mut own = std::mem::take(&mut queues[idx + 1]);
            let (tx, next, orphans, path) = (tx.clone(), &next, &orphans, &path);
            scope.spawn(move || {
                let link = PeerLink {
                    addr,
                    policy: RetryPolicy {
                        attempts: 3,
                        base: Duration::from_millis(50),
                        max: Duration::from_secs(2),
                        seed: 0x7065_6572 ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    },
                    timeout: Some(PEER_TIMEOUT),
                    stats,
                    faults,
                };
                // Declare this peer dead: its unfinished units, the in-flight
                // one included, go to the orphan queue for the survivors.
                let die = |own: &mut VecDeque<Unit>, unit: Unit, why: &str| {
                    let n = orphans.reassign(std::iter::once(unit).chain(own.drain(..)));
                    stats.peers_failed.fetch_add(1, Ordering::Relaxed);
                    stats.spans_reassigned.fetch_add(n, Ordering::Relaxed);
                    eprintln!("jobd: shard: peer {addr} lost ({why}); {n} unit(s) reassigned");
                };
                // A panic here would lose this peer's in-flight unit and
                // queue, and the job would wait for them forever: catch it at
                // this boundary, as units do, and fail the job instead.
                let dispatched = catch_unwind(AssertUnwindSafe(|| {
                    while let Some(unit) = next(&mut own) {
                        if faults.fire(FaultKind::PeerDrop) {
                            return die(&mut own, unit, "injected peer_drop");
                        }
                        if faults.fire(FaultKind::PeerPanic) {
                            panic!("injected peer dispatcher panic (SPRINT_FAULTS peer_panic)");
                        }
                        let (s, t) = unit;
                        let req =
                            protocol::span_exec_request(path, &work.run.opts, work.run.b, s, t);
                        let resp = match link.exec(&req) {
                            Ok(resp) => resp,
                            Err(PeerError::Dead(why)) => return die(&mut own, unit, &why),
                            Err(PeerError::Rejected(why)) => {
                                let msg =
                                    format!("peer {addr} rejected unit [{s}, {}): {why}", s + t);
                                let _ = tx.send(Err(msg));
                                return;
                            }
                        };
                        match kind.decode(work, unit, &resp) {
                            Ok(part) => {
                                let secs = resp.get("kernel_secs").and_then(Json::as_f64);
                                let secs = micros(secs.unwrap_or(0.0));
                                stats
                                    .kernel_remote_micros
                                    .fetch_add(secs, Ordering::Relaxed);
                                stats.spans_remote.fetch_add(1, Ordering::Relaxed);
                                let _ = tx.send(Ok((unit, part)));
                            }
                            Err(e) => return die(&mut own, unit, &format!("malformed reply: {e}")),
                        }
                    }
                }));
                if let Err(p) = dispatched {
                    let why = panic_message(p.as_ref());
                    let _ = tx.send(Err(format!("peer {addr} dispatcher panicked: {why}")));
                }
            });
        }

        // Local participant: participant 0, plus whatever dead peers leave
        // behind.
        let mut own = std::mem::take(&mut queues[0]);
        let (local_tx, next) = (tx, &next);
        scope.spawn(move || {
            while let Some(unit) = next(&mut own) {
                let hooks = ChunkHooks {
                    cancel: Some(&job.cancel),
                    progress: None,
                };
                match run_unit(kind, inner, work, data, unit, hooks) {
                    Ok((part, secs)) => {
                        stats
                            .kernel_local_micros
                            .fetch_add(micros(secs), Ordering::Relaxed);
                        stats.spans_local.fetch_add(1, Ordering::Relaxed);
                        let _ = local_tx.send(Ok((unit, part)));
                    }
                    Err(Stop::Cancelled) => return,
                    Err(Stop::Failed(msg)) => {
                        let _ = local_tx.send(Err(msg));
                        return;
                    }
                }
            }
        });

        // Merger: this thread. Units complete in any order; parts merge
        // strictly at the frontier, so the merged state is always the exact
        // accumulation of `[from, frontier)`.
        let mut pending: BTreeMap<u64, (Unit, K::Part)> = BTreeMap::new();
        let mut frontier = from;
        let cursor0 = plock(&job.prog).cursor;
        let t0 = Instant::now();
        for report in rx {
            let (unit, part) = match report {
                Ok(done) => done,
                Err(msg) => {
                    failure.get_or_insert(msg);
                    done.store(true, Ordering::Relaxed);
                    continue;
                }
            };
            // A start behind the frontier or already pending is a duplicate
            // under at-least-once dispatch (a peer was declared dead after
            // actually finishing the unit).
            if failure.is_some() || unit.0 < frontier || pending.contains_key(&unit.0) {
                continue;
            }
            pending.insert(unit.0, (unit, part));
            let mut advanced = false;
            while let Some((unit, part)) = pending.remove(&frontier) {
                let mut prog = plock(&job.prog);
                if let Err(e) = kind.merge(inner.cache.as_ref(), job, &mut prog, unit, part) {
                    failure = Some(e.to_string());
                    done.store(true, Ordering::Relaxed);
                    break;
                }
                frontier += unit.1;
                job.live_done.store(prog.cursor, Ordering::Relaxed);
                let merged = prog.cursor - cursor0;
                if merged > 0 {
                    prog.secs_per_perm = Some(t0.elapsed().as_secs_f64() / merged as f64);
                }
                advanced = true;
            }
            if advanced {
                job.emit();
                inner.bump_change();
                if frontier >= end {
                    done.store(true, Ordering::Relaxed);
                }
            }
        }
    });

    if let Some(msg) = failure {
        return fail_job(inner, job, msg);
    }
    let (frontier, end) = kind.extent(work, &plock(&job.prog));
    if frontier >= end {
        settle(kind, inner, job);
    } else if job.cancel.load(Ordering::Relaxed) {
        terminate(inner, job, JobState::Cancelled, None);
    } else if inner.shutdown.load(Ordering::Relaxed) {
        // Resumable on restart: the checkpoint holds the merged frontier.
        plock(&job.prog).state = JobState::Queued;
        inner.bump_change();
    } else {
        fail_job(
            inner,
            job,
            "sharded run stalled with units unaccounted".to_string(),
        );
    }
}

/// Best-effort text of a panic payload, for [`JobStatus::error`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Tell everyone about `job`'s new state: the manager's bounded set of
/// records once it is terminal (first, so a woken waiter sees the records
/// it evicted gone), subscribers, waiters, the journal.
pub(crate) fn publish(inner: &Inner, job: &Job) {
    if plock(&job.prog).state.is_terminal() {
        inner.retire(job.id);
    }
    job.emit();
    inner.bump_change();
    journal_transition(inner, job);
}

/// Move `job` to a terminal `state` unless it already is terminal. The live
/// counter rolls back to the merged cursor: an interrupted unit's partial
/// progress is discarded with its part.
fn terminate(inner: &Inner, job: &Job, state: JobState, error: Option<String>) {
    {
        let mut prog = plock(&job.prog);
        if prog.state.is_terminal() {
            return;
        }
        job.live_done.store(prog.cursor, Ordering::Relaxed);
        prog.state = state;
        prog.error = error;
        release(&job.work, &mut prog);
    }
    publish(inner, job);
}

/// Force `job` into `Failed` with `reason` (unless already terminal).
fn fail_job(inner: &Inner, job: &Job, reason: String) {
    terminate(inner, job, JobState::Failed, Some(reason));
}

/// Append the journal record for `job`'s current state, if its accept record
/// made it in. The started and terminal records are once-guarded so claim
/// races and driver retries stay idempotent; append errors only warn — the
/// in-memory outcome is already decided, and a missing lifecycle record
/// costs at most a redundant (cache-served) replay after a crash.
fn journal_transition(inner: &Inner, job: &Job) {
    let Some(journal) = &inner.journal else {
        return;
    };
    if !job.jrn_accepted.load(Ordering::SeqCst) {
        return;
    }
    let (state, error) = {
        let prog = plock(&job.prog);
        (prog.state, prog.error.clone())
    };
    let kind = match state {
        // Shutdown parks sharded jobs back to Queued; the accept record
        // already covers that state.
        JobState::Queued => return,
        JobState::Running => {
            if job.jrn_started.swap(true, Ordering::SeqCst) {
                return;
            }
            RecordKind::Started
        }
        JobState::Finished => RecordKind::Finished,
        JobState::Cancelled => RecordKind::Cancelled,
        JobState::Failed => RecordKind::Failed,
    };
    if kind.is_terminal() {
        if job.jrn_closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // The widest crash window the harness drills: outcome decided and
        // (for finishes) the cache entry stored, terminal record not yet on
        // disk. Replay must re-serve the job from the cache, not recompute.
        crash_point("manager.finish");
    }
    let mut rec = JournalRecord::transition(
        kind,
        &job.key.hex(),
        job.work.run.b,
        job.work.run.mode.as_str(),
    );
    if kind == RecordKind::Failed {
        rec.error = error;
    }
    if let Err(e) = journal.append(&rec) {
        eprintln!(
            "jobd: journal {} record for job {} failed: {e}",
            kind.as_str(),
            job.id
        );
    }
    if kind == RecordKind::Started {
        crash_point("manager.start");
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::faults::Faults;
    use crate::manager::tests::{manager, null_heavy_dataset, small_dataset};
    use crate::manager::{JobManager, JobSpec, ManagerConfig};
    use sprint_core::maxt::engine::GENE_TILE;
    use sprint_core::maxt::serial::mt_maxt;
    use sprint_core::options::Precision;

    #[test]
    fn span_replies_whose_counts_overrun_their_span_are_malformed() {
        let (data, raw) = small_dataset();
        let opts = PmaxtOptions::default().permutations(100);
        let entry = sprint_core::admit::Entry::MaxT { engine: None };
        let adm = sprint_core::admit::admit(&data, &raw, &opts, entry).unwrap();
        let genes = data.rows();
        let work = JobWork {
            run: adm.run,
            genes,
            check_digest: 0,
            cached: false,
            source: None,
            stream: Mutex::new(None),
        };
        let (start, take) = (20, 30);
        let reply = |counts: &CountAccumulator| {
            let json = protocol::span_counts_to_json(start, take, &counts.to_flat(), 0.0);
            Counts.decode(&work, (start, take), &json)
        };
        let mut full = CountAccumulator::new(genes);
        full.count_raw.fill(take);
        full.count_adj.fill(take);
        full.n_perm = take;
        assert_eq!(reply(&full), Ok(full.clone()));
        let mut long = full.clone();
        long.n_perm = take + 1;
        let mut over = full.clone();
        over.count_raw[0] = take + 1;
        let mut huge = full.clone();
        huge.count_adj[genes - 1] = u64::MAX;
        for bad in [long, over, huge] {
            assert!(reply(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn request_geometry_is_capped_at_the_host_and_fit_to_the_budget() {
        // Admits and resolves the engine geometry only; never runs these values.
        let (data, raw) = small_dataset();
        let data = Arc::new(data);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mgr = manager(16);
        for workload in [Workload::Pmaxt, Workload::Bootstrap] {
            let opts = PmaxtOptions::default()
                .workload(workload)
                .permutations(97)
                .threads(1_000_000)
                .batch(1 << 40);
            for entry in [Entry::Submit, Entry::Peer(97, (0, 1))] {
                let adm = admit(&mgr.inner, Arc::clone(&data), &raw, &opts, false, entry).unwrap();
                let (work, _) = JobWork::new(adm, None, 0);
                assert_eq!(work.run.engine.threads, cores, "{workload:?}");
                if workload == Workload::Pmaxt {
                    // Every worker's batch buffers together fit the budget.
                    let per_arrangement = cores * (data.cols() + 8 * data.rows() + 8);
                    assert_eq!(
                        work.run.engine.batch,
                        sprint_core::admit::BUDGET_BYTES / per_arrangement
                    );
                }
            }
        }
    }

    #[test]
    fn budgets_count_the_threads_the_job_runs_on() {
        // A request for a million threads runs on the host's cores, stored
        // sampling included, and serves the serial result.
        let (data, raw) = small_dataset();
        let mgr = manager(16);
        let opts = PmaxtOptions::default()
            .permutations(100)
            .fixed_seed_sampling("n")
            .unwrap()
            .threads(1_000_000);
        let info = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: raw.clone(),
                opts: opts.clone(),
                source_path: None,
            })
            .unwrap();
        let served = mgr
            .wait_result(info.id, Some(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(served, mt_maxt(&data, &raw, &opts.threads(1)).unwrap());
        // Bootstrap: a full block of genes, with rows for every core to
        // finalize. The largest B whose block and one sorted row and sort
        // scratch per core fit is accepted (only admitted here, never run),
        // one more is refused.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let genes = GENE_TILE;
        let wide = Arc::new(Matrix::from_vec(genes, 6, vec![1.0; genes * 6]).unwrap());
        let per_replicate = GENE_TILE * 8 + cores.min(GENE_TILE) * 16;
        let largest = (sprint_core::admit::BUDGET_BYTES / per_replicate + 1) as u64;
        let boot = |b: u64| {
            PmaxtOptions::default()
                .workload(Workload::Bootstrap)
                .permutations(b)
                .threads(1_000_000)
        };
        for entry in [Entry::Submit, Entry::Peer(largest, (0, 1))] {
            let adm = admit(
                &mgr.inner,
                Arc::clone(&wide),
                &raw,
                &boot(largest),
                false,
                entry,
            );
            assert_eq!(adm.map(|a| a.run.engine.threads).ok(), Some(cores));
        }
        assert!(matches!(
            admit(
                &mgr.inner,
                wide,
                &raw,
                &boot(largest + 1),
                false,
                Entry::Submit
            ),
            Err(JobError::Invalid(CoreError::BadOption { param: "b", .. }))
        ));
    }

    #[test]
    fn single_job_matches_mt_maxt_bitwise() {
        let (data, labels) = small_dataset();
        let opts = PmaxtOptions::default().permutations(97);
        let mgr = manager(16);
        let info = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone(),
                source_path: None,
            })
            .unwrap();
        assert_eq!(info.total, 97);
        assert_eq!(info.cache, CacheDisposition::Uncached);
        let served = mgr
            .wait_result(info.id, Some(Duration::from_secs(30)))
            .unwrap();
        let direct = mt_maxt(&data, &labels, &opts).unwrap();
        assert_eq!(served, direct);
        let status = mgr.status(info.id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        assert_eq!(status.done, 97);
        assert_eq!(status.computed, 97);
    }

    #[test]
    fn bootstrap_job_matches_boot_run_bitwise() {
        let (data, labels) = small_dataset();
        let opts = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(150);
        let mgr = manager(16);
        let info = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone(),
                source_path: None,
            })
            .unwrap();
        assert_eq!(info.total, 150);
        let served = mgr
            .wait_boot_result(info.id, Some(Duration::from_secs(30)))
            .unwrap();
        let direct = boot::boot_run(&data, &labels, &opts).unwrap();
        assert_eq!(served, direct);
        let status = mgr.status(info.id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        assert_eq!(status.done, 150);
        // The maxT accessor refuses a bootstrap job with a usage error, and
        // vice versa.
        assert!(matches!(
            mgr.result(info.id).unwrap_err(),
            JobError::Invalid(CoreError::BadOption {
                param: "workload",
                ..
            })
        ));
    }

    #[test]
    fn round_robin_interleaves_two_jobs_on_one_worker() {
        let (data, labels) = small_dataset();
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 32,
            cache_dir: None,
            ..ManagerConfig::default()
        })
        .unwrap();
        let submit = |seed: u64| {
            mgr.submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: PmaxtOptions::default().permutations(256).seed(seed),
                source_path: None,
            })
            .unwrap()
        };
        let a = submit(1);
        let b = submit(2);
        let rx_a = mgr.subscribe(a.id).unwrap();
        mgr.wait_result(a.id, Some(Duration::from_secs(30)))
            .unwrap();
        mgr.wait_result(b.id, Some(Duration::from_secs(30)))
            .unwrap();
        // Fairness: job B must have made progress before job A finished —
        // with span-sliced round-robin on one worker, A's progress events
        // cannot all precede B's first span.
        let b_status = mgr.status(b.id).unwrap();
        assert_eq!(b_status.state, JobState::Finished);
        let events: Vec<JobEvent> = rx_a.try_iter().collect();
        assert!(
            events.iter().any(|e| e.state == JobState::Finished),
            "subscriber must observe the terminal event"
        );
        let mut last = 0u64;
        for e in &events {
            assert!(e.done >= last, "progress must be monotone");
            last = e.done;
        }
    }

    #[test]
    fn worker_panic_fails_the_job_not_the_daemon() {
        let (data, labels) = small_dataset();
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 16,
            cache_dir: None,
            faults: Faults::builder().prob(FaultKind::WorkerPanic, 1.0).build(),
            ..ManagerConfig::default()
        })
        .unwrap();
        let info = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: PmaxtOptions::default().permutations(97),
                source_path: None,
            })
            .unwrap();
        let err = mgr
            .wait_result(info.id, Some(Duration::from_secs(30)))
            .unwrap_err();
        let JobError::Failed(msg) = &err else {
            panic!("expected Failed, got {err:?}");
        };
        assert!(
            msg.contains("panic"),
            "reason should mention the panic: {msg}"
        );
        let status = mgr.status(info.id).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.is_some());
        // The daemon survived: the worker is alive and the API responsive.
        assert_eq!(mgr.list().len(), 1);
        let second = mgr
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts: PmaxtOptions::default().permutations(97).seed(9),
                source_path: None,
            })
            .unwrap();
        assert!(matches!(
            mgr.wait_result(second.id, Some(Duration::from_secs(30))),
            Err(JobError::Failed(_))
        ));
    }

    #[test]
    fn injected_span_io_error_fails_job_and_resubmit_recovers() {
        let (data, labels) = small_dataset();
        let opts = PmaxtOptions::default().permutations(97);
        let mut dir = std::env::temp_dir();
        dir.push(format!("sprint-jobd-mgr-{}-spanio", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // First manager: every span errors, but completed spans checkpoint.
        // (With probability 1 the very first span fails, so cursor stays 0 —
        // the point is the terminal state and the recovery, not the prefix.)
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 16,
            cache_dir: Some(dir.clone()),
            faults: Faults::builder().prob(FaultKind::SpanIo, 1.0).build(),
            ..ManagerConfig::default()
        })
        .unwrap();
        let spec = JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        };
        let info = mgr.submit(spec.clone()).unwrap();
        let err = mgr
            .wait_result(info.id, Some(Duration::from_secs(30)))
            .unwrap_err();
        assert!(
            matches!(&err, JobError::Failed(m) if m.contains("injected span I/O error")),
            "got {err:?}"
        );
        drop(mgr);
        // Fault-free manager over the same cache: resubmit must recover and
        // match a direct serial run bitwise.
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 16,
            cache_dir: Some(dir.clone()),
            faults: Faults::disabled(),
            ..ManagerConfig::default()
        })
        .unwrap();
        let info = mgr.submit(spec).unwrap();
        let served = mgr
            .wait_result(info.id, Some(Duration::from_secs(30)))
            .unwrap();
        let direct = mt_maxt(&data, &labels, &opts).unwrap();
        assert_eq!(served, direct);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eta_appears_after_first_span() {
        let (data, labels) = small_dataset();
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 64,
            cache_dir: None,
            ..ManagerConfig::default()
        })
        .unwrap();
        let info = mgr
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts: PmaxtOptions::default().permutations(100_000),
                source_path: None,
            })
            .unwrap();
        let rx = mgr.subscribe(info.id).unwrap();
        // Wait for a post-first-span event; it must carry an ETA.
        let mut saw_eta = false;
        for _ in 0..200 {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(e) if e.done > 0 && !e.state.is_terminal() => {
                    assert!(e.eta_secs.is_some(), "running event after a span has ETA");
                    assert!(e.eta_secs.unwrap() >= 0.0);
                    saw_eta = true;
                    break;
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        assert!(saw_eta, "never observed a progress event with an ETA");
        mgr.cancel(info.id).unwrap();
    }

    #[test]
    fn adaptive_job_reports_bounds_that_contain_the_exact_p_values() {
        let (data, labels) = null_heavy_dataset();
        let opts = PmaxtOptions::default().permutations(4000);
        let mgr = manager(64);
        let info = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone().mode(Mode::Adaptive),
                source_path: None,
            })
            .unwrap();
        mgr.wait_result(info.id, Some(Duration::from_secs(60)))
            .unwrap();
        let report = mgr
            .adaptive_report(info.id)
            .unwrap()
            .expect("adaptive job carries a report");
        assert!(report.genes_stopped() > 0, "null genes should stop");
        assert!(
            report.gene_perms_scored < report.gene_perms_exact,
            "adaptive must score fewer gene-permutations than exact"
        );
        let exact = mt_maxt(&data, &labels, &opts).unwrap();
        for g in 0..16 {
            if !exact.rawp[g].is_nan() {
                assert!(report.p_lower[g] <= exact.rawp[g] + 1e-12);
                assert!(exact.rawp[g] <= report.p_upper[g] + 1e-12);
            }
        }
        let status = mgr.status(info.id).unwrap();
        let brief = status.adaptive.expect("status carries adaptive summary");
        assert_eq!(brief.genes_stopped, report.genes_stopped() as u64);
        assert!(brief.budget_fraction < 1.0);
    }

    #[test]
    fn adaptive_then_exact_upgrade_reproduces_a_fresh_exact_run_bitwise() {
        let (data, labels) = null_heavy_dataset();
        let opts = PmaxtOptions::default().permutations(4000);
        let mut dir = std::env::temp_dir();
        dir.push(format!("sprint-jobd-mgr-{}-upgrade", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 64,
            cache_dir: Some(dir.clone()),
            ..ManagerConfig::default()
        })
        .unwrap();
        let adaptive = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone().mode(Mode::Adaptive),
                source_path: None,
            })
            .unwrap();
        mgr.wait_result(adaptive.id, Some(Duration::from_secs(60)))
            .unwrap();
        let report = mgr.adaptive_report(adaptive.id).unwrap().unwrap();
        assert!(
            report.watermark > 0 && report.watermark < 4000,
            "watermark {} should be a strict prefix",
            report.watermark
        );
        // Upgrade: an exact submission of the same stream resumes from the
        // adaptive run's cached watermark and extends it to the full B.
        let exact = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone(),
                source_path: None,
            })
            .unwrap();
        assert_eq!(
            exact.cache,
            CacheDisposition::Resume {
                from: report.watermark
            },
            "exact upgrade must start from the adaptive watermark"
        );
        let served = mgr
            .wait_result(exact.id, Some(Duration::from_secs(60)))
            .unwrap();
        let direct = mt_maxt(&data, &labels, &opts).unwrap();
        assert_eq!(served, direct, "upgrade must be bitwise-exact");
        assert!(
            mgr.adaptive_report(exact.id).unwrap().is_none(),
            "exact job carries no adaptive report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bootstrap_beyond_memory_budget_is_refused_at_submit() {
        let (data, labels) = small_dataset();
        let opts = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(1_000_000_000);
        let err = manager(16)
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts,
                source_path: None,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            JobError::Invalid(CoreError::BadOption { param: "b", .. })
        ));
    }

    #[test]
    fn bootstrap_rejects_env_smuggled_f32_and_wrong_designs() {
        let (data, labels) = small_dataset();
        let mgr = manager(16);
        let err = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: PmaxtOptions::default()
                    .workload(Workload::Bootstrap)
                    .permutations(100)
                    .precision(Precision::F32),
                source_path: None,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            JobError::Invalid(CoreError::BadOption {
                param: "precision",
                ..
            })
        ));
        // B below the bootstrap floor is refused at the door.
        let err = mgr
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts: PmaxtOptions::default()
                    .workload(Workload::Bootstrap)
                    .permutations(1),
                source_path: None,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            JobError::Invalid(CoreError::BadOption { param: "b", .. })
        ));
        assert!(mgr.list().is_empty(), "no job must be created");
    }

    #[test]
    fn f32_precision_is_rejected_before_touching_queue_or_cache() {
        let (data, labels) = small_dataset();
        let mgr = manager(16);
        let err = mgr
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts: PmaxtOptions::default().precision(Precision::F32),
                source_path: None,
            })
            .unwrap_err();
        match err {
            JobError::Invalid(CoreError::BadOption { param, .. }) => {
                assert_eq!(param, "precision");
            }
            other => panic!("expected Invalid(BadOption), got {other:?}"),
        }
        assert!(mgr.list().is_empty(), "no job must be created");
    }

    #[test]
    fn invalid_submissions_are_rejected_up_front() {
        let (data, _) = small_dataset();
        let mgr = manager(16);
        let err = mgr
            .submit(JobSpec {
                data,
                classlabel: vec![0, 1], // wrong length
                opts: PmaxtOptions::default(),
                source_path: None,
            })
            .unwrap_err();
        assert!(matches!(err, JobError::Invalid(_)));
        assert_eq!(err.code(), "usage");
        assert!(matches!(
            mgr.status(999).unwrap_err(),
            JobError::UnknownJob(999)
        ));
    }

    #[test]
    fn exec_span_refuses_adaptive_mode() {
        let (data, labels) = small_dataset();
        let mgr = manager(16);
        let err = mgr
            .exec_span(
                Arc::new(data),
                &labels,
                PmaxtOptions::default()
                    .permutations(97)
                    .mode(Mode::Adaptive),
                97,
                0,
                16,
            )
            .unwrap_err();
        match err {
            JobError::Invalid(CoreError::BadOption { param, .. }) => assert_eq!(param, "mode"),
            other => panic!("expected Invalid(BadOption), got {other:?}"),
        }
    }

    /// Where a request enters, for the admission table.
    #[derive(Debug, Clone, Copy)]
    enum Via {
        Submit,
        /// A submission with a dataset path to a daemon with a peer roster.
        Roster,
        /// A peer coordinator's `span_exec` unit.
        Peer,
    }

    #[derive(Debug, PartialEq)]
    enum Decision {
        Local,
        Sharded,
        Unit,
        Refused(&'static str),
    }

    #[test]
    fn admission_table_decides_every_cell() {
        use Decision::*;
        use Via::*;
        use Workload::{Bootstrap as Boot, Pmaxt};
        let (data, labels) = small_dataset();
        let data = Arc::new(data);
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            cache_dir: None,
            peers: vec!["127.0.0.1:9".into()],
            faults: Faults::disabled(),
            ..ManagerConfig::default()
        })
        .unwrap();
        let opts_for = |workload: Workload, mode: Mode, precision: Precision| {
            PmaxtOptions::default()
                .workload(workload)
                .permutations(16)
                .mode(mode)
                .precision(precision)
        };
        let admit_via = |opts: &PmaxtOptions, via: Via| {
            let resolved = admit(
                &mgr.inner,
                Arc::clone(&data),
                &labels,
                &opts.clone().mode(Mode::Exact).precision(Precision::F64),
                false,
                Entry::Submit,
            )
            .unwrap()
            .run
            .b;
            let (source, entry) = match via {
                Submit => (false, Entry::Submit),
                Roster => (true, Entry::Submit),
                Peer => (false, Entry::Peer(resolved, (0, 1))),
            };
            match admit(&mgr.inner, Arc::clone(&data), &labels, opts, source, entry) {
                Ok(_) if matches!(via, Peer) => Unit,
                Ok(adm) if adm.sharded => Sharded,
                Ok(_) => Local,
                Err(JobError::Invalid(CoreError::BadOption { param, .. })) => Refused(param),
                Err(other) => panic!("unexpected refusal {other:?}"),
            }
        };
        let (exact, adaptive) = (Mode::Exact, Mode::Adaptive);
        let (f64_, f32_) = (Precision::F64, Precision::F32);
        let table = [
            (Pmaxt, exact, f64_, Submit, Local),
            (Pmaxt, exact, f64_, Roster, Sharded),
            (Pmaxt, exact, f64_, Peer, Unit),
            (Pmaxt, exact, f32_, Submit, Refused("precision")),
            (Pmaxt, exact, f32_, Roster, Refused("precision")),
            (Pmaxt, exact, f32_, Peer, Refused("precision")),
            (Pmaxt, adaptive, f64_, Submit, Local),
            (Pmaxt, adaptive, f64_, Roster, Local),
            (Pmaxt, adaptive, f64_, Peer, Refused("mode")),
            (Pmaxt, adaptive, f32_, Submit, Refused("precision")),
            (Pmaxt, adaptive, f32_, Roster, Refused("precision")),
            (Pmaxt, adaptive, f32_, Peer, Refused("precision")),
            (Boot, exact, f64_, Submit, Local),
            (Boot, exact, f64_, Roster, Sharded),
            (Boot, exact, f64_, Peer, Unit),
            (Boot, exact, f32_, Submit, Refused("precision")),
            (Boot, exact, f32_, Roster, Refused("precision")),
            (Boot, exact, f32_, Peer, Refused("precision")),
            (Boot, adaptive, f64_, Submit, Refused("mode")),
            (Boot, adaptive, f64_, Roster, Refused("mode")),
            (Boot, adaptive, f64_, Peer, Refused("mode")),
            (Boot, adaptive, f32_, Submit, Refused("mode")),
            (Boot, adaptive, f32_, Roster, Refused("mode")),
            (Boot, adaptive, f32_, Peer, Refused("mode")),
        ];
        for (workload, mode, precision, via, want) in table {
            let got = admit_via(&opts_for(workload, mode, precision), via);
            assert_eq!(got, want, "{workload:?} {mode:?} {precision:?} via {via:?}");
        }
    }
}
