//! The job manager: a bounded queue and worker pool driving the batched
//! permutation engine, with span-sliced fair scheduling, cooperative
//! cancellation, checkpoint-backed caching and progress events.
//!
//! ## Scheduling
//!
//! A job is not run to completion by one worker. Each time a worker pops a
//! job it processes **one span** (`ManagerConfig::span` permutations) through
//! [`accumulate_chunk_hooked`], merges the span's counts into the job, writes
//! the cache entry, and re-enqueues the job at the back of the queue. With
//! more runnable jobs than workers this interleaves them round-robin, so a
//! short job never starves behind a long one; with fewer, each job still gets
//! its own engine thread budget per span.
//!
//! ## Determinism
//!
//! A span is an engine chunk: counts are bitwise-identical to a serial run
//! regardless of span size, worker interleaving, per-job thread budget or
//! batch size (see `sprint_core::maxt::engine`). The manager only ever
//! partitions the permutation index range `0..B` into consecutive spans and
//! sums integer counts, so a jobd-served result equals `mt_maxt` bit for bit.
//!
//! ## Cancellation and resumability
//!
//! Cancellation sets a per-job [`AtomicBool`] polled by every engine worker
//! between batches. A span interrupted mid-way is discarded — its partial
//! counts are not an index prefix — so the job's durable state remains the
//! last completed span's checkpoint, which a later submit resumes from.
//!
//! ## Failure domains
//!
//! A worker panic — real or injected via [`crate::faults`] — is caught at the
//! span boundary and fails the *job* ([`JobState::Failed`] with the panic
//! message in [`JobStatus::error`]), never the daemon: the worker thread
//! survives and moves on to the next queued job. Because a failed job's
//! durable state is still its last completed span's checkpoint, resubmitting
//! the identical request resumes where the failure struck and the final
//! counts stay bitwise-identical to an undisturbed run.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sprint::checkpoint::CheckpointState;
use sprint_core::adaptive::{AdaptiveConfig, AdaptiveReport, AdaptiveRunner};
use sprint_core::boot::{self, BootstrapResult};
use sprint_core::error::Error as CoreError;
use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::{
    accumulate_chunk_hooked, split_evenly, ChunkHooks, ChunkRun, EngineConfig,
};
use sprint_core::maxt::{CountAccumulator, MaxTContext, MaxTResult};
use sprint_core::options::{Mode, PmaxtOptions, Precision, Workload};
use sprint_core::perm::resolve_permutation_count;
use sprint_core::pmaxt::span_plan;
use sprint_core::stats::prepare_matrix;

use crate::cache::{CacheKey, CacheProbe, ResultCache};
use crate::client::RetryPolicy;
use crate::faults::{crash_point, FaultKind, Faults};
use crate::journal::{self, Durability, Journal, JournalRecord, RecordKind};
use crate::json::Json;
use crate::protocol;
use crate::shard;
use crate::shard::{slice_spans, PeerError, PeerLink, ShardSnapshot, ShardStats, SpanQueue};

/// Lock a mutex, recovering from poisoning.
///
/// Safe here by construction: panics in job-processing code are caught at the
/// span boundary (see [`worker_loop`]) *before* they can unwind through a
/// guarded section, and every critical section in this module leaves its
/// guarded state consistent at each intermediate step — so a poisoned lock
/// carries no torn data. Refusing to recover would escalate one panic into a
/// dead daemon, the exact failure-domain leak this module exists to prevent.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

/// Configuration of a [`JobManager`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Worker threads servicing the job queue (each drives one span at a
    /// time); `0` resolves to 2.
    pub workers: usize,
    /// Maximum runnable jobs queued at once; further submissions are
    /// rejected with [`JobError::QueueFull`].
    pub queue_cap: usize,
    /// Permutations per span — the checkpoint / fairness / cancellation
    /// granule.
    pub span: u64,
    /// Engine threads for jobs that leave `opts.threads = 0` (auto); `0`
    /// resolves to available parallelism divided by the worker count, so a
    /// fully busy pool does not oversubscribe the machine.
    pub job_threads: usize,
    /// Cache directory; `None` disables caching (every submit computes).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Peer daemon addresses (`pmaxt serve --peer`). When non-empty, a job
    /// submitted with a dataset path is *sharded*: its permutation range is
    /// split across this daemon and every peer via `span_exec` requests, and
    /// the exceedance counts are merged bitwise-identically to a local run
    /// (see [`crate::shard`]).
    pub peers: Vec<String>,
    /// Fault-injection registry threaded through the span loop and the cache
    /// (see [`crate::faults`]). Defaults to the `SPRINT_FAULTS` environment
    /// configuration, which is disabled when the variable is unset.
    pub faults: Faults,
    /// Write-ahead journal fsync policy (`pmaxt serve --durability`; see
    /// [`crate::journal`]). Requires a cache directory — the journal lives
    /// under it. `Off` (the default, for embedded use) keeps no journal:
    /// daemon death loses queued and running jobs, as before.
    pub durability: Durability,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            workers: 2,
            queue_cap: 64,
            span: 4096,
            job_threads: 0,
            cache_dir: None,
            peers: Vec::new(),
            faults: Faults::from_env(),
            durability: Durability::Off,
        }
    }
}

/// A submitted unit of work: the dataset and the full `pmaxT` options.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Expression matrix (genes × samples).
    pub data: Matrix,
    /// Class labels, one per sample column.
    pub classlabel: Vec<u8>,
    /// Run options; `opts.threads`/`opts.batch` set this job's engine budget.
    pub opts: PmaxtOptions,
    /// Filesystem path the dataset was read from, when it has one. Required
    /// for cross-daemon sharding: peers re-read the dataset from this path on
    /// their own filesystem instead of shipping the matrix inline. Jobs
    /// submitted without a path always run locally.
    pub source_path: Option<std::path::PathBuf>,
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue for a worker.
    Queued,
    /// A worker is processing a span right now.
    Running,
    /// All permutations accumulated; the result is available.
    Finished,
    /// Cancelled; the last completed span remains cached for resumption.
    Cancelled,
    /// The engine reported an error (see [`JobStatus::error`]).
    Failed,
}

impl JobState {
    /// Wire string form.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished => "finished",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// True when the job will never make further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Finished | JobState::Cancelled | JobState::Failed
        )
    }
}

/// How the cache served a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// No entry; computed from scratch (and cached).
    Miss,
    /// Entry covered the full request: no permutations computed.
    Hit,
    /// Entry for the same `B` with a partial cursor: crash/cancel recovery.
    Resume {
        /// Cursor the job resumed from.
        from: u64,
    },
    /// Entry for a smaller `B`: incremental extension of a finished run.
    Extend {
        /// Cursor (the previous run's `B`) the job extended from.
        from: u64,
    },
    /// Not cached: caching disabled, or the entry covers more permutations
    /// than requested (computing fresh must not clobber it).
    Uncached,
}

impl CacheDisposition {
    /// Wire string form.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Miss => "miss",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Resume { .. } => "resume",
            CacheDisposition::Extend { .. } => "extend",
            CacheDisposition::Uncached => "uncached",
        }
    }

    /// The cursor this submission started from (0 unless resuming/extending).
    pub fn resumed_from(self) -> u64 {
        match self {
            CacheDisposition::Resume { from } | CacheDisposition::Extend { from } => from,
            _ => 0,
        }
    }
}

/// Point-in-time view of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id (unique within the manager's lifetime).
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Permutations accounted for, including live intra-span progress.
    pub done: u64,
    /// Total permutations of the run (the resolved `B`).
    pub total: u64,
    /// Permutations actually computed by this submission (0 for a cache hit).
    pub computed: u64,
    /// How the cache served this submission.
    pub cache: CacheDisposition,
    /// Estimated seconds to completion, from the critical-path rate of the
    /// spans processed so far; `None` before the first span (or when done).
    pub eta_secs: Option<f64>,
    /// Failure message when `state == Failed`.
    pub error: Option<String>,
    /// Cross-daemon wire counters, for sharded jobs only.
    pub comm: Option<ShardSnapshot>,
    /// Summary of the adaptive run, for finished adaptive-mode jobs only.
    pub adaptive: Option<AdaptiveBrief>,
    /// True when this job was re-enqueued from the journal after a daemon
    /// restart (recovery provenance; see [`crate::journal`]).
    pub recovered: bool,
}

/// Compact summary of a finished adaptive-mode run, embedded in
/// [`JobStatus`]. The full per-gene report travels with the result
/// (see [`JobManager::adaptive_report`]).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBrief {
    /// Genes deactivated before the full permutation budget.
    pub genes_stopped: u64,
    /// Scored gene-permutations as a fraction of the exact-mode total.
    pub budget_fraction: f64,
    /// Cursor of the bitwise-exact full-gene prefix (the upgrade point).
    pub watermark: u64,
    /// True when >90% of eligible genes stopped within 10% of the budget.
    pub mass_deactivation: bool,
}

/// Outcome of [`JobManager::submit`].
#[derive(Debug, Clone)]
pub struct SubmitInfo {
    /// Job id to poll/await/cancel.
    pub id: u64,
    /// State right after submission (`Finished` for an instant cache hit).
    pub state: JobState,
    /// How the cache served the submission.
    pub cache: CacheDisposition,
    /// Total permutations of the run (the resolved `B`).
    pub total: u64,
    /// True when an identical live job already existed and was returned
    /// instead of a new one.
    pub deduped: bool,
    /// Hex cache key of the run's permutation stream.
    pub key: String,
    /// True when the (possibly deduped-onto) job was re-enqueued from the
    /// journal after a daemon restart.
    pub recovered: bool,
}

/// Progress/lifecycle event streamed to subscribers.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Job id.
    pub job: u64,
    /// State at the time of the event.
    pub state: JobState,
    /// Permutations accounted for.
    pub done: u64,
    /// Total permutations.
    pub total: u64,
    /// ETA estimate, when one exists.
    pub eta_secs: Option<f64>,
    /// Cross-daemon wire counters, for sharded jobs only.
    pub comm: Option<ShardSnapshot>,
}

/// Errors surfaced by the manager API.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The submission failed validation (bad labels, options, matrix…).
    Invalid(CoreError),
    /// The queue is at capacity.
    QueueFull {
        /// The configured capacity.
        cap: usize,
    },
    /// No job with that id.
    UnknownJob(u64),
    /// The job has not finished yet (non-waiting result fetch).
    NotFinished(u64),
    /// The job was cancelled before finishing.
    Cancelled(u64),
    /// The job failed; the message is the engine error.
    Failed(String),
    /// A bounded wait elapsed.
    Timeout(u64),
    /// The manager is shutting down (or draining).
    ShuttingDown,
    /// An internal invariant broke — a bug, not a caller mistake. The daemon
    /// stays up and reports it instead of panicking the request thread.
    Internal(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(e) => write!(f, "invalid job: {e}"),
            JobError::QueueFull { cap } => write!(f, "job queue full ({cap} jobs)"),
            JobError::UnknownJob(id) => write!(f, "no such job {id}"),
            JobError::NotFinished(id) => write!(f, "job {id} has not finished"),
            JobError::Cancelled(id) => write!(f, "job {id} was cancelled"),
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
            JobError::Timeout(id) => write!(f, "timed out waiting for job {id}"),
            JobError::ShuttingDown => write!(f, "job manager is shutting down"),
            JobError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    /// Wire error code: `usage` for caller mistakes, `busy` for back-pressure,
    /// `runtime` for everything else.
    pub fn code(&self) -> &'static str {
        match self {
            JobError::Invalid(_) | JobError::UnknownJob(_) | JobError::NotFinished(_) => "usage",
            JobError::QueueFull { .. } => "busy",
            _ => "runtime",
        }
    }
}

/// Everything a worker needs to process spans of one job. Immutable after
/// submission.
struct JobWork {
    prepared: Matrix,
    labels: ClassLabels,
    opts: PmaxtOptions,
    b: u64,
    cfg: EngineConfig,
    check_digest: u64,
    cached: bool,
    /// Resolved run mode (env override folded in at submission time).
    mode: Mode,
    /// Dataset path for sharded dispatch (peers read it themselves).
    source: Option<std::path::PathBuf>,
}

/// Mutable per-job state, guarded by one mutex.
struct JobProgress {
    state: JobState,
    cursor: u64,
    counts: CountAccumulator,
    computed: u64,
    cache: CacheDisposition,
    secs_per_perm: Option<f64>,
    result: Option<MaxTResult>,
    /// Per-gene interval estimates, set when a bootstrap-workload job
    /// finishes (such jobs never set `result`).
    boot: Option<BootstrapResult>,
    /// Per-gene adaptive report, set when a Mode::Adaptive job finishes.
    adaptive: Option<AdaptiveReport>,
    error: Option<String>,
}

struct Job {
    id: u64,
    key: CacheKey,
    work: JobWork,
    cancel: AtomicBool,
    /// Cursor plus live intra-span progress, updated lock-free by engine
    /// workers for cheap status/ETA reads.
    live_done: AtomicU64,
    /// Wire counters when this job is sharded across peer daemons.
    shard: Option<Arc<ShardStats>>,
    /// Recovery provenance: re-enqueued from the journal after a restart.
    recovered: bool,
    /// Journal bookkeeping: set once the accept record is appended (only
    /// then do lifecycle records make sense), and once-guards for the
    /// started/terminal records so retries and races stay idempotent.
    jrn_accepted: AtomicBool,
    jrn_started: AtomicBool,
    jrn_closed: AtomicBool,
    prog: Mutex<JobProgress>,
    subs: Mutex<Vec<mpsc::Sender<JobEvent>>>,
}

struct Inner {
    cfg: ManagerConfig,
    cache: Option<ResultCache>,
    /// Write-ahead job journal; `None` when durability is off or there is
    /// no cache directory to host it.
    journal: Option<Journal>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Drain mode: reject new submissions but let queued/running jobs reach
    /// a terminal state (see [`JobManager::drain`]).
    draining: AtomicBool,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// (stream key hex, resolved B, mode) → live job id, for submission
    /// dedup. Mode is part of the key: an adaptive and an exact submission
    /// of the same stream are different jobs (they share a cache address —
    /// the watermark — but not a result).
    dedup: Mutex<HashMap<(String, u64, Mode), u64>>,
    next_id: AtomicU64,
    /// Generation counter bumped on every state change; waiters re-check
    /// after each bump. Never locked while holding a job's `prog` mutex.
    change: Mutex<u64>,
    change_cv: Condvar,
}

/// What journal replay found and did at startup (see
/// [`JobManager::recovery_report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal segments scanned.
    pub segments: usize,
    /// Valid records replayed across all segments.
    pub records: usize,
    /// Bytes truncated from a torn tail (quarantined, not lost silently).
    pub torn_bytes: u64,
    /// Damaged mid-segment frames skipped by resynchronization.
    pub resyncs: u64,
    /// Jobs the fold found in a non-terminal state.
    pub pending: usize,
    /// Pending jobs re-enqueued to compute (possibly resuming mid-stream
    /// from their checkpoint cursor).
    pub requeued: usize,
    /// Pending jobs that finalized straight from a completed cache entry.
    pub from_cache: usize,
    /// Pending jobs that could not be reconstructed (no dataset source
    /// recorded, source unreadable, or resubmission refused).
    pub unrecoverable: usize,
}

/// The job service: owns the queue, the worker pool and the cache.
pub struct JobManager {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Set once at startup when a journal was replayed.
    recovery: Mutex<Option<RecoveryReport>>,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("cfg", &self.inner.cfg)
            .finish_non_exhaustive()
    }
}

impl JobManager {
    /// Start a manager: open the cache (if configured) and spawn the worker
    /// pool.
    pub fn new(mut cfg: ManagerConfig) -> std::io::Result<JobManager> {
        if cfg.workers == 0 {
            cfg.workers = 2;
        }
        if cfg.span == 0 {
            cfg.span = ManagerConfig::default().span;
        }
        if cfg.job_threads == 0 {
            let avail = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            cfg.job_threads = (avail / cfg.workers).max(1);
        }
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(ResultCache::open_with(dir.clone(), cfg.faults.clone())?),
            None => None,
        };
        // The journal lives under the cache directory: durability without a
        // cache has nothing to resume from, so it degrades to off (loudly).
        let mut replay = None;
        let journal = match (&cfg.cache_dir, cfg.durability) {
            (_, Durability::Off) => None,
            (None, mode) => {
                eprintln!(
                    "jobd: --durability {} requires a cache directory; journal disabled",
                    mode.as_str()
                );
                None
            }
            (Some(dir), mode) => {
                let (journal, rep) = Journal::open(&dir.join("journal"), mode, cfg.faults.clone())?;
                replay = Some(rep);
                Some(journal)
            }
        };
        let inner = Arc::new(Inner {
            cfg,
            cache,
            journal,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            jobs: Mutex::new(HashMap::new()),
            dedup: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            change: Mutex::new(0),
            change_cv: Condvar::new(),
        });
        let workers = (0..inner.cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let mgr = JobManager {
            inner,
            workers: Mutex::new(workers),
            recovery: Mutex::new(None),
        };
        if let Some(replay) = replay {
            mgr.recover(replay);
        }
        Ok(mgr)
    }

    /// The startup journal-replay report, when this manager keeps a journal.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        plock(&self.recovery).clone()
    }

    /// Submit a run. Validates like `mt_maxt`, consults the cache, dedups
    /// against identical live jobs, and enqueues whatever remains to compute.
    pub fn submit(&self, spec: JobSpec) -> Result<SubmitInfo, JobError> {
        self.submit_inner(spec, false)
    }

    /// [`JobManager::submit`] body, with recovery provenance threaded
    /// through: journal replay re-enters here with `recovered = true`.
    fn submit_inner(&self, spec: JobSpec, recovered: bool) -> Result<SubmitInfo, JobError> {
        if self.inner.shutdown.load(Ordering::Relaxed)
            || self.inner.draining.load(Ordering::Relaxed)
        {
            return Err(JobError::ShuttingDown);
        }
        let JobSpec {
            data,
            classlabel,
            opts,
            source_path,
        } = spec;
        // The bootstrap workload runs on its own driver (no permutation
        // counts, no span queue) — route it to its own submission path.
        if opts.workload == Workload::Bootstrap {
            return self.submit_boot(data, classlabel, opts, source_path, recovered);
        }
        // Validation and NA canonicalization, exactly as `prepare_run` does —
        // inlined because the canonical matrix is also the digest input.
        let labels = ClassLabels::new(classlabel.clone(), opts.test).map_err(JobError::Invalid)?;
        if labels.len() != data.cols() {
            return Err(JobError::Invalid(CoreError::BadLabels(format!(
                "classlabel length {} does not match {} data columns",
                labels.len(),
                data.cols()
            ))));
        }
        // The cache extends a B-permutation result to B′ > B by reusing its
        // counts verbatim, which is only sound when counts are bitwise
        // reproducible — so the f32 accumulation mode is refused at the door
        // (env override included, so SPRINT_PRECISION can't smuggle it in).
        if opts.precision.env_override() == Precision::F32 {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "precision",
                value: "f32 (the job service requires bitwise-reproducible f64)".into(),
            }));
        }
        // Resolve the run mode once (SPRINT_MODE folded in) so dedup, the
        // runner choice and the cache story all agree for this job's life.
        let mode = opts.mode.env_override();
        let data = match opts.na {
            Some(code) => {
                Matrix::from_vec_with_na(data.rows(), data.cols(), data.as_slice().to_vec(), code)
                    .map_err(JobError::Invalid)?
            }
            None => data,
        };
        let b = resolve_permutation_count(&labels, &opts).map_err(JobError::Invalid)?;
        let key = CacheKey::new(&data, &classlabel, &opts);
        let key_hex = key.hex();

        // Dedup: an identical live submission is the same job. Cancelled and
        // failed jobs fall through — resubmitting one is the recovery path
        // (it resumes from the last checkpoint via the cache probe below).
        if let Some(&id) = plock(&self.inner.dedup).get(&(key_hex.clone(), b, mode)) {
            if let Some(job) = plock(&self.inner.jobs).get(&id) {
                let prog = plock(&job.prog);
                if !matches!(prog.state, JobState::Cancelled | JobState::Failed) {
                    return Ok(SubmitInfo {
                        id,
                        state: prog.state,
                        cache: prog.cache,
                        total: b,
                        deduped: true,
                        key: key_hex,
                        recovered: job.recovered,
                    });
                }
            }
        }

        let prepared = prepare_matrix(&data, opts.test, opts.nonpara).into_owned();
        let genes = prepared.rows();
        let mut cursor = 0u64;
        let mut counts = CountAccumulator::new(genes);
        let mut cache_note = CacheDisposition::Uncached;
        let mut cached = false;
        if let Some(cache) = &self.inner.cache {
            cached = true;
            match cache.probe(&key, b) {
                CacheProbe::Hit(state) => {
                    // The stored counts fully determine the result: finalize
                    // without queueing. An adaptive submission served from a
                    // full exact entry gets collapsed bounds — the cache had
                    // already paid for certainty, so it is handed over.
                    let (result, adaptive) = {
                        let ctx = MaxTContext::with_scorer(
                            &prepared,
                            &labels,
                            opts.test,
                            opts.side,
                            opts.kernel,
                            opts.precision,
                        );
                        let rep = (mode == Mode::Adaptive)
                            .then(|| collapsed_adaptive_report(&ctx, &state.counts, b));
                        (ctx.finalize(&state.counts), rep)
                    };
                    let id = self
                        .register(
                            key,
                            key_hex.clone(),
                            JobWork {
                                prepared,
                                labels,
                                opts,
                                b,
                                cfg: EngineConfig::serial(),
                                check_digest: key.check_digest(),
                                cached: false,
                                mode,
                                source: None,
                            },
                            JobProgress {
                                state: JobState::Finished,
                                cursor: b,
                                counts: state.counts,
                                computed: 0,
                                cache: CacheDisposition::Hit,
                                secs_per_perm: None,
                                result: Some(result),
                                boot: None,
                                adaptive,
                                error: None,
                            },
                            false,
                            None,
                            recovered,
                        )?
                        .id;
                    self.bump_change();
                    return Ok(SubmitInfo {
                        id,
                        state: JobState::Finished,
                        cache: CacheDisposition::Hit,
                        total: b,
                        deduped: false,
                        key: key_hex,
                        recovered,
                    });
                }
                CacheProbe::Partial(state) => {
                    cache_note = if state.b == b {
                        CacheDisposition::Resume { from: state.cursor }
                    } else {
                        CacheDisposition::Extend { from: state.cursor }
                    };
                    cursor = state.cursor;
                    counts = state.counts;
                }
                CacheProbe::Beyond => {
                    cached = false;
                }
                CacheProbe::Miss => {
                    cache_note = CacheDisposition::Miss;
                }
            }
        }

        let threads = if opts.threads == 0 {
            self.inner.cfg.job_threads
        } else {
            opts.threads
        };
        let cfg = EngineConfig::explicit(threads, opts.batch);
        let work = JobWork {
            prepared,
            labels,
            opts,
            b,
            cfg,
            check_digest: key.check_digest(),
            cached,
            mode,
            source: source_path,
        };
        let prog = JobProgress {
            state: JobState::Queued,
            cursor,
            counts,
            computed: 0,
            cache: cache_note,
            secs_per_perm: None,
            result: None,
            boot: None,
            adaptive: None,
            error: None,
        };
        // A job is sharded across peer daemons when a roster is configured
        // and the dataset has a path peers can re-read. Sharded jobs bypass
        // the local span queue: a dedicated coordinator drives them.
        // Adaptive jobs always run locally on their own thread: the live
        // gene set shrinks between chunks, which the span protocol cannot
        // express.
        let adaptive = mode == Mode::Adaptive;
        let sharded = !adaptive && !self.inner.cfg.peers.is_empty() && work.source.is_some();
        let shard = sharded.then(|| Arc::new(ShardStats::default()));
        let enqueue = !sharded && !adaptive;
        let job = self.register(key, key_hex.clone(), work, prog, enqueue, shard, recovered)?;
        self.journal_accept(&job, enqueue)?;
        let id = job.id;
        if sharded {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                // Same panic isolation as the worker loop: a coordinator
                // panic fails the job, never the daemon.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_sharded(&inner, &job))) {
                    fail_job(
                        &inner,
                        &job,
                        format!(
                            "shard coordinator panicked: {}",
                            panic_message(payload.as_ref())
                        ),
                    );
                }
            });
        } else if adaptive {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                // Same panic isolation as the worker loop: a runner panic
                // fails the job, never the daemon.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_adaptive(&inner, &job)))
                {
                    fail_job(
                        &inner,
                        &job,
                        format!(
                            "adaptive runner panicked: {}",
                            panic_message(payload.as_ref())
                        ),
                    );
                }
            });
        }
        Ok(SubmitInfo {
            id,
            state: JobState::Queued,
            cache: cache_note,
            total: b,
            deduped: false,
            key: key_hex,
            recovered,
        })
    }

    /// Execute one span `[start, start + take)` of a sharded run on behalf
    /// of a peer coordinator and return the flat exceedance counts.
    ///
    /// Validation mirrors [`JobManager::submit`] exactly (label checks, f32
    /// refusal, NA canonicalization) so a span computed here is drawn from
    /// the same canonical matrix and skip-ahead permutation stream as the
    /// coordinator's own spans. The daemon additionally re-resolves the
    /// permutation count from its own copy of the dataset and refuses the
    /// span on drift — a peer with a stale or divergent file must never
    /// contribute counts.
    pub fn exec_span(
        &self,
        data: Matrix,
        classlabel: Vec<u8>,
        opts: PmaxtOptions,
        b: u64,
        start: u64,
        take: u64,
    ) -> Result<(Vec<u64>, f64), JobError> {
        if self.inner.shutdown.load(Ordering::Relaxed)
            || self.inner.draining.load(Ordering::Relaxed)
        {
            return Err(JobError::ShuttingDown);
        }
        let labels = ClassLabels::new(classlabel, opts.test).map_err(JobError::Invalid)?;
        if labels.len() != data.cols() {
            return Err(JobError::Invalid(CoreError::BadLabels(format!(
                "classlabel length {} does not match {} data columns",
                labels.len(),
                data.cols()
            ))));
        }
        if opts.precision.env_override() == Precision::F32 {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "precision",
                value: "f32 (the job service requires bitwise-reproducible f64)".into(),
            }));
        }
        // A span is a fixed permutation range over *all* genes; the adaptive
        // runner's shrinking live set has no place in the span protocol.
        if opts.mode.env_override() == Mode::Adaptive {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "mode",
                value: "adaptive (span execution serves bitwise-exact sharded runs only)".into(),
            }));
        }
        let data = match opts.na {
            Some(code) => {
                Matrix::from_vec_with_na(data.rows(), data.cols(), data.as_slice().to_vec(), code)
                    .map_err(JobError::Invalid)?
            }
            None => data,
        };
        let resolved = resolve_permutation_count(&labels, &opts).map_err(JobError::Invalid)?;
        if resolved != b {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "b",
                value: format!(
                    "coordinator resolved B={b} but this daemon resolves B={resolved} \
                     (dataset or option drift between peers)"
                ),
            }));
        }
        if start.checked_add(take).is_none_or(|end| end > b) {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "span",
                value: format!("[{start}, {start}+{take}) exceeds B={b}"),
            }));
        }
        let prepared = prepare_matrix(&data, opts.test, opts.nonpara).into_owned();
        let threads = if opts.threads == 0 {
            self.inner.cfg.job_threads
        } else {
            opts.threads
        };
        let cfg = EngineConfig::explicit(threads, opts.batch);
        let ctx = MaxTContext::with_scorer(
            &prepared,
            &labels,
            opts.test,
            opts.side,
            opts.kernel,
            opts.precision,
        );
        let hooks = ChunkHooks {
            cancel: None,
            progress: None,
        };
        let cpu0 = shard::thread_cpu_secs();
        let run = accumulate_chunk_hooked(&ctx, &labels, &opts, b, start, take, cfg, hooks)
            .map_err(JobError::Invalid)?;
        let secs = kernel_secs(cpu0, &run);
        Ok((run.counts.to_flat(), secs))
    }

    /// Submit a bootstrap-workload run. Validation follows
    /// [`sprint_core::boot::validate_boot`]; the cache is consulted for a
    /// finished entry of exactly the requested draw count (interval
    /// estimates are order statistics — there is no prefix state to resume
    /// from); whatever remains to compute runs on a dedicated thread,
    /// sharded by gene slices across peer daemons when a roster and a
    /// dataset path are available.
    fn submit_boot(
        &self,
        data: Matrix,
        classlabel: Vec<u8>,
        opts: PmaxtOptions,
        source_path: Option<std::path::PathBuf>,
        recovered: bool,
    ) -> Result<SubmitInfo, JobError> {
        let (labels, b, data) =
            boot::validate_boot(&data, &classlabel, &opts).map_err(JobError::Invalid)?;
        // Same env-override hardening as the permutation path: SPRINT_PRECISION
        // must not smuggle f32 accumulation past the option check.
        if opts.precision.env_override() == Precision::F32 {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "precision",
                value: "f32 (the job service requires bitwise-reproducible f64)".into(),
            }));
        }
        let genes = data.rows();
        let key = CacheKey::new(&data, &classlabel, &opts);
        let key_hex = key.hex();

        // Dedup against an identical live bootstrap submission. The options
        // digest carries the workload marker, so a permutation job of the
        // same dataset/options can never alias this key.
        if let Some(&id) = plock(&self.inner.dedup).get(&(key_hex.clone(), b, Mode::Exact)) {
            if let Some(job) = plock(&self.inner.jobs).get(&id) {
                let prog = plock(&job.prog);
                if !matches!(prog.state, JobState::Cancelled | JobState::Failed) {
                    return Ok(SubmitInfo {
                        id,
                        state: prog.state,
                        cache: prog.cache,
                        total: b,
                        deduped: true,
                        key: key_hex,
                        recovered: job.recovered,
                    });
                }
            }
        }

        let mut cache_note = CacheDisposition::Uncached;
        let mut cached = false;
        if let Some(cache) = &self.inner.cache {
            cached = true;
            cache_note = CacheDisposition::Miss;
            if let Some(result) = cache.probe_boot(&key, b) {
                if result.offset == 0 && result.genes() == genes {
                    let id = self
                        .register(
                            key,
                            key_hex.clone(),
                            JobWork {
                                prepared: data,
                                labels,
                                opts,
                                b,
                                cfg: EngineConfig::serial(),
                                check_digest: key.check_digest(),
                                cached: false,
                                mode: Mode::Exact,
                                source: None,
                            },
                            JobProgress {
                                state: JobState::Finished,
                                cursor: b,
                                counts: CountAccumulator::new(genes),
                                computed: 0,
                                cache: CacheDisposition::Hit,
                                secs_per_perm: None,
                                result: None,
                                boot: Some(result),
                                adaptive: None,
                                error: None,
                            },
                            false,
                            None,
                            recovered,
                        )?
                        .id;
                    self.bump_change();
                    return Ok(SubmitInfo {
                        id,
                        state: JobState::Finished,
                        cache: CacheDisposition::Hit,
                        total: b,
                        deduped: false,
                        key: key_hex,
                        recovered,
                    });
                }
            }
        }

        let threads = if opts.threads == 0 {
            self.inner.cfg.job_threads
        } else {
            opts.threads
        };
        // Fold the manager's per-job thread budget into the options the
        // driver sees: `boot_run_slice` resolves its own engine config.
        let mut opts = opts;
        opts.threads = threads;
        let cfg = EngineConfig::explicit(threads, opts.batch);
        let sharded = !self.inner.cfg.peers.is_empty() && source_path.is_some();
        let shard = sharded.then(|| Arc::new(ShardStats::default()));
        let work = JobWork {
            prepared: data,
            labels,
            opts,
            b,
            cfg,
            check_digest: key.check_digest(),
            cached,
            mode: Mode::Exact,
            source: source_path,
        };
        let prog = JobProgress {
            state: JobState::Queued,
            cursor: 0,
            counts: CountAccumulator::new(genes),
            computed: 0,
            cache: cache_note,
            secs_per_perm: None,
            result: None,
            boot: None,
            adaptive: None,
            error: None,
        };
        // Bootstrap jobs never enter the span queue: like adaptive runs they
        // get a dedicated thread (their unit of work is the whole replicate
        // set, which the span protocol cannot slice).
        let job = self.register(key, key_hex.clone(), work, prog, false, shard, recovered)?;
        self.journal_accept(&job, false)?;
        let id = job.id;
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || {
            // Same panic isolation as the worker loop: a runner panic fails
            // the job, never the daemon.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_bootstrap(&inner, &job))) {
                fail_job(
                    &inner,
                    &job,
                    format!(
                        "bootstrap runner panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                );
            }
        });
        Ok(SubmitInfo {
            id,
            state: JobState::Queued,
            cache: cache_note,
            total: b,
            deduped: false,
            key: key_hex,
            recovered,
        })
    }

    /// Execute one gene slice `[row_start, row_start + row_take)` of a
    /// sharded bootstrap run on behalf of a peer coordinator.
    ///
    /// Validation mirrors [`JobManager::submit`]'s bootstrap path; the
    /// daemon re-resolves the draw count from its own copy of the dataset
    /// and refuses on drift, exactly like [`JobManager::exec_span`].
    pub fn exec_boot(
        &self,
        data: Matrix,
        classlabel: Vec<u8>,
        opts: PmaxtOptions,
        b: u64,
        row_start: u64,
        row_take: u64,
    ) -> Result<(BootstrapResult, f64), JobError> {
        if self.inner.shutdown.load(Ordering::Relaxed)
            || self.inner.draining.load(Ordering::Relaxed)
        {
            return Err(JobError::ShuttingDown);
        }
        let (_labels, resolved, data) =
            boot::validate_boot(&data, &classlabel, &opts).map_err(JobError::Invalid)?;
        if opts.precision.env_override() == Precision::F32 {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "precision",
                value: "f32 (the job service requires bitwise-reproducible f64)".into(),
            }));
        }
        if resolved != b {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "b",
                value: format!(
                    "coordinator resolved B={b} but this daemon resolves B={resolved} \
                     (dataset or option drift between peers)"
                ),
            }));
        }
        let rows = data.rows() as u64;
        if row_start.checked_add(row_take).is_none_or(|end| end > rows) {
            return Err(JobError::Invalid(CoreError::BadOption {
                param: "rows",
                value: format!("[{row_start}, {row_start}+{row_take}) exceeds {rows} gene rows"),
            }));
        }
        let mut opts = opts;
        if opts.threads == 0 {
            opts.threads = self.inner.cfg.job_threads;
        }
        let cpu0 = shard::thread_cpu_secs();
        let t0 = Instant::now();
        let result = boot::boot_run_slice(
            &data,
            &classlabel,
            &opts,
            row_start as usize..(row_start + row_take) as usize,
        )
        .map_err(JobError::Invalid)?;
        let secs = match (cpu0, shard::thread_cpu_secs()) {
            (Some(a), Some(z)) if opts.threads <= 1 => (z - a).max(0.0),
            _ => t0.elapsed().as_secs_f64(),
        };
        Ok((result, secs))
    }

    /// Insert a job into the maps (and, when `enqueue`, the run queue —
    /// enforcing the queue cap).
    #[allow(clippy::too_many_arguments)]
    fn register(
        &self,
        key: CacheKey,
        key_hex: String,
        work: JobWork,
        prog: JobProgress,
        enqueue: bool,
        shard: Option<Arc<ShardStats>>,
        recovered: bool,
    ) -> Result<Arc<Job>, JobError> {
        let b = work.b;
        let mode = work.mode;
        let live_done = prog.cursor;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id,
            key,
            work,
            cancel: AtomicBool::new(false),
            live_done: AtomicU64::new(live_done),
            shard,
            recovered,
            jrn_accepted: AtomicBool::new(false),
            jrn_started: AtomicBool::new(false),
            jrn_closed: AtomicBool::new(false),
            prog: Mutex::new(prog),
            subs: Mutex::new(Vec::new()),
        });
        if enqueue {
            let mut queue = plock(&self.inner.queue);
            if queue.len() >= self.inner.cfg.queue_cap {
                return Err(JobError::QueueFull {
                    cap: self.inner.cfg.queue_cap,
                });
            }
            queue.push_back(Arc::clone(&job));
            self.inner.queue_cv.notify_one();
        }
        plock(&self.inner.jobs).insert(id, Arc::clone(&job));
        plock(&self.inner.dedup).insert((key_hex, b, mode), id);
        Ok(job)
    }

    fn get(&self, id: u64) -> Result<Arc<Job>, JobError> {
        plock(&self.inner.jobs)
            .get(&id)
            .cloned()
            .ok_or(JobError::UnknownJob(id))
    }

    /// Snapshot a job's status.
    pub fn status(&self, id: u64) -> Result<JobStatus, JobError> {
        let job = self.get(id)?;
        Ok(status_of(&job))
    }

    /// Status of every known job, by ascending id.
    pub fn list(&self) -> Vec<JobStatus> {
        let mut all: Vec<JobStatus> = plock(&self.inner.jobs)
            .values()
            .map(|j| status_of(j))
            .collect();
        all.sort_by_key(|s| s.id);
        all
    }

    /// The finished result, or [`JobError::NotFinished`] (terminal failure
    /// states map to their own errors).
    pub fn result(&self, id: u64) -> Result<MaxTResult, JobError> {
        let job = self.get(id)?;
        let prog = plock(&job.prog);
        match prog.state {
            JobState::Finished if prog.boot.is_some() => {
                Err(JobError::Invalid(CoreError::BadOption {
                    param: "workload",
                    value: format!(
                        "bootstrap (job {id} is a bootstrap run; fetch its interval \
                         estimates with the bootstrap result call)"
                    ),
                }))
            }
            JobState::Finished => prog.result.clone().ok_or_else(|| {
                JobError::Internal(format!("job {id} is finished but has no stored result"))
            }),
            JobState::Cancelled => Err(JobError::Cancelled(id)),
            JobState::Failed => Err(JobError::Failed(
                prog.error.clone().unwrap_or_else(|| "unknown".into()),
            )),
            _ => Err(JobError::NotFinished(id)),
        }
    }

    /// True when `id` is a bootstrap-workload job (its result travels as
    /// interval estimates, not maxT p-values).
    pub fn is_boot(&self, id: u64) -> Result<bool, JobError> {
        Ok(self.get(id)?.work.opts.workload == Workload::Bootstrap)
    }

    /// The finished bootstrap estimates, or [`JobError::NotFinished`]. Same
    /// terminal-state contract as [`JobManager::result`]; asking a
    /// permutation job for bootstrap estimates is a usage error.
    pub fn boot_result(&self, id: u64) -> Result<BootstrapResult, JobError> {
        let job = self.get(id)?;
        let prog = plock(&job.prog);
        match prog.state {
            JobState::Finished => prog.boot.clone().ok_or_else(|| {
                JobError::Invalid(CoreError::BadOption {
                    param: "workload",
                    value: format!(
                        "{} (job {id} is a permutation run; fetch its maxT result instead)",
                        job.work.opts.workload.as_str()
                    ),
                })
            }),
            JobState::Cancelled => Err(JobError::Cancelled(id)),
            JobState::Failed => Err(JobError::Failed(
                prog.error.clone().unwrap_or_else(|| "unknown".into()),
            )),
            _ => Err(JobError::NotFinished(id)),
        }
    }

    /// Block until the bootstrap job reaches a terminal state (or `timeout`
    /// elapses) and return its estimates.
    pub fn wait_boot_result(
        &self,
        id: u64,
        timeout: Option<Duration>,
    ) -> Result<BootstrapResult, JobError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let seen = *plock(&self.inner.change);
            match self.boot_result(id) {
                Err(JobError::NotFinished(_)) => {}
                other => return other,
            }
            if self.inner.shutdown.load(Ordering::Relaxed) {
                return Err(JobError::ShuttingDown);
            }
            let mut gen = plock(&self.inner.change);
            while *gen == seen {
                match deadline {
                    None => {
                        gen = self
                            .inner
                            .change_cv
                            .wait(gen)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Err(JobError::Timeout(id));
                        }
                        let (g, _) = self
                            .inner
                            .change_cv
                            .wait_timeout(gen, d - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        gen = g;
                    }
                }
            }
        }
    }

    /// The per-gene adaptive report of a finished adaptive-mode job; `None`
    /// for exact jobs. Same terminal-state contract as [`JobManager::result`].
    pub fn adaptive_report(&self, id: u64) -> Result<Option<AdaptiveReport>, JobError> {
        let job = self.get(id)?;
        let prog = plock(&job.prog);
        match prog.state {
            JobState::Finished => Ok(prog.adaptive.clone()),
            JobState::Cancelled => Err(JobError::Cancelled(id)),
            JobState::Failed => Err(JobError::Failed(
                prog.error.clone().unwrap_or_else(|| "unknown".into()),
            )),
            _ => Err(JobError::NotFinished(id)),
        }
    }

    /// Block until the job reaches a terminal state (or `timeout` elapses)
    /// and return its result.
    pub fn wait_result(&self, id: u64, timeout: Option<Duration>) -> Result<MaxTResult, JobError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // Read the generation *before* checking state: any transition
            // after the check bumps it, so the wait below cannot miss it.
            let seen = *plock(&self.inner.change);
            match self.result(id) {
                Err(JobError::NotFinished(_)) => {}
                other => return other,
            }
            if self.inner.shutdown.load(Ordering::Relaxed) {
                return Err(JobError::ShuttingDown);
            }
            let mut gen = plock(&self.inner.change);
            while *gen == seen {
                match deadline {
                    None => {
                        gen = self
                            .inner
                            .change_cv
                            .wait(gen)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Err(JobError::Timeout(id));
                        }
                        let (g, _) = self
                            .inner
                            .change_cv
                            .wait_timeout(gen, d - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        gen = g;
                    }
                }
            }
        }
    }

    /// Request cancellation. Queued jobs cancel immediately; running jobs
    /// abort at the next batch boundary and keep their last completed span's
    /// checkpoint. Idempotent; terminal jobs are unaffected.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, JobError> {
        let job = self.get(id)?;
        job.cancel.store(true, Ordering::Relaxed);
        let became_terminal = {
            let mut prog = plock(&job.prog);
            if prog.state == JobState::Queued {
                prog.state = JobState::Cancelled;
                true
            } else {
                false
            }
        };
        if became_terminal {
            self.emit(&job);
            self.bump_change();
            journal_transition(&self.inner, &job);
        }
        Ok(status_of(&job))
    }

    /// Subscribe to a job's progress events. The current status is delivered
    /// immediately as the first event, so a subscriber to an already-terminal
    /// job still observes its outcome.
    pub fn subscribe(&self, id: u64) -> Result<mpsc::Receiver<JobEvent>, JobError> {
        let job = self.get(id)?;
        let (tx, rx) = mpsc::channel();
        let snapshot = event_of(&job);
        // Register before snapshotting delivery so no transition between the
        // two is lost; a duplicate event is harmless, a missing terminal one
        // would wedge watchers.
        plock(&job.subs).push(tx.clone());
        let _ = tx.send(snapshot);
        Ok(rx)
    }

    /// Enter drain mode: reject further submissions with
    /// [`JobError::ShuttingDown`] while letting every queued and running job
    /// reach a terminal state. Pair with [`wait_idle`] then [`shutdown`] for
    /// a graceful exit. Idempotent.
    ///
    /// [`wait_idle`]: JobManager::wait_idle
    /// [`shutdown`]: JobManager::shutdown
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.bump_change();
    }

    /// True when no job can make further progress: the queue is empty and
    /// every known job is terminal.
    pub fn idle(&self) -> bool {
        if !plock(&self.inner.queue).is_empty() {
            return false;
        }
        plock(&self.inner.jobs)
            .values()
            .all(|job| plock(&job.prog).state.is_terminal())
    }

    /// Block until [`idle`] (or `timeout` elapses); returns whether the
    /// manager is idle. Meaningful after [`drain`] — without it new
    /// submissions can keep arriving and idleness is a race.
    ///
    /// [`idle`]: JobManager::idle
    /// [`drain`]: JobManager::drain
    pub fn wait_idle(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let seen = *plock(&self.inner.change);
            if self.idle() {
                return true;
            }
            let mut gen = plock(&self.inner.change);
            while *gen == seen {
                match deadline {
                    None => {
                        gen = self
                            .inner
                            .change_cv
                            .wait(gen)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return self.idle();
                        }
                        let (g, _) = self
                            .inner
                            .change_cv
                            .wait_timeout(gen, d - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        gen = g;
                    }
                }
            }
        }
    }

    /// Fault-class counters of this manager's injection registry (all zero
    /// when injection is disabled). Soak tests use this to assert each fault
    /// class actually exercised its recovery path.
    pub fn fault_report(&self) -> Vec<(FaultKind, u64, u64)> {
        self.inner.cfg.faults.report()
    }

    /// Stop the worker pool: no further spans are started (in-flight spans
    /// finish and checkpoint), waiters are released with
    /// [`JobError::ShuttingDown`]. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Pass through the queue lock before notifying: a worker holds it
        // from its shutdown check until `wait` releases it, so once we have
        // held it every worker either saw the flag or is already waiting,
        // and the notification cannot fall between the two.
        drop(plock(&self.inner.queue));
        self.inner.queue_cv.notify_all();
        self.bump_change();
        for handle in plock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }

    /// Append `job`'s accept record to the journal — the write that makes
    /// the submission durable, so it happens before the ack is returned.
    /// Under `--durability full` the append fsyncs; under `batch` the
    /// group-commit flusher picks it up within one flush interval.
    ///
    /// On failure the registration is rolled back and the client gets an
    /// error: acknowledging a job the journal never saw would break the
    /// "no acked job is lost" contract this subsystem exists for.
    fn journal_accept(&self, job: &Arc<Job>, enqueued: bool) -> Result<(), JobError> {
        let Some(journal) = &self.inner.journal else {
            return Ok(());
        };
        match journal.append(&accept_record_for(job)) {
            Ok(()) => {
                job.jrn_accepted.store(true, Ordering::SeqCst);
                crash_point("manager.accept");
                Ok(())
            }
            Err(e) => {
                self.withdraw(job, enqueued);
                Err(JobError::Internal(format!("journal append failed: {e}")))
            }
        }
    }

    /// Roll back a registration whose accept record could not be journaled:
    /// the client is told the submission failed, so the job must neither run
    /// nor serve as a dedup target.
    fn withdraw(&self, job: &Job, enqueued: bool) {
        job.cancel.store(true, Ordering::SeqCst);
        if enqueued {
            plock(&self.inner.queue).retain(|j| j.id != job.id);
        }
        plock(&self.inner.jobs).remove(&job.id);
        plock(&self.inner.dedup).retain(|_, id| *id != job.id);
    }

    /// Rewrite the journal down to the accept records of still-live jobs.
    /// After a completed drain that set is empty and the next startup
    /// replays nothing. Called by `shutdown --drain` before the ack; errors
    /// only warn — an uncompacted journal replays longer, never wrongly.
    pub fn compact_journal(&self) {
        let Some(journal) = &self.inner.journal else {
            return;
        };
        let live: Vec<JournalRecord> = plock(&self.inner.jobs)
            .values()
            .filter(|job| {
                job.jrn_accepted.load(Ordering::SeqCst) && !plock(&job.prog).state.is_terminal()
            })
            .map(|job| accept_record_for(job))
            .collect();
        if let Err(e) = journal.flush().and_then(|()| journal.compact(&live)) {
            eprintln!("jobd: journal compaction failed: {e}");
        }
    }

    /// Journal replay: fold the record stream to the set of jobs that were
    /// accepted but never reached a terminal record, and resubmit each one.
    /// Resubmission runs the normal path, so a job whose result actually
    /// made it to the cache before the crash finalizes instantly (dedup
    /// against completed work), and anything else resumes from its last
    /// checkpoint cursor. Compaction afterwards folds the replayed segments
    /// away; it runs after resubmission so a crash mid-recovery still finds
    /// every pending job in some segment.
    fn recover(&self, replay: journal::Replay) {
        let pending = journal::fold_pending(&replay.records);
        let mut report = RecoveryReport {
            segments: replay.segments,
            records: replay.records.len(),
            torn_bytes: replay.torn_bytes,
            resyncs: replay.resyncs,
            pending: pending.len(),
            ..RecoveryReport::default()
        };
        for rec in pending {
            let Some(source) = rec.source.as_deref() else {
                eprintln!(
                    "jobd: recovery: job {}:{} was submitted in-process (no dataset path); \
                     cannot reconstruct it",
                    &rec.key[..rec.key.len().min(12)],
                    rec.b
                );
                report.unrecoverable += 1;
                continue;
            };
            let opts = rec.opts.clone().unwrap_or_default();
            let spec = match microarray::io::read_dataset(std::path::Path::new(source)) {
                Ok((data, classlabel)) => JobSpec {
                    data,
                    classlabel,
                    opts,
                    source_path: Some(std::path::PathBuf::from(source)),
                },
                Err(e) => {
                    eprintln!("jobd: recovery: cannot re-read {source}: {e}");
                    report.unrecoverable += 1;
                    continue;
                }
            };
            match self.submit_inner(spec, true) {
                Ok(info) if info.state == JobState::Finished => report.from_cache += 1,
                Ok(_) => report.requeued += 1,
                Err(e) => {
                    eprintln!("jobd: recovery: resubmission of {source} refused: {e}");
                    report.unrecoverable += 1;
                }
            }
        }
        self.compact_journal();
        *plock(&self.recovery) = Some(report);
    }

    fn emit(&self, job: &Job) {
        emit_event(job);
    }

    fn bump_change(&self) {
        bump_change(&self.inner);
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn status_of(job: &Job) -> JobStatus {
    let prog = plock(&job.prog);
    let done = job.live_done.load(Ordering::Relaxed).max(prog.cursor);
    let eta_secs = match prog.state {
        JobState::Queued | JobState::Running => prog
            .secs_per_perm
            .map(|per| (job.work.b.saturating_sub(done)) as f64 * per),
        _ => None,
    };
    JobStatus {
        id: job.id,
        state: prog.state,
        done,
        total: job.work.b,
        computed: prog.computed,
        cache: prog.cache,
        eta_secs,
        error: prog.error.clone(),
        comm: job.shard.as_ref().map(|s| s.snapshot()),
        adaptive: prog.adaptive.as_ref().map(|r| AdaptiveBrief {
            genes_stopped: r.genes_stopped() as u64,
            budget_fraction: r.budget_fraction(),
            watermark: r.watermark,
            mass_deactivation: r.mass_deactivation,
        }),
        recovered: job.recovered,
    }
}

fn event_of(job: &Job) -> JobEvent {
    let st = status_of(job);
    JobEvent {
        job: st.id,
        state: st.state,
        done: st.done,
        total: st.total,
        eta_secs: st.eta_secs,
        comm: st.comm,
    }
}

fn emit_event(job: &Job) {
    let event = event_of(job);
    plock(&job.subs).retain(|tx| tx.send(event.clone()).is_ok());
}

fn bump_change(inner: &Inner) {
    *plock(&inner.change) += 1;
    inner.change_cv.notify_all();
}

/// The journal accept record describing `job` — also the shape compaction
/// re-emits for still-live jobs, so replay after any crash converges on the
/// same pending set.
fn accept_record_for(job: &Job) -> JournalRecord {
    JournalRecord {
        kind: RecordKind::Accepted,
        key: job.key.hex(),
        b: job.work.b,
        mode: job.work.mode.as_str().to_string(),
        source: job.work.source.as_ref().map(|p| p.display().to_string()),
        opts: Some(job.work.opts.clone()),
        error: None,
    }
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
    let mut rec =
        JournalRecord::transition(kind, &job.key.hex(), job.work.b, job.work.mode.as_str());
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

/// Force `job` into `Failed` with `reason` (unless already terminal) and wake
/// everyone. The recovery half of worker panic isolation.
fn fail_job(inner: &Inner, job: &Arc<Job>, reason: String) {
    {
        let mut prog = plock(&job.prog);
        if prog.state.is_terminal() {
            return;
        }
        job.live_done.store(prog.cursor, Ordering::Relaxed);
        prog.state = JobState::Failed;
        prog.error = Some(reason);
    }
    emit_event(job);
    bump_change(inner);
    journal_transition(inner, job);
}

fn worker_loop(inner: &Arc<Inner>) {
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
        // Panic isolation: a panic anywhere in span processing — engine code,
        // scoring, checkpointing, or an injected `worker_panic` — fails the
        // *job* and this worker moves on. The daemon's failure domain is
        // never entered from job-processing code.
        let requeue =
            catch_unwind(AssertUnwindSafe(|| run_span(inner, &job))).unwrap_or_else(|payload| {
                fail_job(
                    inner,
                    &job,
                    format!("worker panicked: {}", panic_message(payload.as_ref())),
                );
                false
            });
        if requeue {
            plock(&inner.queue).push_back(job);
            inner.queue_cv.notify_one();
        }
    }
}

/// Process one span of `job`. Returns true when the job should be
/// re-enqueued (more spans remain).
fn run_span(inner: &Inner, job: &Arc<Job>) -> bool {
    let work = &job.work;
    // Claim the job; bail out if it was cancelled while queued.
    let start = {
        let mut prog = plock(&job.prog);
        if prog.state != JobState::Queued {
            return false;
        }
        if job.cancel.load(Ordering::Relaxed) {
            prog.state = JobState::Cancelled;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
            return false;
        }
        prog.state = JobState::Running;
        prog.cursor
    };
    journal_transition(inner, job);
    let faults = &inner.cfg.faults;
    let take = inner.cfg.span.min(work.b - start);
    let ctx = MaxTContext::with_scorer(
        &work.prepared,
        &work.labels,
        work.opts.test,
        work.opts.side,
        work.opts.kernel,
        work.opts.precision,
    );
    if take == 0 {
        // Degenerate B = cursor (e.g. resumed entry already complete but not
        // classified as a hit because caching raced): finalize in place.
        let mut prog = plock(&job.prog);
        prog.result = Some(ctx.finalize(&prog.counts));
        prog.state = JobState::Finished;
        drop(prog);
        emit_event(job);
        bump_change(inner);
        journal_transition(inner, job);
        return false;
    }
    let progress = |n: u64| {
        job.live_done.fetch_add(n, Ordering::Relaxed);
    };
    let hooks = ChunkHooks {
        cancel: Some(&job.cancel),
        progress: Some(&progress),
    };
    // Injection points for the two in-span fault classes. The panic unwinds
    // into `worker_loop`'s catch_unwind exactly as a real engine panic would;
    // the I/O error takes the ordinary engine-error path. Either way the
    // span's counts are discarded, so the job's durable state stays the last
    // completed span and a resubmit resumes bitwise-identically.
    let outcome = if faults.fire(FaultKind::WorkerPanic) {
        panic!("injected worker panic (SPRINT_FAULTS worker_panic)");
    } else if faults.fire(FaultKind::SpanIo) {
        Err(CoreError::Comm("injected span I/O error".to_string()))
    } else {
        accumulate_chunk_hooked(
            &ctx,
            &work.labels,
            &work.opts,
            work.b,
            start,
            take,
            work.cfg,
            hooks,
        )
    };
    match outcome {
        Err(CoreError::Cancelled) => {
            let mut prog = plock(&job.prog);
            // The interrupted span's partial counts were discarded; roll the
            // live counter back to the last durable cursor.
            job.live_done.store(prog.cursor, Ordering::Relaxed);
            prog.state = JobState::Cancelled;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
            false
        }
        Err(e) => {
            fail_job(inner, job, e.to_string());
            false
        }
        Ok(run) => {
            // ETA model: the span's wall time is its slowest worker (the
            // critical path), matching the bench crate's scaling model.
            let critical = run
                .workers
                .iter()
                .map(|w| w.busy.as_secs_f64())
                .fold(0.0_f64, f64::max);
            let per_perm = critical / take as f64;
            let mut prog = plock(&job.prog);
            prog.counts.merge(&run.counts);
            prog.cursor += take;
            prog.computed += take;
            job.live_done.store(prog.cursor, Ordering::Relaxed);
            prog.secs_per_perm = Some(match prog.secs_per_perm {
                Some(old) => 0.6 * old + 0.4 * per_perm,
                None => per_perm,
            });
            if work.cached {
                if let Some(cache) = &inner.cache {
                    let state = CheckpointState {
                        digest: work.check_digest,
                        cursor: prog.cursor,
                        b: work.b,
                        counts: prog.counts.clone(),
                    };
                    if let Err(e) = cache.store(&job.key, &state) {
                        eprintln!(
                            "jobd: warning: failed to write cache entry {}: {e}",
                            job.key.hex()
                        );
                    }
                }
            }
            let finished = prog.cursor >= work.b;
            if finished {
                prog.result = Some(ctx.finalize(&prog.counts));
                prog.state = JobState::Finished;
            } else {
                prog.state = JobState::Queued;
            }
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
            !finished
        }
    }
}

/// Report for an adaptive submission served whole from a full exact cache
/// entry: every gene was scored over the entire stream, so the envelope
/// collapses to the exact p-value and nothing was spent.
fn collapsed_adaptive_report(
    ctx: &MaxTContext<'_>,
    counts: &CountAccumulator,
    b: u64,
) -> AdaptiveReport {
    let genes = ctx.genes();
    let mut p_lower = vec![f64::NAN; genes];
    let mut p_upper = vec![f64::NAN; genes];
    let mut p_point = vec![f64::NAN; genes];
    for g in 0..genes {
        if ctx.observed_scores()[g] > f64::NEG_INFINITY {
            let p = counts.count_raw[g] as f64 / b as f64;
            p_lower[g] = p;
            p_upper[g] = p;
            p_point[g] = p;
        }
    }
    AdaptiveReport {
        b,
        scored: vec![b; genes],
        counts: counts.count_raw.clone(),
        stopped_at: vec![None; genes],
        p_lower,
        p_upper,
        p_point,
        tail: vec![None; genes],
        gene_perms_scored: 0,
        gene_perms_exact: genes as u64 * b,
        watermark: b,
        mass_deactivation: false,
    }
}

/// Drive one adaptive job to completion on its dedicated thread.
///
/// The runner alternates full-gene chunks (the bitwise-exact watermark
/// prefix) with masked live-set chunks; on success the watermark is written
/// to the cache as an ordinary exact checkpoint — but only when it improves
/// on the stored cursor, so an adaptive run never clobbers a longer exact
/// prefix some other job already paid for. A later exact submission of the
/// same stream then probes `Partial` at the watermark and extends it through
/// the incremental machinery, reproducing a fresh exact run bit for bit.
fn run_adaptive(inner: &Arc<Inner>, job: &Arc<Job>) {
    let work = &job.work;
    // Claim the job; bail out if it was cancelled before we started.
    let (resume_counts, resumed_from) = {
        let mut prog = plock(&job.prog);
        if prog.state != JobState::Queued {
            return;
        }
        if job.cancel.load(Ordering::Relaxed) {
            prog.state = JobState::Cancelled;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
            return;
        }
        prog.state = JobState::Running;
        let resume = (prog.counts.n_perm > 0).then(|| prog.counts.clone());
        (resume, prog.cursor)
    };
    journal_transition(inner, job);
    let faults = &inner.cfg.faults;
    let ctx = MaxTContext::with_scorer(
        &work.prepared,
        &work.labels,
        work.opts.test,
        work.opts.side,
        work.opts.kernel,
        work.opts.precision,
    );
    let mut runner = AdaptiveRunner::new(
        &ctx,
        &work.prepared,
        &work.labels,
        &work.opts,
        work.b,
        work.cfg,
        AdaptiveConfig::default(),
    );
    if let Some(counts) = &resume_counts {
        runner.resume_from(counts);
    }
    let progress = |n: u64| {
        job.live_done.fetch_add(n, Ordering::Relaxed);
    };
    let hooks = ChunkHooks {
        cancel: Some(&job.cancel),
        progress: Some(&progress),
    };
    // Same injection points as the span loop: a panic unwinds into the
    // catch_unwind wrapping this function; the I/O error takes the ordinary
    // failure path. Either way the durable state stays whatever exact prefix
    // the cache held at submission, so a resubmit recovers.
    let outcome = if faults.fire(FaultKind::WorkerPanic) {
        panic!("injected worker panic (SPRINT_FAULTS worker_panic)");
    } else if faults.fire(FaultKind::SpanIo) {
        Err(CoreError::Comm("injected span I/O error".to_string()))
    } else {
        runner.run(hooks)
    };
    match outcome {
        Err(CoreError::Cancelled) => {
            let mut prog = plock(&job.prog);
            job.live_done.store(prog.cursor, Ordering::Relaxed);
            prog.state = JobState::Cancelled;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
        }
        Err(e) => {
            fail_job(inner, job, e.to_string());
        }
        Ok(out) => {
            if work.cached {
                if let Some(cache) = &inner.cache {
                    let improves = match cache.probe(&job.key, work.b) {
                        CacheProbe::Miss => true,
                        CacheProbe::Partial(s) => s.cursor < out.watermark.n_perm,
                        CacheProbe::Hit(_) | CacheProbe::Beyond => false,
                    };
                    if improves && out.watermark.n_perm > 0 {
                        let state = CheckpointState {
                            digest: work.check_digest,
                            cursor: out.watermark.n_perm,
                            b: work.b,
                            counts: out.watermark.clone(),
                        };
                        if let Err(e) = cache.store(&job.key, &state) {
                            eprintln!(
                                "jobd: warning: failed to write cache entry {}: {e}",
                                job.key.hex()
                            );
                        }
                    }
                }
            }
            // Stream cursor the runner reached: genes live at the end were
            // scored through it (all-stopped runs halt earlier).
            let reached = out.report.scored.iter().copied().max().unwrap_or(0);
            let mut prog = plock(&job.prog);
            prog.computed = reached.saturating_sub(resumed_from);
            prog.cursor = work.b;
            job.live_done.store(work.b, Ordering::Relaxed);
            prog.counts = out.watermark;
            prog.result = Some(out.result);
            prog.adaptive = Some(out.report);
            prog.state = JobState::Finished;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
        }
    }
}

/// Drive one bootstrap job to completion on its dedicated thread: run the
/// whole replicate set locally, or shard it by gene slices across the peer
/// roster when one is configured. On success the finished estimates are
/// written to the cache as a `.boot` entry and stored on the job.
fn run_bootstrap(inner: &Arc<Inner>, job: &Arc<Job>) {
    let work = &job.work;
    // Claim the job; bail out if it was cancelled while pending.
    {
        let mut prog = plock(&job.prog);
        if prog.state != JobState::Queued {
            return;
        }
        if job.cancel.load(Ordering::Relaxed) {
            prog.state = JobState::Cancelled;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
            return;
        }
        prog.state = JobState::Running;
    }
    journal_transition(inner, job);
    let faults = &inner.cfg.faults;
    // Same injection points as the span loop: a panic unwinds into the
    // catch_unwind wrapping this function, the I/O error takes the ordinary
    // failure path, and a resubmit recovers either way (bootstrap jobs have
    // no partial state — the cache entry is all-or-nothing).
    let outcome = if faults.fire(FaultKind::WorkerPanic) {
        panic!("injected worker panic (SPRINT_FAULTS worker_panic)");
    } else if faults.fire(FaultKind::SpanIo) {
        Err(CoreError::Comm("injected span I/O error".to_string()))
    } else if job.shard.is_some() {
        boot_sharded(inner, job)
    } else {
        boot::boot_run(&work.prepared, work.labels.as_slice(), &work.opts)
    };
    match outcome {
        Err(CoreError::Cancelled) => {
            let mut prog = plock(&job.prog);
            job.live_done.store(prog.cursor, Ordering::Relaxed);
            prog.state = JobState::Cancelled;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
        }
        Err(e) => {
            fail_job(inner, job, e.to_string());
        }
        Ok(result) => {
            if work.cached {
                if let Some(cache) = &inner.cache {
                    if let Err(e) = cache.store_boot(&job.key, work.b, &result) {
                        eprintln!(
                            "jobd: warning: failed to write cache entry {}: {e}",
                            job.key.hex()
                        );
                    }
                }
            }
            // A cancel that raced the (uninterruptible) replicate run loses
            // to completion: the work is done and durably cached, so serving
            // it beats discarding it.
            let mut prog = plock(&job.prog);
            prog.cursor = work.b;
            prog.computed = work.b;
            job.live_done.store(work.b, Ordering::Relaxed);
            prog.boot = Some(result);
            prog.state = JobState::Finished;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
        }
    }
}

/// How one peer's gene slice went.
enum BootSliceOutcome {
    /// The slice's estimates, shape-checked against the request.
    Done(BootstrapResult),
    /// Empty slice (more participants than genes): nothing to merge.
    Empty,
    /// Transport-level loss after retries: the coordinator recomputes the
    /// slice locally.
    Lost {
        row_start: u64,
        row_take: u64,
        why: String,
    },
    /// The peer answered with a protocol error: the request itself is wrong
    /// everywhere (drifted dataset, mismatched B), so the job fails.
    Rejected(String),
}

/// Shard one bootstrap run by gene slices: each participant computes the
/// *full* replicate set for a contiguous band of gene rows (per-gene
/// finalization is independent, so a slice is bitwise-equal to the same rows
/// of a full run), and the coordinator merges the bands in row order. A lost
/// peer's band is recomputed locally — slower, never wrong.
fn boot_sharded(inner: &Arc<Inner>, job: &Arc<Job>) -> Result<BootstrapResult, CoreError> {
    let work = &job.work;
    let stats = Arc::clone(job.shard.as_ref().expect("sharded job carries stats"));
    let genes = work.prepared.rows() as u64;
    let roster = 1 + inner.cfg.peers.len();
    let plan: Vec<(u64, u64)> = (0..roster)
        .map(|i| split_evenly(genes, roster as u64, i as u64))
        .collect();
    stats.peers.store(roster as u64, Ordering::Relaxed);
    stats.spans_total.store(
        plan.iter().filter(|&&(_, t)| t > 0).count() as u64,
        Ordering::Relaxed,
    );
    let path = work
        .source
        .as_ref()
        .expect("sharded job has a source path")
        .display()
        .to_string();
    let faults = &inner.cfg.faults;
    let run_local_slice = |start: u64, take: u64| -> Result<BootstrapResult, CoreError> {
        let cpu0 = shard::thread_cpu_secs();
        let t0 = Instant::now();
        let r = boot::boot_run_slice(
            &work.prepared,
            work.labels.as_slice(),
            &work.opts,
            start as usize..(start + take) as usize,
        )?;
        let secs = match (cpu0, shard::thread_cpu_secs()) {
            (Some(a), Some(z)) if work.cfg.threads <= 1 => (z - a).max(0.0),
            _ => t0.elapsed().as_secs_f64(),
        };
        stats
            .kernel_local_micros
            .fetch_add((secs.max(0.0) * 1e6) as u64, Ordering::Relaxed);
        stats.spans_local.fetch_add(1, Ordering::Relaxed);
        Ok(r)
    };

    let (local, peer_outcomes) = std::thread::scope(|scope| {
        let stats_ref = &stats;
        let handles: Vec<_> = inner
            .cfg
            .peers
            .iter()
            .enumerate()
            .map(|(idx, addr)| {
                let (row_start, row_take) = plan[idx + 1];
                let path = path.clone();
                scope.spawn(move || {
                    if row_take == 0 {
                        return BootSliceOutcome::Empty;
                    }
                    if faults.fire(FaultKind::PeerDrop) {
                        return BootSliceOutcome::Lost {
                            row_start,
                            row_take,
                            why: "injected peer_drop".into(),
                        };
                    }
                    let policy = RetryPolicy {
                        attempts: 3,
                        base: Duration::from_millis(50),
                        max: Duration::from_secs(2),
                        seed: 0x626f_6f74 ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    };
                    let link = PeerLink {
                        addr,
                        policy,
                        timeout: Some(PEER_TIMEOUT),
                        stats: stats_ref,
                        faults,
                    };
                    let req =
                        protocol::boot_exec_request(&path, &work.opts, work.b, row_start, row_take);
                    match link.exec(&req) {
                        Ok(resp) => match protocol::boot_from_json(&resp) {
                            Ok(r)
                                if r.offset as u64 == row_start
                                    && r.genes() as u64 == row_take
                                    && r.replicates == work.b - 1 =>
                            {
                                let secs = resp
                                    .get("kernel_secs")
                                    .and_then(Json::as_f64)
                                    .unwrap_or(0.0);
                                stats_ref
                                    .kernel_remote_micros
                                    .fetch_add((secs.max(0.0) * 1e6) as u64, Ordering::Relaxed);
                                stats_ref.spans_remote.fetch_add(1, Ordering::Relaxed);
                                BootSliceOutcome::Done(r)
                            }
                            Ok(_) => BootSliceOutcome::Lost {
                                row_start,
                                row_take,
                                why: "slice shape mismatch in response".into(),
                            },
                            Err(e) => BootSliceOutcome::Lost {
                                row_start,
                                row_take,
                                why: format!("malformed boot response: {e}"),
                            },
                        },
                        Err(PeerError::Dead(why)) => BootSliceOutcome::Lost {
                            row_start,
                            row_take,
                            why,
                        },
                        Err(PeerError::Rejected(why)) => BootSliceOutcome::Rejected(format!(
                            "peer {addr} rejected gene slice [{row_start}, {}): {why}",
                            row_start + row_take
                        )),
                    }
                })
            })
            .collect();
        // Participant 0 computes its own band on this thread while the
        // dispatchers wait on their peers.
        let (s0, t0) = plan[0];
        let local = if t0 > 0 {
            Some(run_local_slice(s0, t0))
        } else {
            None
        };
        let outcomes: Vec<BootSliceOutcome> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    BootSliceOutcome::Rejected(format!(
                        "boot dispatcher panicked: {}",
                        panic_message(payload.as_ref())
                    ))
                })
            })
            .collect();
        (local, outcomes)
    });

    // Assemble the bands in participant order (== row order). Lost slices
    // are recomputed locally before merging; a rejection fails the job.
    let mut bands: Vec<(u64, BootstrapResult)> = Vec::new();
    if let Some(r) = local {
        bands.push((plan[0].0, r?));
    }
    for outcome in peer_outcomes {
        match outcome {
            BootSliceOutcome::Done(r) => bands.push((r.offset as u64, r)),
            BootSliceOutcome::Empty => {}
            BootSliceOutcome::Lost {
                row_start,
                row_take,
                why,
            } => {
                if job.cancel.load(Ordering::Relaxed) {
                    return Err(CoreError::Cancelled);
                }
                stats.peers_failed.fetch_add(1, Ordering::Relaxed);
                stats.spans_reassigned.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "jobd: boot: peer slice [{row_start}, {}) lost ({why}); recomputing locally",
                    row_start + row_take
                );
                bands.push((row_start, run_local_slice(row_start, row_take)?));
            }
            BootSliceOutcome::Rejected(why) => {
                return Err(CoreError::Comm(why));
            }
        }
    }
    bands.sort_by_key(|&(start, _)| start);
    let mut merged = BootstrapResult {
        offset: 0,
        theta: Vec::new(),
        se: Vec::new(),
        pct_lo: Vec::new(),
        pct_hi: Vec::new(),
        bca_lo: Vec::new(),
        bca_hi: Vec::new(),
        replicates: work.b - 1,
        level: boot::CI_LEVEL,
    };
    for (_, band) in &bands {
        merged.extend(band)?;
    }
    if merged.genes() as u64 != genes {
        return Err(CoreError::Comm(format!(
            "sharded bootstrap covered {} of {genes} gene rows",
            merged.genes()
        )));
    }
    Ok(merged)
}

/// One unit of sharded work reported to the merger.
enum SpanOutcome {
    /// A span's exact exceedance counts, from any participant.
    Done {
        start: u64,
        take: u64,
        counts: CountAccumulator,
    },
    /// The work itself is invalid everywhere (engine error, rejected
    /// request): fail the job, reassignment cannot help.
    JobFail(String),
}

/// Per-attempt socket deadline for peer span dispatch: long enough for a
/// busy peer to grind a span, short enough that a hung peer is declared dead
/// and its spans reassigned within one retry budget.
const PEER_TIMEOUT: Duration = Duration::from_secs(30);

/// Blocking next-work for one sharded participant: its own range first,
/// then orphaned spans of dead peers. Polls the orphan queue until the job
/// is complete so a late peer death never strands work — the merger flips
/// `done` when the frontier reaches `B` (or on failure).
fn next_span(
    own: &mut VecDeque<(u64, u64)>,
    orphans: &SpanQueue,
    done: &AtomicBool,
    cancel: &AtomicBool,
    shutdown: &AtomicBool,
) -> Option<(u64, u64)> {
    loop {
        if done.load(Ordering::Relaxed)
            || cancel.load(Ordering::Relaxed)
            || shutdown.load(Ordering::Relaxed)
        {
            return None;
        }
        if let Some(span) = own.pop_front().or_else(|| orphans.pop()) {
            return Some(span);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drive one sharded job to completion: split the remaining permutation
/// range across the roster (this daemon plus every configured peer) with the
/// same [`span_plan`] arithmetic the SPMD ranks use, dispatch remote spans
/// as `span_exec` requests, run the local share on this thread's scope, and
/// merge results in frontier order so every checkpoint is an exact prefix.
///
/// Counts are `u64` exceedance tallies and addition is commutative, so the
/// merged result is bitwise-identical to a serial run whatever the roster,
/// span size, completion order or failure history — provided each span is
/// merged exactly once, which the frontier map enforces (duplicates from
/// at-least-once dispatch are dropped by start index).
/// Seconds of kernel work in one engine run, for the shard telemetry
/// counters: the caller's thread-CPU delta when the run was inline (one
/// worker — immune to CPU oversubscription across roster daemons), the
/// engine's per-worker busy sum otherwise.
fn kernel_secs(cpu0: Option<f64>, run: &ChunkRun) -> f64 {
    if run.workers.len() <= 1 {
        if let (Some(a), Some(b)) = (cpu0, shard::thread_cpu_secs()) {
            return (b - a).max(0.0);
        }
    }
    run.workers.iter().map(|w| w.busy.as_secs_f64()).sum()
}

fn run_sharded(inner: &Arc<Inner>, job: &Arc<Job>) {
    let work = &job.work;
    let stats = Arc::clone(job.shard.as_ref().expect("sharded job carries stats"));
    // Claim the job; bail out if it was cancelled before we started.
    let start_cursor = {
        let mut prog = plock(&job.prog);
        if prog.state != JobState::Queued {
            return;
        }
        if job.cancel.load(Ordering::Relaxed) {
            prog.state = JobState::Cancelled;
            drop(prog);
            emit_event(job);
            bump_change(inner);
            journal_transition(inner, job);
            return;
        }
        prog.state = JobState::Running;
        prog.cursor
    };
    journal_transition(inner, job);
    let make_ctx = || {
        MaxTContext::with_scorer(
            &work.prepared,
            &work.labels,
            work.opts.test,
            work.opts.side,
            work.opts.kernel,
            work.opts.precision,
        )
    };
    let remaining = work.b - start_cursor;
    if remaining == 0 {
        let mut prog = plock(&job.prog);
        prog.result = Some(make_ctx().finalize(&prog.counts));
        prog.state = JobState::Finished;
        drop(prog);
        emit_event(job);
        bump_change(inner);
        journal_transition(inner, job);
        return;
    }
    let roster = 1 + inner.cfg.peers.len();
    // Participant 0 is the local executor, so the identity-permutation chunk
    // (index 0) is always computed where the coordinator lives.
    let plan = match span_plan(remaining, roster) {
        Ok(plan) => plan,
        Err(e) => {
            fail_job(inner, job, e.to_string());
            return;
        }
    };
    let mut queues: Vec<VecDeque<(u64, u64)>> = plan
        .iter()
        .map(|&(s, t)| slice_spans(start_cursor + s, t, inner.cfg.span).into())
        .collect();
    stats.peers.store(roster as u64, Ordering::Relaxed);
    stats.spans_total.store(
        queues.iter().map(|q| q.len() as u64).sum(),
        Ordering::Relaxed,
    );
    let genes = work.prepared.rows();
    let flat_len = CountAccumulator::new(genes).to_flat().len();
    let path = work
        .source
        .as_ref()
        .expect("sharded job has a source path")
        .display()
        .to_string();
    let faults = &inner.cfg.faults;
    let orphans = SpanQueue::new();
    let done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<SpanOutcome>();
    let mut failure: Option<String> = None;

    std::thread::scope(|scope| {
        let orphans = &orphans;
        let done = &done;
        let inner_ref: &Inner = inner;
        let job_ref: &Job = job;

        // Peer dispatchers: participants 1..roster, one thread per peer.
        for (idx, addr) in inner_ref.cfg.peers.iter().enumerate() {
            let mut own = std::mem::take(&mut queues[idx + 1]);
            let tx = tx.clone();
            let stats = Arc::clone(&stats);
            let path = path.clone();
            scope.spawn(move || {
                let policy = RetryPolicy {
                    attempts: 3,
                    base: Duration::from_millis(50),
                    max: Duration::from_secs(2),
                    seed: 0x7065_6572 ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                };
                let link = PeerLink {
                    addr,
                    policy,
                    timeout: Some(PEER_TIMEOUT),
                    stats: &stats,
                    faults,
                };
                // Declare this peer dead: return its unfinished spans (the
                // in-flight one included) to the orphan queue for survivors.
                let die = |own: &mut VecDeque<(u64, u64)>, current: (u64, u64), why: &str| {
                    let n = orphans.reassign(std::iter::once(current).chain(own.drain(..)));
                    stats.peers_failed.fetch_add(1, Ordering::Relaxed);
                    stats.spans_reassigned.fetch_add(n, Ordering::Relaxed);
                    eprintln!("jobd: shard: peer {addr} lost ({why}); {n} span(s) reassigned");
                };
                while let Some((s, t)) = next_span(
                    &mut own,
                    orphans,
                    done,
                    &job_ref.cancel,
                    &inner_ref.shutdown,
                ) {
                    if faults.fire(FaultKind::PeerDrop) {
                        die(&mut own, (s, t), "injected peer_drop");
                        return;
                    }
                    let req = protocol::span_exec_request(&path, &work.opts, work.b, s, t);
                    match link.exec(&req) {
                        Ok(resp) => match protocol::span_counts_from_json(&resp) {
                            Ok((rs, rt, flat, secs))
                                if rs == s && rt == t && flat.len() == flat_len =>
                            {
                                stats
                                    .kernel_remote_micros
                                    .fetch_add((secs.max(0.0) * 1e6) as u64, Ordering::Relaxed);
                                stats.spans_remote.fetch_add(1, Ordering::Relaxed);
                                let counts = CountAccumulator::from_flat(&flat, genes);
                                let _ = tx.send(SpanOutcome::Done {
                                    start: s,
                                    take: t,
                                    counts,
                                });
                            }
                            Ok(_) => {
                                die(&mut own, (s, t), "span/shape mismatch in response");
                                return;
                            }
                            Err(e) => {
                                die(&mut own, (s, t), &format!("malformed span response: {e}"));
                                return;
                            }
                        },
                        Err(PeerError::Dead(why)) => {
                            die(&mut own, (s, t), &why);
                            return;
                        }
                        Err(PeerError::Rejected(why)) => {
                            let _ = tx.send(SpanOutcome::JobFail(format!(
                                "peer {addr} rejected span [{s}, {}): {why}",
                                s + t
                            )));
                            return;
                        }
                    }
                }
            });
        }

        // Local executor: participant 0, plus whatever the dead peers leave
        // behind. Runs on this scope so a local engine panic fails the job,
        // not the daemon.
        {
            let mut own = std::mem::take(&mut queues[0]);
            let tx = tx.clone();
            let stats = Arc::clone(&stats);
            scope.spawn(move || {
                let ctx = make_ctx();
                while let Some((s, t)) = next_span(
                    &mut own,
                    orphans,
                    done,
                    &job_ref.cancel,
                    &inner_ref.shutdown,
                ) {
                    let cpu0 = shard::thread_cpu_secs();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if faults.fire(FaultKind::WorkerPanic) {
                            panic!("injected worker panic (SPRINT_FAULTS worker_panic)");
                        }
                        if faults.fire(FaultKind::SpanIo) {
                            return Err(CoreError::Comm("injected span I/O error".to_string()));
                        }
                        let hooks = ChunkHooks {
                            cancel: Some(&job_ref.cancel),
                            progress: None,
                        };
                        accumulate_chunk_hooked(
                            &ctx,
                            &work.labels,
                            &work.opts,
                            work.b,
                            s,
                            t,
                            work.cfg,
                            hooks,
                        )
                    }));
                    match outcome {
                        Ok(Ok(run)) => {
                            stats.kernel_local_micros.fetch_add(
                                (kernel_secs(cpu0, &run) * 1e6) as u64,
                                Ordering::Relaxed,
                            );
                            stats.spans_local.fetch_add(1, Ordering::Relaxed);
                            let _ = tx.send(SpanOutcome::Done {
                                start: s,
                                take: t,
                                counts: run.counts,
                            });
                        }
                        Ok(Err(CoreError::Cancelled)) => return,
                        Ok(Err(e)) => {
                            let _ = tx.send(SpanOutcome::JobFail(e.to_string()));
                            return;
                        }
                        Err(payload) => {
                            let _ = tx.send(SpanOutcome::JobFail(format!(
                                "worker panicked: {}",
                                panic_message(payload.as_ref())
                            )));
                            return;
                        }
                    }
                }
            });
        }
        drop(tx);

        // Merger: this thread. Spans may complete in any order; they are
        // merged strictly in frontier order so `prog.counts` is always the
        // exact accumulation of permutations `[0, cursor)` — the invariant
        // the checkpoint format requires.
        let mut pending: BTreeMap<u64, (u64, CountAccumulator)> = BTreeMap::new();
        let mut frontier = start_cursor;
        let t0 = Instant::now();
        for outcome in rx {
            match outcome {
                SpanOutcome::Done {
                    start,
                    take,
                    counts,
                } => {
                    if failure.is_some() {
                        continue;
                    }
                    if start < frontier || pending.contains_key(&start) {
                        // Duplicate under at-least-once dispatch (a peer was
                        // declared dead after actually finishing the span).
                        continue;
                    }
                    pending.insert(start, (take, counts));
                    let mut advanced = false;
                    while let Some((take, counts)) = pending.remove(&frontier) {
                        let mut prog = plock(&job.prog);
                        prog.counts.merge(&counts);
                        prog.cursor += take;
                        prog.computed += take;
                        frontier = prog.cursor;
                        job.live_done.store(frontier, Ordering::Relaxed);
                        let done_perms = (frontier - start_cursor).max(1);
                        prog.secs_per_perm = Some(t0.elapsed().as_secs_f64() / done_perms as f64);
                        if work.cached {
                            if let Some(cache) = &inner.cache {
                                let state = CheckpointState {
                                    digest: work.check_digest,
                                    cursor: prog.cursor,
                                    b: work.b,
                                    counts: prog.counts.clone(),
                                };
                                if let Err(e) = cache.store(&job.key, &state) {
                                    eprintln!(
                                        "jobd: warning: failed to write cache entry {}: {e}",
                                        job.key.hex()
                                    );
                                }
                            }
                        }
                        advanced = true;
                    }
                    if advanced {
                        emit_event(job);
                        bump_change(inner);
                        if frontier >= work.b {
                            done.store(true, Ordering::Relaxed);
                        }
                    }
                }
                SpanOutcome::JobFail(msg) => {
                    if failure.is_none() {
                        failure = Some(msg);
                    }
                    done.store(true, Ordering::Relaxed);
                }
            }
        }
    });

    if let Some(msg) = failure {
        fail_job(inner, job, msg);
        return;
    }
    let mut prog = plock(&job.prog);
    if prog.cursor >= work.b {
        prog.result = Some(make_ctx().finalize(&prog.counts));
        prog.state = JobState::Finished;
        drop(prog);
        emit_event(job);
        bump_change(inner);
        journal_transition(inner, job);
    } else if job.cancel.load(Ordering::Relaxed) {
        job.live_done.store(prog.cursor, Ordering::Relaxed);
        prog.state = JobState::Cancelled;
        drop(prog);
        emit_event(job);
        bump_change(inner);
        journal_transition(inner, job);
    } else if inner.shutdown.load(Ordering::Relaxed) {
        // Resumable on restart: the checkpoint holds the merged frontier.
        prog.state = JobState::Queued;
        drop(prog);
        bump_change(inner);
    } else {
        drop(prog);
        fail_job(
            inner,
            job,
            "sharded run stalled with spans unaccounted".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_core::maxt::serial::mt_maxt;

    fn small_dataset() -> (Matrix, Vec<u8>) {
        let data = Matrix::from_vec(
            4,
            6,
            vec![
                1.0, 2.0, 1.5, 9.0, 10.0, 9.5, //
                5.0, 4.0, 6.0, 5.5, 4.5, 5.2, //
                2.0, 8.0, 3.0, 7.0, 2.5, 7.5, //
                3.3, 3.1, 3.2, 3.4, 3.0, 3.5,
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 1, 1, 1])
    }

    fn manager(span: u64) -> JobManager {
        JobManager::new(ManagerConfig {
            workers: 2,
            span,
            cache_dir: None,
            ..ManagerConfig::default()
        })
        .unwrap()
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
        assert!(mgr.is_boot(info.id).unwrap());
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
    fn bootstrap_jobs_dedup_and_cache_separately_from_permutation_jobs() {
        let (data, labels) = small_dataset();
        let mut dir = std::env::temp_dir();
        dir.push(format!("sprint-jobd-bootcache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 16,
            cache_dir: Some(dir.clone()),
            ..ManagerConfig::default()
        })
        .unwrap();
        let boot_opts = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(120);
        let perm_opts = PmaxtOptions::default().permutations(120);
        let a = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: boot_opts.clone(),
                source_path: None,
            })
            .unwrap();
        let perm = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: perm_opts,
                source_path: None,
            })
            .unwrap();
        // The workload marker keeps the two streams apart.
        assert_ne!(a.key, perm.key);
        assert_ne!(a.id, perm.id);
        let first = mgr
            .wait_boot_result(a.id, Some(Duration::from_secs(30)))
            .unwrap();
        mgr.wait_result(perm.id, Some(Duration::from_secs(30)))
            .unwrap();
        // The bootstrap accessor refuses a permutation job.
        assert!(matches!(
            mgr.boot_result(perm.id).unwrap_err(),
            JobError::Invalid(CoreError::BadOption {
                param: "workload",
                ..
            })
        ));
        // An identical live resubmission dedups onto the same job.
        let b = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: boot_opts.clone(),
                source_path: None,
            })
            .unwrap();
        assert_eq!(b.id, a.id);
        assert!(b.deduped);
        // A fresh manager over the same cache dir (a daemon restart) serves
        // the run whole from the `.boot` entry without recomputing.
        let mgr2 = JobManager::new(ManagerConfig {
            workers: 1,
            span: 16,
            cache_dir: Some(dir.clone()),
            ..ManagerConfig::default()
        })
        .unwrap();
        let hit = mgr2
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: boot_opts.clone(),
                source_path: None,
            })
            .unwrap();
        assert_eq!(hit.state, JobState::Finished);
        assert_eq!(hit.cache, CacheDisposition::Hit);
        assert_eq!(mgr2.boot_result(hit.id).unwrap(), first);
        let st = mgr2.status(hit.id).unwrap();
        assert_eq!(st.computed, 0, "cache hit computes nothing");
        // A different draw count misses (no prefix semantics) and recomputes.
        let c = mgr2
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts: boot_opts.permutations(240),
                source_path: None,
            })
            .unwrap();
        assert_eq!(c.cache, CacheDisposition::Miss);
        let longer = mgr2
            .wait_boot_result(c.id, Some(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(longer.replicates, 239);
        std::fs::remove_dir_all(&dir).ok();
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
    fn identical_live_submissions_dedup_to_one_job() {
        let (data, labels) = small_dataset();
        let opts = PmaxtOptions::default().permutations(500);
        let mgr = manager(8);
        let a = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone(),
                source_path: None,
            })
            .unwrap();
        let b = mgr
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts,
                source_path: None,
            })
            .unwrap();
        assert_eq!(a.id, b.id);
        assert!(!a.deduped);
        assert!(b.deduped);
        assert_eq!(a.key, b.key);
        mgr.wait_result(a.id, Some(Duration::from_secs(30)))
            .unwrap();
    }

    #[test]
    fn queue_cap_rejects_with_busy_code() {
        let (data, labels) = small_dataset();
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            queue_cap: 1,
            span: 4,
            cache_dir: None,
            ..ManagerConfig::default()
        })
        .unwrap();
        // Fill the queue with distinct long jobs (different seeds).
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for seed in 0..12u64 {
            let spec = JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: PmaxtOptions::default().permutations(50_000).seed(seed),
                source_path: None,
            };
            match mgr.submit(spec) {
                Ok(_) => accepted += 1,
                Err(e @ JobError::QueueFull { .. }) => {
                    assert_eq!(e.code(), "busy");
                    rejected += 1;
                }
                Err(other) => panic!(
                    "unexpected error {other:?} submitting seed {seed} \
                     (accepted {accepted}, rejected {rejected}); job snapshot: {:?}",
                    mgr.list()
                        .iter()
                        .map(|s| (s.id, s.state, s.done, s.total, s.error.clone()))
                        .collect::<Vec<_>>()
                ),
            }
        }
        assert!(accepted >= 1, "at least one job must be accepted");
        assert!(rejected >= 1, "the cap must reject at least one job");
        mgr.shutdown();
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
    fn drain_rejects_new_work_and_waits_for_running_jobs() {
        let (data, labels) = small_dataset();
        let mgr = JobManager::new(ManagerConfig {
            workers: 1,
            span: 32,
            cache_dir: None,
            faults: Faults::disabled(),
            ..ManagerConfig::default()
        })
        .unwrap();
        let info = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: PmaxtOptions::default().permutations(2_000),
                source_path: None,
            })
            .unwrap();
        mgr.drain();
        let err = mgr
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts: PmaxtOptions::default().permutations(50).seed(3),
                source_path: None,
            })
            .unwrap_err();
        assert_eq!(err, JobError::ShuttingDown);
        assert!(
            mgr.wait_idle(Some(Duration::from_secs(60))),
            "drain must let the in-flight job run to a terminal state"
        );
        assert_eq!(mgr.status(info.id).unwrap().state, JobState::Finished);
        mgr.shutdown();
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

    /// Mostly-null dataset: adaptive mode deactivates most genes early, so
    /// the watermark lands well before `B` and the upgrade path is exercised.
    fn null_heavy_dataset() -> (Matrix, Vec<u8>) {
        let genes = 16;
        let cols = 10;
        let mut v = Vec::with_capacity(genes * cols);
        for g in 0..genes {
            for c in 0..cols {
                v.push(((g * 31 + c * 17) as f64 + 1.25).sin() * 3.0);
            }
        }
        for cell in &mut v[5..10] {
            *cell += 25.0; // gene 0 carries real signal
        }
        let labels = (0..cols).map(|c| (c >= cols / 2) as u8).collect();
        (Matrix::from_vec(genes, cols, v).unwrap(), labels)
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
    fn adaptive_and_exact_submissions_never_dedup_together() {
        let (data, labels) = null_heavy_dataset();
        let opts = PmaxtOptions::default().permutations(2000);
        let mgr = manager(64);
        let a = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone().mode(Mode::Adaptive),
                source_path: None,
            })
            .unwrap();
        let b = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone(),
                source_path: None,
            })
            .unwrap();
        assert_ne!(a.id, b.id, "different modes must be different jobs");
        assert!(!b.deduped);
        // Same mode still dedups.
        let c = mgr
            .submit(JobSpec {
                data,
                classlabel: labels,
                opts: opts.mode(Mode::Adaptive),
                source_path: None,
            })
            .unwrap();
        assert_eq!(c.id, a.id);
        assert!(c.deduped);
        mgr.wait_result(a.id, Some(Duration::from_secs(60)))
            .unwrap();
        mgr.wait_result(b.id, Some(Duration::from_secs(60)))
            .unwrap();
    }

    #[test]
    fn exec_span_refuses_adaptive_mode() {
        let (data, labels) = small_dataset();
        let mgr = manager(16);
        let err = mgr
            .exec_span(
                data,
                labels,
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
}
