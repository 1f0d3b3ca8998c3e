//! The job manager: the public job API over one bounded queue, a worker
//! pool, the result cache and the write-ahead journal.
//!
//! A submission passes admission (`sprint_core::admit`, then the private
//! `exec` module's own checks), collapses onto an identical live job if there is one,
//! and consults the cache: a full entry finalizes it on the spot, a partial
//! one becomes its resume point. Whatever remains to compute enters the
//! bounded queue, whose workers run it through the executor — see `exec`
//! for scheduling, determinism and failure domains. This module owns the
//! rest of the lifecycle: the job registry and dedup map, status, results,
//! cancellation and progress events, drain and shutdown, and journal
//! replay at startup.
//!
//! ## What a finished job keeps
//!
//! A terminal job keeps a small record: its id, key, state, counters,
//! error, adaptive summary and fetched flag, but no matrix, counts or
//! stream. A finished job's payload — its [`MaxTResult`], its
//! [`BootstrapResult`], or its result with an [`AdaptiveReport`] — moves to
//! one store bounded at [`PAYLOAD_BYTES`], least recently used first out;
//! the newest payload is kept even when it alone exceeds the bound. Every
//! read of a payload, and every resubmission deduplicated onto its job,
//! marks it used. A finished job whose payload was evicted answers
//! [`JobError::Expired`] and is no dedup target: resubmitting the request
//! registers a new job, which the cache serves as a hit (or which
//! recomputes without a cache). At most [`RECORDS`] terminal records are
//! kept, the least recently finished or reused evicted first, each with
//! its dedup slot; queued and running jobs are never evicted. An id this
//! manager issued whose record is gone answers [`JobError::Expired`] too.
//!
//! ## Cancellation and resumability
//!
//! Cancellation sets a per-job [`AtomicBool`] polled by every engine worker
//! between batches. A unit interrupted mid-way is discarded — its partial
//! counts are not an index prefix — so the job's durable state remains the
//! last merged checkpoint, which a later submit resumes from.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sprint_core::adaptive::AdaptiveReport;
use sprint_core::boot::BootstrapResult;
use sprint_core::error::Error as CoreError;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::MaxTResult;
use sprint_core::options::{Mode, PmaxtOptions};

use crate::cache::{CacheKey, ResultCache};
use crate::datasets::{DatasetTable, SharedDataset};
use crate::exec::{self, Entry, Job, JobProgress, JobWork, Payload};
use crate::faults::{crash_point, FaultKind, Faults};
use crate::journal::{self, Durability, Journal, JournalRecord, RecordKind};
use crate::json::Json;
use crate::lru::Lru;
use crate::shard::ShardSnapshot;

/// Lock a mutex, recovering from poisoning.
///
/// Safe here by construction: panics in job-processing code are caught at
/// the unit boundary (see [`crate::exec`]) *before* they can unwind through
/// a guarded section, and every critical section leaves its guarded state
/// consistent at each intermediate step — so a poisoned lock carries no
/// torn data. Refusing to recover would escalate one panic into a dead
/// daemon, the exact failure-domain leak the executor exists to prevent.
pub(crate) fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Most bytes of finished jobs' payloads a manager keeps (see the module
/// docs): 32 per gene for a maxT result, so about twenty answers on the
/// paper's 6102-gene matrix.
pub const PAYLOAD_BYTES: usize = 4 << 20;

/// Most terminal job records a manager keeps (see the module docs).
pub const RECORDS: usize = 1024;

/// Configuration of a [`JobManager`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Worker threads servicing the job queue (each runs one unit, or one
    /// sharded job's roster, at a time); `0` resolves to 2.
    pub workers: usize,
    /// Maximum runnable jobs queued at once, of every kind; further
    /// submissions are rejected with [`JobError::QueueFull`].
    pub queue_cap: usize,
    /// Permutations per span — the checkpoint / fairness / cancellation
    /// granule.
    pub span: u64,
    /// Engine threads for jobs that leave `opts.threads = 0` (auto); `0`
    /// resolves to available parallelism divided by the worker count, so a
    /// fully busy pool does not oversubscribe the machine.
    pub job_threads: usize,
    /// Cache directory; `None` disables caching (every submit computes).
    pub cache_dir: Option<PathBuf>,
    /// Peer daemon addresses (`pmaxt serve --peer`). When non-empty, an
    /// exact job submitted with a dataset path is *sharded*: its permutation
    /// range (or its genes, for bootstrap) is split across this daemon and
    /// every peer via `span_exec` requests, and the parts are merged
    /// bitwise-identically to a local run (see [`crate::shard`]).
    pub peers: Vec<String>,
    /// Fault-injection registry threaded through the executor and the cache
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
    pub source_path: Option<PathBuf>,
}

/// A submission as [`JobManager::submit_as`] takes it: [`JobSpec`] with the
/// matrix and labels behind `Arc`s, so a dataset-table load is shared rather
/// than copied, and the digest the table keeps for them.
struct Submission {
    data: Arc<Matrix>,
    classlabel: Arc<[u8]>,
    /// [`sprint_core::digest::dataset_digest`] of `data` and `classlabel`,
    /// when the caller already knows it.
    digest: Option<u64>,
    opts: PmaxtOptions,
    source_path: Option<PathBuf>,
}

impl From<JobSpec> for Submission {
    fn from(spec: JobSpec) -> Submission {
        Submission {
            data: Arc::new(spec.data),
            classlabel: spec.classlabel.into(),
            digest: None,
            opts: spec.opts,
            source_path: spec.source_path,
        }
    }
}

impl Submission {
    /// A run over a dataset loaded through the dataset table, from its
    /// canonical path.
    fn loaded(dataset: SharedDataset, opts: PmaxtOptions) -> Submission {
        Submission {
            data: dataset.data,
            classlabel: dataset.classlabel,
            digest: Some(dataset.digest),
            opts,
            source_path: Some(dataset.path),
        }
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue for a worker.
    Queued,
    /// A worker is processing a unit (or driving the roster) right now.
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
    /// The job's result, or its whole record, was evicted to bound the
    /// daemon's memory; resubmitting the request fetches the result again.
    Expired(u64),
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
            JobError::Expired(id) => write!(
                f,
                "job {id} has expired: its result was evicted to bound the daemon's memory; \
                 resubmit the request to fetch it again"
            ),
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
    /// `expired` for an evicted result, `runtime` for everything else.
    pub fn code(&self) -> &'static str {
        match self {
            JobError::Invalid(_) | JobError::UnknownJob(_) | JobError::NotFinished(_) => "usage",
            JobError::QueueFull { .. } => "busy",
            JobError::Expired(_) => "expired",
            _ => "runtime",
        }
    }
}

/// The manager's shared state, also the executor's view of the daemon.
pub(crate) struct Inner {
    pub(crate) cfg: ManagerConfig,
    pub(crate) cache: Option<ResultCache>,
    /// Write-ahead job journal; `None` when durability is off or there is
    /// no cache directory to host it.
    pub(crate) journal: Option<Journal>,
    pub(crate) queue: Mutex<VecDeque<Arc<Job>>>,
    pub(crate) queue_cv: Condvar,
    pub(crate) shutdown: AtomicBool,
    /// Drain mode: reject new submissions but let queued/running jobs reach
    /// a terminal state (see [`JobManager::drain`]).
    pub(crate) draining: AtomicBool,
    /// Every live job, and the terminal records `records` keeps.
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// (stream key hex, resolved B, mode) → live job id, for submission
    /// dedup. Mode is part of the key: an adaptive and an exact submission
    /// of the same stream are different jobs (they share a cache address —
    /// the watermark — but not a result).
    dedup: Mutex<HashMap<Slot, u64>>,
    /// Finished jobs' payloads by id, charged [`Payload::bytes`], newest
    /// always kept.
    payloads: Lru<u64, Arc<Payload>>,
    /// Ids of the terminal jobs whose records `jobs` keeps, one unit each.
    records: Lru<u64, ()>,
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

/// The job service: owns the queue, the worker pool, the cache and the
/// dataset table.
pub struct JobManager {
    pub(crate) inner: Arc<Inner>,
    /// Every dataset this daemon loads by path — for `submit`, `span_exec`
    /// and journal replay — goes through this table.
    datasets: DatasetTable,
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

/// Dedup address of a job: (stream key hex, resolved B, mode).
type Slot = (String, u64, Mode);

impl Inner {
    /// Bump the state-change generation and wake every waiter.
    pub(crate) fn bump_change(&self) {
        *plock(&self.change) += 1;
        self.change_cv.notify_all();
    }

    /// Move job `id`'s finished payload from its progress `prog` (locked,
    /// so no reader sees the job finished without it) to the store.
    pub(crate) fn keep_payload(&self, id: u64, prog: &mut JobProgress) {
        if let Some(payload) = prog.payload.take() {
            let bytes = payload.bytes();
            self.payloads.insert(id, Arc::new(payload), bytes);
        }
    }

    /// Count terminal job `id` among the kept records, evicting the least
    /// recently used others past [`RECORDS`].
    pub(crate) fn retire(&self, id: u64) {
        for old in self.records.insert(id, (), 1) {
            self.forget(old);
        }
    }

    /// Drop terminal job `id`'s record, its dedup slot and its payload.
    fn forget(&self, id: u64) {
        let mut dedup = plock(&self.dedup);
        let Some(job) = plock(&self.jobs).remove(&id) else {
            return;
        };
        let slot = slot_of(&job);
        if dedup.get(&slot) == Some(&id) {
            dedup.remove(&slot);
        }
        self.payloads.remove(&id);
    }
}

/// The dedup address of `job`.
fn slot_of(job: &Job) -> Slot {
    (job.key.hex(), job.work.run.b, job.work.run.mode)
}

impl JobManager {
    /// Start a manager: open the cache (if configured) and spawn the worker
    /// pool.
    pub fn new(cfg: ManagerConfig) -> std::io::Result<JobManager> {
        Self::bounded(cfg, PAYLOAD_BYTES, RECORDS)
    }

    /// [`JobManager::new`], keeping at most `payload_bytes` of finished
    /// payloads and `records` terminal records.
    pub(crate) fn bounded(
        mut cfg: ManagerConfig,
        payload_bytes: usize,
        records: usize,
    ) -> std::io::Result<JobManager> {
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
            payloads: Lru::keeping_newest(payload_bytes),
            records: Lru::new(records),
            next_id: AtomicU64::new(1),
            change: Mutex::new(0),
            change_cv: Condvar::new(),
        });
        let workers = (0..inner.cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || exec::worker_loop(&inner))
            })
            .collect();
        let mgr = JobManager {
            inner,
            datasets: DatasetTable::new(),
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

    /// The table every dataset this daemon reads by path is loaded through.
    pub(crate) fn datasets(&self) -> &DatasetTable {
        &self.datasets
    }

    /// Submit a run. Validates like `mt_maxt` (or `boot_run`), dedups
    /// against identical live jobs, consults the cache, and enqueues
    /// whatever remains to compute.
    pub fn submit(&self, spec: JobSpec) -> Result<SubmitInfo, JobError> {
        self.submit_as(spec.into(), false)
    }

    /// [`JobManager::submit`] a run over a dataset loaded through this
    /// daemon's table, sharing the table's parse and digest.
    pub(crate) fn submit_loaded(
        &self,
        dataset: SharedDataset,
        opts: PmaxtOptions,
    ) -> Result<SubmitInfo, JobError> {
        self.submit_as(Submission::loaded(dataset, opts), false)
    }

    /// [`JobManager::submit`] body, with recovery provenance threaded
    /// through: journal replay re-enters here with `recovered = true`.
    fn submit_as(&self, sub: Submission, recovered: bool) -> Result<SubmitInfo, JobError> {
        let Submission {
            data,
            classlabel,
            digest,
            opts,
            source_path,
        } = sub;
        let sourced = source_path.is_some();
        let adm = exec::admit(
            &self.inner,
            data,
            &classlabel,
            &opts,
            sourced,
            Entry::Submit,
        )?;
        // The options digest carries the workload marker, so a permutation
        // job and a bootstrap job of the same dataset never share a key. A
        // known digest is of the submitted matrix, which an NA code
        // rewrites: the key then digests the canonical one.
        let key = match digest {
            Some(dataset) if opts.na.is_none() => CacheKey::from_digest(dataset, &opts),
            _ => CacheKey::new(&adm.data, &classlabel, &opts),
        };
        let slot: Slot = (key.hex(), adm.run.b, adm.run.mode);
        // Dedup: an identical live submission is the same job. This early
        // look only saves the work below; the check that counts is repeated
        // under the lock at registration.
        if let Some(twin) = self.twin(&plock(&self.inner.dedup), &slot) {
            return Ok(twin);
        }
        let sharded = adm.sharded;
        let (mut work, data) = JobWork::new(adm, source_path, key.check_digest());
        let mut prog = JobProgress::new(data);
        let finished = exec::seed(self.inner.cache.as_ref(), &key, &mut work, &mut prog);
        let (state, cache) = (prog.state, prog.cache);
        let job = {
            let mut dedup = plock(&self.inner.dedup);
            // Identical submissions that raced through admission and the
            // probe together collapse here onto whichever registers first.
            if let Some(twin) = self.twin(&dedup, &slot) {
                return Ok(twin);
            }
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            let job = Arc::new(Job::new(id, key, work, prog, sharded, recovered));
            if finished {
                self.inner.keep_payload(id, &mut plock(&job.prog));
            } else {
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
            dedup.insert(slot.clone(), id);
            job
        };
        if finished {
            self.inner.retire(job.id);
            self.inner.bump_change();
        } else {
            self.journal_accept(&job)?;
        }
        Ok(SubmitInfo {
            id: job.id,
            state,
            cache,
            total: slot.1,
            deduped: false,
            key: slot.0,
            recovered,
        })
    }

    /// The job an identical submission collapses onto: a live one, or a
    /// finished one whose payload is still kept, which this marks used.
    /// Cancelled, failed and expired jobs fall through — resubmitting one
    /// is the recovery path (it resumes from the last checkpoint, or is
    /// served whole, via the cache probe).
    fn twin(&self, dedup: &HashMap<Slot, u64>, slot: &Slot) -> Option<SubmitInfo> {
        let id = *dedup.get(slot)?;
        let job = plock(&self.inner.jobs).get(&id).cloned()?;
        let prog = plock(&job.prog);
        let twin = match prog.state {
            JobState::Queued | JobState::Running => true,
            JobState::Finished => self.inner.payloads.get(&id).is_some(),
            JobState::Cancelled | JobState::Failed => false,
        };
        if twin && prog.state.is_terminal() {
            self.inner.records.get(&id);
        }
        twin.then(|| SubmitInfo {
            id,
            state: prog.state,
            cache: prog.cache,
            total: slot.1,
            deduped: true,
            key: slot.0.clone(),
            recovered: job.recovered,
        })
    }

    /// Run one unit `[start, start + take)` of a peer coordinator's sharded
    /// job — a permutation span, or a gene band of a bootstrap run, as the
    /// options' workload says — and return the `span_exec` reply.
    ///
    /// Admission is [`JobManager::submit`]'s, so the unit is drawn from the
    /// same canonical matrix and skip-ahead stream as the coordinator's own
    /// units; on top, the daemon re-resolves `B` from its own copy of the
    /// dataset and refuses the unit on drift — a peer with a stale or
    /// divergent file must never contribute.
    pub fn exec_span(
        &self,
        data: Arc<Matrix>,
        classlabel: &[u8],
        opts: PmaxtOptions,
        b: u64,
        start: u64,
        take: u64,
    ) -> Result<Json, JobError> {
        let entry = Entry::Peer(b, (start, take));
        let adm = exec::admit(&self.inner, data, classlabel, &opts, false, entry)?;
        let (work, data) = JobWork::new(adm, None, 0);
        exec::serve_unit(&work, &data, (start, take)).map_err(JobError::Invalid)
    }

    /// Job `id`'s record: [`JobError::Expired`] when this manager issued the
    /// id but no longer keeps its record.
    fn get(&self, id: u64) -> Result<Arc<Job>, JobError> {
        if let Some(job) = plock(&self.inner.jobs).get(&id) {
            return Ok(Arc::clone(job));
        }
        let issued = (1..self.inner.next_id.load(Ordering::Relaxed)).contains(&id);
        Err(if issued {
            JobError::Expired(id)
        } else {
            JobError::UnknownJob(id)
        })
    }

    /// Snapshot a job's status.
    pub fn status(&self, id: u64) -> Result<JobStatus, JobError> {
        Ok(self.get(id)?.status())
    }

    /// Status of every known job, by ascending id.
    pub fn list(&self) -> Vec<JobStatus> {
        let mut all: Vec<JobStatus> = plock(&self.inner.jobs)
            .values()
            .map(|j| j.status())
            .collect();
        all.sort_by_key(|s| s.id);
        all
    }

    /// A finished job's payload, marked used; otherwise the error its state
    /// maps to ([`JobError::NotFinished`] while it is live,
    /// [`JobError::Expired`] once its payload was evicted).
    pub(crate) fn payload(&self, id: u64) -> Result<Arc<Payload>, JobError> {
        let job = self.get(id)?;
        let prog = plock(&job.prog);
        match prog.state {
            JobState::Finished => {
                self.inner.records.get(&id);
                self.inner.payloads.get(&id).ok_or(JobError::Expired(id))
            }
            JobState::Cancelled => Err(JobError::Cancelled(id)),
            JobState::Failed => Err(JobError::Failed(
                prog.error.clone().unwrap_or_else(|| "unknown".into()),
            )),
            _ => Err(JobError::NotFinished(id)),
        }
    }

    /// Block until job `id` is terminal (or `timeout` elapses) and return
    /// its payload.
    pub(crate) fn wait_payload(
        &self,
        id: u64,
        timeout: Option<Duration>,
    ) -> Result<Arc<Payload>, JobError> {
        self.wait_for(id, timeout, |id| self.payload(id))
    }

    /// A usage error for asking job `id` for the wrong kind of result.
    fn wrong_workload(id: u64, payload: &Payload) -> JobError {
        let value = match payload {
            Payload::Boot(_) => format!(
                "bootstrap (job {id} is a bootstrap run; fetch its interval \
                 estimates with the bootstrap result call)"
            ),
            Payload::MaxT(..) => {
                format!("pmaxt (job {id} is a permutation run; fetch its maxT result instead)")
            }
        };
        JobError::Invalid(CoreError::BadOption {
            param: "workload",
            value,
        })
    }

    /// The finished result, or [`JobError::NotFinished`] (terminal failure
    /// states map to their own errors, an evicted result to
    /// [`JobError::Expired`]).
    pub fn result(&self, id: u64) -> Result<MaxTResult, JobError> {
        match &*self.payload(id)? {
            Payload::MaxT(result, _) => Ok(result.clone()),
            boot => Err(Self::wrong_workload(id, boot)),
        }
    }

    /// The finished bootstrap estimates, or [`JobError::NotFinished`]. Same
    /// terminal-state contract as [`JobManager::result`]; asking a
    /// permutation job for bootstrap estimates is a usage error.
    pub fn boot_result(&self, id: u64) -> Result<BootstrapResult, JobError> {
        match &*self.payload(id)? {
            Payload::Boot(result) => Ok(result.clone()),
            maxt => Err(Self::wrong_workload(id, maxt)),
        }
    }

    /// Block until the bootstrap job reaches a terminal state (or `timeout`
    /// elapses) and return its estimates.
    pub fn wait_boot_result(
        &self,
        id: u64,
        timeout: Option<Duration>,
    ) -> Result<BootstrapResult, JobError> {
        self.wait_for(id, timeout, |id| self.boot_result(id))
    }

    /// The per-gene adaptive report of a finished adaptive-mode job; `None`
    /// for exact jobs. Same terminal-state contract as [`JobManager::result`].
    pub fn adaptive_report(&self, id: u64) -> Result<Option<AdaptiveReport>, JobError> {
        match &*self.payload(id)? {
            Payload::MaxT(_, report) => Ok(report.clone()),
            Payload::Boot(_) => Ok(None),
        }
    }

    /// Note a successful `result` fetch of job `id`: true from its second
    /// on, false when its record is gone.
    pub(crate) fn fetched_before(&self, id: u64) -> bool {
        self.get(id)
            .is_ok_and(|job| job.fetched.swap(true, Ordering::Relaxed))
    }

    /// Block until the job reaches a terminal state (or `timeout` elapses)
    /// and return its result.
    pub fn wait_result(&self, id: u64, timeout: Option<Duration>) -> Result<MaxTResult, JobError> {
        self.wait_for(id, timeout, |id| self.result(id))
    }

    /// Block until job `id` leaves [`JobError::NotFinished`] under `fetch`.
    fn wait_for<T>(
        &self,
        id: u64,
        timeout: Option<Duration>,
        fetch: impl Fn(u64) -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        self.wait_until(timeout, || match fetch(id) {
            Err(JobError::NotFinished(_)) if !self.inner.shutdown.load(Ordering::Relaxed) => None,
            Err(JobError::NotFinished(_)) => Some(Err(JobError::ShuttingDown)),
            other => Some(other),
        })
        .unwrap_or(Err(JobError::Timeout(id)))
    }

    /// Block until `ready` yields, re-checking after every state change;
    /// `None` once `timeout` elapses.
    fn wait_until<T>(
        &self,
        timeout: Option<Duration>,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // Read the generation *before* checking: any transition after
            // the check bumps it, so the wait below cannot miss it.
            let seen = *plock(&self.inner.change);
            if let Some(out) = ready() {
                return Some(out);
            }
            let mut gen = plock(&self.inner.change);
            while *gen == seen {
                let cv = &self.inner.change_cv;
                gen = match deadline {
                    None => cv.wait(gen).unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return None;
                        }
                        cv.wait_timeout(gen, d - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
            }
        }
    }

    /// Request cancellation. Queued jobs cancel immediately; running jobs
    /// abort at the next batch boundary and keep their last merged
    /// checkpoint. Idempotent; terminal jobs are unaffected.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, JobError> {
        let job = self.get(id)?;
        job.cancel.store(true, Ordering::Relaxed);
        let became_terminal = {
            let mut prog = plock(&job.prog);
            let queued = prog.state == JobState::Queued;
            if queued {
                prog.state = JobState::Cancelled;
                exec::release(&job.work, &mut prog);
            }
            queued
        };
        if became_terminal {
            exec::publish(&self.inner, &job);
        }
        Ok(job.status())
    }

    /// Subscribe to a job's progress events. The current status is delivered
    /// immediately as the first event, so a subscriber to an already-terminal
    /// job still observes its outcome.
    pub fn subscribe(&self, id: u64) -> Result<mpsc::Receiver<JobEvent>, JobError> {
        let job = self.get(id)?;
        let (tx, rx) = mpsc::channel();
        // Snapshot under the watchers' lock: a transition before it shows in
        // the snapshot, one after it reaches the registered sender. A
        // duplicate event is harmless, a missing terminal one would wedge
        // watchers. A terminal snapshot is the last event, so its sender is
        // not kept.
        let snapshot = {
            let mut subs = plock(&job.subs);
            let snapshot = job.event();
            if !snapshot.state.is_terminal() {
                subs.push(tx.clone());
            }
            snapshot
        };
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
        self.inner.bump_change();
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
        self.wait_until(timeout, || self.idle().then_some(()))
            .is_some()
            || self.idle()
    }

    /// Fault-class counters of this manager's injection registry (all zero
    /// when injection is disabled). Soak tests use this to assert each fault
    /// class actually exercised its recovery path.
    pub fn fault_report(&self) -> Vec<(FaultKind, u64, u64)> {
        self.inner.cfg.faults.report()
    }

    /// Stop the worker pool: no further units are started (in-flight units
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
        self.inner.bump_change();
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
    fn journal_accept(&self, job: &Arc<Job>) -> Result<(), JobError> {
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
                self.withdraw(job);
                Err(JobError::Internal(format!("journal append failed: {e}")))
            }
        }
    }

    /// Roll back a registration whose accept record could not be journaled:
    /// the client is told the submission failed, so the job must neither run
    /// nor serve as a dedup target.
    fn withdraw(&self, job: &Job) {
        job.cancel.store(true, Ordering::SeqCst);
        plock(&self.inner.queue).retain(|j| j.id != job.id);
        plock(&self.inner.jobs).remove(&job.id);
        plock(&self.inner.dedup).retain(|_, id| *id != job.id);
        // A worker may have finished it meanwhile.
        self.inner.payloads.remove(&job.id);
        self.inner.records.remove(&job.id);
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
            let dataset = match self.datasets.load_shared(Path::new(source)) {
                Ok(dataset) => dataset,
                Err(e) => {
                    eprintln!("jobd: recovery: cannot re-read {source}: {e}");
                    report.unrecoverable += 1;
                    continue;
                }
            };
            match self.submit_as(Submission::loaded(dataset, opts), true) {
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
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The journal accept record describing `job` — also the shape compaction
/// re-emits for still-live jobs, so replay after any crash converges on the
/// same pending set.
fn accept_record_for(job: &Job) -> JournalRecord {
    JournalRecord {
        kind: RecordKind::Accepted,
        key: job.key.hex(),
        b: job.work.run.b,
        mode: job.work.run.mode.as_str().to_string(),
        source: job.work.source.as_ref().map(|p| p.display().to_string()),
        opts: Some(job.work.run.opts.clone()),
        error: None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Barrier;

    use super::*;
    use sprint_core::maxt::serial::mt_maxt;
    use sprint_core::options::{TestMethod, Workload};

    pub(crate) fn small_dataset() -> (Matrix, Vec<u8>) {
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

    pub(crate) fn manager(span: u64) -> JobManager {
        JobManager::new(ManagerConfig {
            workers: 2,
            span,
            cache_dir: None,
            ..ManagerConfig::default()
        })
        .unwrap()
    }

    /// Mostly-null dataset: adaptive mode deactivates most genes early, so
    /// the watermark lands well before `B` and the upgrade path is exercised.
    pub(crate) fn null_heavy_dataset() -> (Matrix, Vec<u8>) {
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

    /// 64 genes x 20 samples of deterministic noise: enough work per job
    /// that a burst of submissions outruns the worker.
    fn wide_dataset() -> (Matrix, Vec<u8>) {
        let (genes, cols) = (64, 20);
        let v = (0..genes * cols)
            .map(|i| ((i * 7919 + 13) % 1009) as f64 / 100.0)
            .collect();
        let labels = (0..cols).map(|c| (c >= cols / 2) as u8).collect();
        (Matrix::from_vec(genes, cols, v).unwrap(), labels)
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
    fn identical_concurrent_submissions_collapse_onto_one_job() {
        // Wilcoxon ranking in the scorer preparation widens the window
        // between the first dedup look-up and registration.
        let (genes, cols) = (2000, 40);
        let v = (0..genes * cols)
            .map(|i| ((i * 7919 + 13) % 1009) as f64 / 100.0)
            .collect();
        let data = Matrix::from_vec(genes, cols, v).unwrap();
        let labels: Vec<u8> = (0..cols).map(|c| (c >= cols / 2) as u8).collect();
        let mgr = manager(4096);
        for round in 0..5u64 {
            let spec = JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: PmaxtOptions::default()
                    .test(TestMethod::Wilcoxon)
                    .permutations(1_000_000)
                    .seed(round),
                source_path: None,
            };
            let barrier = Barrier::new(8);
            let infos: Vec<SubmitInfo> = std::thread::scope(|s| {
                let submitters: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            mgr.submit(spec.clone()).unwrap()
                        })
                    })
                    .collect();
                submitters.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let ids: Vec<u64> = infos.iter().map(|i| i.id).collect();
            assert!(
                ids.iter().all(|&id| id == ids[0]),
                "round {round}: identical submissions must share one job, got {ids:?}"
            );
            assert_eq!(
                infos.iter().filter(|i| !i.deduped).count(),
                1,
                "round {round}: exactly one submission creates the job"
            );
            mgr.cancel(ids[0]).unwrap();
        }
    }

    #[test]
    fn queue_cap_rejects_with_busy_code() {
        let (data, labels) = small_dataset();
        let (wide, wide_labels) = wide_dataset();
        // Every kind of job enters the one bounded queue: exact, adaptive
        // and bootstrap submissions alike meet the cap.
        let inputs = [
            (
                "exact",
                data,
                labels,
                PmaxtOptions::default().permutations(50_000),
            ),
            (
                "adaptive",
                wide.clone(),
                wide_labels.clone(),
                PmaxtOptions::default()
                    .permutations(50_000)
                    .mode(Mode::Adaptive),
            ),
            (
                "bootstrap",
                wide,
                wide_labels,
                PmaxtOptions::default()
                    .workload(Workload::Bootstrap)
                    .permutations(20_000),
            ),
        ];
        for (kind, data, labels, opts) in inputs {
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
                    opts: opts.clone().seed(seed),
                    source_path: None,
                };
                match mgr.submit(spec) {
                    Ok(_) => accepted += 1,
                    Err(e @ JobError::QueueFull { .. }) => {
                        assert_eq!(e.code(), "busy");
                        rejected += 1;
                    }
                    Err(other) => panic!(
                        "unexpected error {other:?} submitting {kind} seed {seed} \
                         (accepted {accepted}, rejected {rejected}); job snapshot: {:?}",
                        mgr.list()
                            .iter()
                            .map(|s| (s.id, s.state, s.done, s.total, s.error.clone()))
                            .collect::<Vec<_>>()
                    ),
                }
            }
            assert!(accepted >= 1, "{kind}: at least one job must be accepted");
            assert!(
                rejected >= 1,
                "{kind}: the cap must reject at least one job"
            );
            mgr.shutdown();
        }
    }

    #[test]
    fn terminal_jobs_release_their_matrices() {
        let (data, labels) = wide_dataset();
        let mut dir = std::env::temp_dir();
        dir.push(format!("sprint-jobd-release-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let open = || {
            JobManager::new(ManagerConfig {
                workers: 1,
                span: 16,
                cache_dir: Some(dir.clone()),
                faults: Faults::disabled(),
                ..ManagerConfig::default()
            })
            .unwrap()
        };
        let spec = |b: u64, seed: u64| JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(b).seed(seed),
            source_path: None,
        };
        let released = |mgr: &JobManager, id: u64| plock(&mgr.get(id).unwrap().prog).data.is_none();
        let wait = Some(Duration::from_secs(60));
        let mgr = open();

        // A computed job.
        let computed = mgr.submit(spec(200, 1)).unwrap();
        let first = mgr.wait_result(computed.id, wait).unwrap();
        assert!(released(&mgr, computed.id));

        // A cancelled job, cancelled once it has made progress.
        let long = mgr.submit(spec(5_000_000, 2)).unwrap();
        while mgr.status(long.id).unwrap().done == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        mgr.cancel(long.id).unwrap();
        assert!(matches!(
            mgr.wait_result(long.id, wait),
            Err(JobError::Cancelled(_))
        ));
        assert!(released(&mgr, long.id));

        // The finished job still answers, and still takes resubmissions.
        assert_eq!(mgr.result(computed.id).unwrap(), first);
        let status = mgr.status(computed.id).unwrap();
        assert_eq!((status.state, status.done), (JobState::Finished, 200));
        let twin = mgr.submit(spec(200, 1)).unwrap();
        assert_eq!((twin.id, twin.deduped), (computed.id, true));
        assert_eq!(mgr.result(twin.id).unwrap(), first);
        let extend = mgr.submit(spec(300, 1)).unwrap();
        assert_eq!(extend.cache, CacheDisposition::Extend { from: 200 });
        let longer = mgr.wait_result(extend.id, wait).unwrap();
        let fresh = sprint_core::maxt::serial::mt_maxt(&data, &labels, &spec(300, 1).opts);
        assert_eq!(longer, fresh.unwrap());
        assert!(released(&mgr, extend.id));
        mgr.shutdown();

        // A job finished from the cache at submit, in a restarted manager
        // (the extension now holds the stream's entry).
        let mgr = open();
        let hit = mgr.submit(spec(300, 1)).unwrap();
        assert_eq!(
            (hit.state, hit.cache),
            (JobState::Finished, CacheDisposition::Hit)
        );
        assert!(released(&mgr, hit.id));
        assert_eq!(mgr.result(hit.id).unwrap(), longer);
        mgr.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `genes` × 8 deterministic values, two classes of four.
    fn noise(genes: usize) -> (Matrix, Vec<u8>) {
        let v = (0..genes * 8)
            .map(|i| ((i * 7919 + 13) % 1009) as f64 / 100.0)
            .collect();
        (
            Matrix::from_vec(genes, 8, v).unwrap(),
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        )
    }

    /// Block until `done` holds. A record is evicted just after the finish
    /// that pushes it out becomes visible, before waiters are woken.
    fn until(mgr: &JobManager, done: impl Fn() -> bool) {
        let wait = Some(Duration::from_secs(30));
        assert!(mgr.wait_until(wait, || done().then_some(())).is_some());
    }

    fn unbounded_config() -> ManagerConfig {
        ManagerConfig {
            workers: 2,
            span: 64,
            cache_dir: None,
            faults: Faults::disabled(),
            ..ManagerConfig::default()
        }
    }

    #[test]
    fn the_newest_payload_is_kept_even_when_it_alone_exceeds_the_bound() {
        let (data, labels) = noise(64);
        // Room for no whole result: 64 genes charge 2 KiB.
        let mgr = JobManager::bounded(unbounded_config(), 1000, RECORDS).unwrap();
        let spec = |seed: u64| JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(30).seed(seed),
            source_path: None,
        };
        let wait = Some(Duration::from_secs(30));
        let first = mgr.submit(spec(1)).unwrap();
        let served = mgr.wait_result(first.id, wait).unwrap();
        assert_eq!(served, mt_maxt(&data, &labels, &spec(1).opts).unwrap());
        assert_eq!(mgr.inner.payloads.keys(), vec![first.id]);
        assert_eq!(mgr.inner.payloads.retained(), 64 * 32);
        // Fetchable while it is the newest; the next finish evicts it.
        assert_eq!(mgr.result(first.id).unwrap(), served);
        let second = mgr.submit(spec(2)).unwrap();
        mgr.wait_result(second.id, wait).unwrap();
        assert_eq!(mgr.inner.payloads.keys(), vec![second.id]);
        let expired = mgr.result(first.id).unwrap_err();
        assert_eq!(expired, JobError::Expired(first.id));
        assert_eq!(expired.code(), "expired");
        // The record stays: the job is still known, and finished.
        assert_eq!(mgr.status(first.id).unwrap().state, JobState::Finished);
    }

    #[test]
    fn twin_skips_an_expired_job_and_a_resubmission_computes_it_again() {
        let (data, labels) = noise(64);
        // Room for one 2 KiB result.
        let mgr = JobManager::bounded(unbounded_config(), 3000, RECORDS).unwrap();
        let spec = |seed: u64| JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(30).seed(seed),
            source_path: None,
        };
        let wait = Some(Duration::from_secs(30));
        let a = mgr.submit(spec(1)).unwrap();
        let first = mgr.wait_result(a.id, wait).unwrap();
        // Kept: an identical resubmission dedups onto it.
        let again = mgr.submit(spec(1)).unwrap();
        assert_eq!((again.id, again.deduped), (a.id, true));
        let b = mgr.submit(spec(2)).unwrap();
        mgr.wait_result(b.id, wait).unwrap();
        assert_eq!(mgr.result(a.id).unwrap_err(), JobError::Expired(a.id));
        let slot = slot_of(&mgr.get(a.id).unwrap());
        let dedup = plock(&mgr.inner.dedup);
        assert_eq!(mgr.twin(&dedup, &slot).map(|t| t.id), None);
        drop(dedup);
        // Expired: the resubmission registers a new job and recomputes it.
        let c = mgr.submit(spec(1)).unwrap();
        assert!(c.id != a.id && !c.deduped);
        assert_eq!(mgr.wait_result(c.id, wait).unwrap(), first);
        assert_eq!(plock(&mgr.inner.dedup).get(&slot), Some(&c.id));
    }

    #[test]
    fn record_eviction_drops_the_dedup_slot_and_the_fetched_flag() {
        let (data, labels) = noise(16);
        let mgr = JobManager::bounded(unbounded_config(), PAYLOAD_BYTES, 2).unwrap();
        let spec = |seed: u64| JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(30).seed(seed),
            source_path: None,
        };
        let wait = Some(Duration::from_secs(30));
        let a = mgr.submit(spec(1)).unwrap();
        let first = mgr.wait_result(a.id, wait).unwrap();
        assert!(!mgr.fetched_before(a.id));
        assert!(mgr.fetched_before(a.id));
        let slot = slot_of(&mgr.get(a.id).unwrap());
        for seed in [2, 3] {
            let id = mgr.submit(spec(seed)).unwrap().id;
            mgr.wait_result(id, wait).unwrap();
        }
        // Two records kept, the least recently used one gone with its slot,
        // its payload and its flag.
        until(&mgr, || mgr.status(a.id).is_err());
        assert_eq!(mgr.inner.records.keys().len(), 2);
        assert_eq!(mgr.status(a.id).unwrap_err(), JobError::Expired(a.id));
        assert_eq!(mgr.result(a.id).unwrap_err(), JobError::Expired(a.id));
        assert!(!mgr.fetched_before(a.id));
        assert_eq!(plock(&mgr.inner.dedup).get(&slot), None);
        assert!(!mgr.inner.payloads.keys().contains(&a.id));
        assert_eq!(plock(&mgr.inner.dedup).len(), 2);
        // An id never issued is still unknown.
        assert_eq!(mgr.status(999).unwrap_err(), JobError::UnknownJob(999));
        // The request registers a new job, whose first fetch is its first.
        let b = mgr.submit(spec(1)).unwrap();
        assert!(b.id != a.id && !b.deduped);
        assert_eq!(mgr.wait_result(b.id, wait).unwrap(), first);
        assert!(!mgr.fetched_before(b.id));
    }

    #[test]
    fn thousands_of_distinct_jobs_stay_inside_both_bounds() {
        let (data, labels) = noise(32);
        // 32 genes charge 1 KiB: room for 48 payloads and 64 records.
        let (bytes, records) = (48 << 10, 64);
        let mgr = JobManager::bounded(unbounded_config(), bytes, records).unwrap();
        let spec = |seed: u64, b: u64| JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default()
                .permutations(b)
                .seed(seed)
                .threads(1),
            source_path: None,
        };
        let wait = Some(Duration::from_secs(60));
        // Two jobs that stay live throughout, one span at a time.
        let live: Vec<u64> = (0..2)
            .map(|i| mgr.submit(spec(1_000_000 + i, 100_000_000)).unwrap().id)
            .collect();
        let hot = mgr.submit(spec(0, 40)).unwrap();
        let hot_result = mgr.wait_result(hot.id, wait).unwrap();
        for seed in 1..=2000u64 {
            let id = mgr.submit(spec(seed, 20)).unwrap().id;
            let served = mgr.wait_result(id, wait).unwrap();
            assert_eq!(
                served,
                mt_maxt(&data, &labels, &spec(seed, 20).opts).unwrap()
            );
            assert!(mgr.inner.payloads.retained() <= bytes, "job {seed}");
            assert!(mgr.inner.records.keys().len() <= records, "job {seed}");
            if seed % 7 == 0 {
                let again = mgr.submit(spec(0, 40)).unwrap();
                assert_eq!((again.id, again.deduped), (hot.id, true), "job {seed}");
                assert_eq!(mgr.result(hot.id).unwrap(), hot_result);
            }
            if seed % 100 == 0 {
                for &id in &live {
                    let state = mgr.status(id).unwrap().state;
                    assert!(!state.is_terminal(), "live job {id} is {state:?}");
                }
            }
        }
        // Evicted records and payloads went: far fewer jobs are known than
        // were served.
        until(&mgr, || {
            plock(&mgr.inner.jobs).len() <= records + live.len()
        });
        assert!(plock(&mgr.inner.dedup).len() <= records + live.len());
        for id in live {
            mgr.cancel(id).unwrap();
            let cancelled = mgr.wait_result(id, wait).unwrap_err();
            assert_eq!(cancelled, JobError::Cancelled(id));
        }
        mgr.shutdown();
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
}
