//! `jobd` — a persistent permutation-testing job service.
//!
//! The paper's `pmaxT` is a batch function: one dataset, one `B`, one
//! blocking call. This crate wraps the same deterministic engine in a
//! long-lived service, which changes what repeated use costs:
//!
//! - **Job orchestration** ([`manager`], and the executor in `exec`): one
//!   bounded queue and worker pool drive every job — exact, adaptive or
//!   bootstrap — through one plan → run → merge → finalize cycle, unit by
//!   unit, round-robin across jobs, with per-job thread budgets, cooperative
//!   cancellation at batch granularity, and progress events with an ETA. A
//!   finished job keeps a small record and its result waits in a bounded
//!   store, so a long-running daemon's memory levels off.
//! - **Content-addressed result cache** ([`cache`]): entries are checkpoint
//!   files keyed by (dataset digest, permutation-stream digest). A repeated
//!   request finalizes from stored counts without computing; a crashed or
//!   cancelled job resumes from its last completed span.
//! - **Incremental extension**: the stream digest collapses the Monte-Carlo
//!   permutation count, and the skip-ahead generators make run prefixes
//!   independent of the total — so raising `B` to `B′` computes only
//!   permutations `B..B′` and is bitwise-identical to a fresh `B′` run.
//! - **Wire protocol** ([`json`], [`protocol`], [`server`], [`client`]):
//!   line-delimited JSON over a Unix-domain socket or TCP, exposed by the
//!   `pmaxt serve` / `submit` / `status` / `result` / `cancel` subcommands.
//!   Requests name datasets by path; the [`datasets`] table parses and
//!   digests each file once per content and compares the bytes on every
//!   later load, and the server encodes a finished job's `result` line once
//!   it is fetched again.
//! - **Cross-daemon sharding** ([`shard`]): a daemon started with `--peer`
//!   addresses deals one job's units across the roster — permutation spans
//!   by the SPMD ranks' `span_plan` arithmetic, or one bootstrap gene band
//!   per daemon — peers run them via `span_exec` requests against their own
//!   copy of the dataset, and a dead peer's units are reassigned to
//!   survivors from the last merged frontier.
//! - **Fault injection and recovery** ([`faults`]): a seeded registry
//!   (`SPRINT_FAULTS=worker_panic:0.01,...`) injects worker panics, span I/O
//!   errors, cache corruption, torn frames, slow peers and disk faults; the
//!   hardening it proves out — `catch_unwind` worker isolation,
//!   per-connection deadlines, client retry with idempotent resubmit, cache
//!   quarantine, graceful drain — keeps every fault inside the *job*
//!   failure domain.
//! - **Durability** ([`journal`], [`storage`]): a checksummed write-ahead
//!   journal records each job's lifecycle before the accept ack
//!   (`serve --durability full|batch|off`), every persistent file lands via
//!   a crash-consistent atomic write, and on restart the manager replays
//!   the journal and resubmits every non-terminal job — resuming from its
//!   checkpoint cursor, so even daemon death (`kill -9`, power cut, the
//!   `SPRINT_CRASH` crash points) loses no acked work.
//!
//! Every layer preserves the repo's core invariant: a jobd-served result is
//! bitwise-identical to a direct `mt_maxt` call, whatever the scheduling,
//! geometry, caching or interruption history.

pub mod cache;
pub mod client;
pub mod datasets;
mod exec;
pub mod faults;
pub mod journal;
pub mod json;
mod lru;
pub mod manager;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod storage;

pub use cache::{CacheKey, CacheProbe, ResultCache};
pub use client::{request_retried, Client, RetryPolicy};
pub use datasets::{Dataset, DatasetTable, SharedDataset};
pub use faults::{crash_point, FaultKind, Faults, CRASH_POINTS};
pub use journal::{Durability, Journal, JournalRecord, RecordKind, Replay};
pub use manager::{
    CacheDisposition, JobError, JobEvent, JobManager, JobSpec, JobState, JobStatus, ManagerConfig,
    RecoveryReport, SubmitInfo,
};
pub use server::{BindAddr, Server, ServerConfig};
pub use shard::{ShardSnapshot, ShardStats};
