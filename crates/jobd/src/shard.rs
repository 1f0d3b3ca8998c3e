//! Cross-daemon permutation sharding: peer links, span queues and comm
//! statistics for the roster dispatcher in `crate::exec`.
//!
//! A daemon started with `pmaxt serve --peer <addr>` turns a submitted job
//! into a *sharded* run: the permutation range `0..B` is split across the
//! roster (this daemon plus every peer) with the same skip-ahead
//! [`span_plan`](sprint_core::pmaxt::span_plan) arithmetic the SPMD ranks
//! use, each participant's range is sliced into checkpoint-sized spans, and
//! remote spans travel as `span_exec` requests over the ordinary line-JSON
//! protocol. Exceedance counts are exact `u64`s and addition is commutative,
//! so merging spans in *any* completion order reproduces the serial result
//! bit for bit — the coordinator only has to guarantee that every span is
//! counted exactly once.
//!
//! ## Failure model
//!
//! A peer is detected dead when one request exhausts its retry budget
//! (connection refused, torn frame, read deadline). Its unfinished spans are
//! pushed onto a shared reassignment queue that every surviving participant
//! — including the coordinator's own local executor — drains after its own
//! range, so a `kill -9` mid-span costs only the dead peer's unmerged spans,
//! never the job. Because a "dead" peer may in fact have finished a span
//! after the coordinator gave up on it, span results are deduplicated by
//! their start index before merging: at-most-once accounting under
//! at-least-once dispatch.
//!
//! The three `peer_*` fault classes ([`crate::faults`]) inject exactly these
//! failures deterministically: `peer_drop` kills a link before dispatch,
//! `peer_stall` delays one, and `peer_torn` tears a request line mid-frame
//! on a throwaway connection.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::client::{expect_ok, Client, RetryPolicy};
use crate::faults::{FaultKind, Faults};
use crate::json::Json;
use crate::server::BindAddr;

/// Wire counters of one sharded job, shared between the coordinator, its
/// peer dispatchers and status readers. The analogue of `mpi-sim`'s
/// `MessageStats` for the daemon-to-daemon transport, surfaced in
/// `pmaxt status` and progress events.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Participants in the roster (local + peers).
    pub peers: AtomicU64,
    /// Peers declared dead (retry budget exhausted).
    pub peers_failed: AtomicU64,
    /// Spans in the plan.
    pub spans_total: AtomicU64,
    /// Spans computed by the local executor.
    pub spans_local: AtomicU64,
    /// Spans computed by remote peers.
    pub spans_remote: AtomicU64,
    /// Spans re-queued after their owner died.
    pub spans_reassigned: AtomicU64,
    /// `span_exec` request attempts (including retries).
    pub requests_sent: AtomicU64,
    /// Well-formed responses received.
    pub responses_received: AtomicU64,
    /// Attempts beyond the first for any request.
    pub retries: AtomicU64,
    /// Request-line bytes written (newline included).
    pub bytes_sent: AtomicU64,
    /// Response-line bytes read (newline included).
    pub bytes_received: AtomicU64,
    /// Microseconds the local executor spent inside the permutation kernel.
    pub kernel_local_micros: AtomicU64,
    /// Kernel microseconds reported by peers in their span responses. With
    /// `kernel_local_micros`, this separates compute from comm: everything
    /// else in the job's wall time is dispatch, wire and merge overhead.
    pub kernel_remote_micros: AtomicU64,
}

/// Point-in-time copy of [`ShardStats`], for status snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Participants in the roster (local + peers).
    pub peers: u64,
    /// Peers declared dead.
    pub peers_failed: u64,
    /// Spans in the plan.
    pub spans_total: u64,
    /// Spans computed locally.
    pub spans_local: u64,
    /// Spans computed remotely.
    pub spans_remote: u64,
    /// Spans re-queued after a peer death.
    pub spans_reassigned: u64,
    /// Request attempts (including retries).
    pub requests_sent: u64,
    /// Well-formed responses.
    pub responses_received: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Request bytes on the wire.
    pub bytes_sent: u64,
    /// Response bytes on the wire.
    pub bytes_received: u64,
    /// Local kernel time, microseconds.
    pub kernel_local_micros: u64,
    /// Peer-reported kernel time, microseconds.
    pub kernel_remote_micros: u64,
}

impl ShardStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> ShardSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ShardSnapshot {
            peers: get(&self.peers),
            peers_failed: get(&self.peers_failed),
            spans_total: get(&self.spans_total),
            spans_local: get(&self.spans_local),
            spans_remote: get(&self.spans_remote),
            spans_reassigned: get(&self.spans_reassigned),
            requests_sent: get(&self.requests_sent),
            responses_received: get(&self.responses_received),
            retries: get(&self.retries),
            bytes_sent: get(&self.bytes_sent),
            bytes_received: get(&self.bytes_received),
            kernel_local_micros: get(&self.kernel_local_micros),
            kernel_remote_micros: get(&self.kernel_remote_micros),
        }
    }

    fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Slice `[start, start + take)` into consecutive spans of at most `span`
/// permutations — the checkpoint / reassignment granule of a sharded range.
pub fn slice_spans(start: u64, take: u64, span: u64) -> Vec<(u64, u64)> {
    let span = span.max(1);
    let mut out = Vec::new();
    let mut at = start;
    let end = start + take;
    while at < end {
        let n = span.min(end - at);
        out.push((at, n));
        at += n;
    }
    out
}

/// The reassignment queue: spans whose owner died, waiting for a survivor.
#[derive(Debug, Default)]
pub(crate) struct SpanQueue {
    orphans: Mutex<VecDeque<(u64, u64)>>,
}

impl SpanQueue {
    pub(crate) fn new() -> SpanQueue {
        SpanQueue::default()
    }

    /// Return a dead participant's unfinished spans for reassignment.
    pub(crate) fn reassign(&self, spans: impl IntoIterator<Item = (u64, u64)>) -> u64 {
        let mut q = self.orphans.lock().unwrap_or_else(|e| e.into_inner());
        let before = q.len();
        q.extend(spans);
        (q.len() - before) as u64
    }

    /// Take the next orphaned span, oldest first.
    pub(crate) fn pop(&self) -> Option<(u64, u64)> {
        self.orphans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }
}

/// How a peer request failed.
#[derive(Debug)]
pub(crate) enum PeerError {
    /// Transport-level failure after every retry: the peer is presumed dead
    /// and its spans are reassigned.
    Dead(String),
    /// The peer answered with a protocol error (`ok: false`): the request
    /// itself is wrong (unreadable dataset, mismatched B), so reassigning it
    /// would fail everywhere — the job fails instead.
    Rejected(String),
}

/// One coordinator→peer link: address plus retry policy, with every wire
/// interaction accounted in the shared [`ShardStats`].
pub(crate) struct PeerLink<'a> {
    pub addr: &'a str,
    pub policy: RetryPolicy,
    pub timeout: Option<Duration>,
    pub stats: &'a ShardStats,
    pub faults: &'a Faults,
}

impl PeerLink<'_> {
    /// Run one idempotent request against the peer, reconnecting fresh per
    /// attempt. Injects the `peer_stall` and `peer_torn` fault classes ahead
    /// of the real dispatch (`peer_drop` is handled by the caller, which
    /// knows the spans to reassign).
    pub(crate) fn exec(&self, req: &Json) -> Result<Json, PeerError> {
        if self.faults.fire(FaultKind::PeerStall) {
            std::thread::sleep(self.faults.stall());
        }
        if self.faults.fire(FaultKind::PeerTorn) {
            self.tear(req);
        }
        let line_len = req.to_json().len() as u64 + 1;
        let mut last = String::new();
        for attempt in 1..=self.policy.attempts.max(1) {
            let backoff = self.policy.backoff(attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            if attempt > 1 {
                self.stats.add(&self.stats.retries, 1);
            }
            self.stats.add(&self.stats.requests_sent, 1);
            self.stats.add(&self.stats.bytes_sent, line_len);
            let outcome =
                Client::connect_with(self.addr, self.timeout).and_then(|mut c| c.request(req));
            match outcome {
                Ok(resp) => {
                    // Responses are re-serialized by the same writer the peer
                    // used, so this length equals the wire length.
                    self.stats
                        .add(&self.stats.bytes_received, resp.to_json().len() as u64 + 1);
                    self.stats.add(&self.stats.responses_received, 1);
                    return expect_ok(resp)
                        .map_err(|(msg, code)| PeerError::Rejected(format!("{msg} ({code})")));
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(PeerError::Dead(format!(
            "peer {} unreachable after {} attempts: {last}",
            self.addr,
            self.policy.attempts.max(1)
        )))
    }

    /// Tear a request mid-frame: write half the line on a throwaway
    /// connection and drop it. The peer's bounded line reader absorbs the
    /// fragment; the real request then goes out on a fresh connection.
    fn tear(&self, req: &Json) {
        let line = req.to_json();
        let half = &line.as_bytes()[..line.len() / 2];
        self.stats.add(&self.stats.bytes_sent, half.len() as u64);
        match BindAddr::parse(self.addr) {
            BindAddr::Unix(path) => {
                if let Ok(mut s) = std::os::unix::net::UnixStream::connect(path) {
                    let _ = s.write_all(half);
                }
            }
            BindAddr::Tcp(spec) => {
                if let Ok(mut s) = std::net::TcpStream::connect(spec) {
                    let _ = s.write_all(half);
                }
            }
        }
    }
}

/// Thread-CPU clock for the kernel telemetry counters.
///
/// On an oversubscribed machine (more roster daemons than cores — the usual
/// situation when benchmarking a cluster on one host) a wall clock charges a
/// kernel for every context switch spent running *someone else's* spans.
/// `CLOCK_THREAD_CPUTIME_ID` charges only the cycles this thread actually
/// burned, which is what `kernel_local_micros`/`kernel_remote_micros` mean.
/// The engine runs inline on the calling thread whenever it resolves to a
/// single worker, so both the coordinator's executor and `span_exec` bracket
/// the accumulate call with this clock; multi-worker runs (where the work
/// happens on pool threads) fall back to the engine's per-worker busy sum.
///
/// Returns `None` where the clock is unavailable (non-Linux targets).
pub fn thread_cpu_secs() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid writable struct with the kernel's timespec
        // layout on 64-bit Linux, and the clock id is a constant it knows.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_spans_covers_range_exactly_once() {
        for (start, take, span) in [
            (0, 100, 32),
            (7, 1, 4096),
            (100, 0, 8),
            (3, 17, 1),
            (0, 64, 64),
        ] {
            let spans = slice_spans(start, take, span);
            let mut at = start;
            for &(s, t) in &spans {
                assert_eq!(s, at, "spans must be consecutive");
                assert!(t >= 1 && t <= span.max(1));
                at += t;
            }
            assert_eq!(at, start + take, "spans must cover the range");
            if take > 0 {
                // Only the last span may be short.
                for &(_, t) in &spans[..spans.len() - 1] {
                    assert_eq!(t, span.max(1));
                }
            } else {
                assert!(spans.is_empty());
            }
        }
    }

    #[test]
    fn span_queue_reassigns_in_order() {
        let q = SpanQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.reassign([(0, 8), (8, 8)]), 2);
        assert_eq!(q.reassign([(16, 4)]), 1);
        assert_eq!(q.pop(), Some((0, 8)));
        assert_eq!(q.pop(), Some((8, 8)));
        assert_eq!(q.pop(), Some((16, 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn snapshot_copies_counters() {
        let s = ShardStats::default();
        s.peers.store(3, Ordering::Relaxed);
        s.add(&s.requests_sent, 5);
        s.add(&s.bytes_sent, 123);
        let snap = s.snapshot();
        assert_eq!(snap.peers, 3);
        assert_eq!(snap.requests_sent, 5);
        assert_eq!(snap.bytes_sent, 123);
        assert_eq!(snap.peers_failed, 0);
    }

    #[test]
    fn dead_peer_is_a_transport_error_with_attempt_count() {
        let stats = ShardStats::default();
        let faults = Faults::disabled();
        let link = PeerLink {
            addr: "/nonexistent/peer.sock",
            policy: RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            timeout: None,
            stats: &stats,
            faults: &faults,
        };
        let req = Json::obj(vec![("cmd", Json::str("ping"))]);
        match link.exec(&req) {
            Err(PeerError::Dead(msg)) => assert!(msg.contains("2 attempts"), "{msg}"),
            other => panic!("expected Dead, got {other:?}"),
        }
        let snap = stats.snapshot();
        assert_eq!(snap.requests_sent, 2);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.responses_received, 0);
    }
}
