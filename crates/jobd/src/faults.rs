//! Deterministic fault injection for the job service.
//!
//! The daemon's availability claim — a multi-hour run survives worker
//! panics, torn sockets, slow peers and cache corruption — is only credible
//! if those faults can be produced on demand. This module is a seeded
//! injection registry threaded through the worker span loop
//! ([`crate::manager`]), the cache read/write path ([`crate::cache`]) and the
//! socket framing code ([`crate::server`]). Each injection point asks
//! [`Faults::fire`] whether its fault class triggers this time; draws come
//! from one shared splitmix64 sequence, so a fixed seed reproduces the same
//! fault pattern for the same sequence of asks.
//!
//! ## Configuration
//!
//! Environment: `SPRINT_FAULTS=worker_panic:0.01,frame_truncate:0.05,...`
//! (comma-separated `class:probability` pairs; the special keys `seed:N` and
//! `stall_ms:N` set the PRNG seed and the slow-peer stall length).
//! `SPRINT_FAULTS_SEED=N` overrides the seed. Programmatic:
//! [`Faults::builder`]. A default-constructed [`Faults`] is **disabled** and
//! its [`Faults::fire`] is a single `Option` check — the registry costs
//! nothing when off (see `make_tables faults` / BENCH_faults.json).
//!
//! ## Fault classes
//!
//! | class            | injected where                  | models                       |
//! |------------------|---------------------------------|------------------------------|
//! | `worker_panic`   | manager span loop               | a panic in worker/engine code|
//! | `span_io`        | manager span loop               | I/O error mid-span           |
//! | `cache_corrupt`  | cache entry write               | torn/bit-rotted cache file   |
//! | `frame_truncate` | server response framing         | socket drop mid-frame        |
//! | `slow_peer`      | server response framing         | stalled/slow peer            |
//! | `peer_drop`      | shard coordinator dispatch      | a peer daemon dying mid-span |
//! | `peer_stall`     | shard coordinator dispatch      | a slow/overloaded peer daemon|
//! | `peer_torn`      | shard coordinator dispatch      | a request torn mid-frame     |
//! | `peer_panic`     | shard coordinator dispatch      | a panic in a peer dispatcher |
//! | `journal_torn`   | journal record append           | a record torn mid-write      |
//! | `fsync_fail`     | journal / atomic-write fsync    | EIO from a dying disk        |
//! | `disk_full`      | journal / atomic-write payload  | ENOSPC                       |
//!
//! Every class is survivable: panics and span errors fail the *job* (the
//! daemon keeps serving), corrupt cache entries are quarantined or degrade
//! to a miss, truncated frames and stalls are absorbed by client-side retry
//! and per-connection deadlines, and the three `peer_*` classes exercise the
//! cross-daemon sharding path ([`crate::shard`]): a dropped peer's spans are
//! reassigned to the survivors, a stalled peer only delays its own spans,
//! a torn request resyncs on a fresh connection, and a dispatcher panic
//! fails its job, naming the peer, and frees the worker. The three disk classes
//! exercise the durability layer ([`crate::journal`], [`crate::storage`]): a
//! torn journal record is skipped by the replay resync scan, a failed fsync
//! fails only the write it was guarding (the caller degrades or retries),
//! and a full disk rejects the submission instead of acking an un-journaled
//! job. The `fault_soak`, `peer_faults` and `disk_fault_soak` integration
//! tests drive the classes at once and assert the final adjusted p-values
//! are bitwise-identical to a fault-free run.
//!
//! ## Crash points
//!
//! Faults model a *surviving* process; the durability contract also has to
//! hold when the process itself dies between two instructions. The named
//! crash points in [`CRASH_POINTS`] mark exactly those in-between states
//! (record written but not fsynced, rename done but directory not fsynced,
//! result cached but terminal record not appended, ...). Setting
//! `SPRINT_CRASH=<point>:<n>` makes the n-th arrival at that point
//! [`std::process::abort`] — no unwinding, no destructors, the closest
//! in-process stand-in for `kill -9`. The `crash_recovery` integration
//! suite iterates the registry against the real binary and asserts recovery
//! after every one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The injectable fault classes. `COUNT`-sized arrays in [`Faults`] are
/// indexed by `as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside a worker while it processes a span.
    WorkerPanic,
    /// I/O error reported by the span computation.
    SpanIo,
    /// Corruption of a just-written cache entry.
    CacheCorrupt,
    /// Socket dropped mid-way through writing a response frame.
    FrameTruncate,
    /// Stall before writing a response (a slow peer / overloaded server).
    SlowPeer,
    /// A peer daemon dropping dead before a sharded span is dispatched to it
    /// (the coordinator reassigns the peer's spans to the survivors).
    PeerDrop,
    /// A stall before dispatching a sharded span to a peer (a slow peer only
    /// delays its own spans, never the survivors').
    PeerStall,
    /// A span-exec request torn mid-frame (half the line, then the socket
    /// drops); the coordinator resends on a fresh connection.
    PeerTorn,
    /// A panic inside a coordinator's peer dispatcher thread; the job fails
    /// with a message naming the peer.
    PeerPanic,
    /// A journal record torn mid-append (half the frame reaches the disk,
    /// then the write "stops"); replay must skip exactly that record.
    JournalTorn,
    /// `fsync` returning EIO — the write being guarded is not durable and
    /// its caller must treat it as failed.
    FsyncFail,
    /// ENOSPC from a persistent payload write (journal append or
    /// atomic-write temporary).
    DiskFull,
}

impl FaultKind {
    /// Every class, in index order.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::WorkerPanic,
        FaultKind::SpanIo,
        FaultKind::CacheCorrupt,
        FaultKind::FrameTruncate,
        FaultKind::SlowPeer,
        FaultKind::PeerDrop,
        FaultKind::PeerStall,
        FaultKind::PeerTorn,
        FaultKind::PeerPanic,
        FaultKind::JournalTorn,
        FaultKind::FsyncFail,
        FaultKind::DiskFull,
    ];

    /// Number of classes (array size in the registry).
    pub const COUNT: usize = Self::ALL.len();

    /// The `SPRINT_FAULTS` spelling of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::SpanIo => "span_io",
            FaultKind::CacheCorrupt => "cache_corrupt",
            FaultKind::FrameTruncate => "frame_truncate",
            FaultKind::SlowPeer => "slow_peer",
            FaultKind::PeerDrop => "peer_drop",
            FaultKind::PeerStall => "peer_stall",
            FaultKind::PeerTorn => "peer_torn",
            FaultKind::PeerPanic => "peer_panic",
            FaultKind::JournalTorn => "journal_torn",
            FaultKind::FsyncFail => "fsync_fail",
            FaultKind::DiskFull => "disk_full",
        }
    }

    /// Parse the `SPRINT_FAULTS` spelling.
    pub fn parse(s: &str) -> Option<FaultKind> {
        Self::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

/// Shared state of an armed registry.
#[derive(Debug)]
struct FaultState {
    /// Per-class trigger probability in `[0, 1]`.
    probs: [f64; FaultKind::COUNT],
    /// How long a `slow_peer` stall lasts.
    stall: Duration,
    /// splitmix64 state; every draw advances it by the golden gamma, so the
    /// draw sequence is a pure function of the seed and the ask order.
    rng: AtomicU64,
    /// Per-class draw counters (asks).
    checked: [AtomicU64; FaultKind::COUNT],
    /// Per-class trigger counters (fires).
    fired: [AtomicU64; FaultKind::COUNT],
}

/// A handle to the fault-injection registry. Cloning shares the counters and
/// the PRNG. The default value is **disabled**: no allocation, and
/// [`Faults::fire`] is one `Option` discriminant check.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<FaultState>>);

/// Builder for a programmatic registry (tests, benches).
#[derive(Debug, Clone)]
pub struct FaultsBuilder {
    probs: [f64; FaultKind::COUNT],
    seed: u64,
    stall: Duration,
}

impl Default for FaultsBuilder {
    fn default() -> Self {
        FaultsBuilder {
            probs: [0.0; FaultKind::COUNT],
            seed: 0x5eed_5eed_5eed_5eed,
            stall: Duration::from_millis(50),
        }
    }
}

impl FaultsBuilder {
    /// Set one class's trigger probability (clamped to `[0, 1]`).
    pub fn prob(mut self, kind: FaultKind, p: f64) -> Self {
        self.probs[kind as usize] = p.clamp(0.0, 1.0);
        self
    }

    /// Set the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the `slow_peer` stall length.
    pub fn stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// Arm the registry. A builder with all probabilities zero still arms
    /// (every injection point draws) — that is what the overhead benchmark
    /// measures.
    pub fn build(self) -> Faults {
        Faults(Some(Arc::new(FaultState {
            probs: self.probs,
            stall: self.stall,
            rng: AtomicU64::new(self.seed),
            checked: Default::default(),
            fired: Default::default(),
        })))
    }
}

/// splitmix64 output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Faults {
    /// A disabled registry: nothing ever fires, checks cost one branch.
    pub fn disabled() -> Faults {
        Faults(None)
    }

    /// Start building a programmatic registry.
    pub fn builder() -> FaultsBuilder {
        FaultsBuilder::default()
    }

    /// The process-wide registry configured by `SPRINT_FAULTS` /
    /// `SPRINT_FAULTS_SEED` (parsed once; disabled when the variable is
    /// unset). Malformed entries are warned about on stderr and skipped —
    /// silently ignoring a typo'd fault spec would make a soak run look
    /// healthier than it is.
    pub fn from_env() -> Faults {
        static ENV: OnceLock<Faults> = OnceLock::new();
        ENV.get_or_init(|| {
            let spec = match std::env::var("SPRINT_FAULTS") {
                Ok(s) if !s.trim().is_empty() => s,
                _ => return Faults::disabled(),
            };
            let seed = std::env::var("SPRINT_FAULTS_SEED")
                .ok()
                .and_then(|s| s.parse().ok());
            match Faults::parse_spec(&spec, seed) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("jobd: warning: ignoring invalid SPRINT_FAULTS={spec:?}: {e}");
                    Faults::disabled()
                }
            }
        })
        .clone()
    }

    /// Parse a `class:prob,...` spec (the `SPRINT_FAULTS` syntax).
    /// `seed_override` (from `SPRINT_FAULTS_SEED`) beats an inline `seed:`.
    pub fn parse_spec(spec: &str, seed_override: Option<u64>) -> Result<Faults, String> {
        let mut b = FaultsBuilder::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("entry {part:?} is not class:value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    b.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                "stall_ms" => {
                    b.stall = Duration::from_millis(
                        value
                            .parse()
                            .map_err(|_| format!("bad stall_ms {value:?}"))?,
                    );
                }
                _ => {
                    let kind = FaultKind::parse(key).ok_or_else(|| {
                        format!(
                            "unknown fault class {key:?} (expected one of {})",
                            FaultKind::ALL.map(|k| k.as_str()).join(", ")
                        )
                    })?;
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("bad probability {value:?} for {key}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} for {key} outside [0, 1]"));
                    }
                    b.probs[kind as usize] = p;
                }
            }
        }
        if let Some(seed) = seed_override {
            b.seed = seed;
        }
        Ok(b.build())
    }

    /// True when the registry is armed (even with all-zero probabilities).
    pub fn armed(&self) -> bool {
        self.0.is_some()
    }

    /// Should this injection point trigger its fault now? Disabled registries
    /// return `false` without drawing.
    pub fn fire(&self, kind: FaultKind) -> bool {
        let Some(state) = &self.0 else { return false };
        state.checked[kind as usize].fetch_add(1, Ordering::Relaxed);
        let p = state.probs[kind as usize];
        if p <= 0.0 {
            return false;
        }
        // Advance the shared splitmix64 stream; fetch_add makes each draw
        // consume exactly one step even under concurrency.
        let z = state
            .rng
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        let hit = ((mix(z) >> 11) as f64 / (1u64 << 53) as f64) < p;
        if hit {
            state.fired[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The configured slow-peer stall length (zero when disabled).
    pub fn stall(&self) -> Duration {
        self.0.as_ref().map_or(Duration::ZERO, |s| s.stall)
    }

    /// How often `kind` has triggered.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.fired[kind as usize].load(Ordering::Relaxed))
    }

    /// How often `kind` has been asked about.
    pub fn checked(&self, kind: FaultKind) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.checked[kind as usize].load(Ordering::Relaxed))
    }

    /// `(class, checked, fired)` per class — the soak tests assert every
    /// class actually exercised its recovery path.
    pub fn report(&self) -> Vec<(FaultKind, u64, u64)> {
        FaultKind::ALL
            .iter()
            .map(|&k| (k, self.checked(k), self.fired(k)))
            .collect()
    }
}

/// Every named crash point, in rough lifecycle order. Each entry marks an
/// in-between state a real power cut could expose; the `crash_recovery`
/// integration suite iterates this list, aborts the daemon at each point via
/// `SPRINT_CRASH`, restarts it, and asserts the durability invariants.
pub const CRASH_POINTS: &[&str] = &[
    // Journal layer (crate::journal).
    "journal.append",  // record written to the segment, not yet fsynced
    "journal.fsync",   // record durable, accept ack not yet sent
    "journal.compact", // compacted segment durable, old segments not yet removed
    // Atomic-write primitive (crate::storage).
    "storage.tmp",    // unique tmp durable, rename pending
    "storage.rename", // rename done, parent directory fsync pending
    // Manager lifecycle (crate::manager).
    "manager.accept", // accept record durable, submit ack pending
    "manager.start",  // start record appended
    "manager.finish", // result checkpointed, terminal record pending
    // Cache writes (crate::cache).
    "cache.store", // span checkpoint written
];

/// The `SPRINT_CRASH=<point>:<n>` spec, parsed once per process.
fn crash_spec() -> Option<&'static (String, u64)> {
    static SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
    SPEC.get_or_init(|| {
        let raw = match std::env::var("SPRINT_CRASH") {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return None,
        };
        let (point, n) = match raw.trim().split_once(':') {
            Some((p, n)) => (p.trim().to_string(), n.trim().parse::<u64>().ok()),
            None => (raw.trim().to_string(), Some(1)),
        };
        let Some(n) = n.filter(|&n| n > 0) else {
            eprintln!(
                "jobd: warning: ignoring invalid SPRINT_CRASH={raw:?} (want point:n, n >= 1)"
            );
            return None;
        };
        if !CRASH_POINTS.contains(&point.as_str()) {
            eprintln!(
                "jobd: warning: SPRINT_CRASH names unknown point {point:?} (known: {})",
                CRASH_POINTS.join(", ")
            );
            return None;
        }
        Some((point, n))
    })
    .as_ref()
}

/// Declare arrival at a named crash point. When `SPRINT_CRASH=<name>:<n>` is
/// set and this is the n-th arrival at that point, the process aborts on the
/// spot — no unwinding, no destructors, no flushes. Costs one `OnceLock`
/// load when the variable is unset.
pub fn crash_point(name: &str) {
    debug_assert!(
        CRASH_POINTS.contains(&name),
        "crash point {name:?} is not in CRASH_POINTS"
    );
    let Some((target, n)) = crash_spec() else {
        return;
    };
    if target != name {
        return;
    }
    static HITS: AtomicU64 = AtomicU64::new(0);
    if HITS.fetch_add(1, Ordering::SeqCst) + 1 == *n {
        eprintln!("jobd: SPRINT_CRASH={name}:{n} reached, aborting");
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_fires_and_counts_nothing() {
        let f = Faults::disabled();
        assert!(!f.armed());
        for kind in FaultKind::ALL {
            for _ in 0..100 {
                assert!(!f.fire(kind));
            }
            assert_eq!(f.checked(kind), 0);
            assert_eq!(f.fired(kind), 0);
        }
        assert_eq!(f.stall(), Duration::ZERO);
    }

    #[test]
    fn seeded_draws_are_deterministic_and_track_probability() {
        let draws = |seed: u64| -> Vec<bool> {
            let f = Faults::builder()
                .prob(FaultKind::WorkerPanic, 0.25)
                .seed(seed)
                .build();
            (0..2000).map(|_| f.fire(FaultKind::WorkerPanic)).collect()
        };
        let a = draws(7);
        let b = draws(7);
        assert_eq!(a, b, "same seed must reproduce the same fault pattern");
        let c = draws(8);
        assert_ne!(a, c, "different seeds should differ");
        let rate = a.iter().filter(|&&x| x).count() as f64 / a.len() as f64;
        assert!(
            (rate - 0.25).abs() < 0.05,
            "empirical rate {rate} far from 0.25"
        );
    }

    #[test]
    fn spec_parsing_round_trips_classes_seed_and_stall() {
        let f = Faults::parse_spec(
            "worker_panic:0.5, frame_truncate:0.125, seed:99, stall_ms:7",
            None,
        )
        .unwrap();
        assert!(f.armed());
        assert_eq!(f.stall(), Duration::from_millis(7));
        let mut panic_fired = 0;
        for _ in 0..400 {
            if f.fire(FaultKind::WorkerPanic) {
                panic_fired += 1;
            }
            // Classes with zero probability never fire but are counted.
            assert!(!f.fire(FaultKind::CacheCorrupt));
        }
        assert!(panic_fired > 100, "0.5 class should fire often");
        assert_eq!(f.checked(FaultKind::CacheCorrupt), 400);
        assert_eq!(f.fired(FaultKind::CacheCorrupt), 0);

        // Seed override (SPRINT_FAULTS_SEED) beats the inline seed.
        let a = Faults::parse_spec("worker_panic:0.5,seed:1", Some(42)).unwrap();
        let b = Faults::parse_spec("worker_panic:0.5,seed:2", Some(42)).unwrap();
        let da: Vec<bool> = (0..64).map(|_| a.fire(FaultKind::WorkerPanic)).collect();
        let db: Vec<bool> = (0..64).map(|_| b.fire(FaultKind::WorkerPanic)).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(Faults::parse_spec("nonsense", None).is_err());
        assert!(Faults::parse_spec("bogus_class:0.1", None).is_err());
        assert!(Faults::parse_spec("worker_panic:1.5", None).is_err());
        assert!(Faults::parse_spec("worker_panic:x", None).is_err());
        assert!(Faults::parse_spec("seed:abc", None).is_err());
        // Empty entries are tolerated (trailing commas).
        assert!(Faults::parse_spec("worker_panic:0.1,", None).is_ok());
    }

    #[test]
    fn disk_classes_parse_and_fire() {
        let f = Faults::parse_spec("journal_torn:1,fsync_fail:1,disk_full:1", None).unwrap();
        for kind in [
            FaultKind::JournalTorn,
            FaultKind::FsyncFail,
            FaultKind::DiskFull,
        ] {
            assert!(f.fire(kind), "{} armed at p=1 must fire", kind.as_str());
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn crash_points_are_distinct_and_unset_env_is_free() {
        let mut sorted: Vec<&str> = CRASH_POINTS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), CRASH_POINTS.len(), "duplicate crash point");
        // With SPRINT_CRASH unset (the test environment), arrival is a no-op.
        for point in CRASH_POINTS {
            crash_point(point);
        }
    }

    #[test]
    fn report_lists_every_class() {
        let f = Faults::builder().prob(FaultKind::SlowPeer, 1.0).build();
        f.fire(FaultKind::SlowPeer);
        let report = f.report();
        assert_eq!(report.len(), FaultKind::COUNT);
        let slow = report
            .iter()
            .find(|(k, _, _)| *k == FaultKind::SlowPeer)
            .unwrap();
        assert_eq!((slow.1, slow.2), (1, 1));
    }
}
