//! Content-addressed result cache backed by the checkpoint format.
//!
//! A cache entry **is** a checkpoint file (`pmaxt-checkpoint-v1`, see
//! [`sprint::checkpoint`]): the pair (cursor, partial counts) of one
//! deterministic permutation stream. The entry's identity — its file name —
//! is the pair of digests that pin that stream down:
//!
//! - [`sprint_core::digest::dataset_digest`] over every data bit and label,
//! - [`sprint_core::digest::stream_digest`] over the result-relevant options
//!   with `B` collapsed to a complete-vs-Monte-Carlo flag.
//!
//! Collapsing `B` is what makes **incremental extension** a cache hit: runs
//! that differ only in their Monte-Carlo permutation count share one stream
//! prefix (`len` is only a cap — the j-th arrangement never depends on the
//! total), so an entry computed for `B` is a valid prefix state for any
//! `B′ > B`. Implementation knobs (kernel, threads, batch) are canonicalized
//! away entirely: any geometry produces bitwise-identical counts.
//!
//! Because every entry is a prefix state of one deterministic stream, *any*
//! consistent entry is reusable — concurrent writers can only replace one
//! valid prefix with another. The probe logic is therefore a pure function of
//! the stored cursor versus the requested count.

use std::io;
use std::path::{Path, PathBuf};

use sprint::checkpoint::{self, CheckpointState};
use sprint_core::boot::BootstrapResult;
use sprint_core::digest::{self, Fnv1a};
use sprint_core::matrix::Matrix;
use sprint_core::options::PmaxtOptions;

use crate::faults::{crash_point, FaultKind, Faults};
use crate::json::Json;
use crate::protocol;
use crate::storage;

/// Name of the subdirectory corrupt entries are moved into by the startup
/// scan (see [`ResultCache::open_with`]).
pub const QUARANTINE_DIR: &str = "quarantine";

/// Identity of a permutation stream: which data, which result-relevant
/// options (minus the permutation count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Digest of the (NA-canonicalized) data matrix and class labels.
    pub dataset: u64,
    /// Digest of the options with `B` collapsed (see module docs).
    pub stream: u64,
}

impl CacheKey {
    /// Key for a run. `data` must already be NA-canonicalized (the manager
    /// canonicalizes before digesting, so differently-encoded but identical
    /// datasets share entries).
    pub fn new(data: &Matrix, classlabel: &[u8], opts: &PmaxtOptions) -> CacheKey {
        Self::from_digest(digest::dataset_digest(data, classlabel), opts)
    }

    /// Key for a run whose dataset digest is already known: `dataset` must
    /// be [`digest::dataset_digest`] of the matrix [`CacheKey::new`] would
    /// be given.
    pub fn from_digest(dataset: u64, opts: &PmaxtOptions) -> CacheKey {
        CacheKey {
            dataset,
            stream: digest::stream_digest(opts),
        }
    }

    /// Hex form used as the entry file stem and the wire-visible key.
    pub fn hex(&self) -> String {
        format!("{:016x}-{:016x}", self.dataset, self.stream)
    }

    /// The digest written into the checkpoint file's `digest` field, so an
    /// entry self-validates even if renamed.
    pub fn check_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.dataset);
        h.write_u64(self.stream);
        h.finish()
    }
}

/// What a cache probe found for a requested permutation count `b`.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheProbe {
    /// No (valid) entry: compute from scratch, store spans as they finish.
    Miss,
    /// Entry with `cursor == b`: the result is fully determined by the stored
    /// counts — finalize without computing anything.
    Hit(CheckpointState),
    /// Entry with `cursor < b`: resume/extend from the stored prefix and
    /// compute only permutations `cursor..b`.
    Partial(CheckpointState),
    /// Entry with `cursor > b`: the stored counts cover *more* permutations
    /// than requested and integer counts cannot be truncated. Compute fresh
    /// and do **not** write spans, so the longer cached prefix survives.
    Beyond,
}

/// A directory of checkpoint-format cache entries, one per [`CacheKey`].
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    faults: Faults,
}

impl ResultCache {
    /// Open (creating if needed) a cache directory with fault injection
    /// disabled. Runs the startup quarantine scan (see [`open_with`]).
    ///
    /// [`open_with`]: ResultCache::open_with
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        Self::open_with(dir, Faults::disabled())
    }

    /// Open a cache directory with an injection registry attached, then scan
    /// it: every `*.ckpt` entry whose stored digest does not match the digest
    /// implied by its file name (or which fails to parse at all) is moved
    /// into `quarantine/` rather than deleted — corruption is survivable but
    /// worth a post-mortem, so the evidence is preserved. Probes then see the
    /// key as a miss and the job recomputes from scratch.
    pub fn open_with(dir: impl Into<PathBuf>, faults: Faults) -> io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let cache = ResultCache { dir, faults };
        let quarantined = cache.quarantine_scan()?;
        if quarantined > 0 {
            eprintln!(
                "jobd: quarantined {quarantined} corrupt cache entr{} into {}",
                if quarantined == 1 { "y" } else { "ies" },
                cache.dir.join(QUARANTINE_DIR).display()
            );
        }
        Ok(cache)
    }

    /// Move every invalid entry into `quarantine/`; returns how many moved.
    /// An entry is invalid when its name is not `{dataset:016x}-{stream:016x}`,
    /// it fails to parse as a checkpoint, or its self-check digest disagrees
    /// with the digests its name claims.
    fn quarantine_scan(&self) -> io::Result<usize> {
        let mut moved = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("ckpt") || !path.is_file() {
                continue;
            }
            if self.entry_is_valid(&path) {
                continue;
            }
            let qdir = self.dir.join(QUARANTINE_DIR);
            std::fs::create_dir_all(&qdir)?;
            // file_name() is Some: read_dir never yields `..`-style paths.
            let dest = qdir.join(path.file_name().unwrap_or_default());
            std::fs::rename(&path, &dest)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Does `path` hold a checkpoint whose digest matches its file name?
    fn entry_is_valid(&self, path: &Path) -> bool {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return false;
        };
        let Some((dataset_hex, stream_hex)) = stem.split_once('-') else {
            return false;
        };
        let (Ok(dataset), Ok(stream)) = (
            u64::from_str_radix(dataset_hex, 16),
            u64::from_str_radix(stream_hex, 16),
        ) else {
            return false;
        };
        let expect = CacheKey { dataset, stream }.check_digest();
        matches!(checkpoint::load(path), Ok(Some(state)) if state.digest == expect)
    }

    /// The directory backing this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.ckpt", key.hex()))
    }

    /// Probe the cache for a run of `b` permutations on `key`'s stream.
    /// Unreadable, corrupt or digest-mismatched entries degrade to a miss —
    /// the cache is an accelerator, never a correctness dependency.
    pub fn probe(&self, key: &CacheKey, b: u64) -> CacheProbe {
        let state = match checkpoint::load(&self.entry_path(key)) {
            Ok(Some(state)) if state.digest == key.check_digest() => state,
            _ => return CacheProbe::Miss,
        };
        match state.cursor.cmp(&b) {
            std::cmp::Ordering::Equal => CacheProbe::Hit(state),
            std::cmp::Ordering::Less => CacheProbe::Partial(state),
            std::cmp::Ordering::Greater => CacheProbe::Beyond,
        }
    }

    /// Path of the bootstrap entry for `key`.
    pub fn boot_entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.boot", key.hex()))
    }

    /// Probe for a finished bootstrap run of exactly `b` draws. Unlike
    /// permutation checkpoints, a bootstrap entry stores finalized interval
    /// estimates — quantiles are order statistics of the *whole* replicate
    /// set, so a shorter run is not a prefix of a longer one and only an
    /// exact draw-count match is servable. Anything else (absent, corrupt,
    /// digest-mismatched, different `b`) degrades to `None`.
    pub fn probe_boot(&self, key: &CacheKey, b: u64) -> Option<BootstrapResult> {
        let text = std::fs::read_to_string(self.boot_entry_path(key)).ok()?;
        let entry = Json::parse(text.trim()).ok()?;
        if entry.get("digest")?.as_u64()? != key.check_digest() {
            return None;
        }
        if entry.get("b")?.as_u64()? != b {
            return None;
        }
        protocol::boot_from_json(&entry).ok()
    }

    /// Write (atomically replace) the bootstrap entry for `key`: one JSON
    /// line of bit-pattern arrays plus the self-check digest and the draw
    /// count the run was requested with.
    pub fn store_boot(&self, key: &CacheKey, b: u64, result: &BootstrapResult) -> io::Result<()> {
        let mut fields = vec![
            ("digest", Json::u64_str(key.check_digest())),
            ("b", Json::u64_str(b)),
        ];
        fields.extend(protocol::boot_to_json(result));
        let mut line = Json::obj(fields).to_json();
        line.push('\n');
        let path = self.boot_entry_path(key);
        // A unique tmp per write: the old fixed-name `.boot.tmp` let two
        // concurrent writers of the same key tear each other's rename.
        storage::atomic_write(&path, line.as_bytes(), &self.faults)?;
        crash_point("cache.store");
        if self.faults.fire(FaultKind::CacheCorrupt) {
            let bytes = std::fs::read(&path)?;
            std::fs::write(&path, &bytes[..bytes.len() / 2])?;
        }
        Ok(())
    }

    /// Write (atomically replace) the entry for `key`.
    pub fn store(&self, key: &CacheKey, state: &CheckpointState) -> io::Result<()> {
        debug_assert_eq!(state.digest, key.check_digest(), "entry digest mismatch");
        let path = self.entry_path(key);
        checkpoint::save(&path, state)?;
        crash_point("cache.store");
        if self.faults.fire(FaultKind::CacheCorrupt) {
            // Injected torn write: truncate the just-written entry to half.
            // The parse then fails, so the next probe degrades the key to a
            // miss (or the next startup scan quarantines the file) — the
            // corruption is detectable, like a real partial write.
            let bytes = std::fs::read(&path)?;
            std::fs::write(&path, &bytes[..bytes.len() / 2])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_core::maxt::CountAccumulator;

    fn tmp_cache(name: &str) -> ResultCache {
        let mut dir = std::env::temp_dir();
        dir.push(format!("sprint-jobd-cache-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ResultCache::open(dir).unwrap()
    }

    fn sample_key() -> CacheKey {
        let data = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        CacheKey::new(&data, &[0, 0, 1, 1], &PmaxtOptions::default())
    }

    fn state_at(key: &CacheKey, cursor: u64, b: u64) -> CheckpointState {
        CheckpointState {
            digest: key.check_digest(),
            cursor,
            b,
            counts: CountAccumulator {
                count_raw: vec![cursor, 0],
                count_adj: vec![0, cursor],
                n_perm: cursor,
            },
        }
    }

    #[test]
    fn key_collapses_permutation_count_but_not_seed() {
        let data = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        let labels = [0u8, 0, 1, 1];
        let base = CacheKey::new(&data, &labels, &PmaxtOptions::default().permutations(100));
        let longer = CacheKey::new(&data, &labels, &PmaxtOptions::default().permutations(5000));
        assert_eq!(base, longer, "B must not enter the key (extension)");
        let reseeded = CacheKey::new(&data, &labels, &PmaxtOptions::default().seed(9));
        assert_ne!(base, reseeded);
        let complete = CacheKey::new(&data, &labels, &PmaxtOptions::default().permutations(0));
        assert_ne!(base, complete, "complete enumeration is a distinct stream");
    }

    #[test]
    fn probe_classifies_by_cursor() {
        let cache = tmp_cache("classify");
        let key = sample_key();
        assert_eq!(cache.probe(&key, 50), CacheProbe::Miss);
        cache.store(&key, &state_at(&key, 30, 50)).unwrap();
        assert!(matches!(cache.probe(&key, 50), CacheProbe::Partial(s) if s.cursor == 30));
        assert!(matches!(cache.probe(&key, 30), CacheProbe::Hit(s) if s.cursor == 30));
        assert_eq!(cache.probe(&key, 10), CacheProbe::Beyond);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn startup_scan_quarantines_corrupt_entries_and_keeps_valid_ones() {
        let cache = tmp_cache("quarantine");
        let key = sample_key();
        cache.store(&key, &state_at(&key, 30, 50)).unwrap();
        // A second, corrupt entry under a well-formed name.
        let other = CacheKey {
            dataset: key.dataset ^ 0xff,
            stream: key.stream,
        };
        std::fs::write(cache.entry_path(&other), "torn write").unwrap();
        // And a parseable entry whose digest disagrees with its file name.
        let renamed = CacheKey {
            dataset: key.dataset,
            stream: key.stream ^ 0xff,
        };
        let mut bogus = state_at(&key, 5, 10);
        bogus.digest ^= 1;
        checkpoint::save(&cache.entry_path(&renamed), &bogus).unwrap();

        let dir = cache.dir().to_path_buf();
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        // The valid entry survived in place; the two bad ones moved.
        assert!(matches!(cache.probe(&key, 50), CacheProbe::Partial(s) if s.cursor == 30));
        assert!(!cache.entry_path(&other).exists());
        assert!(!cache.entry_path(&renamed).exists());
        let qdir = cache.dir().join(QUARANTINE_DIR);
        assert_eq!(std::fs::read_dir(&qdir).unwrap().count(), 2);
        // Re-opening is idempotent: nothing further to quarantine.
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.entry_path(&key).exists());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn injected_corruption_is_detectable_and_degrades_to_miss() {
        use crate::faults::{FaultKind, Faults};
        let mut dir = std::env::temp_dir();
        dir.push(format!("sprint-jobd-cache-{}-inject", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let faults = Faults::builder().prob(FaultKind::CacheCorrupt, 1.0).build();
        let cache = ResultCache::open_with(&dir, faults.clone()).unwrap();
        let key = sample_key();
        cache.store(&key, &state_at(&key, 30, 50)).unwrap();
        assert_eq!(faults.fired(FaultKind::CacheCorrupt), 1);
        // The torn entry must never be served as a partial prefix.
        assert_eq!(cache.probe(&key, 50), CacheProbe::Miss);
        // A fresh open quarantines it.
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        assert!(!cache.entry_path(&key).exists());
        assert!(dir.join(QUARANTINE_DIR).read_dir().unwrap().count() >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn boot_entries_hit_only_on_exact_draw_count() {
        let cache = tmp_cache("boot");
        let key = sample_key();
        let r = BootstrapResult {
            offset: 0,
            theta: vec![1.5, f64::NAN],
            se: vec![0.2, f64::NAN],
            pct_lo: vec![1.0, f64::NAN],
            pct_hi: vec![2.0, f64::NAN],
            bca_lo: vec![1.1, f64::NAN],
            bca_hi: vec![2.1, f64::NAN],
            replicates: 199,
            level: 0.95,
        };
        assert!(cache.probe_boot(&key, 200).is_none());
        cache.store_boot(&key, 200, &r).unwrap();
        let back = cache.probe_boot(&key, 200).expect("exact-b probe hits");
        assert_eq!(back.replicates, 199);
        assert_eq!(back.theta[0].to_bits(), r.theta[0].to_bits());
        assert!(back.theta[1].is_nan());
        // A different draw count is a miss (no prefix semantics for order
        // statistics), as is a corrupt entry.
        assert!(cache.probe_boot(&key, 400).is_none());
        std::fs::write(cache.boot_entry_path(&key), "torn").unwrap();
        assert!(cache.probe_boot(&key, 200).is_none());
        // Boot and checkpoint entries coexist under one key.
        cache.store(&key, &state_at(&key, 30, 50)).unwrap();
        cache.store_boot(&key, 200, &r).unwrap();
        assert!(matches!(cache.probe(&key, 50), CacheProbe::Partial(_)));
        assert!(cache.probe_boot(&key, 200).is_some());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn flipped_cursor_digit_degrades_to_miss_and_is_quarantined() {
        let cache = tmp_cache("flipped-cursor");
        let key = sample_key();
        cache.store(&key, &state_at(&key, 25, 60)).unwrap();
        // One bit: "cursor 25" -> "cursor 24" ('5' 0x35 -> '4' 0x34). The
        // entry still parses and its digest still matches the key, but
        // extending it would resume from the wrong permutation index.
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let line = b"cursor 25\n";
        let at = bytes
            .windows(line.len())
            .position(|w| w == line)
            .expect("entry at cursor 25");
        bytes[at + line.len() - 2] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.probe(&key, 60), CacheProbe::Miss);
        let dir = cache.dir().to_path_buf();
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        assert!(!cache.entry_path(&key).exists());
        assert_eq!(
            std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_mismatched_entries_degrade_to_miss() {
        let cache = tmp_cache("corrupt");
        let key = sample_key();
        std::fs::write(cache.entry_path(&key), "not a checkpoint").unwrap();
        assert_eq!(cache.probe(&key, 10), CacheProbe::Miss);
        // Valid file, wrong digest (e.g. renamed from another key).
        let mut state = state_at(&key, 5, 10);
        state.digest ^= 1;
        checkpoint::save(&cache.entry_path(&key), &state).unwrap();
        assert_eq!(cache.probe(&key, 10), CacheProbe::Miss);
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
