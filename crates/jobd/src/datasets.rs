//! The daemon's dataset table: each dataset file is parsed, and its digest
//! computed, once per content, however often `submit`, `span_exec` and
//! journal replay name it.
//!
//! Requests name their dataset by path, and the daemon reads it from its own
//! filesystem. Parsing the TSV — splitting about half a million cells and
//! converting each to `f64` on the paper's 6102 × 76 matrix — costs tens of
//! milliseconds, and digesting the parse for the cache key several more,
//! more than everything else a cache hit does. The table keeps, per
//! canonical path, the file's exact bytes, their parse and the parse's
//! [`dataset_digest`], and answers a load in one of two ways:
//!
//! - **Same bytes.** The file is opened, its length checked against the
//!   stored bytes, and its content compared with them through one fixed
//!   64 KiB buffer. When every byte matches, the load hands out `Arc`
//!   handles to the stored matrix and labels, and the stored digest.
//! - **Anything else** — a path never loaded, a different length, one byte
//!   that differs: the file is read and parsed with [`read_dataset`]'s
//!   parser, the parse is digested, and the entry is replaced.
//!
//! Nothing but the content is trusted. A modification time, an inode number
//! or a matching size says nothing about the bytes (a same-length rewrite
//! with its mtime restored keeps all three), and a digest would have to read
//! every byte anyway, so every load compares the content itself: the table
//! never serves the parse of bytes the file no longer holds. The kept digest
//! is a function of the parse alone, so the compare that re-proves the parse
//! re-proves the digest with it.
//!
//! Memory is bounded by [`TABLE_BYTES`], counted over every entry's file
//! bytes, cells and labels, with least-recently-used eviction. A file longer
//! than the bound streams through the parser and is not kept, and a parse
//! too large to keep is served and dropped. The table's lock covers lookup
//! and insert only, never file I/O, parsing or digesting, so a slow disk or
//! a large parse never stalls another request's load.
//!
//! [`read_dataset`]: microarray::io::read_dataset

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use microarray::io::parse_dataset;
use sprint_core::digest::dataset_digest;
use sprint_core::matrix::Matrix;

use crate::lru::Lru;

/// Most bytes the table retains: every entry's file bytes plus its parsed
/// cells (8 bytes each) and labels.
pub const TABLE_BYTES: usize = 64 << 20;

/// Size of the one buffer a load compares a file's content through.
const COMPARE_CHUNK: usize = 64 << 10;

/// A loaded dataset, owned by the caller.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Expression matrix (genes × samples).
    pub data: Matrix,
    /// Class labels, one per sample column.
    pub classlabel: Vec<u8>,
    /// The canonical path it was read from: the table's key, and the path a
    /// coordinator sends its peers.
    pub path: PathBuf,
}

/// A loaded dataset as the table hands it out: handles to its entry's
/// parse, shared with every other load of the same content.
#[derive(Debug, Clone)]
pub struct SharedDataset {
    /// Expression matrix (genes × samples).
    pub data: Arc<Matrix>,
    /// Class labels, one per sample column.
    pub classlabel: Arc<[u8]>,
    /// [`dataset_digest`] of `data` and `classlabel`, computed once per parse.
    pub digest: u64,
    /// The canonical path it was read from: the table's key, and the path a
    /// coordinator sends its peers.
    pub path: PathBuf,
}

impl SharedDataset {
    /// The dataset as owned values, copied out of the entry unless this is
    /// its last handle.
    pub fn into_owned(self) -> Dataset {
        Dataset {
            data: Arc::unwrap_or_clone(self.data),
            classlabel: self.classlabel.to_vec(),
            path: self.path,
        }
    }
}

/// A file's exact bytes, their parse and its digest.
struct Parsed {
    bytes: Vec<u8>,
    data: Arc<Matrix>,
    classlabel: Arc<[u8]>,
    digest: u64,
}

impl Parsed {
    fn new(bytes: Vec<u8>, data: Matrix, classlabel: Vec<u8>) -> Parsed {
        Parsed {
            digest: dataset_digest(&data, &classlabel),
            bytes,
            data: Arc::new(data),
            classlabel: classlabel.into(),
        }
    }

    /// What the entry counts against [`TABLE_BYTES`].
    fn cost(&self) -> usize {
        self.bytes.len() + std::mem::size_of_val(self.data.as_slice()) + self.classlabel.len()
    }

    fn dataset(&self, path: PathBuf) -> SharedDataset {
        SharedDataset {
            data: Arc::clone(&self.data),
            classlabel: Arc::clone(&self.classlabel),
            digest: self.digest,
            path,
        }
    }
}

/// See the module docs.
pub struct DatasetTable {
    /// Canonical path → the file's bytes and their parse.
    entries: Lru<PathBuf, Arc<Parsed>>,
}

impl Default for DatasetTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetTable {
    /// An empty table bounded by [`TABLE_BYTES`].
    pub fn new() -> DatasetTable {
        Self::with_bound(TABLE_BYTES)
    }

    fn with_bound(bound: usize) -> DatasetTable {
        DatasetTable {
            entries: Lru::new(bound),
        }
    }

    /// Load the dataset at `path` as owned values:
    /// [`DatasetTable::load_shared`], copied out of the table.
    pub fn load(&self, path: &Path) -> io::Result<Dataset> {
        self.load_shared(path).map(SharedDataset::into_owned)
    }

    /// Load the dataset at `path`: from the table when the file holds
    /// exactly the bytes of its entry, otherwise by reading and parsing it.
    /// Errors are the streaming reader's: an unreadable file's I/O error,
    /// or [`io::ErrorKind::InvalidData`] for malformed content.
    pub fn load_shared(&self, path: &Path) -> io::Result<SharedDataset> {
        let path = std::fs::canonicalize(path)?;
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len();
        if len > self.entries.bound() as u64 {
            let (data, classlabel) = parse_dataset(BufReader::new(file))?;
            // Never kept, so its bytes are not needed.
            return Ok(Parsed::new(Vec::new(), data, classlabel).dataset(path));
        }
        if let Some(entry) = self.entries.get(&path) {
            if entry.bytes.len() as u64 == len && holds(&mut file, &entry.bytes)? {
                return Ok(entry.dataset(path));
            }
            file.seek(SeekFrom::Start(0))?;
        }
        let mut bytes = Vec::with_capacity(len as usize);
        file.read_to_end(&mut bytes)?;
        let (data, classlabel) = parse_dataset(bytes.as_slice())?;
        let parsed = Arc::new(Parsed::new(bytes, data, classlabel));
        let dataset = parsed.dataset(path.clone());
        let cost = parsed.cost();
        self.entries.insert(path, parsed, cost);
        Ok(dataset)
    }
}

/// True when `file`, from its current position to its end, holds exactly
/// `want`.
fn holds(file: &mut File, want: &[u8]) -> io::Result<bool> {
    let mut buf = vec![0u8; COMPARE_CHUNK];
    let mut at = 0;
    loop {
        let n = match file.read(&mut buf) {
            Ok(0) => return Ok(at == want.len()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if want.get(at..at + n) != Some(&buf[..n]) {
            return Ok(false);
        }
        at += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microarray::io::{read_dataset, write_dataset};

    impl DatasetTable {
        fn retained(&self) -> usize {
            self.entries.retained()
        }

        fn paths(&self) -> Vec<PathBuf> {
            self.entries.keys()
        }
    }

    fn dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jobd-datasets-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::canonicalize(dir).unwrap()
    }

    /// A `genes × 6` dataset whose cells all differ from those of any other
    /// `seed`.
    fn write(path: &Path, genes: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let v = (0..genes * 6)
            .map(|i| (i as u64 * 7919 + seed * 104_729) as f64 / 97.0)
            .collect();
        let data = Matrix::from_vec(genes, 6, v).unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        write_dataset(path, &data, &labels).unwrap();
        (data, labels)
    }

    fn cost(path: &Path) -> usize {
        let (data, labels) = read_dataset(path).unwrap();
        std::fs::metadata(path).unwrap().len() as usize + data.as_slice().len() * 8 + labels.len()
    }

    #[test]
    fn unchanged_bytes_are_served_from_the_entry_and_any_change_reparses() {
        let dir = dir("change");
        let path = dir.join("a.tsv");
        let (data, labels) = write(&path, 20, 1);
        let table = DatasetTable::new();
        let first = table.load(&path).unwrap();
        assert_eq!((first.data, first.classlabel), (data.clone(), labels));
        assert_eq!(first.path, path);
        assert_eq!(table.load(&path).unwrap().data, data);
        // A file that only grew, and one whose last byte changed.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"1\t2\t3\t4\t5\t6\n");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(table.load(&path).unwrap().data.rows(), 21);
        let at = bytes.len() - 2;
        bytes[at] = b'7';
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(table.load(&path).unwrap().data.get(20, 5), 7.0);
        assert_eq!(table.paths(), vec![path.clone()]);
        assert_eq!(table.retained(), cost(&path));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_file_is_the_readers_error_and_a_renamed_replacement_is_read() {
        let dir = dir("replace");
        let path = dir.join("a.tsv");
        write(&path, 10, 1);
        let table = DatasetTable::new();
        table.load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let want = read_dataset(&path).unwrap_err();
        let got = table.load(&path).unwrap_err();
        assert_eq!(
            (got.kind(), got.to_string()),
            (want.kind(), want.to_string())
        );
        // Replaced by rename, as editors and atomic writers do.
        write(&path, 10, 1);
        table.load(&path).unwrap();
        let staged = dir.join("a.tsv.new");
        let (data, _) = write(&staged, 10, 2);
        std::fs::rename(&staged, &path).unwrap();
        assert_eq!(table.load(&path).unwrap().data, data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relative_and_symlinked_spellings_share_one_entry() {
        let dir = dir("spellings");
        let path = dir.join("a.tsv");
        let (data, _) = write(&path, 10, 1);
        let link = dir.join("link.tsv");
        std::os::unix::fs::symlink(&path, &link).unwrap();
        // The same file relative to the working directory, without changing
        // it: climb to the root, then descend.
        let cwd = std::env::current_dir().unwrap();
        let mut relative: PathBuf = cwd.components().skip(1).map(|_| "..").collect();
        relative.push(path.strip_prefix("/").unwrap());
        let dotted = dir.join("sub/../a.tsv");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let table = DatasetTable::new();
        for spelling in [&path, &link, &relative, &dotted] {
            let loaded = table.load(spelling).unwrap();
            assert_eq!((&loaded.data, &loaded.path), (&data, &path), "{spelling:?}");
        }
        assert_eq!(table.paths(), vec![path]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bound_evicts_least_recently_used_and_oversized_files_are_served_unkept() {
        let dir = dir("bound");
        let paths: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("{i}.tsv"))).collect();
        for (seed, path) in paths.iter().enumerate() {
            write(path, 10, seed as u64);
        }
        let each = cost(&paths[0]);
        assert!(paths.iter().all(|p| cost(p) == each));
        // Room for two entries, not three.
        let table = DatasetTable::with_bound(2 * each + each / 2);
        table.load(&paths[0]).unwrap();
        table.load(&paths[1]).unwrap();
        // Touch 0, so 1 is the least recently used when 2 arrives.
        table.load(&paths[0]).unwrap();
        table.load(&paths[2]).unwrap();
        assert_eq!(table.paths(), vec![paths[0].clone(), paths[2].clone()]);
        assert_eq!(table.retained(), 2 * each);
        // A file longer than the bound streams, and one whose parse does not
        // fit is served: neither is kept, and neither evicts anything.
        let big = dir.join("big.tsv");
        let (data, _) = write(&big, 400, 9);
        let len = std::fs::metadata(&big).unwrap().len() as usize;
        for bound in [len - 1, len + 1] {
            let table = DatasetTable::with_bound(bound);
            table.load(&paths[0]).unwrap();
            assert_eq!(table.load(&big).unwrap().data, data);
            assert_eq!(table.paths(), vec![paths[0].clone()]);
            assert_eq!(table.retained(), each);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kept_digest_is_the_parse_digest_and_a_same_length_rewrite_changes_it() {
        let dir = dir("digest");
        let path = dir.join("a.tsv");
        let (data, labels) = write(&path, 20, 1);
        let table = DatasetTable::new();
        let first = table.load_shared(&path).unwrap();
        assert_eq!(first.digest, dataset_digest(&data, &labels));
        // Served from the entry: the same parse, shared, and its digest.
        let again = table.load_shared(&path).unwrap();
        assert!(Arc::ptr_eq(&first.data, &again.data));
        assert_eq!(again.digest, first.digest);
        // Rewrite the last cell's last digit in place, keeping the length.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 2;
        bytes[at] = if bytes[at] == b'7' { b'8' } else { b'7' };
        std::fs::write(&path, &bytes).unwrap();
        let rewritten = table.load_shared(&path).unwrap();
        let (data, labels) = read_dataset(&path).unwrap();
        assert_eq!(*rewritten.data, data);
        assert_eq!(rewritten.digest, dataset_digest(&data, &labels));
        assert_ne!(rewritten.digest, first.digest);
        std::fs::remove_dir_all(&dir).ok();
    }
}
