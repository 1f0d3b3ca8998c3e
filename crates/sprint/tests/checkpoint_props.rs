//! Property-based tests over the checkpoint text format: every input to
//! `checkpoint::load` — arbitrary bytes, or a real mid-run checkpoint
//! truncated, bit-flipped or with a field rewritten — gives either a state
//! that holds `load`'s own invariants or an `InvalidData` error. It never
//! panics, and never allocates in proportion to the `genes` field (or any
//! other number the file states), only to the bytes it actually holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sprint::checkpoint::{load, run_with_checkpoints, CheckpointState};
use sprint_core::matrix::Matrix;
use sprint_core::options::PmaxtOptions;

/// Records the largest single allocation the current thread requests while
/// tracking is on.
struct Tracking;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

fn tmp() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sprint-ckpt-props-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The bytes of a real checkpoint, written mid-run: 5 genes, cursor 25 of 60.
fn mid_run_checkpoint() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(write_mid_run_checkpoint).clone()
}

fn write_mid_run_checkpoint() -> Vec<u8> {
    let data = Matrix::from_vec(
        5,
        8,
        (0..40).map(|i| ((i * 37) % 11) as f64 + 0.5).collect(),
    )
    .unwrap();
    let labels = [0u8, 0, 0, 0, 1, 1, 1, 1];
    let opts = PmaxtOptions::default().permutations(60);
    let path = tmp();
    let (partial, _) = run_with_checkpoints(&data, &labels, &opts, &path, 10, Some(25)).unwrap();
    assert!(partial.is_none(), "the run stops mid-way");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Load `bytes` as a checkpoint file, returning the outcome and the largest
/// single allocation `load` made.
fn load_bytes(bytes: &[u8]) -> (io::Result<Option<CheckpointState>>, usize) {
    let path = tmp();
    std::fs::write(&path, bytes).unwrap();
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let outcome = load(&path);
    TRACKING.with(|t| t.set(false));
    std::fs::remove_file(&path).ok();
    (outcome, LARGEST.with(Cell::get))
}

/// The contract: a state holding `load`'s invariants, or `InvalidData`; and
/// no allocation beyond a read buffer plus a small multiple of the input.
fn check(bytes: &[u8]) -> Result<(), String> {
    let (outcome, largest) = load_bytes(bytes);
    match outcome {
        Ok(Some(s)) => {
            let n = s.counts.n_perm;
            prop_assert_eq!(s.cursor, n);
            prop_assert!(s.cursor <= s.b, "cursor {} beyond b {}", s.cursor, s.b);
            prop_assert_eq!(s.counts.count_raw.len(), s.counts.count_adj.len());
            prop_assert!(
                s.counts
                    .count_raw
                    .iter()
                    .chain(&s.counts.count_adj)
                    .all(|&c| c <= n),
                "a count exceeds n_perm"
            );
        }
        Ok(None) => return Err("an existing file loaded as missing".into()),
        Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
    }
    let bound = 16 * 1024 + 16 * bytes.len();
    prop_assert!(
        largest <= bound,
        "load allocated {} bytes for a {}-byte file",
        largest,
        bytes.len()
    );
    Ok(())
}

/// Rewrite one line of a checkpoint: a header field's value, one count, a
/// dropped or duplicated count, a dropped or duplicated line.
fn mutate(text: &str, line: u64, how: u64, value: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let i = line as usize % lines.len();
    let values = [
        value.to_string(),
        u64::MAX.to_string(),
        (value % 100).to_string(),
        "-1".to_string(),
        "18446744073709551616".to_string(),
        String::new(),
        "1e9".to_string(),
    ];
    let v = &values[(value % values.len() as u64) as usize];
    let mut tokens: Vec<String> = lines[i].split(' ').map(str::to_string).collect();
    match how % 6 {
        // A field's value (or a count) replaced.
        0 | 1 => {
            let t = 1 + (value as usize % tokens.len().max(2).saturating_sub(1));
            if t < tokens.len() {
                tokens[t] = v.clone();
            } else {
                tokens.push(v.clone());
            }
            lines[i] = tokens.join(" ");
        }
        // A token dropped or added.
        2 => {
            if tokens.len() > 1 {
                tokens.pop();
            }
            lines[i] = tokens.join(" ");
        }
        3 => {
            tokens.push(v.clone());
            lines[i] = tokens.join(" ");
        }
        // A line dropped or duplicated.
        4 => {
            lines.remove(i);
        }
        _ => {
            let dup = lines[i].clone();
            lines.insert(i, dup);
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[test]
fn the_real_checkpoint_loads_and_a_huge_genes_field_allocates_nothing() {
    let base = mid_run_checkpoint();
    check(&base).unwrap();
    let (loaded, _) = load_bytes(&base);
    let state = loaded.unwrap().unwrap();
    assert_eq!((state.cursor, state.b, state.counts.genes()), (25, 60, 5));
    // A file claiming 10^15 genes is refused as corrupt without allocating
    // for them.
    let text = String::from_utf8(base).unwrap();
    let huge = text.replace("genes 5", "genes 1000000000000000");
    let (outcome, largest) = load_bytes(huge.as_bytes());
    assert_eq!(outcome.unwrap_err().kind(), io::ErrorKind::InvalidData);
    assert!(largest < 64 * 1024, "allocated {largest} bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_parsed_or_invalid_data(
        len in 0usize..400,
        magic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut bytes: Vec<u8> = if magic {
            b"pmaxt-checkpoint-v1\n".to_vec()
        } else {
            Vec::new()
        };
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push(state as u8);
        }
        check(&bytes)?;
    }

    #[test]
    fn truncations_are_a_state_or_invalid_data(cut_frac in 0.0f64..1.0) {
        let base = mid_run_checkpoint();
        let cut = (base.len() as f64 * cut_frac) as usize;
        check(&base[..cut])?;
    }

    #[test]
    fn bit_flips_are_a_state_or_invalid_data(pos_frac in 0.0f64..1.0, bit in 0u32..8) {
        let mut bytes = mid_run_checkpoint();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        check(&bytes)?;
    }

    #[test]
    fn field_mutations_are_a_state_or_invalid_data(
        line in any::<u64>(),
        how in any::<u64>(),
        value in any::<u64>(),
    ) {
        let base = String::from_utf8(mid_run_checkpoint()).unwrap();
        check(mutate(&base, line, how, value).as_bytes())?;
    }
}
