//! Hostile input for the dataset parser. The streaming reader
//! (`read_dataset`) and the dataset table's in-memory parse must agree on
//! every byte string — the same matrix and labels bit for bit, or the same
//! `InvalidData` error — and neither may panic: arbitrary bytes, and valid
//! files truncated, bit-flipped, broken with invalid UTF-8, converted to
//! CRLF, given an extra or a missing tab, a header of 0 or 300 labels, or
//! `NA`/`nan`/`inf` cells.

use std::io;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use microarray::io::{read_dataset, write_dataset};
use sprint_core::matrix::Matrix;
use sprint_jobd::DatasetTable;

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jobd-dataset-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A parse as every bit of its matrix (NaN payloads included) and labels,
/// or the text of its `InvalidData` error.
type Outcome = Result<(usize, usize, Vec<u64>, Vec<u8>), String>;

fn outcome(parsed: io::Result<(Matrix, Vec<u8>)>) -> Outcome {
    match parsed {
        Ok((data, labels)) => {
            let cells = data.as_slice().iter().map(|v| v.to_bits()).collect();
            Ok((data.rows(), data.cols(), cells, labels))
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(e.to_string()),
        Err(e) => panic!("not an InvalidData error: {e:?}"),
    }
}

/// Write `bytes` to `path` and read them back both ways: the outcomes must
/// agree, and a second load — served from the table's entry when the first
/// parse was kept — must agree too. Returns the agreed outcome.
fn both_paths_agree(path: &Path, bytes: &[u8]) -> Result<Outcome, String> {
    std::fs::write(path, bytes).unwrap();
    let streamed = outcome(read_dataset(path));
    let table = DatasetTable::new();
    let load = |table: &DatasetTable| outcome(table.load(path).map(|d| (d.data, d.classlabel)));
    prop_assert_eq!(&load(&table), &streamed);
    prop_assert_eq!(&load(&table), &streamed);
    Ok(streamed)
}

/// Fragments arbitrary byte strings are assembled from: the format's own
/// tokens, numbers of every shape, and bytes that are not UTF-8.
const FRAGMENTS: &[&[u8]] = &[
    b"#classlabel",
    b"\t",
    b"\n",
    b"\r\n",
    b"\r",
    b"0",
    b"1",
    b"2",
    b"255",
    b"300",
    b"-1",
    b"NA",
    b"nan",
    b"inf",
    b"-inf",
    b"1.5",
    b"-2.25e-17",
    b"1e400",
    b"0x10",
    b" ",
    b"",
    b"\xff",
    b"\xc3\x28",
    b"\xe2\x82",
    b"\0",
];

fn fragment_soup() -> impl Strategy<Value = Vec<u8>> {
    (0usize..40).prop_flat_map(|n| {
        proptest::collection::vec(0usize..FRAGMENTS.len(), n)
            .prop_map(|picks| picks.iter().flat_map(|&i| FRAGMENTS[i].to_vec()).collect())
    })
}

fn raw_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0usize..120).prop_flat_map(|n| {
        proptest::collection::vec(0u16..256, n).prop_map(|v| v.iter().map(|&b| b as u8).collect())
    })
}

/// A valid file: `genes × cols` cells, some of them NA, in the writer's
/// format.
fn valid_file(path: &Path, genes: usize, cols: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let v = (0..genes * cols)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 11 {
                0 => f64::NAN,
                1 => 0.0,
                _ => (x >> 11) as f64 / (1u64 << 40) as f64 - 2000.0,
            }
        })
        .collect();
    let data = Matrix::from_vec(genes, cols, v).unwrap();
    let labels: Vec<u8> = (0..cols).map(|c| (c % 2) as u8).collect();
    write_dataset(path, &data, &labels).unwrap();
    std::fs::read(path).unwrap()
}

const CELLS: [&str; 8] = ["NA", "nan", "NaN", "inf", "-inf", "+infinity", "na", ""];

/// Apply mutation `kind` at a position drawn from `at`.
fn mutate(file: &[u8], kind: usize, at: u64) -> Vec<u8> {
    let text = || String::from_utf8(file.to_vec()).unwrap();
    let pos = (at % (file.len() as u64 + 1)) as usize;
    let mut out = file.to_vec();
    match kind {
        0 => out.truncate(pos),
        1 => {
            let i = pos.min(file.len() - 1);
            out[i] ^= 1 << (at % 8);
        }
        2 => {
            let bad: &[u8] = [b"\xff".as_slice(), b"\xc3\x28", b"\xed\xa0\x80"][(at % 3) as usize];
            out.splice(pos..pos, bad.iter().copied());
        }
        3 => out = text().replace('\n', "\r\n").into_bytes(),
        4 => out.insert(pos, b'\t'),
        5 => {
            let tabs: Vec<usize> = (0..file.len()).filter(|&i| file[i] == b'\t').collect();
            out.remove(tabs[(at % tabs.len() as u64) as usize]);
        }
        6 | 7 => {
            let header = if kind == 6 {
                "#classlabel".to_string()
            } else {
                (0..300).fold("#classlabel".to_string(), |h, c| {
                    h + if c % 2 == 0 { "\t0" } else { "\t1" }
                })
            };
            let text = text();
            let body = text.split_once('\n').map_or("", |(_, body)| body);
            out = format!("{header}\n{body}").into_bytes();
        }
        8 => {
            let text = text();
            let mut lines: Vec<Vec<String>> = text
                .lines()
                .map(|l| l.split('\t').map(str::to_string).collect())
                .collect();
            let row = 1 + (at as usize / 7) % (lines.len() - 1);
            let cell = (at as usize / 3) % lines[row].len();
            lines[row][cell] = CELLS[(at % CELLS.len() as u64) as usize].to_string();
            let rows: Vec<String> = lines.iter().map(|cells| cells.join("\t")).collect();
            out = (rows.join("\n") + "\n").into_bytes();
        }
        _ => {}
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn arbitrary_bytes_parse_alike_on_both_paths(bytes in raw_bytes()) {
        let _ = both_paths_agree(&temp_file("raw.tsv"), &bytes)?;
    }

    #[test]
    fn format_fragments_parse_alike_on_both_paths(bytes in fragment_soup()) {
        let _ = both_paths_agree(&temp_file("soup.tsv"), &bytes)?;
    }

    /// The unchanged file (kind 9) and its CRLF twin (kind 3) parse, to
    /// the same bits.
    #[test]
    fn mutated_valid_files_parse_alike_on_both_paths(
        (genes, cols, seed, kind, at) in (1usize..6, 2usize..7, any::<u64>(), 0usize..10, any::<u64>())
    ) {
        let path = temp_file("mutated.tsv");
        let file = valid_file(&path, genes, cols, seed);
        let clean = outcome(read_dataset(&path));
        prop_assert!(clean.is_ok());
        let mutated = both_paths_agree(&path, &mutate(&file, kind, at))?;
        if kind == 3 || kind == 9 {
            prop_assert_eq!(mutated, clean);
        }
    }
}
