//! Plain-text dataset IO: a minimal tab-separated format with a label header.
//!
//! Format:
//!
//! ```text
//! #classlabel<TAB>0<TAB>0<TAB>1<TAB>1
//! 1.5<TAB>2.0<TAB>8.0<TAB>9.0
//! NA<TAB>4.0<TAB>5.0<TAB>6.0
//! ```
//!
//! Missing cells are written as `NA`, matching R's convention.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use sprint_core::matrix::Matrix;

/// Write `data` and `labels` to `path`.
pub fn write_dataset(path: &Path, data: &Matrix, labels: &[u8]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    write!(w, "#classlabel")?;
    for l in labels {
        write!(w, "\t{l}")?;
    }
    writeln!(w)?;
    for g in 0..data.rows() {
        let row = data.row(g);
        for (c, v) in row.iter().enumerate() {
            if c > 0 {
                write!(w, "\t")?;
            }
            if v.is_nan() {
                write!(w, "NA")?;
            } else {
                // 17 significant digits: round-trips f64 exactly.
                write!(w, "{v:.17e}")?;
            }
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Read a dataset written by [`write_dataset`], streaming the file through
/// a buffered reader.
pub fn read_dataset(path: &Path) -> io::Result<(Matrix, Vec<u8>)> {
    let file = std::fs::File::open(path)?;
    parse_dataset(io::BufReader::new(file))
}

/// Parse the [`write_dataset`] format from any buffered reader: a file
/// stream, or bytes already in memory (`&[u8]`). Malformed input is an
/// [`io::ErrorKind::InvalidData`] error.
pub fn parse_dataset<R: BufRead>(reader: R) -> io::Result<(Matrix, Vec<u8>)> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty file"))??;
    let mut parts = header.split('\t');
    let tag = parts.next().unwrap_or("");
    if tag != "#classlabel" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected '#classlabel' header, found {tag:?}"),
        ));
    }
    let labels: Vec<u8> = parts
        .map(|p| {
            p.parse::<u8>().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad label {p:?}: {e}"))
            })
        })
        .collect::<io::Result<_>>()?;
    let cols = labels.len();
    let mut values = Vec::new();
    let mut rows = 0usize;
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let mut n = 0usize;
        for cell in line.split('\t') {
            let v = if cell == "NA" {
                f64::NAN
            } else {
                cell.parse::<f64>().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad value {cell:?}: {e}"),
                    )
                })?
            };
            values.push(v);
            n += 1;
        }
        if n != cols {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("row {rows} has {n} cells, expected {cols}"),
            ));
        }
        rows += 1;
    }
    let matrix = Matrix::from_vec(rows, cols, values)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((matrix, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("microarray-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_exact() {
        let m =
            Matrix::from_vec(2, 3, vec![1.5, -2.25e-17, 8.0, f64::NAN, 0.1 + 0.2, 6.0]).unwrap();
        let labels = vec![0u8, 0, 1];
        let path = tmp("roundtrip.tsv");
        write_dataset(&path, &m, &labels).unwrap();
        let (m2, l2) = read_dataset(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(l2, labels);
        assert_eq!(m2.rows(), 2);
        for g in 0..2 {
            for c in 0..3 {
                let a = m.get(g, c);
                let b = m2.get(g, c);
                assert!(a.is_nan() == b.is_nan());
                if !a.is_nan() {
                    assert_eq!(a, b, "cell ({g},{c})");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_header() {
        let path = tmp("badheader.tsv");
        std::fs::write(&path, "nonsense\t1\n1.0\n").unwrap();
        let err = read_dataset(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("#classlabel"));
    }

    #[test]
    fn rejects_ragged_rows() {
        let path = tmp("ragged.tsv");
        std::fs::write(&path, "#classlabel\t0\t1\n1.0\t2.0\n3.0\n").unwrap();
        let err = read_dataset(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("expected 2"));
    }

    #[test]
    fn rejects_empty_file() {
        let path = tmp("empty.tsv");
        std::fs::write(&path, "").unwrap();
        assert!(read_dataset(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synthetic_round_trip() {
        use crate::synth::SynthConfig;
        let ds = SynthConfig::two_class(30, 4, 4)
            .na_rate(0.05)
            .seed(5)
            .generate();
        let path = tmp("synth.tsv");
        write_dataset(&path, &ds.matrix, &ds.labels).unwrap();
        let (m2, l2) = read_dataset(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(l2, ds.labels);
        assert_eq!(m2.rows(), 30);
        assert_eq!(m2.na_count(), ds.matrix.na_count());
    }
}
