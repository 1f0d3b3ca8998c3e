//! A stored arrangement matrix: `pmaxt run --perm-file` replays the label
//! arrangements a file lists, one row per draw.
//!
//! `fixed.seed.sampling = "n"` stores nothing: its sequential stream is drawn
//! on the fly ([`super::random`]).

use super::ResamplingStream;
use crate::error::{Error, Result};

/// Label arrangements held in memory, row by row; `skip` is an index jump.
#[derive(Debug, Clone)]
pub struct StoredMatrix {
    data: Vec<u8>,
    cols: usize,
    cursor: u64,
    len: u64,
}

impl StoredMatrix {
    /// Build a stored sequence from externally supplied rows (e.g. an
    /// arrangement matrix replayed from a file), validating that every row
    /// covers exactly `expected_cols` sample columns. Mismatched rows report
    /// [`Error::ArrangementWidth`] instead of corrupting or panicking later.
    pub fn try_from_rows(rows: &[Vec<u8>], expected_cols: usize) -> Result<Self> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != expected_cols {
                return Err(Error::ArrangementWidth {
                    row: i,
                    expected: expected_cols,
                    got: row.len(),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * expected_cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(StoredMatrix {
            data,
            cols: expected_cols,
            cursor: 0,
            len: rows.len() as u64,
        })
    }
}

impl ResamplingStream for StoredMatrix {
    fn len(&self) -> u64 {
        self.len
    }

    fn position(&self) -> u64 {
        self.cursor
    }

    fn next_into(&mut self, out: &mut [u8]) -> bool {
        if self.cursor >= self.len {
            return false;
        }
        let start = self.cursor as usize * self.cols;
        out.copy_from_slice(&self.data[start..start + self.cols]);
        self.cursor += 1;
        true
    }

    fn skip(&mut self, n: u64) {
        self.cursor = self.cursor.saturating_add(n).min(self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::test_support::collect_all;

    fn rows() -> Vec<Vec<u8>> {
        (0..9u8).map(|r| vec![r % 2, 1 - r % 2, r % 3, 0]).collect()
    }

    #[test]
    fn skip_is_index_jump() {
        let rows = rows();
        let mut stored = StoredMatrix::try_from_rows(&rows, 4).unwrap();
        stored.skip(6);
        assert_eq!(stored.position(), 6);
        assert_eq!(collect_all(&mut stored, 4), rows[6..]);
    }

    #[test]
    fn try_from_rows_accepts_uniform_widths() {
        let rows = vec![vec![0u8, 0, 1, 1], vec![1u8, 0, 1, 0], vec![1u8, 1, 0, 0]];
        let mut stored = StoredMatrix::try_from_rows(&rows, 4).unwrap();
        assert_eq!(collect_all(&mut stored, 4), rows);
    }

    #[test]
    fn try_from_rows_reports_offending_row_and_widths() {
        let rows = vec![vec![0u8, 0, 1, 1], vec![1u8, 0, 1]];
        match StoredMatrix::try_from_rows(&rows, 4) {
            Err(Error::ArrangementWidth { row, expected, got }) => {
                assert_eq!((row, expected, got), (1, 4, 3));
            }
            other => panic!("expected ArrangementWidth, got {other:?}"),
        }
    }

    #[test]
    fn exhaustion_returns_false() {
        let mut stored = StoredMatrix::try_from_rows(&rows()[..3], 4).unwrap();
        let mut out = [0u8; 4];
        for _ in 0..3 {
            assert!(stored.next_into(&mut out));
        }
        assert!(!stored.next_into(&mut out));
        stored.skip(10);
        assert_eq!(stored.position(), 3);
    }
}
