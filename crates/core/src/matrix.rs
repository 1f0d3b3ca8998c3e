//! Row-major data matrix with missing-value handling.
//!
//! In the R interface (`pmaxT(X, classlabel, …, na = .mt.naNUM, …)`), `X` is a
//! genes × samples matrix and `na` is a sentinel code marking missing cells.
//! We canonicalize missing cells to `f64::NAN` once at construction — the
//! paper's "create data" step — so every downstream statistic only has to test
//! `is_nan()`.

use std::borrow::Cow;

use crate::error::{Error, Result};

/// A dense, row-major genes × samples matrix. Missing values are `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Build from row-major data. `data.len()` must equal `rows * cols` and
    /// both dimensions must be nonzero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(Error::BadMatrix(format!(
                "dimensions must be nonzero, got {rows}x{cols}"
            )));
        }
        if data.len() != rows * cols {
            return Err(Error::BadMatrix(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from row-major data, converting every cell equal to the `na`
    /// code into `NaN`. This mirrors the `na = .mt.naNUM` parameter.
    pub fn from_vec_with_na(rows: usize, cols: usize, mut data: Vec<f64>, na: f64) -> Result<Self> {
        for v in &mut data {
            // Bit-exact match on the code, as the C implementation does; NaN
            // cells are already missing.
            if *v == na {
                *v = f64::NAN;
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows (genes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (samples).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row access.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Cell access (row, col).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// The full row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consume into the backing vector (row-major).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Count of missing (`NaN`) cells.
    pub fn na_count(&self) -> usize {
        self.data.iter().filter(|v| v.is_nan()).count()
    }

    /// Apply `f` to every row in place. Used for the non-parametric rank
    /// transform.
    pub fn map_rows_in_place(&mut self, mut f: impl FnMut(&mut [f64])) {
        for r in 0..self.rows {
            f(self.row_mut(r));
        }
    }
}

/// A borrowed matrix, as [`crate::admit::admit`] takes one.
impl<'a> From<&'a Matrix> for Cow<'a, Matrix> {
    fn from(m: &'a Matrix) -> Self {
        Cow::Borrowed(m)
    }
}

/// A matrix handed over, as [`crate::admit::admit`] takes one.
impl From<Matrix> for Cow<'_, Matrix> {
    fn from(m: Matrix) -> Self {
        Cow::Owned(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        assert!(matches!(
            Matrix::from_vec(2, 3, vec![1.0; 5]),
            Err(Error::BadMatrix(_))
        ));
        assert!(matches!(
            Matrix::from_vec(0, 3, vec![]),
            Err(Error::BadMatrix(_))
        ));
        assert!(matches!(
            Matrix::from_vec(3, 0, vec![]),
            Err(Error::BadMatrix(_))
        ));
    }

    #[test]
    fn na_code_is_canonicalized() {
        let na = -9999.0;
        let m = Matrix::from_vec_with_na(1, 4, vec![1.0, na, 3.0, f64::NAN], na).unwrap();
        assert!(m.get(0, 1).is_nan());
        assert!(m.get(0, 3).is_nan());
        assert_eq!(m.na_count(), 2);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn na_code_matching_is_exact() {
        // A value close to but not equal to the code must survive.
        let m = Matrix::from_vec_with_na(1, 2, vec![-9999.0000001, -9999.0], -9999.0).unwrap();
        assert!(!m.get(0, 0).is_nan());
        assert!(m.get(0, 1).is_nan());
    }

    #[test]
    fn map_rows_in_place_transforms_each_row() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        m.map_rows_in_place(|row| {
            for v in row {
                *v *= 10.0;
            }
        });
        assert_eq!(m.as_slice(), &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn row_mut_modifies_backing_storage() {
        let mut m = Matrix::from_vec(2, 2, vec![0.0; 4]).unwrap();
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
        assert_eq!(m.into_vec(), vec![0.0, 0.0, 7.0, 0.0]);
    }
}
