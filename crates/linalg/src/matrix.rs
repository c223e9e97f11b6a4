//! Row-major dense matrix type.
//!
//! Factor matrices `U_n ∈ R^{I_n × R_n}` in the Tucker decomposition are tall
//! and skinny, and the TTMc kernels access them row-wise (`U_n(i, :)`), so a
//! row-major layout keeps each accessed row contiguous in memory.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, `f64` matrix.
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    /// The entries, `nrows · ncols` of them.
    data: Vec<f64>,
    /// How many entries of `data`'s allocation hold initialized values: at
    /// least `data.len()`, and more after
    /// [`reshape_in_place`](Self::reshape_in_place) shrank the shape; never
    /// more than `data.capacity()`.
    filled: usize,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix::owning(self.nrows, self.ncols, self.data.clone())
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.data == other.data
    }
}

impl Matrix {
    /// The matrix over `data`, which holds exactly `nrows · ncols` entries.
    fn owning(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        let filled = data.len();
        Matrix {
            nrows,
            ncols,
            data,
            filled,
        }
    }

    /// Creates an `nrows × ncols` matrix filled with zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix::owning(nrows, ncols, vec![0.0; nrows * ncols])
    }

    /// Reshapes to `nrows × ncols` over the same allocation.  Up to the
    /// longest length this matrix has held, nothing is reallocated or
    /// written: the entries are whatever the buffer last held at those
    /// positions, so a caller must overwrite the whole shape before reading
    /// it.  Past that length the buffer grows, with zeros.  This is how one
    /// buffer serves results of different shapes in turn (the compact TTMc
    /// results of a HOOI sweep) without a fill per switch.
    ///
    /// # Panics
    /// Panics if `nrows · ncols` overflows `usize`.
    pub fn reshape_in_place(&mut self, nrows: usize, ncols: usize) {
        let len = nrows
            .checked_mul(ncols)
            .expect("matrix shape overflows usize");
        if len <= self.data.len() {
            self.data.truncate(len);
        } else if len <= self.filled {
            // SAFETY: `len ≤ filled ≤ capacity`, and the first `filled`
            // entries of the allocation were initialized: `filled` only
            // grows to a length `data` had, and truncating a `Vec<f64>`
            // drops nothing and writes nothing.
            unsafe { self.data.set_len(len) };
        } else {
            self.data.resize(len, 0.0);
            self.filled = len;
        }
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` pair.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(nrows: usize, ncols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Matrix::owning(nrows, ncols, data)
    }

    /// Creates a matrix that takes ownership of a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length {} does not match {}x{}",
            data.len(),
            nrows,
            ncols
        );
        Matrix::owning(nrows, ncols, data)
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix::owning(rows.len(), ncols, data)
    }

    /// Creates a matrix with entries drawn uniformly from `[0, 1)` using a
    /// deterministic seed.
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dist = Uniform::new(0.0, 1.0);
        let data = (0..nrows * ncols).map(|_| dist.sample(&mut rng)).collect();
        Matrix::owning(nrows, ncols, data)
    }

    /// Creates a matrix with entries drawn uniformly from `[-1, 1)`.  This is
    /// the generator of the solver's random initial factors (`hooi`'s
    /// `random_factor` orthonormalizes its columns), so its bits per seed
    /// are part of every randomly initialized solve; it also makes centered
    /// test data for the kernels' tests and benches.
    pub fn random_signed(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0, 1.0);
        let data = (0..nrows * ncols).map(|_| dist.sample(&mut rng)).collect();
        Matrix::owning(nrows, ncols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.nrows);
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.nrows);
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copies column `j` into a freshly allocated vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.ncols);
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with the entries of `v`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.ncols);
        assert_eq!(v.len(), self.nrows);
        for i in 0..self.nrows {
            self[(i, j)] = v[i];
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Returns a new matrix containing the rows with indices in `rows`, in
    /// the given order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.ncols);
        for (dst, &src) in rows.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Returns a new matrix containing columns `0..k`.
    pub fn take_columns(&self, k: usize) -> Matrix {
        assert!(k <= self.ncols);
        let mut out = Matrix::zeros(self.nrows, k);
        for i in 0..self.nrows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        out
    }

    /// Fills every entry with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Multiplies every entry by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// `self += alpha * other`, entrywise.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Entrywise difference norm `‖self - other‖_F`.
    pub fn frobenius_distance(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let max_rows = 8.min(self.nrows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.ncols);
            for j in 0..max_cols {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.ncols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.nrows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diag() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = Matrix::from_vec(2, 3, v.clone());
        assert_eq!(m.into_vec(), v);
    }

    #[test]
    #[should_panic]
    fn from_vec_bad_len() {
        let _ = Matrix::from_vec(2, 3, vec![1.0; 5]);
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn set_col_overwrites_one_column() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 0.0, 0.0]);
        m.set_col(1, &[9.0, 8.0]);
        assert_eq!(m.as_slice(), &[1.0, 9.0, 0.0, 8.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::random(4, 7, 42);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 4));
        assert_eq!(m, t.transpose());
    }

    #[test]
    fn select_rows_order() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f64);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn take_columns_prefix() {
        let m = Matrix::from_fn(2, 4, |_, j| j as f64);
        let s = m.take_columns(2);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::identity(2);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 1)], 4.0);
        a.scale(0.5);
        assert_eq!(a[(1, 1)], 2.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn frobenius_distance_zero_for_equal() {
        let m = Matrix::random(3, 3, 7);
        assert_eq!(m.frobenius_distance(&m), 0.0);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Matrix::random(5, 5, 123);
        let b = Matrix::random(5, 5, 123);
        assert_eq!(a, b);
        let c = Matrix::random(5, 5, 124);
        assert_ne!(a, c);
    }

    #[test]
    fn reshape_in_place_reuses_the_allocation_without_writing() {
        let mut m = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f64);
        let ptr = m.as_slice().as_ptr();
        m.reshape_in_place(2, 5);
        assert_eq!(m.shape(), (2, 5));
        m.fill(-1.0);
        // Back up to the longest shape held: the same buffer, the entries
        // past the narrower shape as they were left.
        m.reshape_in_place(3, 8);
        assert_eq!(m.as_slice().as_ptr(), ptr);
        assert!(m.as_slice()[..10].iter().all(|&x| x == -1.0));
        assert!((10..24).all(|k| m.as_slice()[k] == k as f64));
        // Past it, the buffer grows with zeros.
        m.reshape_in_place(5, 5);
        assert!(m.as_slice()[24..].iter().all(|&x| x == 0.0));
        // A clone holds only its own shape's entries.
        let mut c = Matrix::from_fn(3, 3, |_, _| 2.0);
        c.reshape_in_place(1, 2);
        let mut d = c.clone();
        assert_eq!(c, d);
        d.reshape_in_place(3, 3);
        assert_eq!(&d.as_slice()[2..], &[0.0; 7]);
        c.reshape_in_place(3, 3);
        assert_eq!(c.as_slice(), &[2.0; 9]);
    }
}
