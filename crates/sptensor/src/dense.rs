//! Dense order-`N` tensors with C-order layout and mode-`n` unfoldings.
//!
//! Dense tensors appear in HOOI as TTMc results restricted to the requested
//! ranks and as the core tensor `G`; both are small (`O(Π R_n)` or
//! `O(I_n Π_{t≠n} R_t)` entries).  The layout is C order: the last mode
//! varies fastest, matching the Kronecker-row column ordering used by the
//! nonzero-based TTMc (see the crate-level documentation).

use crate::dims_product;
use linalg::Matrix;

/// A dense order-`N` tensor of `f64` values in C order.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    dims: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// Creates a zero-filled dense tensor.
    pub fn zeros(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "a tensor needs at least one mode");
        let len = dims_product(&dims);
        DenseTensor {
            dims,
            data: vec![0.0; len],
        }
    }

    /// Creates a dense tensor from a closure over index tuples.
    pub fn from_fn<F: FnMut(&[usize]) -> f64>(dims: Vec<usize>, mut f: F) -> Self {
        let mut t = DenseTensor::zeros(dims);
        let mut index = vec![0usize; t.order()];
        for pos in 0..t.data.len() {
            t.unlinearize(pos, &mut index);
            t.data[pos] = f(&index);
        }
        t
    }

    /// Creates a dense tensor taking ownership of a C-order buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the dimensions.
    pub fn from_vec(dims: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), dims_product(&dims), "buffer length mismatch");
        assert!(!dims.is_empty());
        DenseTensor { dims, data }
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying C-order buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying C-order buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Linearizes an index tuple (C order: last mode fastest).
    #[inline]
    pub fn linear_index(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.order());
        let mut lin = 0usize;
        for (&i, &d) in index.iter().zip(self.dims.iter()) {
            debug_assert!(i < d);
            lin = lin * d + i;
        }
        lin
    }

    /// Writes the index tuple corresponding to linear position `pos` into
    /// `out`.
    pub fn unlinearize(&self, mut pos: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.order());
        for m in (0..self.order()).rev() {
            out[m] = pos % self.dims[m];
            pos /= self.dims[m];
        }
    }

    /// Reads the entry at an index tuple.
    #[inline]
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.linear_index(index)]
    }

    /// Writes the entry at an index tuple.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f64) {
        let lin = self.linear_index(index);
        self.data[lin] = value;
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `‖self - other‖_F`.
    pub fn frobenius_distance(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.dims, other.dims);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Mode-`n` unfolding: returns the `I_n × Π_{t≠n} I_t` matrix whose row
    /// `i` collects the entries with mode-`n` index `i`; the remaining modes
    /// are linearized in increasing order with the last one fastest.
    pub fn unfold(&self, mode: usize) -> Matrix {
        assert!(mode < self.order());
        let nrows = self.dims[mode];
        let ncols = self.len() / nrows;
        let mut out = Matrix::zeros(nrows, ncols);
        let mut index = vec![0usize; self.order()];
        for pos in 0..self.data.len() {
            self.unlinearize(pos, &mut index);
            let row = index[mode];
            // Column: linearize remaining modes in increasing order.
            let mut col = 0usize;
            for (m, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
                if m == mode {
                    continue;
                }
                col = col * d + i;
            }
            out[(row, col)] = self.data[pos];
        }
        out
    }

    /// Inverse of [`unfold`](Self::unfold): builds a dense tensor with mode
    /// sizes `dims` from its mode-`mode` unfolding.
    pub fn fold(matrix: &Matrix, mode: usize, dims: &[usize]) -> DenseTensor {
        let mut out = DenseTensor::zeros(dims.to_vec());
        DenseTensor::fold_into(matrix, mode, &mut out);
        out
    }

    /// [`fold`](Self::fold) into an existing tensor, overwriting every entry
    /// — the allocation-free variant for callers that fold into a reused
    /// buffer (e.g. the HOOI core buffer).  The target's dimensions define
    /// the fold shape.
    pub fn fold_into(matrix: &Matrix, mode: usize, out: &mut DenseTensor) {
        let dims = out.dims.clone();
        assert!(mode < dims.len());
        assert_eq!(matrix.nrows(), dims[mode]);
        assert_eq!(matrix.ncols(), dims_product(&dims) / dims[mode]);
        let mut index = vec![0usize; dims.len()];
        for pos in 0..out.data.len() {
            out.unlinearize(pos, &mut index);
            let row = index[mode];
            let mut col = 0usize;
            for (m, (&i, &d)) in index.iter().zip(dims.iter()).enumerate() {
                if m == mode {
                    continue;
                }
                col = col * d + i;
            }
            out.data[pos] = matrix[(row, col)];
        }
    }

    /// Dense tensor-times-matrix along `mode`.
    ///
    /// * `transpose = false`: `Y = X ×_mode U`, replacing mode size `d_mode`
    ///   by `U.nrows()`; requires `U.ncols() == d_mode`.
    ///   `y[.., i, ..] = Σ_r x[.., r, ..] · U(i, r)`.
    /// * `transpose = true`: `Y = X ×_mode Uᵀ`, replacing `d_mode` by
    ///   `U.ncols()`; requires `U.nrows() == d_mode`.
    ///   `y[.., r, ..] = Σ_i x[.., i, ..] · U(i, r)`.
    pub fn ttm(&self, mode: usize, u: &Matrix, transpose: bool) -> DenseTensor {
        assert!(mode < self.order());
        let old = self.dims[mode];
        let (new, check) = if transpose {
            (u.ncols(), u.nrows())
        } else {
            (u.nrows(), u.ncols())
        };
        assert_eq!(
            check, old,
            "ttm: matrix inner dimension {check} does not match mode size {old}"
        );
        let mut new_dims = self.dims.clone();
        new_dims[mode] = new;
        let mut out = DenseTensor::zeros(new_dims);

        // Iterate over the input, scattering contributions; the tensors
        // involved are small so clarity wins over blocking.
        let mut index = vec![0usize; self.order()];
        for pos in 0..self.data.len() {
            let x = self.data[pos];
            if x == 0.0 {
                continue;
            }
            self.unlinearize(pos, &mut index);
            let r = index[mode];
            for j in 0..new {
                let coeff = if transpose { u[(r, j)] } else { u[(j, r)] };
                if coeff == 0.0 {
                    continue;
                }
                index[mode] = j;
                let lin = out.linear_index(&index);
                out.data[lin] += x * coeff;
                index[mode] = r;
            }
        }
        out
    }

    /// Applies `ttm` along every mode in sequence with the matrices in
    /// `factors` (one per mode, `factors[n]` applied along mode `n`), with
    /// the given transpose flag.  Passing the factor matrices with
    /// `transpose = false` reconstructs a tensor from a Tucker core.
    pub fn ttm_chain(&self, factors: &[&Matrix], transpose: bool) -> DenseTensor {
        assert_eq!(factors.len(), self.order());
        let mut cur = self.clone();
        for (mode, u) in factors.iter().enumerate() {
            cur = cur.ttm(mode, u, transpose);
        }
        cur
    }
}

/// The value of the Tucker model `[[G; U₁,…,U_N]]` at one coordinate:
/// `Σ_r g(r) Π_n U_n(i_n, r_n)` over the nonzero core entries in ascending
/// position, each product cut short once it reaches zero.
pub fn reconstruct_at(core: &DenseTensor, factors: &[Matrix], index: &[usize]) -> f64 {
    debug_assert_eq!(factors.len(), core.order());
    debug_assert_eq!(index.len(), core.order());
    let mut sum = 0.0;
    let mut ridx = vec![0usize; core.order()];
    for pos in 0..core.len() {
        let g = core.as_slice()[pos];
        if g == 0.0 {
            continue;
        }
        core.unlinearize(pos, &mut ridx);
        let mut prod = g;
        for (n, &r) in ridx.iter().enumerate() {
            prod *= factors[n][(index[n], r)];
            if prod == 0.0 {
                break;
            }
        }
        sum += prod;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruct_at_matches_full_reconstruction() {
        // A core with zero entries, so the skipped terms are exercised too.
        let g = DenseTensor::from_fn(vec![2, 3, 2], |idx| {
            if (idx[0] + idx[1] + idx[2]) % 3 == 0 {
                0.0
            } else {
                1.0 + idx[0] as f64 - 0.5 * idx[1] as f64 + 0.25 * idx[2] as f64
            }
        });
        let factors = [
            Matrix::random(6, 2, 1),
            Matrix::random(5, 3, 2),
            Matrix::random(4, 2, 3),
        ];
        let full = g.ttm_chain(&[&factors[0], &factors[1], &factors[2]], false);
        let mut idx = vec![0; 3];
        for pos in 0..full.len() {
            full.unlinearize(pos, &mut idx);
            let a = reconstruct_at(&g, &factors, &idx);
            assert!((a - full.get(&idx)).abs() < 1e-10, "at {idx:?}");
        }
    }

    #[test]
    fn zeros_and_len() {
        let t = DenseTensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.order(), 3);
        assert_eq!(t.frobenius_norm(), 0.0);
    }

    #[test]
    fn linearize_unlinearize_roundtrip() {
        let t = DenseTensor::zeros(vec![3, 4, 5]);
        let mut idx = vec![0; 3];
        for pos in 0..t.len() {
            t.unlinearize(pos, &mut idx);
            assert_eq!(t.linear_index(&idx), pos);
        }
    }

    #[test]
    fn c_order_last_mode_fastest() {
        let t = DenseTensor::from_fn(vec![2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        // C order: (0,0),(0,1),(0,2),(1,0),(1,1),(1,2)
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set() {
        let mut t = DenseTensor::zeros(vec![2, 2, 2]);
        t.set(&[1, 0, 1], 7.0);
        assert_eq!(t.get(&[1, 0, 1]), 7.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn unfold_mode0_matches_layout() {
        let t = DenseTensor::from_fn(vec![2, 3], |idx| (idx[0] * 3 + idx[1]) as f64);
        let m = t.unfold(0);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn unfold_mode1_3d() {
        // X[i,j,k] = 100 i + 10 j + k over dims [2,2,2].
        let t = DenseTensor::from_fn(vec![2, 2, 2], |idx| {
            (100 * idx[0] + 10 * idx[1] + idx[2]) as f64
        });
        let m = t.unfold(1);
        assert_eq!(m.shape(), (2, 4));
        // Row j=0: entries (i,k) in C order over (i,k): (0,0),(0,1),(1,0),(1,1)
        assert_eq!(m.row(0), &[0.0, 1.0, 100.0, 101.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 110.0, 111.0]);
    }

    #[test]
    fn fold_is_inverse_of_unfold() {
        let t = DenseTensor::from_fn(vec![3, 2, 4], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        });
        for mode in 0..3 {
            let m = t.unfold(mode);
            let back = DenseTensor::fold(&m, mode, t.dims());
            assert_eq!(back, t);
        }
    }

    #[test]
    fn ttm_with_identity_is_noop() {
        let t = DenseTensor::from_fn(vec![2, 3, 2], |idx| (idx[0] + idx[1] + idx[2]) as f64);
        for mode in 0..3 {
            let id = Matrix::identity(t.dims()[mode]);
            let y = t.ttm(mode, &id, false);
            assert!(t.frobenius_distance(&y) < 1e-14);
            let yt = t.ttm(mode, &id, true);
            assert!(t.frobenius_distance(&yt) < 1e-14);
        }
    }

    #[test]
    fn ttm_known_small() {
        // X of dims [2,2]: [[1,2],[3,4]]; U = [[1,1]] (1x2).
        // Y = X ×_0 U  => dims [1,2], y[0,j] = Σ_i x[i,j]*U(0,i) = col sums.
        let x = DenseTensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let u = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = x.ttm(0, &u, false);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn ttm_transpose_matches_explicit() {
        // ×_n Uᵀ with U (d x r) equals ×_n V with V = Uᵀ (r x d).
        let x = DenseTensor::from_fn(vec![3, 4], |idx| (idx[0] * 4 + idx[1]) as f64);
        let u = Matrix::random(3, 2, 5);
        let y1 = x.ttm(0, &u, true);
        let y2 = x.ttm(0, &u.transpose(), false);
        assert!(y1.frobenius_distance(&y2) < 1e-12);
    }

    #[test]
    fn ttm_mode_interchange_commutes() {
        // (X ×_0 A) ×_1 B == (X ×_1 B) ×_0 A for distinct modes.
        let x = DenseTensor::from_fn(vec![3, 4, 2], |idx| {
            ((idx[0] + 1) * (idx[1] + 2) * (idx[2] + 3)) as f64
        });
        let a = Matrix::random(5, 3, 1);
        let b = Matrix::random(6, 4, 2);
        let y1 = x.ttm(0, &a, false).ttm(1, &b, false);
        let y2 = x.ttm(1, &b, false).ttm(0, &a, false);
        assert!(y1.frobenius_distance(&y2) < 1e-10);
    }

    #[test]
    fn ttm_unfold_identity() {
        // unfold_n(X ×_n U) = U · unfold_n(X)
        let x = DenseTensor::from_fn(vec![3, 4, 2], |idx| {
            (idx[0] * 8 + idx[1] * 2 + idx[2]) as f64
        });
        let u = Matrix::random(5, 3, 9);
        let y = x.ttm(0, &u, false);
        let lhs = y.unfold(0);
        let rhs = linalg::blas::gemm(&u, &x.unfold(0));
        assert!(lhs.frobenius_distance(&rhs) < 1e-10);
    }

    #[test]
    fn ttm_chain_reconstruction_shape() {
        let g = DenseTensor::from_fn(vec![2, 3, 2], |idx| (idx[0] + idx[1] + idx[2]) as f64);
        let u1 = Matrix::random(5, 2, 1);
        let u2 = Matrix::random(6, 3, 2);
        let u3 = Matrix::random(7, 2, 3);
        let x = g.ttm_chain(&[&u1, &u2, &u3], false);
        assert_eq!(x.dims(), &[5, 6, 7]);
    }

    #[test]
    fn from_vec_and_from_fn_agree() {
        let dims = vec![2, 2];
        let a = DenseTensor::from_vec(dims.clone(), vec![0.0, 1.0, 2.0, 3.0]);
        let b = DenseTensor::from_fn(dims, |idx| (idx[0] * 2 + idx[1]) as f64);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch() {
        let _ = DenseTensor::from_vec(vec![2, 2], vec![1.0; 3]);
    }
}
