//! Symmetric eigenvalue decomposition for small dense matrices.
//!
//! Used in two places:
//!
//! * the TRSVD solver ([`crate::lanczos`]): the formed normal matrix
//!   `Y_(n)ᵀ Y_(n)` (`Π R_t` square) of a tall operator, and the
//!   tridiagonal projected problem of the Krylov path, and
//! * Gram-matrix based SVD ([`crate::svd`]) of genuinely small matricized
//!   tensors — the dense fallback and reference backend.
//!
//! The implementation is the classical two-phase approach: Householder
//! tridiagonalization (`tred2`) followed by the implicit-shift QL iteration
//! (`tql2`), both adapted from the EISPACK formulation.  Eigenvalues are
//! returned in descending order together with their eigenvectors, which is
//! the order HOOI needs (leading singular vectors).

use crate::matrix::Matrix;

/// Eigen decomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymmetricEig {
    /// Eigenvalues, sorted in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, in the order of `values`.
    pub vectors: Matrix,
}

/// Computes all eigenvalues and eigenvectors of a symmetric matrix.
///
/// # Panics
/// Panics if `a` is not square.  The strictly-upper triangle is ignored; the
/// matrix is assumed symmetric.
pub fn symmetric_eig(a: &Matrix) -> SymmetricEig {
    assert_eq!(a.nrows(), a.ncols(), "symmetric_eig: matrix must be square");
    let n = a.nrows();
    if n == 0 {
        return SymmetricEig {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        };
    }
    // z holds the accumulating orthogonal transformation, starting from A.
    let mut z = a.clone();
    // Force symmetry from the lower triangle to guard against tiny asymmetry.
    for i in 0..n {
        for j in 0..i {
            let v = z[(i, j)];
            z[(j, i)] = v;
        }
    }
    let mut d = vec![0.0; n]; // diagonal of tridiagonal form
    let mut e = vec![0.0; n]; // subdiagonal of tridiagonal form

    tred2_reduce(&mut z, &mut d, &mut e);
    // From here on the transformation is held transposed: accumulating a
    // reflector or a rotation updates *columns* of `z`, which are
    // contiguous rows of `zt`.  Same operations in the same order.
    let mut zt = z.transpose();
    tred2_accumulate(&mut zt, &mut d);
    tql2(&mut zt, &mut d, &mut e);

    // Sort eigenpairs in descending order of eigenvalue (a total order, so
    // a non-finite input sorts instead of panicking).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (newcol, &oldcol) in order.iter().enumerate() {
        vectors.set_col(newcol, zt.row(oldcol));
    }
    SymmetricEig { values, vectors }
}

/// Householder reduction of a real symmetric matrix to tridiagonal form.
/// On output `d` holds the reflectors' norms, `e` the subdiagonal (with
/// `e[0] = 0`) and `z` the reflectors for [`tred2_accumulate`].
fn tred2_reduce(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        let mut scale = 0.0;
        if l > 0 {
            for k in 0..=l {
                scale += z[(i, k)].abs();
            }
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let mut f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                f = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    f += e[j] * z[(i, j)];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        z[(j, k)] -= f * e[k] + g * z[(i, k)];
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
}

/// Accumulates the reflectors of [`tred2_reduce`] into the orthogonal
/// transformation, on the transposed matrix `zt`; on output `zt` is that
/// transformation (transposed) and `d` the diagonal of the tridiagonal form.
fn tred2_accumulate(zt: &mut Matrix, d: &mut [f64]) {
    let n = d.len();
    let mut reflector = vec![0.0; n];
    for i in 0..n {
        // Columns 0..i are already transformed.
        if d[i] != 0.0 {
            for (k, u) in reflector[..i].iter_mut().enumerate() {
                *u = zt[(k, i)];
            }
            let (done, rest) = zt.as_mut_slice().split_at_mut(i * n);
            let scaled = &rest[..i];
            for column in done.chunks_exact_mut(n) {
                let column = &mut column[..i];
                let mut g = 0.0;
                for (u, c) in reflector[..i].iter().zip(column.iter()) {
                    g += u * c;
                }
                for (c, s) in column.iter_mut().zip(scaled) {
                    *c -= g * s;
                }
            }
        }
        d[i] = zt[(i, i)];
        zt[(i, i)] = 1.0;
        for j in 0..i {
            zt[(j, i)] = 0.0;
            zt[(i, j)] = 0.0;
        }
    }
}

/// QL iterations per eigenvalue under the strict, neighbour-relative
/// splitting test of [`tql2`], before the whole-matrix test joins it.
const STRICT_ITERATIONS: usize = 50;

/// QL iterations per eigenvalue after [`STRICT_ITERATIONS`], under the
/// whole-matrix test, before [`tql2`] gives up.
const RELAXED_ITERATIONS: usize = 30;

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix, with
/// accumulation of the rotations into the transposed transformation `zt`:
/// each one mixes two adjacent rows.
///
/// A subdiagonal entry splits the matrix when it is negligible next to its
/// two diagonal neighbours.  That test asks a block of rounding-level
/// entries — the zero eigenvalues of a rank-deficient normal matrix — to
/// resolve to relative precision, which the iteration need not reach: such
/// a block can cycle well past [`STRICT_ITERATIONS`].  From there on an
/// entry also splits when it is negligible next to the whole matrix
/// (EISPACK's test, which moves no eigenvalue by more than `ε·‖T‖`).  Every
/// eigenvalue the strict test resolves in time keeps its bits.
fn tql2(zt: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    if n <= 1 {
        return;
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let norm = (0..n).fold(0.0f64, |m, i| m.max(d[i].abs() + e[i].abs()));

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small subdiagonal element to split the matrix.
            let relaxed = iter >= STRICT_ITERATIONS;
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                let small = e[m].abs();
                if small <= f64::EPSILON * dd || (relaxed && small <= f64::EPSILON * norm) {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(
                iter <= STRICT_ITERATIONS + RELAXED_ITERATIONS,
                "tql2: too many iterations (no convergence)"
            );

            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the transformation.
                let (lower, upper) = zt.as_mut_slice().split_at_mut((i + 1) * n);
                for (zi, zi1) in lower[i * n..].iter_mut().zip(&mut upper[..n]) {
                    f = *zi1;
                    *zi1 = s * *zi + c * f;
                    *zi = c * *zi - s * f;
                }
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, gram};
    use crate::qr::orthogonality_error;

    fn reconstruct(eig: &SymmetricEig) -> Matrix {
        let n = eig.values.len();
        let mut lambda = Matrix::zeros(n, n);
        for i in 0..n {
            lambda[(i, i)] = eig.values[i];
        }
        let vl = gemm(&eig.vectors, &lambda);
        gemm(&vl, &eig.vectors.transpose())
    }

    #[test]
    fn eig_diagonal_matrix() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let eig = symmetric_eig(&a);
        assert!((eig.values[0] - 3.0).abs() < 1e-12);
        assert!((eig.values[1] - 2.0).abs() < 1e-12);
        assert!((eig.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eig_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let eig = symmetric_eig(&a);
        assert!((eig.values[0] - 3.0).abs() < 1e-12);
        assert!((eig.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eig_reconstructs_random_gram() {
        let b = Matrix::random(12, 6, 17);
        let a = gram(&b); // symmetric positive semidefinite
        let eig = symmetric_eig(&a);
        let rec = reconstruct(&eig);
        assert!(a.frobenius_distance(&rec) < 1e-8 * a.frobenius_norm().max(1.0));
    }

    #[test]
    fn eig_vectors_are_orthonormal() {
        let b = Matrix::random(9, 9, 23);
        let a = gram(&b);
        let eig = symmetric_eig(&a);
        assert!(orthogonality_error(&eig.vectors) < 1e-9);
    }

    #[test]
    fn eig_values_descending() {
        let b = Matrix::random(15, 8, 5);
        let a = gram(&b);
        let eig = symmetric_eig(&a);
        for w in eig.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn eig_psd_values_nonnegative() {
        let b = Matrix::random(10, 4, 31);
        let a = gram(&b);
        let eig = symmetric_eig(&a);
        for &v in &eig.values {
            assert!(v >= -1e-9);
        }
    }

    #[test]
    fn eig_empty_and_single() {
        let e = symmetric_eig(&Matrix::zeros(0, 0));
        assert!(e.values.is_empty());
        let mut one = Matrix::zeros(1, 1);
        one[(0, 0)] = 42.0;
        let e = symmetric_eig(&one);
        assert_eq!(e.values, vec![42.0]);
        assert!((e.vectors[(0, 0)].abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn eig_trace_preserved() {
        let b = Matrix::random(11, 11, 3);
        let a = gram(&b);
        let trace: f64 = (0..11).map(|i| a[(i, i)]).sum();
        let eig = symmetric_eig(&a);
        let sum: f64 = eig.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }
}
