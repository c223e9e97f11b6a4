//! Dense linear algebra substrate for HyperTensor-RS.
//!
//! The sparse Tucker/HOOI algorithms of Kaya & Uçar (ICPP 2016) need a small
//! but complete dense linear-algebra toolkit:
//!
//! * a row-major dense [`Matrix`] type with BLAS-like kernels ([`blas`]),
//! * Gram-Schmidt orthonormalization ([`qr`]) of initial factor matrices,
//! * a symmetric eigensolver ([`eig`]) for small Gram matrices,
//! * a dense SVD ([`svd`]) for small projected problems,
//! * a matrix-free truncated SVD ([`lanczos`]) built on the
//!   [`LinearOperator`] abstraction.  This is the
//!   Rust stand-in for the PETSc/SLEPc iterative TRSVD solver the paper uses:
//!   only matrix-vector (`MxV`) and matrix-transpose-vector (`MTxV`) products
//!   are required; the `I_n × I_n` Gram matrix the paper rejects is never
//!   assembled, and the small `Π R_t`-square one only while it is cheaper
//!   than iterating.
//!
//! All kernels are deterministic for a fixed seed and have both sequential
//! and rayon-parallel paths where it matters.

pub mod blas;
pub mod eig;
pub mod lanczos;
pub mod matrix;
pub mod operator;
pub mod qr;
pub mod simd;
pub mod svd;

pub use lanczos::{lanczos_svd, TruncatedSvd};
pub use matrix::Matrix;
pub use operator::{DenseOperator, LinearOperator};
pub use qr::orthonormalize_columns;
pub use simd::KernelIsa;
pub use svd::dense_svd;

/// Returns `true` when `a` and `b` agree to within `tol` in absolute or
/// relative terms, whichever is looser.  Used by tests across the workspace.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-10));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-12), 1e-10));
        assert!(!approx_eq(1e12, 1.01e12, 1e-10));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-15));
        assert!(approx_eq(0.0, 1e-16, 1e-15));
    }
}
