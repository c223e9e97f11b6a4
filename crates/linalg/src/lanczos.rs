//! Matrix-free truncated SVD on the normal matrix `AᵀA`: formed when it is
//! small, iterated on (symmetric Lanczos) when it is not.
//!
//! This is the Rust stand-in for the SLEPc iterative SVD solver the paper
//! uses for the TRSVD step, in the formulation SLEPc ships as its `cross`
//! SVD type: the `R_n` leading singular triplets of `A` are read off the
//! leading eigenpairs of `AᵀA` (or `AAᵀ`, whichever is smaller).  Kaya &
//! Uçar reject the Gram route because `Y_(n) Y_(n)ᵀ` is `I_n × I_n`; the
//! matricized TTMc results are tall and skinny, and the *other* normal
//! matrix is only `Π_{t≠n} R_t` square.  [`lanczos_svd_with`] picks one of
//! three regimes from the operator's shape and the subspace size
//! (`2·rank + 10`) alone — no option selects between them:
//!
//! 1. **Dense fallback** — the subspace would span the short side anyway
//!    (and the operator has at most 4 M entries): materialize it and take
//!    [`crate::svd::dense_svd`].
//! 2. **Formed normal matrix** — a tall operator whose short side is at most
//!    `8·subspace` wide, and which can hand over `AᵀA`
//!    ([`LinearOperator::normal_matrix`]; a parallel dense operator does, in
//!    one syrk-shaped sweep, [`crate::blas::par_gram`]): take
//!    [`crate::eig::symmetric_eig`] of it and keep the leading eigenvectors.
//!    Forming costs about as much as `ncols / 10` applications of the normal
//!    operator where a Krylov run needs two subspaces' worth; the `ncols³`
//!    eigensolve is what bounds the width (`BENCH_kernels.json`, `gram`).
//!    Nothing here depends on the seed, the restart schedule or a
//!    convergence test.
//! 3. **Krylov** — everything else (wider, wide rather than tall, or an
//!    operator known only through its products): symmetric Lanczos with full
//!    reorthogonalization on `x ↦ Aᵀ(A x)`, **never formed**
//!    ([`LinearOperator::apply_normal`]):
//!    * the Krylov basis lives on the **short** side, so full
//!      reorthogonalization costs `O(subspace · min(m, n))` per step and no
//!      long vector other than the one product `t = A x` is ever held;
//!    * one Lanczos step is one application of the normal operator, which a
//!      dense operator serves in a single sweep of its matrix
//!      ([`crate::blas::par_gemv_normal`]);
//!    * the small projected problem is a symmetric tridiagonal matrix, solved
//!      by [`crate::eig`]; a Ritz triplet is accepted when
//!      `β_k·|s_{k,i}| ≤ 10⁻⁸·σ_max·σ_i`.
//!
//! Regimes 2 and 3 end in the same code: the singular vectors of the
//! **long** side are recovered in one block product
//! ([`LinearOperator::apply_many`]) and orthonormalized by
//! [`crate::blas::par_cholesky_qr`], whose column lengths `‖A v_i‖` are the
//! singular values returned.
//!
//! Squaring the spectrum costs accuracy where it does not matter here, and
//! costs the two regimes the same: the eigenvectors (or Ritz vectors) of
//! singular values below `√ε·σ_max` are resolved only as a group, because
//! their squares drown in the rounding of `σ_max²`.  The singular values
//! themselves are measured on the recovered vectors, not read off the
//! squared spectrum, so an exactly rank-deficient operator reports zeros
//! (and zero vectors) rather than `√ε·σ_max`.  HOOI wants the dominant
//! subspace, and the paper reports SLEPc converging in fewer than 5 outer
//! iterations on these strongly decaying spectra; the Krylov path typically
//! needs one pass of `2·rank + 10` steps.

use crate::blas::{axpy, dot, normalize, nrm2, par_cholesky_qr, scal};
use crate::eig::symmetric_eig;
use crate::matrix::Matrix;
use crate::operator::{apply_columnwise, LinearOperator};
use crate::svd::dense_svd;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Most passes over the Krylov loop: the subspace grows by half on each
/// restart, and the best available approximation is returned after this
/// many.
const MAX_RESTARTS: usize = 8;

/// Relative residual tolerance on each requested singular triplet.
const TOL: f64 = 1e-8;

/// Reusable scratch buffers for the Krylov path of [`lanczos_svd_with`] (the
/// two direct regimes neither draw from it nor park anything in it).
///
/// One Lanczos solve needs `O(subspace)` Krylov vectors of length
/// `min(m, n)` and one vector of length `max(m, n)` for the product inside
/// a normal-operator step.  Inside a HOOI loop the same shapes recur every
/// iteration and every solve, so callers that run many TRSVDs (see
/// `hooi::HooiWorkspace`) keep one of these alive and the solver recycles
/// its buffers instead of allocating fresh ones per call.  A workspace never
/// influences the numerical result: every buffer handed out is zero-filled
/// first.
///
/// ```
/// use linalg::lanczos::{lanczos_svd, lanczos_svd_with, LanczosWorkspace};
/// use linalg::operator::DenseOperator;
/// use linalg::Matrix;
///
/// let a = Matrix::random(40, 12, 7);
/// let op = DenseOperator::new(&a);
/// let mut ws = LanczosWorkspace::new();
/// let with_ws = lanczos_svd_with(&op, 3, 42, &mut ws);
/// let fresh = lanczos_svd(&op, 3, 42);
/// assert_eq!(with_ws.singular_values, fresh.singular_values);
/// ```
#[derive(Debug, Default)]
pub struct LanczosWorkspace {
    /// Recycled Krylov vectors (length `min(m, n)` at last use).
    basis: Vec<Vec<f64>>,
    /// The long-side product of a normal-operator step (length `max(m, n)`
    /// at last use).
    product: Vec<f64>,
}

impl LanczosWorkspace {
    /// Creates an empty workspace; buffers are adopted from the first solve.
    pub fn new() -> Self {
        LanczosWorkspace::default()
    }

    fn take_basis_vector(&mut self, len: usize) -> Vec<f64> {
        resized(self.basis.pop().unwrap_or_default(), len)
    }

    /// Total `f64` entries currently parked for reuse (diagnostics).
    pub fn pooled_floats(&self) -> usize {
        self.basis.iter().map(Vec::len).sum::<usize>() + self.product.len()
    }
}

/// `v`, zero-filled at length `len`.
fn resized(mut v: Vec<f64>, len: usize) -> Vec<f64> {
    v.clear();
    v.resize(len, 0.0);
    v
}

/// Widest short side, in Krylov subspaces (`2·rank + 10` columns each), at
/// which a tall operator's normal matrix is formed and solved directly: 240
/// columns at rank 10, 160 at rank 5.  Forming `AᵀA` costs about
/// `ncols / 10` back-to-back fused sweeps of `A` (the `gram` cells of
/// `BENCH_kernels.json`, AVX2 tier, 2 threads: 10 at 100 columns, 15 at
/// 125, 27 at 250, 72 at 500; repeated runs on that noisy host gave 9–11,
/// 9–15, 24–32 and 62–84) against the two subspaces' worth a Krylov run
/// needs (60 at rank 10, 40 at rank 5), at any row count; what caps the
/// width is the `ncols³` eigensolve, which no row count amortizes — at 250
/// columns it costs 17 more sweeps of a 20 000-row matrix, at 500 twice a
/// whole Krylov run.
const FORMED_NORMAL_MAX_SUBSPACES: usize = 8;

/// A truncated SVD `A ≈ U diag(σ) Vᵀ` with `k` columns.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Leading left singular vectors (`nrows × k`).
    pub u: Matrix,
    /// Leading singular values, descending.
    pub singular_values: Vec<f64>,
    /// Leading right singular vectors (`ncols × k`).
    pub v: Matrix,
    /// Number of operator applications (`MxV` plus `MTxV`) performed: two
    /// per Lanczos step plus `k` for the recovery of the long-side vectors
    /// (a fused step or a block recovery still counts the products it
    /// stands for); `ncols + k` when the normal matrix was formed — the
    /// `ncols` products that pass stands for, whatever it cost, plus the
    /// same recovery, so the count is *higher* than a Krylov run's where the
    /// time is lower; `ncols` when the operator was small enough to be
    /// materialized and solved densely, however it was materialized.
    pub operator_applications: usize,
    /// Whether every requested triplet met the residual tolerance (always,
    /// on the two direct paths).
    pub converged: bool,
}

/// Computes the `rank` leading singular triplets of a matrix-free operator;
/// `seed` draws the Krylov loop's random starting vector.
///
/// Allocates fresh scratch buffers; callers running many solves of similar
/// shape should prefer [`lanczos_svd_with`] and a long-lived
/// [`LanczosWorkspace`].
///
/// # Panics
/// Panics if `rank == 0`.
pub fn lanczos_svd(op: &dyn LinearOperator, rank: usize, seed: u64) -> TruncatedSvd {
    lanczos_svd_with(op, rank, seed, &mut LanczosWorkspace::new())
}

/// [`lanczos_svd`] with caller-provided scratch buffers: the Krylov vectors
/// and the long product vector are drawn from (and returned to) `ws` instead
/// of being allocated per call.
///
/// # Panics
/// Panics if `rank == 0`.
pub fn lanczos_svd_with(
    op: &dyn LinearOperator,
    rank: usize,
    seed: u64,
    ws: &mut LanczosWorkspace,
) -> TruncatedSvd {
    assert!(rank > 0, "lanczos_svd: rank must be positive");
    let m = op.nrows();
    let n = op.ncols();
    // The Krylov side: the normal operator acts on R^short.
    let short = m.min(n);
    let rank = rank.min(short.max(1));
    if m == 0 || n == 0 {
        return TruncatedSvd {
            u: Matrix::zeros(m, 0),
            singular_values: vec![],
            v: Matrix::zeros(n, 0),
            operator_applications: 0,
            converged: true,
        };
    }

    let mut subspace = (2 * rank + 10).clamp(rank, short);

    // When the Krylov subspace would cover the whole small dimension anyway,
    // a Krylov method has no advantage.  Fall back to an exact dense SVD
    // obtained by materializing the operator, provided that is affordable.
    // In HOOI this branch only triggers for genuinely small matricized
    // tensors.
    const DENSE_FALLBACK_ENTRIES: usize = 4_000_000;
    if subspace >= short && m.saturating_mul(n) <= DENSE_FALLBACK_ENTRIES {
        let dense = op.to_dense();
        let svd = dense_svd(&dense);
        let take = rank.min(svd.singular_values.len());
        let mut u = Matrix::zeros(m, take);
        let mut v = Matrix::zeros(n, take);
        for j in 0..take {
            u.set_col(j, &svd.u.col(j));
            v.set_col(j, &svd.v.col(j));
        }
        return TruncatedSvd {
            u,
            singular_values: svd.singular_values[..take].to_vec(),
            v,
            operator_applications: n,
            converged: true,
        };
    }

    let tall = m >= n;
    // A tall operator whose short side is a few subspaces wide: form the
    // normal matrix and solve it directly.  Its leading eigenvectors are the
    // short-side singular vectors the Krylov loop below would converge to.
    if tall && n <= FORMED_NORMAL_MAX_SUBSPACES * subspace {
        if let Some(normal) = op.normal_matrix() {
            let eig = symmetric_eig(&normal);
            let short_vectors = Matrix::from_fn(rank, n, |i, j| eig.vectors[(j, i)]);
            return recover_long_side(op, short_vectors, n + rank, true);
        }
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut random_direction =
        |q: &mut [f64]| q.iter_mut().for_each(|x| *x = rng.gen::<f64>() - 0.5);
    let mut product = resized(std::mem::take(&mut ws.product), m.max(n));

    // The Lanczos relation B Q_k = Q_k T_k + β_k q_{k+1} e_kᵀ for the normal
    // operator B: `basis` holds q_1 … q_{k+1}, T_k has `alphas` on its
    // diagonal and `betas[..k-1]` beside it, and `betas[k-1]` is β_k.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(subspace + 1);
    let mut alphas: Vec<f64> = Vec::with_capacity(subspace);
    let mut betas: Vec<f64> = Vec::with_capacity(subspace);
    // Largest ‖B q_j‖ seen: a lower bound on σ_max², the scale below which
    // a new direction is rounding noise.
    let mut scale = 0.0f64;

    let mut q = ws.take_basis_vector(short);
    random_direction(&mut q);
    normalize(&mut q);
    basis.push(q);

    let mut restarts = 0;
    let (ritz, converged) = loop {
        while alphas.len() < subspace {
            let j = alphas.len();
            let mut w = ws.take_basis_vector(short);
            if tall {
                op.apply_normal(&basis[j], &mut product, &mut w);
            } else {
                op.apply_transpose(&basis[j], &mut product);
                op.apply(&product, &mut w);
            }
            scale = scale.max(nrm2(&w));
            alphas.push(dot(&basis[j], &w));
            if j + 1 == short {
                // The basis spans the whole space: the relation is exact.
                betas.push(0.0);
                ws.basis.push(w);
                break;
            }
            // Full reorthogonalization; it also removes α_j q_j + β_{j-1} q_{j-1}.
            reorthogonalize(&mut w, &basis);
            let mut beta = nrm2(&w);
            if beta <= scale * f64::EPSILON * f64::EPSILON {
                // Breakdown: the Krylov space is invariant (a rank-deficient
                // or zero operator, repeated singular values).  Continue in a
                // fresh direction, uncoupled from the space built so far.
                beta = 0.0;
                random_direction(&mut w);
                reorthogonalize(&mut w, &basis);
                normalize(&mut w);
            } else {
                scal(1.0 / beta, &mut w);
            }
            betas.push(beta);
            basis.push(w);
        }

        let k = alphas.len();
        let mut tridiagonal = Matrix::zeros(k, k);
        for i in 0..k {
            tridiagonal[(i, i)] = alphas[i];
            if i + 1 < k {
                tridiagonal[(i, i + 1)] = betas[i];
                tridiagonal[(i + 1, i)] = betas[i];
            }
        }
        let ritz = symmetric_eig(&tridiagonal);

        // Residual of the i-th Ritz pair of B: β_k·|s_{k,i}|.  Its square
        // root is what moves σ_i, hence the bound TOL·σ_max·σ_i — with σ_i
        // floored where its square drops below the rounding of σ_max².
        let sigma = |i: usize| ritz.values[i].max(0.0).sqrt();
        let sigma_max = sigma(0);
        let negligible = f64::EPSILON.sqrt() * sigma_max;
        let converged = (0..rank).all(|i| {
            let residual = betas[k - 1] * ritz.vectors[(k - 1, i)].abs();
            residual <= TOL * sigma_max * sigma(i).max(negligible)
        });

        // Thick restart would be the production choice; for the subspace
        // sizes used here simply enlarging the subspace on restart is
        // sufficient and keeps the code simple.  The basis built so far is
        // kept, so the next pass only expands the factorization from `k`
        // toward the larger bound.
        restarts += 1;
        let enlarged = (subspace + subspace / 2 + 1).min(short);
        if converged || enlarged == subspace || restarts >= MAX_RESTARTS {
            break (ritz, converged);
        }
        subspace = enlarged;
    };

    // Short-side singular vectors: the Ritz vectors Q_k s_i, one per row.
    let k = alphas.len();
    let mut short_vectors = Matrix::zeros(rank, short);
    for i in 0..rank {
        for (j, q) in basis[..k].iter().enumerate() {
            axpy(ritz.vectors[(j, i)], q, short_vectors.row_mut(i));
        }
    }
    ws.basis.append(&mut basis);
    ws.product = product;
    recover_long_side(op, short_vectors, 2 * k + rank, converged)
}

/// The end of every matrix-free solve: given the short-side singular vectors
/// as the rows of `short_vectors`, recovers the long-side ones in one block
/// product and reads the singular values off them.
fn recover_long_side(
    op: &dyn LinearOperator,
    short_vectors: Matrix,
    operator_applications: usize,
    converged: bool,
) -> TruncatedSvd {
    let (m, n) = (op.nrows(), op.ncols());
    let tall = m >= n;
    // Long-side vectors: A v_i = σ_i u_i (or Aᵀ u_i = σ_i v_i), normalized
    // and cleaned of what the short-side vectors' errors mixed in.
    let mut long_vectors = Matrix::zeros(m.max(n), short_vectors.nrows());
    if tall {
        op.apply_many(&short_vectors, &mut long_vectors);
    } else {
        apply_columnwise(
            |x, y| op.apply_transpose(x, y),
            &short_vectors,
            &mut long_vectors,
        );
    }
    // ‖A v_i‖ is √λ_i again, but measured on the vectors returned and
    // without the rounding of σ_max² that an eigenvalue of AᵀA carries.
    let singular_values = par_cholesky_qr(&mut long_vectors);

    let short_vectors = short_vectors.transpose();
    let (u, v) = if tall {
        (long_vectors, short_vectors)
    } else {
        (short_vectors, long_vectors)
    };
    TruncatedSvd {
        u,
        singular_values,
        v,
        operator_applications,
        converged,
    }
}

/// Orthogonalizes `x` against every vector in `basis` (classical Gram-Schmidt
/// with a second pass for numerical safety).
fn reorthogonalize(x: &mut [f64], basis: &[Vec<f64>]) {
    for _ in 0..2 {
        for b in basis {
            let proj = dot(b, x);
            if proj != 0.0 {
                axpy(-proj, b, x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::blas::gemm;
    use crate::operator::DenseOperator;
    use crate::qr::orthogonality_error;
    use crate::svd::dense_svd as reference_svd;

    const SEED: u64 = 0x5eed_1a2c;

    #[test]
    fn lanczos_matches_dense_svd_values() {
        let a = Matrix::random(60, 24, 7);
        let op = DenseOperator::new(&a);
        let reference = reference_svd(&a);
        let result = lanczos_svd(&op, 5, SEED);
        assert_eq!(result.singular_values.len(), 5);
        for i in 0..5 {
            assert!(
                approx_eq(
                    result.singular_values[i],
                    reference.singular_values[i],
                    1e-6
                ),
                "σ_{i}: {} vs {}",
                result.singular_values[i],
                reference.singular_values[i]
            );
        }
    }

    #[test]
    fn lanczos_left_vectors_orthonormal() {
        let a = Matrix::random(80, 30, 11);
        let op = DenseOperator::new(&a);
        let result = lanczos_svd(&op, 6, SEED);
        assert!(orthogonality_error(&result.u) < 1e-6);
        assert!(orthogonality_error(&result.v) < 1e-6);
    }

    #[test]
    fn lanczos_reconstructs_low_rank_matrix() {
        // A = B C with inner dimension 4 has rank exactly 4.
        let b = Matrix::random(50, 4, 3);
        let c = Matrix::random(4, 20, 4);
        let a = gemm(&b, &c);
        let op = DenseOperator::new(&a);
        let result = lanczos_svd(&op, 4, SEED);
        // Reconstruct and compare.
        let mut s = Matrix::zeros(4, 4);
        for i in 0..4 {
            s[(i, i)] = result.singular_values[i];
        }
        let us = gemm(&result.u, &s);
        let rec = gemm(&us, &result.v.transpose());
        assert!(a.frobenius_distance(&rec) < 1e-6 * a.frobenius_norm());
    }

    #[test]
    fn lanczos_detects_rank_deficiency() {
        let b = Matrix::random(30, 2, 5);
        let c = Matrix::random(2, 15, 6);
        let a = gemm(&b, &c); // rank 2
        let op = DenseOperator::new(&a);
        let result = lanczos_svd(&op, 5, SEED);
        // Requested 5 but only 2 nonzero singular values exist.
        assert!(result.singular_values[0] > 1e-6);
        assert!(result.singular_values[1] > 1e-6);
        for &s in result.singular_values.iter().skip(2) {
            assert!(s < 1e-6 * result.singular_values[0]);
        }
    }

    #[test]
    fn lanczos_on_tall_skinny() {
        let a = Matrix::random(500, 8, 21);
        let op = DenseOperator::new(&a);
        let reference = reference_svd(&a);
        let result = lanczos_svd(&op, 3, SEED);
        for i in 0..3 {
            assert!(approx_eq(
                result.singular_values[i],
                reference.singular_values[i],
                1e-6
            ));
        }
    }

    #[test]
    fn lanczos_on_wide_matrix() {
        let a = Matrix::random(10, 300, 22);
        let op = DenseOperator::new(&a);
        let reference = reference_svd(&a);
        let result = lanczos_svd(&op, 4, SEED);
        for i in 0..4 {
            assert!(approx_eq(
                result.singular_values[i],
                reference.singular_values[i],
                1e-6
            ));
        }
    }

    #[test]
    fn lanczos_zero_operator() {
        let a = Matrix::zeros(10, 10);
        let op = DenseOperator::new(&a);
        let result = lanczos_svd(&op, 3, SEED);
        for &s in &result.singular_values {
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn lanczos_rank_capped_by_dimensions() {
        let a = Matrix::random(20, 3, 2);
        let op = DenseOperator::new(&a);
        let result = lanczos_svd(&op, 10, SEED);
        assert!(result.singular_values.len() <= 3);
    }

    #[test]
    fn lanczos_counts_applications() {
        let a = Matrix::random(40, 12, 2);
        let op = DenseOperator::new(&a);
        let result = lanczos_svd(&op, 2, SEED);
        assert!(result.operator_applications > 0);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_and_pools_buffers() {
        let a = Matrix::random(70, 20, 9);
        let op = DenseOperator::new(&a);
        let fresh = lanczos_svd(&op, 4, SEED);

        let mut ws = LanczosWorkspace::new();
        let first = lanczos_svd_with(&op, 4, SEED, &mut ws);
        let pooled_after_first = ws.pooled_floats();
        // The short Krylov vectors and the one long product vector.
        assert!(
            pooled_after_first > 70,
            "buffers should be parked for reuse"
        );
        let second = lanczos_svd_with(&op, 4, SEED, &mut ws);

        // The workspace must never change the numbers.
        assert_eq!(first.singular_values, fresh.singular_values);
        assert_eq!(second.singular_values, fresh.singular_values);
        assert_eq!(first.u, fresh.u);
        assert_eq!(second.u, fresh.u);
        // And the second solve recycles instead of growing the pool.
        assert_eq!(ws.pooled_floats(), pooled_after_first);
    }

    /// `U diag(spectrum) Vᵀ` with random orthonormal `U` (`m × p`) and `V`
    /// (`n × p`).
    fn with_spectrum(m: usize, n: usize, spectrum: &[f64], seed: u64) -> Matrix {
        let p = spectrum.len();
        let mut u = Matrix::random_signed(m, p, seed);
        let mut v = Matrix::random_signed(n, p, seed ^ 0xabcd);
        assert_eq!(crate::qr::orthonormalize_columns(&mut u), p);
        assert_eq!(crate::qr::orthonormalize_columns(&mut v), p);
        for i in 0..m {
            for (x, s) in u.row_mut(i).iter_mut().zip(spectrum) {
                *x *= s;
            }
        }
        crate::blas::gemm_nt(&u, &v)
    }

    /// A dense operator that records whether the solver took its formed
    /// normal matrix, and can withhold it so that the same matrix is solved
    /// by the Krylov loop.
    struct Spy<'a> {
        inner: DenseOperator<'a>,
        expose_normal: bool,
        formed: std::sync::atomic::AtomicBool,
    }

    impl<'a> Spy<'a> {
        fn new(a: &'a Matrix, parallel: bool, expose_normal: bool) -> Self {
            let inner = if parallel {
                DenseOperator::parallel(a)
            } else {
                DenseOperator::new(a)
            };
            Spy {
                inner,
                expose_normal,
                formed: Default::default(),
            }
        }

        fn formed(&self) -> bool {
            self.formed.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl LinearOperator for Spy<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y)
        }
        fn apply_transpose(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply_transpose(x, y)
        }
        fn apply_normal(&self, x: &[f64], t: &mut [f64], y: &mut [f64]) {
            assert!(
                !self.formed(),
                "a Krylov step after the normal matrix was taken"
            );
            self.inner.apply_normal(x, t, y)
        }
        fn apply_many(&self, xs: &Matrix, y: &mut Matrix) {
            self.inner.apply_many(xs, y)
        }
        fn normal_matrix(&self) -> Option<Matrix> {
            let normal = self.inner.normal_matrix().filter(|_| self.expose_normal);
            self.formed
                .store(normal.is_some(), std::sync::atomic::Ordering::Relaxed);
            normal
        }
    }

    /// Whether the solver forms the normal matrix of a parallel dense
    /// `m × n` operator at `rank`: the gate, restated.
    fn within_gate(m: usize, n: usize, rank: usize) -> bool {
        m >= n && n <= 8 * (2 * rank + 10)
    }

    /// The contract of the matrix-free paths on `a`, whose singular values
    /// are `expected` (descending; `numerical_rank` of them nonzero):
    /// singular values within `1e-8·σ_1`, orthonormal vectors for every
    /// nonzero singular value, zero long-side vectors beyond them, nothing
    /// non-finite — from the Krylov loop (sequential operator; parallel
    /// operator with its normal matrix withheld) and, on the near side of
    /// the gate, from the formed normal matrix, each asserted to be the path
    /// that answered.
    fn assert_solver_contract(a: &Matrix, rank: usize, expected: &[f64], numerical_rank: usize) {
        let (m, n) = a.shape();
        assert!(
            m.min(n) > 2 * rank + 10 || m * n > 4_000_000,
            "would take the dense fallback"
        );
        let sigma_1 = expected[0];
        for (parallel, expose_normal) in [(false, true), (true, false), (true, true)] {
            let op = Spy::new(a, parallel, expose_normal);
            let svd = lanczos_svd(&op, rank, SEED);
            let formed = parallel && expose_normal && within_gate(m, n, rank);
            assert_eq!(op.formed(), formed, "{m}x{n}, rank {rank}");
            if formed {
                assert_eq!(svd.operator_applications, n + rank);
                assert!(svd.converged);
            }
            assert_eq!(svd.u.shape(), (m, rank));
            assert_eq!(svd.v.shape(), (n, rank));
            assert_eq!(svd.singular_values.len(), rank);
            assert!(svd.u.as_slice().iter().all(|x| x.is_finite()));
            assert!(svd.v.as_slice().iter().all(|x| x.is_finite()));
            for (i, (got, want)) in svd.singular_values.iter().zip(expected).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-8 * sigma_1,
                    "σ_{i}: {got:e} vs {want:e} ({m}x{n}, rank {rank}, formed {formed})"
                );
            }
            let kept = rank.min(numerical_rank);
            let (long, short) = if m >= n {
                (&svd.u, &svd.v)
            } else {
                (&svd.v, &svd.u)
            };
            assert!(orthogonality_error(&short.take_columns(kept)) < 1e-10);
            assert!(orthogonality_error(&long.take_columns(kept)) < 1e-10);
            for j in kept..rank {
                assert!(long.col(j).iter().all(|&x| x == 0.0), "column {j}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        // Graded spectra from flat (`decades = 0`: one repeated singular
        // value, so the Krylov space breaks down at once) to
        // `σ_1/σ_rank = 1e6`, tall (both paths) and wide (Krylov only).
        #[test]
        fn matrix_free_paths_match_dense_svd_on_graded_spectra(
            short in 25usize..60,
            extra in 0usize..300,
            rank in 1usize..6,
            decades in 0i32..7,
            wide in 0usize..2,
            seed in 0u64..1000,
        ) {
            let step = f64::from(decades) / (rank.max(2) - 1) as f64;
            let spectrum: Vec<f64> = (0..short)
                .map(|i| 10f64.powf(-step * i as f64).max(1e-9))
                .collect();
            let (m, n) = if wide == 1 { (short, short + extra) } else { (short + extra, short) };
            let a = with_spectrum(m, n, &spectrum, seed);
            assert_solver_contract(&a, rank, &reference_svd(&a).singular_values, short);
        }
    }

    #[test]
    fn matrix_free_paths_on_exactly_rank_deficient_operators() {
        for (m, n) in [(400, 40), (40, 400)] {
            for numerical_rank in [1usize, 3] {
                // Against the constructed spectrum: the dense SVD reports a
                // zero singular value as √ε·σ_1.
                let mut spectrum: Vec<f64> =
                    (0..numerical_rank).map(|i| 2.0 - i as f64 * 0.5).collect();
                let a = with_spectrum(m, n, &spectrum, 9);
                spectrum.resize(5, 0.0);
                assert_solver_contract(&a, 5, &spectrum, numerical_rank);
            }
        }
    }

    #[test]
    fn matrix_free_paths_on_zero_single_row_and_single_column_operators() {
        assert_solver_contract(&Matrix::zeros(300, 40), 3, &[0.0; 3], 0);
        assert_solver_contract(&Matrix::zeros(40, 300), 3, &[0.0; 3], 0);
        // Too large for the dense fallback, so the one-dimensional Krylov
        // space — or the 1 × 1 normal matrix — is what answers.
        let long = 4_000_001;
        for a in [
            Matrix::random_signed(1, long, 3),
            Matrix::random_signed(long, 1, 4),
        ] {
            assert_solver_contract(&a, 1, &[a.frobenius_norm()], 1);
        }
    }

    #[test]
    fn the_gate_reads_the_shapes_alone_and_both_sides_honour_the_contract() {
        // 100 columns: within 8 subspaces at rank 2 (8·14), beyond them at
        // rank 1 (8·12) — `assert_solver_contract` checks which path ran.
        let spectrum: Vec<f64> = (0..100)
            .map(|i| 10f64.powf(-0.5 * i as f64).max(1e-9))
            .collect();
        let a = with_spectrum(600, 100, &spectrum, 17);
        assert!(within_gate(600, 100, 2) && !within_gate(600, 100, 1));
        assert_solver_contract(&a, 2, &spectrum, 100);
        assert_solver_contract(&a, 1, &spectrum, 100);
    }

    #[test]
    fn formed_normal_path_ignores_the_seed_and_the_workspace() {
        let a = Matrix::random_signed(900, 60, 31);
        let op = DenseOperator::parallel(&a);
        let solve = |seed: u64, ws: &mut LanczosWorkspace| {
            let svd = lanczos_svd_with(&op, 4, seed, ws);
            assert_eq!(svd.operator_applications, 60 + 4);
            (svd.u, svd.singular_values, svd.v)
        };
        let cold = solve(1, &mut LanczosWorkspace::new());
        // Warm: a Krylov solve (wide operator) has parked its buffers.
        let mut ws = LanczosWorkspace::new();
        let wide = Matrix::random_signed(30, 500, 2);
        lanczos_svd_with(&DenseOperator::parallel(&wide), 4, SEED, &mut ws);
        let parked = ws.pooled_floats();
        assert!(parked > 0);
        assert_eq!(solve(2, &mut ws), cold);
        // Nothing drawn from the workspace, nothing parked in it.
        assert_eq!(ws.pooled_floats(), parked);
    }

    #[test]
    #[should_panic]
    fn lanczos_rejects_zero_rank() {
        let a = Matrix::random(5, 5, 1);
        let op = DenseOperator::new(&a);
        let _ = lanczos_svd(&op, 0, SEED);
    }
}
