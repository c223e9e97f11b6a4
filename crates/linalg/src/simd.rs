//! Runtime-dispatched SIMD kernels for the workspace's f64 hot loops.
//!
//! Every flop of the nonzero-based TTMc (and most of the dense linear
//! algebra behind TRSVD) funnels through a handful of tiny inner bodies:
//! axpy-style scaled accumulations, scaled outer products of factor rows,
//! and row-major matrix–vector products.  This module implements each of
//! them twice —
//!
//! * **scalar**: the portable baseline, bit-for-bit the kernels the
//!   workspace has always run;
//! * **AVX2** (`f64×4` lanes via [`core::arch::x86_64`]): *separate*
//!   multiply and add instructions on independent output elements — never a
//!   fused multiply–add, which rounds once instead of twice — so every
//!   per-element rounding step is identical to the scalar code and the
//!   results are **bit-identical**: all bit-identity contracts
//!   (index-layout equality, executor replay, cross-thread determinism)
//!   hold with the vector path active.
//!
//! Dispatch is by *value*: callers resolve a [`KernelIsa`] once (per plan,
//! per bench cell, …) and pass it down; the kernels branch on it per call,
//! which is perfectly predicted in the hot loops.  Availability is
//! re-checked inside the dispatch (a cached-atomic load via
//! [`is_x86_feature_detected!`]), so even an unresolved or mismatched ISA
//! value can never execute an unsupported instruction — it falls back to
//! scalar.  Off x86_64 the vector arms compile away entirely.
//!
//! The `TUCKER_KERNEL` environment variable (`scalar` | `avx2`)
//! overrides every [`KernelIsa::resolve`] call in the process — the forcing
//! knob the equivalence tests and CI use.  Unrecognized values are ignored.
//!
//! Horizontal reductions (`dot`, `nrm2`) are deliberately *not* vectorized:
//! summing lanes reassociates the additions.
//! [`gemv`] sidesteps this by putting four *rows* in a vector — each lane
//! accumulates one row's dot product in exact scalar order.

use std::ops::Range;
use std::sync::OnceLock;

/// Which instruction set the f64 kernels run.
///
/// `Auto` (the default) resolves at plan/dispatch time to the fastest tier
/// the host supports — [`Avx2`](KernelIsa::Avx2) on AVX2-capable x86_64,
/// [`Scalar`](KernelIsa::Scalar) elsewhere.  Both compute the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelIsa {
    /// Resolve to the fastest ISA the host supports.
    #[default]
    Auto,
    /// Portable scalar kernels — the reference arithmetic.
    Scalar,
    /// AVX2 `f64×4` lanes with separate mul+add: bit-identical to scalar.
    Avx2,
}

impl KernelIsa {
    /// Parses a `TUCKER_KERNEL`-style name (case-insensitive); `None` for
    /// anything unrecognized.
    pub fn parse(s: &str) -> Option<KernelIsa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelIsa::Auto),
            "scalar" => Some(KernelIsa::Scalar),
            "avx2" => Some(KernelIsa::Avx2),
            _ => None,
        }
    }

    /// The forced ISA from the `TUCKER_KERNEL` environment variable, if set
    /// to a recognized value.
    pub fn from_env() -> Option<KernelIsa> {
        std::env::var("TUCKER_KERNEL")
            .ok()
            .and_then(|s| KernelIsa::parse(&s))
    }

    /// Whether this host can execute the ISA.  `Auto` and `Scalar` are
    /// always supported.
    pub fn supported(self) -> bool {
        match self {
            KernelIsa::Auto | KernelIsa::Scalar => true,
            KernelIsa::Avx2 => avx2_available(),
        }
    }

    /// Resolves a requested ISA to the concrete one the kernels will run:
    /// the `TUCKER_KERNEL` environment override (which forces *every*
    /// resolution in the process, for testing) takes precedence, then an
    /// `Auto` or `Avx2` request becomes `Avx2` where the hardware has it and
    /// `Scalar` elsewhere.
    ///
    /// The result is always `Scalar` or `Avx2`.
    pub fn resolve(self) -> KernelIsa {
        match KernelIsa::from_env().unwrap_or(self) {
            KernelIsa::Auto | KernelIsa::Avx2 if avx2_available() => KernelIsa::Avx2,
            _ => KernelIsa::Scalar,
        }
    }

    /// The process-wide resolved default: [`KernelIsa::Auto`] resolved once
    /// (environment override included) and cached.  Entry points that take
    /// no explicit ISA — the plain BLAS wrappers, the one-shot kron helpers
    /// — run at this tier.
    pub fn resolved_default() -> KernelIsa {
        static RESOLVED: OnceLock<KernelIsa> = OnceLock::new();
        *RESOLVED.get_or_init(|| KernelIsa::Auto.resolve())
    }

    /// Stable lowercase name, matching what [`KernelIsa::parse`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelIsa::Auto => "auto",
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An `f64` buffer whose first element sits on a 64-byte boundary.
///
/// The vector kernels use unaligned load/store instructions, which run at
/// full speed **when the address happens to be 32-byte aligned** and pay a
/// cache-line-split penalty (roughly half throughput on the accumulate
/// stream) when it does not.  `Vec<f64>` only guarantees 8-byte alignment,
/// so long-lived accumulators that feed [`axpy`]/[`scaled_outer2`]/
/// [`scaled_outer3`] — per-thread TTMc scratch, microbenchmark buffers —
/// should come from here instead.  Alignment never changes results: every
/// kernel computes the same bits at any address, only slower.
///
/// Implemented safely by over-allocating one cache line and offsetting;
/// dereferences to `[f64]` of exactly the requested length.
pub struct AlignedVec {
    buf: Vec<f64>,
    off: usize,
    len: usize,
}

impl AlignedVec {
    /// A zero-filled buffer of `len` elements starting on a 64-byte
    /// boundary.
    pub fn zeros(len: usize) -> AlignedVec {
        let buf = vec![0.0f64; len + 8];
        let off = (buf.as_ptr() as usize).wrapping_neg() % 64 / std::mem::size_of::<f64>();
        AlignedVec { buf, off, len }
    }
}

impl std::ops::Deref for AlignedVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl std::ops::DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// Whether the host executes AVX2 (always `false` off x86_64).  The
/// detection result is cached by the standard library, so calling this in a
/// hot dispatch is a relaxed atomic load.
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the host executes AVX2 (always `false` off x86_64).
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}

/// Whether the host executes 256-bit FMA (requires AVX2 too; always
/// `false` off x86_64).  No kernel here fuses — a fused multiply–add rounds
/// differently from the scalar reference — so this is host metadata only,
/// recorded by the bench harnesses.
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Whether the host executes 256-bit FMA (always `false` off x86_64).
#[cfg(not(target_arch = "x86_64"))]
pub fn fma_available() -> bool {
    false
}

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

/// `y += alpha · x`, element-wise.  Bit-identical across `Scalar` and
/// `Avx2`.
///
/// Callers should pass a [resolved](KernelIsa::resolve) ISA; an unresolved
/// `Auto` runs scalar, and a vector ISA the host lacks falls back to
/// scalar.
#[inline]
pub fn axpy(isa: KernelIsa, alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::axpy_avx2(alpha, x, y) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    axpy_scalar(alpha, x, y);
}

/// `x *= alpha`, element-wise.  A pure multiply has one rounding however it
/// is issued, so both ISAs produce identical bits.
#[inline]
pub fn scal(isa: KernelIsa, alpha: f64, x: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::scal_avx2(alpha, x) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// `out += x · (u ⊗ v)`: the per-nonzero body of the order-3 TTMc kernels
/// and of `sptensor::kron::accumulate_scaled_kron`'s two-factor branch.
/// `out` is row-major `u.len() × v.len()`.
///
/// Contract (all ISAs): the coefficient `x·uᵢ` is hoisted per `u` entry and
/// a **zero coefficient skips its row entirely**.  The skip is bit-
/// transparent for finite inputs — adding `+0.0·vⱼ = ±0.0` to an
/// accumulator can only change it when the accumulator is `-0.0` (yielding
/// `+0.0`), and accumulators here start at `+0.0` and can never round to
/// `-0.0` — but it would drop NaNs from `±∞`/NaN factor entries, which the
/// arity-3 kernels (no skip) would propagate.  See
/// [`scaled_outer3`] for the asymmetry and the regression test in
/// `tests/simd_kernels.rs`.
#[inline]
pub fn scaled_outer2(isa: KernelIsa, x: f64, u: &[f64], v: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), u.len() * v.len());
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::scaled_outer2_avx2(x, u, v, out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    scaled_outer2_scalar(x, u, v, out);
}

/// `out += x · (u ⊗ v ⊗ w)`: the per-nonzero body of the order-4 TTMc
/// kernels.  `out` is row-major `u.len()·v.len() × w.len()`.
///
/// Contract (all ISAs): each element computes `t = (uᵢ·vⱼ)·w_k` and then
/// `acc += x·t` — `x` multiplies **last**, and there is **no**
/// zero-coefficient skip, matching the materialized
/// `kron_rows` + axpy path (`sptensor::kron`) bit for bit (the kron
/// expansion seeds with `1.0·uᵢ`, which is bitwise `uᵢ`).
#[inline]
pub fn scaled_outer3(isa: KernelIsa, x: f64, u: &[f64], v: &[f64], w: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), u.len() * v.len() * w.len());
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::scaled_outer3_avx2(x, u, v, w, out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    scaled_outer3_scalar(x, u, v, w, out);
}

/// `out = Σ_k x_k·(u_k ⊗ v_k)` over `members`, where `member(k)` returns
/// `(x_k, u_k, v_k)`: one dimension-tree entry's row summed over its member
/// group.  `out` is row-major `rows × cols`; every `u_k` has `rows` entries
/// and every `v_k` has `cols`.
///
/// Bits (all ISAs): each output element is one add chain from `+0.0` in
/// member order, each term `(x_k·u_k[i])·v_k[j]` with the multiplies and the
/// add rounded separately — the same bits as zeroing `out` and calling
/// [`scaled_outer2`] once per member (its zero-coefficient skip is invisible
/// for finite input, see there).  The scalar tier *is* that loop, and so is
/// the AVX2 tier for a group of one member, where it measured faster.  The
/// AVX2 tier sums a larger group in register tiles of up to 12 accumulator
/// vectors held across every 64 members, so each element is stored once
/// per chunk instead of once per member; tail lanes are masked, not padded.
///
/// # Panics
/// Panics if `out` does not hold `rows × cols` elements or a member's rows
/// do not match that shape.
#[inline]
pub fn scaled_outer2_group<'a, F>(
    isa: KernelIsa,
    members: Range<usize>,
    (rows, cols): (usize, usize),
    member: F,
    out: &mut [f64],
) where
    F: Fn(usize) -> (f64, &'a [f64], &'a [f64]),
{
    assert_eq!(
        rows.checked_mul(cols),
        Some(out.len()),
        "the output is not rows × cols"
    );
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() && members.len() > 1 && !out.is_empty() {
        // SAFETY: AVX2 availability and the member count were just checked,
        // and the shape above.
        unsafe { x86::scaled_outer2_group_avx2(members, (rows, cols), member, out) };
        return;
    }
    out.fill(0.0);
    for k in members {
        let (x, u, v) = member(k);
        assert!(
            u.len() == rows && v.len() == cols,
            "member rows do not match the output"
        );
        scaled_outer2(isa, x, u, v, out);
    }
}

/// `out = Σ_k x_k·u_k` over `members`, where `member(k)` returns
/// `(x_k, u_k)` and every `u_k` has `out.len()` entries: the arity-1 twin of
/// [`scaled_outer2_group`], with the same bit contract against zeroing `out`
/// and calling [`axpy`] once per member, and the same paths; its AVX2 group
/// path is that kernel's with a one-entry `u` of `1.0`.
///
/// # Panics
/// Panics if a member's row does not match `out`'s length.
#[inline]
pub fn axpy_group<'a, F>(isa: KernelIsa, members: Range<usize>, member: F, out: &mut [f64])
where
    F: Fn(usize) -> (f64, &'a [f64]),
{
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() && members.len() > 1 && !out.is_empty() {
        // `x·u` is bitwise `(x·1)·u`: the arity-2 body with a one-entry `u`.
        let one: &[f64] = &[1.0];
        let member = |k| {
            let (x, u) = member(k);
            (x, one, u)
        };
        // SAFETY: AVX2 availability and the member count were just checked;
        // `out` is one row.
        unsafe { x86::scaled_outer2_group_avx2(members, (1, out.len()), member, out) };
        return;
    }
    out.fill(0.0);
    for k in members {
        let (x, u) = member(k);
        assert_eq!(u.len(), out.len(), "member row does not match the output");
        axpy(isa, x, u, out);
    }
}

/// Row-major matrix–vector product `y = A·x` (`A` is `rows × cols`, stored
/// row-major in `a`).
///
/// The vector tier puts four *rows* in a vector — lane `l` accumulates row
/// `r+l`'s dot product sequentially over the columns, starting from `0.0`,
/// which is exactly the scalar `dot` order — so `Avx2` stays bit-identical
/// to `Scalar` without any horizontal reduction.
#[inline]
pub fn gemv(isa: KernelIsa, a: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::gemv_avx2(a, rows, cols, x, y) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    for r in 0..rows {
        y[r] = dot_scalar(&a[r * cols..(r + 1) * cols], x);
    }
}

/// Columns of one register tile of [`gram_accumulate`] (two `f64×4`
/// vectors); a tile is [`GRAM_TILE_ROWS`] × this.
const GRAM_TILE_COLS: usize = 8;
/// Rows of one register tile of [`gram_accumulate`].
const GRAM_TILE_ROWS: usize = 4;

/// `g += blockᵀ·block` on the upper triangle: `block` is row-major with
/// `cols` columns, `g` row-major `cols × cols`, and every entry `(p, q)`
/// with `p ≤ q` performs `g[p][q] = g[p][q] + block[i][p]·block[i][q]` once
/// per row `i`, in row order, multiply and add rounded separately — one add
/// chain per entry, so both tiers return the same bits as the plain triple
/// loop.  The rows are walked once per 4 × 8 tile of `g`, whose eight
/// vectors stay in registers across the block: callers pass blocks that fit
/// L1.  Entries below the diagonal are unspecified (those inside a diagonal
/// tile are accumulated too, the rest are left alone).
#[inline]
pub fn gram_accumulate(isa: KernelIsa, block: &[f64], cols: usize, g: &mut [f64]) {
    assert!(cols > 0 && g.len() == cols * cols && block.len().is_multiple_of(cols));
    #[cfg(target_arch = "x86_64")]
    let avx2 = isa == KernelIsa::Avx2 && avx2_available();
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    for p0 in (0..cols).step_by(GRAM_TILE_ROWS) {
        let ph = GRAM_TILE_ROWS.min(cols - p0);
        for q0 in (p0..cols).step_by(GRAM_TILE_COLS) {
            let qw = GRAM_TILE_COLS.min(cols - q0);
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: AVX2 availability was just checked; the tile
                // asserts that it lies inside `g` and every row of `block`.
                unsafe { x86::gram_tile_avx2(block, cols, (p0, ph), (q0, qw), g) };
                continue;
            }
            gram_tile_scalar(block, cols, (p0, ph), (q0, qw), g);
        }
    }
}

/// `C = A Bᵀ` on a block of rows: `a` is row-major with `cols` columns, `b`
/// row-major `k × cols`, `c` row-major with `k` columns, and entry `(i, j)`
/// is `dot(a.row(i), b.row(j))` in the scalar order.  The vector tier puts
/// the `k` output columns in the lanes — it broadcasts `a[i][q]` against row
/// `q` of a transposed copy of `b` — so it never reduces horizontally and
/// returns the same bits.
#[inline]
pub fn gemm_nt_rows(isa: KernelIsa, a: &[f64], cols: usize, b: &[f64], k: usize, c: &mut [f64]) {
    debug_assert!(cols > 0 && k > 0);
    debug_assert_eq!(b.len(), k * cols);
    debug_assert_eq!(a.len() * k, c.len() * cols);
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && avx2_available() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::gemm_nt_rows_avx2(a, cols, b, k, c) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    for (a_row, c_row) in a.chunks_exact(cols).zip(c.chunks_exact_mut(k)) {
        for (c_ij, b_row) in c_row.iter_mut().zip(b.chunks_exact(cols)) {
            *c_ij = dot_scalar(a_row, b_row);
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar reference bodies
// ---------------------------------------------------------------------------

/// The scalar axpy the workspace has always run: one multiply and one add
/// per element, in index order.
fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Sequential-fold dot product, matching `Iterator::sum`'s order (the body
/// of `linalg::blas::dot`).
fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// One tile of [`gram_accumulate`]: rows `p0..p0+ph`, columns `q0..q0+qw` of
/// `g`, accumulated in a local array over the rows of `block`.
fn gram_tile_scalar(
    block: &[f64],
    cols: usize,
    (p0, ph): (usize, usize),
    (q0, qw): (usize, usize),
    g: &mut [f64],
) {
    let mut acc = [[0.0f64; GRAM_TILE_COLS]; GRAM_TILE_ROWS];
    for (p, acc_row) in acc[..ph].iter_mut().enumerate() {
        acc_row[..qw].copy_from_slice(&g[(p0 + p) * cols + q0..][..qw]);
    }
    for row in block.chunks_exact(cols) {
        let b = &row[q0..q0 + qw];
        for (acc_row, &a) in acc.iter_mut().zip(&row[p0..p0 + ph]) {
            for (s, &bq) in acc_row.iter_mut().zip(b) {
                *s += a * bq;
            }
        }
    }
    for (p, acc_row) in acc[..ph].iter().enumerate() {
        g[(p0 + p) * cols + q0..][..qw].copy_from_slice(&acc_row[..qw]);
    }
}

/// Scalar [`scaled_outer2`]: coefficient hoisted per `u` entry with the
/// zero skip, inner axpy unrolled by four (per-element ops unchanged, so
/// the unroll is bit-identical to a plain loop).
fn scaled_outer2_scalar(x: f64, u: &[f64], v: &[f64], out: &mut [f64]) {
    let rb = v.len();
    for (i, &ui) in u.iter().enumerate() {
        let coeff = x * ui;
        if coeff == 0.0 {
            continue;
        }
        let acc = &mut out[i * rb..(i + 1) * rb];
        let mut acc_chunks = acc.chunks_exact_mut(4);
        let mut v_chunks = v.chunks_exact(4);
        for (a4, v4) in acc_chunks.by_ref().zip(v_chunks.by_ref()) {
            a4[0] += coeff * v4[0];
            a4[1] += coeff * v4[1];
            a4[2] += coeff * v4[2];
            a4[3] += coeff * v4[3];
        }
        for (a1, &v1) in acc_chunks
            .into_remainder()
            .iter_mut()
            .zip(v_chunks.remainder())
        {
            *a1 += coeff * v1;
        }
    }
}

/// Scalar [`scaled_outer3`]: `t = (uᵢ·vⱼ)·w_k; acc += x·t` per element,
/// unrolled by four, no zero skip.
fn scaled_outer3_scalar(x: f64, u: &[f64], v: &[f64], w: &[f64], out: &mut [f64]) {
    let rc = w.len();
    let mut acc_rows = out.chunks_exact_mut(rc.max(1));
    for &ui in u.iter() {
        for &vj in v.iter() {
            let p = ui * vj;
            let acc = acc_rows.next().expect("output length is |u|·|v|·|w|");
            let mut acc4 = acc.chunks_exact_mut(4);
            let mut w4 = w.chunks_exact(4);
            for (a4, c4) in (&mut acc4).zip(&mut w4) {
                a4[0] += x * (p * c4[0]);
                a4[1] += x * (p * c4[1]);
                a4[2] += x * (p * c4[2]);
                a4[3] += x * (p * c4[3]);
            }
            for (a1, &w1) in acc4.into_remainder().iter_mut().zip(w4.remainder()) {
                *a1 += x * (p * w1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 bodies (x86_64 only)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;
    use std::mem::MaybeUninit;
    use std::ops::Range;

    /// AVX2 axpy: 8-wide (two 4-lane vectors for ILP) + 4-wide + scalar
    /// remainder.  Separate `mul`/`add` per element — bit-identical to the
    /// scalar body.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let a = _mm256_set1_pd(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let x0 = _mm256_loadu_pd(xp.add(i));
            let x1 = _mm256_loadu_pd(xp.add(i + 4));
            let y0 = _mm256_loadu_pd(yp.add(i));
            let y1 = _mm256_loadu_pd(yp.add(i + 4));
            _mm256_storeu_pd(yp.add(i), _mm256_add_pd(y0, _mm256_mul_pd(a, x0)));
            _mm256_storeu_pd(yp.add(i + 4), _mm256_add_pd(y1, _mm256_mul_pd(a, x1)));
            i += 8;
        }
        if i + 4 <= n {
            let x0 = _mm256_loadu_pd(xp.add(i));
            let y0 = _mm256_loadu_pd(yp.add(i));
            _mm256_storeu_pd(yp.add(i), _mm256_add_pd(y0, _mm256_mul_pd(a, x0)));
            i += 4;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    /// AVX2 scal: pure multiplies (one rounding each), so the bits match
    /// scalar regardless of lane width.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scal_avx2(alpha: f64, x: &mut [f64]) {
        let n = x.len();
        let a = _mm256_set1_pd(alpha);
        let xp = x.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(xp.add(i));
            _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(a, v));
            i += 4;
        }
        while i < n {
            *xp.add(i) *= alpha;
            i += 1;
        }
    }

    /// AVX2 [`scaled_outer2`](super::scaled_outer2): the zero skip of the
    /// scalar body, with surviving rows processed **two at a time** so one
    /// `v` load feeds both rows' multiply+adds (2.5 memory ops per element
    /// instead of 3, and twice the independent accumulate chains in
    /// flight).  Pairing never changes bits: every output element is still
    /// read once, updated with the identical single mul+add, and written
    /// once — only the order across *disjoint* rows differs.  A pair with
    /// a zero coefficient falls back to two single rows so the per-row
    /// skip contract is preserved exactly.
    ///
    /// (An alignment-peeling variant — scalar elements until the
    /// accumulator row reaches a 32-byte boundary — measured *slower* at
    /// the rank-sized rows this kernel actually sees: the peel spends up
    /// to 3 of 8–16 elements to save line-split loads it no longer
    /// issues.  Callers get the same effect for free by allocating
    /// accumulators with [`AlignedVec`](super::AlignedVec).)
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scaled_outer2_avx2(x: f64, u: &[f64], v: &[f64], out: &mut [f64]) {
        let rb = v.len();
        let ra = u.len();
        debug_assert!(out.len() >= ra * rb);
        let vp = v.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0usize;
        while i + 2 <= ra {
            let c0 = x * *u.get_unchecked(i);
            let c1 = x * *u.get_unchecked(i + 1);
            if c0 == 0.0 || c1 == 0.0 {
                if c0 != 0.0 {
                    axpy_avx2(c0, v, &mut out[i * rb..(i + 1) * rb]);
                }
                if c1 != 0.0 {
                    axpy_avx2(c1, v, &mut out[(i + 1) * rb..(i + 2) * rb]);
                }
                i += 2;
                continue;
            }
            let r0 = op.add(i * rb);
            let r1 = r0.add(rb);
            let cv0 = _mm256_set1_pd(c0);
            let cv1 = _mm256_set1_pd(c1);
            let mut k = 0usize;
            while k + 4 <= rb {
                let vk = _mm256_loadu_pd(vp.add(k));
                let a0 = _mm256_loadu_pd(r0.add(k));
                let a1 = _mm256_loadu_pd(r1.add(k));
                _mm256_storeu_pd(r0.add(k), _mm256_add_pd(a0, _mm256_mul_pd(cv0, vk)));
                _mm256_storeu_pd(r1.add(k), _mm256_add_pd(a1, _mm256_mul_pd(cv1, vk)));
                k += 4;
            }
            while k < rb {
                let vk = *vp.add(k);
                *r0.add(k) += c0 * vk;
                *r1.add(k) += c1 * vk;
                k += 1;
            }
            i += 2;
        }
        if i < ra {
            let c = x * *u.get_unchecked(i);
            if c != 0.0 {
                axpy_avx2(c, v, &mut out[i * rb..(i + 1) * rb]);
            }
        }
    }

    /// AVX2 [`scaled_outer3`](super::scaled_outer3): per element
    /// `t = mul(p, w); acc = add(acc, mul(x, t))` — the identical two
    /// roundings of the scalar body.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scaled_outer3_avx2(x: f64, u: &[f64], v: &[f64], w: &[f64], out: &mut [f64]) {
        let rc = w.len();
        let xv = _mm256_set1_pd(x);
        let wp = w.as_ptr();
        let op = out.as_mut_ptr();
        let mut base = 0usize;
        for &ui in u.iter() {
            for &vj in v.iter() {
                let p = ui * vj;
                let pv = _mm256_set1_pd(p);
                let mut k = 0usize;
                while k + 8 <= rc {
                    let t0 = _mm256_mul_pd(pv, _mm256_loadu_pd(wp.add(k)));
                    let t1 = _mm256_mul_pd(pv, _mm256_loadu_pd(wp.add(k + 4)));
                    let a0 = _mm256_loadu_pd(op.add(base + k));
                    let a1 = _mm256_loadu_pd(op.add(base + k + 4));
                    _mm256_storeu_pd(op.add(base + k), _mm256_add_pd(a0, _mm256_mul_pd(xv, t0)));
                    _mm256_storeu_pd(
                        op.add(base + k + 4),
                        _mm256_add_pd(a1, _mm256_mul_pd(xv, t1)),
                    );
                    k += 8;
                }
                if k + 4 <= rc {
                    let t0 = _mm256_mul_pd(pv, _mm256_loadu_pd(wp.add(k)));
                    let a0 = _mm256_loadu_pd(op.add(base + k));
                    _mm256_storeu_pd(op.add(base + k), _mm256_add_pd(a0, _mm256_mul_pd(xv, t0)));
                    k += 4;
                }
                while k < rc {
                    *op.add(base + k) += x * (p * *wp.add(k));
                    k += 1;
                }
                base += rc;
            }
        }
    }

    /// AVX2 [`gemv`](super::gemv): four rows per vector, one lane per row's
    /// accumulator, sequential over the columns from `-0.0` — each lane
    /// performs the scalar dot's exact rounding sequence, so no horizontal
    /// reduction and no reassociation.  Four such vectors (16 rows) are in
    /// flight at once, because one alone is a single dependent add chain,
    /// and their columns come from contiguous row loads transposed in
    /// registers rather than from four scalar loads each.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv_avx2(a: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
        let done = gemv_groups_avx2::<4>(a, 0, rows, cols, x, y);
        let done = gemv_groups_avx2::<1>(a, done, rows, cols, x, y);
        for r in done..rows {
            y[r] = super::dot_scalar(&a[r * cols..(r + 1) * cols], x);
        }
    }

    /// Rows `first..` of [`gemv_avx2`], `4·G` at a time while that many
    /// remain; returns the first row not done.
    #[target_feature(enable = "avx2")]
    unsafe fn gemv_groups_avx2<const G: usize>(
        a: &[f64],
        first: usize,
        rows: usize,
        cols: usize,
        x: &[f64],
        y: &mut [f64],
    ) -> usize {
        assert!(a.len() >= rows * cols && x.len() >= cols && y.len() >= rows);
        let xp = x.as_ptr();
        let cols4 = cols - cols % 4;
        let mut r = first;
        while r + 4 * G <= rows {
            let base = a.as_ptr().add(r * cols);
            let mut acc = [_mm256_set1_pd(-0.0); G];
            // Four columns at a time: a 4 × 4 block of each group is loaded
            // row-wise and transposed in registers, then added column by
            // column — each lane still sums its row in column order.
            for k in (0..cols4).step_by(4) {
                let xv: [__m256d; 4] = std::array::from_fn(|j| _mm256_set1_pd(*xp.add(k + j)));
                for (g, acc) in acc.iter_mut().enumerate() {
                    let r0 = base.add(4 * g * cols + k);
                    let rows4: [__m256d; 4] =
                        std::array::from_fn(|l| _mm256_loadu_pd(r0.add(l * cols)));
                    let lo01 = _mm256_unpacklo_pd(rows4[0], rows4[1]);
                    let hi01 = _mm256_unpackhi_pd(rows4[0], rows4[1]);
                    let lo23 = _mm256_unpacklo_pd(rows4[2], rows4[3]);
                    let hi23 = _mm256_unpackhi_pd(rows4[2], rows4[3]);
                    let columns = [
                        _mm256_permute2f128_pd(lo01, lo23, 0x20),
                        _mm256_permute2f128_pd(hi01, hi23, 0x20),
                        _mm256_permute2f128_pd(lo01, lo23, 0x31),
                        _mm256_permute2f128_pd(hi01, hi23, 0x31),
                    ];
                    for (column, xk) in columns.into_iter().zip(xv) {
                        *acc = _mm256_add_pd(*acc, _mm256_mul_pd(column, xk));
                    }
                }
            }
            for k in cols4..cols {
                let xv = _mm256_set1_pd(*xp.add(k));
                for (g, acc) in acc.iter_mut().enumerate() {
                    let r0 = base.add(4 * g * cols + k);
                    let av =
                        _mm256_set_pd(*r0.add(3 * cols), *r0.add(2 * cols), *r0.add(cols), *r0);
                    *acc = _mm256_add_pd(*acc, _mm256_mul_pd(av, xv));
                }
            }
            for (g, acc) in acc.iter().enumerate() {
                _mm256_storeu_pd(y.as_mut_ptr().add(r + 4 * g), *acc);
            }
            r += 4 * G;
        }
        r
    }

    /// Lane mask selecting the first `lanes` (0–4) of a vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_mask(lanes: usize) -> __m256i {
        let on = |l: usize| -((lanes > l) as i64);
        _mm256_setr_epi64x(on(0), on(1), on(2), on(3))
    }

    /// One tile of [`gram_accumulate`](super::gram_accumulate): `ph ≤ 4`
    /// rows by `qw ≤ 8` columns of `g` held in `2·ph` vectors across the
    /// rows of `block`; a tile narrower than 8 masks its loads and stores.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gram_tile_avx2(
        block: &[f64],
        cols: usize,
        (p0, ph): (usize, usize),
        (q0, qw): (usize, usize),
        g: &mut [f64],
    ) {
        match ph {
            4 => gram_tile_rows_avx2::<4>(block, cols, p0, (q0, qw), g),
            3 => gram_tile_rows_avx2::<3>(block, cols, p0, (q0, qw), g),
            2 => gram_tile_rows_avx2::<2>(block, cols, p0, (q0, qw), g),
            _ => gram_tile_rows_avx2::<1>(block, cols, p0, (q0, qw), g),
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gram_tile_rows_avx2<const PH: usize>(
        block: &[f64],
        cols: usize,
        p0: usize,
        (q0, qw): (usize, usize),
        g: &mut [f64],
    ) {
        assert!(p0 + PH <= cols && q0 + qw <= cols && qw <= 8 && g.len() == cols * cols);
        let full = qw == 8;
        let (m0, m1) = (lane_mask(qw.min(4)), lane_mask(qw.saturating_sub(4)));
        // Masked-off lanes are neither read nor written, but the second
        // vector's address may lie past the slice: no `add` on it.
        let pair = |p: *const f64| (p, p.wrapping_add(4));
        let load = |p: *const f64| {
            let (lo, hi) = pair(p);
            if full {
                [_mm256_loadu_pd(lo), _mm256_loadu_pd(hi)]
            } else {
                [_mm256_maskload_pd(lo, m0), _mm256_maskload_pd(hi, m1)]
            }
        };
        let gp = g.as_mut_ptr();
        let mut acc = [[_mm256_setzero_pd(); 2]; PH];
        for (p, acc) in acc.iter_mut().enumerate() {
            *acc = load(gp.add((p0 + p) * cols + q0));
        }
        for row in block.chunks_exact(cols) {
            let row = row.as_ptr();
            let b = load(row.add(q0));
            for (p, acc) in acc.iter_mut().enumerate() {
                let a = _mm256_set1_pd(*row.add(p0 + p));
                acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(a, b[0]));
                acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(a, b[1]));
            }
        }
        for (p, acc) in acc.iter().enumerate() {
            let (lo, hi) = pair(gp.add((p0 + p) * cols + q0));
            _mm256_maskstore_pd(lo as *mut f64, m0, acc[0]);
            _mm256_maskstore_pd(hi as *mut f64, m1, acc[1]);
        }
    }

    /// Accumulator vectors one register tile of the group kernel holds; of
    /// the sixteen `ymm` registers the rest carry the member's `v` vectors
    /// and the broadcast coefficient.
    const TILE_VECS: usize = 12;

    /// Column panel width in vectors: with `TILE_VECS / PANEL_VECS` rows a
    /// tile holds `TILE_VECS` accumulators.
    const PANEL_VECS: usize = 3;

    /// Tile height at a tile width of `v ≤ PANEL_VECS` vectors.
    const TILE_HEIGHT: [usize; PANEL_VECS + 1] = [0, TILE_VECS, TILE_VECS / 2, TILE_VECS / 3];

    /// Members the group kernel gathers at a time.  Every tile then walks
    /// the chunk from flat arrays instead of calling back per member and
    /// tile, and parks its accumulators in `out` between chunks — a store
    /// and reload are exact, so the bits do not move.
    const CHUNK: usize = 64;

    /// One chunk of members: `x_k`, and `u_k`, `v_k` as pointers to their
    /// first entries; the first `len` of each are written.  Three arrays of
    /// words, written and read word by word, because a tuple copied whole can
    /// miss store-to-load forwarding.
    struct Chunk {
        len: usize,
        x: [MaybeUninit<f64>; CHUNK],
        u: [MaybeUninit<*const f64>; CHUNK],
        v: [MaybeUninit<*const f64>; CHUNK],
    }

    impl Chunk {
        /// Member `i < len`.
        ///
        /// # Safety
        /// `i` must be below `len`.
        #[inline(always)]
        unsafe fn get(&self, i: usize) -> (f64, *const f64, *const f64) {
            (
                self.x.get_unchecked(i).assume_init(),
                self.u.get_unchecked(i).assume_init(),
                self.v.get_unchecked(i).assume_init(),
            )
        }
    }

    /// Where one register tile sits: rows `r0..r0 + H`, columns
    /// `c0..c0 + width` (`V` vectors, the last one masked to its lanes) of a
    /// row-major output with `cols` columns.  A `fresh` tile starts from
    /// zero, the others from the partial sums `out` holds.
    struct Tile {
        r0: usize,
        c0: usize,
        width: usize,
        cols: usize,
        fresh: bool,
    }

    /// Calls `$tile::<H, V>` for the runtime `(vecs, height)` pair, over the
    /// pairs listed (every `H·V ≤ TILE_VECS`).
    macro_rules! by_shape {
        ($vecs:expr, $height:expr, $tile:ident $args:tt;
         $($v:literal => [$($h:literal)*]),* $(,)?) => {
            match ($vecs, $height) {
                $($(($v, $h) => $tile::<$h, $v> $args,)*)*
                shape => unreachable!("no register tile of shape {shape:?}"),
            }
        };
    }

    /// AVX2 [`scaled_outer2_group`](super::scaled_outer2_group) (and, with a
    /// one-entry `u`, [`axpy_group`](super::axpy_group)) for a group of at
    /// least two members: gathered a chunk at a time — plain code, where the
    /// caller's `member` inlines — and summed chunk by chunk into `out` by
    /// [`outer2_chunk_avx2`].
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2, that `out` holds
    /// `rows × cols` elements, and that `members` is not empty.
    pub unsafe fn scaled_outer2_group_avx2<'a, F>(
        members: Range<usize>,
        (rows, cols): (usize, usize),
        member: F,
        out: &mut [f64],
    ) where
        F: Fn(usize) -> (f64, &'a [f64], &'a [f64]),
    {
        let mut chunk = Chunk {
            len: 0,
            x: [const { MaybeUninit::uninit() }; CHUNK],
            u: [const { MaybeUninit::uninit() }; CHUNK],
            v: [const { MaybeUninit::uninit() }; CHUNK],
        };
        let mut start = members.start;
        loop {
            chunk.len = CHUNK.min(members.end.saturating_sub(start));
            for i in 0..chunk.len {
                let (x, u, v) = member(start + i);
                assert!(
                    u.len() == rows && v.len() == cols,
                    "member rows do not match the output"
                );
                chunk.x[i].write(x);
                chunk.u[i].write(u.as_ptr());
                chunk.v[i].write(v.as_ptr());
            }
            // SAFETY: the caller vouches for AVX2; `out` holds `rows × cols`
            // elements, and the chunk's first `len` members point at rows of
            // `rows` and `cols` entries borrowed for `'a`, beyond this call.
            outer2_chunk_avx2(&chunk, (rows, cols), start == members.start, out);
            start += chunk.len;
            if start >= members.end {
                break;
            }
        }
    }

    /// One chunk of [`scaled_outer2_group_avx2`].  The output is cut into
    /// column panels of `PANEL_VECS` vectors, and each panel into row tiles
    /// of at most `TILE_VECS / vectors` rows (a 10 × 10 output runs as
    /// 4 + 4 + 2 rows of three vectors); each tile sums the chunk in
    /// registers and stores every element once.  `fresh` tiles start from
    /// zero, the others from `out`.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2, that `out` holds
    /// `rows × cols` elements, and that the chunk's first `len` members
    /// point at live rows of `rows` and `cols` entries.
    #[target_feature(enable = "avx2")]
    unsafe fn outer2_chunk_avx2(
        chunk: &Chunk,
        (rows, cols): (usize, usize),
        fresh: bool,
        out: &mut [f64],
    ) {
        let panel = 4 * PANEL_VECS;
        // `while`, not `step_by`: a stepped range divides to count its steps,
        // which small groups notice.
        let mut c0 = 0;
        while c0 < cols {
            let width = panel.min(cols - c0);
            let vecs = width.div_ceil(4);
            let mut r0 = 0;
            while r0 < rows {
                let height = TILE_HEIGHT[vecs].min(rows - r0);
                let tile = Tile {
                    r0,
                    c0,
                    width,
                    cols,
                    fresh,
                };
                by_shape!(vecs, height, outer2_tile(chunk, &tile, out);
                    1 => [1 2 3 4 5 6 7 8 9 10 11 12],
                    2 => [1 2 3 4 5 6],
                    3 => [1 2 3 4],
                );
                r0 += height;
            }
            c0 += width;
        }
    }

    /// One `H × V`-vector tile over one chunk: per member, the tile's `V`
    /// vectors of `v_k`, then per row `c = x_k·u_k[i]` broadcast and
    /// `acc = add(acc, mul(c, v))` — the scalar body's two roundings.
    // Kept out of line: with every shape inlined, the chunk kernel grew
    // into one function whose fixed cost per call doubled.
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    unsafe fn outer2_tile<const H: usize, const V: usize>(
        chunk: &Chunk,
        tile: &Tile,
        out: &mut [f64],
    ) {
        let tail = tile.width - 4 * (V - 1);
        let (mask, full) = (lane_mask(tail), tail == 4);
        // Masked-off lanes are neither read nor written, but their addresses
        // may lie past the row: no `add` on them.
        let lanes = |p: *const f64, j: usize| p.wrapping_add(4 * j);
        let load = |p: *const f64, j: usize| {
            if j + 1 < V || full {
                _mm256_loadu_pd(lanes(p, j))
            } else {
                _mm256_maskload_pd(lanes(p, j), mask)
            }
        };
        let base = out.as_mut_ptr();
        let row = |r: usize| base.add((tile.r0 + r) * tile.cols + tile.c0);
        let mut acc = [[_mm256_setzero_pd(); V]; H];
        if !tile.fresh {
            for (r, acc) in acc.iter_mut().enumerate() {
                *acc = std::array::from_fn(|j| load(row(r), j));
            }
        }
        for i in 0..chunk.len {
            let (x, u, v) = chunk.get(i);
            let (u, v) = (u.add(tile.r0), v.add(tile.c0));
            let vv: [__m256d; V] = std::array::from_fn(|j| load(v, j));
            for (r, acc) in acc.iter_mut().enumerate() {
                let c = _mm256_set1_pd(x * *u.add(r));
                for (a, &vj) in acc.iter_mut().zip(&vv) {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(c, vj));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let p = row(r);
            for (j, &a) in acc.iter().enumerate() {
                if j + 1 < V || full {
                    _mm256_storeu_pd(p.wrapping_add(4 * j), a);
                } else {
                    _mm256_maskstore_pd(p.wrapping_add(4 * j), mask, a);
                }
            }
        }
    }

    /// AVX2 [`gemm_nt_rows`](super::gemm_nt_rows): four output columns per
    /// vector, eight rows of `a` in flight (then single rows), each
    /// `a[i][q]` broadcast against row `q` of `bt` — `b` transposed, its rows
    /// padded with zeros to whole vectors.  Every lane sums its entry in
    /// column order from `-0.0`, as the scalar `dot` does.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_nt_rows_avx2(a: &[f64], cols: usize, b: &[f64], k: usize, c: &mut [f64]) {
        let kpad = k.next_multiple_of(4);
        let mut bt = vec![0.0; cols * kpad];
        for (j, b_row) in b.chunks_exact(cols).enumerate() {
            for (q, &v) in b_row.iter().enumerate() {
                bt[q * kpad + j] = v;
            }
        }
        for (a_rows, c_rows) in a.chunks(8 * cols).zip(c.chunks_mut(8 * k)) {
            if a_rows.len() == 8 * cols {
                gemm_nt_group_avx2::<8>(a_rows, cols, &bt, k, c_rows);
            } else {
                for (a_row, c_row) in a_rows.chunks(cols).zip(c_rows.chunks_mut(k)) {
                    gemm_nt_group_avx2::<1>(a_row, cols, &bt, k, c_row);
                }
            }
        }
    }

    /// `R` rows of `a` against every four-column panel of `bt`.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_nt_group_avx2<const R: usize>(
        a: &[f64],
        cols: usize,
        bt: &[f64],
        k: usize,
        c: &mut [f64],
    ) {
        let kpad = k.next_multiple_of(4);
        assert!(a.len() == R * cols && bt.len() == cols * kpad && c.len() == R * k);
        for panel in (0..k).step_by(4) {
            let mut acc = [_mm256_set1_pd(-0.0); R];
            for q in 0..cols {
                // In bounds: `q·kpad + panel + 4 ≤ cols·kpad`.
                let b = _mm256_loadu_pd(bt.as_ptr().add(q * kpad + panel));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_pd(*a.get_unchecked(r * cols + q));
                    *acc = _mm256_add_pd(*acc, _mm256_mul_pd(av, b));
                }
            }
            let width = (k - panel).min(4);
            for (r, acc) in acc.iter().enumerate() {
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), *acc);
                c[r * k + panel..][..width].copy_from_slice(&lanes[..width]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random data without pulling in the rand shim.
    fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn aligned_vec_is_64_byte_aligned_at_any_length() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 64, 1000] {
            let mut v = AlignedVec::zeros(len);
            assert_eq!(v.len(), len);
            assert_eq!(v.as_ptr() as usize % 64, 0, "len={len}");
            assert!(v.iter().all(|&x| x == 0.0));
            if len > 0 {
                v[len - 1] = 2.5;
                assert_eq!(v[len - 1], 2.5);
            }
        }
    }

    #[test]
    fn parse_accepts_the_env_names() {
        assert_eq!(KernelIsa::parse("scalar"), Some(KernelIsa::Scalar));
        assert_eq!(KernelIsa::parse("AVX2"), Some(KernelIsa::Avx2));
        assert_eq!(KernelIsa::parse(" avx2 "), Some(KernelIsa::Avx2));
        assert_eq!(KernelIsa::parse("auto"), Some(KernelIsa::Auto));
        assert_eq!(KernelIsa::parse("sse9"), None);
        assert_eq!(KernelIsa::parse(""), None);
    }

    #[test]
    fn as_str_round_trips_through_parse() {
        for isa in [KernelIsa::Auto, KernelIsa::Scalar, KernelIsa::Avx2] {
            assert_eq!(KernelIsa::parse(isa.as_str()), Some(isa));
            assert_eq!(format!("{isa}"), isa.as_str());
        }
    }

    #[test]
    fn resolve_is_concrete_and_hardware_safe() {
        for isa in [KernelIsa::Auto, KernelIsa::Scalar, KernelIsa::Avx2] {
            let r = isa.resolve();
            assert_ne!(r, KernelIsa::Auto, "resolve must settle Auto");
            assert!(r.supported(), "resolved ISA must run on this host: {r:?}");
        }
        assert_eq!(KernelIsa::resolved_default(), KernelIsa::resolved_default());
    }

    #[test]
    fn axpy_avx2_is_bit_identical_to_scalar_at_every_remainder() {
        if !KernelIsa::Avx2.supported() {
            return;
        }
        for n in 0..=35 {
            let x = lcg_data(n, 7 + n as u64);
            let y0 = lcg_data(n, 1000 + n as u64);
            let mut ys = y0.clone();
            let mut yv = y0.clone();
            axpy(KernelIsa::Scalar, 0.37, &x, &mut ys);
            axpy(KernelIsa::Avx2, 0.37, &x, &mut yv);
            assert_eq!(bits(&ys), bits(&yv), "axpy mismatch at n={n}");
        }
    }

    #[test]
    fn scal_is_bit_identical_across_all_isas() {
        if !KernelIsa::Avx2.supported() {
            return;
        }
        for n in 0..=19 {
            let x0 = lcg_data(n, 33 + n as u64);
            let mut xs = x0.clone();
            let mut xv = x0.clone();
            scal(KernelIsa::Scalar, -1.75, &mut xs);
            scal(KernelIsa::Avx2, -1.75, &mut xv);
            assert_eq!(bits(&xs), bits(&xv), "scal mismatch at n={n}");
        }
    }

    #[test]
    fn scaled_outer2_avx2_is_bit_identical_to_scalar() {
        if !KernelIsa::Avx2.supported() {
            return;
        }
        for (du, dv) in [(1, 1), (2, 3), (3, 5), (4, 8), (5, 7), (8, 9), (6, 16)] {
            let u = lcg_data(du, 3 * dv as u64 + 1);
            let v = lcg_data(dv, 5 * du as u64 + 2);
            let base = lcg_data(du * dv, 17);
            let mut os = base.clone();
            let mut ov = base.clone();
            scaled_outer2(KernelIsa::Scalar, 1.23, &u, &v, &mut os);
            scaled_outer2(KernelIsa::Avx2, 1.23, &u, &v, &mut ov);
            assert_eq!(bits(&os), bits(&ov), "outer2 mismatch at {du}x{dv}");
        }
    }

    #[test]
    fn scaled_outer3_avx2_is_bit_identical_to_scalar() {
        if !KernelIsa::Avx2.supported() {
            return;
        }
        for (du, dv, dw) in [(1, 1, 1), (2, 2, 3), (3, 2, 5), (2, 3, 8), (3, 3, 9)] {
            let u = lcg_data(du, 11);
            let v = lcg_data(dv, 13);
            let w = lcg_data(dw, 19);
            let base = lcg_data(du * dv * dw, 23);
            let mut os = base.clone();
            let mut ov = base.clone();
            scaled_outer3(KernelIsa::Scalar, -0.81, &u, &v, &w, &mut os);
            scaled_outer3(KernelIsa::Avx2, -0.81, &u, &v, &w, &mut ov);
            assert_eq!(bits(&os), bits(&ov), "outer3 mismatch at {du}x{dv}x{dw}");
        }
    }

    #[test]
    fn gemv_avx2_is_bit_identical_to_scalar() {
        if !KernelIsa::Avx2.supported() {
            return;
        }
        // Through the 16-row groups, the 4-row groups and the row tail, on
        // and off the four-column blocks.
        for (rows, cols) in [
            (1, 1),
            (3, 4),
            (4, 7),
            (5, 5),
            (8, 3),
            (9, 16),
            (13, 11),
            (16, 100),
            (39, 125),
            (20, 2),
        ] {
            let a = lcg_data(rows * cols, rows as u64 * 31 + cols as u64);
            let x = lcg_data(cols, 41);
            let mut ys = vec![0.0; rows];
            let mut yv = vec![0.0; rows];
            gemv(KernelIsa::Scalar, &a, rows, cols, &x, &mut ys);
            gemv(KernelIsa::Avx2, &a, rows, cols, &x, &mut yv);
            assert_eq!(bits(&ys), bits(&yv), "gemv mismatch at {rows}x{cols}");
        }
    }
}
