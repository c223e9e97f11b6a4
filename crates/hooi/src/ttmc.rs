//! Nonzero-based numeric TTMc (paper Eq. (4) / Algorithm 2).
//!
//! Given the symbolic update lists of a mode, the matricized TTMc result is
//! computed row by row: row `i_n` accumulates
//! `Σ_{x ∈ ul_n(i_n)} x · ⊗_{t≠n} U_t(i_t, :)`.
//!
//! Rows are independent, so the sweep hands each row of `J_n` to rayon
//! (the OpenMP `parallel for` with dynamic scheduling of the paper).
//! The result is returned in *compact* form: one row per non-empty slice,
//! `|J_n| × Π_{t≠n} R_t`; rows of the full matricization outside `J_n` are
//! identically zero and never materialized.
//!
//! Per-mode plans stream the CSF fiber hierarchy built by the symbolic step
//! ([`SymbolicMode::csf`]) — the one per-mode index structure — instead of
//! gathering each nonzero through its COO id: factor-row lookups are hoisted
//! per fiber, and orders 3 and 4 (the common cases) take fused outer-product
//! micro-kernels.  The walk keeps the accumulation order of every row, so
//! results stay bit-identical to the COO gather, which remains the fallback
//! for symbolic data without a hierarchy (dimension-tree plans) and the
//! formulation the distributed executor replays.

use crate::symbolic::SymbolicMode;
use linalg::Matrix;
use rayon::prelude::*;
use sptensor::csf::{CsfData, CsfIndex, CsfMode};
use sptensor::kron::accumulate_scaled_kron_isa;
use sptensor::simd::{self, KernelIsa};
use sptensor::SparseTensor;

/// Computes the width `Π_{t≠mode} R_t` of the compact TTMc result from the
/// factor matrices.
pub fn ttmc_result_width(factors: &[Matrix], mode: usize) -> usize {
    factors
        .iter()
        .enumerate()
        .filter(|&(t, _)| t != mode)
        .map(|(_, u)| u.ncols())
        .product()
}

/// Computes one row of the compact TTMc result into `out`.
///
/// `out` must have length `Π_{t≠mode} R_t` and is overwritten; `rows` is
/// caller-owned scratch for the factor-row list so the parallel sweep hoists
/// its allocation into the per-worker state.  When the symbolic data
/// carries a CSF hierarchy the kernel walks it; otherwise it gathers each
/// nonzero through its COO id in the identical accumulation order, so both
/// paths produce the same bits.
#[allow(clippy::too_many_arguments)]
fn compute_row<'a>(
    tensor: &SparseTensor,
    sym: &SymbolicMode,
    factors: &'a [Matrix],
    mode: usize,
    row_position: usize,
    out: &mut [f64],
    scratch: &mut [f64],
    rows: &mut Vec<&'a [f64]>,
    isa: KernelIsa,
) {
    out.iter_mut().for_each(|v| *v = 0.0);
    match sym.csf() {
        // Per-mode plans stream the fiber hierarchy: factor-row lookups are
        // hoisted per fiber, but every per-element multiply/add runs in the
        // exact order of the COO gather below, so the bits match.
        Some(CsfMode::Small(d)) => {
            compute_row_csf(d, row_position, factors, mode, out, scratch, rows, isa)
        }
        Some(CsfMode::Wide(d)) => {
            compute_row_csf(d, row_position, factors, mode, out, scratch, rows, isa)
        }
        // No per-mode structure (dimension-tree plans): gather each
        // nonzero's value and indices from the COO arrays.
        None => {
            for &id in sym.update_list(row_position) {
                let index = tensor.index(id);
                rows.clear();
                for (t, factor) in factors.iter().enumerate() {
                    if t == mode {
                        continue;
                    }
                    rows.push(factor.row(index[t]));
                }
                accumulate_scaled_kron_isa(isa, tensor.value(id), rows, out, scratch);
            }
        }
    }
}

/// The two foreign modes of `mode` in an order-3 tensor, ascending.
#[inline]
fn foreign_pair(mode: usize) -> (usize, usize) {
    match mode {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// The three foreign modes of `mode` in an order-4 tensor, ascending.
#[inline]
fn foreign_triple(mode: usize) -> (usize, usize, usize) {
    match mode {
        0 => (1, 2, 3),
        1 => (0, 2, 3),
        2 => (0, 1, 3),
        _ => (0, 1, 2),
    }
}

/// Software prefetch of the first cache line of a factor row — a pure
/// hint, so it cannot change any result bits.  No-op off x86_64.
#[inline(always)]
fn prefetch(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(row.as_ptr() as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Computes one row of the compact TTMc result from a CSF fiber hierarchy,
/// accumulating into a pre-zeroed `out`.
///
/// Root slice `row_position` of the hierarchy aligns with the symbolic
/// data's `rows[row_position]` because the hierarchy is built from the same
/// update-list permutation.  Arities 2 and 3 stream through the fused
/// per-nonzero bodies [`simd::scaled_outer2`] / [`simd::scaled_outer3`]
/// with the factor-row lookups hoisted per fiber; every other arity walks
/// the hierarchy and feeds [`accumulate_scaled_kron`] with the factor rows
/// in ascending foreign-mode order — exactly what the COO gather does — so
/// both paths produce the same bits.
///
/// [`accumulate_scaled_kron`]: sptensor::kron::accumulate_scaled_kron
#[allow(clippy::too_many_arguments)]
fn compute_row_csf<'a, I: CsfIndex>(
    csf: &CsfData<I>,
    row_position: usize,
    factors: &'a [Matrix],
    mode: usize,
    out: &mut [f64],
    scratch: &mut [f64],
    rows: &mut Vec<&'a [f64]>,
    isa: KernelIsa,
) {
    let arity = csf.arity();
    if arity == 2 {
        let (a, b) = foreign_pair(mode);
        compute_row3_csf(csf, row_position, &factors[a], &factors[b], out, isa);
        return;
    }
    if arity == 3 {
        let (a, b, c) = foreign_triple(mode);
        compute_row4_csf(
            csf,
            row_position,
            &factors[a],
            &factors[b],
            &factors[c],
            out,
            isa,
        );
        return;
    }
    rows.clear();
    let (lo, hi) = csf.root_range(row_position);
    walk_csf(csf, 0, lo, hi, factors, mode, out, scratch, rows, isa);
}

/// Order-3 CSF kernel: one `U_a` row lookup per level-0 fiber, the leaf
/// level streams `(i_b, x)` pairs through [`simd::scaled_outer2`], whose
/// per-element operations and their order match [`accumulate_scaled_kron`]'s
/// two-factor branch exactly (the zero-coefficient skip is bit-transparent
/// for finite inputs).
///
/// [`accumulate_scaled_kron`]: sptensor::kron::accumulate_scaled_kron
fn compute_row3_csf<I: CsfIndex>(
    csf: &CsfData<I>,
    p: usize,
    fa: &Matrix,
    fb: &Matrix,
    out: &mut [f64],
    isa: KernelIsa,
) {
    let (flo, fhi) = csf.root_range(p);
    for f in flo..fhi {
        let u = fa.row(csf.fiber_id(0, f));
        let (lo, hi) = csf.fiber_range(0, f);
        let (ids, values) = csf.leaves(lo, hi);
        for (k, &x) in values.iter().enumerate() {
            if k + 1 < values.len() {
                prefetch(fb.row(ids[k + 1].to_usize()));
            }
            let v = fb.row(ids[k].to_usize());
            simd::scaled_outer2(isa, x, u, v, out);
        }
    }
}

/// Order-4 CSF kernel: `U_a` hoisted per level-0 fiber, `U_b` per level-1
/// fiber, leaves stream `(i_c, x)` through [`simd::scaled_outer3`].
///
/// Bit-identity contract: [`accumulate_scaled_kron`]'s arity ≥ 3 branch
/// expands `((1.0·u_i)·v_j)·w_k` via [`kron_rows`] and then adds `x · s` —
/// `1.0·u_i` is bitwise `u_i`, so the fused `t = (u_i·v_j)·w_k; acc += x·t`
/// performs the identical multiplies and add, in the identical order, for
/// every output element (`x` multiplies last, no zero-coefficient skip).
///
/// [`accumulate_scaled_kron`]: sptensor::kron::accumulate_scaled_kron
/// [`kron_rows`]: sptensor::kron::kron_rows
#[allow(clippy::too_many_arguments)]
fn compute_row4_csf<I: CsfIndex>(
    csf: &CsfData<I>,
    p: usize,
    fa: &Matrix,
    fb: &Matrix,
    fc: &Matrix,
    out: &mut [f64],
    isa: KernelIsa,
) {
    let (alo, ahi) = csf.root_range(p);
    for fib_a in alo..ahi {
        let u = fa.row(csf.fiber_id(0, fib_a));
        let (blo, bhi) = csf.fiber_range(0, fib_a);
        for fib_b in blo..bhi {
            let v = fb.row(csf.fiber_id(1, fib_b));
            let (lo, hi) = csf.fiber_range(1, fib_b);
            let (ids, values) = csf.leaves(lo, hi);
            for (k, &x) in values.iter().enumerate() {
                if k + 1 < values.len() {
                    prefetch(fc.row(ids[k + 1].to_usize()));
                }
                let w = fc.row(ids[k].to_usize());
                simd::scaled_outer3(isa, x, u, v, w, out);
            }
        }
    }
}

/// Generic-arity CSF walk (orders 2 and ≥ 5): descends the hierarchy
/// pushing one factor row per level (ascending foreign-mode order) and
/// calls [`accumulate_scaled_kron`] per leaf — the identical call the COO
/// gather makes per nonzero, in the identical order.
#[allow(clippy::too_many_arguments)]
fn walk_csf<'a, I: CsfIndex>(
    csf: &CsfData<I>,
    level: usize,
    lo: usize,
    hi: usize,
    factors: &'a [Matrix],
    mode: usize,
    out: &mut [f64],
    scratch: &mut [f64],
    rows: &mut Vec<&'a [f64]>,
    isa: KernelIsa,
) {
    let arity = csf.arity();
    if arity == 0 {
        // Order-1 tensor: no foreign modes, each leaf adds its value.
        for k in lo..hi {
            accumulate_scaled_kron_isa(isa, csf.value(k), rows, out, scratch);
        }
        return;
    }
    let foreign = if level < mode { level } else { level + 1 };
    if level + 1 == arity {
        let (ids, values) = csf.leaves(lo, hi);
        for (k, &x) in values.iter().enumerate() {
            rows.push(factors[foreign].row(ids[k].to_usize()));
            accumulate_scaled_kron_isa(isa, x, rows, out, scratch);
            rows.pop();
        }
        return;
    }
    for f in lo..hi {
        rows.push(factors[foreign].row(csf.fiber_id(level, f)));
        let (clo, chi) = csf.fiber_range(level, f);
        walk_csf(
            csf,
            level + 1,
            clo,
            chi,
            factors,
            mode,
            out,
            scratch,
            rows,
            isa,
        );
        rows.pop();
    }
}

/// Numeric TTMc for one mode, parallel over the rows of `J_n` (rayon).
///
/// Returns the compact `|J_n| × Π_{t≠mode} R_t` matrix; row `p` corresponds
/// to tensor index `sym.rows[p]` along `mode`.
///
/// # Panics
/// Panics if the factor matrices do not match the tensor's mode sizes.
pub fn ttmc_mode(
    tensor: &SparseTensor,
    sym: &SymbolicMode,
    factors: &[Matrix],
    mode: usize,
) -> Matrix {
    let mut out = Matrix::zeros(sym.num_rows(), ttmc_result_width(factors, mode));
    ttmc_mode_into_isa(
        tensor,
        sym,
        factors,
        mode,
        &mut out,
        KernelIsa::resolved_default(),
    );
    out
}

/// Numeric TTMc for one mode at an explicit kernel ISA, writing into a
/// caller-provided compact result matrix — the allocation-free form the
/// planned solver session uses, so the `|J_n| × Π_{t≠mode} R_t` buffer is
/// reused across iterations (see [`crate::workspace::HooiWorkspace`]) and
/// every sweep runs the ISA resolved at plan time
/// ([`crate::TuckerSolver::kernel_isa`]).  `Scalar` and `Avx2` are
/// bit-identical.
///
/// # Panics
/// Panics if the factor matrices do not match the tensor's mode sizes or
/// `out` does not have shape `|J_n| × Π_{t≠mode} R_t`.
pub fn ttmc_mode_into_isa(
    tensor: &SparseTensor,
    sym: &SymbolicMode,
    factors: &[Matrix],
    mode: usize,
    out: &mut Matrix,
    isa: KernelIsa,
) {
    validate_factors(tensor, factors, mode);
    let width = ttmc_result_width(factors, mode);
    assert_eq!(
        out.shape(),
        (sym.num_rows(), width),
        "ttmc_mode_into_isa: result buffer has the wrong shape"
    );
    if width == 0 {
        return;
    }
    let order = tensor.order();
    // Parallelize over rows; each worker gets one scratch buffer and one
    // factor-row list through `for_each_init`, so both allocations are
    // amortized over all the rows a worker processes.  Spans are cut by the
    // rows' symbolic flop weights (update-list lengths), so on skewed
    // distributions no span carries most of the work — a pure scheduling
    // change: every row is still computed whole, within one span, so the
    // bits match the unweighted sweep and the executor's replay exactly.
    let row_costs = sym.row_costs();
    out.as_mut_slice()
        .par_chunks_mut(width)
        .enumerate()
        .for_each_init_weighted(
            &row_costs,
            || (vec![0.0; width], Vec::with_capacity(order - 1)),
            |(scratch, rows), (p, row_out)| {
                compute_row(tensor, sym, factors, mode, p, row_out, scratch, rows, isa);
            },
        );
}

/// Computes one row of the compact TTMc result into `out`, overwriting it.
///
/// `row_position` indexes the non-empty rows of `sym` (`sym.rows[p]` is the
/// tensor index along `mode`); `out` must have length `Π_{t≠mode} R_t` and
/// `scratch` at least that length.  This is the per-task kernel of the
/// parallel sweep; the distributed executor also calls it directly for rows
/// whose update list is entirely local to one rank.
pub fn ttmc_row_into(
    tensor: &SparseTensor,
    sym: &SymbolicMode,
    factors: &[Matrix],
    mode: usize,
    row_position: usize,
    out: &mut [f64],
    scratch: &mut [f64],
) {
    let mut rows = Vec::with_capacity(factors.len().saturating_sub(1));
    compute_row(
        tensor,
        sym,
        factors,
        mode,
        row_position,
        out,
        scratch,
        &mut rows,
        KernelIsa::resolved_default(),
    );
}

/// Computes the contribution of a single nonzero to its row of the mode-
/// `mode` TTMc result: `x · ⊗_{t≠mode} U_t(i_t, :)`, overwriting `out`.
///
/// Adding these vectors to a row accumulator in update-list order produces
/// exactly the same floating-point result as [`ttmc_row_into`] — each
/// accumulation step `acc[j] += x · k_j` performs the identical multiply and
/// add either way.  The distributed executor relies on this to merge
/// remotely computed contributions bit-identically to the shared-memory
/// sweep.
///
/// `rows` is caller-provided scratch for the factor-row list (cleared and
/// refilled here); hoisting it keeps the executor's per-nonzero fold loop
/// allocation-free.
pub fn ttmc_contribution_into<'a>(
    tensor: &SparseTensor,
    factors: &'a [Matrix],
    mode: usize,
    nonzero_id: usize,
    out: &mut [f64],
    scratch: &mut [f64],
    rows: &mut Vec<&'a [f64]>,
) {
    out.iter_mut().for_each(|v| *v = 0.0);
    let order = tensor.order();
    let index = tensor.index(nonzero_id);
    let value = tensor.value(nonzero_id);
    rows.clear();
    for t in 0..order {
        if t == mode {
            continue;
        }
        rows.push(factors[t].row(index[t]));
    }
    accumulate_scaled_kron_isa(KernelIsa::resolved_default(), value, rows, out, scratch);
}

fn validate_factors(tensor: &SparseTensor, factors: &[Matrix], mode: usize) {
    assert_eq!(
        factors.len(),
        tensor.order(),
        "expected one factor matrix per mode"
    );
    for (t, u) in factors.iter().enumerate() {
        if t == mode {
            continue;
        }
        assert_eq!(
            u.nrows(),
            tensor.dims()[t],
            "factor matrix for mode {t} has {} rows but the mode size is {}",
            u.nrows(),
            tensor.dims()[t]
        );
    }
}

/// Reference TTMc computed densely: materializes the full tensor, performs
/// dense TTMs along every mode except `mode`, and unfolds.  Exponential in
/// memory — tests only.
pub fn ttmc_dense_reference(tensor: &SparseTensor, factors: &[Matrix], mode: usize) -> Matrix {
    use sptensor::DenseTensor;
    let mut dense = DenseTensor::zeros(tensor.dims().to_vec());
    for (idx, v) in tensor.iter() {
        let lin = dense.linear_index(idx);
        dense.as_mut_slice()[lin] += v;
    }
    let mut cur = dense;
    for (t, u) in factors.iter().enumerate() {
        if t == mode {
            continue;
        }
        cur = cur.ttm(t, u, true);
    }
    cur.unfold(mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymbolicTtmc;
    use datagen::random_tensor;

    fn factors_for(tensor: &SparseTensor, ranks: &[usize], seed: u64) -> Vec<Matrix> {
        tensor
            .dims()
            .iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(m, (&d, &r))| Matrix::random(d, r, seed + m as u64))
            .collect()
    }

    /// Expands the compact result into the full `I_mode × width` matrix.
    fn expand(compact: &Matrix, sym: &SymbolicMode, dim: usize) -> Matrix {
        let mut full = Matrix::zeros(dim, compact.ncols());
        for (p, &i) in sym.rows.iter().enumerate() {
            full.row_mut(i).copy_from_slice(compact.row(p));
        }
        full
    }

    #[test]
    fn ttmc_matches_dense_reference_3mode() {
        let t = random_tensor(&[8, 9, 10], 120, 3);
        let ranks = [3, 4, 2];
        let factors = factors_for(&t, &ranks, 11);
        let sym = SymbolicTtmc::build(&t);
        for mode in 0..3 {
            let compact = ttmc_mode(&t, sym.mode(mode), &factors, mode);
            let full = expand(&compact, sym.mode(mode), t.dims()[mode]);
            let reference = ttmc_dense_reference(&t, &factors, mode);
            assert!(
                full.frobenius_distance(&reference) < 1e-9 * reference.frobenius_norm().max(1.0),
                "mode {mode} mismatch"
            );
        }
    }

    #[test]
    fn ttmc_matches_dense_reference_4mode() {
        let t = random_tensor(&[5, 6, 4, 7], 100, 5);
        let ranks = [2, 3, 2, 2];
        let factors = factors_for(&t, &ranks, 23);
        let sym = SymbolicTtmc::build(&t);
        for mode in 0..4 {
            let compact = ttmc_mode(&t, sym.mode(mode), &factors, mode);
            let full = expand(&compact, sym.mode(mode), t.dims()[mode]);
            let reference = ttmc_dense_reference(&t, &factors, mode);
            assert!(
                full.frobenius_distance(&reference) < 1e-9 * reference.frobenius_norm().max(1.0),
                "mode {mode} mismatch"
            );
        }
    }

    #[test]
    fn parallel_sweep_matches_row_by_row() {
        let t = random_tensor(&[30, 25, 20], 1500, 7);
        let ranks = [4, 4, 4];
        let factors = factors_for(&t, &ranks, 1);
        let sym = SymbolicTtmc::build(&t);
        for mode in 0..3 {
            let sm = sym.mode(mode);
            let swept = ttmc_mode(&t, sm, &factors, mode);
            let width = ttmc_result_width(&factors, mode);
            let mut row = vec![0.0; width];
            let mut scratch = vec![0.0; width];
            for p in 0..sm.num_rows() {
                ttmc_row_into(&t, sm, &factors, mode, p, &mut row, &mut scratch);
                assert_eq!(swept.row(p), &row[..], "mode {mode} row {p}");
            }
        }
    }

    #[test]
    fn compact_rows_correspond_to_nonempty_slices() {
        let t = SparseTensor::from_entries(
            vec![6, 3, 3],
            &[(vec![1, 0, 0], 1.0), (vec![4, 2, 2], 2.0)],
        );
        let ranks = [2, 2, 2];
        let factors = factors_for(&t, &ranks, 2);
        let sym = SymbolicTtmc::build(&t);
        let compact = ttmc_mode(&t, sym.mode(0), &factors, 0);
        assert_eq!(compact.nrows(), 2); // only rows 1 and 4 are nonempty
        assert_eq!(sym.mode(0).rows, vec![1, 4]);
    }

    #[test]
    fn single_nonzero_row_is_scaled_kron() {
        let t = SparseTensor::from_entries(vec![2, 3, 4], &[(vec![1, 2, 3], 2.5)]);
        let factors = vec![
            Matrix::random(2, 2, 1),
            Matrix::random(3, 2, 2),
            Matrix::random(4, 3, 3),
        ];
        let sym = SymbolicTtmc::build(&t);
        let compact = ttmc_mode(&t, sym.mode(0), &factors, 0);
        assert_eq!(compact.shape(), (1, 6));
        let mut expected = vec![0.0; 6];
        sptensor::kron::kron_rows(&[factors[1].row(2), factors[2].row(3)], &mut expected);
        for (a, b) in compact.row(0).iter().zip(expected.iter()) {
            assert!((a - 2.5 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn contribution_replay_is_bit_identical_to_row_sweep() {
        // Accumulating per-nonzero contribution vectors in update-list order
        // must reproduce ttmc_row_into bit for bit — the property the
        // distributed executor's fold/merge builds on.
        let t = random_tensor(&[12, 10, 8], 300, 17);
        let ranks = [3, 2, 4];
        let factors = factors_for(&t, &ranks, 5);
        let sym = SymbolicTtmc::build(&t);
        for mode in 0..3 {
            let width = ttmc_result_width(&factors, mode);
            let sm = sym.mode(mode);
            let mut direct = vec![0.0; width];
            let mut replayed = vec![0.0; width];
            let mut contrib = vec![0.0; width];
            let mut scratch = vec![0.0; width];
            let mut rows_buf = Vec::new();
            for p in 0..sm.num_rows() {
                ttmc_row_into(&t, sm, &factors, mode, p, &mut direct, &mut scratch);
                replayed.iter_mut().for_each(|v| *v = 0.0);
                for &id in sm.update_list(p) {
                    ttmc_contribution_into(
                        &t,
                        &factors,
                        mode,
                        id,
                        &mut contrib,
                        &mut scratch,
                        &mut rows_buf,
                    );
                    for (r, &c) in replayed.iter_mut().zip(contrib.iter()) {
                        *r += c;
                    }
                }
                assert_eq!(
                    direct.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    replayed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "mode {mode} row {p} diverged"
                );
            }
        }
    }

    #[test]
    fn csf_symbolic_gives_bit_identical_results() {
        // The CSF walk must reproduce the COO gather bit for bit, across the
        // specialized arities (2, 3) and the generic walker (arity 1 and
        // ≥ 4); `build` and a later attach give the same hierarchy.
        for (dims, nnz) in [
            (vec![20, 15], 120usize),
            (vec![14, 11, 9], 400),
            (vec![7, 6, 5, 4], 250),
            (vec![5, 4, 3, 4, 3], 150),
        ] {
            let t = random_tensor(&dims, nnz, 37);
            let ranks: Vec<usize> = dims.iter().map(|_| 3).collect();
            let factors = factors_for(&t, &ranks, 41);
            let built = SymbolicTtmc::build(&t);
            let coo = SymbolicTtmc::build_without_layout(&t);
            let mut csf = SymbolicTtmc::build_without_layout(&t);
            csf.attach_csf_layouts(&t);
            for mode in 0..dims.len() {
                let a = ttmc_mode(&t, built.mode(mode), &factors, mode);
                let b = ttmc_mode(&t, csf.mode(mode), &factors, mode);
                let c = ttmc_mode(&t, coo.mode(mode), &factors, mode);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "order {} mode {mode}", dims.len());
                assert_eq!(bits(&c), bits(&b), "order {} mode {mode}", dims.len());
            }
        }
    }

    #[test]
    fn result_width_helper() {
        let factors = vec![
            Matrix::zeros(5, 2),
            Matrix::zeros(6, 3),
            Matrix::zeros(7, 4),
        ];
        assert_eq!(ttmc_result_width(&factors, 0), 12);
        assert_eq!(ttmc_result_width(&factors, 2), 6);
    }

    #[test]
    #[should_panic]
    fn mismatched_factor_rows_rejected() {
        let t = random_tensor(&[4, 4, 4], 10, 1);
        let factors = vec![
            Matrix::zeros(4, 2),
            Matrix::zeros(5, 2), // wrong: mode 1 has size 4
            Matrix::zeros(4, 2),
        ];
        let sym = SymbolicTtmc::build(&t);
        let _ = ttmc_mode(&t, sym.mode(0), &factors, 0);
    }

    #[test]
    fn empty_tensor_gives_empty_result() {
        let t = SparseTensor::new(vec![4, 4, 4]);
        let factors = vec![
            Matrix::zeros(4, 2),
            Matrix::zeros(4, 2),
            Matrix::zeros(4, 2),
        ];
        let sym = SymbolicTtmc::build(&t);
        let compact = ttmc_mode(&t, sym.mode(1), &factors, 1);
        assert_eq!(compact.nrows(), 0);
        assert_eq!(compact.ncols(), 4);
    }
}
