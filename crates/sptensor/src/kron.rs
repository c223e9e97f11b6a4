//! Kronecker products of matrix rows — the inner kernel of the nonzero-based
//! TTMc formulation.
//!
//! For each nonzero `x_{i_1,…,i_N}` and target mode `n`, the paper's
//! Algorithm 2 adds `x · ⊗_{t≠n} U_t(i_t, :)` to row `i_n` of the mode-`n`
//! matricized TTMc result.  The Kronecker product is taken over the modes in
//! increasing order, the first factor varying slowest, which matches the
//! column ordering of [`crate::dense::DenseTensor::unfold`].

/// Computes the Kronecker product of a list of row vectors into `out`.
///
/// `out.len()` must equal the product of the row lengths.  With zero rows the
/// result is the scalar `1.0` in a length-1 buffer.
pub fn kron_rows(rows: &[&[f64]], out: &mut [f64]) {
    let expected: usize = rows.iter().map(|r| r.len()).product();
    assert_eq!(
        out.len(),
        expected.max(1),
        "output buffer has wrong length for Kronecker product"
    );
    out[0] = 1.0;
    let mut filled = 1usize;
    for row in rows {
        if row.is_empty() {
            continue;
        }
        // Expand in place: the currently filled prefix of length `filled`
        // becomes `filled * row.len()` entries.  Iterate backwards so that
        // source entries are not overwritten before they are used.
        let rl = row.len();
        for i in (0..filled).rev() {
            let base = out[i];
            let dst = i * rl;
            for (j, &rj) in row.iter().enumerate().rev() {
                out[dst + j] = base * rj;
            }
        }
        filled *= rl;
    }
}

/// Adds `alpha · (⊗ rows)` to `acc` without materializing the Kronecker
/// product when there are one or two factor rows (the common 3- and 4-mode
/// cases fall back to a scratch buffer supplied by the caller), running at
/// the process-wide default kernel ISA
/// ([`KernelIsa::resolved_default`](crate::simd::KernelIsa::resolved_default),
/// which is bit-identical to scalar by construction).
///
/// `acc.len()` must equal the product of the row lengths; `scratch` must be
/// at least that long when `rows.len() > 2`.
pub fn accumulate_scaled_kron(alpha: f64, rows: &[&[f64]], acc: &mut [f64], scratch: &mut [f64]) {
    accumulate_scaled_kron_isa(
        crate::simd::KernelIsa::resolved_default(),
        alpha,
        rows,
        acc,
        scratch,
    )
}

/// [`accumulate_scaled_kron`] at an explicit kernel ISA — the form the
/// solver threads its plan-resolved [`KernelIsa`](crate::simd::KernelIsa)
/// through.
///
/// # Zero-coefficient contract
///
/// The two-factor branch hoists `coeff = alpha · u_i` per `u` entry and
/// **skips the row when `coeff == 0.0`**; the arity-1 and arity-≥3 branches
/// perform no such skip (every element is multiplied and added
/// unconditionally).  The asymmetry is bit-transparent for finite inputs:
/// accumulators start at `+0.0` and round-to-nearest additions can never
/// produce `-0.0` from one, so adding `coeff·v_j = ±0.0` would leave every
/// bit unchanged — exactly what the skip does.  Only non-finite factor
/// entries (`±∞`, NaN, where `0 · ∞ = NaN`) could tell the branches apart,
/// and tensors with non-finite values are outside every kernel's contract.
/// The regression test `zero_factor_entries_keep_all_arities_bit_identical`
/// in `tests/simd_kernels.rs` pins this across arities, layouts, and ISAs.
pub fn accumulate_scaled_kron_isa(
    isa: crate::simd::KernelIsa,
    alpha: f64,
    rows: &[&[f64]],
    acc: &mut [f64],
    scratch: &mut [f64],
) {
    match rows.len() {
        0 => {
            acc[0] += alpha;
        }
        1 => {
            debug_assert_eq!(acc.len(), rows[0].len());
            crate::simd::axpy(isa, alpha, rows[0], acc);
        }
        2 => {
            let (u, v) = (rows[0], rows[1]);
            debug_assert_eq!(acc.len(), u.len() * v.len());
            // Coefficient hoisted per `u` entry with the zero skip (see the
            // contract above), inner axpy on SIMD lanes.
            crate::simd::scaled_outer2(isa, alpha, u, v, acc);
        }
        _ => {
            let len: usize = rows.iter().map(|r| r.len()).product();
            debug_assert_eq!(acc.len(), len);
            assert!(
                scratch.len() >= len,
                "scratch buffer too small for Kronecker accumulation"
            );
            kron_rows(rows, &mut scratch[..len]);
            crate::simd::axpy(isa, alpha, &scratch[..len], acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kron_two_rows_matches_definition() {
        // u ⊗ v with w_{j+(i-1)J} = u_i v_j (paper's definition).
        let u = [1.0, 2.0];
        let v = [3.0, 4.0, 5.0];
        let mut out = vec![0.0; 6];
        kron_rows(&[&u, &v], &mut out);
        assert_eq!(out, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn kron_single_row_is_copy() {
        let u = [2.0, -1.0, 0.5];
        let mut out = vec![0.0; 3];
        kron_rows(&[&u], &mut out);
        assert_eq!(out, vec![2.0, -1.0, 0.5]);
    }

    #[test]
    fn kron_empty_list_is_scalar_one() {
        let mut out = vec![0.0; 1];
        kron_rows(&[], &mut out);
        assert_eq!(out, vec![1.0]);
    }

    #[test]
    fn kron_three_rows_associative() {
        let u = [1.0, 2.0];
        let v = [3.0, 4.0];
        let w = [5.0, 6.0, 7.0];
        let mut abc = vec![0.0; 12];
        kron_rows(&[&u, &v, &w], &mut abc);
        // (u ⊗ v) ⊗ w computed in two steps must agree.
        let mut uv = vec![0.0; 4];
        kron_rows(&[&u, &v], &mut uv);
        let mut expected = vec![0.0; 12];
        kron_rows(&[&uv, &w], &mut expected);
        assert_eq!(abc, expected);
    }

    #[test]
    #[should_panic]
    fn kron_wrong_output_length() {
        let u = [1.0, 2.0];
        let mut out = vec![0.0; 3];
        kron_rows(&[&u, &u], &mut out);
    }

    #[test]
    fn accumulate_one_factor() {
        let u = [1.0, 2.0, 3.0];
        let mut acc = vec![10.0, 10.0, 10.0];
        accumulate_scaled_kron(2.0, &[&u], &mut acc, &mut []);
        assert_eq!(acc, vec![12.0, 14.0, 16.0]);
    }

    #[test]
    fn accumulate_two_factors_matches_materialized() {
        let u = [1.0, -2.0];
        let v = [0.5, 3.0, 1.0];
        let mut acc = vec![1.0; 6];
        let mut scratch = vec![0.0; 6];
        accumulate_scaled_kron(1.5, &[&u, &v], &mut acc, &mut scratch);
        let mut kron = vec![0.0; 6];
        kron_rows(&[&u, &v], &mut kron);
        for (a, k) in acc.iter().zip(&kron) {
            assert!((a - (1.0 + 1.5 * k)).abs() < 1e-14);
        }
    }

    #[test]
    fn accumulate_three_factors_uses_scratch() {
        let u = [1.0, 2.0];
        let v = [3.0, 4.0];
        let w = [5.0, 6.0];
        let mut acc = vec![0.0; 8];
        let mut scratch = vec![0.0; 8];
        accumulate_scaled_kron(1.0, &[&u, &v, &w], &mut acc, &mut scratch);
        let mut expected = vec![0.0; 8];
        kron_rows(&[&u, &v, &w], &mut expected);
        assert_eq!(acc, expected);
    }

    #[test]
    fn accumulate_zero_factors_adds_scalar() {
        let mut acc = vec![1.0];
        accumulate_scaled_kron(3.0, &[], &mut acc, &mut []);
        assert_eq!(acc, vec![4.0]);
    }

    #[test]
    fn accumulate_respects_alpha_zero() {
        let u = [1.0, 1.0];
        let v = [1.0, 1.0];
        let mut acc = vec![5.0; 4];
        let mut scratch = vec![0.0; 4];
        accumulate_scaled_kron(0.0, &[&u, &v], &mut acc, &mut scratch);
        assert_eq!(acc, vec![5.0; 4]);
    }
}
