//! Sparse and dense tensor data structures for HyperTensor-RS.
//!
//! The sparse Tucker algorithms of Kaya & Uçar (ICPP 2016) operate on
//! general order-`N` sparse tensors stored in coordinate (COO) format and on
//! small dense tensors (TTMc results and the core tensor).  This crate
//! provides:
//!
//! * [`coo::SparseTensor`] — order-`N` COO tensor with coalescing and
//!   slice/statistics helpers,
//! * [`dense::DenseTensor`] — dense order-`N` tensor with C-order (last mode
//!   fastest) layout, mode-`n` unfoldings and dense TTM,
//! * [`kron::kron_rows`] and friends — the Kronecker-product-of-rows kernel
//!   at the heart of the nonzero-based TTMc formulation (paper Eq. (4)),
//! * [`csf::CsfMode`] — one mode's compressed sparse fiber (CSF)
//!   hierarchy with `u32` ids where the dimensions permit, built from the
//!   symbolic TTMc's update-list permutation: the one per-mode index
//!   structure the numeric TTMc streams instead of gathering through COO ids,
//! * [`io`] — FROSTT-style `.tns` text I/O through one bounded-memory,
//!   chunk-parallel reader,
//! * [`stats`] — per-mode nonzero statistics used by the experiment tables,
//! * [`hash`] — a small fast hasher for integer keys (FxHash-style), used by
//!   coalescing and the data generators.
//!
//! # Layout conventions
//!
//! Throughout the workspace, dense tensors are stored in C order (the last
//! mode varies fastest) and the mode-`n` unfolding `Y_(n)` places mode `n`
//! on the rows and the remaining modes, in increasing order with the last
//! one varying fastest, on the columns.  The Kronecker product
//! `⊗_{t≠n} U_t(i_t, :)` in increasing mode order produces exactly that
//! column ordering, so the nonzero-based TTMc (Algorithm 2 of the paper)
//! writes rows of the unfolding directly.

pub mod coo;
pub mod csf;
pub mod dense;
pub mod hash;
pub mod io;
pub mod kron;
pub mod stats;

/// Runtime-dispatched SIMD kernel layer (re-exported from `linalg` so the
/// tensor kernels and their callers share one canonical `sptensor::simd`
/// path without a dependency cycle).
pub use linalg::simd;
pub use linalg::simd::KernelIsa;

pub use coo::SparseTensor;
pub use csf::{CsfData, CsfIndex, CsfMode};
pub use dense::DenseTensor;
pub use kron::{accumulate_scaled_kron, accumulate_scaled_kron_isa, kron_rows};

/// Computes the product of a slice of dimensions, used for unfolding sizes.
/// Returns 1 for an empty slice.
pub fn dims_product(dims: &[usize]) -> usize {
    dims.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_product_basic() {
        assert_eq!(dims_product(&[2, 3, 4]), 24);
        assert_eq!(dims_product(&[]), 1);
        assert_eq!(dims_product(&[5]), 5);
        assert_eq!(dims_product(&[3, 0]), 0);
    }
}
