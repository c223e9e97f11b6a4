//! Per-mode statistics of sparse tensors.
//!
//! These are the quantities the paper's experiment tables are built from:
//! slice sizes drive coarse-grain task costs (Table III's W_TTMc imbalance),
//! the number of non-empty slices per mode drives the TRSVD row counts
//! (W_TRSVD), and the skew of the slice-size distribution explains which
//! datasets are latency-bound (Table V discussion).

use crate::coo::SparseTensor;
use rayon::prelude::*;

/// Summary statistics of the nonzeros-per-slice histogram of one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeStats {
    /// Mode index.
    pub mode: usize,
    /// Mode size `I_n`.
    pub dim: usize,
    /// Number of slices with at least one nonzero (`|J_n|`).
    pub nonempty_slices: usize,
    /// Maximum nonzeros in a single slice.
    pub max_slice_nnz: usize,
    /// Mean nonzeros per *non-empty* slice.
    pub mean_slice_nnz: f64,
    /// Ratio `max / mean` over non-empty slices — the load-imbalance bound
    /// for coarse-grain tasks in this mode.
    pub imbalance: f64,
}

/// Full per-mode statistics of a tensor.
#[derive(Debug, Clone)]
pub struct TensorStats {
    /// One entry per mode.
    pub modes: Vec<ModeStats>,
    /// Total number of nonzeros.
    pub nnz: usize,
    /// Density `nnz / Π I_n`.
    pub density: f64,
}

/// Computes statistics for a single mode.
pub fn mode_stats(tensor: &SparseTensor, mode: usize) -> ModeStats {
    let hist = tensor.slice_nnz(mode);
    let nonempty: Vec<usize> = hist.iter().copied().filter(|&c| c > 0).collect();
    let nonempty_slices = nonempty.len();
    let max_slice_nnz = nonempty.iter().copied().max().unwrap_or(0);
    let mean_slice_nnz = if nonempty_slices == 0 {
        0.0
    } else {
        tensor.nnz() as f64 / nonempty_slices as f64
    };
    let imbalance = if mean_slice_nnz > 0.0 {
        max_slice_nnz as f64 / mean_slice_nnz
    } else {
        0.0
    };
    ModeStats {
        mode,
        dim: tensor.dims()[mode],
        nonempty_slices,
        max_slice_nnz,
        mean_slice_nnz,
        imbalance,
    }
}

/// Computes statistics for every mode (modes processed in parallel, the same
/// "symbolic work per mode is independent" observation as the paper's
/// symbolic TTMc).
pub fn tensor_stats(tensor: &SparseTensor) -> TensorStats {
    let modes: Vec<ModeStats> = (0..tensor.order())
        .into_par_iter()
        .map(|m| mode_stats(tensor, m))
        .collect();
    TensorStats {
        modes,
        nnz: tensor.nnz(),
        density: tensor.density(),
    }
}

/// Human-readable count with K/M suffixes (e.g. `480K`, `100M`), mirroring
/// the notation of Table I in the paper.
pub fn format_count(n: usize) -> String {
    if n >= 10_000_000 {
        format!("{:.0}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}K", n as f64 / 1e3)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_tensor() -> SparseTensor {
        // Mode 0 slice 0 holds 4 nonzeros, slice 1 holds 1, slice 2 empty.
        SparseTensor::from_entries(
            vec![3, 5, 5],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 1], 1.0),
                (vec![0, 2, 2], 1.0),
                (vec![0, 3, 3], 1.0),
                (vec![1, 4, 4], 1.0),
            ],
        )
    }

    #[test]
    fn mode_stats_counts() {
        let t = skewed_tensor();
        let s = mode_stats(&t, 0);
        assert_eq!(s.dim, 3);
        assert_eq!(s.nonempty_slices, 2);
        assert_eq!(s.max_slice_nnz, 4);
        assert!((s.mean_slice_nnz - 2.5).abs() < 1e-12);
        assert!((s.imbalance - 1.6).abs() < 1e-12);
    }

    #[test]
    fn mode_stats_uniform_mode() {
        let t = skewed_tensor();
        let s = mode_stats(&t, 1);
        assert_eq!(s.nonempty_slices, 5);
        assert_eq!(s.max_slice_nnz, 1);
        assert!((s.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tensor_stats_all_modes() {
        let t = skewed_tensor();
        let stats = tensor_stats(&t);
        assert_eq!(stats.modes.len(), 3);
        assert_eq!(stats.nnz, 5);
        assert!(stats.density > 0.0);
        assert_eq!(stats.modes[0].mode, 0);
        assert_eq!(stats.modes[2].mode, 2);
    }

    #[test]
    fn empty_tensor_stats() {
        let t = SparseTensor::new(vec![4, 4]);
        let s = mode_stats(&t, 0);
        assert_eq!(s.nonempty_slices, 0);
        assert_eq!(s.max_slice_nnz, 0);
        assert_eq!(s.imbalance, 0.0);
    }

    #[test]
    fn format_count_suffixes() {
        assert_eq!(format_count(999), "999");
        assert_eq!(format_count(1_400), "1.4K");
        assert_eq!(format_count(480_000), "480K");
        assert_eq!(format_count(3_200_000), "3.2M");
        assert_eq!(format_count(100_000_000), "100M");
    }
}
