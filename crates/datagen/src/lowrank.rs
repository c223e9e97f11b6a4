//! Sparse tensors sampled from a ground-truth low-rank Tucker model.
//!
//! Tucker/HOOI is a low-rank approximation algorithm; the most direct
//! correctness check is to build a tensor that *is* (approximately) low rank
//! and verify that HOOI recovers a decomposition whose fit matches the
//! planted model.  The generator draws a random core `G` and random factor
//! matrices `U_n`, samples `nnz` distinct coordinates, and sets each sampled
//! value to the exact reconstruction `Σ g · Π u` at that coordinate plus
//! optional Gaussian-like noise.

use linalg::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptensor::dense::reconstruct_at;
use sptensor::hash::FxHashSet;
use sptensor::{DenseTensor, SparseTensor};

/// Specification of a planted low-rank tensor.
#[derive(Debug, Clone)]
pub struct LowRankSpec {
    /// Mode sizes of the generated tensor.
    pub dims: Vec<usize>,
    /// Tucker ranks of the planted model (one per mode).
    pub ranks: Vec<usize>,
    /// Number of sampled nonzeros.
    pub nnz: usize,
    /// Relative amplitude of additive noise (0 for an exactly low-rank
    /// sample).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

/// A planted low-rank tensor together with its ground truth.
#[derive(Debug, Clone)]
pub struct LowRankTensor {
    /// The sampled sparse tensor.
    pub tensor: SparseTensor,
    /// The planted core tensor.
    pub core: DenseTensor,
    /// The planted factor matrices (orthonormalized).
    pub factors: Vec<Matrix>,
}

/// Generates a sparse tensor sampled from a planted Tucker model.
///
/// # Panics
/// Panics if `dims` and `ranks` have different lengths, any rank exceeds its
/// mode size, or any rank/dimension is zero.
pub fn lowrank_tensor(spec: &LowRankSpec) -> LowRankTensor {
    assert_eq!(spec.dims.len(), spec.ranks.len());
    assert!(!spec.dims.is_empty());
    for (&d, &r) in spec.dims.iter().zip(spec.ranks.iter()) {
        assert!(d > 0 && r > 0, "dims and ranks must be positive");
        assert!(r <= d, "rank {r} exceeds mode size {d}");
    }
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let order = spec.dims.len();

    // Random orthonormal factors and a random core with decaying magnitudes
    // so the planted model has a clear dominant subspace.
    let mut factors = Vec::with_capacity(order);
    for (m, (&d, &r)) in spec.dims.iter().zip(spec.ranks.iter()).enumerate() {
        let mut u = Matrix::random_signed(d, r, spec.seed ^ ((m as u64 + 1) * 0x1234_5678));
        linalg::qr::orthonormalize_columns(&mut u);
        factors.push(u);
    }
    let core_seed = spec.seed ^ 0xc0de_cafe;
    let core = DenseTensor::from_fn(spec.ranks.clone(), |idx| {
        // Entry magnitude decays with the sum of indices (so the planted
        // model has a clearly dominant subspace), while a hash-derived
        // pseudo-random mantissa keeps every mode unfolding of the core at
        // full rank — an exactly separable core would make the planted
        // multilinear rank smaller than `ranks`.
        let depth: usize = idx.iter().sum();
        let h = sptensor::hash::hash_index_tuple(idx) ^ core_seed;
        let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
        let mantissa = 0.25 + 0.75 * ((h >> 1) & 0xffff) as f64 / 65535.0;
        sign * mantissa * (2.0_f64).powi(-(depth as i32))
    });

    // Sample distinct coordinates: a mix of uniform and "popular row" picks
    // so the tensor is not pathologically uniform.
    let value_noise = Uniform::new(-1.0, 1.0);
    let index_dists: Vec<Uniform<usize>> = spec.dims.iter().map(|&d| Uniform::new(0, d)).collect();
    let capacity: f64 = spec.dims.iter().map(|&d| d as f64).product();
    let target = if (spec.nnz as f64) > capacity {
        capacity as usize
    } else {
        spec.nnz
    };

    let mut tensor = SparseTensor::with_capacity(spec.dims.clone(), target);
    let mut seen: FxHashSet<u128> = FxHashSet::default();
    seen.reserve(target);
    let mut index = vec![0usize; order];
    let mut attempts = 0usize;
    let max_attempts = target.saturating_mul(30).max(1000);
    while tensor.nnz() < target && attempts < max_attempts {
        attempts += 1;
        for (m, dist) in index_dists.iter().enumerate() {
            index[m] = dist.sample(&mut rng);
        }
        let key = sptensor::hash::linearize(&index, &spec.dims);
        if !seen.insert(key) {
            continue;
        }
        let mut value = reconstruct_at(&core, &factors, &index);
        if spec.noise > 0.0 {
            value += spec.noise * value_noise.sample(&mut rng);
        }
        tensor.push(&index, value);
    }

    LowRankTensor {
        tensor,
        core,
        factors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> LowRankSpec {
        LowRankSpec {
            dims: vec![30, 25, 20],
            ranks: vec![3, 3, 2],
            nnz: 2000,
            noise: 0.0,
            seed: 42,
        }
    }

    #[test]
    fn generates_requested_nnz() {
        let lr = lowrank_tensor(&small_spec());
        assert_eq!(lr.tensor.nnz(), 2000);
        assert!(lr.tensor.validate().is_ok());
    }

    #[test]
    fn factors_are_orthonormal() {
        let lr = lowrank_tensor(&small_spec());
        for u in &lr.factors {
            assert!(linalg::qr::orthogonality_error(u) < 1e-8);
        }
    }

    #[test]
    fn values_match_planted_model() {
        let lr = lowrank_tensor(&small_spec());
        for e in 0..50 {
            let expected = reconstruct_at(&lr.core, &lr.factors, &lr.tensor.index(e));
            assert!((lr.tensor.value(e) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn values_match_dense_reconstruction() {
        // Full dense reconstruction through ttm_chain must agree with the
        // per-coordinate evaluation.
        let spec = LowRankSpec {
            dims: vec![8, 7, 6],
            ranks: vec![2, 3, 2],
            nnz: 100,
            noise: 0.0,
            seed: 5,
        };
        let lr = lowrank_tensor(&spec);
        let factor_refs: Vec<&Matrix> = lr.factors.iter().collect();
        let full = lr.core.ttm_chain(&factor_refs, false);
        for e in 0..lr.tensor.nnz() {
            assert!((lr.tensor.value(e) - full.get(&lr.tensor.index(e))).abs() < 1e-10);
        }
    }

    #[test]
    fn noise_perturbs_values() {
        let mut spec = small_spec();
        let clean = lowrank_tensor(&spec);
        spec.noise = 0.1;
        let noisy = lowrank_tensor(&spec);
        assert_eq!(clean.tensor.nnz(), noisy.tensor.nnz());
        let mut differing = 0;
        for ((_, a), (_, b)) in clean.tensor.iter().zip(noisy.tensor.iter()) {
            if (a - b).abs() > 1e-12 {
                differing += 1;
            }
        }
        assert!(differing > clean.tensor.nnz() / 2);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = lowrank_tensor(&small_spec());
        let b = lowrank_tensor(&small_spec());
        assert_eq!(a.tensor, b.tensor);
    }

    #[test]
    fn four_mode_generation() {
        let spec = LowRankSpec {
            dims: vec![12, 10, 8, 6],
            ranks: vec![2, 2, 2, 2],
            nnz: 500,
            noise: 0.0,
            seed: 9,
        };
        let lr = lowrank_tensor(&spec);
        assert_eq!(lr.tensor.order(), 4);
        assert_eq!(lr.core.dims(), &[2, 2, 2, 2]);
        assert_eq!(lr.factors.len(), 4);
    }

    #[test]
    #[should_panic]
    fn rank_larger_than_dim_rejected() {
        let spec = LowRankSpec {
            dims: vec![4, 4],
            ranks: vec![5, 2],
            nnz: 10,
            noise: 0.0,
            seed: 1,
        };
        let _ = lowrank_tensor(&spec);
    }
}
