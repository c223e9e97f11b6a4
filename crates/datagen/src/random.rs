//! Uniform random sparse tensors.
//!
//! The neutral, skew-free workload of the unit, property and integration
//! tests and of the service's request-mix replay.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptensor::hash::FxHashSet;
use sptensor::SparseTensor;

/// Generates a sparse tensor with `nnz` distinct uniformly random
/// coordinates and values uniform in `[0, 1)`.
///
/// Coordinates are deduplicated; if the requested density is so high that
/// distinct coordinates cannot be found in a reasonable number of attempts
/// (more than `20 × nnz` draws), the tensor is returned with fewer nonzeros.
///
/// # Panics
/// Panics if `dims` is empty or contains zero.
pub fn random_tensor(dims: &[usize], nnz: usize, seed: u64) -> SparseTensor {
    assert!(!dims.is_empty());
    let capacity: f64 = dims.iter().map(|&d| d as f64).product();
    let mut rng = SmallRng::seed_from_u64(seed);
    let value_dist = Uniform::new(0.0, 1.0);
    let index_dists: Vec<Uniform<usize>> = dims.iter().map(|&d| Uniform::new(0, d)).collect();

    let target = if (nnz as f64) > capacity {
        capacity as usize
    } else {
        nnz
    };
    let mut tensor = SparseTensor::with_capacity(dims.to_vec(), target);
    let mut seen: FxHashSet<u128> = FxHashSet::default();
    seen.reserve(target);
    let mut index = vec![0usize; dims.len()];
    let mut attempts = 0usize;
    let max_attempts = target.saturating_mul(20).max(1000);
    while tensor.nnz() < target && attempts < max_attempts {
        attempts += 1;
        for (m, dist) in index_dists.iter().enumerate() {
            index[m] = dist.sample(&mut rng);
        }
        let key = sptensor::hash::linearize(&index, dims);
        if seen.insert(key) {
            tensor.push(&index, value_dist.sample(&mut rng));
        }
    }
    tensor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tensor_has_requested_nnz() {
        let t = random_tensor(&[100, 100, 100], 5000, 42);
        assert_eq!(t.nnz(), 5000);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn random_tensor_is_deterministic() {
        let a = random_tensor(&[50, 60, 70], 1000, 7);
        let b = random_tensor(&[50, 60, 70], 1000, 7);
        assert_eq!(a, b);
        let c = random_tensor(&[50, 60, 70], 1000, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_tensor_coordinates_are_distinct() {
        let t = random_tensor(&[20, 20], 300, 3);
        let mut seen = FxHashSet::default();
        for (idx, _) in t.iter() {
            assert!(seen.insert(idx.to_vec()), "duplicate coordinate {idx:?}");
        }
    }

    #[test]
    fn random_tensor_caps_at_capacity() {
        // Requesting more nonzeros than cells exist.
        let t = random_tensor(&[3, 3], 100, 1);
        assert!(t.nnz() <= 9);
        assert!(t.nnz() >= 8, "should fill nearly the whole tensor");
    }

    #[test]
    fn random_tensor_values_in_unit_interval() {
        let t = random_tensor(&[40, 40, 40], 2000, 5);
        for (_, v) in t.iter() {
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn four_mode_random_tensor() {
        let t = random_tensor(&[10, 20, 30, 5], 800, 13);
        assert_eq!(t.order(), 4);
        assert_eq!(t.nnz(), 800);
        let maxes = t.max_indices().unwrap();
        assert!(maxes[0] < 10 && maxes[1] < 20 && maxes[2] < 30 && maxes[3] < 5);
    }
}
