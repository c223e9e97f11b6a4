//! Property-based tests of the core invariants, spanning crates.

use proptest::prelude::*;
use tucker_repro::prelude::*;

/// Strategy: a small random sparse tensor (3 modes, bounded dims and nnz).
fn small_tensor_strategy() -> impl Strategy<Value = SparseTensor> {
    (4usize..12, 4usize..12, 4usize..12, 20usize..120, 0u64..1000)
        .prop_map(|(d1, d2, d3, nnz, seed)| random_tensor(&[d1, d2, d3], nnz, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hooi_factors_always_orthonormal_and_fit_in_unit_interval(
        tensor in small_tensor_strategy(),
        rank in 1usize..4,
    ) {
        let config = TuckerConfig::new(vec![rank; 3]).max_iterations(2).seed(1);
        let result = tucker_hooi(&tensor, &config).unwrap();
        for u in &result.factors {
            prop_assert!(linalg::qr::orthogonality_error(u) < 1e-5
                // Rank-deficient slices can leave zero columns; the error is
                // then sqrt(#zero columns) at most.
                || u.ncols() as f64 >= linalg::qr::orthogonality_error(u).powi(2) - 1e-6);
        }
        let fit = result.final_fit();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&fit));
        // Fit never decreases across iterations.
        for w in result.fits.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-7);
        }
    }

    #[test]
    fn ttmc_parallel_equals_sequential(
        tensor in small_tensor_strategy(),
        rank in 1usize..4,
    ) {
        let factors: Vec<Matrix> = tensor
            .dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, rank, m as u64 + 1))
            .collect();
        let sym = hooi::symbolic::SymbolicTtmc::build(&tensor);
        for mode in 0..3 {
            let sm = sym.mode(mode);
            let par = hooi::ttmc::ttmc_mode(&tensor, sm, &factors, mode);
            // The sequential reference: one row at a time, in row order.
            let mut row = vec![0.0; par.ncols()];
            let mut scratch = vec![0.0; par.ncols()];
            for p in 0..sm.num_rows() {
                hooi::ttmc::ttmc_row_into(&tensor, sm, &factors, mode, p, &mut row, &mut scratch);
                prop_assert_eq!(par.row(p), &row[..]);
            }
        }
    }

    #[test]
    fn distributed_ttmc_invariant_under_partitioning(
        tensor in small_tensor_strategy(),
        num_ranks in 2usize..6,
        seed in 0u64..100,
    ) {
        let factors: Vec<Matrix> = tensor
            .dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, 2, seed + m as u64))
            .collect();
        let sym = hooi::symbolic::SymbolicTtmc::build(&tensor);
        let shared = hooi::ttmc::ttmc_mode(&tensor, sym.mode(0), &factors, 0);
        for grain in [Grain::Fine, Grain::Coarse] {
            let config = SimConfig::new(num_ranks, grain, PartitionMethod::Random, vec![2, 2, 2]);
            let setup = DistributedSetup::build(&tensor, &config);
            let dist = distsim::exec::distributed_ttmc(&tensor, &setup, &sym, &factors, 0);
            prop_assert!(dist.frobenius_distance(&shared) < 1e-9 * shared.frobenius_norm().max(1.0));
        }
    }

    #[test]
    fn cutsize_zero_iff_single_part_and_bounded_by_pins(
        tensor in small_tensor_strategy(),
        num_parts in 2usize..6,
        seed in 0u64..100,
    ) {
        let h = fine_grain_hypergraph(&tensor);
        let single = partition::random_partition(h.num_vertices(), 1, seed);
        prop_assert_eq!(h.connectivity_cutsize(&single.parts, 1), 0);
        let multi = partition::random_partition(h.num_vertices(), num_parts, seed);
        let cut = h.connectivity_cutsize(&multi.parts, num_parts);
        prop_assert!(cut as usize <= h.num_pins());
    }

    #[test]
    fn partition_refinement_never_hurts(
        tensor in small_tensor_strategy(),
        num_parts in 2usize..5,
        seed in 0u64..100,
    ) {
        let h = fine_grain_hypergraph(&tensor);
        let mut p = partition::random_partition(h.num_vertices(), num_parts, seed);
        let before = h.connectivity_cutsize(&p.parts, num_parts);
        partition::refine_partition(&h, &mut p, 0.2, 2);
        let after = h.connectivity_cutsize(&p.parts, num_parts);
        prop_assert!(after <= before);
    }

    #[test]
    fn accumulate_scaled_kron_matches_materialized_product(
        lens in (1usize..5, 1usize..5, 1usize..5),
        alpha in (0u64..2000).prop_map(|n| n as f64 / 100.0 - 10.0),
        seed in 0u64..1000,
    ) {
        // acc += alpha * (⊗ rows) must agree with materializing the full
        // Kronecker product first, for 1, 2 and 3 factor rows (the direct
        // 1/2-factor fast paths and the scratch-buffer fallback).
        let (l1, l2, l3) = lens;
        let source = Matrix::random(3, l1.max(l2).max(l3), seed);
        let rows_storage: Vec<Vec<f64>> = [l1, l2, l3]
            .iter()
            .enumerate()
            .map(|(i, &l)| source.row(i)[..l].to_vec())
            .collect();
        for take in 1..=3 {
            let rows: Vec<&[f64]> = rows_storage[..take].iter().map(|r| r.as_slice()).collect();
            let len: usize = rows.iter().map(|r| r.len()).product();
            let mut reference = vec![0.0; len];
            sptensor::kron::kron_rows(&rows, &mut reference);
            let mut acc = vec![1.5; len];
            let mut scratch = vec![0.0; len];
            sptensor::kron::accumulate_scaled_kron(alpha, &rows, &mut acc, &mut scratch);
            for (a, r) in acc.iter().zip(reference.iter()) {
                prop_assert!((a - (1.5 + alpha * r)).abs() < 1e-12,
                    "{take} factors: {a} vs {}", 1.5 + alpha * r);
            }
        }
    }

    #[test]
    fn ttmc_result_width_matches_factor_columns(
        ranks in (1usize..5, 1usize..5, 1usize..5, 1usize..5),
    ) {
        let (r1, r2, r3, r4) = ranks;
        let factors = vec![
            Matrix::zeros(3, r1),
            Matrix::zeros(3, r2),
            Matrix::zeros(3, r3),
            Matrix::zeros(3, r4),
        ];
        let all: usize = r1 * r2 * r3 * r4;
        for mode in 0..4 {
            let width = hooi::ttmc::ttmc_result_width(&factors, mode);
            prop_assert_eq!(width, all / factors[mode].ncols());
        }
    }

    #[test]
    fn compact_ttmc_rows_equal_dense_reference(
        tensor in (
            2usize..6,
            2usize..6,
            2usize..6,
            3usize..25,
            0u64..500,
        ).prop_map(|(d1, d2, d3, nnz, seed)| random_tensor(&[d1, d2, d3], nnz, seed)),
        rank in 1usize..4,
    ) {
        // Every row of the compact TTMc result must equal the corresponding
        // row of the dense reference `X ×_{t≠n} U_tᵀ` unfolding, and rows
        // absent from the compact form must be zero in the reference.
        let factors: Vec<Matrix> = tensor
            .dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, rank, m as u64 + 11))
            .collect();
        let sym = hooi::symbolic::SymbolicTtmc::build(&tensor);
        for mode in 0..3 {
            let compact = hooi::ttmc::ttmc_mode(&tensor, sym.mode(mode), &factors, mode);
            let reference = hooi::ttmc::ttmc_dense_reference(&tensor, &factors, mode);
            prop_assert_eq!(compact.ncols(), reference.ncols());
            let tol = 1e-9 * reference.frobenius_norm().max(1.0);
            let mut covered = vec![false; tensor.dims()[mode]];
            for (p, &i) in sym.mode(mode).rows.iter().enumerate() {
                covered[i] = true;
                for (a, b) in compact.row(p).iter().zip(reference.row(i)) {
                    prop_assert!((a - b).abs() < tol, "mode {mode} row {i}: {a} vs {b}");
                }
            }
            for (i, was_covered) in covered.iter().enumerate() {
                if !was_covered {
                    for &v in reference.row(i) {
                        prop_assert!(v.abs() < tol, "empty slice {i} has nonzero reference");
                    }
                }
            }
        }
    }

    #[test]
    fn planned_session_solves_are_deterministic_and_reuse_symbolic(
        tensor in small_tensor_strategy(),
        rank in 1usize..4,
    ) {
        // Planning once and solving twice with the same configuration must
        // yield identical factors, fits and core — workspace reuse may not
        // leak state between solves — and the second solve must report zero
        // symbolic time, because the plan's analysis is reused, not redone.
        let config = TuckerConfig::new(vec![rank; 3]).max_iterations(3).seed(7);
        let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap();
        let first = solver.solve(&config).unwrap();
        let second = solver.solve(&config).unwrap();
        prop_assert_eq!(&first.fits, &second.fits);
        prop_assert_eq!(&first.factors, &second.factors);
        prop_assert_eq!(first.core.as_slice(), second.core.as_slice());
        prop_assert!(first.timings.symbolic == solver.symbolic_time());
        prop_assert!(second.timings.symbolic == std::time::Duration::ZERO);
    }

    #[test]
    fn fit_norm_identity_for_hooi_output(
        tensor in small_tensor_strategy(),
    ) {
        // For the factors/core produced by HOOI (orthonormal columns), the
        // norm-based fit must agree with the exact dense reconstruction
        // error on small tensors.
        let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2).seed(3);
        let result = tucker_hooi(&tensor, &config).unwrap();
        let exact = hooi::fit::full_relative_error(&tensor, &result.core, &result.factors, 1_000_000);
        let from_norms = 1.0 - result.final_fit();
        prop_assert!((exact - from_norms).abs() < 1e-6,
            "exact {} vs norm-based {}", exact, from_norms);
    }
}
