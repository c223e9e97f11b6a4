//! Cross-crate integration tests: the full pipeline from data generation
//! through shared-memory HOOI, partitioning and distributed simulation.

use tucker_repro::prelude::*;

#[test]
fn full_pipeline_on_profile_tensor() {
    // Generate a scaled Netflix-profile tensor, decompose it, and check the
    // structural invariants of the result.
    let profile = DatasetProfile::new(ProfileName::Netflix);
    let tensor = profile.generate(8_000, 1);
    let config = TuckerConfig::new(vec![6, 6, 6]).max_iterations(4).seed(2);
    let result = tucker_hooi(&tensor, &config).unwrap();

    assert_eq!(result.core.dims(), &[6, 6, 6]);
    assert_eq!(result.factors.len(), 3);
    for (u, &dim) in result.factors.iter().zip(tensor.dims()) {
        assert_eq!(u.nrows(), dim);
        assert_eq!(u.ncols(), 6);
        assert!(linalg::qr::orthogonality_error(u) < 1e-5);
    }
    // Fit is monotone across iterations and in (0, 1].
    for w in result.fits.windows(2) {
        assert!(w[1] >= w[0] - 1e-8);
    }
    assert!(result.final_fit() > 0.0 && result.final_fit() <= 1.0);
}

#[test]
fn distributed_simulation_matches_shared_memory_on_all_configurations() {
    let tensor = random_tensor(&[30, 25, 20], 1_200, 3);
    let ranks = vec![3, 3, 3];
    let tucker = TuckerConfig::new(ranks.clone()).max_iterations(2).seed(5);
    let shared = tucker_hooi(&tensor, &tucker).unwrap();

    for (grain, method) in [
        (Grain::Fine, PartitionMethod::Hypergraph),
        (Grain::Fine, PartitionMethod::Random),
        (Grain::Coarse, PartitionMethod::Hypergraph),
        (Grain::Coarse, PartitionMethod::Block),
    ] {
        let config = SimConfig::new(6, grain, method, ranks.clone());
        let setup = DistributedSetup::build(&tensor, &config);
        let dist = distsim::exec::distributed_hooi(&tensor, &setup, &tucker).unwrap();
        assert!(
            (dist.final_fit() - shared.final_fit()).abs() < 1e-8,
            "{grain:?}/{method:?}: distributed fit {} differs from shared {}",
            dist.final_fit(),
            shared.final_fit()
        );
    }
}

#[test]
fn hypergraph_partitioning_reduces_simulated_time_and_volume() {
    let profile = DatasetProfile::new(ProfileName::Flickr);
    let tensor = profile.generate(10_000, 9);
    let ranks = profile.paper_ranks().to_vec();
    let machine = MachineModel::bluegene_q();

    let run = |method: PartitionMethod| {
        let config = SimConfig::new(16, Grain::Fine, method, ranks.clone());
        let setup = DistributedSetup::build(&tensor, &config);
        let cost = simulate_iteration(&tensor, &setup, &machine, 20);
        (cost.total_seconds(), cost.stats.total_comm_volume())
    };
    let (t_hp, v_hp) = run(PartitionMethod::Hypergraph);
    let (t_rd, v_rd) = run(PartitionMethod::Random);
    assert!(
        v_hp < v_rd,
        "hypergraph comm volume {v_hp} not below random {v_rd}"
    );
    assert!(
        t_hp <= t_rd,
        "hypergraph simulated time {t_hp} not below random {t_rd}"
    );
}

#[test]
fn tensor_io_roundtrip_preserves_decomposition_input() {
    let tensor = random_tensor(&[15, 15, 15], 300, 11);
    let path = std::env::temp_dir().join("tucker_repro_integration.tns");
    write_tns_file(&tensor, &path).unwrap();
    let reloaded = read_tns_file(&path, Some(tensor.dims().to_vec())).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.nnz(), tensor.nnz());

    let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2).seed(1);
    let a = tucker_hooi(&tensor, &config).unwrap();
    let b = tucker_hooi(&reloaded, &config).unwrap();
    assert!((a.final_fit() - b.final_fit()).abs() < 1e-9);
}

#[test]
fn solver_session_serves_a_batch_across_the_whole_pipeline() {
    // One plan, many configurations — the service-scale shape — checked
    // end to end against the one-shot entry point.
    let profile = DatasetProfile::new(ProfileName::Netflix);
    let tensor = profile.generate(6_000, 3);
    let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap();

    let configs: Vec<TuckerConfig> = [2usize, 4, 6]
        .iter()
        .map(|&r| {
            TuckerConfig::new(vec![r; 3])
                .max_iterations(3)
                .seed(r as u64)
        })
        .collect();
    let batch = solver.solve_many(&configs).unwrap();
    assert_eq!(batch.len(), 3);
    for (result, config) in batch.iter().zip(configs.iter()) {
        let one_shot = tucker_hooi(&tensor, config).unwrap();
        assert_eq!(result.fits, one_shot.fits, "ranks {:?}", config.ranks);
        assert_eq!(result.factors, one_shot.factors);
    }
    // The pool width is not an input of the decomposition.
    for threads in [2, 3, 4] {
        let wide = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(threads))
            .unwrap()
            .solve_many(&configs)
            .unwrap();
        for (result, reference) in wide.iter().zip(batch.iter()) {
            assert_eq!(result.fits, reference.fits, "{threads} threads");
            assert_eq!(result.factors, reference.factors, "{threads} threads");
        }
    }
    // Larger ranks explain at least as much of the tensor.
    assert!(batch[2].final_fit() >= batch[0].final_fit() - 1e-9);
    // Only the first solve of the session pays the symbolic cost.
    assert!(batch[1].timings.symbolic.is_zero());
    assert!(batch[2].timings.symbolic.is_zero());
}

#[test]
fn solver_errors_are_values_across_the_facade() {
    let empty = SparseTensor::new(vec![5, 5, 5]);
    assert_eq!(
        TuckerSolver::plan(&empty, PlanOptions::new()).unwrap_err(),
        TuckerError::EmptyTensor
    );
    let tensor = random_tensor(&[10, 10, 10], 200, 7);
    let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap();
    assert!(matches!(
        solver.solve(&TuckerConfig::new(vec![2, 2])),
        Err(TuckerError::OrderMismatch { .. })
    ));
    assert!(matches!(
        solver.solve(&TuckerConfig::new(vec![0, 2, 2])),
        Err(TuckerError::ZeroRank { mode: 0 })
    ));
}

/// An in-memory tensor carrying a NaN or an infinity (built with `push` or
/// `from_entries`, which do not screen values the way the `.tns` reader
/// does) is a typed error naming the nonzero on both shared-memory entry
/// points, not a panic deep in the TRSVD's eigensolver.
#[test]
fn non_finite_values_are_typed_errors_not_panics() {
    let config = TuckerConfig::new(vec![3, 3, 3]);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut tensor = random_tensor(&[30, 20, 10], 400, 1);
        *tensor.value_mut(123) = bad;
        let expected = TuckerError::NonFiniteValue { nonzero: 123 };
        assert_eq!(tucker_hooi(&tensor, &config).unwrap_err(), expected);
        assert_eq!(
            TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap_err(),
            expected
        );
        *tensor.value_mut(123) = 1.0;
        assert!(tucker_hooi(&tensor, &config)
            .unwrap()
            .final_fit()
            .is_finite());
    }
}

/// Finite values whose squares leave the normal `f64` range are a typed
/// error on the solver (both TTMc strategies) and the executor: at `1e160`
/// `Σ x²` overflows and the TRSVD's eigensolver would panic; at `1e-200`
/// it underflows to zero and the solve would report a perfect fit of 1.0
/// (the unscaled tensor fits 0.27).  Tensors inside the range keep their
/// exact results, and a tensor of explicit zeros keeps its fit of 1.0.
#[test]
fn extreme_magnitudes_are_typed_errors_not_wrong_fits() {
    let base = random_tensor(&[6, 5, 4], 40, 7);
    let scaled = |s: f64| {
        let mut t = base.clone();
        for id in 0..t.nnz() {
            *t.value_mut(id) *= s;
        }
        t
    };
    let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(3).seed(1);
    let solve = |t: &SparseTensor, strategy: TtmcStrategy| {
        let options = PlanOptions::new().num_threads(1).ttmc_strategy(strategy);
        TuckerSolver::plan(t, options).and_then(|mut s| s.solve(&config))
    };
    let strategies = [TtmcStrategy::PerMode, TtmcStrategy::DimensionTree];
    let sim = SimConfig::new(2, Grain::Fine, PartitionMethod::Random, vec![2, 2, 2]);
    let setup = DistributedSetup::build(&base, &sim);
    for s in [1e160, 1e-200] {
        let t = scaled(s);
        let squared_norm = t.values().iter().map(|v| v * v).sum::<f64>();
        let expected = TuckerError::NormOutOfRange { squared_norm };
        for strategy in strategies {
            assert_eq!(
                solve(&t, strategy).unwrap_err(),
                expected,
                "{s:e} {strategy:?}"
            );
        }
        let executed = execute_hooi(&t, &setup, &config, &ExecOptions::default());
        assert_eq!(executed.unwrap_err(), expected, "{s:e} executor");
    }
    // In range, the check must change nothing: the fits are pinned bit for
    // bit.
    let in_range = scaled(1e150);
    for (strategy, bits) in strategies
        .into_iter()
        .zip([0x3fd1_643a_f018_90f2u64, 0x3fd1_643a_f018_90f6])
    {
        let fit = solve(&in_range, strategy).unwrap().final_fit();
        assert_eq!(fit.to_bits(), bits, "{strategy:?}: fit {fit}");
    }
    let zeros = SparseTensor::from_entries(vec![6, 5, 4], &[(vec![1, 2, 3], 0.0)]);
    for strategy in strategies {
        assert_eq!(solve(&zeros, strategy).unwrap().final_fit(), 1.0);
    }
}

/// Ranks whose products no machine can hold are a typed error on every
/// entry point, never an overflow panic or an allocation abort — and the
/// session and the service stay usable.  `Π_{t≠n} R_t` of the order-9
/// probe overflows `usize` (caught by checked arithmetic at validation);
/// the order-5 one fits in `usize` but not in any address space (caught by
/// the fallible allocation).
#[test]
fn oversized_rank_products_are_typed_errors_not_aborts() {
    let too_large = |r: Result<TuckerDecomposition, TuckerError>| match r {
        Err(TuckerError::BufferTooLarge { buffer }) => buffer,
        other => panic!("expected BufferTooLarge, got {other:?}"),
    };
    for (order, dim) in [(9usize, 256usize), (5, 4096)] {
        let tensor = random_tensor(&vec![dim; order], 100, 3);
        let huge = TuckerConfig::new(vec![dim; order]).max_iterations(1);
        let small = TuckerConfig::new(vec![2; order]).max_iterations(1);
        assert!(too_large(tucker_hooi(&tensor, &huge)).contains("mode"));
        let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap();
        // Only the overflowing probe is rejected before allocating.
        match solver.validate(&huge) {
            Err(TuckerError::BufferTooLarge { .. }) => assert_eq!(order, 9),
            other => assert!(other.is_ok() && order == 5, "{other:?}"),
        }
        too_large(solver.solve(&huge));
        assert_eq!(solver.completed_solves(), 0);
        assert!(solver.solve(&small).unwrap().final_fit().is_finite());

        let mut svc = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
        svc.submit(
            "t",
            Request::Ingest {
                tensor_id: "probe".into(),
                tensor: std::sync::Arc::new(tensor.clone()),
            },
        );
        for ranks in [vec![dim; order], vec![2; order]] {
            svc.submit(
                "t",
                Request::Decompose {
                    tensor_id: "probe".into(),
                    ranks,
                    seed: 1,
                    max_iters: 1,
                    deadline: None,
                },
            );
        }
        let done = svc.run_until_idle();
        assert!(matches!(
            done[1].outcome,
            Err(TuckerError::BufferTooLarge { .. })
        ));
        assert!(matches!(done[2].outcome, Ok(Response::Decomposed { .. })));
    }
}

/// A mode too large to index — `dim + 1` words past `isize::MAX` bytes —
/// is a typed error naming the mode, found by arithmetic before the
/// symbolic step or the tree allocates anything sized by it (a
/// `[1 << 61, 2, 2]` plan used to abort with `capacity overflow`).
#[test]
fn overflow_sized_modes_are_typed_errors_not_panics() {
    for mode in 0..3 {
        let mut dims = vec![2, 2, 2];
        dims[mode] = 1 << 61;
        let tensor = SparseTensor::from_entries(dims, &[(vec![0, 1, 0], 1.0)]);
        for threads in [1, 2] {
            match TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(threads)) {
                Err(TuckerError::BufferTooLarge { buffer }) => {
                    assert_eq!(buffer, format!("index table of mode {mode}"))
                }
                other => panic!("mode {mode}: expected BufferTooLarge, got {other:?}"),
            }
        }
        let config = TuckerConfig::new(vec![1, 1, 1]);
        assert!(matches!(
            tucker_hooi(&tensor, &config),
            Err(TuckerError::BufferTooLarge { .. })
        ));
    }
}

/// A mode far too large for any allocator but inside `isize` words — here
/// declared by a `.tns` header, as a hostile file would — fails planning
/// with the typed error naming the mode, at every strategy and pool width,
/// instead of aborting the process in a per-index table.
#[test]
fn impractical_modes_are_typed_errors_not_aborts() {
    for mode in 0..3 {
        let mut dims = [2, 2, 2];
        dims[mode] = 1 << 59;
        let text = format!(
            "# dims: {} {} {}\n1 1 1 1.0\n2 1 2 -0.5\n1 2 2 0.25\n",
            dims[0], dims[1], dims[2]
        );
        let tensor =
            tucker_repro::sptensor::io::read_tns(std::io::Cursor::new(text), None).unwrap();
        assert_eq!(tensor.dims(), &dims[..]);
        for strategy in [
            TtmcStrategy::Auto,
            TtmcStrategy::DimensionTree,
            TtmcStrategy::PerMode,
        ] {
            for threads in [1, 2] {
                let options = PlanOptions::new()
                    .num_threads(threads)
                    .ttmc_strategy(strategy);
                match TuckerSolver::plan(&tensor, options) {
                    Err(TuckerError::BufferTooLarge { buffer }) => assert!(
                        buffer.ends_with(&format!("of mode {mode}")),
                        "mode {mode}, {strategy:?}: {buffer}"
                    ),
                    other => {
                        panic!("mode {mode}, {strategy:?}: expected BufferTooLarge, got {other:?}")
                    }
                }
            }
        }
    }
}

/// A mode one index past `u32::MAX` is small enough for an allocator to
/// grant its tables, but the dimension tree stores indices in 32 bits: a
/// tree plan rejects it as the typed error naming the mode, on every host,
/// before any per-index table is allocated.  (`Auto` and `PerMode` plan it
/// per-mode, at one word per index of the mode, so neither is tried here.)
#[test]
fn a_wide_index_is_a_typed_error_for_tree_plans() {
    // The coordinates stay below 2³²: a wider one is a reader error or a
    // `push` panic (`crates/sptensor/tests/tns_roundtrip.rs`).
    let wide = u32::MAX as usize + 1;
    let tensor = SparseTensor::from_entries(
        vec![wide + 1, 3, 3],
        &[(vec![0, 1, 2], 1.0), (vec![wide - 1, 2, 0], -0.5)],
    );
    let options = PlanOptions::new()
        .num_threads(1)
        .ttmc_strategy(TtmcStrategy::DimensionTree);
    match TuckerSolver::plan(&tensor, options) {
        Err(TuckerError::BufferTooLarge { buffer }) => {
            assert!(buffer.ends_with("of mode 0"), "{buffer}")
        }
        other => panic!("expected BufferTooLarge, got {other:?}"),
    }
}

#[test]
fn observer_can_budget_iterations_from_outside() {
    let tensor = random_tensor(&[20, 20, 20], 1_000, 5);
    let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap();
    let config = TuckerConfig::new(vec![3, 3, 3])
        .max_iterations(25)
        .fit_tolerance(-1.0);
    let mut fits_seen = Vec::new();
    let result = solver
        .solve_with_observer(&config, &mut |r: &IterationReport| {
            fits_seen.push(r.fit);
            if fits_seen.len() >= 4 {
                IterationControl::Stop
            } else {
                IterationControl::Continue
            }
        })
        .unwrap();
    assert_eq!(result.iterations, 4);
    assert_eq!(fits_seen, result.fits);
}

#[test]
fn four_mode_profile_pipeline() {
    let profile = DatasetProfile::new(ProfileName::Delicious);
    let tensor = profile.generate(5_000, 21);
    assert_eq!(tensor.order(), 4);
    let config = TuckerConfig::new(vec![3, 3, 3, 3])
        .max_iterations(2)
        .seed(6);
    let result = tucker_hooi(&tensor, &config).unwrap();
    assert_eq!(result.core.dims(), &[3, 3, 3, 3]);

    // And a 4-mode distributed simulation.
    let sim = SimConfig::new(
        4,
        Grain::Fine,
        PartitionMethod::Hypergraph,
        vec![3, 3, 3, 3],
    );
    let setup = DistributedSetup::build(&tensor, &sim);
    let cost = simulate_iteration(&tensor, &setup, &MachineModel::bluegene_q(), 20);
    assert!(cost.total_seconds() > 0.0);
    assert_eq!(cost.per_mode.len(), 4);
}
