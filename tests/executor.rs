//! Executor/solver bit-identity and communication cross-validation.
//!
//! The distributed executor's contract is *exact* agreement with the
//! shared-memory [`TuckerSolver`] — same factors, same core, same fits, to
//! the last bit — across every grain, partitioning method, and rank count,
//! plus word-exact agreement between the communicator's measured traffic
//! and [`iteration_stats`]' predictions.  These tests are the `executor-
//! smoke` CI gate.
//!
//! The executor replays the *per-mode* TTMc accumulation order, so every
//! reference solver here is planned with [`TtmcStrategy::PerMode`]; the
//! solver's default dimension-tree fast path reassociates the arithmetic
//! and agrees only within tolerance (covered by `tests/ttmc_strategies.rs`).

use tucker_repro::distsim::{iteration_stats, Phase};
use tucker_repro::prelude::*;

use std::time::Duration;

fn bits(m: &linalg::Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_identical(a: &TuckerDecomposition, b: &TuckerDecomposition, label: &str) {
    assert_eq!(a.fits, b.fits, "{label}: fits diverged");
    assert_eq!(a.iterations, b.iterations, "{label}: iteration counts");
    for (m, (ua, ub)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
        assert_eq!(bits(ua), bits(ub), "{label}: factor {m} not bit-identical");
    }
    assert_eq!(
        a.core
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        b.core
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        "{label}: core not bit-identical"
    );
}

/// The executor's central property: `distributed_hooi` matches
/// `TuckerSolver::solve` exactly across both grains, all three partitioning
/// methods, and 1/2/4 ranks.
#[test]
fn executor_matches_solver_exactly_across_the_grid() {
    let tensor = random_tensor(&[22, 18, 14], 800, 31);
    let config = TuckerConfig::new(vec![3, 2, 3]).max_iterations(3).seed(7);
    let mut solver = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::PerMode),
    )
    .unwrap();
    let reference = solver.solve(&config).unwrap();
    for grain in [Grain::Fine, Grain::Coarse] {
        for method in [
            PartitionMethod::Random,
            PartitionMethod::Block,
            PartitionMethod::Hypergraph,
        ] {
            for num_ranks in [1usize, 2, 4] {
                let sim = SimConfig::new(num_ranks, grain, method, vec![3, 2, 3]);
                let setup = DistributedSetup::build(&tensor, &sim);
                let dist = distributed_hooi(&tensor, &setup, &config).unwrap();
                assert_identical(
                    &dist,
                    &reference,
                    &format!("{grain:?}/{method:?}/{num_ranks} ranks"),
                );
            }
        }
    }
}

/// Randomized-tensor variant of the same property: many tensors, one
/// configuration each, so the property does not depend on one fixed
/// sparsity pattern.
#[test]
fn executor_matches_solver_on_random_tensors() {
    for seed in 0..6u64 {
        let dims = [
            10 + (seed as usize * 7) % 15,
            8 + (seed as usize * 5) % 12,
            6 + (seed as usize * 3) % 9,
        ];
        let nnz = 200 + (seed as usize * 131) % 400;
        let tensor = random_tensor(&dims, nnz, seed);
        let config = TuckerConfig::new(vec![2, 2, 2])
            .max_iterations(2)
            .seed(seed ^ 0xabcd);
        let mut solver = TuckerSolver::plan(
            &tensor,
            PlanOptions::new()
                .num_threads(1)
                .ttmc_strategy(TtmcStrategy::PerMode),
        )
        .unwrap();
        let reference = solver.solve(&config).unwrap();
        let grain = if seed % 2 == 0 {
            Grain::Fine
        } else {
            Grain::Coarse
        };
        let sim = SimConfig::new(3, grain, PartitionMethod::Hypergraph, vec![2, 2, 2]);
        let setup = DistributedSetup::build(&tensor, &sim);
        let dist = distributed_hooi(&tensor, &setup, &config).unwrap();
        assert_identical(&dist, &reference, &format!("seed {seed} ({grain:?})"));
    }
}

/// Predicted-vs-measured comm volume on one coarse-grain and one
/// fine-grain configuration — the ISSUE's acceptance criterion.
#[test]
fn measured_comm_volume_matches_iteration_stats() {
    let tensor = random_tensor(&[30, 24, 18], 1200, 5);
    let config = TuckerConfig::new(vec![3, 3, 3]).max_iterations(3).seed(2);
    for (grain, method, p) in [
        (Grain::Fine, PartitionMethod::Hypergraph, 4),
        (Grain::Coarse, PartitionMethod::Block, 3),
    ] {
        let sim = SimConfig::new(p, grain, method, vec![3, 3, 3]);
        let setup = DistributedSetup::build(&tensor, &sim);
        let run = execute_hooi(&tensor, &setup, &config, &ExecOptions::default()).unwrap();
        let stats = iteration_stats(&tensor, &setup, 20);
        let iters = run.decomposition.iterations as u64;
        assert!(iters > 0);
        let expand = stats.expand_words_per_rank();
        let fold = stats.fold_words_per_rank();
        for r in 0..p {
            assert_eq!(
                run.comm[r].phase(Phase::Expand).floats_transferred(),
                iters * expand[r],
                "{grain:?}/{method:?} rank {r}: expand words"
            );
            assert_eq!(
                run.comm[r].phase(Phase::Fold).floats_transferred(),
                iters * fold[r],
                "{grain:?}/{method:?} rank {r}: fold words"
            );
        }
        if grain == Grain::Coarse {
            assert!(
                run.comm
                    .iter()
                    .all(|c| c.phase(Phase::Fold).messages_sent == 0),
                "coarse grain never splits a row, so nothing folds"
            );
        }
        // The allreduced cluster totals agree with the joined counters.
        let sent: u64 = run
            .comm
            .iter()
            .map(|c| c.phase(Phase::Expand).floats_sent)
            .sum();
        assert_eq!(run.cluster_expand_floats, sent as f64);
    }
}

/// The failure contract next to the bit-identity contract: a mid-solve
/// link cut turns into `TuckerError::RankFailed` on every rank (never a
/// panic, never a hang), while the same configuration without the fault
/// still matches the shared-memory solver exactly.  The full chaos matrix
/// lives in `tests/faults.rs`; this is the executor-smoke view of it.
#[test]
fn executor_failure_is_a_typed_error_not_a_hang() {
    let tensor = random_tensor(&[18, 14, 10], 500, 13);
    let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(3).seed(6);
    let sim = SimConfig::new(3, Grain::Fine, PartitionMethod::Block, vec![2, 2, 2]);
    let setup = DistributedSetup::build(&tensor, &sim);
    let opts = ExecOptions::new().recv_timeout(Duration::from_millis(400));
    let plan = FaultPlan::one(FaultTrigger {
        rank: 2,
        peer: 0,
        op: FaultOp::Recv,
        nth: 1,
        action: FaultAction::Disconnect,
    });
    let run = execute_hooi_chaos(&tensor, &setup, &config, &opts, &plan).unwrap();
    assert!(run.faults_fired >= 1, "the injected fault must fire");
    match &run.outcome {
        Err(TuckerError::RankFailed { phase, source, .. }) => {
            assert!(!phase.is_empty(), "failure must name its phase");
            assert!(!source.is_empty(), "failure must carry its cause");
        }
        other => panic!("expected RankFailed, got {other:?}"),
    }
    for (r, e) in run.rank_errors.iter().enumerate() {
        assert!(
            matches!(e, Some(TuckerError::RankFailed { .. })),
            "rank {r} must fail typed, got {e:?}"
        );
    }
    // The identical configuration without the fault still holds the
    // bit-identity contract.
    let clean = execute_hooi(&tensor, &setup, &config, &opts).unwrap();
    let mut solver = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::PerMode),
    )
    .unwrap();
    let reference = solver.solve(&config).unwrap();
    assert_identical(&clean.decomposition, &reference, "post-chaos clean run");
}

/// `solve_many`-style reuse on the executor side: running the same
/// configuration twice, and a different rank configuration in between,
/// stays deterministic.
#[test]
fn executor_runs_are_reproducible() {
    let tensor = random_tensor(&[18, 18, 18], 700, 12);
    let sim = SimConfig::new(3, Grain::Fine, PartitionMethod::Random, vec![3, 3, 3]);
    let setup = DistributedSetup::build(&tensor, &sim);
    let config_a = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2).seed(1);
    let config_b = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2).seed(1);
    let first = distributed_hooi(&tensor, &setup, &config_a).unwrap();
    let other = distributed_hooi(&tensor, &setup, &config_b).unwrap();
    let second = distributed_hooi(&tensor, &setup, &config_a).unwrap();
    assert_identical(&first, &second, "repeat run");
    assert_eq!(other.core.dims(), &[2, 2, 2]);
}
