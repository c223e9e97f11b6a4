//! Executor cross-validation and failure model.
//!
//! The executor is a member of every per-mode class of the determinism
//! contract (stated in `tests/determinism.rs`): across both grains, the
//! three partitioning methods, 1–4 ranks and `rank_threads` 1 and 2 it
//! must reproduce the blessed per-mode digests, so its bits are those of
//! the shared-memory per-mode solve at any pool width.  These tests add
//! word-exact agreement between the communicator's measured traffic and
//! [`iteration_stats`]' predictions and the typed failure of a cut link;
//! together they are the `executor-smoke` CI gate.
//!
//! The executor replays the *per-mode* TTMc accumulation order, so every
//! reference solver here is planned with [`TtmcStrategy::PerMode`].

mod contract;

use contract::*;
use tucker_repro::distsim::{iteration_stats, Phase};
use tucker_repro::prelude::*;

use std::time::Duration;

/// Every grain × partitioning method × 1–4 ranks at one and two threads
/// per rank.
fn full_grid() -> Vec<(Grain, PartitionMethod, usize, usize)> {
    let mut grid = Vec::new();
    for grain in [Grain::Fine, Grain::Coarse] {
        for method in [
            PartitionMethod::Random,
            PartitionMethod::Block,
            PartitionMethod::Hypergraph,
        ] {
            for num_ranks in 1..=4 {
                for rank_threads in [1, 2] {
                    grid.push((grain, method, num_ranks, rank_threads));
                }
            }
        }
    }
    grid
}

/// Runs the executor on every input `select` keeps: the full grid on the
/// small inputs, and on the profiles at their paper ranks two corners of
/// it, a fine-grain random partition over 4 ranks of 2 threads and a
/// coarse-grain block partition over 3 ranks of 1 (a hypergraph partition
/// of an order-4 profile alone takes seconds).
fn check_executor_members(select: impl Fn(&Input) -> bool) {
    check_members(select, |input| {
        let grid = match input.scope {
            Scope::Small => full_grid(),
            Scope::Profile => vec![
                (Grain::Fine, PartitionMethod::Random, 4, 2),
                (Grain::Coarse, PartitionMethod::Block, 3, 1),
            ],
            Scope::Sweep => vec![],
        };
        let mut runs = Vec::new();
        for (grain, method, num_ranks, rank_threads) in grid {
            let sim = SimConfig::new(num_ranks, grain, method, input.config.ranks.clone());
            let setup = DistributedSetup::build(&input.tensor, &sim);
            let options = ExecOptions::new().rank_threads(rank_threads);
            let run = execute_hooi(&input.tensor, &setup, &input.config, &options).unwrap();
            let member = format!(
                "executor {grain:?}/{method:?}/{num_ranks} ranks at rank_threads {rank_threads}"
            );
            runs.push((TtmcStrategy::PerMode, member, digest_of(&run.decomposition)));
        }
        runs
    });
}

/// The grid tensor (`[22, 18, 14]`, 800 nonzeros, 3 iterations) across the
/// whole grid.
#[test]
fn executor_matches_solver_exactly_across_the_grid() {
    check_executor_members(|input| input.name == "executor-grid");
}

/// The random tensors of orders 2–5 and the six small order-3 tensors
/// across the whole grid, and the profiles at two corners of it.
#[test]
fn executor_matches_solver_on_random_tensors() {
    check_executor_members(|input| input.name != "executor-grid");
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
    let faults = FaultPlan::one(FaultTrigger {
        rank: 2,
        peer: 0,
        op: FaultOp::Recv,
        nth: 1,
        action: FaultAction::Disconnect,
    });
    let run = execute_hooi_chaos(&tensor, &setup, &config, &opts, &faults).unwrap();
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
    let reference = plan(&tensor, TtmcStrategy::PerMode, 1)
        .solve(&config)
        .unwrap();
    assert_eq!(
        digest_of(&clean.decomposition),
        digest_of(&reference),
        "post-chaos clean run diverged from the per-mode solve"
    );
}

/// Setup reuse on the executor side: the grid tensor's setup over 3 ranks
/// runs its configuration, a different rank configuration, and its
/// configuration again; both runs of its configuration reproduce the
/// blessed per-mode digest.
#[test]
fn executor_runs_are_reproducible() {
    check_members(
        |input| input.name == "executor-grid",
        |input| {
            let (tensor, config) = (&input.tensor, &input.config);
            let ranks = config.ranks.clone();
            let sim = SimConfig::new(3, Grain::Fine, PartitionMethod::Random, ranks);
            let setup = DistributedSetup::build(tensor, &sim);
            let other = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2).seed(1);
            let first = distributed_hooi(tensor, &setup, config).unwrap();
            let between = distributed_hooi(tensor, &setup, &other).unwrap();
            let second = distributed_hooi(tensor, &setup, config).unwrap();
            assert_eq!(between.core.dims(), &[2, 2, 2]);
            [
                ("first run on a setup", first),
                ("run after another", second),
            ]
            .into_iter()
            .map(|(member, run)| {
                let member = format!("distributed_hooi, {member}");
                (TtmcStrategy::PerMode, member, digest_of(&run))
            })
            .collect()
        },
    );
}
