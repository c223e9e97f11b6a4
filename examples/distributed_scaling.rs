//! Distributed-memory scenario, in three acts:
//!
//! 1. **Execute** the distributed algorithm for real: 8 message-passing
//!    ranks (long-lived threads that share nothing and exchange expand/fold
//!    messages over channels) decompose a Flickr-profile tensor and the
//!    result is compared *bit for bit* against the shared-memory
//!    `TuckerSolver`.
//! 2. **Cross-validate** the cost model: the words the executor actually
//!    moved (measured by the communicator's counters) against the words
//!    `iteration_stats` predicted.
//! 3. **Simulate** strong scaling to 32 ranks with the BlueGene/Q cost
//!    model — the part that extrapolates beyond one machine.
//!
//! ```text
//! cargo run --release --example distributed_scaling
//! ```

use tucker_repro::distsim::{iteration_stats, Phase};
use tucker_repro::prelude::*;

fn main() -> Result<(), TuckerError> {
    let profile = DatasetProfile::new(ProfileName::Flickr);
    let tensor = profile.generate(20_000, 5);
    let ranks = profile.paper_ranks().to_vec();
    println!(
        "Flickr-profile tensor {:?} with {} nonzeros, ranks {:?}",
        tensor.dims(),
        tensor.nnz(),
        ranks
    );

    // 1. Execute: 8 fine-grain message-passing ranks must reproduce the
    //    shared-memory result exactly, not approximately.
    let tucker = TuckerConfig::new(ranks.clone()).max_iterations(3).seed(17);
    // The executor replays the per-mode TTMc arithmetic, so the reference
    // solver pins `PerMode` (the dimension-tree default reassociates the
    // accumulation and matches only within tolerance).
    let mut solver = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::PerMode),
    )?;
    let shared = solver.solve(&tucker)?;
    let config = SimConfig::new(8, Grain::Fine, PartitionMethod::Hypergraph, ranks.clone());
    let setup = DistributedSetup::build(&tensor, &config);
    let run = execute_hooi(&tensor, &setup, &tucker, &ExecOptions::default())?;
    let identical = run.decomposition.factors == shared.factors
        && run.decomposition.core.as_slice() == shared.core.as_slice()
        && run.decomposition.fits == shared.fits;
    println!(
        "\n8 ranks, fine-hp: fit {:.6} in {:.1} ms wall, {} KB moved — bit-identical to TuckerSolver: {}",
        run.decomposition.final_fit(),
        run.wall.as_secs_f64() * 1e3,
        run.total_bytes() / 1024,
        identical
    );
    assert!(identical, "executor must match the solver exactly");

    // 2. Cross-validate: measured expand/fold words vs the analytic
    //    prediction, rank by rank.
    let stats = iteration_stats(&tensor, &setup, 20);
    let iters = run.decomposition.iterations as u64;
    let expand_pred = stats.expand_words_per_rank();
    let fold_pred = stats.fold_words_per_rank();
    println!("\nmeasured vs predicted words per rank ({iters} iterations):");
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14}",
        "rank", "expand-meas", "expand-pred", "fold-meas", "fold-pred"
    );
    for (r, counters) in run.comm.iter().enumerate() {
        let em = counters.phase(Phase::Expand).floats_transferred();
        let fm = counters.phase(Phase::Fold).floats_transferred();
        let ep = iters * expand_pred[r];
        let fp = iters * fold_pred[r];
        assert_eq!(em, ep, "rank {r}: expand prediction missed");
        assert_eq!(fm, fp, "rank {r}: fold prediction missed");
        println!("{r:>5} {em:>14} {ep:>14} {fm:>14} {fp:>14}");
    }

    // 3. Simulated strong scaling (a miniature of Table II).
    println!("\nsimulated seconds per HOOI iteration (BG/Q cost model, 32 threads/rank):");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "#ranks", "fine-hp", "fine-rd", "coarse-hp", "coarse-bl"
    );
    let machine = MachineModel::bluegene_q();
    for &p in &[1usize, 2, 4, 8, 16, 32] {
        let mut row = format!("{p:>8}");
        for (grain, method) in [
            (Grain::Fine, PartitionMethod::Hypergraph),
            (Grain::Fine, PartitionMethod::Random),
            (Grain::Coarse, PartitionMethod::Hypergraph),
            (Grain::Coarse, PartitionMethod::Block),
        ] {
            let c = SimConfig::new(p, grain, method, ranks.clone());
            let s = DistributedSetup::build(&tensor, &c);
            let cost = simulate_iteration(&tensor, &s, &machine, 20);
            row.push_str(&format!(" {:>12.4}", cost.total_seconds()));
        }
        println!("{row}");
    }
    Ok(())
}
