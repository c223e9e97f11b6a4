//! Regenerates Table V of the paper: shared-memory scalability — time per
//! HOOI iteration as the number of threads per node grows from 1 to 32,
//! using the minimum number of nodes that fits each tensor (8/8/1/4 in the
//! paper; the simulation keeps those node counts).
//!
//! Two views are reported:
//!
//! 1. the simulated time from the cost model (which encodes the paper's
//!    observation that TTMc is latency bound and benefits from SMT while
//!    the TRSVD is bandwidth bound and saturates), and
//! 2. a measured wall-clock per-iteration time of the real shared-memory
//!    solver with that many rayon threads (meaningful only up to the number
//!    of physical cores of the host running this binary).

use bench::{
    cli_args, cli_tensor, print_header, profile_tensor, run_requested_check,
    simulated_iteration_seconds, table_nnz,
};
use datagen::ProfileName;
use distsim::{Grain, PartitionMethod};
use hooi::{PlanOptions, TtmcStrategy, TuckerConfig, TuckerSolver};
use std::time::Instant;

fn measured_seconds_per_iteration(
    tensor: &sptensor::SparseTensor,
    ranks: &[usize],
    threads: usize,
    strategy: TtmcStrategy,
) -> f64 {
    // The session's pool is fixed at plan time, so the thread sweep plans
    // one session per thread count and times the solve (the symbolic
    // analysis stays outside the measurement, as in the paper's tables).
    let options = PlanOptions::new()
        .num_threads(threads)
        .ttmc_strategy(strategy);
    let mut solver = TuckerSolver::plan(tensor, options).expect("plan failed");
    let config = TuckerConfig::new(ranks.to_vec())
        .max_iterations(2)
        .fit_tolerance(-1.0)
        .seed(3);
    let t0 = Instant::now();
    let result = solver.solve(&config).expect("solve failed");
    t0.elapsed().as_secs_f64() / result.iterations as f64
}

fn main() {
    let args = cli_args();
    let threads_sweep = [1usize, 2, 4, 8, 16, 32];

    if let Some((label, tensor, ranks)) = cli_tensor(&args) {
        print_header(
            "Table V — shared-memory scalability (time per iteration vs #threads)",
            &format!(
                "Supplied tensor '{label}', fine-hp partition on a single node.\n\
                 'sim' rows use the BG/Q cost model{}.",
                if args.sim_only {
                    "; measured rows skipped (--sim-only)"
                } else {
                    "; 'meas' rows run the real rayon solver on this host"
                }
            ),
        );
        println!("{:>8} {:>14}", "#threads", label);
        for &threads in &threads_sweep {
            let secs = simulated_iteration_seconds(
                &tensor,
                1,
                Grain::Fine,
                PartitionMethod::Hypergraph,
                &ranks,
                threads,
            );
            println!("{threads:>8} {secs:>14.4}  (sim)");
        }
        println!();
        if !args.sim_only {
            let host_cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            for &threads in threads_sweep
                .iter()
                .filter(|&&t| t <= (2 * host_cores).max(2))
            {
                let secs =
                    measured_seconds_per_iteration(&tensor, &ranks, threads, TtmcStrategy::Auto);
                println!("{threads:>8} {secs:>14.4}  (meas, this host)");
            }
            println!();
        }
        run_requested_check(&args, &tensor, &ranks);
        return;
    }

    let nnz = table_nnz();
    // Minimum node counts per dataset, as in the paper.
    let datasets = [
        (ProfileName::Delicious, 8usize),
        (ProfileName::Flickr, 8),
        (ProfileName::Nell, 1),
        (ProfileName::Netflix, 4),
    ];
    print_header(
        "Table V — shared-memory scalability (time per iteration vs #threads)",
        &format!(
            "fine-hp partition on the minimum node count per tensor (in parentheses), ~{nnz} nonzeros.\n\
             'sim' columns use the BG/Q cost model; 'meas' columns run the real rayon solver on this host\n\
             (host cores: {}).",
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        ),
    );

    println!(
        "{:>8} {}",
        "#threads",
        datasets
            .iter()
            .map(|(n, nodes)| format!("{:>14}", format!("{} ({nodes})", n.as_str())))
            .collect::<Vec<_>>()
            .join("")
    );

    // Simulated sweep.
    for &threads in &threads_sweep {
        let mut row = format!("{threads:>8}");
        for (name, nodes) in datasets {
            let (profile, tensor) = profile_tensor(name, nnz, 42);
            let ranks = profile.paper_ranks().to_vec();
            let secs = simulated_iteration_seconds(
                &tensor,
                nodes,
                Grain::Fine,
                PartitionMethod::Hypergraph,
                &ranks,
                threads,
            );
            row.push_str(&format!("{:>14.4}", secs));
        }
        println!("{row}  (sim)");
    }
    println!();

    // Measured sweep on this host (single node, real solver).  Cap the
    // thread counts at twice the available cores to keep the run short.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let measured_threads: Vec<usize> = threads_sweep
        .iter()
        .copied()
        .filter(|&t| t <= (2 * host_cores).max(2))
        .collect();
    for &threads in &measured_threads {
        let mut row = format!("{threads:>8}");
        for (name, _) in datasets {
            let (profile, tensor) = profile_tensor(name, nnz, 42);
            let ranks = profile.paper_ranks().to_vec();
            let secs = measured_seconds_per_iteration(&tensor, &ranks, threads, TtmcStrategy::Auto);
            row.push_str(&format!("{:>14.4}", secs));
        }
        println!("{row}  (meas, single node on this host)");
    }
    println!();
    println!("Paper reference (1 -> 32 threads): Delicious 1182.7 -> 164.9 s (7.2x), Flickr 5.1x,");
    println!("NELL 9.8x, Netflix 20x (superlinear on 16 cores thanks to 2-way SMT).");
}
