//! HyperTensor-RS — a Rust reproduction of "High Performance Parallel
//! Algorithms for the Tucker Decomposition of Sparse Tensors"
//! (Kaya & Uçar, ICPP 2016).
//!
//! This root crate re-exports the workspace's public API so that the
//! examples and integration tests can use one import path.  See the
//! individual crates for the actual implementations:
//!
//! * [`hooi`] — the shared-memory parallel HOOI solver (symbolic TTMc,
//!   nonzero-based TTMc, dimension trees, matrix-free TRSVD),
//! * [`distsim`] — the distributed-memory simulator (coarse/fine grain,
//!   statistics and cost model) and the message-passing executor that runs
//!   Algorithm 4 over in-process channels, bit-identically to the
//!   shared-memory solver, with typed comm errors, recv deadlines, a
//!   graceful abort protocol and deterministic fault injection
//!   ([`distsim::FaultPlan`]),
//! * [`partition`] — hypergraph models and partitioners,
//! * [`service`] — the multi-tenant decomposition service: a tensor
//!   registry with one shared thread pool, a memory-budgeted plan cache,
//!   cheapest-deficit-first cross-tenant scheduling and deadline-aware
//!   solves,
//! * [`sptensor`], [`linalg`], [`datagen`] — the substrates.
//!
//! # Quickstart
//!
//! Plan once, solve many times.  [`TuckerSolver::plan`](hooi::TuckerSolver::plan)
//! runs the symbolic TTMc analysis exactly once and owns the thread pool
//! plus the scratch workspace; every `solve` after that reuses all of it —
//! at any rank, seed or TRSVD backend.  Failures are [`TuckerError`](hooi::TuckerError)
//! values, never panics.
//!
//! ```
//! use tucker_repro::prelude::*;
//!
//! # fn main() -> Result<(), TuckerError> {
//! // A small random sparse tensor, planned once.  `num_threads` sizes the
//! // session's persistent worker pool (0 = all hardware threads; workers
//! // spawn once here and serve every solve); the same code path runs
//! // fully sequentially with `num_threads(1)`.
//! let tensor = random_tensor(&[60, 50, 40], 3_000, 7);
//! let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(2))?;
//!
//! // Solve at two rank configurations without re-planning: the second
//! // solve pays zero symbolic cost.
//! let coarse = solver.solve(&TuckerConfig::new(vec![4, 4, 4]).max_iterations(5))?;
//! let fine = solver.solve(&TuckerConfig::new(vec![8, 6, 4]).max_iterations(5))?;
//! assert_eq!(coarse.core.dims(), &[4, 4, 4]);
//! assert_eq!(fine.timings.symbolic, std::time::Duration::ZERO);
//! assert!(fine.final_fit() > 0.0);
//!
//! // One-shot convenience wrapper (plans, solves, discards the plan).
//! let one_shot = tucker_hooi(&tensor, &TuckerConfig::new(vec![4, 4, 4]))?;
//! assert_eq!(one_shot.core.dims(), &[4, 4, 4]);
//! # Ok(())
//! # }
//! ```

pub use datagen;
pub use distsim;
pub use hooi;
pub use linalg;
pub use partition;
pub use service;
pub use sptensor;

/// Convenience re-exports covering the common workflow: generate or load a
/// sparse tensor, configure and run HOOI, inspect the result, and simulate
/// a distributed run.
pub mod prelude {
    pub use datagen::{lowrank_tensor, random_tensor, DatasetProfile, LowRankSpec, ProfileName};
    pub use distsim::{
        distributed_hooi, execute_hooi, execute_hooi_chaos, simulate_iteration, ChaosRun,
        CommCounters, CommError, DistributedRun, DistributedSetup, ExecOptions, FaultAction,
        FaultOp, FaultPlan, FaultTrigger, Grain, MachineModel, PartitionMethod, SimConfig,
    };
    pub use hooi::{
        tucker_hooi, DeadlineObserver, DimTree, IndexLayout, IterationControl, IterationObserver,
        IterationReport, KernelIsa, PlanOptions, TrsvdBackend, TtmcCosts, TtmcStrategy,
        TuckerConfig, TuckerDecomposition, TuckerError, TuckerSession, TuckerSolver,
    };
    pub use linalg::Matrix;
    pub use partition::{fine_grain_hypergraph, hypergraph::Hypergraph};
    pub use service::{DecompositionService, Request, Response, ServiceOptions, ServiceStats};
    pub use sptensor::{
        io::read_tns_file, io::read_tns_file_streamed, io::write_tns_file,
        io::write_tns_file_with_header, io::StreamOptions, io::StreamStats, DenseTensor,
        SparseTensor,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_workflow_compiles_and_runs() {
        let tensor = random_tensor(&[20, 20, 20], 500, 1);
        let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2);
        let d = tucker_hooi(&tensor, &config).unwrap();
        assert_eq!(d.factors.len(), 3);
    }

    #[test]
    fn prelude_session_workflow_compiles_and_runs() {
        let tensor = random_tensor(&[20, 20, 20], 500, 1);
        let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap();
        let results = solver
            .solve_many(&[
                TuckerConfig::new(vec![2, 2, 2]).max_iterations(2),
                TuckerConfig::new(vec![3, 2, 2]).max_iterations(2),
            ])
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].timings.symbolic, std::time::Duration::ZERO);
    }
}
