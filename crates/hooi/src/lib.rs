//! Sparse Tucker decomposition via HOOI — the primary contribution of
//! Kaya & Uçar (ICPP 2016), reimplemented in Rust.
//!
//! The pipeline mirrors the paper's Algorithm 3:
//!
//! 1. [`symbolic`] — the *symbolic TTMc* preprocessing step: for every mode
//!    `n`, build the update list `ul_n(i)` of nonzeros contributing to row
//!    `i` of the matricized TTMc result, so that the numeric step is
//!    lock-free and all index arithmetic is hoisted out of the HOOI loop.
//! 2. [`ttmc`] — the *nonzero-based* numeric TTMc (paper Eq. (4) /
//!    Algorithm 2): each nonzero contributes `x · ⊗_{t≠n} U_t(i_t, :)` to
//!    its row, computed in parallel over rows with rayon, streaming one
//!    CSF fiber hierarchy per mode; [`dimtree`] — the flop-sharing
//!    dimension-tree variant that materializes shared partial contractions
//!    once per iteration and serves every mode from them (the solver's
//!    default, [`TtmcStrategy::DimensionTree`]).
//! 3. [`trsvd`] — the truncated SVD of the matricized result using the
//!    matrix-free Lanczos solver (the SLEPc stand-in), or alternatives.
//! 4. [`solver`] — the plan/execute split: [`TuckerSolver::plan`] runs the
//!    symbolic analysis once and owns the thread pool and scratch
//!    [`workspace`]; [`TuckerSolver::solve`] /
//!    [`TuckerSolver::solve_many`] run HOOI at any rank/seed/backend
//!    without re-planning, report failures as [`TuckerError`] values, and
//!    stream [`solver::IterationReport`]s to an [`IterationObserver`].
//! 5. [`hooi`] — the result types ([`TuckerDecomposition`],
//!    [`TimingBreakdown`]) and the one-shot [`tucker_hooi`] convenience
//!    wrapper over a single-use solver session.
//!
//! Supporting modules:
//!
//! * [`hosvd`] — HOSVD-style initialization for small tensors plus the
//!   default random initialization, built per mode; [`initial_factors`]
//!   skips the mode HOOI overwrites before reading it;
//! * [`core_tensor`], [`fit`] — core extraction and fit/error metrics.

pub mod config;
pub mod core_tensor;
pub mod dimtree;
pub mod error;
pub mod fit;
pub mod hooi;
pub mod hosvd;
pub mod observers;
pub mod solver;
pub mod symbolic;
pub mod trsvd;
pub mod ttmc;
pub mod workspace;

pub use config::{IndexLayout, Initialization, TrsvdBackend, TtmcStrategy, TuckerConfig};
pub use dimtree::{per_mode_costs, DimTree, TtmcCosts};
pub use error::TuckerError;
pub use hooi::{tucker_hooi, TimingBreakdown, TuckerDecomposition};
pub use hosvd::initial_factors;
pub use observers::DeadlineObserver;
pub use solver::{
    IterationControl, IterationObserver, IterationReport, PlanOptions, TuckerSession, TuckerSolver,
};
pub use sptensor::simd::KernelIsa;
pub use symbolic::{SymbolicMode, SymbolicTtmc};
pub use ttmc::{ttmc_contribution_into, ttmc_mode, ttmc_mode_into_isa, ttmc_row_into};
pub use workspace::HooiWorkspace;
