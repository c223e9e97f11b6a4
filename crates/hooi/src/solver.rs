//! The plan/execute split: a reusable Tucker solver session.
//!
//! The paper's central trick is hoisting all index arithmetic into a
//! one-time *symbolic TTMc* step.  A one-shot `tucker_hooi` call throws
//! that work away after every decomposition; [`TuckerSolver`] keeps it.
//! [`TuckerSolver::plan`] performs the symbolic analysis once and owns the
//! persistent worker pool (threads spawn at plan time and serve every
//! solve — [`TimingBreakdown::pool`](crate::TimingBreakdown::pool) is
//! nonzero only on the first solve) plus the [`HooiWorkspace`] scratch
//! (the compact TTMc buffer, the short Lanczos basis and its product
//! vector, the core buffer);
//! [`TuckerSolver::solve`] then runs HOOI at any rank/seed/backend without
//! re-planning, and [`TuckerSolver::solve_many`] amortizes one plan across
//! a batch of configurations — the shape a long-lived decomposition service
//! needs.
//!
//! Failures are values ([`TuckerError`]), and every iteration can be
//! observed (and stopped early) through an [`IterationObserver`].
//!
//! ```
//! use hooi::{PlanOptions, TuckerConfig, TuckerSolver};
//! use sptensor::SparseTensor;
//!
//! let tensor = SparseTensor::from_entries(
//!     vec![6, 5, 4],
//!     &[
//!         (vec![0, 0, 0], 1.0),
//!         (vec![1, 2, 3], 2.0),
//!         (vec![5, 4, 1], 3.0),
//!         (vec![2, 1, 2], 4.0),
//!     ],
//! );
//! let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1))?;
//! let coarse = solver.solve(&TuckerConfig::new(vec![2, 2, 2]))?;
//! let fine = solver.solve(&TuckerConfig::new(vec![3, 3, 3]))?;
//! // The symbolic analysis ran exactly once, at plan time: the second
//! // solve reports zero symbolic cost.
//! assert!(coarse.timings.symbolic >= fine.timings.symbolic);
//! assert_eq!(fine.timings.symbolic, std::time::Duration::ZERO);
//! # Ok::<(), hooi::TuckerError>(())
//! ```

use crate::config::{IndexLayout, TtmcStrategy, TuckerConfig};
use crate::core_tensor::core_from_last_ttmc_into;
use crate::dimtree::{self, DimTree};
use crate::error::{validated_squared_norm, TuckerError};
use crate::fit::fit_from_norms;
use crate::hooi::{TimingBreakdown, TuckerDecomposition};
use crate::hosvd::initial_factors;
use crate::symbolic::SymbolicTtmc;
use crate::trsvd::trsvd_factor_with;
use crate::ttmc::ttmc_mode_into_isa;
use crate::workspace::HooiWorkspace;
use sptensor::simd::KernelIsa;
use sptensor::SparseTensor;
use std::time::{Duration, Instant};

/// Options fixed at planning time: everything the session keeps alive
/// across solves, as opposed to the per-solve [`TuckerConfig`].
///
/// The per-mode index structure is not an option: every per-mode plan
/// streams one CSF hierarchy per mode, and
/// [`TuckerSession::index_layout`] reports what a plan holds.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// Worker thread count of the session's pool; `0` (the default) uses
    /// every available hardware thread.  Ignored when
    /// [`caller_pool`](Self::caller_pool) is set.
    pub num_threads: usize,
    /// How the session computes its TTMc sweeps.  Fixed at plan time
    /// because the dimension tree's symbolic grouping is part of the plan;
    /// defaults to [`TtmcStrategy::Auto`], which compares the strategies'
    /// modeled flops for this tensor and keeps the cheaper one.  Single-
    /// mode tensors fall back to [`TtmcStrategy::PerMode`] silently.
    pub ttmc_strategy: TtmcStrategy,
    /// When `true`, the session builds **no pool of its own**: the symbolic
    /// analysis and every solve run in whatever thread context the caller
    /// establishes (e.g. inside `shared_pool.install(..)`).  This is how a
    /// multi-tenant service runs many cached sessions on *one* shared pool
    /// instead of spawning workers per planned tensor.  Results do not
    /// depend on the caller's pool or its width.
    pub use_caller_pool: bool,
}

impl PlanOptions {
    /// Default options: all hardware threads, flop-model-picked TTMc
    /// strategy ([`TtmcStrategy::Auto`]).
    pub fn new() -> Self {
        PlanOptions::default()
    }

    /// Builder-style setter for the worker thread count (`0` = all
    /// available hardware threads).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builder-style setter for the TTMc strategy of the session.
    pub fn ttmc_strategy(mut self, strategy: TtmcStrategy) -> Self {
        self.ttmc_strategy = strategy;
        self
    }

    /// Builder-style opt-in to [`use_caller_pool`](Self::use_caller_pool):
    /// plan and solve in the caller's ambient thread context instead of
    /// building a session-owned pool.
    pub fn caller_pool(mut self) -> Self {
        self.use_caller_pool = true;
        self
    }
}

/// The per-mode rank the [`TtmcStrategy::Auto`] cost comparison evaluates
/// both strategies at (clamped to each mode's size).  The winner is robust
/// to the exact hint — flop sharing either pays on a sparsity profile or it
/// does not — but the hint must be fixed so the resolution is a
/// deterministic function of the tensor alone.
const AUTO_RANK_HINT: usize = 8;

/// Plan-time TTMc strategy resolution of [`TuckerSolver::plan`]: turns the
/// requested strategy into concrete plan artifacts — the symbolic analysis
/// and the dimension tree when that strategy runs.  Each plan holds only
/// what its solves read: a per-mode plan the update lists and the CSF
/// hierarchies its kernel streams ([`SymbolicTtmc::build`]), a tree plan
/// the tree plus each mode's row set, read off the tree's leaves
/// ([`SymbolicTtmc::from_tree`]) with no pass over the nonzeros.
///
/// [`TtmcStrategy::Auto`] builds the tree, prices both strategies with the
/// plan-time cost model ([`DimTree::costs`] vs [`dimtree::per_mode_costs`],
/// which reads only the row counts) at a fixed rank hint, and keeps the
/// cheaper one; ties resolve to the simpler per-mode sweep, whose symbolic
/// analysis is built only then.  Whether a tree is built at all is a
/// function of the tensor's shape ([`builds_tree`]).
fn resolve_plan(
    tensor: &SparseTensor,
    requested: TtmcStrategy,
) -> Result<(SymbolicTtmc, Option<DimTree>), TuckerError> {
    if !builds_tree(tensor.dims(), tensor.nnz(), requested)? {
        return Ok((SymbolicTtmc::try_build(tensor)?, None));
    }
    let tree = DimTree::try_build(tensor)?;
    let rows = SymbolicTtmc::from_tree(&tree, tensor.dims())?;
    if requested == TtmcStrategy::Auto {
        let hint: Vec<usize> = tensor
            .dims()
            .iter()
            .map(|&d| d.min(AUTO_RANK_HINT))
            .collect();
        let tree_flops = tree.costs(&hint).flops;
        let per_mode_flops = dimtree::per_mode_costs(&rows, tensor.nnz(), &hint).flops;
        if tree_flops >= per_mode_flops {
            // The per-mode sweep won: free the tree before its lists grow.
            drop(tree);
            return Ok((SymbolicTtmc::try_build(tensor)?, None));
        }
    }
    Ok((rows, Some(tree)))
}

/// Whether [`resolve_plan`] builds a dimension tree for a tensor with mode
/// sizes `dims` and `nnz` nonzeros under `requested`.  Never for an order-1
/// tensor (there is no tree over a single mode) or a `PerMode` request;
/// under `Auto`, not for a shape whose indices do not fit the tree's 32-bit
/// arrays ([`DimTree::check_index_width`]), and an explicit `DimensionTree`
/// request on such a shape gets that check's error before anything is
/// allocated.
pub(crate) fn builds_tree(
    dims: &[usize],
    nnz: usize,
    requested: TtmcStrategy,
) -> Result<bool, TuckerError> {
    if dims.len() < 2 || requested == TtmcStrategy::PerMode {
        return Ok(false);
    }
    match DimTree::check_index_width(dims, nnz) {
        Err(_) if requested == TtmcStrategy::Auto => Ok(false),
        fits => fits.map(|()| true),
    }
}

/// What one completed HOOI iteration looked like, as handed to an
/// [`IterationObserver`].
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Fit after this iteration (1 = exact reconstruction).
    pub fit: f64,
    /// Fit improvement over the previous iteration; on the first iteration
    /// this is the fit itself (the baseline model explains nothing).
    pub fit_improvement: f64,
    /// Numeric TTMc time of this iteration.
    pub ttmc: Duration,
    /// TRSVD time of this iteration.
    pub trsvd: Duration,
    /// Core-formation time of this iteration.
    pub core: Duration,
}

/// An observer's verdict after seeing an [`IterationReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationControl {
    /// Keep iterating (subject to the configuration's own stopping rules).
    Continue,
    /// Stop after this iteration; the decomposition reflects the state at
    /// the moment of the request.
    Stop,
}

/// Per-iteration callback: progress reporting, convergence logging, and
/// early stopping under a caller-side budget (wall clock, fit target, …).
///
/// Any `FnMut(&IterationReport) -> IterationControl` closure is an
/// observer:
///
/// ```
/// use hooi::{IterationControl, IterationReport, PlanOptions, TuckerConfig, TuckerSolver};
/// use sptensor::SparseTensor;
///
/// let tensor = SparseTensor::from_entries(
///     vec![5, 5, 5],
///     &[(vec![0, 1, 2], 1.0), (vec![3, 2, 0], 2.0), (vec![4, 4, 4], 3.0)],
/// );
/// let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1))?;
/// let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(50);
/// let mut seen = 0;
/// let result = solver.solve_with_observer(&config, &mut |r: &IterationReport| {
///     seen += 1;
///     if r.fit > 0.99 || r.iteration >= 2 {
///         IterationControl::Stop
///     } else {
///         IterationControl::Continue
///     }
/// })?;
/// assert_eq!(result.iterations, seen);
/// assert!(result.iterations <= 2);
/// # Ok::<(), hooi::TuckerError>(())
/// ```
pub trait IterationObserver {
    /// Called after every completed iteration (factor sweep + core + fit).
    fn on_iteration(&mut self, report: &IterationReport) -> IterationControl;
}

impl<F: FnMut(&IterationReport) -> IterationControl> IterationObserver for F {
    fn on_iteration(&mut self, report: &IterationReport) -> IterationControl {
        self(report)
    }
}

/// The do-nothing observer used by [`TuckerSolver::solve`].
struct NoopObserver;

impl IterationObserver for NoopObserver {
    fn on_iteration(&mut self, _report: &IterationReport) -> IterationControl {
        IterationControl::Continue
    }
}

/// A planned Tucker decomposition session over one sparse tensor.
///
/// Created by [`plan`](TuckerSession::plan), which runs the symbolic TTMc
/// analysis exactly once; every subsequent [`solve`](TuckerSession::solve)
/// reuses it together with the session's thread pool and scratch workspace.
///
/// The session is generic over how the tensor is held: any
/// `T: Borrow<SparseTensor>` works.  The two shapes in use are
///
/// * [`TuckerSolver<'a>`] = `TuckerSession<&'a SparseTensor>` — the
///   borrowing session of the original API (the tensor must outlive the
///   session), and
/// * `TuckerSession<Arc<SparseTensor>>` — a *self-contained* session that
///   shares ownership of its tensor, the shape a long-lived service's plan
///   cache stores (no lifetime ties the cache entry to a registry borrow).
pub struct TuckerSession<T: std::borrow::Borrow<SparseTensor>> {
    tensor: T,
    symbolic: SymbolicTtmc,
    dimtree: Option<DimTree>,
    /// `None` when the session was planned with
    /// [`PlanOptions::use_caller_pool`]: solves then run in the ambient
    /// thread context instead of a session-owned pool.
    pool: Option<rayon::ThreadPool>,
    workspace: HooiWorkspace,
    tensor_norm: f64,
    symbolic_time: Duration,
    pool_build_time: Duration,
    completed_solves: usize,
}

/// The borrowing [`TuckerSession`]: plans against `&'a SparseTensor`, so
/// the tensor must outlive the session.  This is the shape every one-shot
/// and example workflow uses; services that own their tensors plan a
/// `TuckerSession<Arc<SparseTensor>>` instead.
pub type TuckerSolver<'a> = TuckerSession<&'a SparseTensor>;

impl<T: std::borrow::Borrow<SparseTensor>> TuckerSession<T> {
    /// Plans a session: validates the tensor, spawns the session's
    /// persistent worker pool, and runs the symbolic TTMc analysis (inside
    /// the pool) exactly once.  Worker threads live until the solver is
    /// dropped, so every solve of the session reuses them — the startup
    /// cost shows up once, in the first solve's
    /// [`TimingBreakdown::pool`](crate::TimingBreakdown::pool).
    /// With [`PlanOptions::use_caller_pool`] no pool is built at all and
    /// both the analysis and every solve run in the caller's thread
    /// context.
    ///
    /// Returns [`TuckerError::EmptyTensor`] for a tensor with no modes or
    /// no stored nonzeros, [`TuckerError::NonFiniteValue`] for a NaN or
    /// infinite value, [`TuckerError::BufferTooLarge`] naming the mode when
    /// a table with one word per index of a mode cannot be allocated, and
    /// [`TuckerError::PoolFailure`] (carrying the pool runtime's reason) if
    /// the pool cannot be built.
    pub fn plan(tensor: T, options: PlanOptions) -> Result<Self, TuckerError> {
        // Validation sums the values' squares once; the norm is its root.
        let squared_norm = validated_squared_norm(tensor.borrow())?;
        let t_pool = Instant::now();
        let pool = if options.use_caller_pool {
            // No workers of our own: parallel regions run on whatever pool
            // the caller installs around each solve.
            None
        } else {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(options.num_threads)
                    .build()
                    .map_err(|e| TuckerError::PoolFailure(e.to_string()))?,
            )
        };
        let pool_build_time = if pool.is_some() {
            t_pool.elapsed()
        } else {
            Duration::ZERO
        };
        let t0 = Instant::now();
        // The dimension tree's symbolic grouping is part of the plan: built
        // once here, reused by every solve.  [`resolve_plan`] settles an
        // `Auto` request here too, so solves never re-decide; a tree plan
        // skips the per-mode update lists and CSF hierarchies — its TTMc
        // never runs the per-mode kernel.
        let (symbolic, dimtree) = {
            let t = tensor.borrow();
            let strategy = options.ttmc_strategy;
            match &pool {
                Some(pool) => pool.install(|| resolve_plan(t, strategy)),
                None => resolve_plan(t, strategy),
            }
        }?;
        let symbolic_time = t0.elapsed();
        let order = tensor.borrow().order();
        Ok(TuckerSession {
            tensor,
            workspace: HooiWorkspace::for_order(order),
            tensor_norm: squared_norm.sqrt(),
            symbolic,
            dimtree,
            pool,
            symbolic_time,
            pool_build_time,
            completed_solves: 0,
        })
    }

    /// The planned tensor.
    pub fn tensor(&self) -> &SparseTensor {
        self.tensor.borrow()
    }

    /// The symbolic TTMc structure computed at plan time.
    pub fn symbolic(&self) -> &SymbolicTtmc {
        &self.symbolic
    }

    /// The concrete TTMc strategy this session runs: the plan-time option
    /// with the order-1 fallback applied and an [`TtmcStrategy::Auto`]
    /// request resolved to whichever strategy the cost model picked.
    pub fn ttmc_strategy(&self) -> TtmcStrategy {
        if self.dimtree.is_some() {
            TtmcStrategy::DimensionTree
        } else {
            TtmcStrategy::PerMode
        }
    }

    /// The dimension tree built at plan time, if the session uses the
    /// [`TtmcStrategy::DimensionTree`] strategy.
    pub fn dimtree(&self) -> Option<&DimTree> {
        self.dimtree.as_ref()
    }

    /// The per-mode index structure this session holds, derived from the
    /// symbolic data itself: [`IndexLayout::Csf`] on every per-mode plan,
    /// [`IndexLayout::Coo`] on dimension-tree plans, which carry no per-mode
    /// structure (the per-mode kernel's gather fallback).
    pub fn index_layout(&self) -> IndexLayout {
        if self.symbolic.mode(0).csf().is_some() {
            IndexLayout::Csf
        } else {
            IndexLayout::Coo
        }
    }

    /// The SIMD kernel tier this session's numeric kernels run at: the
    /// process-wide [`KernelIsa::resolved_default`] (AVX2 where the hardware
    /// has it, unless `TUCKER_KERNEL` forces a tier), the same for every
    /// session and every solve.
    pub fn kernel_isa(&self) -> KernelIsa {
        KernelIsa::resolved_default()
    }

    /// Wall-clock time the one-time symbolic analysis took.
    pub fn symbolic_time(&self) -> Duration {
        self.symbolic_time
    }

    /// Wall-clock time spawning the session's persistent worker pool took
    /// (paid once at plan time; solves reuse the workers).  Zero for
    /// caller-pool sessions, which own no workers.
    pub fn pool_build_time(&self) -> Duration {
        self.pool_build_time
    }

    /// Worker thread count of the session's pool; for a caller-pool session
    /// this is the thread count of the *current ambient* context, which is
    /// what a solve issued right now would run at.
    pub fn num_threads(&self) -> usize {
        match &self.pool {
            Some(pool) => pool.current_num_threads(),
            None => rayon::current_num_threads(),
        }
    }

    /// How many solves this session has completed.
    pub fn completed_solves(&self) -> usize {
        self.completed_solves
    }

    /// Measured memory footprint of the plan in bytes: the symbolic TTMc
    /// structures (on a per-mode plan the update lists and CSF hierarchies,
    /// on a tree plan the row sets and their position maps alone), the
    /// dimension tree's node groupings when that strategy runs, and the
    /// workspace scratch (the one compact TTMc buffer, sized to the widest
    /// mode, the tree's per-depth value buffers and partial-rows scratch,
    /// Lanczos scratch, core buffer).
    /// The tensor itself is *not* counted — it is owned (or shared)
    /// independently of the plan.
    ///
    /// The workspace part grows on the first solve at each rank shape, so a
    /// service that budgets its plan cache by this number should re-measure
    /// after every request, not only at plan time.
    pub fn memory_bytes(&self) -> usize {
        self.symbolic.memory_bytes()
            + self.dimtree.as_ref().map_or(0, |t| t.memory_bytes())
            + self.workspace.memory_bytes()
    }

    /// Checks a configuration against the planned tensor without running
    /// anything; returns the effective (clamped) per-mode ranks.  Besides
    /// the rank checks of [`TuckerConfig::validated_ranks`], every buffer
    /// the ranks size (compact TTMc results, tree nodes, core) must have an
    /// element count `usize` can hold, or the answer is
    /// [`TuckerError::BufferTooLarge`] naming the mode or node.
    pub fn validate(&self, config: &TuckerConfig) -> Result<Vec<usize>, TuckerError> {
        let ranks = config.validated_ranks(self.tensor.borrow().dims())?;
        HooiWorkspace::check_sizes(&self.symbolic, self.dimtree.as_ref(), &ranks)?;
        Ok(ranks)
    }

    /// Runs HOOI with this configuration, reusing the session's symbolic
    /// analysis, thread pool and scratch buffers.
    ///
    /// Any rank/seed/backend/iteration settings may vary between solves;
    /// the session's pool (fixed at plan time) runs every one.  The first
    /// solve's [`TimingBreakdown::symbolic`] reports the plan-time symbolic
    /// cost; later solves report [`Duration::ZERO`] there, because the
    /// analysis is not redone.
    pub fn solve(&mut self, config: &TuckerConfig) -> Result<TuckerDecomposition, TuckerError> {
        self.solve_with_observer(config, &mut NoopObserver)
    }

    /// [`solve`](Self::solve) with a per-iteration [`IterationObserver`]
    /// that can watch convergence and request an early stop.
    pub fn solve_with_observer(
        &mut self,
        config: &TuckerConfig,
        observer: &mut dyn IterationObserver,
    ) -> Result<TuckerDecomposition, TuckerError> {
        let ranks = self.validate(config)?;
        // Plan-time costs are charged to the first completed solve only:
        // later solves reuse the symbolic analysis and the persistent
        // workers, and their breakdowns say so by reporting zero here.
        let (symbolic_time, pool_time) = if self.completed_solves == 0 {
            (self.symbolic_time, self.pool_build_time)
        } else {
            (Duration::ZERO, Duration::ZERO)
        };
        // Field-by-field borrows: the tensor (behind `T`), the shared plan
        // data, and the mutable workspace are disjoint.
        let TuckerSession {
            tensor,
            tensor_norm,
            symbolic,
            dimtree,
            workspace,
            pool,
            ..
        } = self;
        let tensor: &SparseTensor = (*tensor).borrow();
        let tensor_norm = *tensor_norm;
        let tree = dimtree.as_ref();
        let mut run = move || {
            run_hooi(
                tensor,
                symbolic,
                tree,
                workspace,
                tensor_norm,
                &ranks,
                config,
                symbolic_time,
                pool_time,
                observer,
            )
        };
        let result = match pool {
            Some(pool) => pool.install(run),
            None => run(),
        }?;
        self.completed_solves += 1;
        Ok(result)
    }

    /// Runs a batch of configurations against one plan — the service-scale
    /// shape (one tensor, many rank/seed requests).  The session's
    /// persistent workers serve the whole batch; no threads are spawned
    /// between requests, and every result after the first reports
    /// [`Duration::ZERO`] pool and symbolic time.
    ///
    /// The whole batch is validated up front, so either every configuration
    /// runs or none does and the first offending configuration's error is
    /// returned.
    pub fn solve_many(
        &mut self,
        configs: &[TuckerConfig],
    ) -> Result<Vec<TuckerDecomposition>, TuckerError> {
        for config in configs {
            self.validate(config)?;
        }
        configs.iter().map(|config| self.solve(config)).collect()
    }
}

impl<T: std::borrow::Borrow<SparseTensor>> std::fmt::Debug for TuckerSession<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuckerSolver")
            .field("dims", &self.tensor.borrow().dims())
            .field("nnz", &self.tensor.borrow().nnz())
            .field("num_threads", &self.num_threads())
            .field("symbolic_time", &self.symbolic_time)
            .field("completed_solves", &self.completed_solves)
            .finish()
    }
}

/// The pool-agnostic HOOI driver behind every solve: numeric TTMc
/// (per-mode sweeps, or dimension-tree serves when `tree` is given) + TRSVD
/// over preplanned symbolic data, core extraction from the last mode's
/// result, fit monitoring, observer callbacks, and per-phase timing.  Fails
/// only when the workspace cannot be allocated at `ranks`, before any
/// numeric work, and then leaves the workspace empty rather than
/// half-shaped.
#[allow(clippy::too_many_arguments)]
fn run_hooi(
    tensor: &SparseTensor,
    symbolic: &SymbolicTtmc,
    tree: Option<&DimTree>,
    workspace: &mut HooiWorkspace,
    tensor_norm: f64,
    ranks: &[usize],
    config: &TuckerConfig,
    symbolic_time: Duration,
    pool_time: Duration,
    observer: &mut dyn IterationObserver,
) -> Result<TuckerDecomposition, TuckerError> {
    let order = tensor.order();
    let isa = KernelIsa::resolved_default();
    let mut timings = TimingBreakdown {
        symbolic: symbolic_time,
        pool: pool_time,
        ..TimingBreakdown::default()
    };

    let shaped = workspace
        .try_ensure(symbolic, ranks)
        .and_then(|()| tree.map_or(Ok(()), |tree| workspace.try_ensure_tree(tree, ranks)));
    if let Err(e) = shaped {
        *workspace = HooiWorkspace::for_order(order);
        return Err(e);
    }

    // Factor initialization: mode 0 holds a `0 × R_0` placeholder until
    // its first TRSVD replaces it (see `initial_factors`).
    let t_init = Instant::now();
    let mut factors = initial_factors(tensor, ranks, config);
    timings.init = t_init.elapsed();

    let mut fits: Vec<f64> = Vec::with_capacity(config.max_iterations);
    let mut singular_values = vec![Vec::new(); order];
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations += 1;
        let mut iter_ttmc = Duration::ZERO;
        let mut iter_trsvd = Duration::ZERO;

        for mode in 0..order {
            let t_ttmc = Instant::now();
            match tree {
                Some(tree) => dimtree::serve_mode_into_isa(
                    tree,
                    tensor,
                    symbolic.mode(mode),
                    &factors,
                    mode,
                    workspace,
                    isa,
                ),
                None => ttmc_mode_into_isa(
                    tensor,
                    symbolic.mode(mode),
                    &factors,
                    mode,
                    workspace.compact_mut(mode),
                    isa,
                ),
            }
            iter_ttmc += t_ttmc.elapsed();

            let t_trsvd = Instant::now();
            let (compact, scratch) = workspace.trsvd_buffers(mode);
            let result = trsvd_factor_with(
                compact,
                symbolic.mode(mode),
                tensor.dims()[mode],
                ranks[mode],
                config.trsvd,
                config.seed ^ ((mode as u64 + 1) << 8),
                scratch,
            );
            iter_trsvd += t_trsvd.elapsed();

            factors[mode] = result.factor;
            singular_values[mode] = result.singular_values;
            if let Some(tree) = tree {
                // The factor just changed: every tree node contracted with
                // it goes stale and is rebuilt on its next serve.
                dimtree::factor_updated(tree, mode, workspace);
            }
        }

        // Core tensor from the last mode's TTMc result (already computed
        // with all other factors at their new values).
        let t_core = Instant::now();
        let (compact, core) = workspace.core_buffers(order - 1);
        core_from_last_ttmc_into(
            compact,
            symbolic.mode(order - 1),
            &factors[order - 1],
            ranks,
            core,
        );
        let iter_core = t_core.elapsed();

        timings.ttmc += iter_ttmc;
        timings.trsvd += iter_trsvd;
        timings.core += iter_core;

        let fit = fit_from_norms(tensor_norm, workspace.core().frobenius_norm());
        let (improved, fit_improvement) = match fits.last() {
            Some(&prev) => (fit - prev > config.fit_tolerance, fit - prev),
            None => (true, fit),
        };
        fits.push(fit);

        let control = observer.on_iteration(&IterationReport {
            iteration: iter + 1,
            fit,
            fit_improvement,
            ttmc: iter_ttmc,
            trsvd: iter_trsvd,
            core: iter_core,
        });
        if !improved || control == IterationControl::Stop {
            break;
        }
    }

    Ok(TuckerDecomposition {
        core: workspace.core().clone(),
        factors,
        fits,
        iterations,
        singular_values,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrsvdBackend;
    use crate::hooi::tucker_hooi;
    use crate::hosvd::random_factors;
    use datagen::random_tensor;

    /// The tree-or-per-mode route reads only the shape, so the 32-bit edge
    /// is tested without a tensor of that size.
    #[test]
    fn builds_tree_routes_past_32_bits_by_shape_alone() {
        use TtmcStrategy::{Auto, DimensionTree, PerMode};
        let wide = u32::MAX as usize + 1;
        // More than `u32::MAX` nonzeros, or a declared mode of more than
        // `u32::MAX` indices: per-mode under `Auto`, named under an
        // explicit tree.
        for (dims, nnz, named) in [
            (vec![3, 4, 5], wide, format!("ids of {wide} nonzeros")),
            (vec![3, wide, 5], 10, "of mode 1".to_string()),
        ] {
            assert_eq!(builds_tree(&dims, nnz, Auto), Ok(false));
            assert_eq!(builds_tree(&dims, nnz, PerMode), Ok(false));
            match builds_tree(&dims, nnz, DimensionTree) {
                Err(TuckerError::BufferTooLarge { buffer }) => {
                    assert!(buffer.ends_with(&named), "{buffer}")
                }
                other => panic!("expected BufferTooLarge, got {other:?}"),
            }
        }
        // `u32::MAX` of either takes the tree.
        for (dims, nnz) in [(vec![3, 4, 5], wide - 1), (vec![3, wide - 1, 5], 10)] {
            assert_eq!(builds_tree(&dims, nnz, Auto), Ok(true));
            assert_eq!(builds_tree(&dims, nnz, DimensionTree), Ok(true));
            assert_eq!(builds_tree(&dims, nnz, PerMode), Ok(false));
        }
        // No tree over a single mode, whatever is asked.
        assert_eq!(builds_tree(&[wide], wide, DimensionTree), Ok(false));
        assert_eq!(builds_tree(&[7], 3, Auto), Ok(false));
    }

    #[test]
    fn plan_rejects_empty_tensor() {
        let empty = SparseTensor::new(vec![5, 5, 5]);
        assert_eq!(
            TuckerSolver::plan(&empty, PlanOptions::new()).unwrap_err(),
            TuckerError::EmptyTensor
        );
    }

    #[test]
    fn solve_rejects_invalid_configs_without_panicking() {
        let t = random_tensor(&[10, 10, 10], 200, 1);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        assert_eq!(
            solver.solve(&TuckerConfig::new(vec![2, 2])).unwrap_err(),
            TuckerError::OrderMismatch {
                config_modes: 2,
                tensor_modes: 3,
            }
        );
        assert_eq!(
            solver.solve(&TuckerConfig::new(vec![2, 0, 2])).unwrap_err(),
            TuckerError::ZeroRank { mode: 1 }
        );
        // The session survives rejected requests.
        assert!(solver.solve(&TuckerConfig::new(vec![2, 2, 2])).is_ok());
    }

    #[test]
    fn second_solve_reports_zero_symbolic_time() {
        let t = random_tensor(&[20, 15, 10], 600, 3);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let config = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2);
        let first = solver.solve(&config).unwrap();
        let second = solver.solve(&config).unwrap();
        assert_eq!(first.timings.symbolic, solver.symbolic_time());
        assert_eq!(first.timings.pool, solver.pool_build_time());
        assert_eq!(second.timings.symbolic, Duration::ZERO);
        assert_eq!(second.timings.pool, Duration::ZERO);
        assert_eq!(solver.completed_solves(), 2);
    }

    #[test]
    fn pool_build_failure_is_a_pool_failure_value() {
        let t = random_tensor(&[10, 10, 10], 200, 5);
        let err = TuckerSolver::plan(&t, PlanOptions::new().num_threads(usize::MAX)).unwrap_err();
        match err {
            TuckerError::PoolFailure(reason) => {
                assert!(
                    reason.contains("at most"),
                    "reason should name the limit: {reason}"
                );
            }
            other => panic!("expected PoolFailure, got {other:?}"),
        }
    }

    #[test]
    fn planned_solves_match_one_shot_solver() {
        let t = random_tensor(&[25, 20, 15], 1000, 7);
        let config = TuckerConfig::new(vec![3, 3, 3]).max_iterations(3).seed(5);
        let one_shot = tucker_hooi(&t, &config).unwrap();
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        for _ in 0..2 {
            let planned = solver.solve(&config).unwrap();
            assert_eq!(planned.fits, one_shot.fits);
            assert_eq!(planned.factors, one_shot.factors);
            assert_eq!(
                planned.core.as_slice(),
                one_shot.core.as_slice(),
                "workspace reuse must not change the core"
            );
        }
    }

    #[test]
    fn solve_at_different_ranks_reuses_one_plan() {
        let t = random_tensor(&[20, 20, 20], 800, 11);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let small = solver
            .solve(&TuckerConfig::new(vec![2, 2, 2]).max_iterations(2))
            .unwrap();
        let large = solver
            .solve(&TuckerConfig::new(vec![4, 3, 2]).max_iterations(2))
            .unwrap();
        assert_eq!(small.core.dims(), &[2, 2, 2]);
        assert_eq!(large.core.dims(), &[4, 3, 2]);
        assert!(large.final_fit() >= small.final_fit() - 1e-9);
    }

    #[test]
    fn solve_many_amortizes_one_plan() {
        let t = random_tensor(&[15, 15, 15], 500, 9);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let configs = vec![
            TuckerConfig::new(vec![2, 2, 2]).max_iterations(2),
            TuckerConfig::new(vec![3, 3, 3])
                .max_iterations(2)
                .trsvd(TrsvdBackend::Dense),
            TuckerConfig::new(vec![2, 3, 2]).max_iterations(1).seed(42),
        ];
        let results = solver.solve_many(&configs).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].ranks(), vec![2, 2, 2]);
        assert_eq!(results[1].ranks(), vec![3, 3, 3]);
        assert_eq!(results[2].ranks(), vec![2, 3, 2]);
        // Only the first solve of the session pays the symbolic cost.
        assert_eq!(results[1].timings.symbolic, Duration::ZERO);
        assert_eq!(results[2].timings.symbolic, Duration::ZERO);
    }

    #[test]
    fn solve_many_is_all_or_nothing_on_validation() {
        let t = random_tensor(&[10, 10, 10], 300, 2);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let configs = vec![
            TuckerConfig::new(vec![2, 2, 2]),
            TuckerConfig::new(vec![2, 2]), // invalid
        ];
        assert_eq!(
            solver.solve_many(&configs).unwrap_err(),
            TuckerError::OrderMismatch {
                config_modes: 2,
                tensor_modes: 3,
            }
        );
        // Validation happens before any work: no solve was counted.
        assert_eq!(solver.completed_solves(), 0);
    }

    #[test]
    fn observer_sees_every_iteration_and_can_stop() {
        let t = random_tensor(&[15, 15, 15], 600, 4);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let config = TuckerConfig::new(vec![2, 2, 2])
            .max_iterations(10)
            .fit_tolerance(-1.0); // never self-stop
        let mut reports: Vec<IterationReport> = Vec::new();
        let result = solver
            .solve_with_observer(&config, &mut |r: &IterationReport| {
                reports.push(r.clone());
                if r.iteration == 3 {
                    IterationControl::Stop
                } else {
                    IterationControl::Continue
                }
            })
            .unwrap();
        assert_eq!(result.iterations, 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports.iter().map(|r| r.iteration).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for (r, &fit) in reports.iter().zip(result.fits.iter()) {
            assert_eq!(r.fit, fit);
            assert!(r.ttmc > Duration::ZERO);
            assert!(r.trsvd > Duration::ZERO);
        }
        assert_eq!(reports[0].fit_improvement, reports[0].fit);
        assert!((reports[1].fit_improvement - (reports[1].fit - reports[0].fit)).abs() < 1e-15);
    }

    #[test]
    fn zero_iterations_yield_zero_core_without_stale_state() {
        let t = random_tensor(&[10, 10, 10], 300, 6);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        // A real solve first, so the workspace core buffer is dirty.
        let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2);
        solver.solve(&config).unwrap();
        let empty_run = solver.solve(&config.clone().max_iterations(0)).unwrap();
        assert_eq!(empty_run.iterations, 0);
        assert!(empty_run.fits.is_empty());
        assert_eq!(empty_run.core.frobenius_norm(), 0.0);
        // With no iteration to overwrite mode 0, every initial factor is
        // built at full shape and returned as is.
        let expected = random_factors(t.dims(), &[2, 2, 2], config.seed);
        for (m, (u, e)) in empty_run.factors.iter().zip(expected.iter()).enumerate() {
            assert_eq!(u.shape(), (t.dims()[m], 2), "mode {m}");
            assert_eq!(u, e, "mode {m}");
        }
    }

    #[test]
    fn arc_owned_session_matches_borrowing_session() {
        let t = random_tensor(&[18, 14, 12], 500, 31);
        let config = TuckerConfig::new(vec![3, 3, 2]).max_iterations(3).seed(9);
        let borrowed = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1))
            .unwrap()
            .solve(&config)
            .unwrap();
        let arc = std::sync::Arc::new(t.clone());
        let mut owned = TuckerSession::plan(
            std::sync::Arc::clone(&arc),
            PlanOptions::new().num_threads(1),
        )
        .unwrap();
        let from_owned = owned.solve(&config).unwrap();
        assert_eq!(borrowed.factors, from_owned.factors);
        assert_eq!(borrowed.core.as_slice(), from_owned.core.as_slice());
        assert_eq!(owned.tensor().nnz(), arc.nnz());
    }

    #[test]
    fn caller_pool_session_builds_no_pool_and_matches() {
        let t = random_tensor(&[16, 14, 12], 450, 8);
        let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(3).seed(4);
        let reference = TuckerSolver::plan(&t, PlanOptions::new().num_threads(2))
            .unwrap()
            .solve(&config)
            .unwrap();
        // The shared pool a service would own; sessions planned with
        // `caller_pool` run inside it without spawning workers themselves.
        let shared = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let spawned_before = rayon::worker_threads_spawned();
        let mut session = shared
            .install(|| TuckerSolver::plan(&t, PlanOptions::new().caller_pool()))
            .unwrap();
        assert_eq!(session.pool_build_time(), Duration::ZERO);
        assert_eq!(
            rayon::worker_threads_spawned(),
            spawned_before,
            "caller-pool planning must not spawn workers"
        );
        let result = shared.install(|| session.solve(&config)).unwrap();
        assert_eq!(result.factors, reference.factors);
        assert_eq!(result.core.as_slice(), reference.core.as_slice());
        assert_eq!(shared.install(|| session.num_threads()), 2);
    }

    #[test]
    fn memory_bytes_covers_plan_and_grows_with_first_solve() {
        let t = random_tensor(&[20, 18, 16, 6], 900, 12);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let at_plan = solver.memory_bytes();
        assert!(
            at_plan >= solver.symbolic().memory_bytes(),
            "plan footprint must include the symbolic structures"
        );
        if let Some(tree) = solver.dimtree() {
            assert!(at_plan >= tree.memory_bytes());
        }
        solver
            .solve(&TuckerConfig::new(vec![3, 3, 3, 3]).max_iterations(1))
            .unwrap();
        let after_solve = solver.memory_bytes();
        assert!(
            after_solve > at_plan,
            "the first solve shapes the workspace: {after_solve} vs {at_plan}"
        );
        // A second solve at the same ranks reuses every buffer.
        solver
            .solve(&TuckerConfig::new(vec![3, 3, 3, 3]).max_iterations(1))
            .unwrap();
        assert_eq!(solver.memory_bytes(), after_solve);
    }

    /// Tree sessions of orders 2–5 on tensors with empty slices hold the
    /// row sets the full symbolic analysis finds and no update lists, and
    /// their footprint after a solve is exactly the row maps, the tree, one
    /// compact buffer as long as the widest mode's `Y`, one value buffer per
    /// tree depth as long as the largest internal node there (leaves compute
    /// into the compact buffer), one partial-rows scratch as long as the
    /// largest node's, the ranks and depth owners, the core and the Lanczos
    /// pool.
    #[test]
    fn tree_plans_hold_only_what_a_solve_reads() {
        let cases: [(&[usize], usize, &[usize]); 4] = [
            (&[30, 9], 25, &[3, 2]),
            (&[30, 25, 12], 60, &[3, 2, 3]),
            (&[40, 14, 12, 10], 80, &[2, 3, 2, 2]),
            (&[40, 10, 9, 8, 7], 90, &[2, 2, 3, 2, 2]),
        ];
        let word = std::mem::size_of::<usize>();
        for (seed, (dims, nnz, ranks)) in cases.into_iter().enumerate() {
            let t = random_tensor(dims, nnz, 50 + seed as u64);
            let options = PlanOptions::new()
                .num_threads(1)
                .ttmc_strategy(TtmcStrategy::DimensionTree);
            let mut session = TuckerSolver::plan(&t, options).unwrap();
            let full = SymbolicTtmc::build(&t);
            let order = dims.len();
            let at = format!("order {order}");
            assert!(
                (0..order).any(|n| full.mode(n).num_rows() < dims[n]),
                "{at}: no empty slice"
            );
            for n in 0..order {
                let held = session.symbolic().mode(n);
                assert_eq!(held.rows, full.mode(n).rows, "{at} mode {n}");
                assert!(held.row_ptr.is_empty() && held.nonzero_ids.is_empty());
                assert!(held.csf().is_none());
                for (p, &i) in held.rows.iter().enumerate() {
                    assert_eq!(held.position_of(i), Some(p), "{at} mode {n}");
                }
            }
            session
                .solve(&TuckerConfig::new(ranks.to_vec()).max_iterations(2))
                .unwrap();

            let tree = session.dimtree().unwrap();
            let row_maps: usize = (0..order)
                .map(|n| (full.mode(n).num_rows() + dims[n]) * word)
                .sum();
            let width =
                |n: usize| -> usize { (0..order).filter(|&t| t != n).map(|t| ranks[t]).product() };
            let widest_y = (0..order)
                .map(|n| full.mode(n).num_rows() * width(n))
                .max()
                .unwrap();
            let depths = (0..tree.num_nodes())
                .map(|id| tree.node_depth(id))
                .max()
                .unwrap()
                + 1;
            let (mut level_values, mut partials) = (vec![0; depths], 0);
            for id in 1..tree.num_nodes() {
                let w = tree.node_width(id, ranks);
                if !tree.is_leaf(id) {
                    let level = &mut level_values[tree.node_depth(id)];
                    *level = (*level).max(tree.node_entries(id) * w);
                }
                partials = partials.max(tree.node_segments(id) * w);
            }
            let values: usize = level_values.iter().sum();
            assert_eq!(session.workspace.tree_len(), values, "{at}");
            let core: usize = ranks.iter().product();
            let pool = session.workspace.trsvd.pooled_floats();
            let floats = widest_y + values + partials + core + pool;
            let expected = row_maps
                + tree.memory_bytes()
                + floats * 8
                + (order + depths) * word
                + tree.num_nodes();
            assert_eq!(session.memory_bytes(), expected, "{at}");
            assert_eq!(session.workspace.len(), widest_y, "{at}");
        }
    }

    #[test]
    #[should_panic(expected = "holds row sets only")]
    fn tree_plan_row_sets_refuse_update_list_reads() {
        let t = random_tensor(&[12, 10, 8], 120, 3);
        let options = PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::DimensionTree);
        let session = TuckerSolver::plan(&t, options).unwrap();
        session.symbolic().mode(1).update_list(0);
    }

    #[test]
    #[should_panic(expected = "holds row sets only")]
    fn tree_plan_row_sets_refuse_the_per_mode_kernel() {
        let t = random_tensor(&[12, 10, 8], 120, 3);
        let options = PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::DimensionTree);
        let session = TuckerSolver::plan(&t, options).unwrap();
        let factors = random_factors(t.dims(), &[2, 2, 2], 1);
        crate::ttmc::ttmc_mode(&t, session.symbolic().mode(0), &factors, 0);
    }

    #[test]
    fn kernel_isa_is_the_process_tier() {
        let t = random_tensor(&[10, 10, 10], 200, 3);
        let solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let isa = solver.kernel_isa();
        assert_eq!(isa, KernelIsa::resolved_default());
        assert!(isa.supported());
    }

    #[test]
    fn debug_format_names_the_session() {
        let t = random_tensor(&[8, 8, 8], 100, 13);
        let solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(2)).unwrap();
        let repr = format!("{solver:?}");
        assert!(repr.contains("TuckerSolver"));
        assert!(repr.contains("nnz"));
    }
}
