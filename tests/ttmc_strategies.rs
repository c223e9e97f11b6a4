//! DimensionTree vs PerMode: the `ttmc-strategy` CI gate.
//!
//! The dimension-tree TTMc reassociates the per-mode accumulation, so its
//! contract with the baseline is a *tight tolerance* (1e-10 relative) on
//! the raw TTMc results and the end-to-end fits — plus an *exact* assertion
//! on the deterministic flop counters: for order ≥ 4 the tree performs
//! strictly fewer floating-point operations per iteration than the
//! per-mode sweep.  Everything here is structure-and-arithmetic only (no
//! wall-clock measurements), so the job cannot flake on a loaded runner.

mod contract;

use proptest::prelude::*;
use tucker_repro::hooi::dimtree::serve_mode_into_isa;
use tucker_repro::hooi::symbolic::SymbolicTtmc;
use tucker_repro::hooi::ttmc::ttmc_mode;
use tucker_repro::hooi::{per_mode_costs, DimTree, HooiWorkspace};
use tucker_repro::prelude::*;

/// Every mode's compact TTMc with one fixed set of factors: each mode
/// served through the tree with no factor update in between.
fn tree_ttmc(
    tree: &DimTree,
    tensor: &SparseTensor,
    sym: &SymbolicTtmc,
    factors: &[Matrix],
) -> Vec<Matrix> {
    let ranks: Vec<usize> = factors.iter().map(|u| u.ncols()).collect();
    let mut ws = HooiWorkspace::new(sym, &ranks);
    ws.ensure_tree(tree, &ranks);
    let isa = KernelIsa::resolved_default();
    (0..tensor.order())
        .map(|mode| {
            serve_mode_into_isa(tree, tensor, sym.mode(mode), factors, mode, &mut ws, isa);
            ws.compact(mode).clone()
        })
        .collect()
}

/// Asserts the tree's compact TTMc of every mode matches the per-mode
/// baseline within 1e-10 relative Frobenius distance.
fn assert_tree_matches_per_mode(tensor: &SparseTensor, ranks: &[usize], seed: u64) {
    let factors = contract::factors_for(tensor, ranks, seed);
    let sym = SymbolicTtmc::build(tensor);
    let tree = DimTree::build(tensor);
    let tree_results = tree_ttmc(&tree, tensor, &sym, &factors);
    for mode in 0..tensor.order() {
        let baseline = ttmc_mode(tensor, sym.mode(mode), &factors, mode);
        assert_eq!(baseline.shape(), tree_results[mode].shape());
        let dist = baseline.frobenius_distance(&tree_results[mode]);
        let scale = baseline.frobenius_norm().max(1.0);
        assert!(
            dist <= 1e-10 * scale,
            "mode {mode}: tree TTMc diverged by {dist} (scale {scale})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tree_matches_per_mode_order3(
        args in (5usize..14, 5usize..14, 5usize..14, 30usize..250, 0u64..1000,
                 1usize..5, 1usize..5, 1usize..5),
    ) {
        let (d1, d2, d3, nnz, seed, r1, r2, r3) = args;
        let tensor = random_tensor(&[d1, d2, d3], nnz, seed);
        assert_tree_matches_per_mode(&tensor, &[r1, r2, r3], seed ^ 0x51);
    }

    #[test]
    fn tree_matches_per_mode_order4(
        args in (4usize..10, 4usize..10, 4usize..10, 4usize..10, 30usize..250,
                 0u64..1000, 1usize..5, 1usize..5),
    ) {
        let (d1, d2, d3, d4, nnz, seed, r1, r2) = args;
        let tensor = random_tensor(&[d1, d2, d3, d4], nnz, seed);
        assert_tree_matches_per_mode(&tensor, &[r1, r2, r1, r2], seed ^ 0x52);
    }

    #[test]
    fn tree_matches_per_mode_order5(
        args in (3usize..8, 3usize..8, 30usize..200, 0u64..1000,
                 1usize..4, 1usize..4, 1usize..4),
    ) {
        let (d1, d2, nnz, seed, r1, r2, r3) = args;
        let tensor = random_tensor(&[d1, d2, d1 + 1, d2 + 1, d1], nnz, seed);
        assert_tree_matches_per_mode(&tensor, &[r1, r2, r3, r1, r2], seed ^ 0x53);
    }

    #[test]
    fn tree_flops_strictly_below_per_mode_for_random_order4(
        args in (4usize..10, 50usize..300, 0u64..1000, 2usize..6),
    ) {
        let (d, nnz, seed, r) = args;
        let tensor = random_tensor(&[d, d + 1, d + 2, d + 3], nnz, seed);
        let sym = SymbolicTtmc::build(&tensor);
        let tree = DimTree::build(&tensor);
        let ranks = vec![r; 4];
        prop_assert!(
            tree.costs(&ranks).flops < per_mode_costs(&sym, tensor.nnz(), &ranks).flops
        );
    }

    // The weighted span boundaries the flop-weighted scheduler cuts from a
    // cost vector partition the index range exactly once — every index in
    // exactly one span, spans non-empty and ascending, never more spans
    // than requested — regardless of how skewed the costs are.
    #[test]
    fn weighted_spans_partition_exactly_once_under_any_skew(
        args in (0usize..200, 0u64..u64::MAX, 1usize..64, 0usize..200, 0u64..u64::MAX / 4),
    ) {
        let (len, seed, max_spans, hot, hot_cost) = args;
        // Pseudo-random cost vector expanded from the drawn seed, with one
        // dominating index planted anywhere — cost skews far beyond what
        // any real update-list distribution produces.
        let mut costs: Vec<u64> = (0..len)
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 1_000_000)
            .collect();
        if !costs.is_empty() {
            let at = hot % costs.len();
            costs[at] = hot_cost;
        }
        let bounds = rayon::weighted_span_boundaries(&costs, max_spans);
        prop_assert_eq!(bounds[0], 0);
        prop_assert_eq!(*bounds.last().unwrap(), costs.len());
        prop_assert!(bounds.windows(2).all(|w| w[0] < w[1]) || costs.is_empty());
        prop_assert!(bounds.len() - 1 <= max_spans.min(costs.len()).max(1));
    }
}

/// End-to-end: a dimension-tree solve reproduces the per-mode solve's fit
/// trajectory within 1e-10 relative on every generated profile, at every
/// thread count.  (Each strategy's solves are bit-identical at every pool
/// width and on plan reuse: the determinism contract's members below.)
#[test]
fn solver_fits_agree_across_strategies_and_threads() {
    for name in ProfileName::all() {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(2_500, 42);
        let ranks = profile.paper_ranks().to_vec();
        let config = TuckerConfig::new(ranks).max_iterations(2).seed(9);

        let mut per_mode_solver = TuckerSolver::plan(
            &tensor,
            PlanOptions::new()
                .num_threads(1)
                .ttmc_strategy(TtmcStrategy::PerMode),
        )
        .unwrap();
        let baseline = per_mode_solver.solve(&config).unwrap();

        for threads in [1usize, 2, 4] {
            let mut tree_solver = TuckerSolver::plan(
                &tensor,
                PlanOptions::new()
                    .num_threads(threads)
                    .ttmc_strategy(TtmcStrategy::DimensionTree),
            )
            .unwrap();
            assert_eq!(tree_solver.ttmc_strategy(), TtmcStrategy::DimensionTree);
            let tree = tree_solver.solve(&config).unwrap();
            assert_eq!(tree.fits.len(), baseline.fits.len(), "{name:?}");
            for (a, b) in tree.fits.iter().zip(baseline.fits.iter()) {
                assert!(
                    (a - b).abs() <= 1e-10 * b.abs().max(1e-300),
                    "{name:?} @ {threads} threads: fit {a} vs per-mode {b}"
                );
            }
        }
    }
}

/// The tree classes of the determinism contract (`tests/determinism.rs`)
/// at pool widths 1, 2 and 3: every node row is accumulated sequentially
/// in a fixed member order, so the worker count only changes who computes
/// a row, never its bits.
#[test]
fn tree_ttmc_is_bit_identical_across_thread_counts() {
    check_pool_widths(TtmcStrategy::DimensionTree);
}

/// The flop counters on the order-4 profiles (the paper's Delicious and
/// Flickr shapes): the tree must do strictly less arithmetic, exactly as
/// counted, and the bound must hold at the paper's ranks.
#[test]
fn tree_flops_strictly_below_per_mode_on_order4_profiles() {
    for name in [ProfileName::Delicious, ProfileName::Flickr] {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(8_000, 7);
        assert_eq!(tensor.order(), 4);
        let ranks = profile.paper_ranks().to_vec();
        let sym = SymbolicTtmc::build(&tensor);
        let tree = DimTree::build(&tensor);
        let tree_costs = tree.costs(&ranks);
        let baseline = per_mode_costs(&sym, tensor.nnz(), &ranks);
        assert!(
            tree_costs.flops < baseline.flops,
            "{name:?}: tree flops {} not strictly below per-mode {}",
            tree_costs.flops,
            baseline.flops
        );
        // The counters are pure functions of structure and ranks.
        assert_eq!(tree_costs, tree.costs(&ranks));
        assert_eq!(baseline, per_mode_costs(&sym, tensor.nnz(), &ranks));
    }
}

/// Batch (`solve_many`) and observer paths run the tree strategy too: one
/// plan, several rank configurations, each matching its per-mode twin.
#[test]
fn tree_session_batches_match_per_mode_within_tolerance() {
    let profile = DatasetProfile::new(ProfileName::Netflix);
    let tensor = profile.generate(5_000, 3);
    let configs = vec![
        TuckerConfig::new(vec![4, 4, 4]).max_iterations(2).seed(1),
        TuckerConfig::new(vec![6, 3, 2]).max_iterations(2).seed(2),
    ];
    let mut tree_solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(2)).unwrap();
    let mut per_mode_solver = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(2)
            .ttmc_strategy(TtmcStrategy::PerMode),
    )
    .unwrap();
    let tree_results = tree_solver.solve_many(&configs).unwrap();
    let base_results = per_mode_solver.solve_many(&configs).unwrap();
    for (t, b) in tree_results.iter().zip(base_results.iter()) {
        assert_eq!(t.ranks(), b.ranks());
        for (a, e) in t.fits.iter().zip(b.fits.iter()) {
            assert!((a - e).abs() <= 1e-10 * e.abs().max(1e-300));
        }
    }
}

/// The strategy knob is honoured end to end: per-mode sessions report it,
/// the default (`Auto`) resolves to the strategy the flop model picks —
/// the tree, on a colliding random tensor — and the one-shot entry follows
/// the config.
#[test]
fn strategy_knob_is_reported_and_defaulted() {
    let tensor = random_tensor(&[10, 10, 10], 300, 5);
    let default_solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).unwrap();
    assert_eq!(default_solver.ttmc_strategy(), TtmcStrategy::DimensionTree);
    assert!(default_solver.dimtree().is_some());
    assert_eq!(PlanOptions::new().ttmc_strategy, TtmcStrategy::Auto);
    assert_eq!(TtmcStrategy::default(), TtmcStrategy::Auto);
    let mut pinned = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::PerMode),
    )
    .unwrap();
    assert_eq!(pinned.ttmc_strategy(), TtmcStrategy::PerMode);
    assert!(pinned.dimtree().is_none());

    let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2).seed(4);
    let tree_run = tucker_hooi(&tensor, &config).unwrap();
    let per_mode_run = pinned.solve(&config).unwrap();
    for (a, b) in tree_run.fits.iter().zip(per_mode_run.fits.iter()) {
        assert!((a - b).abs() <= 1e-10 * b.abs().max(1e-300));
    }
}

/// `Auto` resolves to whichever strategy the plan-time flop model prices
/// cheaper, on order-3 and order-4 profiles alike.  The expected winner is
/// recomputed here from the same public counters the resolver uses (at its
/// fixed rank hint of `min(dim, 8)` per mode, ties to per-mode).
#[test]
fn auto_selects_lower_modeled_flops_strategy_per_profile() {
    for name in ProfileName::all() {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(4_000, 23);
        let sym = SymbolicTtmc::build(&tensor);
        let tree = DimTree::build(&tensor);
        let hint: Vec<usize> = tensor.dims().iter().map(|&d| d.min(8)).collect();
        let expected = if tree.costs(&hint).flops < per_mode_costs(&sym, tensor.nnz(), &hint).flops
        {
            TtmcStrategy::DimensionTree
        } else {
            TtmcStrategy::PerMode
        };
        let solver = TuckerSolver::plan(
            &tensor,
            PlanOptions::new()
                .num_threads(1)
                .ttmc_strategy(TtmcStrategy::Auto),
        )
        .unwrap();
        assert_eq!(
            solver.ttmc_strategy(),
            expected,
            "{name:?}: auto did not pick the cheaper strategy"
        );
        assert_eq!(
            solver.dimtree().is_some(),
            expected == TtmcStrategy::DimensionTree,
            "{name:?}: plan artifacts disagree with the resolved strategy"
        );
        // A tree plan holds each mode's row set alone; a per-mode plan the
        // update lists its kernel streams, as the full analysis builds them.
        for n in 0..tensor.order() {
            let (held, full) = (solver.symbolic().mode(n), sym.mode(n));
            assert_eq!(held.rows, full.rows, "{name:?} mode {n}");
            match expected {
                TtmcStrategy::DimensionTree => assert!(held.nonzero_ids.is_empty()),
                _ => assert_eq!(held.nonzero_ids, full.nonzero_ids, "{name:?} mode {n}"),
            }
        }
    }
}

/// On a collision-free tensor (diagonal: every nonzero projects to a
/// distinct index on every mode set) flop sharing cannot pay — the tree
/// contracts each nonzero once per level while the per-mode sweep touches
/// it once per mode with a cheaper kernel — so `Auto` must resolve to the
/// per-mode strategy, and the solve must still be correct.
#[test]
fn auto_resolves_to_per_mode_when_sharing_cannot_pay() {
    let n = 40usize;
    let entries: Vec<(Vec<usize>, f64)> = (0..n)
        .map(|i| (vec![i, i, i], 1.0 + i as f64 * 0.5))
        .collect();
    let tensor = SparseTensor::from_entries(vec![n, n, n], &entries);
    let mut solver = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::Auto),
    )
    .unwrap();
    assert_eq!(solver.ttmc_strategy(), TtmcStrategy::PerMode);
    assert!(solver.dimtree().is_none());
    // The resolved plan solves like an explicitly per-mode one.
    let config = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2).seed(8);
    let auto_run = solver.solve(&config).unwrap();
    let pinned_run = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(1)
            .ttmc_strategy(TtmcStrategy::PerMode),
    )
    .unwrap()
    .solve(&config)
    .unwrap();
    assert_eq!(auto_run.fits, pinned_run.fits);
}

/// The per-mode classes of the determinism contract at pool widths 1, 2
/// and 3: each row is computed whole by exactly one worker in a fixed entry
/// order, so the flop-weighted chunking only moves span boundaries, never
/// the arithmetic inside a row.
#[test]
fn per_mode_ttmc_is_bit_identical_across_thread_counts() {
    check_pool_widths(TtmcStrategy::PerMode);
}

/// `solve()` on sessions with their own pools of width 1, 2 and 3 must
/// reproduce the blessed digest of every class under `strategy` (the rank
/// sweep's classes have their own members in `tests/reference_loop.rs`).
fn check_pool_widths(strategy: TtmcStrategy) {
    let select = |input: &contract::Input| input.scope != contract::Scope::Sweep;
    contract::check_members(select, |input| {
        let widths = 1..=3;
        let runs = widths.map(|width| {
            let mut session = contract::plan(&input.tensor, strategy, width);
            let got = contract::digest_of(&session.solve(&input.config).unwrap());
            (strategy, format!("solve() at pool width {width}"), got)
        });
        runs.collect()
    });
}

/// Plan reuse under a pool the caller owns, on every class of the
/// determinism contract but the rank sweep's: a `caller_pool()` session
/// planned and solved twice inside an installed pool of width 4 reproduces
/// the blessed digest both times.
#[test]
fn solves_are_bit_reproducible_at_each_thread_count_for_both_strategies() {
    let select = |input: &contract::Input| input.scope != contract::Scope::Sweep;
    contract::check_members(select, |input| {
        let mut runs = Vec::new();
        for &strategy in &input.strategies {
            let (first, second) = contract::pool(4).install(|| {
                let options = PlanOptions::new().caller_pool().ttmc_strategy(strategy);
                let mut session = TuckerSolver::plan(&input.tensor, options).unwrap();
                let first = session.solve(&input.config).unwrap();
                (first, session.solve(&input.config).unwrap())
            });
            for (member, d) in [
                ("caller_pool() session", first),
                ("its second solve()", second),
            ] {
                let member = format!("{member} in a pool of width 4");
                runs.push((strategy, member, contract::digest_of(&d)));
            }
        }
        runs
    });
}
