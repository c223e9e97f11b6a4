//! A solve against HOOI driven by hand through the public kernels.
//!
//! The solver builds no initial factor for mode 0: HOOI updates it first,
//! from the other modes' factors alone, and overwrites it before anything
//! reads it.  The reference loop below starts instead from *every* mode's
//! initial factor (`random_factors` / `hosvd_factors`), exactly as
//! Algorithm 1 of the paper writes it, and must reach the same factors,
//! fits and core bit for bit — across orders, TTMc strategies and pool
//! widths.  The reference gathers every nonzero through its COO id, so on
//! per-mode plans it also checks the solver's CSF walk solve-wide.

use tucker_repro::hooi::core_tensor::core_from_last_ttmc_into;
use tucker_repro::hooi::dimtree::{factor_updated, serve_mode_into_isa};
use tucker_repro::hooi::fit::fit_from_norms;
use tucker_repro::hooi::hosvd::{hosvd_factors, random_factors, DEFAULT_HOSVD_MAX_COLS};
use tucker_repro::hooi::symbolic::SymbolicTtmc;
use tucker_repro::hooi::trsvd::trsvd_factor_with;
use tucker_repro::hooi::{ttmc_mode_into_isa, HooiWorkspace};
use tucker_repro::prelude::*;

/// What a solve returns, as bits.
#[derive(Debug, PartialEq)]
struct Bits {
    factors: Vec<((usize, usize), Vec<u64>)>,
    fits: Vec<u64>,
    core: Vec<u64>,
}

fn bits_of(factors: &[Matrix], fits: &[f64], core: &DenseTensor) -> Bits {
    Bits {
        factors: factors
            .iter()
            .map(|u| {
                (
                    u.shape(),
                    u.as_slice().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect(),
        fits: fits.iter().map(|x| x.to_bits()).collect(),
        core: core.as_slice().iter().map(|x| x.to_bits()).collect(),
    }
}

/// Algorithm 1 over the session's plan, call for call as the solver makes
/// them, from full initial factors, with the per-mode TTMc gathering
/// through COO ids (update lists without CSF hierarchies).  Runs in a pool
/// as wide as the session's: the TRSVD's sums are chunked by pool width.
fn reference_solve(session: &TuckerSolver<'_>, config: &TuckerConfig, width: usize) -> Bits {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap();
    pool.install(|| {
        let tensor = session.tensor();
        let symbolic = &SymbolicTtmc::build_without_layout(tensor);
        let tree = session.dimtree();
        let isa = session.kernel_isa();
        let ranks = &config.ranks;
        let order = tensor.order();
        let mut factors = match config.initialization {
            Initialization::Random => random_factors(tensor.dims(), ranks, config.seed),
            Initialization::Hosvd => {
                hosvd_factors(tensor, ranks, DEFAULT_HOSVD_MAX_COLS, config.seed)
            }
        };
        let mut ws = HooiWorkspace::new(symbolic, ranks);
        if let Some(tree) = tree {
            ws.ensure_tree(tree, ranks);
        }
        let mut fits = Vec::new();
        for _ in 0..config.max_iterations {
            for mode in 0..order {
                match tree {
                    Some(tree) => serve_mode_into_isa(
                        tree,
                        tensor,
                        symbolic.mode(mode),
                        &factors,
                        mode,
                        &mut ws,
                        isa,
                    ),
                    None => ttmc_mode_into_isa(
                        tensor,
                        symbolic.mode(mode),
                        &factors,
                        mode,
                        ws.compact_mut(mode),
                        isa,
                    ),
                }
                let (compact, scratch) = ws.trsvd_buffers(mode);
                let result = trsvd_factor_with(
                    compact,
                    symbolic.mode(mode),
                    tensor.dims()[mode],
                    ranks[mode],
                    config.trsvd,
                    config.seed ^ ((mode as u64 + 1) << 8),
                    scratch,
                );
                factors[mode] = result.factor;
                if let Some(tree) = tree {
                    factor_updated(tree, mode, &mut ws);
                }
            }
            let (compact, core) = ws.core_buffers(order - 1);
            core_from_last_ttmc_into(
                compact,
                symbolic.mode(order - 1),
                &factors[order - 1],
                ranks,
                core,
            );
            fits.push(fit_from_norms(
                tensor.frobenius_norm(),
                ws.core().frobenius_norm(),
            ));
        }
        bits_of(&factors, &fits, ws.core())
    })
}

fn assert_solve_matches_reference(
    tensor: &SparseTensor,
    options: PlanOptions,
    config: &TuckerConfig,
    label: &str,
) {
    let width = options.num_threads;
    let mut session = TuckerSolver::plan(tensor, options).unwrap();
    let solved = session.solve(config).unwrap();
    assert_eq!(solved.iterations, config.max_iterations, "{label}");
    let expected = reference_solve(&session, config, width);
    assert_eq!(
        bits_of(&solved.factors, &solved.fits, &solved.core),
        expected,
        "{label}: solve diverged from the reference loop"
    );
}

/// The plans every case runs on: the per-mode strategy (which streams
/// CSF) and the dimension tree.
fn plans(width: usize) -> Vec<(String, PlanOptions)> {
    let base = PlanOptions::new().num_threads(width);
    vec![
        (
            format!("per-mode/width {width}"),
            base.clone().ttmc_strategy(TtmcStrategy::PerMode),
        ),
        (
            format!("tree/width {width}"),
            base.ttmc_strategy(TtmcStrategy::DimensionTree),
        ),
    ]
}

#[test]
fn random_init_solves_match_the_reference_loop() {
    let cases: [(&[usize], usize, &[usize]); 4] = [
        (&[30, 20], 200, &[3, 2]),
        (&[14, 12, 10], 400, &[3, 2, 3]),
        (&[10, 9, 8, 6], 400, &[2, 3, 2, 2]),
        (&[8, 7, 6, 5, 4], 300, &[2, 2, 3, 2, 2]),
    ];
    for (seed, (dims, nnz, ranks)) in cases.into_iter().enumerate() {
        let tensor = random_tensor(dims, nnz, 40 + seed as u64);
        let config = TuckerConfig::new(ranks.to_vec())
            .max_iterations(2)
            .fit_tolerance(-1.0)
            .seed(7 + seed as u64);
        for width in 1..=3 {
            for (plan, options) in plans(width) {
                let label = format!("order {} {plan}", dims.len());
                assert_solve_matches_reference(&tensor, options, &config, &label);
            }
        }
    }
}

#[test]
fn hosvd_init_solve_matches_the_reference_loop() {
    let tensor = random_tensor(&[16, 14, 12], 500, 3);
    let config = TuckerConfig::new(vec![3, 2, 3])
        .max_iterations(2)
        .fit_tolerance(-1.0)
        .seed(5)
        .initialization(Initialization::Hosvd);
    for (plan, options) in plans(2) {
        assert_solve_matches_reference(&tensor, options, &config, &format!("hosvd {plan}"));
    }
}

#[test]
fn hosvd_init_with_a_random_fallback_mode_matches_the_reference_loop() {
    // Mode 1's unfolding has 1500 · 1500 columns, beyond the HOSVD cap:
    // that mode starts from its random factor, the others from the SVD.
    let dims = [1500, 4, 1500];
    assert!(dims[0] * dims[2] > DEFAULT_HOSVD_MAX_COLS);
    assert!(dims[0] * dims[1] <= DEFAULT_HOSVD_MAX_COLS);
    let tensor = random_tensor(&dims, 300, 17);
    let config = TuckerConfig::new(vec![2, 2, 2])
        .max_iterations(2)
        .fit_tolerance(-1.0)
        .seed(3)
        .initialization(Initialization::Hosvd);
    let options = PlanOptions::new()
        .num_threads(1)
        .ttmc_strategy(TtmcStrategy::DimensionTree);
    assert_solve_matches_reference(&tensor, options, &config, "hosvd with fallback");
}
