//! A solve against HOOI driven by hand through the public kernels.
//!
//! The solver builds no initial factor for mode 0: HOOI updates it first,
//! from the other modes' factors alone, and overwrites it before anything
//! reads it.  The reference loop below starts instead from *every* mode's
//! random initial factor (`random_factors`), exactly as
//! Algorithm 1 of the paper writes it, and must reach the same factors,
//! fits and core bit for bit — across orders, TTMc strategies and pool
//! widths.  The reference gathers every nonzero through its COO id, so on
//! per-mode plans it also checks the solver's CSF walk solve-wide.
//!
//! The workspace holds one compact-`Y` buffer for every mode and reshapes
//! it without clearing it, which is sound only if every TTMc kernel
//! overwrites the whole shape.  A poisoned variant of the reference fills
//! the buffer with NaN before every TTMc: one entry left unwritten would
//! carry a NaN into the factors and the fit.
//!
//! The loop also takes its TTMc kernel tier explicitly, so one process
//! checks that a solve is the same at `Scalar` and at `Avx2`; the TRSVD and
//! the core run at the process tier, which only `TUCKER_KERNEL` switches —
//! the profile test prints one digest per solve for a run under each forced
//! tier to compare.

use tucker_repro::hooi::core_tensor::core_from_last_ttmc_into;
use tucker_repro::hooi::dimtree::{factor_updated, serve_mode_into_isa};
use tucker_repro::hooi::fit::fit_from_norms;
use tucker_repro::hooi::hosvd::random_factors;
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
/// through COO ids (update lists without CSF hierarchies) at kernel tier
/// `isa`.  Runs in a pool as wide as the session's: the TRSVD's sums are
/// chunked by pool width.  With `poison`, the compact buffer is filled with
/// NaN before every TTMc.
fn reference_solve(
    session: &TuckerSolver<'_>,
    config: &TuckerConfig,
    width: usize,
    poison: bool,
    isa: KernelIsa,
) -> Bits {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap();
    pool.install(|| {
        let tensor = session.tensor();
        let symbolic = &SymbolicTtmc::build_without_layout(tensor);
        let tree = session.dimtree();
        let ranks = &config.ranks;
        let order = tensor.order();
        let mut factors = random_factors(tensor.dims(), ranks, config.seed);
        let mut ws = HooiWorkspace::new(symbolic, ranks);
        if let Some(tree) = tree {
            ws.ensure_tree(tree, ranks);
        }
        let mut fits = Vec::new();
        for _ in 0..config.max_iterations {
            for mode in 0..order {
                if poison {
                    ws.compact_mut(mode).as_mut_slice().fill(f64::NAN);
                }
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
    poison: bool,
) {
    let width = options.num_threads;
    let mut session = TuckerSolver::plan(tensor, options).unwrap();
    let solved = session.solve(config).unwrap();
    assert_eq!(solved.iterations, config.max_iterations, "{label}");
    let expected = reference_solve(&session, config, width, poison, session.kernel_isa());
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
                assert_solve_matches_reference(&tensor, options, &config, &label, false);
            }
        }
    }
}

/// Every TTMc overwrites its whole compact `Y`: a reference that poisons
/// the shared buffer before each one still matches `solve()` bit for bit.
#[test]
fn poisoned_compact_buffers_match_the_reference_loop() {
    let cases: [(&[usize], usize, &[usize]); 2] = [
        (&[14, 12, 10], 400, &[3, 2, 3]),
        (&[10, 9, 8, 6], 400, &[2, 3, 2, 2]),
    ];
    for (seed, (dims, nnz, ranks)) in cases.into_iter().enumerate() {
        let tensor = random_tensor(dims, nnz, 60 + seed as u64);
        let config = TuckerConfig::new(ranks.to_vec())
            .max_iterations(2)
            .fit_tolerance(-1.0)
            .seed(11 + seed as u64);
        for width in [1, 2] {
            for (plan, options) in plans(width) {
                let label = format!("poisoned order {} {plan}", dims.len());
                assert_solve_matches_reference(&tensor, options, &config, &label, true);
            }
        }
    }
}

/// FNV-1a over every bit of a solve.
fn digest(bits: &Bits) -> u64 {
    let shapes = bits
        .factors
        .iter()
        .flat_map(|(shape, _)| [shape.0, shape.1]);
    let words = bits
        .factors
        .iter()
        .flat_map(|(_, data)| data.iter().copied());
    shapes
        .map(|x| x as u64)
        .chain(words)
        .chain(bits.fits.iter().copied())
        .chain(bits.core.iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Every generated dataset profile at ranks 3, 5, 7 and 10 (rows that fill
/// whole vectors and rows that end in masked lanes), solved at pool width
/// 2: the reference loop with its TTMc at `Scalar` and at `Avx2` must each
/// equal `solve()` bit for bit.  Prints `digest <profile> rank <r> <hash>`
/// per solve for the cross-tier comparison of whole solves.
#[test]
fn profile_solves_match_the_reference_loop_at_either_kernel_tier() {
    let isas: Vec<KernelIsa> = [KernelIsa::Scalar, KernelIsa::Avx2]
        .into_iter()
        .filter(|isa| isa.supported())
        .collect();
    for name in ProfileName::all() {
        let tensor = DatasetProfile::new(name).generate(2_500, 13);
        let mut session = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(2)).unwrap();
        for rank in [3usize, 5, 7, 10] {
            let ranks = tensor.dims().iter().map(|&d| d.min(rank)).collect();
            let config = TuckerConfig::new(ranks)
                .max_iterations(2)
                .fit_tolerance(-1.0)
                .seed(5);
            let solved = session.solve(&config).unwrap();
            let bits = bits_of(&solved.factors, &solved.fits, &solved.core);
            for &isa in &isas {
                assert_eq!(
                    reference_solve(&session, &config, 2, false, isa),
                    bits,
                    "{name:?} rank {rank}: the reference at {isa} diverged from solve()"
                );
            }
            println!("digest {name:?} rank {rank} {:016x}", digest(&bits));
        }
    }
}
