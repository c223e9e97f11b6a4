//! The harness of the determinism contract, shared by `tests/determinism.rs`
//! (the fixture) and the test files that hold its members:
//! `tests/ttmc_strategies.rs` (solves at each pool width, plan reuse),
//! `tests/layouts.rs` (CSF plans, the streamed round trip),
//! `tests/reference_loop.rs` (the hand-driven HOOI loop) and
//! `tests/executor.rs` (the message-passing executor).  The contract and
//! its member map are stated in `tests/determinism.rs`.

// Each test file uses a part of the harness.
#![allow(dead_code)]

use tucker_repro::hooi::core_tensor::core_from_last_ttmc_into;
use tucker_repro::hooi::dimtree::{factor_updated, serve_mode_into_isa};
use tucker_repro::hooi::fit::fit_from_norms;
use tucker_repro::hooi::hosvd::random_factors;
use tucker_repro::hooi::symbolic::SymbolicTtmc;
use tucker_repro::hooi::trsvd::trsvd_factor_with;
use tucker_repro::hooi::{ttmc_mode_into_isa, HooiWorkspace};
use tucker_repro::prelude::*;

use rayon::prelude::*;
use std::collections::BTreeMap;

pub const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/determinism.txt"
);
pub const REBLESS: &str = "GOLDEN_BLESS=1 cargo test --release --test determinism";
pub const STRATEGIES: [TtmcStrategy; 2] = [TtmcStrategy::PerMode, TtmcStrategy::DimensionTree];

/// Which members an input's classes take.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// A random tensor of at most 1 000 nonzeros: every member, the
    /// poisoned reference loop included.
    Small,
    /// A generated profile at its paper ranks: every member but the
    /// poisoned reference loop.
    Profile,
    /// A generated profile at another rank of the sweep 3, 5, 7, 10: one
    /// class, the strategy `Auto` resolves to, whose members are `solve()`
    /// through an `Auto` plan and the reference loop at either tier.
    Sweep,
}

/// One tensor and the configuration every member solves it at.
pub struct Input {
    pub name: String,
    pub tensor: SparseTensor,
    pub config: TuckerConfig,
    pub scope: Scope,
    /// The strategies this input has a class under.
    pub strategies: Vec<TtmcStrategy>,
}

impl Input {
    pub fn new(
        name: String,
        tensor: SparseTensor,
        ranks: Vec<usize>,
        iterations: usize,
        seed: u64,
    ) -> Self {
        let config = TuckerConfig::new(ranks)
            .max_iterations(iterations)
            .fit_tolerance(-1.0)
            .seed(seed);
        Input {
            name,
            tensor,
            config,
            scope: Scope::Small,
            strategies: STRATEGIES.to_vec(),
        }
    }

    /// The fixture's key of this input's class under `strategy`.
    pub fn class(&self, strategy: TtmcStrategy) -> String {
        let strategy = match strategy {
            TtmcStrategy::PerMode => "per-mode",
            _ => "tree",
        };
        format!("{} {strategy}", self.name)
    }
}

/// Every generated profile at ranks 3, 5, 7 and 10 (rows that fill whole
/// vectors and rows that end in masked lanes; at 7 and 10 the order-4
/// profiles take the TRSVD's Krylov regime, tall and wide, and Netflix's
/// mode 1 does at 10), random tensors of orders 2–6, six small order-3
/// tensors with their own sparsity patterns and initial factors, and the
/// executor's grid tensor.
pub fn inputs() -> Vec<Input> {
    let mut inputs = Vec::new();
    for name in ProfileName::all() {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(2_500, 13);
        for rank in [3, 5, 7, 10] {
            let ranks = tensor.dims().iter().map(|&d| d.min(rank)).collect();
            let name = format!("{name:?}-r{rank}").to_lowercase();
            let mut input = Input::new(name, tensor.clone(), ranks, 2, 5);
            if profile.paper_ranks().iter().all(|&r| r == rank) {
                input.scope = Scope::Profile;
            } else {
                let auto = PlanOptions::new().num_threads(1);
                let auto = TuckerSolver::plan(&tensor, auto.ttmc_strategy(TtmcStrategy::Auto));
                input.scope = Scope::Sweep;
                input.strategies = vec![auto.unwrap().ttmc_strategy()];
            }
            inputs.push(input);
        }
    }
    let random = [
        (&[30, 20][..], 200, &[3, 2][..]),
        (&[14, 12, 10], 400, &[3, 2, 3]),
        (&[10, 9, 8, 6], 400, &[2, 3, 2, 2]),
        (&[8, 7, 6, 5, 4], 300, &[2, 2, 3, 2, 2]),
        (&[8, 7, 6, 5, 4, 3], 300, &[2, 2, 3, 2, 2, 2]),
    ];
    for (seed, (dims, nnz, ranks)) in (0..).zip(random) {
        let name = format!("random-order{}", dims.len());
        let tensor = random_tensor(dims, nnz, 40 + seed);
        inputs.push(Input::new(name, tensor, ranks.to_vec(), 2, 7 + seed));
    }
    for seed in 0..6 {
        let s = seed as usize;
        let dims = [10 + (s * 7) % 15, 8 + (s * 5) % 12, 6 + (s * 3) % 9];
        let tensor = random_tensor(&dims, 200 + (s * 131) % 400, seed);
        let name = format!("random-seed{seed}");
        inputs.push(Input::new(name, tensor, vec![2, 2, 2], 2, seed ^ 0xabcd));
    }
    let grid = random_tensor(&[22, 18, 14], 800, 31);
    let name = "executor-grid".to_string();
    inputs.push(Input::new(name, grid, vec![3, 2, 3], 3, 7));
    inputs
}

/// FNV-1a over the iteration count, the fits, every factor's shape and bits
/// and the core's bits.
pub fn digest(iterations: usize, fits: &[f64], factors: &[Matrix], core: &DenseTensor) -> u64 {
    let factor_words = factors.iter().flat_map(|u| {
        let bits = u.as_slice().iter().map(|x| x.to_bits());
        [u.nrows() as u64, u.ncols() as u64].into_iter().chain(bits)
    });
    std::iter::once(iterations as u64)
        .chain(fits.iter().map(|x| x.to_bits()))
        .chain(factor_words)
        .chain(core.as_slice().iter().map(|x| x.to_bits()))
        .fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

pub fn digest_of(d: &TuckerDecomposition) -> u64 {
    digest(d.iterations, &d.fits, &d.factors, &d.core)
}

/// One seeded random factor per mode, `dims[m] × ranks[m]`.
pub fn factors_for(tensor: &SparseTensor, ranks: &[usize], seed: u64) -> Vec<Matrix> {
    tensor
        .dims()
        .iter()
        .zip(ranks.iter())
        .enumerate()
        .map(|(m, (&d, &r))| Matrix::random(d, r, seed + m as u64))
        .collect()
}

pub fn pool(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap()
}

pub fn plan(tensor: &SparseTensor, strategy: TtmcStrategy, width: usize) -> TuckerSolver<'_> {
    let options = PlanOptions::new().num_threads(width);
    TuckerSolver::plan(tensor, options.ttmc_strategy(strategy)).unwrap()
}

pub fn blessing() -> bool {
    std::env::var_os("GOLDEN_BLESS").is_some()
}

/// The class's first member, `solve()` on a session of width 1: what a
/// re-bless writes.
pub fn canonical(input: &Input, strategy: TtmcStrategy) -> u64 {
    let mut session = plan(&input.tensor, strategy, 1);
    digest_of(&session.solve(&input.config).unwrap())
}

/// The blessed digest of every class.
pub fn fixture() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|e| panic!("missing {FIXTURE}: {e}\n(bless it with `{REBLESS}`)"));
    let parse = |line: &str| {
        let (class, hex) = line.rsplit_once(' ')?;
        Some((class.to_string(), u64::from_str_radix(hex, 16).ok()?))
    };
    let malformed = |line| panic!("malformed line in {FIXTURE}: {line}");
    text.lines()
        .map(|line| parse(line).unwrap_or_else(|| malformed(line)))
        .collect()
}

/// One member's digest of an input's class under a strategy.
pub type Run = (TtmcStrategy, String, u64);

/// Runs `members` on every input `select` keeps, two inputs at a time (much
/// of a solve runs on one core), and checks every digest it returns against
/// its class's blessed digest (while blessing, against its canonical
/// member's), reporting every divergence at once, by class and member.
pub fn check_members(select: impl Fn(&Input) -> bool, members: impl Fn(&Input) -> Vec<Run> + Sync) {
    let inputs: Vec<Input> = inputs().into_iter().filter(|input| select(input)).collect();
    let runs: Vec<(Vec<Run>, Input)> = pool(2).install(|| {
        let runs = inputs.into_par_iter().map(|input| (members(&input), input));
        runs.collect()
    });
    let mut digests = if blessing() {
        BTreeMap::new()
    } else {
        fixture()
    };
    let mut failures = Vec::new();
    for (runs, input) in runs {
        for (strategy, member, got) in runs {
            let class = input.class(strategy);
            if blessing() && !digests.contains_key(&class) {
                digests.insert(class.clone(), canonical(&input, strategy));
            }
            match digests.get(&class) {
                Some(&want) if want == got => {}
                Some(&want) => failures.push(format!(
                    "{class}: {member} gave {got:016x}, blessed {want:016x}"
                )),
                None => failures.push(format!("{class}: no blessed digest")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "members diverged from {FIXTURE}:\n  {}\n\
         (if the change is intentional, re-bless with `{REBLESS}` \
         and justify it in CHANGES.md)",
        failures.join("\n  ")
    );
}

/// Algorithm 1 over `session`'s tree (if any), call for call as the solver
/// makes them, from every mode's random initial factor, with the per-mode
/// TTMc gathering through COO ids at kernel tier `isa`.  With `poison`, the
/// compact buffer is filled with NaN before every TTMc.
pub fn reference_solve(
    session: &TuckerSolver<'_>,
    config: &TuckerConfig,
    poison: bool,
    isa: KernelIsa,
) -> u64 {
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
    digest(config.max_iterations, &fits, &factors, ws.core())
}
