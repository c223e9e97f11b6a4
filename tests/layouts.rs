//! Index-structure contracts: the CSF fiber walk every per-mode plan
//! streams and the COO gather are the **same IEEE accumulation**, not
//! merely close.
//!
//! The CSF hierarchies are built from the symbolic update-list permutation,
//! so their leaf order equals the gather's accumulation order.  That makes
//! the contract here exact bit identity — on random tensors of orders 3
//! through 5 and on every dataset profile, at 1/2/4 threads — and
//! [`TuckerSession::index_layout`] reports which structure a plan holds:
//! CSF on every per-mode plan, none (`Coo`) on dimension-tree plans.

mod contract;

use proptest::prelude::*;
use tucker_repro::hooi::symbolic::SymbolicTtmc;
use tucker_repro::hooi::ttmc::ttmc_mode;
use tucker_repro::prelude::*;

fn factors_for(tensor: &SparseTensor, ranks: &[usize], seed: u64) -> Vec<Matrix> {
    tensor
        .dims()
        .iter()
        .zip(ranks.iter())
        .enumerate()
        .map(|(m, (&d, &r))| Matrix::random(d, r, seed + m as u64))
        .collect()
}

fn ttmc_bits(
    tensor: &SparseTensor,
    sym: &SymbolicTtmc,
    factors: &[Matrix],
    threads: usize,
) -> Vec<Vec<u64>> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        (0..tensor.order())
            .map(|mode| {
                ttmc_mode(tensor, sym.mode(mode), factors, mode)
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect()
    })
}

/// Asserts the TTMc of every mode is bit-identical between the COO gather
/// and the CSF fiber walk, at 1/2/4 threads.
fn assert_layouts_bit_identical(tensor: &SparseTensor, ranks: &[usize], seed: u64) {
    let factors = factors_for(tensor, ranks, seed);
    let coo = SymbolicTtmc::build_without_layout(tensor);
    let csf = SymbolicTtmc::build(tensor);
    for mode in 0..tensor.order() {
        assert!(coo.mode(mode).csf().is_none());
        assert!(csf.mode(mode).csf().is_some());
    }
    for threads in [1usize, 2, 4] {
        let coo_bits = ttmc_bits(tensor, &coo, &factors, threads);
        let csf_bits = ttmc_bits(tensor, &csf, &factors, threads);
        assert_eq!(
            coo_bits, csf_bits,
            "CSF diverged from COO at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn csf_ttmc_bit_identical_order3(
        args in (5usize..14, 5usize..14, 5usize..14, 30usize..250, 0u64..1000,
                 1usize..5, 1usize..5, 1usize..5),
    ) {
        let (d1, d2, d3, nnz, seed, r1, r2, r3) = args;
        let tensor = random_tensor(&[d1, d2, d3], nnz, seed);
        assert_layouts_bit_identical(&tensor, &[r1, r2, r3], seed ^ 0x61);
    }

    #[test]
    fn csf_ttmc_bit_identical_order4(
        args in (4usize..10, 4usize..10, 4usize..10, 4usize..10, 30usize..250,
                 0u64..1000, 1usize..5, 1usize..5),
    ) {
        let (d1, d2, d3, d4, nnz, seed, r1, r2) = args;
        let tensor = random_tensor(&[d1, d2, d3, d4], nnz, seed);
        assert_layouts_bit_identical(&tensor, &[r1, r2, r1, r2], seed ^ 0x62);
    }

    #[test]
    fn csf_ttmc_bit_identical_order5(
        args in (3usize..8, 3usize..8, 30usize..200, 0u64..1000,
                 1usize..4, 1usize..4, 1usize..4),
    ) {
        let (d1, d2, nnz, seed, r1, r2, r3) = args;
        let tensor = random_tensor(&[d1, d2, d1 + 1, d2 + 1, d1], nnz, seed);
        assert_layouts_bit_identical(&tensor, &[r1, r2, r3, r1, r2], seed ^ 0x63);
    }

}

/// The structure a plan reports is the structure it holds: CSF on every
/// per-mode plan — explicit, `Auto` resolved to per-mode, and the order-1
/// fallback of a tree request — and none (`Coo`) on every tree plan.
#[test]
fn plans_report_csf_per_mode_and_coo_for_trees() {
    let plan = |tensor: &SparseTensor, strategy: TtmcStrategy| {
        let solver = TuckerSolver::plan(
            tensor,
            PlanOptions::new().num_threads(1).ttmc_strategy(strategy),
        )
        .unwrap();
        let held = (0..tensor.order())
            .filter(|&m| solver.symbolic().mode(m).csf().is_some())
            .count();
        (solver.ttmc_strategy(), solver.index_layout(), held)
    };
    for dims in [
        vec![40],
        vec![12, 10],
        vec![12, 10, 8],
        vec![9, 8, 7, 6],
        vec![6, 5, 4, 5, 4],
    ] {
        let order = dims.len();
        let tensor = random_tensor(&dims, 150, 3 + order as u64);
        assert_eq!(
            plan(&tensor, TtmcStrategy::PerMode),
            (TtmcStrategy::PerMode, IndexLayout::Csf, order),
            "order {order}"
        );
        let expect_tree = if order == 1 {
            // No tree over a single mode: the request falls back to per-mode.
            (TtmcStrategy::PerMode, IndexLayout::Csf, 1)
        } else {
            (TtmcStrategy::DimensionTree, IndexLayout::Coo, 0)
        };
        assert_eq!(
            plan(&tensor, TtmcStrategy::DimensionTree),
            expect_tree,
            "order {order}"
        );
    }
    // A hyper-diagonal tensor: no two nonzeros share a projection, so
    // sharing cannot pay and `Auto` resolves to the per-mode sweep.
    let n = 40usize;
    let entries: Vec<(Vec<usize>, f64)> = (0..n)
        .map(|i| (vec![i, i, i], 1.0 + i as f64 * 0.5))
        .collect();
    let diagonal = SparseTensor::from_entries(vec![n, n, n], &entries);
    assert_eq!(
        plan(&diagonal, TtmcStrategy::Auto),
        (TtmcStrategy::PerMode, IndexLayout::Csf, 3)
    );
}

/// On every generated dataset profile the CSF walk matches the COO gather
/// bit for bit at 1/2/4 threads, and a per-mode plan, which reports and
/// streams CSF, solves at pool width 4 to the blessed digest of the
/// profile's per-mode class of the determinism contract
/// (`tests/determinism.rs`), whose reference-loop member gathers COO.
#[test]
fn solves_are_bit_identical_across_layouts_on_all_profiles() {
    let select = |input: &contract::Input| input.scope == contract::Scope::Profile;
    contract::check_members(select, |input| {
        let ranks: Vec<usize> = input.tensor.dims().iter().map(|&d| d.min(3)).collect();
        assert_layouts_bit_identical(&input.tensor, &ranks, 0x64);
        let mut session = contract::plan(&input.tensor, TtmcStrategy::PerMode, 4);
        assert_eq!(session.index_layout(), IndexLayout::Csf, "{}", input.name);
        let got = contract::digest_of(&session.solve(&input.config).unwrap());
        let member = "per-mode (CSF) solve() at pool width 4".to_string();
        vec![(TtmcStrategy::PerMode, member, got)]
    });
}

/// Streamed ingestion feeds the same solves: every input of the
/// determinism contract but the rank sweep's, written to disk with a
/// `# dims:` header and read back through the streamed reader, solves
/// per-mode to its class's blessed digest.
#[test]
fn streamed_roundtrip_preserves_solves_bitwise() {
    let dir = std::env::temp_dir().join(format!("tucker-layouts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let select = |input: &contract::Input| input.scope != contract::Scope::Sweep;
    contract::check_members(select, |input| {
        let tensor = &input.tensor;
        let path = dir.join(format!("{}.tns", input.name));
        write_tns_file_with_header(tensor, &path).unwrap();
        let (back, _) = read_tns_file_streamed(&path, &StreamOptions::new()).unwrap();
        assert_eq!(back.dims(), tensor.dims(), "{}", input.name);
        assert_eq!(back.nnz(), tensor.nnz(), "{}", input.name);
        let solved = contract::plan(&back, TtmcStrategy::PerMode, 2).solve(&input.config);
        let member = "solve() after a streamed .tns round trip".to_string();
        vec![(
            TtmcStrategy::PerMode,
            member,
            contract::digest_of(&solved.unwrap()),
        )]
    });
    std::fs::remove_dir_all(&dir).ok();
}
