//! Index-layout contracts: the CSF fiber walk and the flat gathers are the
//! **same IEEE accumulation**, not merely close.
//!
//! The CSF hierarchies are built from the symbolic update-list permutation,
//! so their leaf order equals the flat paths' accumulation order; the
//! per-nonzero kernel bodies are literally shared between the layouts.
//! That makes the contract here exact bit identity — on random tensors of
//! orders 3 through 5, at 1/2/4 threads, for the raw TTMc and for full
//! solves — which is what lets a plan pick its layout purely on memory
//! footprint without changing a single output bit.

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

/// Asserts the TTMc of every mode is bit-identical across the COO gather,
/// the flat mode-sorted stream, and the CSF fiber walk, at 1/2/4 threads.
fn assert_layouts_bit_identical(tensor: &SparseTensor, ranks: &[usize], seed: u64) {
    let factors = factors_for(tensor, ranks, seed);
    let coo = SymbolicTtmc::build_without_layout(tensor);
    let sorted = SymbolicTtmc::build(tensor); // attaches mode-sorted layouts
    let mut csf = SymbolicTtmc::build_without_layout(tensor);
    csf.attach_csf_layouts(tensor);
    for mode in 0..tensor.order() {
        assert!(csf.mode(mode).csf().is_some());
        assert!(sorted.mode(mode).layout().is_some());
    }
    for threads in [1usize, 2, 4] {
        let coo_bits = ttmc_bits(tensor, &coo, &factors, threads);
        let sorted_bits = ttmc_bits(tensor, &sorted, &factors, threads);
        let csf_bits = ttmc_bits(tensor, &csf, &factors, threads);
        assert_eq!(
            coo_bits, sorted_bits,
            "mode-sorted diverged from COO at {threads} threads"
        );
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

    // The Auto resolution is a pure function of (order, nnz): below the
    // memory threshold the flat copies win, above it the plan compresses.
    #[test]
    fn auto_layout_resolution_is_monotone_in_size(
        args in (2usize..6, 1usize..1_000_000_000),
    ) {
        let (order, nnz) = args;
        let resolved = IndexLayout::Auto.resolve_for(order, nnz);
        prop_assert!(resolved == IndexLayout::ModeSorted || resolved == IndexLayout::Csf);
        // Monotone: if this size compresses, every larger size does too.
        if resolved == IndexLayout::Csf {
            prop_assert_eq!(
                IndexLayout::Auto.resolve_for(order, nnz.saturating_mul(2)),
                IndexLayout::Csf
            );
        }
        // Concrete layouts never re-resolve.
        for fixed in [IndexLayout::Coo, IndexLayout::ModeSorted, IndexLayout::Csf] {
            prop_assert_eq!(fixed.resolve_for(order, nnz), fixed);
        }
    }
}

/// End-to-end: on every generated dataset profile, full solves under the
/// three concrete layouts produce bit-identical factors, core and fits, at
/// every pool width — so the layout knob is invisible to results.
#[test]
fn solves_are_bit_identical_across_layouts_on_all_profiles() {
    for name in ProfileName::all() {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(2_500, 13);
        let ranks: Vec<usize> = tensor.dims().iter().map(|&d| d.min(3)).collect();
        let config = TuckerConfig::new(ranks).max_iterations(2).seed(5);
        for threads in [1usize, 2, 4] {
            let mut reference: Option<TuckerDecomposition> = None;
            for layout in [IndexLayout::Coo, IndexLayout::ModeSorted, IndexLayout::Csf] {
                let mut solver = TuckerSolver::plan(
                    &tensor,
                    PlanOptions::new()
                        .num_threads(threads)
                        .ttmc_strategy(TtmcStrategy::PerMode)
                        .index_layout(layout),
                )
                .unwrap();
                assert_eq!(solver.index_layout(), layout, "{name:?}");
                let result = solver.solve(&config).unwrap();
                match &reference {
                    None => reference = Some(result),
                    Some(base) => {
                        assert_eq!(
                            base.fits, result.fits,
                            "{name:?} @ {threads} threads, {layout:?}"
                        );
                        assert_eq!(
                            base.core.as_slice(),
                            result.core.as_slice(),
                            "{name:?} @ {threads} threads, {layout:?}: core diverged"
                        );
                        for (u, v) in base.factors.iter().zip(result.factors.iter()) {
                            let ub: Vec<u64> = u.as_slice().iter().map(|x| x.to_bits()).collect();
                            let vb: Vec<u64> = v.as_slice().iter().map(|x| x.to_bits()).collect();
                            assert_eq!(
                                ub, vb,
                                "{name:?} @ {threads} threads, {layout:?}: factor diverged"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The point of CSF: on tensors whose foreign indices fit `u32`, the
/// compressed plan is strictly smaller than the flat mode-sorted plan.
#[test]
fn csf_plan_is_smaller_than_mode_sorted_on_profiles() {
    for name in ProfileName::all() {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(6_000, 17);
        let plan_bytes = |layout| {
            TuckerSolver::plan(
                &tensor,
                PlanOptions::new()
                    .num_threads(1)
                    .ttmc_strategy(TtmcStrategy::PerMode)
                    .index_layout(layout),
            )
            .unwrap()
            .memory_bytes()
        };
        let coo = plan_bytes(IndexLayout::Coo);
        let sorted = plan_bytes(IndexLayout::ModeSorted);
        let csf = plan_bytes(IndexLayout::Csf);
        assert!(coo < csf, "{name:?}: CSF adds structure over bare COO");
        assert!(
            csf < sorted,
            "{name:?}: CSF plan ({csf} bytes) not below mode-sorted ({sorted} bytes)"
        );
    }
}

/// Streamed ingestion feeds the same solves: a tensor written to disk with
/// a `# dims:` header, read back through the bounded chunked reader, and
/// solved under CSF matches the in-memory original bit for bit.
#[test]
fn streamed_roundtrip_preserves_solves_bitwise() {
    let tensor = random_tensor(&[40, 30, 20], 2_000, 29);
    let dir = std::env::temp_dir().join(format!("tucker-layouts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.tns");
    write_tns_file_with_header(&tensor, &path).unwrap();
    let options = StreamOptions::new().chunk_nonzeros(97);
    let (back, stats) = read_tns_file_streamed(&path, &options).unwrap();
    assert_eq!(back.dims(), tensor.dims());
    assert_eq!(back.nnz(), tensor.nnz());
    let word = std::mem::size_of::<usize>();
    assert!(stats.peak_buffer_bytes <= 97 * (3 + 1) * word);

    let config = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2).seed(2);
    let solve = |t: &SparseTensor| {
        TuckerSolver::plan(
            t,
            PlanOptions::new()
                .num_threads(1)
                .ttmc_strategy(TtmcStrategy::PerMode)
                .index_layout(IndexLayout::Csf),
        )
        .unwrap()
        .solve(&config)
        .unwrap()
    };
    let a = solve(&tensor);
    let b = solve(&back);
    assert_eq!(a.fits, b.fits);
    assert_eq!(a.core.as_slice(), b.core.as_slice());
    std::fs::remove_dir_all(&dir).ok();
}
