//! SIMD kernel-tier contracts, from raw kernels up to full solves.
//!
//! The dispatch layer (`linalg::simd`, re-exported as `sptensor::simd`)
//! promises that `Scalar` and `Avx2` are the **same IEEE arithmetic** —
//! separate multiply and add per element, no fused contractions, no
//! horizontal reductions — so switching tiers never changes a single
//! output bit.  These tests pin all of that:
//!
//! * raw-kernel bitwise identity (`axpy`, `scaled_outer2`,
//!   `scaled_outer3`, `gemv`, and the Kronecker accumulation at every
//!   arity) over arbitrary lengths, remainder lanes 1–3 included, and
//!   regardless of buffer address (aligned vs deliberately misaligned);
//! * the dimension tree's group kernels (`scaled_outer2_group`,
//!   `axpy_group`) against the per-member loop they replace, on both tiers;
//! * the arity-2 zero-coefficient skip asymmetry documented on
//!   `accumulate_scaled_kron` — the exact test the kron docs reference —
//!   through the per-mode kernels and a dimension-tree plan;
//! * full solves bit-identical between `Scalar` and `Avx2` on every
//!   generated dataset profile, at ranks whose rows fill whole vectors and
//!   ranks that end in masked lanes;
//! * the `KernelIsa` parse/resolve surface.
//!
//! Vector tests self-skip on hosts without AVX2.  Assertions that depend
//! on the process environment are guarded on `KernelIsa::from_env()` so
//! the suite also passes under a forced `TUCKER_KERNEL` (as CI runs it).

use proptest::prelude::*;
use tucker_repro::prelude::*;
use tucker_repro::sptensor::simd::{self, AlignedVec};
use tucker_repro::sptensor::{accumulate_scaled_kron_isa, kron_rows};

/// Deterministic pseudo-random values in `[-0.5, 0.5)`.
fn lcg_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03)
        | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Runs `body` once into a 64-byte-aligned accumulator and once into a
/// deliberately misaligned one (`Vec` storage offset by one element), and
/// asserts both produce the same bits: alignment is a throughput knob,
/// never a results knob.
fn run_aligned_and_misaligned(
    len: usize,
    seed: u64,
    body: impl Fn(&mut [f64]),
) -> (Vec<u64>, Vec<u64>) {
    let init = lcg_vec(len, seed ^ 0xACC);
    let mut aligned = AlignedVec::zeros(len);
    aligned.copy_from_slice(&init);
    body(&mut aligned);
    let mut backing = vec![0.0f64; len + 1];
    backing[1..].copy_from_slice(&init);
    body(&mut backing[1..]);
    (bits(&aligned), bits(&backing[1..]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Lengths 1..70 sweep every remainder class: full 8-wide blocks, the
    // 4-wide tail, and 1–3 scalar leftovers.
    #[test]
    fn axpy_avx2_bit_identical_to_scalar(args in (1usize..70, 0u64..1000)) {
        let (len, seed) = args;
        if !KernelIsa::Avx2.supported() {
            return;
        }
        let x = lcg_vec(len, seed);
        let alpha = lcg_vec(1, seed ^ 0xA1)[0] * 3.0;
        let (scalar_a, scalar_m) = run_aligned_and_misaligned(len, seed, |out| {
            simd::axpy(KernelIsa::Scalar, alpha, &x, out);
        });
        let (avx_a, avx_m) = run_aligned_and_misaligned(len, seed, |out| {
            simd::axpy(KernelIsa::Avx2, alpha, &x, out);
        });
        prop_assert_eq!(&scalar_a, &scalar_m);
        prop_assert_eq!(&avx_a, &avx_m);
        prop_assert_eq!(scalar_a, avx_a);
    }

    #[test]
    fn scaled_outer2_avx2_bit_identical_to_scalar(
        args in (1usize..18, 1usize..18, 0u64..1000),
    ) {
        let (ra, rb, seed) = args;
        if !KernelIsa::Avx2.supported() {
            return;
        }
        let u = lcg_vec(ra, seed);
        let v = lcg_vec(rb, seed ^ 0xB2);
        let x = lcg_vec(1, seed ^ 0xC3)[0] * 2.0;
        let len = ra * rb;
        let (scalar_a, scalar_m) = run_aligned_and_misaligned(len, seed, |out| {
            simd::scaled_outer2(KernelIsa::Scalar, x, &u, &v, out);
        });
        let (avx_a, avx_m) = run_aligned_and_misaligned(len, seed, |out| {
            simd::scaled_outer2(KernelIsa::Avx2, x, &u, &v, out);
        });
        prop_assert_eq!(&scalar_a, &scalar_m);
        prop_assert_eq!(&avx_a, &avx_m);
        prop_assert_eq!(scalar_a, avx_a);
    }

    #[test]
    fn scaled_outer3_avx2_bit_identical_to_scalar(
        args in (1usize..10, 1usize..10, 1usize..10, 0u64..1000),
    ) {
        let (ra, rb, rc, seed) = args;
        if !KernelIsa::Avx2.supported() {
            return;
        }
        let u = lcg_vec(ra, seed);
        let v = lcg_vec(rb, seed ^ 0xD4);
        let w = lcg_vec(rc, seed ^ 0xE5);
        let x = lcg_vec(1, seed ^ 0xF6)[0] * 2.0;
        let len = ra * rb * rc;
        let (scalar_a, scalar_m) = run_aligned_and_misaligned(len, seed, |out| {
            simd::scaled_outer3(KernelIsa::Scalar, x, &u, &v, &w, out);
        });
        let (avx_a, avx_m) = run_aligned_and_misaligned(len, seed, |out| {
            simd::scaled_outer3(KernelIsa::Avx2, x, &u, &v, &w, out);
        });
        prop_assert_eq!(&scalar_a, &scalar_m);
        prop_assert_eq!(&avx_a, &avx_m);
        prop_assert_eq!(scalar_a, avx_a);
    }

    #[test]
    fn gemv_avx2_bit_identical_to_scalar(
        args in (1usize..14, 1usize..40, 0u64..1000),
    ) {
        let (rows, cols, seed) = args;
        if !KernelIsa::Avx2.supported() {
            return;
        }
        let a = lcg_vec(rows * cols, seed);
        let x = lcg_vec(cols, seed ^ 0x9A);
        let (scalar_a, scalar_m) = run_aligned_and_misaligned(rows, seed, |out| {
            simd::gemv(KernelIsa::Scalar, &a, rows, cols, &x, out);
        });
        let (avx_a, avx_m) = run_aligned_and_misaligned(rows, seed, |out| {
            simd::gemv(KernelIsa::Avx2, &a, rows, cols, &x, out);
        });
        prop_assert_eq!(&scalar_a, &scalar_m);
        prop_assert_eq!(&avx_a, &avx_m);
        prop_assert_eq!(scalar_a, avx_a);
    }

    // The kron accumulation has three distinct branches (arity 1, arity 2
    // with the coefficient skip, arity ≥3 via materialization); all must
    // be ISA-transparent.
    #[test]
    fn kron_accumulation_avx2_bit_identical_at_every_arity(
        args in (1usize..5, 1usize..6, 1usize..6, 1usize..6, 1usize..6, 0u64..1000),
    ) {
        let (arity, d1, d2, d3, d4, seed) = args;
        if !KernelIsa::Avx2.supported() {
            return;
        }
        let dims = [d1, d2, d3, d4];
        let rows_data: Vec<Vec<f64>> = dims[..arity]
            .iter()
            .enumerate()
            .map(|(i, &d)| lcg_vec(d, seed ^ (i as u64 + 1)))
            .collect();
        let rows: Vec<&[f64]> = rows_data.iter().map(|r| r.as_slice()).collect();
        let len: usize = dims[..arity].iter().product();
        let alpha = lcg_vec(1, seed ^ 0x77)[0] * 2.0;
        let run = |isa: KernelIsa| {
            let mut acc = lcg_vec(len, seed ^ 0xACC);
            let mut scratch = vec![0.0f64; len];
            accumulate_scaled_kron_isa(isa, alpha, &rows, &mut acc, &mut scratch);
            bits(&acc)
        };
        prop_assert_eq!(run(KernelIsa::Scalar), run(KernelIsa::Avx2));
    }
}

/// The dimension tree's group kernels equal the per-member loop they
/// replace — zero the row, then one `scaled_outer2` / `axpy` per member at
/// forced scalar — bit for bit at both tiers: every `u`/`v` length 1–17
/// (whole vectors and 1–3 masked lanes), member counts from none to 1000
/// (either side of the one-pass/register-tile switch at 4 members and of
/// the 64-member gather chunk), an accumulator at a misaligned address,
/// and coefficients that are `±0.0` or subnormal.
#[test]
fn group_kernels_match_the_per_member_loop_bitwise() {
    const COUNTS: [usize; 11] = [0, 1, 2, 3, 4, 5, 7, 33, 64, 65, 1000];
    let isas: Vec<KernelIsa> = [KernelIsa::Scalar, KernelIsa::Avx2]
        .into_iter()
        .filter(|isa| isa.supported())
        .collect();
    let specials = [0.0, -0.0, 5e-324, -1.5e-310, 2.2e-308, 1.0];
    let coeff = |k: usize, seed: u64| match k % 5 {
        0 => specials[(k / 5) % specials.len()],
        _ => lcg_vec(1, seed ^ k as u64)[0] * 4.0,
    };
    // A pool of rows the members pick from, as tree members pick factor
    // rows; some entries exactly zero so the scalar skip fires.
    let pool = |len: usize, seed: u64| -> Vec<Vec<f64>> {
        (0..37)
            .map(|i| {
                let mut row = lcg_vec(len, seed ^ (i as u64) << 8);
                row[i % len] = 0.0;
                row
            })
            .collect()
    };
    // Runs `body` into an aligned and a misaligned accumulator holding
    // garbage (the kernels overwrite, they do not accumulate).
    let run = |len: usize, body: &dyn Fn(&mut [f64])| -> [Vec<u64>; 2] {
        let mut aligned = AlignedVec::zeros(len);
        aligned.fill(f64::NAN);
        body(&mut aligned);
        let mut backing = vec![f64::NAN; len + 1];
        body(&mut backing[1..]);
        [bits(&aligned), bits(&backing[1..])]
    };
    for ra in 1..=17usize {
        let us = pool(ra, 11 + ra as u64);
        for rb in 1..=17usize {
            let vs = pool(rb, 23 + rb as u64);
            for count in COUNTS {
                let seed = (ra * 100 + rb) as u64;
                let member = |k: usize| (coeff(k, seed), &us[k % 37][..], &vs[(k * 7) % 37][..]);
                let mut reference = vec![0.0; ra * rb];
                for k in 0..count {
                    let (x, u, v) = member(k);
                    simd::scaled_outer2(KernelIsa::Scalar, x, u, v, &mut reference);
                }
                for &isa in &isas {
                    let got = run(ra * rb, &|out| {
                        simd::scaled_outer2_group(isa, 0..count, (ra, rb), member, out)
                    });
                    for got in got {
                        assert_eq!(
                            got,
                            bits(&reference),
                            "outer2 {ra}x{rb}, {count} members, {isa}"
                        );
                    }
                }
            }
        }
        for count in COUNTS {
            let member = |k: usize| (coeff(k, ra as u64), &us[(k * 5) % 37][..]);
            let mut reference = vec![0.0; ra];
            for k in 0..count {
                let (x, u) = member(k);
                simd::axpy(KernelIsa::Scalar, x, u, &mut reference);
            }
            for &isa in &isas {
                for got in run(ra, &|out| simd::axpy_group(isa, 0..count, member, out)) {
                    assert_eq!(got, bits(&reference), "axpy {ra}, {count} members, {isa}");
                }
            }
        }
    }
}

/// The regression test the `accumulate_scaled_kron` docs reference: zero
/// factor entries exercise the arity-2 zero-coefficient **skip** (rows
/// whose hoisted `alpha·uᵢ` is `0.0` are not touched) against the
/// skip-free arity-1/arity-≥3 paths, and the asymmetry must stay
/// bit-transparent — at every arity, at every supported ISA, and through
/// every index layout of the real TTMc kernels.
#[test]
fn zero_factor_entries_keep_all_arities_bit_identical() {
    use tucker_repro::hooi::symbolic::SymbolicTtmc;
    use tucker_repro::hooi::ttmc::ttmc_mode;

    let isas: Vec<KernelIsa> = [KernelIsa::Scalar, KernelIsa::Avx2]
        .into_iter()
        .filter(|isa| isa.supported())
        .collect();

    // A skip-free scalar reference that mirrors each arity's *rounding
    // order* exactly: arity 1 and arity ≥3 scale by `alpha` last (the
    // materialized kron + axpy order), arity 2 hoists `alpha·uᵢ` first —
    // but, unlike the real branch, never skips a zero coefficient.
    // Equality with the dispatched path then proves the skip is invisible.
    let reference_accumulate = |alpha: f64, rows: &[&[f64]], acc: &mut [f64]| match rows.len() {
        1 => {
            for (a, &x) in acc.iter_mut().zip(rows[0]) {
                *a += alpha * x;
            }
        }
        2 => {
            let (u, v) = (rows[0], rows[1]);
            for (i, &ui) in u.iter().enumerate() {
                let coeff = alpha * ui;
                for (j, &vj) in v.iter().enumerate() {
                    acc[i * v.len() + j] += coeff * vj;
                }
            }
        }
        _ => {
            let mut kron = vec![0.0f64; acc.len()];
            kron_rows(rows, &mut kron);
            for (a, &s) in acc.iter_mut().zip(&kron) {
                *a += alpha * s;
            }
        }
    };

    // Kernel level: rows riddled with exact zeros, every arity, each ISA's
    // dispatched branch against the skip-free reference.
    for arity in 1usize..=4 {
        let dims = &[5usize, 7, 3, 4][..arity];
        for seed in [11u64, 29, 53] {
            let rows_data: Vec<Vec<f64>> = dims
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let mut r = lcg_vec(d, seed ^ (i as u64 + 1));
                    // Zero a deterministic subset, always including row 0.
                    for (j, rj) in r.iter_mut().enumerate() {
                        if j % 3 == 0 {
                            *rj = 0.0;
                        }
                    }
                    r
                })
                .collect();
            let rows: Vec<&[f64]> = rows_data.iter().map(|r| r.as_slice()).collect();
            let len: usize = dims.iter().product();
            for &isa in &isas {
                for alpha in [1.25f64, 0.0] {
                    let init = lcg_vec(len, seed ^ 0xACC);
                    let mut direct = init.clone();
                    let mut scratch = vec![0.0f64; len];
                    accumulate_scaled_kron_isa(isa, alpha, &rows, &mut direct, &mut scratch);
                    let mut reference = init.clone();
                    reference_accumulate(alpha, &rows, &mut reference);
                    assert_eq!(
                        bits(&direct),
                        bits(&reference),
                        "arity {arity}, {isa}, alpha {alpha}: zero-skip changed bits"
                    );
                }
            }
        }
    }

    // TTMc level: factor matrices with zeroed entries flowing through the
    // CSF walk's per-nonzero kernels must still match the COO gather bit
    // for bit, at Scalar and Avx2.
    let zeroed_factors = |tensor: &SparseTensor| -> Vec<Matrix> {
        (tensor.dims().iter().enumerate())
            .map(|(m, &d)| {
                let mut f = Matrix::random(d, 3, 90 + m as u64);
                for (j, x) in f.as_mut_slice().iter_mut().enumerate() {
                    if j % 4 == 0 {
                        *x = 0.0;
                    }
                }
                f
            })
            .collect()
    };
    let tensor = random_tensor(&[9, 8, 7, 6], 300, 41);
    let factors = zeroed_factors(&tensor);
    let coo = SymbolicTtmc::build_without_layout(&tensor);
    let csf = SymbolicTtmc::build(&tensor);
    for mode in 0..tensor.order() {
        let reference = bits(ttmc_mode(&tensor, coo.mode(mode), &factors, mode).as_slice());
        let got = bits(ttmc_mode(&tensor, csf.mode(mode), &factors, mode).as_slice());
        assert_eq!(
            reference, got,
            "mode {mode}: CSF diverged from COO with zero factors"
        );
    }

    // Dimension-tree level: the scalar tier's per-member loop skips zero
    // coefficients, the AVX2 group kernel never does; every node shape the
    // tree runs (a root child contracting one mode or two, a deeper node
    // contracting one) must serve the same bits either way.
    use tucker_repro::hooi::dimtree::serve_mode_into_isa;
    use tucker_repro::hooi::{DimTree, HooiWorkspace};
    for tensor in [tensor, random_tensor(&[9, 8, 7], 300, 43)] {
        let factors = zeroed_factors(&tensor);
        let ranks = vec![3; tensor.order()];
        let sym = SymbolicTtmc::build_without_layout(&tensor);
        let tree = DimTree::build(&tensor);
        let serve = |isa: KernelIsa| -> Vec<Vec<u64>> {
            let mut ws = HooiWorkspace::new(&sym, &ranks);
            ws.ensure_tree(&tree, &ranks);
            (0..tensor.order())
                .map(|mode| {
                    serve_mode_into_isa(
                        &tree,
                        &tensor,
                        sym.mode(mode),
                        &factors,
                        mode,
                        &mut ws,
                        isa,
                    );
                    bits(ws.compact(mode).as_slice())
                })
                .collect()
        };
        let reference = serve(KernelIsa::Scalar);
        for &isa in &isas {
            assert_eq!(
                serve(isa),
                reference,
                "order {}: tree diverged with zero factors under {isa}",
                tensor.order()
            );
        }
    }
}

/// End-to-end: full solves planned at `Scalar` and at `Avx2` produce
/// bit-identical fits, cores and factors on every generated dataset
/// profile — the kernel tier is invisible to results — at rank 3, at ranks
/// 5, 7 and 10 whose rows end in masked lanes, and (rank 10 on order 3) at
/// the `dense3` / `nell3` benchmark shape.
#[test]
fn solves_are_bit_identical_scalar_vs_avx2_on_all_profiles() {
    if !KernelIsa::Avx2.supported() {
        eprintln!("skipping: host lacks AVX2");
        return;
    }
    for name in ProfileName::all() {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(2_500, 13);
        let plan = |isa: KernelIsa| {
            TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(2).kernel_isa(isa)).unwrap()
        };
        let (mut scalar_plan, mut avx2_plan) = (plan(KernelIsa::Scalar), plan(KernelIsa::Avx2));
        for rank in [3usize, 5, 7, 10] {
            let ranks: Vec<usize> = tensor.dims().iter().map(|&d| d.min(rank)).collect();
            let config = TuckerConfig::new(ranks).max_iterations(2).seed(5);
            let scalar = scalar_plan.solve(&config).unwrap();
            let avx2 = avx2_plan.solve(&config).unwrap();
            assert_eq!(
                scalar.fits, avx2.fits,
                "{name:?} rank {rank}: fits diverged"
            );
            assert_eq!(
                bits(scalar.core.as_slice()),
                bits(avx2.core.as_slice()),
                "{name:?} rank {rank}: core diverged"
            );
            for (u, v) in scalar.factors.iter().zip(avx2.factors.iter()) {
                assert_eq!(
                    bits(u.as_slice()),
                    bits(v.as_slice()),
                    "{name:?} rank {rank}: factor diverged"
                );
            }
        }
    }
}

/// The `KernelIsa` surface: parsing, display, resolution invariants, and
/// the session accessor.  Environment-dependent claims are only asserted
/// when `TUCKER_KERNEL` is not forcing the process.
#[test]
fn kernel_isa_parse_resolve_and_session_accessor() {
    for isa in [KernelIsa::Auto, KernelIsa::Scalar, KernelIsa::Avx2] {
        assert_eq!(KernelIsa::parse(isa.as_str()), Some(isa));
        assert_eq!(
            KernelIsa::parse(&isa.as_str().to_ascii_uppercase()),
            Some(isa)
        );
        // Resolution always lands on a concrete, supported tier.
        let resolved = isa.resolve();
        assert_ne!(resolved, KernelIsa::Auto);
        assert!(resolved.supported());
    }
    assert_eq!(KernelIsa::parse("sse9"), None);
    assert_eq!(KernelIsa::parse(""), None);
    assert_ne!(KernelIsa::resolved_default(), KernelIsa::Auto);
    if KernelIsa::from_env().is_none() {
        assert_eq!(KernelIsa::Scalar.resolve(), KernelIsa::Scalar);
    }

    let tensor = random_tensor(&[12, 11, 10], 200, 3);
    let solver = TuckerSolver::plan(
        &tensor,
        PlanOptions::new()
            .num_threads(1)
            .kernel_isa(KernelIsa::Scalar),
    )
    .unwrap();
    // Never Auto; exactly the request when no environment override forces
    // the process.
    assert_ne!(solver.kernel_isa(), KernelIsa::Auto);
    assert!(solver.kernel_isa().supported());
    if KernelIsa::from_env().is_none() {
        assert_eq!(solver.kernel_isa(), KernelIsa::Scalar);
    }
}
