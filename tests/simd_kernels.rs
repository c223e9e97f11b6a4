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
//! * the arity-2 zero-coefficient skip asymmetry documented on
//!   `accumulate_scaled_kron` — the exact test the kron docs reference;
//! * full solves bit-identical between `Scalar` and `Avx2` on every
//!   generated dataset profile;
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
    // per-nonzero kernels of all three index layouts must still match the
    // COO gather bit for bit, at Scalar and Avx2.
    let tensor = random_tensor(&[9, 8, 7, 6], 300, 41);
    let factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| {
            let mut f = Matrix::random(d, 3, 90 + m as u64);
            for (j, x) in f.as_mut_slice().iter_mut().enumerate() {
                if j % 4 == 0 {
                    *x = 0.0;
                }
            }
            f
        })
        .collect();
    let coo = SymbolicTtmc::build_without_layout(&tensor);
    let sorted = SymbolicTtmc::build(&tensor);
    let mut csf = SymbolicTtmc::build_without_layout(&tensor);
    csf.attach_csf_layouts(&tensor);
    for mode in 0..tensor.order() {
        let reference = bits(ttmc_mode(&tensor, coo.mode(mode), &factors, mode).as_slice());
        for sym in [&sorted, &csf] {
            let got = bits(ttmc_mode(&tensor, sym.mode(mode), &factors, mode).as_slice());
            assert_eq!(
                reference, got,
                "mode {mode}: layout diverged with zero factors"
            );
        }
    }
}

/// End-to-end: full solves planned at `Scalar` and at `Avx2` produce
/// bit-identical fits, cores and factors on every generated dataset
/// profile — the kernel tier is invisible to results.
#[test]
fn solves_are_bit_identical_scalar_vs_avx2_on_all_profiles() {
    if !KernelIsa::Avx2.supported() {
        eprintln!("skipping: host lacks AVX2");
        return;
    }
    for name in ProfileName::all() {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(2_500, 13);
        let ranks: Vec<usize> = tensor.dims().iter().map(|&d| d.min(3)).collect();
        let config = TuckerConfig::new(ranks).max_iterations(2).seed(5);
        let solve = |isa: KernelIsa| {
            TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(2).kernel_isa(isa))
                .unwrap()
                .solve(&config)
                .unwrap()
        };
        let scalar = solve(KernelIsa::Scalar);
        let avx2 = solve(KernelIsa::Avx2);
        assert_eq!(scalar.fits, avx2.fits, "{name:?}: fits diverged");
        assert_eq!(
            bits(scalar.core.as_slice()),
            bits(avx2.core.as_slice()),
            "{name:?}: core diverged"
        );
        for (u, v) in scalar.factors.iter().zip(avx2.factors.iter()) {
            assert_eq!(
                bits(u.as_slice()),
                bits(v.as_slice()),
                "{name:?}: factor diverged"
            );
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
