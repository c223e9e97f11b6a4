//! Microbenchmarks of the runtime-dispatched SIMD kernel layer.
//!
//! Sweeps the hot TTMc kernels — `axpy` (the arity-1 Kronecker accumulate),
//! `scaled_outer2` (arity 2), `scaled_outer3` (the order-4 micro-kernel)
//! and the materialized `accumulate_scaled_kron` (arity ≥ 3) — over a grid
//! of rank sizes that includes non-multiple-of-4 lengths (5, 7, 9, 15, 31),
//! so the remainder handling is measured, not just the full-lane bodies.
//! Every `(kernel, rank)` cell runs once per *explicitly forced* ISA tier
//! ([`KernelIsa::Scalar`], [`KernelIsa::Avx2`] — skipped on a host without
//! it), bypassing both the `TUCKER_KERNEL` environment override and the
//! hardware auto-detection so the numbers compare kernels, not dispatch
//! policy.
//!
//! Before timing, every AVX2 cell is checked **bitwise** against its scalar
//! twin on identical inputs — the default-tier contract (vector lanes
//! perform the same multiply-then-add as the scalar loop, no FMA
//! contraction, no reordered reductions) is asserted here on every run, not
//! just in the test suite.  A mismatch aborts the bin.
//!
//! A second section, `gemv_normal`, times one Lanczos TRSVD step on the
//! tall-skinny `Y_(n)` shapes of the repo benchmark (54 563 × 100 and
//! 8 000 × 125): the fused sweep [`par_gemv_normal`] against the two sweeps
//! it stands for, [`par_gemv`] then [`par_gemv_t`], interleaved, minimum of
//! [`REPEATS`], at the default pool width and ISA tier.  Both report the
//! bytes the *two* products read per second, so the fused cell's GB/s is
//! higher by the traffic it saves.
//!
//! A third section, `gram`, is what the TRSVD's formed-normal-matrix regime
//! rests on (`linalg::lanczos`): [`par_gram`] (`AᵀA` in one syrk-shaped
//! sweep) at both tiers, bits asserted equal, in ms, in GFLOP/s and *in
//! units of one fused sweep* of that shape, timed back to back as the
//! `gemv_normal` section does (at the default tier, so the scalar rows are
//! in AVX2 sweeps on an AVX2 host) — the currency of the Krylov path it
//! replaces, which needs about two subspaces' worth (60 at rank 10) — plus
//! the [`symmetric_eig`] of the result, on the benchmark's
//! two large `Y_(n)` shapes and on 250 and 500 columns, either side of the
//! gate (`ncols ≤ 8·subspace`: 240 at rank 10): forming stays near
//! `ncols / 10` sweeps, the `ncols³` eigensolve is what ends it.  The
//! `recovery` cell times the gemm-shaped `Y·Vᵀ` ([`par_gemm_nt_into`])
//! against one [`par_gemv`] per column.  All interleaved, minimum of
//! [`REPEATS`], at the default pool width.
//!
//! A fourth section, `tree_group`, is the dimension tree's node kernel: one
//! node of entries whose member groups each sum `x·(u ⊗ v)` over factor
//! rows picked at random from 1 024-row pools, by the group kernel
//! ([`simd::scaled_outer2_group`]: register tiles) against the per-member
//! loop it replaced (zero the row, one [`simd::scaled_outer2`] per member),
//! on both tiers, bits asserted equal, interleaved, minimum of [`REPEATS`],
//! in ns per member.  Group sizes 1–2 are `nell3`'s mode-0 leaf, 333 is
//! `dense3`'s.  The group kernel *is* the per-member loop on the scalar
//! tier, and for a one-member group on AVX2 too (the register tiles
//! measured 0.72–0.90x of it at ranks 4–16), so those cells read 1.0x by
//! construction.
//!
//! Machine-readable output goes to `BENCH_kernels.json` (override with
//! `--out <path>`), including the host's `cpu_features` so a 1.0x speedup
//! on an AVX2-less host is interpretable.  With `--check` the bin doubles
//! as the SIMD perf gate: it exits nonzero unless the median single-thread
//! AVX2 speedup of `scaled_outer2` and `scaled_outer3` over forced scalar,
//! across the rank ≥ 8 cells, reaches 1.3x, or if an AVX2 `tree_group` cell
//! with at least two members per group is slower than the per-member loop
//! — skipped gracefully (exit 0 with a notice) on hosts without AVX2, where
//! there is nothing to gate.
//!
//! Run with `cargo run --release -p bench --bin kernels`.

use bench::{cpu_features_json, print_header};
use linalg::blas::{par_gemm_nt_into, par_gemv, par_gemv_normal, par_gemv_t, par_gram};
use linalg::eig::symmetric_eig;
use linalg::simd::{self, AlignedVec, KernelIsa};
use linalg::Matrix;
use sptensor::kron::accumulate_scaled_kron;
use std::time::Instant;

/// Rank grid: powers of two for the full-lane fast path, odd sizes for the
/// 1–3-element remainders, and the rank-8/16/32 sizes the solver's TTMc
/// actually runs at.
const RANKS: [usize; 10] = [4, 5, 7, 8, 9, 12, 15, 16, 31, 32];

/// `--check`: required median AVX2 speedup of the outer-product kernels
/// over forced scalar at rank ≥ 8.
const REQUIRED_SPEEDUP: f64 = 1.3;

/// Minimum rank a cell must have to count toward the `--check` gate (below
/// this the buffers are too small for SIMD to matter).
const GATE_MIN_RANK: usize = 8;

/// `tree_group` grid: ranks (whole vectors and masked tails) and members
/// per group.
const TREE_RANKS: [usize; 6] = [4, 5, 7, 8, 10, 16];
const TREE_GROUPS: [usize; 4] = [1, 2, 8, 333];

/// Members per `tree_group` node, split into groups of the cell's size.
const TREE_MEMBERS: usize = 4_000;

/// Target wall time per measured batch; long enough to dominate timer
/// resolution, short enough that the full sweep stays in seconds.
const TARGET_SECONDS: f64 = 0.01;

/// Timing repetitions per cell.  The ISAs are measured **interleaved** —
/// scalar, avx2, scalar, … — and each ISA reports its minimum, so
/// slow frequency drift (turbo decay, hypervisor steal on a shared vCPU)
/// hits every tier equally instead of flattering whichever ran first.
const REPEATS: usize = 5;

/// Deterministic pseudo-random data in `[-0.5, 0.5)`.
fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// Deterministic pseudo-random data in a fresh [`AlignedVec`].
fn lcg_aligned(n: usize, seed: u64) -> AlignedVec {
    let mut buf = AlignedVec::zeros(n);
    buf.copy_from_slice(&lcg_data(n, seed));
    buf
}

/// One benchmarked kernel shape at one rank: inputs are owned so a single
/// closure-free `call` can run it at any ISA against any output buffer.
/// All buffers are 64-byte aligned ([`AlignedVec`]), matching how a tuned
/// caller should allocate long-lived accumulators — unaligned buffers pay
/// a cache-line-split penalty that measures allocator luck, not kernels.
struct Case {
    kernel: &'static str,
    rank: usize,
    out_len: usize,
    flops_per_call: u64,
    alpha: f64,
    u: AlignedVec,
    v: AlignedVec,
    w: AlignedVec,
}

impl Case {
    fn new(kernel: &'static str, rank: usize, seed: u64) -> Case {
        let r = rank;
        let (out_len, flops, ul, vl, wl) = match kernel {
            // axpy over a TTMc-row-sized vector (rank² for a 3-mode result).
            "axpy" => (r * r, 2 * (r * r) as u64, r * r, 0, 0),
            "scaled_outer2" => (r * r, (r + 2 * r * r) as u64, r, r, 0),
            // Per output element: t = p·w, acc += x·t (3 flops) plus the
            // r² hoisted p = α·u coefficients… the outer2-style count.
            "scaled_outer3" => (r * r * r, (r * r + 3 * r * r * r) as u64, r, r, r),
            // Materialize u ⊗ v ⊗ w, then axpy it.
            "kron3_materialized" => (
                r * r * r,
                (r + r * r + r * r * r) as u64 + 2 * (r * r * r) as u64,
                r,
                r,
                r,
            ),
            other => unreachable!("unknown kernel {other}"),
        };
        Case {
            kernel,
            rank,
            out_len,
            flops_per_call: flops,
            alpha: 0.7315,
            u: lcg_aligned(ul, seed ^ 0x11),
            v: lcg_aligned(vl, seed ^ 0x22),
            w: lcg_aligned(wl, seed ^ 0x33),
        }
    }

    /// One kernel invocation at `isa`, accumulating into `out` (and using
    /// `scratch` where the kernel needs it).
    fn call(&self, isa: KernelIsa, out: &mut [f64], scratch: &mut [f64]) {
        match self.kernel {
            "axpy" => simd::axpy(isa, self.alpha, &self.u, out),
            "scaled_outer2" => simd::scaled_outer2(isa, self.alpha, &self.u, &self.v, out),
            "scaled_outer3" => simd::scaled_outer3(isa, self.alpha, &self.u, &self.v, &self.w, out),
            "kron3_materialized" => {
                accumulate_scaled_kron(isa, self.alpha, &[&self.u, &self.v, &self.w], out, scratch)
            }
            other => unreachable!("unknown kernel {other}"),
        }
    }
}

/// One measured `(kernel, rank, isa)` cell.
struct Cell {
    kernel: &'static str,
    rank: usize,
    out_len: usize,
    isa: &'static str,
    ns_per_call: f64,
    gflops: f64,
    /// This cell's time relative to the same `(kernel, rank)` at forced
    /// scalar (1.0 for the scalar cells themselves).
    speedup_vs_scalar: f64,
}

/// Asserts that `isa` produces bit-identical output to forced scalar on
/// this case (fresh zeroed accumulators, identical inputs).  The scalar
/// reference runs in a deliberately *unaligned* buffer: results must not
/// depend on where the accumulator lives.
fn assert_bitwise_matches_scalar(case: &Case, isa: KernelIsa) {
    let mut backing = vec![0.0f64; case.out_len + 1];
    let reference = &mut backing[1..];
    let mut scratch_a = vec![0.0f64; case.out_len];
    case.call(KernelIsa::Scalar, reference, &mut scratch_a);
    let mut out = AlignedVec::zeros(case.out_len);
    let mut scratch_b = AlignedVec::zeros(case.out_len);
    case.call(isa, &mut out, &mut scratch_b);
    for (i, (a, b)) in reference.iter().zip(out.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} rank {} diverges from scalar at element {i} under {isa}: {a:e} vs {b:e}",
            case.kernel,
            case.rank,
        );
    }
}

/// Measures one kernel at every ISA, interleaved: calibrates an iteration
/// count that runs for [`TARGET_SECONDS`] (on the scalar tier, so every
/// tier runs the same batch), then cycles scalar → avx2 for
/// [`REPEATS`] rounds and reports each tier's minimum in nanoseconds per
/// call, in the same order as `isas`.  `call` is a monomorphized closure —
/// the timing loop contains the kernel's real dispatch (the per-call ISA
/// branch the TTMc inner loop also pays) and nothing else.
fn measure_cell<F>(out_len: usize, isas: &[KernelIsa], call: F) -> Vec<f64>
where
    F: Fn(KernelIsa, &mut [f64], &mut [f64]),
{
    let mut out = AlignedVec::zeros(out_len);
    let mut scratch = AlignedVec::zeros(out_len);
    // Calibration: double until the batch is measurable, then scale.
    let mut iters = 1u64;
    let per_call = loop {
        let t = Instant::now();
        for _ in 0..iters {
            call(KernelIsa::Scalar, &mut out, &mut scratch);
        }
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed > 1e-3 {
            break elapsed / iters as f64;
        }
        iters *= 2;
    };
    let iters = ((TARGET_SECONDS / per_call) as u64).max(1);
    let mut best = vec![f64::INFINITY; isas.len()];
    for _ in 0..REPEATS {
        for (slot, &isa) in isas.iter().enumerate() {
            // Fresh accumulator per batch keeps the values bounded.
            out.iter_mut().for_each(|x| *x = 0.0);
            let t = Instant::now();
            for _ in 0..iters {
                call(isa, &mut out, &mut scratch);
            }
            best[slot] = best[slot].min(t.elapsed().as_secs_f64() / iters as f64 * 1e9);
        }
    }
    best
}

/// Dispatches `measure_cell` with a monomorphized closure per kernel, so
/// the timed loop never matches on the kernel name.
fn measure_case(case: &Case, isas: &[KernelIsa]) -> Vec<f64> {
    match case.kernel {
        "axpy" => measure_cell(case.out_len, isas, |isa, out, _s| {
            simd::axpy(isa, case.alpha, &case.u, out)
        }),
        "scaled_outer2" => measure_cell(case.out_len, isas, |isa, out, _s| {
            simd::scaled_outer2(isa, case.alpha, &case.u, &case.v, out)
        }),
        "scaled_outer3" => measure_cell(case.out_len, isas, |isa, out, _s| {
            simd::scaled_outer3(isa, case.alpha, &case.u, &case.v, &case.w, out)
        }),
        "kron3_materialized" => measure_cell(case.out_len, isas, |isa, out, s| {
            accumulate_scaled_kron(isa, case.alpha, &[&case.u, &case.v, &case.w], out, s)
        }),
        other => unreachable!("unknown kernel {other}"),
    }
}

/// One `tree_group` cell: a node's worth of member groups at one tier.
struct TreeGroupCell {
    rank: usize,
    group: usize,
    isa: KernelIsa,
    per_member_ns: f64,
    group_ns: f64,
}

impl TreeGroupCell {
    fn speedup(&self) -> f64 {
        self.per_member_ns / self.group_ns
    }
}

/// Times one node — `TREE_MEMBERS / group` entries of `group` members,
/// each entry's `rank × rank` row summed from random factor-row pairs —
/// through the per-member loop and the group kernel at every tier,
/// interleaved, minimum of [`REPEATS`], after asserting that all of them
/// return the same bits.
fn measure_tree_group(rank: usize, group: usize, isas: &[KernelIsa]) -> Vec<TreeGroupCell> {
    let (u, v) = (
        Matrix::random_signed(1024, rank, 3),
        Matrix::random_signed(1024, rank, 4),
    );
    let ids: Vec<usize> = lcg_data(2 * TREE_MEMBERS, 5)
        .iter()
        .map(|x| ((x + 0.5) * 1024.0) as usize % 1024)
        .collect();
    let x = lcg_data(TREE_MEMBERS, 6);
    let member = |k: usize| (x[k], u.row(ids[2 * k]), v.row(ids[2 * k + 1]));
    let entries = TREE_MEMBERS / group;
    let mut out = AlignedVec::zeros(entries * rank * rank);
    let per_member = |isa: KernelIsa, out: &mut [f64]| {
        for (g, row) in out.chunks_exact_mut(rank * rank).enumerate() {
            row.fill(0.0);
            for k in g * group..(g + 1) * group {
                let (x, u, v) = member(k);
                simd::scaled_outer2(isa, x, u, v, row);
            }
        }
    };
    let grouped = |isa: KernelIsa, out: &mut [f64]| {
        for (g, row) in out.chunks_exact_mut(rank * rank).enumerate() {
            simd::scaled_outer2_group(isa, g * group..(g + 1) * group, (rank, rank), member, row);
        }
    };
    per_member(KernelIsa::Scalar, &mut out);
    let reference: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
    for &isa in isas {
        for body in [&per_member as &dyn Fn(KernelIsa, &mut [f64]), &grouped] {
            out.fill(f64::NAN);
            body(isa, &mut out);
            assert!(
                out.iter()
                    .map(|x| x.to_bits())
                    .eq(reference.iter().copied()),
                "tree_group rank {rank} x{group} diverges from scalar under {isa}"
            );
        }
    }
    let start = Instant::now();
    per_member(KernelIsa::Scalar, &mut out);
    let iters = (TARGET_SECONDS / start.elapsed().as_secs_f64().max(1e-7)).ceil() as u32;
    let mut best = vec![(f64::INFINITY, f64::INFINITY); isas.len()];
    let timed = |body: &dyn Fn(KernelIsa, &mut [f64]), isa, out: &mut [f64]| {
        let start = Instant::now();
        for _ in 0..iters {
            body(isa, out);
        }
        start.elapsed().as_secs_f64() * 1e9 / (iters as usize * entries * group) as f64
    };
    for _ in 0..REPEATS {
        for (best, &isa) in best.iter_mut().zip(isas) {
            best.0 = best.0.min(timed(&per_member, isa, &mut out));
            best.1 = best.1.min(timed(&grouped, isa, &mut out));
        }
    }
    (isas.iter().zip(best))
        .map(|(&isa, (per_member_ns, group_ns))| TreeGroupCell {
            rank,
            group,
            isa,
            per_member_ns,
            group_ns,
        })
        .collect()
}

/// `Y_(n)` shapes of the `gemv_normal` section: `nell3` mode 0 and a
/// `delicious4` mode.
const NORMAL_SHAPES: [(usize, usize); 2] = [(54_563, 100), (8_000, 125)];

/// One `gemv_normal` cell: a Lanczos step on a `rows × cols` matrix, fused
/// and as two products.
struct NormalCell {
    rows: usize,
    cols: usize,
    fused_ns: f64,
    two_sweeps_ns: f64,
}

impl NormalCell {
    /// GB/s of the bytes `par_gemv` + `par_gemv_t` read (twice the matrix).
    fn gbs(&self, ns: f64) -> f64 {
        (2 * 8 * self.rows * self.cols) as f64 / ns
    }
}

/// Times `t = A x, y = Aᵀ t` both ways, interleaved, minimum of
/// [`REPEATS`], after asserting the two return the same bits.
fn measure_gemv_normal(rows: usize, cols: usize) -> NormalCell {
    let a = Matrix::random_signed(rows, cols, 0x6e0f);
    let x = lcg_data(cols, 3);
    let (mut t, mut y) = (vec![0.0; rows], vec![0.0; cols]);
    let (mut t_ref, mut y_ref) = (vec![0.0; rows], vec![0.0; cols]);
    par_gemv_normal(&a, &x, &mut t, &mut y);
    par_gemv(&a, &x, &mut t_ref);
    par_gemv_t(&a, &t_ref, &mut y_ref);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&t), bits(&t_ref), "fused t diverges at {rows}x{cols}");
    assert_eq!(bits(&y), bits(&y_ref), "fused y diverges at {rows}x{cols}");

    let iters = (TARGET_SECONDS / (rows * cols) as f64 * 2e9).ceil() as u64;
    let (mut fused_ns, mut two_sweeps_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..iters {
            par_gemv_normal(&a, &x, &mut t, &mut y);
        }
        fused_ns = fused_ns.min(start.elapsed().as_secs_f64() / iters as f64 * 1e9);
        let start = Instant::now();
        for _ in 0..iters {
            par_gemv(&a, &x, &mut t);
            par_gemv_t(&a, &t, &mut y);
        }
        two_sweeps_ns = two_sweeps_ns.min(start.elapsed().as_secs_f64() / iters as f64 * 1e9);
    }
    std::hint::black_box((&t, &y));
    NormalCell {
        rows,
        cols,
        fused_ns,
        two_sweeps_ns,
    }
}

/// `Y_(n)` shapes of the `gram` section: `nell3` mode 0, `delicious4` mode
/// 2, and two widths around the gate of the formed-normal-matrix TRSVD
/// (`ncols ≤ 8·subspace`: 240 at rank 10).
const GRAM_SHAPES: [(usize, usize); 4] =
    [(54_563, 100), (38_542, 125), (20_000, 250), (20_000, 500)];

/// One `gram` cell: forming `AᵀA` at one tier, against one fused Lanczos
/// sweep of a matrix of the same shape (default tier), and the eigensolve
/// of the result.
struct GramCell {
    rows: usize,
    cols: usize,
    isa: KernelIsa,
    gram_ns: f64,
    fused_sweep_ns: f64,
    eig_ns: f64,
}

impl GramCell {
    /// Flops of the upper triangle (one multiply and one add per entry and
    /// row) per nanosecond.
    fn gflops(&self) -> f64 {
        (self.rows * self.cols * (self.cols + 1)) as f64 / self.gram_ns
    }

    fn fused_sweeps(&self) -> f64 {
        self.gram_ns / self.fused_sweep_ns
    }
}

/// Times `par_gram` at every tier and `symmetric_eig` of the result,
/// interleaved, minimum of [`REPEATS`], after asserting the tiers return the
/// same bits, then the fused sweep ([`measure_gemv_normal`]); one cell per
/// tier.
fn measure_gram(rows: usize, cols: usize, isas: &[KernelIsa]) -> Vec<GramCell> {
    let a = Matrix::random_signed(rows, cols, 0x6a2d);
    let g = par_gram(isas[0], &a);
    for &isa in &isas[1..] {
        assert_eq!(par_gram(isa, &a), g, "{isa} gram diverges at {rows}x{cols}");
    }
    let timed = |best: &mut f64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        *best = best.min(start.elapsed().as_secs_f64() * 1e9);
    };
    let mut gram_ns = vec![f64::INFINITY; isas.len()];
    let mut eig_ns = f64::INFINITY;
    for _ in 0..REPEATS {
        for (ns, &isa) in gram_ns.iter_mut().zip(isas) {
            timed(ns, &mut || drop(std::hint::black_box(par_gram(isa, &a))));
        }
        timed(&mut eig_ns, &mut || {
            drop(std::hint::black_box(symmetric_eig(&g)))
        });
    }
    // The unit: a sweep as a Krylov run issues them, back to back (a lone
    // sweep after another kernel runs at up to half that speed).
    let fused_sweep_ns = measure_gemv_normal(rows, cols).fused_ns;
    (isas.iter().zip(gram_ns))
        .map(|(&isa, gram_ns)| GramCell {
            rows,
            cols,
            isa,
            gram_ns,
            fused_sweep_ns,
            eig_ns,
        })
        .collect()
}

/// `(column_loop_ns, gemm_ns)` of the recovery product `C = A·Vᵀ` at
/// `rows × cols × k`: one [`par_gemv`] per row of `V` (what an operator
/// without a block product runs) against the gemm-shaped
/// [`par_gemm_nt_into`]; interleaved, minimum of [`REPEATS`], bits asserted
/// equal.
fn measure_recovery(rows: usize, cols: usize, k: usize) -> (f64, f64) {
    let a = Matrix::random_signed(rows, cols, 0x6a2d);
    let v = Matrix::random_signed(k, cols, 0x51);
    let (mut old, mut new) = (Matrix::zeros(rows, k), Matrix::zeros(rows, k));
    let mut column = vec![0.0; rows];
    let (mut old_ns, mut new_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPEATS {
        let start = Instant::now();
        for j in 0..k {
            par_gemv(&a, v.row(j), &mut column);
            old.set_col(j, &column);
        }
        old_ns = old_ns.min(start.elapsed().as_secs_f64() * 1e9);
        let start = Instant::now();
        par_gemm_nt_into(&a, &v, &mut new);
        new_ns = new_ns.min(start.elapsed().as_secs_f64() * 1e9);
    }
    assert_eq!(
        old, new,
        "gemm-shaped recovery diverges from the column loop"
    );
    (old_ns, new_ns)
}

fn to_json(
    host_cpus: usize,
    cells: &[Cell],
    tree: &[TreeGroupCell],
    normal: &[NormalCell],
    gram: &[GramCell],
    recovery: (f64, f64),
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"kernels\",\n");
    out.push_str("  \"command\": \"cargo run --release -p bench --bin kernels\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&cpu_features_json());
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"rank\": {}, \"out_len\": {}, \"isa\": \"{}\", \
             \"ns_per_call\": {:.2}, \"gflops\": {:.3}, \"speedup_vs_scalar\": {:.4}}}{}\n",
            c.kernel,
            c.rank,
            c.out_len,
            c.isa,
            c.ns_per_call,
            c.gflops,
            c.speedup_vs_scalar,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"tree_group\": [\n");
    for (i, c) in tree.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rank\": {}, \"group\": {}, \"isa\": \"{}\", \"per_member_ns\": {:.2}, \
             \"group_ns\": {:.2}, \"speedup\": {:.4}}}{}\n",
            c.rank,
            c.group,
            c.isa,
            c.per_member_ns,
            c.group_ns,
            c.speedup(),
            if i + 1 == tree.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"gemv_normal_threads\": {},\n  \"gemv_normal\": [\n",
        rayon::current_num_threads()
    ));
    for (i, c) in normal.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"cols\": {}, \"fused_ns\": {:.0}, \"two_sweeps_ns\": {:.0}, \
             \"fused_gbs\": {:.2}, \"two_sweeps_gbs\": {:.2}, \"speedup\": {:.4}}}{}\n",
            c.rows,
            c.cols,
            c.fused_ns,
            c.two_sweeps_ns,
            c.gbs(c.fused_ns),
            c.gbs(c.two_sweeps_ns),
            c.two_sweeps_ns / c.fused_ns,
            if i + 1 == normal.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"gram\": [\n");
    for (i, c) in gram.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"cols\": {}, \"isa\": \"{}\", \"ms\": {:.3}, \"gflops\": {:.2}, \
             \"fused_sweeps\": {:.2}, \"fused_sweep_ms\": {:.3}, \"symmetric_eig_ms\": {:.3}}}{}\n",
            c.rows,
            c.cols,
            c.isa,
            c.gram_ns / 1e6,
            c.gflops(),
            c.fused_sweeps(),
            c.fused_sweep_ns / 1e6,
            c.eig_ns / 1e6,
            if i + 1 == gram.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"recovery_54563x100x10\": {{\"column_loop_ms\": {:.3}, \"gemm_ms\": {:.3}, \"speedup\": {:.4}}}\n}}\n",
        recovery.0 / 1e6,
        recovery.1 / 1e6,
        recovery.0 / recovery.1
    ));
    out
}

struct BinArgs {
    out: String,
    check: bool,
}

fn bin_args() -> BinArgs {
    let mut out = BinArgs {
        out: "BENCH_kernels.json".to_string(),
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                })
            }
            "--check" => out.check = true,
            _ => {}
        }
    }
    out
}

/// Median of a cell subset's speedups (the `--check` statistic: robust to
/// one noisy rank without letting a systematic regression through).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

/// Applies the `--check` speedup gates; returns the process exit code.
fn check_gate(cells: &[Cell], tree: &[TreeGroupCell]) -> i32 {
    if !simd::avx2_available() {
        println!("\n--check skipped: host has no AVX2, there is no SIMD speedup to gate");
        return 0;
    }
    let mut ok = true;
    for kernel in ["scaled_outer2", "scaled_outer3"] {
        let speedups: Vec<f64> = cells
            .iter()
            .filter(|c| c.kernel == kernel && c.isa == "avx2" && c.rank >= GATE_MIN_RANK)
            .map(|c| c.speedup_vs_scalar)
            .collect();
        let med = median(speedups);
        let pass = med >= REQUIRED_SPEEDUP;
        ok &= pass;
        println!(
            "  gate: {kernel:<15} median avx2 speedup at rank >= {GATE_MIN_RANK}: \
             {med:.2}x (need {REQUIRED_SPEEDUP:.2}x) {}",
            if pass { "ok" } else { "FAIL" }
        );
    }
    let losing: Vec<String> = (tree.iter())
        .filter(|c| c.isa == KernelIsa::Avx2 && c.group >= 2 && c.speedup() < 1.0)
        .map(|c| format!("rank {} x{} {:.2}x", c.rank, c.group, c.speedup()))
        .collect();
    ok &= losing.is_empty();
    println!(
        "  gate: tree_group      avx2 group kernel vs per-member loop, groups >= 2: {}",
        if losing.is_empty() {
            "no cell below 1.0x ok".to_string()
        } else {
            format!("FAIL at {}", losing.join(", "))
        }
    );
    if ok {
        println!("--check passed");
        0
    } else {
        println!("--check FAILED");
        1
    }
}

fn main() {
    let args = bin_args();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut isas = vec![KernelIsa::Scalar];
    if simd::avx2_available() {
        isas.push(KernelIsa::Avx2);
    }
    print_header(
        "SIMD kernel microbenchmarks: forced scalar vs AVX2",
        &format!(
            "ranks {RANKS:?}, single thread, {host_cpus} host CPU(s), \
             tiers available here: {}",
            isas.iter()
                .map(|i| i.as_str())
                .collect::<Vec<_>>()
                .join("/")
        ),
    );

    let mut cells: Vec<Cell> = Vec::new();
    for kernel in [
        "axpy",
        "scaled_outer2",
        "scaled_outer3",
        "kron3_materialized",
    ] {
        println!("{kernel}:");
        for (k, &rank) in RANKS.iter().enumerate() {
            let case = Case::new(kernel, rank, 0xbe5c ^ (k as u64) << 8);
            // The default-tier bit-identity contract, asserted on real
            // hardware every time the bench runs.
            if simd::avx2_available() {
                assert_bitwise_matches_scalar(&case, KernelIsa::Avx2);
            }
            let timings = measure_case(&case, &isas);
            let scalar_ns = timings[0];
            for (&isa, &ns) in isas.iter().zip(timings.iter()) {
                let speedup = scalar_ns / ns;
                println!(
                    "  rank {rank:>2} ({:>5} out) {:<6} {:>9.1} ns/call, {:>6.2} gflop/s, \
                     {speedup:>5.2}x vs scalar",
                    case.out_len,
                    isa.as_str(),
                    ns,
                    case.flops_per_call as f64 / ns,
                );
                cells.push(Cell {
                    kernel,
                    rank,
                    out_len: case.out_len,
                    isa: isa.as_str(),
                    ns_per_call: ns,
                    gflops: case.flops_per_call as f64 / ns,
                    speedup_vs_scalar: speedup,
                });
            }
        }
    }

    println!("tree_group (ns per member; per-member loop -> group kernel):");
    let mut tree: Vec<TreeGroupCell> = Vec::new();
    for &rank in &TREE_RANKS {
        for &group in &TREE_GROUPS {
            for c in measure_tree_group(rank, group, &isas) {
                println!(
                    "  rank {rank:>2} x{group:<3} {:<6} {:>7.2} -> {:>7.2} ns  {:>5.2}x",
                    c.isa.as_str(),
                    c.per_member_ns,
                    c.group_ns,
                    c.speedup(),
                );
                tree.push(c);
            }
        }
    }

    println!(
        "gemv_normal (one Lanczos step, {} thread(s), {} tier):",
        rayon::current_num_threads(),
        KernelIsa::resolved_default()
    );
    let normal: Vec<NormalCell> = NORMAL_SHAPES
        .iter()
        .map(|&(rows, cols)| {
            let cell = measure_gemv_normal(rows, cols);
            println!(
                "  {rows:>6} x {cols:<3} fused {:>9.0} ns ({:>6.2} GB/s)   \
                 par_gemv + par_gemv_t {:>9.0} ns ({:>6.2} GB/s)   {:>5.2}x",
                cell.fused_ns,
                cell.gbs(cell.fused_ns),
                cell.two_sweeps_ns,
                cell.gbs(cell.two_sweeps_ns),
                cell.two_sweeps_ns / cell.fused_ns,
            );
            cell
        })
        .collect();

    println!("gram (AᵀA in one sweep; min of {REPEATS}, in units of one fused sweep):");
    let gram: Vec<GramCell> = (GRAM_SHAPES.iter())
        .flat_map(|&(rows, cols)| measure_gram(rows, cols, &isas))
        .inspect(|c| {
            println!(
                "  {:>6} x {:<3} {:<6} {:>8.2} ms  {:>6.2} gflop/s  = {:>5.2} fused sweeps \
                 ({:.2} ms each)   symmetric_eig {:>7.2} ms",
                c.rows,
                c.cols,
                c.isa.as_str(),
                c.gram_ns / 1e6,
                c.gflops(),
                c.fused_sweeps(),
                c.fused_sweep_ns / 1e6,
                c.eig_ns / 1e6,
            )
        })
        .collect();
    let recovery = measure_recovery(54_563, 100, 10);
    println!(
        "recovery product 54563 x 100 x 10: column loop {:.2} ms, gemm-shaped {:.2} ms ({:.2}x)",
        recovery.0 / 1e6,
        recovery.1 / 1e6,
        recovery.0 / recovery.1
    );

    std::fs::write(
        &args.out,
        to_json(host_cpus, &cells, &tree, &normal, &gram, recovery),
    )
    .expect("write BENCH_kernels.json");
    println!(
        "\nwrote {} ({} kernel cells, {} tree_group cells, {} gemv_normal cells, {} gram cells)",
        args.out,
        cells.len(),
        tree.len(),
        normal.len(),
        gram.len()
    );

    if args.check {
        std::process::exit(check_gate(&cells, &tree));
    }
}
