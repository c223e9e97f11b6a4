//! The three solver workloads: `.tns` on disk → streamed ingest → plan →
//! solve → fit, cycle after cycle, and in a traced run the same solve
//! replayed from here through the public calls `solve()` makes, one span
//! per call.

use crate::host;
use crate::metrics::{Gate, Measured};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{seeded_tensor, tensor_checksum, SolverSpec, SOLVE_ITERATIONS};
use crate::RunArgs;
use hooi::core_tensor::{core_from_last_ttmc_into, core_from_scratch};
use hooi::dimtree::{factor_updated, serve_mode_into_isa};
use hooi::fit::fit_from_norms;
use hooi::hosvd::random_factors;
use hooi::trsvd::trsvd_factor_with;
use hooi::{
    per_mode_costs, DimTree, HooiWorkspace, IndexLayout, KernelIsa, PlanOptions, SymbolicTtmc,
    TtmcStrategy, TuckerConfig, TuckerDecomposition, TuckerSolver,
};
use linalg::blas::{par_gemv, par_gemv_t};
use linalg::Matrix;
use sptensor::io::{read_tns_file_streamed, write_tns_file_with_header, StreamOptions};
use sptensor::SparseTensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

const TTMC_MODE: [&str; 4] = ["ttmc.mode0", "ttmc.mode1", "ttmc.mode2", "ttmc.mode3"];
const TRSVD_MODE: [&str; 4] = ["trsvd.mode0", "trsvd.mode1", "trsvd.mode2", "trsvd.mode3"];
const TTMC_MODE_S: [&str; 4] = [
    "ttmc.mode0_s",
    "ttmc.mode1_s",
    "ttmc.mode2_s",
    "ttmc.mode3_s",
];
const TRSVD_MODE_S: [&str; 4] = [
    "trsvd.mode0_s",
    "trsvd.mode1_s",
    "trsvd.mode2_s",
    "trsvd.mode3_s",
];

/// What `prepare` leaves on disk, and what the ingested tensor must equal.
struct Input {
    path: PathBuf,
    dims: Vec<usize>,
    nnz: usize,
    checksum: u64,
    file_bytes: u64,
}

fn prepare(spec: &SolverSpec, seed: u64, dir: &Path) -> std::io::Result<Input> {
    let tensor = seeded_tensor(spec.profile, spec.dims, spec.nnz, 0, seed);
    let path = dir.join("tensor.tns");
    write_tns_file_with_header(&tensor, &path)?;
    Ok(Input {
        file_bytes: std::fs::metadata(&path)?.len(),
        path,
        dims: tensor.dims().to_vec(),
        nnz: tensor.nnz(),
        checksum: tensor_checksum(&tensor),
    })
}

/// Times of one cycle.  Timed samples are `None`/empty when an operation
/// failed before they could be taken.
#[derive(Default)]
struct Cycle {
    calib: f64,
    setup: Option<f64>,
    e2e: Option<f64>,
    steady: Vec<f64>,
    plan_bytes: usize,
    /// The TTMc strategy `plan()` resolved `Auto` to.
    strategy: Option<TtmcStrategy>,
    ingest_s: f64,
    plan_s: f64,
    peak_parse_bytes: usize,
    traced: Option<TracedCycle>,
    /// The cycle's tensor and last decomposition, for the end-of-run check.
    last: Option<(SparseTensor, TuckerDecomposition)>,
}

/// What the harness-driven part of a traced cycle measured outside spans.
struct TracedCycle {
    /// The replayed fit; NaN when the two passes disagree.
    fit: f64,
    replay_s: f64,
    applications: Vec<usize>,
    ttmc_flops: u64,
    ttmc_words: u64,
    /// Seconds of one `par_gemv` and one `par_gemv_t` on each mode's `Y`.
    gemv_s: Vec<(f64, f64)>,
    /// `rows × cols` of each mode's compact `Y`.
    y_shape: Vec<(usize, usize)>,
}

struct Harness<'a> {
    input: &'a Input,
    config: TuckerConfig,
    width: usize,
}

impl Harness<'_> {
    /// One cycle: the cold path once, `warm_solves` steady solves, and with
    /// tracing on the harness-side plan pieces and the replayed solve.
    fn cycle(
        &self,
        warm_solves: usize,
        tr: &mut Tracer,
        gate: &mut Gate,
        reference_fit: &mut Option<u64>,
    ) -> Cycle {
        let mut out = Cycle::default();
        let whole = tr.enter("cycle");
        let span = tr.enter("calib");
        out.calib = host::calibration_seconds();
        tr.exit(span);

        let t0 = Instant::now();
        let span = tr.enter("io.ingest");
        let read = read_tns_file_streamed(&self.input.path, &StreamOptions::new());
        tr.exit(span);
        out.ingest_s = t0.elapsed().as_secs_f64();
        let Some((tensor, stream_stats)) = gate.ok("read_tns_file_streamed", read) else {
            tr.exit(whole);
            return out;
        };
        out.peak_parse_bytes = stream_stats.peak_buffer_bytes;

        let t_plan = Instant::now();
        let span = tr.enter("plan");
        let planned = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(self.width));
        tr.exit(span);
        out.plan_s = t_plan.elapsed().as_secs_f64();
        let setup = t0.elapsed().as_secs_f64();
        let Some(mut solver) = gate.ok("TuckerSolver::plan", planned) else {
            tr.exit(whole);
            return out;
        };
        out.setup = Some(setup);

        let span = tr.enter("solve.cold");
        let first = solver.solve(&self.config);
        tr.exit(span);
        let e2e = t0.elapsed().as_secs_f64();
        let mut last = gate.ok("solve (cold)", first);
        if let Some(d) = &last {
            out.e2e = Some(e2e);
            check_solve(gate, d, reference_fit);
        }
        for _ in 0..warm_solves {
            let t = Instant::now();
            let span = tr.enter("solve.warm");
            let warm = solver.solve(&self.config);
            tr.exit(span);
            let seconds = t.elapsed().as_secs_f64();
            if let Some(d) = gate.ok("solve (warm)", warm) {
                out.steady.push(seconds);
                check_solve(gate, &d, reference_fit);
                last = Some(d);
            }
        }
        out.plan_bytes = solver.memory_bytes();
        let strategy = solver.ttmc_strategy();
        out.strategy = Some(strategy);
        let layout = solver.index_layout();
        let isa = solver.kernel_isa();
        drop(solver);

        if tr.enabled() {
            let traced = self.traced_part(tr, &tensor, strategy, layout, isa);
            gate.check(Some(traced.fit.to_bits()) == *reference_fit, || {
                format!("replayed fit {} differs from solve()'s", traced.fit)
            });
            out.traced = Some(traced);
        }

        // The program only ever sees the file: what it read back must be
        // the tensor `prepare` generated.
        gate.check(
            tensor.dims() == self.input.dims
                && tensor.nnz() == self.input.nnz
                && tensor_checksum(&tensor) == self.input.checksum,
            || "streamed tensor differs from the generated one".to_string(),
        );
        out.last = last.map(|d| (tensor, d));
        tr.exit(whole);
        out
    }

    /// Builds the plan's pieces from here, one span each, then replays the
    /// solve through the calls `run_hooi` makes.
    fn traced_part(
        &self,
        tr: &mut Tracer,
        tensor: &SparseTensor,
        strategy: TtmcStrategy,
        layout: IndexLayout,
        isa: KernelIsa,
    ) -> TracedCycle {
        let span = tr.enter("pool.build");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.width)
            .build()
            .expect("a pool this narrow always builds");
        tr.exit(span);
        let span = tr.enter("plan.symbolic");
        let mut symbolic = pool.install(|| SymbolicTtmc::build_without_layout(tensor));
        tr.exit(span);
        let span = tr.enter("plan.dimtree");
        let tree = pool.install(|| DimTree::build(tensor));
        tr.exit(span);
        // `plan()` kept the tree or, when the per-mode sweep priced lower,
        // attached that sweep's streaming layout; mirror its choice.
        let tree = match strategy {
            TtmcStrategy::DimensionTree => Some(tree),
            _ => {
                match layout {
                    IndexLayout::Coo => {}
                    IndexLayout::Csf => pool.install(|| symbolic.attach_csf_layouts(tensor)),
                    _ => pool.install(|| symbolic.attach_layouts(tensor)),
                }
                None
            }
        };
        let ranks = self
            .config
            .validated_ranks(tensor.dims())
            .expect("the solver accepted these ranks");
        let costs = match &tree {
            Some(tree) => tree.costs(&ranks),
            None => per_mode_costs(&symbolic, tensor.nnz(), &ranks),
        };
        let mut ws = HooiWorkspace::for_order(tensor.order());
        let norm = tensor.frobenius_norm();

        // Twice on one workspace: the first pass, untraced, touches the fresh
        // buffers (5–10 % of a short solve); the second, with spans, is in
        // the state a warm `solve()` runs in — the one the layers explain.
        let mut replay = |tr: &mut Tracer| {
            pool.install(|| {
                replay_solve(
                    tr,
                    tensor,
                    &symbolic,
                    tree.as_ref(),
                    &mut ws,
                    &ranks,
                    &self.config,
                    isa,
                    norm,
                )
            })
        };
        let (first_fit, _) = replay(&mut Tracer::new(false));
        let t = Instant::now();
        let span = tr.enter("replay");
        let (fit, applications) = replay(tr);
        tr.exit(span);
        let replay_s = t.elapsed().as_secs_f64();
        // A pass that disagrees with the other must not pass for `solve()`'s.
        let fit = if first_fit.to_bits() == fit.to_bits() {
            fit
        } else {
            f64::NAN
        };

        // The operator the Lanczos TRSVD applied, timed alone on the same
        // compact Y the last sweep left behind.
        let mut gemv_s = Vec::new();
        let mut y_shape = Vec::new();
        pool.install(|| {
            for mode in 0..tensor.order() {
                let y = ws.compact(mode);
                y_shape.push(y.shape());
                gemv_s.push(time_operator(y));
            }
        });
        let iterations = SOLVE_ITERATIONS as u64;
        TracedCycle {
            fit,
            replay_s,
            applications,
            ttmc_flops: costs.flops * iterations,
            ttmc_words: costs.words * iterations,
            gemv_s,
            y_shape,
        }
    }
}

/// Every solve of a run must return the same fit, bit for bit, after the
/// full iteration count.
fn check_solve(gate: &mut Gate, d: &TuckerDecomposition, reference_fit: &mut Option<u64>) {
    let bits = d.final_fit().to_bits();
    let reference = *reference_fit.get_or_insert(bits);
    gate.check(
        bits == reference && d.iterations == SOLVE_ITERATIONS,
        || {
            format!(
                "solve returned fit {} after {} iterations, the first solve {}",
                d.final_fit(),
                d.iterations,
                f64::from_bits(reference)
            )
        },
    );
}

/// The body of `hooi::solver::run_hooi`, call for call, with a span around
/// each.  Must run inside a pool as wide as the session's: `par_gemv_t`
/// sums in an order that depends on the width.
#[allow(clippy::too_many_arguments)]
fn replay_solve(
    tr: &mut Tracer,
    tensor: &SparseTensor,
    symbolic: &SymbolicTtmc,
    tree: Option<&DimTree>,
    ws: &mut HooiWorkspace,
    ranks: &[usize],
    config: &TuckerConfig,
    isa: KernelIsa,
    tensor_norm: f64,
) -> (f64, Vec<usize>) {
    let order = tensor.order();
    assert!(order <= TTMC_MODE.len(), "span names cover four modes");
    let span = tr.enter("solve.init");
    let mut factors = random_factors(tensor.dims(), ranks, config.seed);
    ws.ensure(symbolic, ranks);
    if let Some(tree) = tree {
        ws.ensure_tree(tree, ranks);
    }
    tr.exit(span);
    let mut applications = vec![0usize; order];
    let mut fit = 0.0;
    for iter in 0..config.max_iterations {
        let sweep = tr.enter(if iter == 0 {
            "solve.iter1"
        } else {
            "solve.iter_rest"
        });
        for mode in 0..order {
            let span = tr.enter(TTMC_MODE[mode]);
            match tree {
                Some(tree) => {
                    serve_mode_into_isa(tree, tensor, symbolic.mode(mode), &factors, mode, ws, isa)
                }
                None => hooi::ttmc_mode_into_isa(
                    tensor,
                    symbolic.mode(mode),
                    &factors,
                    mode,
                    ws.compact_mut(mode),
                    isa,
                ),
            }
            tr.exit(span);
            let span = tr.enter(TRSVD_MODE[mode]);
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
            tr.exit(span);
            applications[mode] += result.operator_applications;
            factors[mode] = result.factor;
            if let Some(tree) = tree {
                factor_updated(tree, mode, ws);
            }
        }
        let span = tr.enter("core");
        let (compact, core) = ws.core_buffers(order - 1);
        core_from_last_ttmc_into(
            compact,
            symbolic.mode(order - 1),
            &factors[order - 1],
            ranks,
            core,
        );
        tr.exit(span);
        let span = tr.enter("fit");
        fit = fit_from_norms(tensor_norm, ws.core().frobenius_norm());
        tr.exit(span);
        tr.exit(sweep);
    }
    (fit, applications)
}

/// Median seconds of one `y = Ax` and one `y = Aᵀx` on `a`.
fn time_operator(a: &Matrix) -> (f64, f64) {
    let (rows, cols) = a.shape();
    let x_cols = vec![1.0; cols];
    let x_rows = vec![1.0; rows];
    let mut y_rows = vec![0.0; rows];
    let mut y_cols = vec![0.0; cols];
    let mut forward = Vec::new();
    let mut transposed = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        par_gemv(a, &x_cols, &mut y_rows);
        forward.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        par_gemv_t(a, &x_rows, &mut y_cols);
        transposed.push(t.elapsed().as_secs_f64());
    }
    std::hint::black_box((&y_rows, &y_cols));
    (median(&forward), median(&transposed))
}

/// Host read bandwidth in GB/s: `threads` threads summing disjoint parts of
/// a buffer of `words` doubles, best of three passes.
fn stream_gbs(words: usize, threads: usize) -> f64 {
    let buffer = vec![1.0f64; words.max(1)];
    let part = buffer.len().div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = buffer
                .chunks(part)
                .map(|chunk| scope.spawn(move || chunk.iter().sum::<f64>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a summing thread cannot panic"))
                .sum()
        });
        std::hint::black_box(total);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (buffer.len() * 8) as f64 / best / 1e9
}

/// Runs one solver workload and reports what it measured.
pub fn run(
    spec: &SolverSpec,
    args: &RunArgs,
    dir: &Path,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Measured {
    let mut m = Measured::default();
    let t = Instant::now();
    let input = gate
        .ok("prepare", prepare(spec, args.seed, dir))
        .unwrap_or_else(|| crate::die("cannot write the workload's input"));
    m.exact("run.prepare_s", t.elapsed().as_secs_f64());
    let order = input.dims.len();
    let harness = Harness {
        input: &input,
        config: TuckerConfig::new(vec![spec.rank; order])
            .max_iterations(SOLVE_ITERATIONS)
            .fit_tolerance(0.0),
        width: host::pool_width(),
    };
    m.note("dims", format!("{:?}", input.dims));
    m.note("nnz", input.nnz);
    m.note("rank", spec.rank);
    m.note("tns_bytes", input.file_bytes);

    // One untimed cold path: page cache, allocator and lazy statics warm.
    let mut reference_fit = None;
    harness.cycle(0, tr, gate, &mut reference_fit);
    tr.clear();

    let mut cycles: Vec<Cycle> = Vec::new();
    let budget = args.loop_budget();
    let started = Instant::now();
    while args.wants_another_cycle(started.elapsed().as_secs_f64(), cycles.len(), budget) {
        tr.set_cycle(cycles.len() as u32 + 1);
        let cycle = harness.cycle(spec.warm_solves, tr, gate, &mut reference_fit);
        let broken = cycle.e2e.is_none() || cycle.steady.len() < spec.warm_solves;
        cycles.push(cycle);
        if broken {
            break;
        }
        // Only the last cycle's tensor is needed after the loop.
        let n = cycles.len();
        if n >= 2 {
            cycles[n - 2].last = None;
        }
    }
    tr.set_cycle(0);
    m.cycles = cycles.len();
    m.calib = cycles.iter().map(|c| c.calib).collect();

    let setup: Vec<f64> = cycles.iter().filter_map(|c| c.setup).collect();
    let e2e: Vec<f64> = cycles.iter().filter_map(|c| c.e2e).collect();
    let steady: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.steady.iter().copied())
        .collect();
    let plan_bytes = cycles.last().map_or(0, |c| c.plan_bytes);
    let fit = reference_fit.map_or(0.0, f64::from_bits);
    if args.trace {
        m.timed("run.setup_s", &setup);
        m.timed("run.e2e_s", &e2e);
        m.timed("run.steady_s", &steady);
        m.exact("plan.bytes", plan_bytes as f64);
    } else {
        m.timed("setup_s", &setup);
        m.timed("e2e_s", &e2e);
        m.timed("steady_s", &steady);
        m.exact("fit", fit);
        m.exact("plan_bytes", plan_bytes as f64);
    }
    gate.check(cycles.iter().all(|c| c.plan_bytes == plan_bytes), || {
        "plan footprint changed between cycles".to_string()
    });

    // The decomposition itself, checked without the solver's own fit: the
    // factors are orthonormal and the fit follows from a core recomputed
    // from the tensor and the factors alone.
    let t = Instant::now();
    if let Some((tensor, d)) = cycles.last_mut().and_then(|c| c.last.take()) {
        let worst = d
            .factors
            .iter()
            .map(linalg::qr::orthogonality_error)
            .fold(0.0, f64::max);
        gate.check(worst < 1e-8, || {
            format!("factors are not orthonormal: ‖UᵀU − I‖ = {worst:e}")
        });
        let core = core_from_scratch(&tensor, &d.factors);
        let recomputed = fit_from_norms(tensor.frobenius_norm(), core.frobenius_norm());
        gate.check((recomputed - d.final_fit()).abs() < 1e-9, || {
            format!(
                "fit {} but the recomputed core gives {recomputed}",
                d.final_fit()
            )
        });
    }
    if let Some(strategy) = cycles.last().and_then(|c| c.strategy) {
        m.note("ttmc_strategy", format!("{strategy:?}"));
    }
    if let Some(expected) = args.reference_fit() {
        gate.check(((fit - expected) / expected).abs() <= 1e-6, || {
            format!(
                "fit {fit} is not the reference {expected} of seed {}",
                args.seed
            )
        });
    }
    m.exact("run.verify_s", t.elapsed().as_secs_f64());

    if args.trace {
        layer_metrics(&mut m, &harness, &cycles, tr, gate);
    }
    m
}

/// Per-layer metrics: per-cycle span totals, medians over cycles.
fn layer_metrics(
    m: &mut Measured,
    harness: &Harness,
    cycles: &[Cycle],
    tr: &Tracer,
    gate: &mut Gate,
) {
    let order = harness.input.dims.len();
    let per_cycle = |name: &str| -> Vec<f64> {
        (1..=cycles.len() as u32)
            .map(|c| tr.cycle_total(name, c))
            .collect()
    };
    let traced: Vec<&TracedCycle> = cycles.iter().filter_map(|c| c.traced.as_ref()).collect();
    if traced.is_empty() {
        return;
    }
    let zip = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| -> Vec<f64> {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    };

    let ingest: Vec<f64> = cycles.iter().map(|c| c.ingest_s).collect();
    m.sampled("io.ingest_s", &ingest);
    let mb = harness.input.file_bytes as f64 / 1e6;
    m.sampled(
        "io.ingest_mb_s",
        &ingest.iter().map(|s| mb / s).collect::<Vec<_>>(),
    );
    m.exact(
        "io.peak_parse_words",
        cycles.iter().map(|c| c.peak_parse_bytes).max().unwrap_or(0) as f64 / 8.0,
    );

    let symbolic = per_cycle("plan.symbolic");
    let dimtree = per_cycle("plan.dimtree");
    let pool = per_cycle("pool.build");
    m.sampled("plan.symbolic_s", &symbolic);
    m.sampled("plan.dimtree_s", &dimtree);
    m.sampled("pool.build_s", &pool);
    let other: Vec<f64> = cycles
        .iter()
        .enumerate()
        .map(|(i, c)| c.plan_s - symbolic[i] - dimtree[i] - pool[i])
        .collect();
    m.sampled("plan.other_s", &other);

    let replay: Vec<f64> = traced.iter().map(|t| t.replay_s).collect();
    let mut ttmc = vec![0.0; cycles.len()];
    let mut trsvd = vec![0.0; cycles.len()];
    for mode in 0..order {
        let t = per_cycle(TTMC_MODE[mode]);
        let s = per_cycle(TRSVD_MODE[mode]);
        m.sampled(TTMC_MODE_S[mode], &t);
        m.sampled(TRSVD_MODE_S[mode], &s);
        ttmc = zip(&ttmc, &t, |a, b| a + b);
        trsvd = zip(&trsvd, &s, |a, b| a + b);
    }
    m.sampled("ttmc.s", &ttmc);
    m.sampled("trsvd.s", &trsvd);
    m.sampled("ttmc.share", &zip(&ttmc, &replay, |a, b| a / b));
    m.sampled("trsvd.share", &zip(&trsvd, &replay, |a, b| a / b));
    let flops = traced[0].ttmc_flops as f64;
    let words = traced[0].ttmc_words as f64;
    m.exact("ttmc.flops", flops);
    m.exact("ttmc.words", words);
    let ttmc_gbs: Vec<f64> = ttmc.iter().map(|s| words * 8.0 / s / 1e9).collect();
    m.sampled(
        "ttmc.gflops",
        &ttmc.iter().map(|s| flops / s / 1e9).collect::<Vec<_>>(),
    );
    m.sampled("ttmc.gbs", &ttmc_gbs);

    // TRSVD: operator applications are counted by the solver; their time is
    // that count times the operator timed alone on the same Y.
    let applications: usize = traced[0].applications.iter().sum();
    gate.check(
        traced
            .iter()
            .all(|t| t.applications == traced[0].applications),
        || "operator application counts changed between cycles".to_string(),
    );
    m.exact("trsvd.applications", applications as f64);
    let operator: Vec<f64> = traced
        .iter()
        .map(|t| {
            t.applications
                .iter()
                .zip(&t.gemv_s)
                .map(|(&n, &(fwd, tr))| n as f64 * (fwd + tr) / 2.0)
                .sum()
        })
        .collect();
    m.sampled("trsvd.operator_s", &operator);
    m.sampled(
        "trsvd.non_operator_s",
        &zip(&trsvd, &operator, |a, b| a - b),
    );
    let y_bytes = |t: &TracedCycle, mode: usize| (t.y_shape[mode].0 * t.y_shape[mode].1 * 8) as f64;
    let largest = (0..order)
        .max_by(|&a, &b| y_bytes(traced[0], a).total_cmp(&y_bytes(traced[0], b)))
        .unwrap_or(0);
    let gemv_gbs: Vec<f64> = traced
        .iter()
        .map(|t| y_bytes(t, largest) / t.gemv_s[largest].0 / 1e9)
        .collect();
    let gemv_t_gbs: Vec<f64> = traced
        .iter()
        .map(|t| y_bytes(t, largest) / t.gemv_s[largest].1 / 1e9)
        .collect();
    m.sampled("linalg.gemv_gbs", &gemv_gbs);
    m.sampled("linalg.gemv_t_gbs", &gemv_t_gbs);
    m.note("largest_y_bytes", y_bytes(traced[0], largest));
    let stream = stream_gbs(y_bytes(traced[0], largest) as usize / 8, harness.width);
    m.exact("linalg.stream_gbs", stream);
    m.sampled(
        "ttmc.roofline_frac",
        &ttmc_gbs.iter().map(|g| g / stream).collect::<Vec<_>>(),
    );
    let trsvd_bytes: f64 = (0..order)
        .map(|mode| traced[0].applications[mode] as f64 * y_bytes(traced[0], mode))
        .sum();
    m.sampled(
        "trsvd.roofline_frac",
        &trsvd
            .iter()
            .map(|s| trsvd_bytes / s / 1e9 / stream)
            .collect::<Vec<_>>(),
    );

    let core = per_cycle("core");
    let fit = per_cycle("fit");
    let init = per_cycle("solve.init");
    m.sampled("core.s", &core);
    m.sampled("fit.s", &fit);
    m.sampled("solve.init_s", &init);
    m.sampled("solve.iter1_s", &per_cycle("solve.iter1"));
    m.sampled("solve.iter_rest_s", &per_cycle("solve.iter_rest"));
    let cold = per_cycle("solve.cold");
    let warm: Vec<f64> = cycles.iter().map(|c| median(&c.steady)).collect();
    m.sampled("solve.cold_extra_s", &zip(&cold, &warm, |a, b| a - b));
    m.sampled("solve.replay_ratio", &zip(&replay, &warm, |a, b| a / b));
    let attributed: Vec<f64> = (0..cycles.len())
        .map(|i| ttmc[i] + trsvd[i] + core[i] + fit[i] + init[i])
        .collect();
    m.sampled(
        "solve.unattributed_share",
        &zip(&replay, &attributed, |whole, parts| (whole - parts) / whole),
    );
    // Traced against untraced steady state: the replay is the warm solve
    // with spans on, `solve()` the same work with none.
    m.exact(
        "trace.overhead_share",
        median(&replay) / median(&warm) - 1.0,
    );

    // A plain one-thread run of the same problem, second solve of a fresh
    // session.
    if let Some((tensor, _)) = gate.ok(
        "read_tns_file_streamed (1 thread)",
        read_tns_file_streamed(&harness.input.path, &StreamOptions::new()),
    ) {
        let one =
            TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1)).and_then(|mut s| {
                s.solve(&harness.config)?;
                let t = Instant::now();
                s.solve(&harness.config)?;
                Ok(t.elapsed().as_secs_f64())
            });
        if let Some(t1) = gate.ok("one-thread solve", one) {
            m.exact("solve.t1_s", t1);
            m.exact("solve.speedup", t1 / median(&warm));
        }
    }
}
