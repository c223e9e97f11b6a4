//! Per-mode vs dimension-tree vs auto-picked TTMc: measured wall time,
//! thread scaling, and counted work.
//!
//! For every generated dataset profile (and an optional real `--tns` dump),
//! this bin plans one solver session per `(strategy, threads)` cell, runs a
//! short HOOI solve, and reports
//!
//! * the *counted* per-iteration flops/words of each strategy (the
//!   deterministic [`hooi::DimTree::costs`] / [`hooi::per_mode_costs`]
//!   model — identical on every machine),
//! * the *measured* TTMc seconds per iteration at 1, 2 and 4 threads, plus
//!   the whole-iteration time, with a cross-check that all strategies reach
//!   the same fits within 1e-10 relative, and
//! * per cell, the TTMc speedup over the same strategy's 1-thread run and
//!   the parallel efficiency (`speedup / threads`).
//!
//! The [`hooi::TtmcStrategy::Auto`] rows also print which concrete strategy
//! the plan-time flop model picked for the tensor.
//!
//! Machine-readable output goes to `BENCH_ttmc.json` (override with
//! `--out <path>`), seeding the repo's perf trajectory; CI uploads it as an
//! artifact on every push.  With `--check-scaling <factor>` the bin doubles
//! as the thread-scaling gate: it exits nonzero unless the default (auto)
//! strategy reaches at least `factor`× TTMc speedup at 4 threads on the
//! skewed Delicious profile and on at least 3 of the 4 generated profiles —
//! skipped gracefully (exit 0 with a notice) on hosts with fewer than 4
//! CPUs, where a 4-thread speedup is not measurable.
//!
//! Run with `cargo run --release -p bench --bin ttmc_strategy`; scale the
//! nonzero budget with `--nnz-budget <n>` (default 500 000; the
//! `HYPERTENSOR_NNZ` environment variable is honoured when the flag is
//! absent).

use bench::{cli_args, cli_tensor, cpu_features_json, print_header};
use datagen::{DatasetProfile, ProfileName};
use hooi::symbolic::SymbolicTtmc;
use hooi::{per_mode_costs, DimTree, PlanOptions, TtmcStrategy, TuckerConfig, TuckerSolver};
use sptensor::SparseTensor;

/// Default nonzero budget per generated tensor: large enough that the
/// parallel sweeps dominate plan-time overheads and thread scaling is
/// meaningful, small enough to regenerate in minutes.
const DEFAULT_NNZ_BUDGET: usize = 500_000;

/// Thread counts of the measurement grid.
const THREAD_GRID: [usize; 3] = [1, 2, 4];

/// One measured cell of the strategy × threads grid.
struct Cell {
    dataset: String,
    order: usize,
    nnz: usize,
    ranks: Vec<usize>,
    strategy: &'static str,
    /// The concrete strategy that ran (differs from `strategy` only for
    /// `auto`, which the plan-time cost model resolves per tensor).
    resolved: &'static str,
    /// The concrete SIMD kernel tier the session resolved at plan time
    /// (`scalar`/`avx2`; depends on the host and `TUCKER_KERNEL`).
    isa: &'static str,
    threads: usize,
    flops_per_iter: u64,
    words_per_iter: u64,
    ttmc_s_per_it: f64,
    iter_s_per_it: f64,
    /// TTMc speedup of this cell over the same strategy's 1-thread cell.
    speedup_vs_1t: f64,
    /// `speedup_vs_1t / threads`.
    parallel_efficiency: f64,
}

fn strategy_label(strategy: TtmcStrategy) -> &'static str {
    match strategy {
        TtmcStrategy::PerMode => "per_mode",
        TtmcStrategy::DimensionTree => "dimension_tree",
        TtmcStrategy::Auto => "auto",
    }
}

/// Runs one solver session and returns (ttmc s/it, iteration s/it, fits,
/// the concrete strategy the plan resolved to, the resolved kernel ISA).
fn measure(
    tensor: &SparseTensor,
    ranks: &[usize],
    strategy: TtmcStrategy,
    threads: usize,
) -> (f64, f64, Vec<f64>, TtmcStrategy, &'static str) {
    let mut solver = TuckerSolver::plan(
        tensor,
        PlanOptions::new()
            .num_threads(threads)
            .ttmc_strategy(strategy),
    )
    .expect("plan");
    let resolved = solver.ttmc_strategy();
    let isa = solver.kernel_isa().as_str();
    let config = TuckerConfig::new(ranks.to_vec())
        .max_iterations(3)
        .fit_tolerance(-1.0) // fixed iteration count: comparable timings
        .seed(13);
    // Warm-up solve pays pool startup and faults in the buffers; the timed
    // solve reuses everything, which is the steady state a service sees.
    let _ = solver.solve(&config).expect("warm-up solve");
    let result = solver.solve(&config).expect("timed solve");
    let iters = result.iterations.max(1) as f64;
    (
        result.timings.ttmc.as_secs_f64() / iters,
        result.timings.iteration_time().as_secs_f64() / iters,
        result.fits,
        resolved,
        isa,
    )
}

/// Measures the full grid on one tensor, asserting strategy agreement.
fn run_tensor(label: &str, tensor: &SparseTensor, ranks: &[usize], cells: &mut Vec<Cell>) {
    let symbolic = SymbolicTtmc::build(tensor);
    let tree = DimTree::build(tensor);
    let per_mode = per_mode_costs(&symbolic, tensor.nnz(), ranks);
    let tree_costs = tree.costs(ranks);

    println!(
        "\n{label}: order {}, {} nonzeros, ranks {ranks:?}",
        tensor.order(),
        tensor.nnz()
    );
    println!(
        "  counted per-iteration flops: per-mode {} vs tree {} ({:.2}x)",
        per_mode.flops,
        tree_costs.flops,
        per_mode.flops as f64 / tree_costs.flops as f64
    );

    let mut reference_fits: Option<Vec<f64>> = None;
    for strategy in [
        TtmcStrategy::PerMode,
        TtmcStrategy::DimensionTree,
        TtmcStrategy::Auto,
    ] {
        let mut one_thread_ttmc = f64::NAN;
        for threads in THREAD_GRID {
            let (ttmc_s, iter_s, fits, resolved, isa) = measure(tensor, ranks, strategy, threads);
            match &reference_fits {
                None => reference_fits = Some(fits),
                Some(r) => {
                    for (a, b) in fits.iter().zip(r.iter()) {
                        assert!(
                            (a - b).abs() <= 1e-10 * b.abs().max(1e-300),
                            "{label}: {strategy:?} fits diverged from reference"
                        );
                    }
                }
            }
            let costs = match resolved {
                TtmcStrategy::PerMode => per_mode,
                TtmcStrategy::DimensionTree => tree_costs,
                TtmcStrategy::Auto => unreachable!("plans resolve Auto to a concrete strategy"),
            };
            if threads == 1 {
                one_thread_ttmc = ttmc_s;
            }
            let speedup = one_thread_ttmc / ttmc_s;
            let note = if strategy == TtmcStrategy::Auto {
                format!(" [picked {}]", strategy_label(resolved))
            } else {
                String::new()
            };
            println!(
                "  {:<15} {} thread(s): TTMc {:>9.3} ms/it, iteration {:>9.3} ms/it, \
                 {speedup:>5.2}x vs 1T{note}",
                strategy_label(strategy),
                threads,
                ttmc_s * 1e3,
                iter_s * 1e3,
            );
            cells.push(Cell {
                dataset: label.to_string(),
                order: tensor.order(),
                nnz: tensor.nnz(),
                ranks: ranks.to_vec(),
                strategy: strategy_label(strategy),
                resolved: strategy_label(resolved),
                isa,
                threads,
                flops_per_iter: costs.flops,
                words_per_iter: costs.words,
                ttmc_s_per_it: ttmc_s,
                iter_s_per_it: iter_s,
                speedup_vs_1t: speedup,
                parallel_efficiency: speedup / threads as f64,
            });
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal (the dataset
/// label can be a user-supplied `--tns` file stem).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes the cells as a JSON document (no serde in the workspace; the
/// format is flat enough to assemble by hand).
fn to_json(nnz_budget: usize, host_cpus: usize, cells: &[Cell]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"ttmc_strategy\",\n");
    out.push_str("  \"command\": \"cargo run --release -p bench --bin ttmc_strategy\",\n");
    out.push_str(&format!("  \"nnz_budget\": {nnz_budget},\n"));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&cpu_features_json());
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let ranks = c
            .ranks
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"order\": {}, \"nnz\": {}, \"ranks\": [{}], \
             \"strategy\": \"{}\", \"resolved\": \"{}\", \"isa\": \"{}\", \"threads\": {}, \
             \"flops_per_iter\": {}, \"words_per_iter\": {}, \"ttmc_s_per_it\": {:e}, \
             \"iter_s_per_it\": {:e}, \"speedup_vs_1t\": {:.4}, \
             \"parallel_efficiency\": {:.4}}}{}\n",
            json_escape(&c.dataset),
            c.order,
            c.nnz,
            ranks,
            c.strategy,
            c.resolved,
            c.isa,
            c.threads,
            c.flops_per_iter,
            c.words_per_iter,
            c.ttmc_s_per_it,
            c.iter_s_per_it,
            c.speedup_vs_1t,
            c.parallel_efficiency,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extra flags of this bin beyond the shared [`cli_args`] ones.
struct BinArgs {
    out: String,
    nnz_budget: usize,
    check_scaling: Option<f64>,
}

/// Parses `--out <path>`, `--nnz-budget <n>` and `--check-scaling <factor>`
/// from the process arguments (anything else passes through to
/// [`cli_args`]).
fn bin_args() -> BinArgs {
    let mut out = BinArgs {
        out: "BENCH_ttmc.json".to_string(),
        nnz_budget: std::env::var("HYPERTENSOR_NNZ")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_NNZ_BUDGET),
        check_scaling: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out.out = value("--out"),
            "--nnz-budget" => {
                let spec = value("--nnz-budget");
                out.nnz_budget = spec.parse().unwrap_or_else(|_| {
                    eprintln!("could not parse --nnz-budget '{spec}' as an integer");
                    std::process::exit(2);
                });
            }
            "--check-scaling" => {
                let spec = value("--check-scaling");
                out.check_scaling = Some(spec.parse().unwrap_or_else(|_| {
                    eprintln!("could not parse --check-scaling '{spec}' as a number");
                    std::process::exit(2);
                }));
            }
            _ => {}
        }
    }
    out
}

/// Applies the `--check-scaling` gate to the measured cells; returns the
/// process exit code.
fn check_scaling_gate(cells: &[Cell], factor: f64, host_cpus: usize) -> i32 {
    if host_cpus < 4 {
        println!(
            "\n--check-scaling skipped: host has {host_cpus} CPU(s), \
             a 4-thread speedup is not measurable here"
        );
        return 0;
    }
    let mut passing = 0usize;
    let mut total = 0usize;
    let mut skewed_ok = false;
    let mut seen = Vec::new();
    for c in cells
        .iter()
        .filter(|c| c.strategy == "auto" && c.threads == 4)
    {
        if seen.contains(&c.dataset) {
            continue;
        }
        seen.push(c.dataset.clone());
        total += 1;
        let ok = c.speedup_vs_1t >= factor;
        passing += ok as usize;
        skewed_ok |= ok && c.dataset == "Delicious";
        println!(
            "  gate: {:<12} auto @ 4T: {:.2}x (need {factor:.2}x) {}",
            c.dataset,
            c.speedup_vs_1t,
            if ok { "ok" } else { "FAIL" }
        );
    }
    // The skewed Delicious profile is the one the weighted scheduling
    // exists for; it must pass, and so must most of the grid.
    let need = (total.max(1) - 1).max(1); // 3 of the 4 generated profiles
    if skewed_ok && passing >= need {
        println!("--check-scaling passed ({passing}/{total} profiles at >= {factor:.2}x)");
        0
    } else {
        println!(
            "--check-scaling FAILED ({passing}/{total} profiles at >= {factor:.2}x, \
             skewed profile ok: {skewed_ok})"
        );
        1
    }
}

fn main() {
    let bin = bin_args();
    let nnz = bin.nnz_budget;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    print_header(
        "TTMc strategy comparison: per-mode vs dimension tree vs auto",
        &format!(
            "counted flops/words + measured s/it at 1/2/4 threads, \
             ~{nnz} nonzeros per generated tensor, 3 fixed HOOI iterations, \
             {host_cpus} host CPU(s)"
        ),
    );

    let mut cells = Vec::new();
    if let Some((label, tensor, ranks)) = cli_tensor(&cli_args()) {
        run_tensor(&label, &tensor, &ranks, &mut cells);
    } else {
        for name in ProfileName::all() {
            let profile = DatasetProfile::new(name);
            let tensor = profile.generate(nnz, 1);
            run_tensor(name.as_str(), &tensor, profile.paper_ranks(), &mut cells);
        }
    }

    // Wall-time verdict: tree TTMc s/it vs per-mode s/it per dataset, at
    // matching thread counts.
    println!("\nTTMc wall-time speedup (per-mode / tree, same thread count):");
    let mut any_improvement = false;
    let datasets: Vec<String> = {
        let mut seen = Vec::new();
        for c in &cells {
            if !seen.contains(&c.dataset) {
                seen.push(c.dataset.clone());
            }
        }
        seen
    };
    for dataset in &datasets {
        for threads in THREAD_GRID {
            let find = |strategy: &str| {
                cells
                    .iter()
                    .find(|c| {
                        &c.dataset == dataset && c.threads == threads && c.strategy == strategy
                    })
                    .map(|c| c.ttmc_s_per_it)
            };
            if let (Some(base), Some(tree)) = (find("per_mode"), find("dimension_tree")) {
                let speedup = base / tree;
                any_improvement |= speedup > 1.0;
                println!("  {dataset:<12} {threads} thread(s): {speedup:>6.2}x");
            }
        }
    }

    std::fs::write(&bin.out, to_json(nnz, host_cpus, &cells)).expect("write BENCH_ttmc.json");
    println!(
        "\nwrote {} ({} cells); measured improvement on at least one dataset: {any_improvement}",
        bin.out,
        cells.len()
    );

    if let Some(factor) = bin.check_scaling {
        std::process::exit(check_scaling_gate(&cells, factor, host_cpus));
    }
}
