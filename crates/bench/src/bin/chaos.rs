//! Chaos matrix for the fault-tolerant executor: N seeded [`FaultPlan`]s
//! replayed on the executor's channels, each run classified as a clean
//! completion or a typed failure, with wall time against a budget.
//!
//! The displayed claim: *no schedule hangs and no schedule panics*.  Every
//! run either completes bit-identically to the fault-free executor or
//! resolves to `TuckerError::RankFailed` on every rank, within the
//! wall-clock budget derived from the recv deadline.
//!
//! ```text
//! cargo run --release -p bench --bin chaos
//! cargo run --release -p bench --bin chaos -- --plans 40 --check
//! ```
//!
//! Machine-readable output goes to `BENCH_chaos.json` (override with
//! `--out <path>`).  With `--check` the bin is the `chaos-smoke` CI gate:
//! it exits non-zero if any run hangs past budget, panics, completes with
//! wrong bits, or fails without a typed error on some rank.

use distsim::exec::{execute_hooi, execute_hooi_chaos, ChaosRun, ExecOptions};
use distsim::{DistributedSetup, FaultPlan, Grain, PartitionMethod, SimConfig};
use hooi::{TuckerConfig, TuckerDecomposition, TuckerError};
use sptensor::SparseTensor;
use std::time::Duration;

/// Per-recv deadline for every chaos run.
const RECV_TIMEOUT: Duration = Duration::from_millis(400);

/// Wall budget per run: covers a worst-case unwind where several ranks
/// each burn a full recv deadline in sequence, plus one injected delay of
/// roughly two deadlines, with slack for loaded CI machines.
const WALL_BUDGET: Duration = Duration::from_secs(30);

struct BinArgs {
    plans: usize,
    base_seed: u64,
    out: String,
    check: bool,
}

fn parse_args() -> BinArgs {
    let mut out = BinArgs {
        plans: 24,
        base_seed: 0xc0ffee,
        out: "BENCH_chaos.json".to_string(),
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--plans" => {
                out.plans = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--plans <count>");
            }
            "--seed" => {
                out.base_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed <u64>");
            }
            "--out" => out.out = args.next().expect("--out <path>"),
            "--check" => out.check = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    out
}

/// What one seed's run resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// No trigger fired; bits matched the fault-free reference.
    CleanIdentical,
    /// No trigger fired but the bits diverged — a gate failure.
    CleanDiverged,
    /// Triggers fired and every rank reported `RankFailed`.
    TypedFailure,
    /// Triggers fired but some rank's verdict was not `RankFailed`.
    UntypedFailure,
    /// The run blew the wall budget.
    OverBudget,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::CleanIdentical => "clean",
            Verdict::CleanDiverged => "clean-DIVERGED",
            Verdict::TypedFailure => "typed-failure",
            Verdict::UntypedFailure => "UNTYPED-failure",
            Verdict::OverBudget => "OVER-BUDGET",
        }
    }

    fn passes(self) -> bool {
        matches!(self, Verdict::CleanIdentical | Verdict::TypedFailure)
    }
}

struct Cell {
    seed: u64,
    fired: u64,
    verdict: Verdict,
    wall_ms: f64,
}

fn bits_equal(a: &TuckerDecomposition, b: &TuckerDecomposition) -> bool {
    a.fits == b.fits && a.factors == b.factors && a.core.as_slice() == b.core.as_slice()
}

fn classify(run: &ChaosRun, reference: &TuckerDecomposition) -> Verdict {
    if run.wall > WALL_BUDGET {
        return Verdict::OverBudget;
    }
    if run.faults_fired == 0 {
        return match &run.outcome {
            Ok(dec) if bits_equal(dec, reference) => Verdict::CleanIdentical,
            _ => Verdict::CleanDiverged,
        };
    }
    let all_typed = matches!(run.outcome, Err(TuckerError::RankFailed { .. }))
        && run
            .rank_errors
            .iter()
            .all(|e| matches!(e, Some(TuckerError::RankFailed { .. })));
    if all_typed {
        Verdict::TypedFailure
    } else {
        Verdict::UntypedFailure
    }
}

fn run_matrix(tensor: &SparseTensor, args: &BinArgs) -> Vec<Cell> {
    let num_ranks = 3;
    let ranks = vec![3, 2, 2];
    let config = TuckerConfig::new(ranks.clone()).max_iterations(3).seed(11);
    let sim = SimConfig::new(num_ranks, Grain::Fine, PartitionMethod::Random, ranks);
    let setup = DistributedSetup::build(tensor, &sim);

    let options = ExecOptions::new().recv_timeout(RECV_TIMEOUT);
    let reference = execute_hooi(tensor, &setup, &config, &options)
        .expect("fault-free reference run")
        .decomposition;
    (0..args.plans)
        .map(|i| {
            let seed = args.base_seed.wrapping_add(i as u64);
            let plan = FaultPlan::seeded(seed, num_ranks, RECV_TIMEOUT);
            let run = execute_hooi_chaos(tensor, &setup, &config, &options, &plan)
                .expect("chaos entry point accepts the configuration");
            Cell {
                seed,
                fired: run.faults_fired,
                verdict: classify(&run, &reference),
                wall_ms: run.wall.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

fn to_json(args: &BinArgs, cells: &[Cell]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"chaos\",\n");
    out.push_str(&format!("  \"plans\": {},\n", args.plans));
    out.push_str(&format!("  \"base_seed\": {},\n", args.base_seed));
    out.push_str(&format!(
        "  \"recv_timeout_ms\": {},\n",
        RECV_TIMEOUT.as_millis()
    ));
    out.push_str(&format!(
        "  \"wall_budget_ms\": {},\n",
        WALL_BUDGET.as_millis()
    ));
    out.push_str(&bench::cpu_features_json());
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"seed\": {}, \"faults_fired\": {}, \"verdict\": \"{}\", \
             \"wall_ms\": {:.3}}}{}\n",
            c.seed,
            c.fired,
            c.verdict.label(),
            c.wall_ms,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = parse_args();
    bench::print_header(
        "Chaos matrix — seeded fault plans vs the fault-tolerant executor",
        &format!(
            "{} seeded plans, 3 ranks, recv deadline {:?}, wall budget {:?}.\n\
             Every run must resolve to a typed RankFailed on all ranks or complete\n\
             bit-identically to the fault-free reference.",
            args.plans, RECV_TIMEOUT, WALL_BUDGET
        ),
    );
    let tensor = datagen::random_tensor(&[16, 13, 11], 450, 29);
    let cells = run_matrix(&tensor, &args);

    println!(
        "{:>10} {:>8} {:>18} {:>10}",
        "seed", "fired", "verdict", "wall-ms"
    );
    for c in &cells {
        println!(
            "{:>10} {:>8} {:>18} {:>10.2}",
            c.seed,
            c.fired,
            c.verdict.label(),
            c.wall_ms
        );
    }
    let fired = cells.iter().filter(|c| c.fired > 0).count();
    let typed = cells
        .iter()
        .filter(|c| c.verdict == Verdict::TypedFailure)
        .count();
    let clean = cells
        .iter()
        .filter(|c| c.verdict == Verdict::CleanIdentical)
        .count();
    println!(
        "\n{} cells: {fired} fired ({typed} typed failures), {clean} clean bit-identical",
        cells.len()
    );

    std::fs::write(&args.out, to_json(&args, &cells)).expect("write BENCH_chaos.json");
    println!("wrote {}", args.out);

    if args.check {
        let failures: Vec<_> = cells.iter().filter(|c| !c.verdict.passes()).collect();
        if failures.is_empty() {
            println!("--check passed: every schedule resolved typed or clean within budget");
        } else {
            for c in &failures {
                println!(
                    "--check FAILED: seed {} resolved {}",
                    c.seed,
                    c.verdict.label()
                );
            }
            std::process::exit(1);
        }
    }
}
