//! Shared helpers for the experiment harness.
//!
//! Every table of the paper's evaluation section (Tables I–V) has a binary
//! in `src/bin/` that regenerates it on scaled-down synthetic data or a
//! `--tns` file; `tests/tables_golden.rs` snapshots their `--tns` output.
//! Beside them live two gates (`kernels`, `chaos`), the fixture
//! generator and the partitioner bench under `benches/`.  End-to-end and
//! per-layer performance is measured by the repo benchmark in `benchmark/`
//! (see its README), not here.

use datagen::{DatasetProfile, ProfileName};
use distsim::{DistributedSetup, Grain, MachineModel, PartitionMethod, SimConfig};
use hooi::symbolic::SymbolicTtmc;
use hooi::ttmc::ttmc_mode;
use hooi::{IndexLayout, PlanOptions, TtmcStrategy, TuckerSolver};
use linalg::Matrix;
use sptensor::io::StreamOptions;
use sptensor::SparseTensor;

/// Default nonzero budget per synthetic dataset used by the table binaries.
/// Large enough that skew and per-mode structure are visible, small enough
/// that every table regenerates in seconds on a laptop.  Override with the
/// `HYPERTENSOR_NNZ` environment variable.
pub const DEFAULT_TABLE_NNZ: usize = 60_000;

/// Returns the nonzero budget for table experiments, honouring
/// `HYPERTENSOR_NNZ` when set.
pub fn table_nnz() -> usize {
    std::env::var("HYPERTENSOR_NNZ")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_TABLE_NNZ)
}

/// Generates the scaled synthetic tensor of one of the paper's datasets.
pub fn profile_tensor(name: ProfileName, nnz: usize, seed: u64) -> (DatasetProfile, SparseTensor) {
    let profile = DatasetProfile::new(name);
    let tensor = profile.generate(nnz, seed);
    (profile, tensor)
}

/// The four `(grain, method)` configurations of the paper's Tables II/III,
/// in column order: `fine-hp`, `fine-rd`, `coarse-hp`, `coarse-bl`.
pub fn paper_configurations() -> [(Grain, PartitionMethod); 4] {
    [
        (Grain::Fine, PartitionMethod::Hypergraph),
        (Grain::Fine, PartitionMethod::Random),
        (Grain::Coarse, PartitionMethod::Hypergraph),
        (Grain::Coarse, PartitionMethod::Block),
    ]
}

/// Builds a simulation config with the paper's 32 threads per rank.
pub fn sim_config(
    num_ranks: usize,
    grain: Grain,
    method: PartitionMethod,
    ranks: &[usize],
) -> SimConfig {
    SimConfig::new(num_ranks, grain, method, ranks.to_vec())
}

/// Simulates the per-iteration time of a configuration on a tensor.
pub fn simulated_iteration_seconds(
    tensor: &SparseTensor,
    num_ranks: usize,
    grain: Grain,
    method: PartitionMethod,
    ranks: &[usize],
    threads: usize,
) -> f64 {
    let mut config = sim_config(num_ranks, grain, method, ranks);
    config.threads_per_rank = threads;
    let setup = DistributedSetup::build(tensor, &config);
    let cost = distsim::simulate_iteration(
        tensor,
        &setup,
        &MachineModel::bluegene_q(),
        distsim::stats::DEFAULT_TRSVD_APPLICATIONS,
    );
    cost.total_seconds()
}

/// Command-line options shared by the table binaries: an optional
/// real `.tns` tensor to run on instead of the synthetic profiles
/// (ROADMAP "Large-scale validation"), and the Tucker ranks to use for it.
#[derive(Debug, Default, Clone)]
pub struct CliArgs {
    /// Path passed via `--tns <path>`: a FROSTT-format coordinate file.
    pub tns: Option<String>,
    /// Ranks passed via `--ranks r1,r2,…` (only meaningful with `--tns`;
    /// defaults to 4 per mode).
    pub ranks: Option<Vec<usize>>,
    /// Streaming chunk size (nonzeros resident per parser chunk) passed via
    /// `--chunk <n>`; `None` keeps the reader's default.
    pub chunk: Option<usize>,
    /// `--sim-only`: skip wall-clock-measured sweeps so the output is a
    /// deterministic function of the input (used by the golden-file tests).
    pub sim_only: bool,
    /// `--check`: verify that the CSF walk and the COO gather produce
    /// bit-identical TTMc results on the loaded tensor before reporting.
    pub check: bool,
}

/// Parses the shared flags (`--tns <path>`, `--ranks r1,r2,…`,
/// `--chunk <n>`, `--sim-only`, `--check`) from the process arguments,
/// ignoring anything else (so Cargo's own flags pass through).
pub fn cli_args() -> CliArgs {
    let mut out = CliArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tns" => {
                out.tns = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--tns requires a path argument");
                    std::process::exit(2);
                }))
            }
            "--ranks" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("--ranks requires a comma-separated list, e.g. --ranks 4,4,4");
                    std::process::exit(2);
                });
                let parsed: Result<Vec<usize>, _> =
                    spec.split(',').map(|r| r.trim().parse()).collect();
                match parsed {
                    Ok(ranks) if !ranks.is_empty() => out.ranks = Some(ranks),
                    _ => {
                        eprintln!("could not parse --ranks '{spec}' as comma-separated integers");
                        std::process::exit(2);
                    }
                }
            }
            "--chunk" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("--chunk requires a positive nonzero count");
                    std::process::exit(2);
                });
                match spec.parse::<usize>() {
                    Ok(n) if n > 0 => out.chunk = Some(n),
                    _ => {
                        eprintln!("could not parse --chunk '{spec}' as a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--sim-only" => out.sim_only = true,
            "--check" => out.check = true,
            _ => {}
        }
    }
    out
}

/// Builds the streaming-reader options the CLI flags ask for.
fn stream_options(args: &CliArgs) -> StreamOptions {
    let mut options = StreamOptions::new();
    if let Some(chunk) = args.chunk {
        options = options.chunk_nonzeros(chunk);
    }
    options
}

/// Loads the `--tns` tensor if one was requested: returns its display
/// label, the tensor, and the per-mode Tucker ranks (from `--ranks`, else
/// 4 per mode, clamped to the mode sizes).  Exits with a message on a
/// malformed file — a bad path should fail loudly, not fall back.
pub fn cli_tensor(args: &CliArgs) -> Option<(String, SparseTensor, Vec<usize>)> {
    let path = args.tns.as_ref()?;
    // The streamed reader keeps the parse buffer bounded by `--chunk`
    // nonzeros regardless of the file size (see sptensor::io::stream_tns).
    let tensor = match sptensor::io::read_tns_file_streamed(path, &stream_options(args)) {
        Ok((t, _stats)) => t,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(2);
        }
    };
    let ranks: Vec<usize> = match &args.ranks {
        Some(r) if r.len() == tensor.order() => r.clone(),
        Some(r) => {
            eprintln!(
                "--ranks has {} entries but {path} has {} modes",
                r.len(),
                tensor.order()
            );
            std::process::exit(2);
        }
        None => vec![4; tensor.order()],
    };
    let ranks = ranks
        .iter()
        .zip(tensor.dims())
        .map(|(&r, &d)| r.min(d).max(1))
        .collect();
    let label = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.clone());
    Some((label, tensor, ranks))
}

/// Computes every mode's TTMc twice from the same seeded factors at
/// `ranks` — once walking the per-mode CSF hierarchies a per-mode plan
/// streams, once gathering each nonzero through its COO id — and asserts
/// the results agree **bit for bit**: the CSF walk and the gather must be
/// the same IEEE accumulation, not merely close.  Returns the number of
/// modes checked; exits with a diagnostic on any divergence (this backs the
/// table binaries' `--check` flag).
fn check_layout_bit_identity(tensor: &SparseTensor, ranks: &[usize]) -> usize {
    let factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .zip(ranks)
        .enumerate()
        .map(|(mode, (&dim, &rank))| Matrix::random(dim, rank, 7 + mode as u64))
        .collect();
    let csf = SymbolicTtmc::build(tensor);
    let coo = SymbolicTtmc::build_without_layout(tensor);
    for mode in 0..tensor.order() {
        let walked = ttmc_mode(tensor, csf.mode(mode), &factors, mode);
        let gathered = ttmc_mode(tensor, coo.mode(mode), &factors, mode);
        if !bits_equal(walked.as_slice(), gathered.as_slice()) {
            fail_check(&format!(
                "mode {mode}: CSF walk diverges from the COO gather"
            ));
        }
    }
    tensor.order()
}

/// Runs the `--check` layout verification when the flag was passed and
/// prints a stable one-line confirmation (snapshotted by the golden tests).
pub fn run_requested_check(args: &CliArgs, tensor: &SparseTensor, ranks: &[usize]) {
    if args.check {
        let modes = check_layout_bit_identity(tensor, ranks);
        println!("layout check: CSF and flat TTMc bit-identical over {modes} modes");
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn fail_check(msg: &str) -> ! {
    eprintln!("layout check FAILED: {msg}");
    std::process::exit(1);
}

/// Reports the plan footprint with and without the per-mode index
/// structure — the number Table I's `--tns` mode prints so its cost is
/// auditable: a single-threaded per-mode plan (which streams CSF) and the
/// same symbolic data without the hierarchies (what the COO gather reads).
/// A plan's workspace is empty until its first solve, so both rows are
/// plan footprints.  Returns `(layout, plan bytes)` rows in a fixed order.
pub fn layout_memory_report(tensor: &SparseTensor) -> Vec<(IndexLayout, usize)> {
    let options = PlanOptions::new()
        .num_threads(1)
        .ttmc_strategy(TtmcStrategy::PerMode);
    let solver = TuckerSolver::plan(tensor, options).unwrap_or_else(|e| {
        eprintln!("planning the per-mode strategy failed: {e}");
        std::process::exit(2);
    });
    let coo = SymbolicTtmc::build_without_layout(tensor).memory_bytes();
    vec![
        (IndexLayout::Coo, coo),
        (solver.index_layout(), solver.memory_bytes()),
    ]
}

/// JSON fragment reporting the host's SIMD capabilities (one line, with a
/// trailing comma), embedded at the top level of every bench's
/// machine-readable output so measured speedups can be interpreted per
/// host: an `avx2: false` host legitimately reports 1.0x SIMD speedups.
pub fn cpu_features_json() -> String {
    format!(
        "  \"cpu_features\": {{\"avx2\": {}, \"fma\": {}}},\n",
        linalg::simd::avx2_available(),
        linalg::simd::fma_available()
    )
}

/// Formats a number in the `K`/`M` style used by the paper's Table III.
pub fn format_kilo(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.0}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.0}K", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// Prints a standard experiment header naming the paper artifact being
/// regenerated.
pub fn print_header(title: &str, detail: &str) {
    println!("=== {title} ===");
    println!("{detail}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_tensor_generates_requested_order() {
        let (profile, tensor) = profile_tensor(ProfileName::Netflix, 2_000, 1);
        assert_eq!(tensor.order(), 3);
        assert_eq!(profile.paper_ranks(), &[10, 10, 10]);
    }

    #[test]
    fn configurations_are_the_papers_four() {
        let confs = paper_configurations();
        assert_eq!(confs.len(), 4);
        let labels: Vec<String> = confs
            .iter()
            .map(|&(g, m)| sim_config(2, g, m, &[2, 2]).label())
            .collect();
        assert_eq!(labels, vec!["fine-hp", "fine-rd", "coarse-hp", "coarse-bl"]);
    }

    #[test]
    fn cpu_features_json_is_a_flat_object_line() {
        let line = cpu_features_json();
        assert!(line.starts_with("  \"cpu_features\": {\"avx2\": "));
        assert!(line.ends_with("},\n"));
        assert!(line.contains("\"fma\": "));
    }

    #[test]
    fn format_kilo_ranges() {
        assert_eq!(format_kilo(950.0), "950");
        assert_eq!(format_kilo(441_000.0), "441K");
        assert_eq!(format_kilo(2_500_000.0), "2M");
    }

    #[test]
    fn stream_options_honour_chunk_flag() {
        let args = CliArgs {
            chunk: Some(128),
            ..CliArgs::default()
        };
        assert_eq!(stream_options(&args).chunk_nonzeros, 128);
        let defaults = stream_options(&CliArgs::default());
        assert_eq!(defaults.chunk_nonzeros, StreamOptions::new().chunk_nonzeros);
    }

    #[test]
    fn layout_check_passes_on_a_profile_tensor() {
        let (_, tensor) = profile_tensor(ProfileName::Nell, 3_000, 11);
        let modes = check_layout_bit_identity(&tensor, &[3, 3, 3]);
        assert_eq!(modes, tensor.order());
    }

    #[test]
    fn layout_memory_report_covers_both_layouts() {
        let (_, tensor) = profile_tensor(ProfileName::Netflix, 4_000, 5);
        let report = layout_memory_report(&tensor);
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].0, IndexLayout::Coo);
        assert_eq!(report[1].0, IndexLayout::Csf);
        assert!(report[0].1 > 0);
        // Attaching the CSF hierarchies can only grow the plan.
        assert!(report[1].1 > report[0].1);
    }

    #[test]
    fn simulated_seconds_positive_and_scaling() {
        let (_, tensor) = profile_tensor(ProfileName::Nell, 5_000, 3);
        let t2 = simulated_iteration_seconds(
            &tensor,
            2,
            Grain::Fine,
            PartitionMethod::Random,
            &[4, 4, 4],
            16,
        );
        let t8 = simulated_iteration_seconds(
            &tensor,
            8,
            Grain::Fine,
            PartitionMethod::Random,
            &[4, 4, 4],
            16,
        );
        assert!(t2 > 0.0);
        assert!(t8 < t2);
    }
}
