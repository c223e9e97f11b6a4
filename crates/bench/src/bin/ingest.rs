//! Ingestion smoke benchmark: the "tensor larger than memory comfort"
//! path end to end.  Generates a multi-million-nonzero synthetic tensor
//! (or takes one via `--tns`), writes it to disk in `.tns` format, streams
//! it back under a bounded chunk size, builds per-mode CSF hierarchies
//! straight from the file (one external-sort pass per mode), and runs a
//! short Tucker solve on the compressed layout.
//!
//! Flags (shared ones from [`bench::cli_args`] plus this bin's own):
//!
//! * `--nnz <n>` — nonzero budget of the generated tensor (default 2M,
//!   env `HYPERTENSOR_INGEST_NNZ`);
//! * `--chunk <n>` — streaming chunk size in nonzeros (default 65536);
//! * `--check` — additionally assert CSF-vs-flat bit-identity of the
//!   decomposition and the multiset equality of the CSF contents;
//! * `--budget-secs <x>` — fail (exit 1) if the whole run exceeds the
//!   wall-clock budget (the CI smoke gate);
//! * `--tns <path>` — ingest an existing file instead of generating one.

use bench::{cli_args, print_header, run_requested_check, stream_options};
use datagen::{DatasetProfile, ProfileName};
use sptensor::io::{
    read_csf_tns_file, read_tns_file_streamed, write_tns_file_with_header, DuplicatePolicy,
};
use std::path::PathBuf;
use std::time::Instant;

/// Default nonzero budget: large enough that the chunked reader runs many
/// chunks and the CSF layout's compression is visible, small enough to
/// finish in well under a minute in release mode.
const DEFAULT_INGEST_NNZ: usize = 2_000_000;

struct BinArgs {
    nnz: usize,
    budget_secs: Option<f64>,
}

fn bin_args() -> BinArgs {
    let mut out = BinArgs {
        nnz: std::env::var("HYPERTENSOR_INGEST_NNZ")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_INGEST_NNZ),
        budget_secs: None,
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
            "--nnz" => {
                let spec = value("--nnz");
                out.nnz = spec.parse().unwrap_or_else(|_| {
                    eprintln!("could not parse --nnz '{spec}' as an integer");
                    std::process::exit(2);
                });
            }
            "--budget-secs" => {
                let spec = value("--budget-secs");
                out.budget_secs = Some(spec.parse().unwrap_or_else(|_| {
                    eprintln!("could not parse --budget-secs '{spec}' as a number");
                    std::process::exit(2);
                }));
            }
            _ => {}
        }
    }
    out
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hypertensor-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("could not create scratch dir {}: {e}", dir.display());
        std::process::exit(2);
    });
    dir
}

fn main() {
    let shared = cli_args();
    let bin = bin_args();
    let t0 = Instant::now();
    let options = stream_options(&shared);
    let chunk = options.chunk_nonzeros;

    print_header(
        "Ingestion smoke — streamed .tns round-trip and CSF build from disk",
        &format!(
            "chunk = {chunk} nonzeros; peak parse buffers stay bounded by the chunk, \
             not the file."
        ),
    );

    let dir = scratch_dir();
    let (path, expected_nnz) = match &shared.tns {
        Some(p) => (PathBuf::from(p), None),
        None => {
            let tensor = DatasetProfile::new(ProfileName::Nell).generate(bin.nnz, 42);
            let path = dir.join("ingest.tns");
            write_tns_file_with_header(&tensor, &path).unwrap_or_else(|e| {
                eprintln!("could not write {}: {e}", path.display());
                std::process::exit(2);
            });
            println!(
                "generated {} nonzeros (NELL profile, dims {:?}) -> {}",
                tensor.nnz(),
                tensor.dims(),
                path.display()
            );
            (path, Some(tensor.nnz()))
        }
    };

    // Pass 1: stream the file back into COO with bounded buffers.
    let (coo, stats) = read_tns_file_streamed(&path, &options).unwrap_or_else(|e| {
        eprintln!("streamed read of {} failed: {e}", path.display());
        std::process::exit(1);
    });
    let word = std::mem::size_of::<usize>();
    let bound = chunk * (coo.order() + 2) * word;
    println!(
        "streamed COO read: {} nnz in {} chunks, peak buffer {} bytes (bound {} bytes), \
         raw text window {} bytes",
        coo.nnz(),
        stats.chunks,
        stats.peak_buffer_bytes,
        bound,
        stats.peak_window_bytes
    );
    assert!(
        stats.peak_buffer_bytes <= bound,
        "peak parse buffer {} exceeds the chunk bound {}",
        stats.peak_buffer_bytes,
        bound
    );
    if let Some(n) = expected_nnz {
        assert_eq!(coo.nnz(), n, "round trip lost nonzeros");
    }

    // Pass 2..=order+1: build every mode's CSF hierarchy straight from the
    // file, one external-sort pass per mode, never holding full COO.
    let (csf, csf_stats) = read_csf_tns_file(&path, &options, DuplicatePolicy::Reject, &dir)
        .unwrap_or_else(|e| {
            eprintln!("CSF build from {} failed: {e}", path.display());
            std::process::exit(1);
        });
    assert_eq!(csf.dims(), coo.dims());
    assert_eq!(csf.nnz(), coo.nnz());
    println!(
        "CSF from disk: {} modes, {} bytes ({} bytes/nnz); worst pass peak buffer {} bytes",
        csf.order(),
        csf.memory_bytes(),
        csf.memory_bytes() / csf.nnz().max(1),
        csf_stats.peak_buffer_bytes
    );

    if shared.check {
        // The disk-built CSF must hold exactly the nonzeros of the COO
        // read: its mode-0 hierarchy flattened back out must match the
        // hierarchy built in memory from sorted COO, bit for bit.
        let mut sorted = coo.clone();
        sorted.sort_by_mode(0);
        let expect = sptensor::csf::CsfMode::from_coo(&sorted, 0);
        let mut k = 0usize;
        let mut mismatch = false;
        let mut expected: Vec<(usize, Vec<usize>, u64)> = Vec::with_capacity(sorted.nnz());
        expect.for_each_nonzero(|r, c, v| expected.push((r, c.to_vec(), v.to_bits())));
        csf.mode(0).for_each_nonzero(|r, c, v| {
            let (er, ec, ev) = &expected[k];
            mismatch |= r != *er || c != &ec[..] || v.to_bits() != *ev;
            k += 1;
        });
        assert!(
            !mismatch && k == sorted.nnz(),
            "disk-built CSF diverges from the in-memory hierarchy"
        );
        println!("content check: CSF mode-0 hierarchy matches sorted COO ({k} nonzeros)");
    }

    // Short solve on the compressed layout (ranks 4 per mode unless
    // --ranks was given; --check also proves CSF == flat bit for bit).
    let ranks: Vec<usize> = match &shared.ranks {
        Some(r) if r.len() == coo.order() => r.clone(),
        _ => coo.dims().iter().map(|&d| 4usize.min(d)).collect(),
    };
    run_requested_check(&shared, &coo, &ranks);
    let plan_options = hooi::PlanOptions::new()
        .ttmc_strategy(hooi::TtmcStrategy::PerMode)
        .index_layout(hooi::IndexLayout::Csf);
    let mut solver = hooi::TuckerSolver::plan(&coo, plan_options).unwrap_or_else(|e| {
        eprintln!("CSF plan failed: {e}");
        std::process::exit(1);
    });
    let config = hooi::TuckerConfig::new(ranks.clone())
        .max_iterations(2)
        .fit_tolerance(-1.0)
        .seed(42);
    let result = solver.solve(&config).unwrap_or_else(|e| {
        eprintln!("CSF solve failed: {e}");
        std::process::exit(1);
    });
    println!(
        "CSF solve: layout {:?}, ranks {:?}, {} iterations, fit {:.6}",
        solver.index_layout(),
        ranks,
        result.iterations,
        result.fits.last().copied().unwrap_or(f64::NAN)
    );

    let _ = std::fs::remove_dir_all(&dir);
    let elapsed = t0.elapsed().as_secs_f64();
    println!("total wall clock: {elapsed:.1} s");
    if let Some(budget) = bin.budget_secs {
        if elapsed > budget {
            eprintln!("ingestion smoke exceeded its {budget:.1} s budget ({elapsed:.1} s)");
            std::process::exit(1);
        }
        println!("within the {budget:.1} s budget");
    }
}
