//! Golden-file tests for the table binaries' `--tns` mode.
//!
//! Each table binary is run against the committed fixture tensor
//! (`tests/fixtures/golden.tns`) with `--check` (which additionally proves
//! the CSF and flat TTMc paths bit-identical on the fixture), and its
//! stdout is compared **byte for byte** against a committed snapshot.
//! Everything the `--tns` mode prints is a deterministic function of the
//! input — simulated cost-model seconds, plan byte counts, layout
//! resolutions — so any snapshot drift is a behaviour change, not noise.
//! Table V passes `--sim-only` to skip the wall-clock-measured sweep.
//!
//! To update the snapshots after an intentional change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p bench --test tables_golden
//! ```

use std::process::Command;

fn fixture_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.tns")
}

fn run_golden(name: &str, exe: &str, extra: &[&str]) {
    let out = Command::new(exe)
        .args(["--tns", fixture_path(), "--ranks", "3,3,3", "--check"])
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("could not spawn {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} failed with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = format!("{}/tests/fixtures/{name}.out", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&snapshot, &out.stdout)
            .unwrap_or_else(|e| panic!("could not bless {snapshot}: {e}"));
        return;
    }
    let expected = std::fs::read(&snapshot).unwrap_or_else(|e| {
        panic!("missing snapshot {snapshot}: {e}\n(re-bless with GOLDEN_BLESS=1)")
    });
    assert!(
        out.stdout == expected,
        "{name} stdout diverged from {snapshot}\n\
         --- expected ---\n{}\n--- actual ---\n{}\n\
         (if the change is intentional, re-bless with GOLDEN_BLESS=1)",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn table1_matches_snapshot() {
    run_golden("table1", env!("CARGO_BIN_EXE_table1"), &[]);
}

#[test]
fn table2_matches_snapshot() {
    run_golden("table2", env!("CARGO_BIN_EXE_table2"), &[]);
}

#[test]
fn table3_matches_snapshot() {
    run_golden("table3", env!("CARGO_BIN_EXE_table3"), &[]);
}

#[test]
fn table4_matches_snapshot() {
    run_golden("table4", env!("CARGO_BIN_EXE_table4"), &[]);
}

#[test]
fn table5_matches_snapshot() {
    run_golden("table5", env!("CARGO_BIN_EXE_table5"), &["--sim-only"]);
}

/// The fixture itself must stay loadable through the bounded streaming
/// reader at an adversarially small chunk size, with the documented peak
/// buffer bound holding exactly.
#[test]
fn fixture_streams_under_a_tiny_chunk() {
    let options = sptensor::io::StreamOptions::new().chunk_nonzeros(7);
    let (tensor, stats) =
        sptensor::io::read_tns_file_streamed(fixture_path(), &options).expect("fixture reads");
    assert_eq!(tensor.nnz(), 500);
    assert_eq!(tensor.order(), 3);
    let word = std::mem::size_of::<usize>();
    assert!(stats.peak_buffer_bytes <= 7 * (3 + 1) * word);
    assert_eq!(stats.chunks, 500usize.div_ceil(7));
}
