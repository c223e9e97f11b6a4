//! Thread-scaling gate: on a host with at least 4 CPUs, the TTMc of a
//! default-strategy solver session at 4 threads must reach at least 1.5×
//! its 1-thread speed on the skewed Delicious profile (a dimension-tree
//! plan) and on at least 3 of the 4 generated profiles — real scaling of
//! the path the solver runs, not just "parallel is not slower".
//!
//! Marked `#[ignore]` because it is timing-sensitive and meaningless on a
//! narrow builder; the CI workflow runs it explicitly
//! (`cargo test --release --test thread_scaling -- --ignored`) on the
//! multi-core runner, and the test itself skips gracefully when
//! `available_parallelism()` is below 4 (4 workers cannot demonstrate a
//! 4-thread speedup with fewer than 4 CPUs to run on).

use tucker_repro::prelude::*;

/// Minimum 4-thread-over-1-thread TTMc speedup the gate demands on hosts
/// with at least 4 CPUs.  Deliberately below the ~3× the flop-weighted
/// scheduler reaches on an idle 4-core machine, so shared CI runners do
/// not flake, but far above the old "not slower" bar.
const REQUIRED_SPEEDUP: f64 = 1.5;

/// Fastest `timings.ttmc` of three 3-iteration solves of a default-strategy
/// session planned at `threads`, after a warm-up solve that pays pool
/// startup and faults in the buffers.
fn session_ttmc_seconds(tensor: &SparseTensor, ranks: &[usize], threads: usize) -> f64 {
    let mut solver =
        TuckerSolver::plan(tensor, PlanOptions::new().num_threads(threads)).expect("plan");
    let config = TuckerConfig::new(ranks.to_vec())
        .max_iterations(3)
        .fit_tolerance(-1.0)
        .seed(13);
    solver.solve(&config).expect("warm-up solve");
    let ttmc = |_| solver.solve(&config).expect("solve").timings.ttmc;
    (0..3).map(ttmc).min().unwrap().as_secs_f64()
}

#[test]
#[ignore = "timing-sensitive; run explicitly on a multi-core host (CI thread-scaling job)"]
fn four_thread_ttmc_scales_on_skewed_profile() {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if hardware < 4 {
        eprintln!(
            "skipping thread-scaling gate: {hardware} hardware thread(s) available, \
             a 4-thread speedup needs at least 4"
        );
        return;
    }

    let profiles: Vec<(ProfileName, SparseTensor)> = ProfileName::all()
        .into_iter()
        .map(|name| (name, DatasetProfile::new(name).generate(150_000, 11)))
        .collect();
    let delicious = &profiles
        .iter()
        .find(|(name, _)| *name == ProfileName::Delicious)
        .expect("Delicious is a generated profile")
        .1;
    assert_eq!(
        TuckerSolver::plan(delicious, PlanOptions::new().num_threads(1))
            .unwrap()
            .ttmc_strategy(),
        TtmcStrategy::DimensionTree,
        "the default strategy should resolve to the tree on Delicious"
    );

    // Up to three independent measurement attempts so one noisy-neighbor
    // burst on a shared CI runner cannot produce a false failure.
    let mut report = String::new();
    for attempt in 1..=3 {
        let mut passing = 0;
        let mut skewed_ok = false;
        report.clear();
        for (name, tensor) in &profiles {
            let ranks = DatasetProfile::new(*name).paper_ranks().to_vec();
            let t1 = session_ttmc_seconds(tensor, &ranks, 1);
            let t4 = session_ttmc_seconds(tensor, &ranks, 4);
            let ok = t1 / t4 >= REQUIRED_SPEEDUP;
            passing += usize::from(ok);
            skewed_ok |= ok && *name == ProfileName::Delicious;
            report.push_str(&format!(
                "\n  {:<10} TTMc 1 thread {t1:.4}s, 4 threads {t4:.4}s ({:.2}x)",
                name.as_str(),
                t1 / t4
            ));
        }
        eprintln!("attempt {attempt}:{report}");
        if skewed_ok && passing + 1 >= profiles.len() {
            return;
        }
    }
    panic!(
        "4-thread TTMc speedup below the required {REQUIRED_SPEEDUP}x on Delicious or on \
         more than one profile in all of 3 attempts on {hardware} hardware threads:{report}"
    );
}
