//! A Tucker fit does not depend on the scale of the tensor's values: at any
//! scale the solver accepts, it must return the unscaled fit, and at any
//! scale it cannot represent it must say so with a typed error.
//!
//! One probe per TRSVD regime — the dense fallback (every mode's `Y` is
//! narrower than the Lanczos subspace), the formed normal matrix (tall `Y`
//! a few subspaces wide) and the Krylov loop (a `Y` with fewer rows than
//! columns) — is solved at every tenth power of ten across the range, plus
//! the powers just inside the smallest and largest norms validation
//! accepts.  Tiny values used to reach a fit of 0 (an absolute floor in the
//! dense SVD's recovery took every singular value for zero) or panic in the
//! eigensolver (the normal matrix underflowed into subnormals).

use std::panic::{catch_unwind, AssertUnwindSafe};
use tucker_repro::prelude::*;

struct Probe {
    regime: &'static str,
    dims: &'static [usize],
    nnz: usize,
    rank: usize,
}

const PROBES: [Probe; 3] = [
    Probe {
        regime: "dense",
        dims: &[40, 30, 20],
        nnz: 800,
        rank: 3,
    },
    Probe {
        regime: "formed",
        dims: &[3000, 60, 50],
        nnz: 5_000,
        rank: 5,
    },
    Probe {
        regime: "krylov",
        dims: &[3000, 400, 300],
        nnz: 50,
        rank: 8,
    },
];

fn scales() -> Vec<String> {
    let mut scales: Vec<String> = (-15..=15).map(|k| format!("1e{}", 10 * k)).collect();
    scales.extend(["1e-152", "1e-153", "1e-154", "1e152"].map(String::from));
    scales
}

fn solve(tensor: &SparseTensor, rank: usize) -> Result<f64, TuckerError> {
    let config = TuckerConfig::new(vec![rank; tensor.order()])
        .max_iterations(3)
        .fit_tolerance(-1.0)
        .seed(3);
    let mut session = TuckerSolver::plan(tensor, PlanOptions::new().num_threads(1))?;
    Ok(session.solve(&config)?.final_fit())
}

#[test]
fn fits_are_scale_invariant_or_typed_errors() {
    let mut failures = Vec::new();
    for probe in &PROBES {
        let base = random_tensor(probe.dims, probe.nnz, 7);
        let session = TuckerSolver::plan(&base, PlanOptions::new().num_threads(1)).unwrap();
        let rows: Vec<usize> = (0..base.order())
            .map(|n| session.symbolic().mode(n).num_rows())
            .collect();
        drop(session);
        let width = probe.rank * probe.rank;
        // Each probe's `Y`s are shaped for its regime (Lanczos subspace
        // `2·rank + 10`).
        let subspace = 2 * probe.rank + 10;
        match probe.regime {
            "dense" => assert!(width <= subspace, "{rows:?}"),
            "formed" => assert!(rows.iter().all(|&r| r > width) && width > subspace),
            _ => assert!(rows.iter().all(|&r| subspace < r && r < width), "{rows:?}"),
        }
        let unscaled = solve(&base, probe.rank).unwrap();
        assert!(unscaled > 0.0, "{}: unscaled fit {unscaled}", probe.regime);
        for scale in scales() {
            let s: f64 = scale.parse().unwrap();
            let mut tensor = base.clone();
            for id in 0..tensor.nnz() {
                *tensor.value_mut(id) *= s;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| solve(&tensor, probe.rank)));
            let at = format!("{} at {scale}", probe.regime);
            match outcome {
                Err(_) => failures.push(format!("{at}: panicked")),
                Ok(Err(e)) => assert!(matches!(e, TuckerError::NormOutOfRange { .. }), "{at}: {e}"),
                Ok(Ok(fit)) if (fit - unscaled).abs() > 1e-12 * unscaled => {
                    failures.push(format!("{at}: fit {fit:e}, unscaled {unscaled:e}"))
                }
                Ok(Ok(_)) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
