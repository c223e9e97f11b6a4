//! The reference loop, a member of every class of the determinism contract
//! (stated in `tests/determinism.rs`).
//!
//! Algorithm 1 driven by hand through the public kernels, call for call as
//! the solver makes them, from every mode's random initial factor (the
//! solver skips mode 0's, which HOOI overwrites before reading).  Its TTMc
//! tier is passed explicitly as `Scalar` and as `Avx2`; its per-mode TTMc
//! gathers every nonzero through its COO id, so on per-mode classes it is
//! the COO ≡ CSF member.  On the small inputs it also runs with the shared
//! compact buffer poisoned with NaN before every TTMc: one entry a kernel
//! left unwritten would carry the NaN into the digest.  The loop runs in a
//! pool of width 2; bits are independent of pool width.

mod contract;

use contract::*;
use tucker_repro::prelude::*;

const BOTH_TIERS: &[(&str, bool, KernelIsa)] = &[
    ("reference loop, TTMc at scalar", false, KernelIsa::Scalar),
    ("reference loop, TTMc at avx2", false, KernelIsa::Avx2),
];

/// Runs the reference loop on every input `select` keeps, on each of its
/// classes, once per `(member, poison, tier)` of `members`; on the rank
/// sweep also `solve()` through an `Auto` plan of width 2.
fn check_reference_members(select: impl Fn(&Input) -> bool, members: &[(&str, bool, KernelIsa)]) {
    check_members(select, |input| {
        let mut runs = Vec::new();
        for &strategy in &input.strategies {
            if input.scope == Scope::Sweep {
                let options = PlanOptions::new().num_threads(2);
                let mut auto = TuckerSolver::plan(&input.tensor, options).unwrap();
                let got = digest_of(&auto.solve(&input.config).unwrap());
                runs.push((strategy, "solve() of an Auto plan".into(), got));
            }
            let session = plan(&input.tensor, strategy, 1);
            for &(member, poison, isa) in members {
                let config = &input.config;
                let got = pool(2).install(|| reference_solve(&session, config, poison, isa));
                runs.push((strategy, member.into(), got));
            }
        }
        runs
    });
}

/// The random tensors of orders 2–5, the six small order-3 tensors and the
/// executor's grid tensor, at either TTMc tier.
#[test]
fn random_init_solves_match_the_reference_loop() {
    check_reference_members(|input| input.scope == Scope::Small, BOTH_TIERS);
}

/// The same small inputs with the compact buffer poisoned, at the process
/// tier.
#[test]
fn poisoned_compact_buffers_match_the_reference_loop() {
    let member = "reference loop, poisoned compact buffer";
    let poisoned = [(member, true, KernelIsa::resolved_default())];
    check_reference_members(|input| input.scope == Scope::Small, &poisoned);
}

/// Every generated profile at 2 500 nonzeros and ranks 3, 5, 7 and 10, at
/// either TTMc tier: at its paper ranks under both strategies, at the
/// other ranks under the strategy `Auto` resolves to.
#[test]
fn profile_solves_match_the_reference_loop_at_either_kernel_tier() {
    check_reference_members(|input| input.scope != Scope::Small, BOTH_TIERS);
}
