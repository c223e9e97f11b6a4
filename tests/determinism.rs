//! The determinism contract, executable.
//!
//! A decomposition is a pure function of the tensor, the `TuckerConfig`
//! and the resolved TTMc strategy.  Every TRSVD reduction is chunked by row
//! count, never by pool width, and every TTMc row is summed in an order the
//! sparsity structure fixes, so the pool width, the index structure, the
//! kernel tier, plan reuse and the distributed executor never change a
//! bit.  The two strategies reassociate the TTMc sums, so each input has
//! one class per strategy; their agreement within 1e-10 is
//! `tests/ttmc_strategies.rs`'s.
//!
//! `tests/fixtures/determinism.txt` holds one line per class,
//! `<input> <per-mode|tree> <digest>`: an FNV-1a hash over the iteration
//! count, the fits, every factor's shape and bits and the core's bits.
//! Every member of a class must reproduce its class's digest.  The
//! members, and the test that checks each:
//!
//! | member | classes | test |
//! |---|---|---|
//! | `solve()` at pool widths 1, 2 and 3 | per-mode | `tests/ttmc_strategies.rs` `per_mode_ttmc_is_bit_identical_across_thread_counts` |
//! | the same | tree | `tests/ttmc_strategies.rs` `tree_ttmc_is_bit_identical_across_thread_counts` |
//! | a `caller_pool()` session in an installed pool of width 4, solved twice (plan reuse) | both | `tests/ttmc_strategies.rs` `solves_are_bit_reproducible_at_each_thread_count_for_both_strategies` |
//! | a per-mode plan (which reports CSF) at pool width 4 | per-mode, profiles | `tests/layouts.rs` `solves_are_bit_identical_across_layouts_on_all_profiles` |
//! | the tensor read back from a `.tns` file by the streamed reader | per-mode | `tests/layouts.rs` `streamed_roundtrip_preserves_solves_bitwise` |
//! | the reference loop, TTMc at `Scalar` and at `Avx2` (and poisoned, on the small inputs) | every | `tests/reference_loop.rs` |
//! | an `Auto` plan's `solve()` on the rank sweep | sweep | `tests/reference_loop.rs` `profile_solves_match_the_reference_loop_at_either_kernel_tier` |
//! | the message-passing executor across grains, partitioning methods, 1–4 ranks and `rank_threads` 1 and 2 | per-mode | `tests/executor.rs` |
//!
//! The inputs are every generated profile at 2 500 nonzeros and ranks 3,
//! 5, 7 and 10, and small random tensors; the profile at a rank other than
//! its paper ranks has only the class of the strategy `Auto` resolves to,
//! and only the reference-loop members (`contract::Scope`).
//!
//! The harness (inputs, digest, fixture, `check_members`) is
//! `tests/contract/mod.rs`.  This file writes the fixture and checks that
//! it lists every class.  The TRSVD and the core run at the process tier,
//! which only `TUCKER_KERNEL` switches; CI runs the member files under
//! forced `scalar` and forced `avx2` against the same fixture.  After an
//! intentional change, re-bless with
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release --test determinism
//! ```
//!
//! and justify the behaviour change in CHANGES.md.

mod contract;

use contract::*;

/// The fixture names exactly the classes of the contract's inputs;
/// blessing rewrites it from every class's canonical member.
#[test]
fn fixture_lists_every_class() {
    let (mut classes, mut blessed) = (Vec::new(), String::new());
    for input in inputs() {
        for &strategy in &input.strategies {
            classes.push(input.class(strategy));
            if blessing() {
                let digest = canonical(&input, strategy);
                blessed += &format!("{} {digest:016x}\n", input.class(strategy));
            }
        }
    }
    if blessing() {
        std::fs::write(FIXTURE, blessed).unwrap_or_else(|e| panic!("could not bless: {e}"));
        return;
    }
    classes.sort();
    let listed: Vec<String> = fixture().into_keys().collect();
    assert_eq!(
        listed, classes,
        "{FIXTURE} is stale: re-bless with `{REBLESS}`"
    );
}
