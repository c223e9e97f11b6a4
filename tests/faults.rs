//! Chaos tests of the fault-tolerant executor — the `chaos-smoke` CI gate.
//!
//! The contract under test: for every seeded *decisive* fault plan, every
//! surviving rank resolves to a typed [`TuckerError::RankFailed`] within
//! the configured deadline — no hangs (a watchdog thread enforces this),
//! no cross-thread panics — and all ranks agree on the failure's origin.
//! A plan that never fires, and in particular the empty plan, leaves the
//! run bit-identical to the fault-free executor with identical
//! [`CommCounters`].

use proptest::prelude::*;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use tucker_repro::distsim::{tcp_world_with, Message, Phase, Tag};
use tucker_repro::prelude::*;

/// Per-recv deadline for chaos runs: long enough for real work on a loaded
/// CI box, short enough that a deliberately dropped message fails fast.
const CHAOS_TIMEOUT: Duration = Duration::from_millis(400);

/// The no-hang budget: generous next to the recv deadline, so tripping it
/// means a genuine hang, not a slow machine.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread and panics if it does not finish within
/// [`WATCHDOG`] — the assertion that no fault schedule can hang the
/// executor.  Panics inside `f` are re-thrown here.
fn with_watchdog<T: Send + 'static>(label: String, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            handle.join().expect("watchdog worker");
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The worker panicked before sending; join re-throws it.
            handle.join().expect("watchdog worker panicked");
            unreachable!("disconnected sender without a panic")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: executor hung past the {WATCHDOG:?} watchdog")
        }
    }
}

fn chaos_options(backend: CommBackend) -> ExecOptions {
    ExecOptions::new()
        .backend(backend)
        .deadline(CommDeadline::with_recv_timeout(CHAOS_TIMEOUT))
}

/// One chaos case: run the plan under the watchdog and return the chaos
/// run next to a fault-free reference run with the same options.
fn chaos_case(
    tensor: SparseTensor,
    num_ranks: usize,
    ranks: Vec<usize>,
    seed: u64,
    backend: CommBackend,
    plan: FaultPlan,
) -> (ChaosRun, DistributedRun) {
    let label = format!("{backend:?} seed {seed} p={num_ranks}");
    with_watchdog(label, move || {
        let config = TuckerConfig::new(ranks.clone())
            .max_iterations(3)
            .seed(seed);
        let sim = SimConfig::new(num_ranks, Grain::Fine, PartitionMethod::Random, ranks);
        let setup = DistributedSetup::build(&tensor, &sim);
        let opts = chaos_options(backend);
        let chaos = execute_hooi_chaos(&tensor, &setup, &config, &opts, &plan)
            .expect("chaos entry point accepts the configuration");
        let clean = execute_hooi(&tensor, &setup, &config, &opts).expect("fault-free reference");
        (chaos, clean)
    })
}

fn assert_chaos_contract(chaos: &ChaosRun, clean: &DistributedRun, label: &str) {
    if chaos.faults_fired > 0 {
        // Every surviving rank must land on a typed failure — never a
        // hang, never a panic — and the run's representative error must be
        // one of the first-hand origins (a peer of the faulted link can
        // legitimately observe its own timeout before the abort arrives).
        let representative_origin = match &chaos.outcome {
            Err(TuckerError::RankFailed { rank, .. }) => *rank,
            other => panic!("{label}: fired fault produced {other:?}, not RankFailed"),
        };
        let mut origins = Vec::new();
        for (r, per_rank) in chaos.rank_errors.iter().enumerate() {
            match per_rank {
                Some(TuckerError::RankFailed { rank, .. }) => origins.push(*rank),
                other => panic!("{label}: rank {r} reported {other:?}, not RankFailed"),
            }
        }
        assert_eq!(
            Some(representative_origin),
            origins.iter().copied().min(),
            "{label}: the representative failure must be the lowest origin"
        );
        assert!(
            chaos.wall < WATCHDOG / 2,
            "{label}: unwind took {:?}, far past the deadline",
            chaos.wall
        );
    } else {
        // A plan that never fired must be invisible: same bits, same
        // counters as the unwrapped transport.
        let dec = match &chaos.outcome {
            Ok(dec) => dec,
            Err(e) => panic!("{label}: no fault fired yet the run failed: {e}"),
        };
        assert_eq!(dec.fits, clean.decomposition.fits, "{label}: fits diverged");
        for (m, (a, b)) in dec
            .factors
            .iter()
            .zip(clean.decomposition.factors.iter())
            .enumerate()
        {
            assert_eq!(a, b, "{label}: factor {m} not bit-identical");
        }
        assert_eq!(
            dec.core.as_slice(),
            clean.decomposition.core.as_slice(),
            "{label}: core not bit-identical"
        );
        assert_eq!(chaos.comm, clean.comm, "{label}: counters diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The tentpole property on the channel backend, over order-3 and
    // order-4 tensors and 2-4 ranks: every decisive injected fault yields
    // typed `RankFailed` on all ranks within the deadline, and plans that
    // never fire are bit-invisible.
    #[test]
    fn seeded_faults_resolve_to_typed_failures_on_channels(
        fault_seed in 0u64..100_000,
        num_ranks in 2usize..5,
        tensor_seed in 0u64..1_000,
        order4 in 0u64..2,
    ) {
        let (tensor, ranks) = if order4 == 1 {
            (random_tensor(&[8, 7, 6, 5], 250, tensor_seed), vec![2, 2, 2, 2])
        } else {
            (random_tensor(&[11, 9, 8], 300, tensor_seed), vec![2, 2, 2])
        };
        let plan = FaultPlan::seeded_decisive(fault_seed, num_ranks);
        let (chaos, clean) = chaos_case(
            tensor,
            num_ranks,
            ranks,
            tensor_seed,
            CommBackend::Channel,
            plan,
        );
        assert_chaos_contract(&chaos, &clean, &format!("channel fault_seed={fault_seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The same property over real loopback sockets (skipped where the
    // sandbox forbids them), which additionally exercises reader-thread
    // teardown on every faulted run.
    #[test]
    fn seeded_faults_resolve_to_typed_failures_on_tcp(
        fault_seed in 0u64..100_000,
        num_ranks in 2usize..4,
        tensor_seed in 0u64..1_000,
    ) {
        if !loopback_tcp_available() {
            return;
        }
        let tensor = random_tensor(&[10, 8, 7], 250, tensor_seed);
        let plan = FaultPlan::seeded_decisive(fault_seed, num_ranks);
        let (chaos, clean) = chaos_case(
            tensor,
            num_ranks,
            vec![2, 2, 2],
            tensor_seed,
            CommBackend::Tcp,
            plan,
        );
        assert_chaos_contract(&chaos, &clean, &format!("tcp fault_seed={fault_seed}"));
    }
}

/// The empty plan is exact pass-through on both backends: the fault-free
/// `execute_hooi` adapter and the fault-plan-taking body it wraps return a
/// bit-identical decomposition and word-identical counters, and the
/// adapter's cluster digest is the sum of those counters.
#[test]
fn empty_plan_is_bit_identical_on_both_backends() {
    for backend in [CommBackend::Channel, CommBackend::Tcp] {
        if backend == CommBackend::Tcp && !loopback_tcp_available() {
            eprintln!("skipping TCP empty-plan check: loopback sockets unavailable");
            continue;
        }
        let tensor = random_tensor(&[14, 12, 10], 500, 21);
        let (chaos, clean) = chaos_case(tensor, 3, vec![3, 2, 2], 21, backend, FaultPlan::empty());
        assert_eq!(chaos.faults_fired, 0);
        assert_chaos_contract(&chaos, &clean, &format!("{backend:?} empty plan"));
        assert!(chaos.rank_errors.iter().all(Option::is_none));
        assert_eq!(chaos.backend, clean.backend);
        let totals = CommCounters::merged(&chaos.comm);
        assert_eq!(
            clean.cluster_expand_floats,
            totals.phase(Phase::Expand).floats_sent as f64
        );
        assert_eq!(
            clean.cluster_fold_floats,
            totals.phase(Phase::Fold).floats_sent as f64
        );
    }
}

/// A permanent one-sided link cut is the harshest decisive fault; it must
/// produce `RankFailed` everywhere with the origin attributed to the rank
/// that first observed the dead link.
#[test]
fn explicit_disconnect_attributes_the_origin_consistently() {
    let tensor = random_tensor(&[12, 10, 8], 350, 3);
    let plan = FaultPlan::one(FaultTrigger {
        rank: 1,
        peer: 0,
        op: FaultOp::Send,
        nth: 0,
        action: FaultAction::Disconnect,
    });
    let (chaos, clean) = chaos_case(tensor, 3, vec![2, 2, 2], 3, CommBackend::Channel, plan);
    assert!(chaos.faults_fired >= 1, "the one trigger must fire");
    assert_chaos_contract(&chaos, &clean, "explicit disconnect");
    match &chaos.outcome {
        Err(TuckerError::RankFailed { phase, source, .. }) => {
            assert!(!phase.is_empty() && !source.is_empty());
        }
        other => panic!("expected RankFailed, got {other:?}"),
    }
}

/// Satellite: repeated `tcp_world` setup/teardown must leak neither
/// threads nor sockets — twenty full worlds built and dropped (half of
/// them mid-conversation) under one watchdog.
#[test]
fn repeated_tcp_world_setup_and_teardown_is_clean() {
    if !loopback_tcp_available() {
        eprintln!("skipping TCP stress test: loopback sockets unavailable");
        return;
    }
    with_watchdog("tcp setup/teardown stress".to_string(), || {
        for round in 0..20u64 {
            let mut world =
                tcp_world_with(3, CommDeadline::with_recv_timeout(Duration::from_secs(5)))
                    .expect("loopback world");
            if round % 2 == 0 {
                // Exchange one ring of messages before tearing down.
                let handles: Vec<_> = world
                    .drain(..)
                    .map(|mut ep| {
                        thread::spawn(move || {
                            let rank = ep.rank();
                            let p = ep.num_ranks();
                            let tag = Tag {
                                phase: Phase::Expand,
                                mode: 0,
                                step: round as u32,
                            };
                            let msg = Message {
                                tag,
                                ints: vec![rank as u64],
                                floats: vec![],
                            };
                            ep.send((rank + 1) % p, &msg).unwrap();
                            let got = ep.recv((rank + p - 1) % p, tag).unwrap();
                            assert_eq!(got.ints, vec![((rank + p - 1) % p) as u64]);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            }
            // Odd rounds: drop the whole world immediately after the
            // connection phase; Endpoint::drop must join every reader.
            drop(world);
        }
    });
}

/// Satellite: a silently dropped message cannot hang the run — it fails
/// fast and typed, either by the recv deadline (the receiver waited for a
/// frame that never came), by the closed link when the sender has since
/// unwound, or by a tag mismatch when a later frame arrived in its place.
#[test]
fn dropped_message_fails_by_deadline_not_by_hang() {
    let tensor = random_tensor(&[12, 10, 8], 350, 8);
    let plan = FaultPlan::one(FaultTrigger {
        rank: 0,
        peer: 1,
        op: FaultOp::Send,
        nth: 2,
        action: FaultAction::Drop,
    });
    let (chaos, _clean) = chaos_case(tensor, 2, vec![2, 2, 2], 8, CommBackend::Channel, plan);
    assert!(chaos.faults_fired >= 1);
    match &chaos.outcome {
        Err(TuckerError::RankFailed { source, .. }) => {
            assert!(
                source.contains("no message")
                    || source.contains("disconnected")
                    || source.contains("expected"),
                "source should name the deadline, the closed link, or the \
                 mismatched tag: {source}"
            );
        }
        other => panic!("expected RankFailed, got {other:?}"),
    }
}
