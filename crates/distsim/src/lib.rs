//! Distributed-memory simulator **and executor** for coarse- and
//! fine-grain parallel HOOI.
//!
//! The paper's headline experiments (Tables II–IV) run a hybrid MPI+OpenMP
//! implementation on an IBM BlueGene/Q with up to 256 MPI ranks × 16 cores.
//! This crate substitutes for that machine in two complementary ways:
//!
//! * **The simulator** ([`setup`] → [`stats`] → [`cost`]) never touches
//!   floating-point data: it builds the data distribution for a grain
//!   (coarse/fine) and partitioning method (random, block, hypergraph),
//!   accounts every word that would cross the network, and converts
//!   per-rank work and communication volumes into time with an explicit
//!   BlueGene/Q-like [`machine`] model.  It scales to 256 ranks in
//!   milliseconds and regenerates the paper's tables.
//! * **The executor** ([`comm`] + [`exec`]) actually *runs* Algorithm 4 as
//!   message-passing ranks: long-lived concurrent threads that hold only
//!   their own nonzeros and exchange expand/fold messages through their
//!   [`comm::Endpoint`]s over in-process channels
//!   ([`comm::channel_world`]); nothing but messages passes between them.
//!   The executor's owner-ordered fold reduction makes its factors and core
//!   **bit-identical** to [`hooi::TuckerSolver`]'s per-mode solve at any
//!   pool width and any `rank_threads`, and its measured per-phase byte
//!   counters are asserted equal to the simulator's predicted expand/fold
//!   volumes — the cost model is a tested artifact, not a free-standing
//!   formula.
//!
//! Pick the simulator to sweep configurations and regenerate tables; pick
//! the executor to validate numerics, measure per-phase traffic and real
//! wall time on one machine.
//!
//! Components:
//!
//! * [`machine`] — the analytic cost model (per-thread TTMc rate, bandwidth
//!   bound TRSVD rate, network bandwidth/latency),
//! * [`setup`] — the data distribution and the holder/needer row relations
//!   shared by predictions and execution,
//! * [`stats`] — per-mode, per-rank `W_TTMc`, `W_TRSVD`, communication
//!   volumes, and the executor-facing expand/fold word predictions,
//! * [`cost`] — statistics + machine model → per-iteration times (Tables
//!   II, IV and V),
//! * [`comm`] — the counted [`comm::Endpoint`] and its collectives, typed
//!   [`comm::CommError`]s with a per-endpoint receive timeout, and the
//!   in-process channel transport,
//! * [`fault`] — deterministic fault injection: a seeded
//!   [`fault::FaultPlan`] drives a transport wrapper that drops, delays,
//!   disconnects, or corrupts exact messages so chaos tests are
//!   reproducible,
//! * [`exec`] — the message-passing executor
//!   ([`exec::distributed_hooi`], [`exec::execute_hooi`], and the chaos
//!   entry point [`exec::execute_hooi_chaos`]); every rank builds the same
//!   seeded random initial factors itself, so no message precedes the
//!   first iteration.
//!
//! The executor's failure model: every receive is bounded by the
//! endpoint's deadline, any observed [`comm::CommError`] triggers a poison
//! abort on surviving links, and every live rank unwinds to a typed
//! `TuckerError::RankFailed` carrying the origin rank, phase, and
//! iteration — no hangs, no cross-thread panics.

pub mod comm;
pub mod cost;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod setup;
pub mod stats;

pub use comm::{channel_world, CommCounters, CommError, Message, Phase, Tag};
pub use cost::{simulate_iteration, IterationCost};
pub use exec::{
    distributed_hooi, execute_hooi, execute_hooi_chaos, ChaosRun, DistributedRun, ExecOptions,
};
pub use fault::{FaultAction, FaultOp, FaultPlan, FaultTrigger};
pub use machine::MachineModel;
pub use setup::{DistributedSetup, Grain, ModeRelations, PartitionMethod, RowRelations, SimConfig};
pub use stats::{iteration_stats, IterationStats, ModeRankStats};
