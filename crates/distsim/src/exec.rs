//! The distributed *executor*: Algorithm 4 run as real message-passing
//! ranks, each holding one [`crate::comm::Endpoint`].
//!
//! Earlier revisions of this module *walked* the ranks serially on one
//! thread and merged their partial results in place.  This version executes
//! the algorithm's actual communication pattern: every rank is a long-lived
//! concurrent worker holding only its own nonzeros (per the
//! [`DistributedSetup`] ownership maps), and all coordination happens
//! through typed messages.  Each rank starts from its own replica of the
//! seeded random initial factors ([`initial_factors`]), so nothing is sent
//! before the first iteration.  Per HOOI iteration and mode `n`:
//!
//! 1. **Local TTMc** — each rank runs the nonzero-based TTMc on its local
//!    tensor.  Rows whose update list is entirely local are accumulated
//!    directly; rows split across ranks produce per-nonzero contribution
//!    vectors.
//! 2. **Fold** (point-to-point) — contributions of split rows travel to the
//!    row's owner, which merges *all* contributions — its own included — in
//!    ascending global nonzero id.  That owner-ordered reduction replays
//!    the shared-memory sweep's exact floating-point accumulation order, so
//!    the folded row is bit-identical to [`hooi::ttmc::ttmc_mode`]'s — the
//!    executor's correctness argument is exact equality with
//!    [`hooi::TuckerSolver`], not a tolerance.
//! 3. **Gather** — owners ship their reduced rows to rank 0, which
//!    assembles the compact matricized result and runs the same
//!    [`trsvd_factor_with`] the shared-memory solver uses.  (The paper
//!    distributes the TRSVD itself; centralizing it is what keeps the
//!    factor update bit-identical.  The gather/scatter words are counted
//!    under their own [`Phase`]s so the modeled expand/fold traffic stays
//!    cleanly separated.)
//! 4. **Scatter + Expand** (point-to-point) — updated factor rows return to
//!    their owners, and each owner forwards `U_n(i, :)` to every rank that
//!    needs it for a later local TTMc — Algorithm 4's factor-row
//!    communication, driven by the same holder/needer relations
//!    ([`DistributedSetup::row_relations`]) that
//!    [`crate::stats::iteration_stats`] prices.  Measured
//!    [`Phase::Expand`]/[`Phase::Fold`] counters therefore cross-validate
//!    the cost model word for word (see `tests/executor.rs`).
//!
//! After the mode sweep, rank 0 forms the core tensor, evaluates the fit,
//! and broadcasts the continue/stop decision; the final counter digest is
//! an [`Endpoint::allreduce_sum`] so every rank learns the cluster totals
//! through the same collectives the algorithm uses.
//!
//! Each rank pins its numeric kernels to a private pool of
//! [`ExecOptions::rank_threads`] workers.  The width never changes a bit:
//! the TRSVD's reductions are chunked by row count, not by pool width.  The
//! executor's arithmetic replays the *per-mode* TTMc, so it equals a solver
//! planned with `TtmcStrategy::PerMode` — the shared-memory solver's
//! dimension-tree fast path reassociates the accumulation and agrees only
//! within tolerance, not bit for bit.  `tests/executor.rs` holds the
//! executor to the per-mode solve's blessed digest.
//!
//! The analytic tables (256-rank scaling) still come from
//! [`crate::stats`]/[`crate::cost`], which never execute numerics; this
//! module is the runner that proves those predictions against a real
//! message-passing execution between rank threads over in-process
//! channels.
//!
//! # Failure model
//!
//! Every communication step returns `Result<_, CommError>` and every
//! `recv` is bounded by [`ExecOptions::recv_timeout`], so a lost message,
//! a dead peer, or a corrupt payload can never hang a rank.  The first rank
//! to observe an error fans a poison [`Phase::Control`] abort out on its
//! surviving links ([`Endpoint::send_abort`]) carrying the *origin*
//! rank's failure context; peers blocked in collectives intercept it as
//! [`CommError::RemoteAbort`] and unwind with the same attribution.  Each
//! rank's body additionally runs under `catch_unwind`, so a panic inside
//! the numeric kernels degrades into the same typed failure instead of
//! crossing a thread boundary.  [`execute_hooi`] then reports the whole
//! run as [`TuckerError::RankFailed`] naming the origin rank, protocol
//! phase, and iteration — a deterministic error, never a hang, never a
//! cross-thread panic.  [`execute_hooi_chaos`] exposes the same machinery
//! under a seeded [`FaultPlan`] for reproducible chaos testing.

use crate::comm::{
    channel_transports, CommCounters, CommError, Endpoint, Message, Phase, Tag, Transport,
    DEFAULT_RECV_TIMEOUT,
};
use crate::fault::{FaultPlan, FaultProbe};
use crate::setup::{DistributedSetup, Grain};
use hooi::config::TuckerConfig;
use hooi::core_tensor::core_from_last_ttmc_into;
use hooi::error::TuckerError;
use hooi::fit::fit_from_norms;
use hooi::symbolic::{SymbolicMode, SymbolicTtmc};
use hooi::trsvd::trsvd_factor_with;
use hooi::ttmc::{ttmc_contribution_into, ttmc_result_width, ttmc_row_into};
use hooi::workspace::HooiWorkspace;
use hooi::{initial_factors, TimingBreakdown, TuckerDecomposition};
use linalg::Matrix;
use sptensor::SparseTensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The executor's root rank: assembles the TRSVD input, owns the
/// convergence decision, and returns the decomposition.
const ROOT: usize = 0;

const STEP_FINAL_BARRIER: u32 = 0xffff_0001;
const STEP_FINAL_ALLREDUCE: u32 = 0xffff_0002;

/// How to run the executor: how many threads each rank's private compute
/// pool gets, and the liveness deadline every endpoint enforces.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads per rank (the hybrid implementation's "OpenMP
    /// threads").  Defaults to 1; at any width, results are bit-identical
    /// to a [`hooi::TuckerSolver`] planned with `TtmcStrategy::PerMode`.
    pub rank_threads: usize,
    /// Upper bound on any single `recv` before it fails with
    /// [`CommError::Timeout`] (default 10 s).  The worst-case unwind time
    /// after a failure is bounded by this deadline.
    pub recv_timeout: Duration,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            rank_threads: 1,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        }
    }
}

impl ExecOptions {
    /// Default options: one thread per rank, 10 s receive timeout.
    pub fn new() -> Self {
        ExecOptions::default()
    }

    /// Builder-style setter for the per-rank compute-pool width.
    pub fn rank_threads(mut self, threads: usize) -> Self {
        self.rank_threads = threads;
        self
    }

    /// Builder-style setter for the per-endpoint receive timeout.
    pub fn recv_timeout(mut self, recv_timeout: Duration) -> Self {
        self.recv_timeout = recv_timeout;
        self
    }
}

/// The outcome of one executed distributed HOOI run: the decomposition plus
/// the measured communication of every rank.
#[derive(Debug)]
pub struct DistributedRun {
    /// The decomposition computed at the root — bit-identical to the
    /// shared-memory solver's per-mode solve.
    pub decomposition: TuckerDecomposition,
    /// Measured per-rank traffic, indexed by rank.
    pub comm: Vec<CommCounters>,
    /// Cluster-total expand float words *sent*, as computed by the final
    /// in-protocol [`Endpoint::allreduce_sum`] (equals the sum of the
    /// per-rank counters — asserted by the tests).
    pub cluster_expand_floats: f64,
    /// Cluster-total fold float words *sent*, from the same allreduce.
    pub cluster_fold_floats: f64,
    /// Wall-clock time of the whole run (world construction to join).
    pub wall: Duration,
}

impl DistributedRun {
    /// Total measured payload bytes moved across all ranks and phases.
    pub fn total_bytes(&self) -> u64 {
        CommCounters::merged(&self.comm).bytes_total()
    }
}

// ---------------------------------------------------------------------------
// Failure records
// ---------------------------------------------------------------------------

/// What originally went wrong on a failed rank.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FailureSource {
    /// A communication primitive failed.
    Comm(CommError),
    /// The rank's body panicked; the payload message is captured.
    Panic(String),
}

impl std::fmt::Display for FailureSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureSource::Comm(e) => write!(f, "{e}"),
            FailureSource::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// Iteration sentinel for failures outside the HOOI loop (the final
/// counter digest collectives).
const FINAL_COLLECTIVES_ITERATION: u32 = u32::MAX;

/// One rank's record of a failed run.  A rank that observed the fault
/// directly records itself as `origin`; a rank that unwound because of a
/// poison abort adopts the aborting rank's context, so every survivor
/// attributes the failure to the same origin.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankFailure {
    /// The rank this record belongs to.
    rank: usize,
    /// The rank where the failure originated.
    origin: usize,
    /// Protocol phase the origin was executing.
    phase: Phase,
    /// HOOI iteration the origin was in ([`FINAL_COLLECTIVES_ITERATION`]
    /// for the post-loop counter digest).
    iteration: u32,
    /// The underlying error.
    source: FailureSource,
}

impl RankFailure {
    fn observed(rank: usize, phase: Phase, iteration: u32, e: CommError) -> RankFailure {
        // A remote abort carries the origin's own failure context; adopt it
        // so all survivors agree on the attribution.
        if let CommError::RemoteAbort {
            origin,
            phase: origin_phase,
            iteration: origin_iter,
        } = e
        {
            RankFailure {
                rank,
                origin,
                phase: origin_phase,
                iteration: origin_iter,
                source: FailureSource::Comm(e),
            }
        } else {
            RankFailure {
                rank,
                origin: rank,
                phase,
                iteration,
                source: FailureSource::Comm(e),
            }
        }
    }

    /// Renders this failure as the executor's public error type.
    fn to_tucker_error(&self) -> TuckerError {
        TuckerError::RankFailed {
            rank: self.origin,
            phase: self.phase.label().to_string(),
            iteration: self.iteration as u64,
            source: self.source.to_string(),
        }
    }
}

/// The outcome of a fault-injected executor run: what the world concluded,
/// what each rank individually reported, and how much traffic moved before
/// the fault (if any) tore the run down.
#[derive(Debug)]
pub struct ChaosRun {
    /// The run's overall verdict: the decomposition when every rank
    /// completed cleanly, or the representative [`TuckerError::RankFailed`]
    /// (lowest origin rank, preferring the origin's own record).
    pub outcome: Result<TuckerDecomposition, TuckerError>,
    /// Each rank's own failure, `None` for ranks that completed.  During a
    /// faulted run every rank fails (the abort/deadline machinery reaches
    /// everyone), so this is all-`None` exactly when `outcome` is `Ok`.
    pub rank_errors: Vec<Option<TuckerError>>,
    /// Measured per-rank traffic up to completion or unwind.
    pub comm: Vec<CommCounters>,
    /// How many of the plan's triggers actually fired.
    pub faults_fired: u64,
    /// Wall-clock time of the whole run (world construction to join).
    pub wall: Duration,
}

// ---------------------------------------------------------------------------
// The communication plan
// ---------------------------------------------------------------------------

/// Who talks to whom, precomputed once per run from the ownership maps so
/// every rank's receive loop knows exactly which peers to expect (the
/// protocol never needs wildcard receives).
struct ModePlan {
    /// Owner rank per global row (`u32::MAX` = empty slice).
    owner: Vec<u32>,
    /// Number of ranks holding nonzeros of each row.
    lambda: Vec<u32>,
    /// `owned_rows[r]` — sorted nonempty rows owned by rank `r`.
    owned_rows: Vec<Vec<usize>>,
    /// `fold_pair[src][dst]` — whether `src` ships fold contributions to
    /// `dst`; both sides of the exchange index this one matrix.
    fold_pair: Vec<Vec<bool>>,
    /// `expand_rows[src][dst]` — the sorted factor rows `src` owns and
    /// forwards to `dst`; senders iterate a row, receivers a column.
    expand_rows: Vec<Vec<Vec<usize>>>,
}

impl ModePlan {
    fn num_ranks(&self) -> usize {
        self.owned_rows.len()
    }

    /// Sorted owners rank `src` ships fold contributions to.
    fn fold_send_to(&self, src: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_ranks()).filter(move |&dst| self.fold_pair[src][dst])
    }

    /// Sorted holders rank `dst` receives fold contributions from.
    fn fold_recv_from(&self, dst: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_ranks()).filter(move |&src| self.fold_pair[src][dst])
    }

    /// `(dst, rows)` pairs rank `src` must forward factor rows to.
    fn expand_send_to(&self, src: usize) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        (0..self.num_ranks())
            .filter(move |&dst| !self.expand_rows[src][dst].is_empty())
            .map(move |dst| (dst, self.expand_rows[src][dst].as_slice()))
    }

    /// `(src, rows)` pairs rank `dst` receives factor rows from.
    fn expand_recv_from(&self, dst: usize) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        (0..self.num_ranks())
            .filter(move |&src| !self.expand_rows[src][dst].is_empty())
            .map(move |src| (src, self.expand_rows[src][dst].as_slice()))
    }
}

struct ExecPlan {
    modes: Vec<ModePlan>,
}

impl ExecPlan {
    fn build(tensor: &SparseTensor, setup: &DistributedSetup, global_sym: &SymbolicTtmc) -> Self {
        let order = tensor.order();
        let p = setup.config.num_ranks;
        let relations = setup.row_relations(tensor);
        let mut modes = Vec::with_capacity(order);
        for mode in 0..order {
            let rel = &relations.modes[mode];
            let dim = tensor.dims()[mode];
            let owner = setup.row_owner[mode].clone();
            let lambda: Vec<u32> = (0..dim).map(|i| rel.holders[i].len() as u32).collect();

            let mut owned_rows: Vec<Vec<usize>> = vec![Vec::new(); p];
            for &i in &global_sym.mode(mode).rows {
                let o = owner[i];
                if o != u32::MAX {
                    owned_rows[o as usize].push(i);
                }
            }

            let mut fold_pair = vec![vec![false; p]; p];
            for i in 0..dim {
                if lambda[i] > 1 {
                    let o = owner[i] as usize;
                    for &(h, _) in &rel.holders[i] {
                        if h as usize != o {
                            fold_pair[h as usize][o] = true;
                        }
                    }
                }
            }
            let mut expand_rows: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); p]; p];
            for i in 0..dim {
                let o = owner[i];
                if o == u32::MAX {
                    continue;
                }
                for &need in &rel.needers[i] {
                    if need != o {
                        expand_rows[o as usize][need as usize].push(i);
                    }
                }
            }
            modes.push(ModePlan {
                owner,
                lambda,
                owned_rows,
                fold_pair,
                expand_rows,
            });
        }
        ExecPlan { modes }
    }
}

// ---------------------------------------------------------------------------
// Per-rank state
// ---------------------------------------------------------------------------

/// A stream of per-nonzero TTMc contributions for one (holder → owner)
/// pair: rows it touches, the global nonzero ids behind each row, and one
/// width-long contribution vector per id.  Buffers are reused across
/// iterations and modes.
#[derive(Default, Clone)]
struct FoldStream {
    /// `(global row, contribution count)`, ascending rows.
    rows: Vec<(usize, usize)>,
    /// Global nonzero ids, grouped by row, ascending within a row.
    ids: Vec<u64>,
    /// Contributions, `width` floats per id, in id order.
    floats: Vec<f64>,
    row_cursor: usize,
    id_cursor: usize,
}

impl FoldStream {
    fn clear(&mut self) {
        self.rows.clear();
        self.ids.clear();
        self.floats.clear();
        self.row_cursor = 0;
        self.id_cursor = 0;
    }

    fn to_message(&self, tag: Tag) -> Message {
        let mut ints = Vec::with_capacity(1 + 2 * self.rows.len() + self.ids.len());
        ints.push(self.rows.len() as u64);
        for &(row, cnt) in &self.rows {
            ints.push(row as u64);
            ints.push(cnt as u64);
        }
        ints.extend_from_slice(&self.ids);
        Message {
            tag,
            ints,
            floats: self.floats.clone(),
        }
    }

    fn load_message(&mut self, msg: &Message) {
        self.clear();
        let nrows = msg.ints[0] as usize;
        for k in 0..nrows {
            self.rows
                .push((msg.ints[1 + 2 * k] as usize, msg.ints[2 + 2 * k] as usize));
        }
        self.ids.extend_from_slice(&msg.ints[1 + 2 * nrows..]);
        self.floats.extend_from_slice(&msg.floats);
    }

    /// If the stream's next row is `row`, returns `(first id index, count)`
    /// and advances the cursors.
    fn take_row(&mut self, row: usize) -> Option<(usize, usize)> {
        match self.rows.get(self.row_cursor) {
            Some(&(r, cnt)) if r == row => {
                let start = self.id_cursor;
                self.row_cursor += 1;
                self.id_cursor += cnt;
                Some((start, cnt))
            }
            _ => None,
        }
    }
}

/// Everything a rank keeps alive across iterations: its local tensor(s)
/// and symbolic data (built once), the [`HooiWorkspace`] holding the local
/// compact TTMc rows, and every message/merge scratch buffer — the
/// executor's analogue of the solver-session workspace, so the iteration
/// loop allocates nothing per call.
struct RankState<'a> {
    rank: usize,
    /// Global nonzero ids per mode (ascending), mapping local ids back.
    ids: Vec<&'a [usize]>,
    /// Local tensors; fine grain owns a single tensor shared by all modes.
    locals: Vec<SparseTensor>,
    shared_local: bool,
    /// Local symbolic update lists per mode, built once.
    sym: SymbolicTtmc,
    /// Local compact TTMc rows, reused across iterations (PR 2 pattern).
    ws: HooiWorkspace,
    contrib: Vec<f64>,
    scratch: Vec<f64>,
    self_stream: FoldStream,
    out_streams: Vec<FoldStream>,
    in_streams: Vec<FoldStream>,
    /// `(global id, stream index, id index within stream)` merge scratch.
    merge_buf: Vec<(u64, usize, usize)>,
    row_buf: Vec<f64>,
}

impl<'a> RankState<'a> {
    fn build(
        rank: usize,
        tensor: &'a SparseTensor,
        setup: &'a DistributedSetup,
        ranks: &[usize],
    ) -> Self {
        let order = tensor.order();
        let p = setup.config.num_ranks;
        let shared_local = setup.config.grain == Grain::Fine;
        let ids: Vec<&[usize]> = (0..order).map(|m| setup.nonzeros_for(m, rank)).collect();
        let locals: Vec<SparseTensor> = if shared_local {
            vec![tensor.subset(ids[0])]
        } else {
            (0..order).map(|m| tensor.subset(ids[m])).collect()
        };
        let modes: Vec<SymbolicMode> = (0..order)
            .map(|m| {
                let lt = if shared_local { &locals[0] } else { &locals[m] };
                SymbolicMode::build(lt, m)
            })
            .collect();
        let sym = SymbolicTtmc { modes };
        let ws = HooiWorkspace::new(&sym, ranks);
        RankState {
            rank,
            ids,
            locals,
            shared_local,
            sym,
            ws,
            contrib: Vec::new(),
            scratch: Vec::new(),
            self_stream: FoldStream::default(),
            out_streams: vec![FoldStream::default(); p],
            in_streams: vec![FoldStream::default(); p],
            merge_buf: Vec::new(),
            row_buf: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// The per-mode protocol
// ---------------------------------------------------------------------------

/// Phase 1+2: local TTMc and the fold of split rows to their owners.
/// Afterwards every row in `state.ws.compact(mode)` that this rank *owns*
/// holds its final, fully reduced value.
fn local_ttmc_and_fold<T: Transport>(
    state: &mut RankState<'_>,
    comm: &mut Endpoint<T>,
    plan: &ModePlan,
    factors: &[Matrix],
    mode: usize,
    iter: u32,
) -> Result<(), CommError> {
    let rank = state.rank;
    let width = ttmc_result_width(factors, mode);
    state.contrib.resize(width, 0.0);
    state.scratch.resize(width, 0.0);
    state.self_stream.clear();
    for s in &mut state.out_streams {
        s.clear();
    }
    // Factor-row scratch for the contribution kernel; its entries borrow
    // `factors`, so it lives here rather than in the long-lived RankState.
    let mut factor_rows: Vec<&[f64]> = Vec::with_capacity(factors.len());

    // Local TTMc: direct accumulation for fully local rows, contribution
    // streams for split rows.
    {
        let lt = if state.shared_local {
            &state.locals[0]
        } else {
            &state.locals[mode]
        };
        let sm = state.sym.mode(mode);
        let compact = state.ws.compact_mut(mode);
        for p_local in 0..sm.num_rows() {
            let i = sm.rows[p_local];
            if plan.lambda[i] <= 1 {
                // Sole holder: in both grains this rank is also the owner.
                ttmc_row_into(
                    lt,
                    sm,
                    factors,
                    mode,
                    p_local,
                    compact.row_mut(p_local),
                    &mut state.scratch,
                );
            } else {
                let owner = plan.owner[i] as usize;
                let stream = if owner == rank {
                    &mut state.self_stream
                } else {
                    &mut state.out_streams[owner]
                };
                let list = sm.update_list(p_local);
                stream.rows.push((i, list.len()));
                for &local_id in list {
                    ttmc_contribution_into(
                        lt,
                        factors,
                        mode,
                        local_id,
                        &mut state.contrib,
                        &mut state.scratch,
                        &mut factor_rows,
                    );
                    stream.ids.push(state.ids[mode][local_id] as u64);
                    stream.floats.extend_from_slice(&state.contrib);
                }
            }
        }
    }

    // Fold sends, then receives (the plan tells each side exactly whom to
    // expect, so no wildcard receives are needed).
    let tag = Tag::new(Phase::Fold, mode, iter);
    for dst in plan.fold_send_to(rank) {
        let msg = state.out_streams[dst].to_message(tag);
        comm.send(dst, &msg)?;
    }
    for src in plan.fold_recv_from(rank) {
        let msg = comm.recv(src, tag)?;
        state.in_streams[src].load_message(&msg);
    }

    // Owner-ordered reduction: for every owned split row, merge this rank's
    // own contributions with the received ones in ascending global nonzero
    // id — exactly the shared-memory sweep's accumulation order, which is
    // what makes the folded row bit-identical to `ttmc_mode`'s.
    state.row_buf.resize(width, 0.0);
    for &i in &plan.owned_rows[rank] {
        if plan.lambda[i] <= 1 {
            continue;
        }
        state.merge_buf.clear();
        if let Some((start, cnt)) = state.self_stream.take_row(i) {
            for k in start..start + cnt {
                state
                    .merge_buf
                    .push((state.self_stream.ids[k], usize::MAX, k));
            }
        }
        for src in plan.fold_recv_from(rank) {
            if let Some((start, cnt)) = state.in_streams[src].take_row(i) {
                for k in start..start + cnt {
                    state.merge_buf.push((state.in_streams[src].ids[k], src, k));
                }
            }
        }
        state.merge_buf.sort_unstable();
        state.row_buf.iter_mut().for_each(|v| *v = 0.0);
        for &(_, stream, k) in &state.merge_buf {
            let floats = if stream == usize::MAX {
                &state.self_stream.floats
            } else {
                &state.in_streams[stream].floats
            };
            let contribution = &floats[k * width..(k + 1) * width];
            for (r, &c) in state.row_buf.iter_mut().zip(contribution.iter()) {
                *r += c;
            }
        }
        let p_local = state
            .sym
            .mode(mode)
            .position_of(i)
            .expect("the owner of a split row holds nonzeros of it");
        state
            .ws
            .compact_mut(mode)
            .row_mut(p_local)
            .copy_from_slice(&state.row_buf);
    }
    Ok(())
}

/// Phase 3 (sender side): ship this rank's owned, reduced rows to the root.
fn gather_to_root<T: Transport>(
    state: &RankState<'_>,
    comm: &mut Endpoint<T>,
    plan: &ModePlan,
    width: usize,
    mode: usize,
    iter: u32,
) -> Result<(), CommError> {
    let rank = state.rank;
    let rows = &plan.owned_rows[rank];
    let mut floats = Vec::with_capacity(rows.len() * width);
    let mut ints = Vec::with_capacity(rows.len());
    let sm = state.sym.mode(mode);
    for &i in rows {
        let p_local = sm.position_of(i).expect("owner holds its rows");
        floats.extend_from_slice(state.ws.compact(mode).row(p_local));
        ints.push(i as u64);
    }
    comm.send(
        ROOT,
        &Message {
            tag: Tag::new(Phase::Gather, mode, iter),
            ints,
            floats,
        },
    )
}

/// Phase 3 (root side): assemble the full compact matricized result from
/// this rank's own rows plus every peer's gather message.
fn assemble_at_root<T: Transport>(
    state: &RankState<'_>,
    comm: &mut Endpoint<T>,
    plan: &ModePlan,
    global_sym: &SymbolicTtmc,
    out: &mut Matrix,
    mode: usize,
    iter: u32,
) -> Result<(), CommError> {
    let width = out.ncols();
    let gsm = global_sym.mode(mode);
    let mut assembled = 0usize;
    let sm = state.sym.mode(mode);
    for &i in &plan.owned_rows[ROOT] {
        let g = gsm.position_of(i).expect("owned rows are nonempty");
        let p_local = sm.position_of(i).expect("owner holds its rows");
        out.row_mut(g)
            .copy_from_slice(state.ws.compact(mode).row(p_local));
        assembled += 1;
    }
    let p = comm.num_ranks();
    let corrupt = |detail: String, peer: usize| CommError::Corrupt {
        rank: ROOT,
        peer,
        detail,
    };
    for src in 1..p {
        let msg = comm.recv(src, Tag::new(Phase::Gather, mode, iter))?;
        if msg.floats.len() != msg.ints.len() * width {
            return Err(corrupt(
                format!(
                    "gather payload length mismatch ({} rows, {} floats, width {width})",
                    msg.ints.len(),
                    msg.floats.len()
                ),
                src,
            ));
        }
        for (k, &row) in msg.ints.iter().enumerate() {
            let g = gsm
                .position_of(row as usize)
                .ok_or_else(|| corrupt(format!("gathered unknown row {row}"), src))?;
            out.row_mut(g)
                .copy_from_slice(&msg.floats[k * width..(k + 1) * width]);
            assembled += 1;
        }
    }
    if assembled != gsm.num_rows() {
        return Err(corrupt(
            format!(
                "gather assembled {assembled} of {} rows (every nonempty row has exactly one owner)",
                gsm.num_rows()
            ),
            ROOT,
        ));
    }
    Ok(())
}

/// Phase 4: the root scatters updated factor rows to their owners, then
/// every owner expands them point-to-point to the ranks that need them.
/// On return every rank's copy of `factors[mode]` is fresh wherever its
/// local TTMc will read it.
fn scatter_and_expand<T: Transport>(
    comm: &mut Endpoint<T>,
    plan: &ModePlan,
    factor: &mut Matrix,
    mode: usize,
    iter: u32,
) -> Result<(), CommError> {
    let rank = comm.rank();
    let p = comm.num_ranks();
    let r_mode = factor.ncols();
    let nrows = factor.nrows();
    let scatter_tag = Tag::new(Phase::Scatter, mode, iter);
    let apply_rows = |factor: &mut Matrix, msg: &Message, peer: usize| {
        if msg.floats.len() != msg.ints.len() * r_mode
            || msg.ints.iter().any(|&row| row as usize >= nrows)
        {
            return Err(CommError::Corrupt {
                rank,
                peer,
                detail: format!(
                    "factor-row payload invalid ({} rows, {} floats, width {r_mode})",
                    msg.ints.len(),
                    msg.floats.len()
                ),
            });
        }
        for (k, &row) in msg.ints.iter().enumerate() {
            factor
                .row_mut(row as usize)
                .copy_from_slice(&msg.floats[k * r_mode..(k + 1) * r_mode]);
        }
        Ok(())
    };
    if rank == ROOT {
        for dst in 1..p {
            let rows = &plan.owned_rows[dst];
            if rows.is_empty() {
                continue;
            }
            let mut floats = Vec::with_capacity(rows.len() * r_mode);
            for &i in rows {
                floats.extend_from_slice(factor.row(i));
            }
            comm.send(
                dst,
                &Message {
                    tag: scatter_tag,
                    ints: rows.iter().map(|&i| i as u64).collect(),
                    floats,
                },
            )?;
        }
    } else if !plan.owned_rows[rank].is_empty() {
        let msg = comm.recv(ROOT, scatter_tag)?;
        apply_rows(factor, &msg, ROOT)?;
    }

    let expand_tag = Tag::new(Phase::Expand, mode, iter);
    for (dst, rows) in plan.expand_send_to(rank) {
        let mut floats = Vec::with_capacity(rows.len() * r_mode);
        for &i in rows {
            floats.extend_from_slice(factor.row(i));
        }
        comm.send(
            dst,
            &Message {
                tag: expand_tag,
                ints: rows.iter().map(|&i| i as u64).collect(),
                floats,
            },
        )?;
    }
    let expand_from: Vec<usize> = plan.expand_recv_from(rank).map(|(src, _)| src).collect();
    for src in expand_from {
        let msg = comm.recv(src, expand_tag)?;
        apply_rows(factor, &msg, src)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The rank driver
// ---------------------------------------------------------------------------

struct RankOutcome {
    decomposition: Option<TuckerDecomposition>,
    counters: CommCounters,
    cluster_words: [f64; 2],
    failure: Option<RankFailure>,
}

struct ExecContext<'a> {
    tensor: &'a SparseTensor,
    setup: &'a DistributedSetup,
    plan: &'a ExecPlan,
    global_sym: &'a SymbolicTtmc,
    config: &'a TuckerConfig,
    ranks: &'a [usize],
    rank_threads: usize,
}

/// One rank's whole life: build local state, initialize factors, run the
/// HOOI iterations under the root's convergence decisions.  Returns the
/// decomposition at the root, `None` elsewhere; the first communication
/// error aborts the body with a [`RankFailure`] naming the protocol phase
/// and iteration it struck in.
fn rank_body<T: Transport>(
    comm: &mut Endpoint<T>,
    ctx: &ExecContext<'_>,
) -> Result<Option<TuckerDecomposition>, RankFailure> {
    let rank = comm.rank();
    let order = ctx.tensor.order();
    let ranks = ctx.ranks;
    let config = ctx.config;
    let mut timings = TimingBreakdown::default();

    let t_build = Instant::now();
    let mut state = RankState::build(rank, ctx.tensor, ctx.setup, ranks);
    let mut global_ws = (rank == ROOT).then(|| HooiWorkspace::new(ctx.global_sym, ranks));
    timings.symbolic = t_build.elapsed();

    // Seeded identically everywhere: every rank builds its own replica.
    let t_init = Instant::now();
    let mut factors = initial_factors(ctx.tensor, ranks, config);
    timings.init = t_init.elapsed();

    let tensor_norm = if rank == ROOT {
        ctx.tensor.frobenius_norm()
    } else {
        0.0
    };

    let mut fits: Vec<f64> = Vec::new();
    let mut singular_values = vec![Vec::new(); order];
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations += 1;
        for mode in 0..order {
            let width = ttmc_result_width(&factors, mode);
            let mp = &ctx.plan.modes[mode];

            let t_ttmc = Instant::now();
            local_ttmc_and_fold(&mut state, comm, mp, &factors, mode, iter as u32)
                .map_err(|e| RankFailure::observed(rank, Phase::Fold, iter as u32, e))?;
            if rank == ROOT {
                let gws = global_ws.as_mut().expect("root workspace");
                assemble_at_root(
                    &state,
                    comm,
                    mp,
                    ctx.global_sym,
                    gws.compact_mut(mode),
                    mode,
                    iter as u32,
                )
                .map_err(|e| RankFailure::observed(rank, Phase::Gather, iter as u32, e))?;
            } else {
                gather_to_root(&state, comm, mp, width, mode, iter as u32)
                    .map_err(|e| RankFailure::observed(rank, Phase::Gather, iter as u32, e))?;
            }
            timings.ttmc += t_ttmc.elapsed();

            let t_trsvd = Instant::now();
            if rank == ROOT {
                let gws = global_ws.as_mut().expect("root workspace");
                let (compact, scratch) = gws.trsvd_buffers(mode);
                let result = trsvd_factor_with(
                    compact,
                    ctx.global_sym.mode(mode),
                    ctx.tensor.dims()[mode],
                    ranks[mode],
                    config.trsvd,
                    config.seed ^ ((mode as u64 + 1) << 8),
                    scratch,
                );
                factors[mode] = result.factor;
                singular_values[mode] = result.singular_values;
            }
            if factors[mode].nrows() != ctx.tensor.dims()[mode] {
                // The placeholder of a mode no initial value was built for:
                // the rows this rank receives land in a full-height matrix.
                factors[mode] = Matrix::zeros(ctx.tensor.dims()[mode], ranks[mode]);
            }
            scatter_and_expand(comm, mp, &mut factors[mode], mode, iter as u32)
                .map_err(|e| RankFailure::observed(rank, Phase::Scatter, iter as u32, e))?;
            timings.trsvd += t_trsvd.elapsed();
        }

        // Core + fit at the root; the continue/stop verdict is broadcast so
        // every rank's control flow stays in lock step.
        let t_core = Instant::now();
        let flag_tag = Tag::new(Phase::Control, 0, iter as u32);
        let keep_going = if rank == ROOT {
            let gws = global_ws.as_mut().expect("root workspace");
            let (compact, core) = gws.core_buffers(order - 1);
            core_from_last_ttmc_into(
                compact,
                ctx.global_sym.mode(order - 1),
                &factors[order - 1],
                ranks,
                core,
            );
            let fit = fit_from_norms(tensor_norm, gws.core().frobenius_norm());
            let improved = match fits.last() {
                Some(&prev) => fit - prev > config.fit_tolerance,
                None => true,
            };
            fits.push(fit);
            let keep_going = improved && iter + 1 < config.max_iterations;
            comm.broadcast(
                ROOT,
                Message {
                    tag: flag_tag,
                    ints: vec![keep_going as u64],
                    floats: Vec::new(),
                },
            )
            .map_err(|e| RankFailure::observed(rank, Phase::Control, iter as u32, e))?;
            keep_going
        } else {
            let verdict = comm
                .broadcast(ROOT, Message::empty(flag_tag))
                .map_err(|e| RankFailure::observed(rank, Phase::Control, iter as u32, e))?;
            verdict.ints.first() == Some(&1)
        };
        timings.core += t_core.elapsed();
        if !keep_going {
            break;
        }
    }

    if rank == ROOT {
        let gws = global_ws.as_ref().expect("root workspace");
        Ok(Some(TuckerDecomposition {
            core: gws.core().clone(),
            factors,
            fits,
            iterations,
            singular_values,
            timings,
        }))
    } else {
        Ok(None)
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn run_rank<T: Transport>(mut comm: Endpoint<T>, ctx: &ExecContext<'_>) -> RankOutcome {
    let rank = comm.rank();
    // The body runs under catch_unwind so that a panic anywhere in the
    // numeric kernels (or the pool construction) degrades into the same
    // typed failure path as a communication error — it never crosses the
    // rank-thread boundary.
    let body = catch_unwind(AssertUnwindSafe(|| {
        match rayon::ThreadPoolBuilder::new()
            .num_threads(ctx.rank_threads)
            .build()
        {
            Ok(pool) => pool.install(|| rank_body(&mut comm, ctx)),
            Err(e) => Err(RankFailure {
                rank,
                origin: rank,
                phase: Phase::Control,
                iteration: 0,
                source: FailureSource::Panic(format!("per-rank compute pool failed: {e}")),
            }),
        }
    }));
    let (decomposition, mut failure) = match body {
        Ok(Ok(d)) => (d, None),
        Ok(Err(f)) => (None, Some(f)),
        Err(payload) => (
            None,
            Some(RankFailure {
                rank,
                origin: rank,
                phase: Phase::Control,
                iteration: 0,
                source: FailureSource::Panic(panic_detail(payload)),
            }),
        ),
    };
    if let Some(f) = &failure {
        // Poison the surviving links so peers blocked in collectives unwind
        // immediately instead of waiting out their deadline.  Only the
        // original observer forwards: a rank that is itself unwinding from
        // a RemoteAbort would re-broadcast stale context to ranks that
        // already know.
        if f.origin == rank {
            comm.send_abort(f.origin, f.phase, f.iteration);
        }
    } else {
        // Digest the measured expand/fold volumes through the endpoint's own
        // allreduce so every rank (and the report) sees the cluster totals
        // the same way the algorithm would.
        let mut cluster_words = [
            comm.counters().phase(Phase::Expand).floats_sent as f64,
            comm.counters().phase(Phase::Fold).floats_sent as f64,
        ];
        let digest = comm
            .barrier(STEP_FINAL_BARRIER)
            .and_then(|()| comm.allreduce_sum(STEP_FINAL_ALLREDUCE, &mut cluster_words));
        match digest {
            Ok(()) => {
                return RankOutcome {
                    decomposition,
                    counters: comm.counters().clone(),
                    cluster_words,
                    failure: None,
                };
            }
            Err(e) => {
                let f = RankFailure::observed(rank, Phase::Control, FINAL_COLLECTIVES_ITERATION, e);
                if f.origin == rank {
                    comm.send_abort(f.origin, f.phase, f.iteration);
                }
                failure = Some(f);
            }
        }
    }
    RankOutcome {
        decomposition: None,
        counters: comm.counters().clone(),
        cluster_words: [0.0; 2],
        failure,
    }
}

fn run_world<T: Transport>(world: Vec<Endpoint<T>>, ctx: &ExecContext<'_>) -> Vec<RankOutcome> {
    std::thread::scope(|s| {
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| s.spawn(move || run_rank(comm, ctx)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|payload| RankOutcome {
                    decomposition: None,
                    counters: CommCounters::default(),
                    cluster_words: [0.0; 2],
                    failure: Some(RankFailure {
                        rank,
                        origin: rank,
                        phase: Phase::Control,
                        iteration: 0,
                        source: FailureSource::Panic(panic_detail(payload)),
                    }),
                })
            })
            .collect()
    })
}

/// Picks the failure the whole run is reported as: the lowest origin rank,
/// preferring that origin's own record over a survivor's echo of it.
fn representative_failure(outcomes: &[RankOutcome]) -> Option<&RankFailure> {
    outcomes
        .iter()
        .filter_map(|o| o.failure.as_ref())
        .min_by_key(|f| (f.origin, f.rank != f.origin, f.rank))
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// The one executor body behind [`execute_hooi`] and [`execute_hooi_chaos`]:
/// validate, build the communication plan and the world, run every rank
/// under `plan`, and fold the rank outcomes into a [`ChaosRun`] plus the
/// root's in-protocol allreduce digest (expand, fold float words).
fn execute(
    tensor: &SparseTensor,
    setup: &DistributedSetup,
    config: &TuckerConfig,
    options: &ExecOptions,
    plan: &FaultPlan,
) -> Result<(ChaosRun, [f64; 2]), TuckerError> {
    hooi::error::validate_tensor(tensor)?;
    let ranks = config.validated_ranks(tensor.dims())?;
    assert_eq!(
        setup.dims,
        tensor.dims(),
        "setup was built for a different tensor"
    );
    let p = setup.config.num_ranks;
    let t0 = Instant::now();
    // The root reads only each mode's row set and its positions: no CSF.
    let global_sym = SymbolicTtmc::build_without_layout(tensor);
    let exec_plan = ExecPlan::build(tensor, setup, &global_sym);
    let ctx = ExecContext {
        tensor,
        setup,
        plan: &exec_plan,
        global_sym: &global_sym,
        config,
        ranks: &ranks,
        rank_threads: options.rank_threads,
    };
    let probe = FaultProbe::new();
    let world: Vec<_> = plan
        .wrap(channel_transports(p), &probe)
        .into_iter()
        .map(|t| Endpoint::with_recv_timeout(t, options.recv_timeout))
        .collect();
    let outcomes = run_world(world, &ctx);
    let wall = t0.elapsed();

    let representative = representative_failure(&outcomes).map(RankFailure::to_tucker_error);
    let rank_errors: Vec<Option<TuckerError>> = outcomes
        .iter()
        .map(|o| o.failure.as_ref().map(RankFailure::to_tucker_error))
        .collect();
    let mut decomposition = None;
    let mut cluster_words = [0.0; 2];
    let mut comm = Vec::with_capacity(p);
    for (r, o) in outcomes.into_iter().enumerate() {
        if r == ROOT {
            decomposition = o.decomposition;
            cluster_words = o.cluster_words;
        }
        comm.push(o.counters);
    }
    let outcome = match representative {
        Some(e) => Err(e),
        None => Ok(decomposition.expect("root returns the decomposition")),
    };
    let run = ChaosRun {
        outcome,
        rank_errors,
        comm,
        faults_fired: probe.fired(),
        wall,
    };
    Ok((run, cluster_words))
}

/// Runs the distributed HOOI executor and returns the decomposition
/// together with the per-rank measured communication.
///
/// Validation mirrors the shared-memory solver ([`TuckerError::EmptyTensor`],
/// [`TuckerError::NonFiniteValue`], [`TuckerError::OrderMismatch`],
/// [`TuckerError::ZeroRank`]).  A rank failure mid-run (dead peer,
/// timeout, corrupt payload, panic in a rank body) surfaces as
/// [`TuckerError::RankFailed`] within the configured
/// [`ExecOptions::recv_timeout`] — the executor never hangs and never lets
/// a rank's panic cross the thread boundary.
///
/// # Panics
/// Panics if `setup` was built for a tensor with different mode sizes.
pub fn execute_hooi(
    tensor: &SparseTensor,
    setup: &DistributedSetup,
    config: &TuckerConfig,
    options: &ExecOptions,
) -> Result<DistributedRun, TuckerError> {
    let (run, cluster_words) = execute(tensor, setup, config, options, &FaultPlan::empty())?;
    Ok(DistributedRun {
        decomposition: run.outcome?,
        comm: run.comm,
        cluster_expand_floats: cluster_words[0],
        cluster_fold_floats: cluster_words[1],
        wall: run.wall,
    })
}

/// Runs the executor under a seeded [`FaultPlan`], reporting every rank's
/// individual verdict alongside the run's overall outcome.  The chaos
/// contract this enforces (and `tests/faults.rs` plus the `chaos` bench
/// bin gate): a faulted run resolves to typed [`TuckerError::RankFailed`]
/// on every surviving rank within the configured deadline — no hangs, no
/// cross-thread panics — and a run whose plan never fires is bit-identical
/// to [`execute_hooi`] with identical counters.
pub fn execute_hooi_chaos(
    tensor: &SparseTensor,
    setup: &DistributedSetup,
    config: &TuckerConfig,
    options: &ExecOptions,
    plan: &FaultPlan,
) -> Result<ChaosRun, TuckerError> {
    execute(tensor, setup, config, options, plan).map(|(run, _)| run)
}

/// Runs the distributed HOOI executor with the default [`ExecOptions`] and
/// returns just the decomposition — same signature and structured-error
/// contract as the shared-memory solver.
pub fn distributed_hooi(
    tensor: &SparseTensor,
    setup: &DistributedSetup,
    config: &TuckerConfig,
) -> Result<TuckerDecomposition, TuckerError> {
    Ok(execute_hooi(tensor, setup, config, &ExecOptions::default())?.decomposition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::PhaseCounters;
    use crate::setup::{PartitionMethod, SimConfig};
    use crate::stats::iteration_stats;
    use datagen::random_tensor;
    use hooi::hosvd::random_factors;
    use hooi::{PlanOptions, TtmcStrategy, TuckerSolver};

    fn tensor() -> SparseTensor {
        random_tensor(&[25, 20, 15], 900, 13)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn assert_identical(a: &TuckerDecomposition, b: &TuckerDecomposition, label: &str) {
        assert_eq!(a.fits, b.fits, "{label}: fits diverged");
        assert_eq!(a.iterations, b.iterations, "{label}: iteration counts");
        for (m, (ua, ub)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
            assert_eq!(bits(ua), bits(ub), "{label}: factor {m} not bit-identical");
        }
        assert_eq!(
            a.core
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            b.core
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "{label}: core not bit-identical"
        );
    }

    #[test]
    fn single_rank_needs_no_messages_and_still_matches() {
        let t = tensor();
        let tucker = TuckerConfig::new(vec![2, 2, 2]).max_iterations(2).seed(4);
        let mut solver = TuckerSolver::plan(
            &t,
            PlanOptions::new()
                .num_threads(1)
                .ttmc_strategy(TtmcStrategy::PerMode),
        )
        .unwrap();
        let shared = solver.solve(&tucker).unwrap();
        let config = SimConfig::new(1, Grain::Fine, PartitionMethod::Random, vec![2, 2, 2]);
        let setup = DistributedSetup::build(&t, &config);
        let run = execute_hooi(&t, &setup, &tucker, &ExecOptions::default()).unwrap();
        assert_identical(&run.decomposition, &shared, "single rank");
        for phase in [Phase::Fold, Phase::Gather, Phase::Scatter, Phase::Expand] {
            assert_eq!(
                run.comm[0].phase(phase).messages_sent,
                0,
                "{}",
                phase.label()
            );
        }
    }

    #[test]
    fn measured_traffic_matches_stats_predictions() {
        let t = tensor();
        let tucker = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2).seed(7);
        for (grain, method, p) in [
            (Grain::Fine, PartitionMethod::Hypergraph, 4),
            (Grain::Fine, PartitionMethod::Random, 3),
            (Grain::Coarse, PartitionMethod::Block, 4),
        ] {
            let config = SimConfig::new(p, grain, method, vec![3, 3, 3]);
            let setup = DistributedSetup::build(&t, &config);
            let run = execute_hooi(&t, &setup, &tucker, &ExecOptions::default()).unwrap();
            let stats = iteration_stats(&t, &setup, 20);
            let iters = run.decomposition.iterations as u64;
            let expand = stats.expand_words_per_rank();
            let fold = stats.fold_words_per_rank();
            for r in 0..p {
                assert_eq!(
                    run.comm[r].phase(Phase::Expand).floats_transferred(),
                    iters * expand[r],
                    "{grain:?}/{method:?} rank {r}: expand words"
                );
                assert_eq!(
                    run.comm[r].phase(Phase::Fold).floats_transferred(),
                    iters * fold[r],
                    "{grain:?}/{method:?} rank {r}: fold words"
                );
            }
            // Gather, scatter and control follow from the setup alone.  Per
            // mode and iteration every non-root rank ships its owned
            // nonempty rows to the root (`Π_{t≠n} R_t` floats and one int
            // per row), and the root sends `R_n` floats and one int per row
            // back to every non-root rank owning at least one row.  Control
            // is one 1-int verdict broadcast per iteration, then the final
            // barrier and the 2-float allreduce.
            let ranks = [3u64; 3];
            let mut gather = vec![PhaseCounters::default(); p];
            let mut scatter = vec![PhaseCounters::default(); p];
            for mode in 0..t.order() {
                let mut nonempty = vec![false; t.dims()[mode]];
                for k in 0..t.nnz() {
                    nonempty[t.index(k)[mode]] = true;
                }
                let mut owned = vec![0u64; p];
                for i in (0..nonempty.len()).filter(|&i| nonempty[i]) {
                    owned[setup.row_owner[mode][i] as usize] += 1;
                }
                let width: u64 = (0..ranks.len())
                    .filter(|&m| m != mode)
                    .map(|m| ranks[m])
                    .product();
                for r in 1..p {
                    let rows = iters * owned[r];
                    gather[r].messages_sent += iters;
                    gather[r].floats_sent += rows * width;
                    gather[r].ints_sent += rows;
                    gather[ROOT].messages_received += iters;
                    gather[ROOT].floats_received += rows * width;
                    gather[ROOT].ints_received += rows;
                    if owned[r] > 0 {
                        scatter[ROOT].messages_sent += iters;
                        scatter[ROOT].floats_sent += rows * ranks[mode];
                        scatter[ROOT].ints_sent += rows;
                        scatter[r].messages_received += iters;
                        scatter[r].floats_received += rows * ranks[mode];
                        scatter[r].ints_received += rows;
                    }
                }
            }
            let others = p as u64 - 1;
            let mut control = vec![
                PhaseCounters {
                    messages_sent: 2,
                    messages_received: iters + 2,
                    floats_sent: 2,
                    floats_received: 2,
                    ints_sent: 0,
                    ints_received: iters,
                };
                p
            ];
            control[ROOT] = PhaseCounters {
                messages_sent: others * (iters + 2),
                messages_received: 2 * others,
                floats_sent: 2 * others,
                floats_received: 2 * others,
                ints_sent: others * iters,
                ints_received: 0,
            };
            for r in 0..p {
                let label = format!("{grain:?}/{method:?} rank {r}");
                assert_eq!(
                    run.comm[r].phase(Phase::Gather),
                    &gather[r],
                    "{label}: gather"
                );
                assert_eq!(
                    run.comm[r].phase(Phase::Scatter),
                    &scatter[r],
                    "{label}: scatter"
                );
                assert_eq!(
                    run.comm[r].phase(Phase::Control),
                    &control[r],
                    "{label}: control"
                );
            }
            // The in-protocol allreduce agrees with the joined counters.
            let sent_expand: u64 = run
                .comm
                .iter()
                .map(|c| c.phase(Phase::Expand).floats_sent)
                .sum();
            let sent_fold: u64 = run
                .comm
                .iter()
                .map(|c| c.phase(Phase::Fold).floats_sent)
                .sum();
            assert_eq!(run.cluster_expand_floats, sent_expand as f64);
            assert_eq!(run.cluster_fold_floats, sent_fold as f64);
        }
    }

    #[test]
    fn distributed_hooi_rejects_invalid_configs_as_values() {
        let t = tensor();
        let sim = SimConfig::new(4, Grain::Fine, PartitionMethod::Random, vec![3, 3, 3]);
        let setup = DistributedSetup::build(&t, &sim);
        assert_eq!(
            distributed_hooi(&t, &setup, &TuckerConfig::new(vec![2, 0, 2])).unwrap_err(),
            TuckerError::ZeroRank { mode: 1 }
        );
        assert_eq!(
            distributed_hooi(&t, &setup, &TuckerConfig::new(vec![2, 2])).unwrap_err(),
            TuckerError::OrderMismatch {
                config_modes: 2,
                tensor_modes: 3,
            }
        );
        let empty = SparseTensor::new(vec![25, 20, 15]);
        assert_eq!(
            execute_hooi(
                &empty,
                &setup,
                &TuckerConfig::new(vec![2, 2, 2]),
                &ExecOptions::default()
            )
            .unwrap_err(),
            TuckerError::EmptyTensor
        );
        let mut poisoned = t.clone();
        *poisoned.value_mut(7) = f64::NAN;
        assert_eq!(
            distributed_hooi(&poisoned, &setup, &TuckerConfig::new(vec![2, 2, 2])).unwrap_err(),
            TuckerError::NonFiniteValue { nonzero: 7 }
        );
    }

    #[test]
    fn injected_disconnect_yields_rank_failed_everywhere() {
        use crate::fault::{FaultAction, FaultOp, FaultTrigger};
        let t = tensor();
        let tucker = TuckerConfig::new(vec![2, 2, 2]).max_iterations(3).seed(5);
        let config = SimConfig::new(3, Grain::Fine, PartitionMethod::Random, vec![2, 2, 2]);
        let setup = DistributedSetup::build(&t, &config);
        let plan = FaultPlan::one(FaultTrigger {
            rank: 1,
            peer: 0,
            op: FaultOp::Send,
            nth: 0,
            action: FaultAction::Disconnect,
        });
        let opts = ExecOptions::new().recv_timeout(Duration::from_millis(500));
        let run = execute_hooi_chaos(&t, &setup, &tucker, &opts, &plan).unwrap();
        assert!(run.faults_fired >= 1, "the trigger must fire");
        assert!(
            matches!(run.outcome, Err(TuckerError::RankFailed { .. })),
            "outcome: {:?}",
            run.outcome
        );
        for (r, e) in run.rank_errors.iter().enumerate() {
            assert!(
                matches!(e, Some(TuckerError::RankFailed { .. })),
                "rank {r} must report a typed failure, got {e:?}"
            );
        }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_with_equal_counters() {
        let t = tensor();
        let tucker = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2).seed(6);
        let config = SimConfig::new(3, Grain::Coarse, PartitionMethod::Block, vec![3, 3, 3]);
        let setup = DistributedSetup::build(&t, &config);
        let clean = execute_hooi(&t, &setup, &tucker, &ExecOptions::default()).unwrap();
        let chaos = execute_hooi_chaos(
            &t,
            &setup,
            &tucker,
            &ExecOptions::default(),
            &FaultPlan::empty(),
        )
        .unwrap();
        assert_eq!(chaos.faults_fired, 0);
        let dec = chaos.outcome.expect("empty plan completes cleanly");
        assert_identical(&dec, &clean.decomposition, "empty fault plan");
        assert_eq!(chaos.comm, clean.comm, "counters must be untouched");
    }

    #[test]
    fn zero_iteration_run_returns_every_initial_factor() {
        let t = tensor();
        let ranks = [3, 2, 3];
        let config = SimConfig::new(3, Grain::Fine, PartitionMethod::Random, ranks.to_vec());
        let setup = DistributedSetup::build(&t, &config);
        let expected = random_factors(t.dims(), &ranks, 4);
        let tucker = TuckerConfig::new(ranks.to_vec()).max_iterations(0).seed(4);
        let dist = distributed_hooi(&t, &setup, &tucker).unwrap();
        assert_eq!(dist.iterations, 0);
        assert!(dist.fits.is_empty());
        for (m, (u, e)) in dist.factors.iter().zip(expected.iter()).enumerate() {
            assert_eq!(u.shape(), (t.dims()[m], ranks[m]), "mode {m}");
            assert_eq!(bits(u), bits(e), "mode {m}");
        }
    }
}
