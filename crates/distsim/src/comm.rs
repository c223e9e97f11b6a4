//! The message-passing layer of the distributed executor.
//!
//! [`Endpoint`] is the MPI-shaped interface the executor in [`crate::exec`]
//! is written against: every rank knows its id, exchanges typed messages
//! point-to-point ([`Endpoint::send`] / [`Endpoint::recv`]), and the
//! collectives the algorithm needs ([`Endpoint::allreduce_sum`],
//! [`Endpoint::barrier`], [`Endpoint::broadcast`]) are built on those
//! point-to-point primitives with a fixed, rank-ordered reduction.
//!
//! The ranks of a world are long-lived threads in this process and messages
//! travel over `std::sync::mpsc` channels ([`channel_world`]).  An endpoint
//! reaches its peers only through a [`Transport`], so the fault injector
//! wraps the channel transport without the executor knowing.
//!
//! # Failure model
//!
//! Every communication primitive returns `Result<_, CommError>` instead of
//! panicking or blocking forever:
//!
//! * a closed channel surfaces [`CommError::PeerDisconnected`];
//! * every `recv` is bounded by the endpoint's receive timeout and
//!   surfaces [`CommError::Timeout`] when it expires — the universal
//!   backstop that guarantees no rank hangs, whatever was lost;
//! * a payload that fails the receiver's shape checks, or an injected
//!   corruption, surfaces [`CommError::Corrupt`];
//! * an unexpected tag is [`CommError::TagMismatch`] — the executor's
//!   protocol is deterministic, so this only happens when a message was
//!   dropped or reordered by a fault;
//! * a poison [`Phase::Control`] abort message from a failing peer is
//!   intercepted inside [`Endpoint::recv`] and surfaces as
//!   [`CommError::RemoteAbort`] carrying the origin rank's failure
//!   context, so aborts propagate through ranks blocked in collectives.
//!
//! Every [`Endpoint`] counts the words and messages it moves, classified by
//! protocol [`Phase`] (expand, fold, gather, scatter, control).  The
//! measured counters are what [`crate::exec::execute_hooi`] reports and
//! what the tests cross-validate against the analytic predictions of
//! [`crate::stats::iteration_stats`] — turning the cost model into a tested
//! artifact.
//!
//! Message delivery between one (sender, receiver) pair is ordered (FIFO
//! channels), and the executor's protocol is deterministic, so `recv` can
//! check the tag it expects: a mismatch is a typed error, not a panic.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// How long a `recv` may block before it fails with [`CommError::Timeout`]
/// unless the endpoint is given another bound: generous enough for slow CI
/// machines while still guaranteeing that no rank blocks forever.
pub(crate) const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Which part of the executor's protocol a message belongs to.  Counters
/// are kept per phase so measured traffic can be compared against the cost
/// model phase by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Partial TTMc contributions sent from the ranks holding nonzeros of a
    /// row to the row's owner (Algorithm 4's fold).
    Fold,
    /// Owned, fully reduced TTMc rows sent to the root for the TRSVD step
    /// (an artifact of centralizing the TRSVD; see the `exec` docs).
    Gather,
    /// Updated factor rows sent from the root back to their owners after
    /// the TRSVD step.
    Scatter,
    /// Factor rows sent from their owner to every rank that needs them for
    /// its local TTMc (Algorithm 4's expand, line 14).
    Expand,
    /// Everything else: convergence flags, collectives, initialization,
    /// abort notifications.
    Control,
}

impl Phase {
    /// All phases, in counter-array order.
    pub const ALL: [Phase; 5] = [
        Phase::Fold,
        Phase::Gather,
        Phase::Scatter,
        Phase::Expand,
        Phase::Control,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Fold => 0,
            Phase::Gather => 1,
            Phase::Scatter => 2,
            Phase::Expand => 3,
            Phase::Control => 4,
        }
    }

    fn from_index(i: u64) -> Phase {
        Phase::ALL[i as usize % Phase::ALL.len()]
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Fold => "fold",
            Phase::Gather => "gather",
            Phase::Scatter => "scatter",
            Phase::Expand => "expand",
            Phase::Control => "control",
        }
    }
}

/// A message tag: protocol phase, tensor mode, and a step counter (the HOOI
/// iteration, or a collective's sequence number).  Tags make the protocol
/// self-checking — `recv` verifies the tag it expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// Protocol phase of the message.
    pub phase: Phase,
    /// Tensor mode the message concerns (0 for phase-global messages).
    pub mode: u16,
    /// Iteration / sequence number.
    pub step: u32,
}

impl Tag {
    /// Builds a tag.
    pub fn new(phase: Phase, mode: usize, step: u32) -> Tag {
        Tag {
            phase,
            mode: mode as u16,
            step,
        }
    }
}

/// Step number reserved for poison abort messages on the
/// [`Phase::Control`] plane; no regular protocol step ever uses it.
pub(crate) const ABORT_STEP: u32 = 0xffff_ffff;

/// Builds the poison abort message a failing rank sends on its surviving
/// links: `ints = [origin, phase index, iteration]`.
fn abort_message(origin: usize, phase: Phase, iteration: u32) -> Message {
    Message {
        tag: Tag::new(Phase::Control, 0, ABORT_STEP),
        ints: vec![origin as u64, phase.index() as u64, iteration as u64],
        floats: Vec::new(),
    }
}

/// Decodes a poison abort message; `None` for regular traffic.
pub(crate) fn parse_abort(msg: &Message) -> Option<(usize, Phase, u32)> {
    if msg.tag.phase == Phase::Control && msg.tag.step == ABORT_STEP && msg.ints.len() == 3 {
        Some((
            msg.ints[0] as usize,
            Phase::from_index(msg.ints[1]),
            msg.ints[2] as u32,
        ))
    } else {
        None
    }
}

/// A typed communication failure observed by one rank.  Every variant
/// names the observing rank and the peer involved, so the executor can
/// report exactly which link failed and during which protocol phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer's channel closed (the peer terminated or the link was
    /// cut).
    PeerDisconnected {
        /// Observing rank.
        rank: usize,
        /// The peer whose link died.
        peer: usize,
    },
    /// No message arrived from the peer within the endpoint's deadline.
    Timeout {
        /// Observing rank.
        rank: usize,
        /// The peer that never delivered.
        peer: usize,
        /// How long the receiver waited before giving up.
        waited: Duration,
    },
    /// A message arrived with a tag other than the one the deterministic
    /// protocol expects (a message was dropped or reordered upstream).
    TagMismatch {
        /// Observing rank.
        rank: usize,
        /// The peer that sent the unexpected message.
        peer: usize,
        /// The tag the protocol expected.
        expected: Tag,
        /// The tag that actually arrived.
        got: Tag,
    },
    /// A message's payload failed the receiver's checks (a gather, scatter
    /// or allreduce payload of the wrong length, an unknown row) or an
    /// injected corruption destroyed it.
    Corrupt {
        /// Observing rank.
        rank: usize,
        /// The peer whose message was corrupt.
        peer: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// A poison abort from a failing peer: rank `origin` failed in `phase`
    /// at `iteration` and is telling surviving ranks to unwind.
    RemoteAbort {
        /// The rank that originally failed.
        origin: usize,
        /// The protocol phase the origin was in when it failed.
        phase: Phase,
        /// The HOOI iteration the origin was in when it failed.
        iteration: u32,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerDisconnected { rank, peer } => {
                write!(f, "rank {rank}: peer rank {peer} disconnected")
            }
            CommError::Timeout { rank, peer, waited } => write!(
                f,
                "rank {rank}: no message from rank {peer} within {waited:?}"
            ),
            CommError::TagMismatch {
                rank,
                peer,
                expected,
                got,
            } => write!(
                f,
                "rank {rank}: unexpected tag from rank {peer} (expected {expected:?}, got {got:?})"
            ),
            CommError::Corrupt { rank, peer, detail } => {
                write!(f, "rank {rank}: corrupt message from rank {peer}: {detail}")
            }
            CommError::RemoteAbort {
                origin,
                phase,
                iteration,
            } => write!(
                f,
                "abort from rank {origin} (failed in {} at iteration {iteration})",
                phase.label()
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// A typed message: a tag plus an integer section (row indices, counts,
/// nonzero ids) and a float section (factor rows, TTMc contributions).
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// The tag the receiver will be checked against.
    pub tag: Tag,
    /// Integer payload.
    pub ints: Vec<u64>,
    /// Floating-point payload.
    pub floats: Vec<f64>,
}

impl Message {
    /// An empty message carrying only its tag.
    pub fn empty(tag: Tag) -> Message {
        Message {
            tag,
            ints: Vec::new(),
            floats: Vec::new(),
        }
    }
}

/// Traffic counters for one protocol phase, from one rank's point of view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// `f64` words sent.
    pub floats_sent: u64,
    /// `f64` words received.
    pub floats_received: u64,
    /// `u64` words sent.
    pub ints_sent: u64,
    /// `u64` words received.
    pub ints_received: u64,
}

impl PhaseCounters {
    /// Float words moved in either direction.
    pub fn floats_transferred(&self) -> u64 {
        self.floats_sent + self.floats_received
    }

    /// Total payload bytes moved in either direction (8 bytes per word).
    fn bytes_transferred(&self) -> u64 {
        8 * (self.floats_sent + self.floats_received + self.ints_sent + self.ints_received)
    }
}

/// Measured communication of one rank, classified by [`Phase`].  This is
/// the executor's observational counterpart to the analytic per-rank
/// volumes of [`crate::stats::iteration_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommCounters {
    phases: [PhaseCounters; Phase::ALL.len()],
}

impl CommCounters {
    /// The counters of one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseCounters {
        &self.phases[phase.index()]
    }

    /// Total payload bytes moved across all phases.
    pub fn bytes_total(&self) -> u64 {
        self.phases.iter().map(|p| p.bytes_transferred()).sum()
    }

    /// Element-wise sum of per-rank counters (cluster totals; every
    /// send is matched by a receive, so totals count each word twice).
    pub fn merged(all: &[CommCounters]) -> CommCounters {
        let mut out = CommCounters::default();
        for c in all {
            for (o, p) in out.phases.iter_mut().zip(c.phases.iter()) {
                o.messages_sent += p.messages_sent;
                o.messages_received += p.messages_received;
                o.floats_sent += p.floats_sent;
                o.floats_received += p.floats_received;
                o.ints_sent += p.ints_sent;
                o.ints_received += p.ints_received;
            }
        }
        out
    }

    fn record_send(&mut self, msg: &Message) {
        let p = &mut self.phases[msg.tag.phase.index()];
        p.messages_sent += 1;
        p.floats_sent += msg.floats.len() as u64;
        p.ints_sent += msg.ints.len() as u64;
    }

    fn record_recv(&mut self, msg: &Message) {
        let p = &mut self.phases[msg.tag.phase.index()];
        p.messages_received += 1;
        p.floats_received += msg.floats.len() as u64;
        p.ints_received += msg.ints.len() as u64;
    }
}

/// The raw point-to-point transport under an [`Endpoint`]: channels between
/// the rank threads, possibly wrapped by the fault injector.  [`Endpoint`]
/// adds counting, the receive deadline, and the collective algorithms.
pub trait Transport: Send {
    /// This endpoint's rank id.
    fn rank(&self) -> usize;
    /// Number of ranks in the world.
    fn num_ranks(&self) -> usize;
    /// Delivers a message to `to` (must not be this rank).  Never blocks on
    /// the receiver's progress.
    fn send_raw(&mut self, to: usize, msg: &Message) -> Result<(), CommError>;
    /// Blocks until the next message from `from` arrives, or `timeout`
    /// expires, or the link is observed dead.
    fn recv_raw(&mut self, from: usize, timeout: Duration) -> Result<Message, CommError>;
}

/// One rank's counted communicator over some [`Transport`]: rank identity,
/// counted point-to-point messaging, and the collectives built on it — the
/// type the executor's rank loops hold.
///
/// The collectives' reduction order is fixed (ascending rank at the root),
/// so a collective's floating-point result is bit-identical at every
/// timing.
///
/// Every receiving operation can fail with a [`CommError`]; the executor
/// maps the first failure it observes into a poison abort on its surviving
/// links ([`Endpoint::send_abort`]) so the whole world unwinds.
pub struct Endpoint<T: Transport> {
    transport: T,
    counters: CommCounters,
    recv_timeout: Duration,
}

impl<T: Transport> Endpoint<T> {
    /// Wraps a transport with zeroed counters and the default 10 s receive
    /// timeout.
    pub fn new(transport: T) -> Self {
        Endpoint::with_recv_timeout(transport, DEFAULT_RECV_TIMEOUT)
    }

    /// Wraps a transport with zeroed counters and an explicit bound on any
    /// single `recv` before it fails with [`CommError::Timeout`].
    pub fn with_recv_timeout(transport: T, recv_timeout: Duration) -> Self {
        Endpoint {
            transport,
            counters: CommCounters::default(),
            recv_timeout,
        }
    }

    /// This rank's id (0-based; rank 0 is the executor's root).
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks in the world.
    pub fn num_ranks(&self) -> usize {
        self.transport.num_ranks()
    }

    /// Sends a message to rank `to`, counting its words.
    pub fn send(&mut self, to: usize, msg: &Message) -> Result<(), CommError> {
        assert_ne!(to, self.rank(), "self-sends are a protocol bug");
        self.transport.send_raw(to, msg)?;
        self.counters.record_send(msg);
        Ok(())
    }

    /// Receives the next message from rank `from`, checking it carries
    /// `expected` — the executor's protocol is deterministic, so any other
    /// tag is [`CommError::TagMismatch`].  A poison abort message is
    /// intercepted here and surfaces as [`CommError::RemoteAbort`].
    pub fn recv(&mut self, from: usize, expected: Tag) -> Result<Message, CommError> {
        let msg = self.transport.recv_raw(from, self.recv_timeout)?;
        self.counters.record_recv(&msg);
        if expected.step != ABORT_STEP {
            if let Some((origin, phase, iteration)) = parse_abort(&msg) {
                return Err(CommError::RemoteAbort {
                    origin,
                    phase,
                    iteration,
                });
            }
        }
        if msg.tag != expected {
            return Err(CommError::TagMismatch {
                rank: self.rank(),
                peer: from,
                expected,
                got: msg.tag,
            });
        }
        Ok(msg)
    }

    /// The traffic this rank has moved so far.
    pub fn counters(&self) -> &CommCounters {
        &self.counters
    }

    /// Synchronizes all ranks: nobody returns until everyone has entered.
    /// Implemented as a gather-to-root plus release fan-out.
    pub fn barrier(&mut self, step: u32) -> Result<(), CommError> {
        let tag = Tag::new(Phase::Control, 0, step);
        let me = self.rank();
        let p = self.num_ranks();
        if me == 0 {
            for src in 1..p {
                self.recv(src, tag)?;
            }
            for dst in 1..p {
                self.send(dst, &Message::empty(tag))?;
            }
        } else {
            self.send(0, &Message::empty(tag))?;
            self.recv(0, tag)?;
        }
        Ok(())
    }

    /// Element-wise global sum of `buf` across all ranks; every rank ends
    /// with the same result.  The root accumulates contributions in
    /// ascending rank order, so the floating-point result is deterministic.
    pub fn allreduce_sum(&mut self, step: u32, buf: &mut [f64]) -> Result<(), CommError> {
        let tag = Tag::new(Phase::Control, 0, step);
        let me = self.rank();
        let p = self.num_ranks();
        if me == 0 {
            for src in 1..p {
                let part = self.recv(src, tag)?;
                if part.floats.len() != buf.len() {
                    return Err(CommError::Corrupt {
                        rank: me,
                        peer: src,
                        detail: format!(
                            "allreduce length mismatch: expected {}, got {}",
                            buf.len(),
                            part.floats.len()
                        ),
                    });
                }
                for (b, &x) in buf.iter_mut().zip(part.floats.iter()) {
                    *b += x;
                }
            }
            for dst in 1..p {
                self.send(
                    dst,
                    &Message {
                        tag,
                        ints: Vec::new(),
                        floats: buf.to_vec(),
                    },
                )?;
            }
        } else {
            self.send(
                0,
                &Message {
                    tag,
                    ints: Vec::new(),
                    floats: buf.to_vec(),
                },
            )?;
            let result = self.recv(0, tag)?;
            if result.floats.len() != buf.len() {
                return Err(CommError::Corrupt {
                    rank: me,
                    peer: 0,
                    detail: format!(
                        "allreduce length mismatch: expected {}, got {}",
                        buf.len(),
                        result.floats.len()
                    ),
                });
            }
            buf.copy_from_slice(&result.floats);
        }
        Ok(())
    }

    /// Broadcasts `msg` from `root` to every rank; returns the payload
    /// everywhere (non-root callers pass anything — it is replaced).
    pub fn broadcast(&mut self, root: usize, msg: Message) -> Result<Message, CommError> {
        let me = self.rank();
        let p = self.num_ranks();
        if me == root {
            for dst in 0..p {
                if dst != root {
                    self.send(dst, &msg)?;
                }
            }
            Ok(msg)
        } else {
            self.recv(root, msg.tag)
        }
    }

    /// Best-effort poison fan-out: tells every peer that rank `origin`
    /// failed in `phase` at `iteration`.  Dead links are skipped silently —
    /// the per-recv deadline covers peers this message cannot reach.
    pub fn send_abort(&mut self, origin: usize, phase: Phase, iteration: u32) {
        let msg = abort_message(origin, phase, iteration);
        let me = self.rank();
        for peer in 0..self.num_ranks() {
            if peer != me {
                let _ = self.send(peer, &msg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Channel transport
// ---------------------------------------------------------------------------

/// In-process transport: one FIFO channel per ordered rank pair.
pub struct ChannelTransport {
    rank: usize,
    num_ranks: usize,
    senders: Vec<Option<Sender<Message>>>,
    receivers: Vec<Option<Receiver<Message>>>,
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn send_raw(&mut self, to: usize, msg: &Message) -> Result<(), CommError> {
        self.senders[to]
            .as_ref()
            .expect("no channel to self")
            .send(msg.clone())
            .map_err(|_| CommError::PeerDisconnected {
                rank: self.rank,
                peer: to,
            })
    }

    fn recv_raw(&mut self, from: usize, timeout: Duration) -> Result<Message, CommError> {
        self.receivers[from]
            .as_ref()
            .expect("no channel from self")
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => CommError::Timeout {
                    rank: self.rank,
                    peer: from,
                    waited: timeout,
                },
                RecvTimeoutError::Disconnected => CommError::PeerDisconnected {
                    rank: self.rank,
                    peer: from,
                },
            })
    }
}

/// Builds the raw channel transports of an in-process world, so callers can
/// wrap them (fault injection) before attaching counters via
/// [`Endpoint::new`].
pub fn channel_transports(num_ranks: usize) -> Vec<ChannelTransport> {
    assert!(num_ranks > 0);
    // mailboxes[dst][src] = receiver of the src -> dst channel.
    let mut senders: Vec<Vec<Option<Sender<Message>>>> = (0..num_ranks)
        .map(|_| (0..num_ranks).map(|_| None).collect())
        .collect();
    let mut mailboxes: Vec<Vec<Option<Receiver<Message>>>> = (0..num_ranks)
        .map(|_| (0..num_ranks).map(|_| None).collect())
        .collect();
    for src in 0..num_ranks {
        for dst in 0..num_ranks {
            if src == dst {
                continue;
            }
            let (tx, rx) = channel();
            senders[src][dst] = Some(tx);
            mailboxes[dst][src] = Some(rx);
        }
    }
    senders
        .drain(..)
        .zip(mailboxes.drain(..))
        .enumerate()
        .map(|(rank, (senders, receivers))| ChannelTransport {
            rank,
            num_ranks,
            senders,
            receivers,
        })
        .collect()
}

/// Builds the in-process channel world: one counted endpoint per rank, all
/// pairs connected by FIFO channels.  Endpoints are handed to the rank
/// threads; dropping one mid-protocol surfaces
/// [`CommError::PeerDisconnected`] at blocked peers instead of hanging.
pub fn channel_world(num_ranks: usize) -> Vec<Endpoint<ChannelTransport>> {
    channel_transports(num_ranks)
        .into_iter()
        .map(Endpoint::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(step: u32) -> Tag {
        Tag::new(Phase::Control, 0, step)
    }

    /// Runs `body(rank_endpoint)` on every rank concurrently; returns the
    /// per-rank results in rank order.
    fn run_world<R, F>(world: Vec<Endpoint<ChannelTransport>>, body: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Endpoint<ChannelTransport>) -> R + Sync,
    {
        let body = &body;
        std::thread::scope(|s| {
            let handles: Vec<_> = world
                .into_iter()
                .map(|comm| s.spawn(move || body(comm)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn ring_exchange(mut comm: Endpoint<ChannelTransport>) -> (Vec<f64>, CommCounters) {
        let me = comm.rank();
        let p = comm.num_ranks();
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let msg = Message {
            tag: tag(1),
            ints: vec![me as u64],
            floats: vec![me as f64, -(me as f64)],
        };
        comm.send(next, &msg).unwrap();
        let got = comm.recv(prev, tag(1)).unwrap();
        assert_eq!(got.ints, vec![prev as u64]);
        let mut sums = vec![me as f64 + 1.0];
        comm.allreduce_sum(2, &mut sums).unwrap();
        comm.barrier(3).unwrap();
        (sums, comm.counters().clone())
    }

    #[test]
    fn channel_ring_allreduce_and_counters() {
        let p = 4;
        let results = run_world(channel_world(p), ring_exchange);
        let expected: f64 = (1..=p).map(|r| r as f64).sum();
        for (sums, _) in &results {
            assert_eq!(sums, &vec![expected]);
        }
        let counters: Vec<CommCounters> = results.iter().map(|(_, c)| c.clone()).collect();
        let merged = CommCounters::merged(&counters);
        // Every send has a matching receive, phase by phase.
        for phase in Phase::ALL {
            let ph = merged.phase(phase);
            assert_eq!(ph.messages_sent, ph.messages_received, "{}", phase.label());
            assert_eq!(ph.floats_sent, ph.floats_received, "{}", phase.label());
            assert_eq!(ph.ints_sent, ph.ints_received, "{}", phase.label());
        }
        // The ring itself moved p messages of 2 floats + 1 int... under
        // Control, mixed with the collectives; just check a nonzero total.
        assert!(merged.bytes_total() > 0);
    }

    #[test]
    fn broadcast_reaches_every_rank() {
        let results = run_world(channel_world(3), |mut comm| {
            let msg = if comm.rank() == 1 {
                Message {
                    tag: tag(9),
                    ints: vec![11, 22],
                    floats: vec![3.5],
                }
            } else {
                Message::empty(tag(9))
            };
            comm.broadcast(1, msg).unwrap()
        });
        for r in &results {
            assert_eq!(r.ints, vec![11, 22]);
            assert_eq!(r.floats, vec![3.5]);
        }
    }

    #[test]
    fn allreduce_is_rank_order_deterministic() {
        // The reduction at the root runs in ascending rank order, so the
        // result equals the sequential left-to-right sum regardless of
        // which rank's thread runs first.
        let p = 5;
        let contributions: Vec<f64> = (0..p).map(|r| 0.1 * (r as f64 + 1.0)).collect();
        let expected = contributions.iter().fold(0.0, |acc, &x| acc + x);
        for _ in 0..10 {
            let contributions = contributions.clone();
            let results = run_world(channel_world(p), move |mut comm| {
                let mut buf = vec![contributions[comm.rank()]];
                comm.allreduce_sum(1, &mut buf).unwrap();
                buf[0]
            });
            for r in &results {
                assert_eq!(r.to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn single_rank_world_needs_no_peers() {
        let results = run_world(channel_world(1), |mut comm| {
            comm.barrier(1).unwrap();
            let mut buf = vec![2.5, -1.0];
            comm.allreduce_sum(2, &mut buf).unwrap();
            let b = comm
                .broadcast(
                    0,
                    Message {
                        tag: tag(3),
                        ints: vec![5],
                        floats: vec![],
                    },
                )
                .unwrap();
            (buf, b.ints)
        });
        assert_eq!(results[0].0, vec![2.5, -1.0]);
        assert_eq!(results[0].1, vec![5]);
    }

    #[test]
    fn disconnect_surfaces_typed_error_not_panic() {
        let results = run_world(channel_world(2), |mut comm| {
            if comm.rank() == 1 {
                // Terminate immediately: dropping the endpoint closes every
                // channel this rank owns.
                return None;
            }
            Some(comm.recv(1, tag(1)))
        });
        match &results[0] {
            Some(Err(CommError::PeerDisconnected { rank: 0, peer: 1 })) => {}
            other => panic!("expected PeerDisconnected, got {other:?}"),
        }
    }

    #[test]
    fn send_to_dead_peer_surfaces_typed_error() {
        let results = run_world(channel_world(2), |mut comm| {
            if comm.rank() == 1 {
                return None;
            }
            // Keep sending until the peer's drop is observed.
            loop {
                match comm.send(1, &Message::empty(tag(1))) {
                    Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                    Err(e) => return Some(e),
                }
            }
        });
        assert_eq!(
            results[0],
            Some(CommError::PeerDisconnected { rank: 0, peer: 1 })
        );
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let world: Vec<_> = channel_transports(2)
            .into_iter()
            .map(|t| Endpoint::with_recv_timeout(t, Duration::from_millis(25)))
            .collect();
        let results = run_world(world, |mut comm| {
            if comm.rank() == 0 {
                // Rank 1 never sends; the deadline must fire while rank 1
                // is still alive (it blocks on our release message below).
                let err = comm.recv(1, tag(1)).unwrap_err();
                comm.send(1, &Message::empty(tag(2))).unwrap();
                Some(err)
            } else {
                // Our own short deadline may fire before rank 0's release
                // arrives; stay alive by retrying until it does.
                loop {
                    match comm.recv(0, tag(2)) {
                        Ok(_) => return None,
                        Err(CommError::Timeout { .. }) => continue,
                        Err(e) => panic!("unexpected error waiting for release: {e:?}"),
                    }
                }
            }
        });
        match results[0] {
            Some(CommError::Timeout {
                rank: 0,
                peer: 1,
                waited,
            }) => {
                assert_eq!(waited, Duration::from_millis(25));
            }
            ref other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn tag_mismatch_is_a_typed_error() {
        let results = run_world(channel_world(2), |mut comm| {
            if comm.rank() == 1 {
                comm.send(0, &Message::empty(tag(5))).unwrap();
                comm.recv(0, tag(6)).unwrap();
                return None;
            }
            let err = comm.recv(1, tag(9)).unwrap_err();
            comm.send(1, &Message::empty(tag(6))).unwrap();
            Some(err)
        });
        match &results[0] {
            Some(CommError::TagMismatch {
                rank: 0,
                peer: 1,
                expected,
                got,
            }) => {
                assert_eq!(*expected, tag(9));
                assert_eq!(*got, tag(5));
            }
            other => panic!("expected TagMismatch, got {other:?}"),
        }
    }

    #[test]
    fn abort_message_interrupts_blocked_recv() {
        let results = run_world(channel_world(2), |mut comm| {
            if comm.rank() == 1 {
                comm.send_abort(1, Phase::Fold, 3);
                return None;
            }
            Some(comm.recv(1, tag(1)))
        });
        match &results[0] {
            Some(Err(CommError::RemoteAbort {
                origin: 1,
                phase: Phase::Fold,
                iteration: 3,
            })) => {}
            other => panic!("expected RemoteAbort, got {other:?}"),
        }
    }

    #[test]
    fn abort_roundtrips_origin_context() {
        let msg = abort_message(7, Phase::Scatter, 42);
        assert_eq!(parse_abort(&msg), Some((7, Phase::Scatter, 42)));
        assert_eq!(parse_abort(&Message::empty(tag(1))), None);
    }

    #[test]
    fn comm_error_display_is_informative() {
        let e = CommError::Timeout {
            rank: 2,
            peer: 0,
            waited: Duration::from_millis(50),
        };
        assert!(e.to_string().contains("rank 2"));
        assert!(e.to_string().contains("rank 0"));
        let e = CommError::RemoteAbort {
            origin: 3,
            phase: Phase::Expand,
            iteration: 9,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("expand"));
    }
}
