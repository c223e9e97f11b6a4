//! Deterministic fault injection for the distributed executor.
//!
//! The executor wraps every rank's [`Transport`] in a fault-injecting
//! decorator that perturbs exactly the operations named by a [`FaultPlan`]:
//! the plan's triggers fire at precise `(rank, peer, op, nth)` coordinates
//! — the `nth` send or receive this rank performs on that link — so a chaos
//! run is a *pure function of the plan*, with no wall-clock randomness.  The same seed always injects the
//! same fault at the same protocol step, which is what makes chaos tests
//! reproducible and CI-gateable.
//!
//! Fault semantics:
//!
//! * [`FaultAction::Drop`] on a send silently discards the message (the
//!   receiver eventually times out); on a receive it discards the first
//!   arriving message and delivers the next (the receiver typically sees a
//!   [`CommError::TagMismatch`]).
//! * [`FaultAction::Delay`] sleeps before performing the operation,
//!   modeling a stalled link; peers waiting on this rank hit their
//!   deadline.
//! * [`FaultAction::Disconnect`] cuts this side of the link permanently:
//!   the triggering operation and every later one on the link fail with
//!   [`CommError::PeerDisconnected`].
//! * [`FaultAction::Corrupt`] on a receive consumes the inbound message
//!   and reports [`CommError::Corrupt`], modeling a payload destroyed in
//!   transit; on a send it mangles the outgoing tag so the receiver
//!   observes a typed [`CommError::TagMismatch`].
//!
//! An **empty plan is an exact pass-through**: every operation reaches the
//! inner transport unmodified, so wrapping with `FaultPlan::empty()` is
//! bit-identical to the unwrapped channels, with identical
//! [`crate::CommCounters`].  The tests in `tests/faults.rs` pin this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::comm::{CommError, Message, Phase, Tag, Transport};

/// Which side of a point-to-point operation a trigger watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// The rank's `send_raw` calls on the link.
    Send,
    /// The rank's `recv_raw` calls on the link.
    Recv,
}

/// What happens when a trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard the message (send) or the first arriving message (recv).
    Drop,
    /// Sleep this long before performing the operation.
    Delay(Duration),
    /// Cut this side of the link permanently.
    Disconnect,
    /// Destroy the message: `recv` reports [`CommError::Corrupt`], `send`
    /// mangles the tag so the receiver sees a mismatch.
    Corrupt,
}

impl FaultAction {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultAction::Drop => "drop",
            FaultAction::Delay(_) => "delay",
            FaultAction::Disconnect => "disconnect",
            FaultAction::Corrupt => "corrupt",
        }
    }
}

/// One injection point: when rank `rank` performs its `nth` (0-based)
/// operation of kind `op` on the link to `peer`, `action` fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTrigger {
    /// The rank whose transport misbehaves.
    pub rank: usize,
    /// The peer on the affected link.
    pub peer: usize,
    /// Which operation stream the trigger counts.
    pub op: FaultOp,
    /// 0-based index into that stream.
    pub nth: u64,
    /// What to do when the count is reached.
    pub action: FaultAction,
}

/// A reproducible fault schedule: a set of triggers, each a pure function
/// of `(rank, peer, op, nth)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injection points, applied independently.
    pub triggers: Vec<FaultTrigger>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The no-fault plan: wrapping with it is an exact pass-through.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether this plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// A single-trigger plan.
    pub fn one(trigger: FaultTrigger) -> FaultPlan {
        FaultPlan {
            triggers: vec![trigger],
        }
    }

    /// Derives a *decisive* single-fault plan from a seed: the trigger sits
    /// on a root-involving link (every rank talks to the root each
    /// iteration, so the trigger point is almost always reached) and uses
    /// only actions that fail the triggering rank immediately
    /// ([`FaultAction::Disconnect`] / [`FaultAction::Corrupt`] on receive),
    /// which guarantees that *if* the trigger fires, every surviving rank
    /// unwinds with a typed error.  Worlds smaller than two ranks have no
    /// links, so the plan is empty.
    pub fn seeded_decisive(seed: u64, num_ranks: usize) -> FaultPlan {
        if num_ranks < 2 {
            return FaultPlan::empty();
        }
        let mut s = seed;
        let nonroot = 1 + (splitmix64(&mut s) as usize) % (num_ranks - 1);
        let faulty_is_root = splitmix64(&mut s).is_multiple_of(2);
        let (rank, peer) = if faulty_is_root {
            (0, nonroot)
        } else {
            (nonroot, 0)
        };
        let nth = splitmix64(&mut s) % 4;
        let (op, action) = match splitmix64(&mut s) % 3 {
            0 => (FaultOp::Send, FaultAction::Disconnect),
            1 => (FaultOp::Recv, FaultAction::Disconnect),
            _ => (FaultOp::Recv, FaultAction::Corrupt),
        };
        FaultPlan::one(FaultTrigger {
            rank,
            peer,
            op,
            nth,
            action,
        })
    }

    /// Derives a single-fault plan from a seed over the *full* action set,
    /// including drops and delays whose outcome depends on where in the
    /// protocol they land: the run must end in a typed error on every rank
    /// or a clean bit-identical completion — never a hang.  `recv_timeout`
    /// sizes the injected delay so it always overshoots the deadline.
    pub fn seeded(seed: u64, num_ranks: usize, recv_timeout: Duration) -> FaultPlan {
        if num_ranks < 2 {
            return FaultPlan::empty();
        }
        let mut s = seed ^ 0xa076_1d64_78bd_642f;
        let nonroot = 1 + (splitmix64(&mut s) as usize) % (num_ranks - 1);
        let faulty_is_root = splitmix64(&mut s).is_multiple_of(2);
        let (rank, peer) = if faulty_is_root {
            (0, nonroot)
        } else {
            (nonroot, 0)
        };
        let nth = splitmix64(&mut s) % 4;
        let op = if splitmix64(&mut s).is_multiple_of(2) {
            FaultOp::Send
        } else {
            FaultOp::Recv
        };
        let action = match splitmix64(&mut s) % 4 {
            0 => FaultAction::Drop,
            1 => FaultAction::Delay(recv_timeout * 2 + Duration::from_millis(50)),
            2 => FaultAction::Disconnect,
            _ => FaultAction::Corrupt,
        };
        FaultPlan::one(FaultTrigger {
            rank,
            peer,
            op,
            nth,
            action,
        })
    }

    /// Wraps a whole world of transports with this plan, sharing `probe`.
    pub(crate) fn wrap<T: Transport>(
        &self,
        transports: Vec<T>,
        probe: &FaultProbe,
    ) -> Vec<FaultyTransport<T>> {
        transports
            .into_iter()
            .map(|t| FaultyTransport::new(t, self.clone(), probe.clone()))
            .collect()
    }

    fn action_for(&self, rank: usize, peer: usize, op: FaultOp, nth: u64) -> Option<FaultAction> {
        self.triggers
            .iter()
            .find(|t| t.rank == rank && t.peer == peer && t.op == op && t.nth == nth)
            .map(|t| t.action)
    }
}

/// Shared observer counting how many triggers actually fired across a
/// world.  Tests branch on it: a fired decisive trigger must produce typed
/// failures everywhere; an unfired one must leave the run bit-identical to
/// fault-free execution.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultProbe {
    fired: Arc<AtomicU64>,
}

impl FaultProbe {
    /// A fresh probe with zero recorded firings.
    pub(crate) fn new() -> FaultProbe {
        FaultProbe::default()
    }

    /// How many triggers have fired so far.
    pub(crate) fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    fn record(&self) {
        self.fired.fetch_add(1, Ordering::SeqCst);
    }
}

/// A [`Transport`] wrapper that injects the faults of a [`FaultPlan`] at
/// exact operation counts.  With an empty plan it is a bit-identical
/// pass-through.
pub(crate) struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    probe: FaultProbe,
    send_counts: Vec<u64>,
    recv_counts: Vec<u64>,
    cut: Vec<bool>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the triggers of `plan` that name its rank.
    fn new(inner: T, plan: FaultPlan, probe: FaultProbe) -> Self {
        let n = inner.num_ranks();
        FaultyTransport {
            inner,
            plan,
            probe,
            send_counts: vec![0; n],
            recv_counts: vec![0; n],
            cut: vec![false; n],
        }
    }
}

/// Mangles a tag deterministically while keeping it a "regular" protocol
/// tag (never the abort sentinel), so a corrupted send surfaces at the
/// receiver as a typed [`CommError::TagMismatch`].
fn mangle_tag(tag: Tag) -> Tag {
    Tag {
        phase: match tag.phase {
            Phase::Control => Phase::Fold,
            _ => Phase::Control,
        },
        mode: tag.mode ^ 0x1551,
        step: (tag.step ^ 0x0055_aa55) & 0x7fff_ffff,
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    fn send_raw(&mut self, to: usize, msg: &Message) -> Result<(), CommError> {
        let nth = self.send_counts[to];
        self.send_counts[to] += 1;
        if self.cut[to] {
            return Err(CommError::PeerDisconnected {
                rank: self.inner.rank(),
                peer: to,
            });
        }
        match self
            .plan
            .action_for(self.inner.rank(), to, FaultOp::Send, nth)
        {
            None => self.inner.send_raw(to, msg),
            Some(FaultAction::Drop) => {
                self.probe.record();
                Ok(())
            }
            Some(FaultAction::Delay(d)) => {
                self.probe.record();
                std::thread::sleep(d);
                self.inner.send_raw(to, msg)
            }
            Some(FaultAction::Disconnect) => {
                self.probe.record();
                self.cut[to] = true;
                Err(CommError::PeerDisconnected {
                    rank: self.inner.rank(),
                    peer: to,
                })
            }
            Some(FaultAction::Corrupt) => {
                self.probe.record();
                let mut mangled = msg.clone();
                mangled.tag = mangle_tag(msg.tag);
                self.inner.send_raw(to, &mangled)
            }
        }
    }

    fn recv_raw(&mut self, from: usize, timeout: Duration) -> Result<Message, CommError> {
        let nth = self.recv_counts[from];
        self.recv_counts[from] += 1;
        if self.cut[from] {
            return Err(CommError::PeerDisconnected {
                rank: self.inner.rank(),
                peer: from,
            });
        }
        match self
            .plan
            .action_for(self.inner.rank(), from, FaultOp::Recv, nth)
        {
            None => self.inner.recv_raw(from, timeout),
            Some(FaultAction::Drop) => {
                self.probe.record();
                // Discard the first arriving message, deliver the next.
                self.inner.recv_raw(from, timeout)?;
                self.inner.recv_raw(from, timeout)
            }
            Some(FaultAction::Delay(d)) => {
                self.probe.record();
                std::thread::sleep(d);
                self.inner.recv_raw(from, timeout)
            }
            Some(FaultAction::Disconnect) => {
                self.probe.record();
                self.cut[from] = true;
                Err(CommError::PeerDisconnected {
                    rank: self.inner.rank(),
                    peer: from,
                })
            }
            Some(FaultAction::Corrupt) => {
                self.probe.record();
                // Consume the inbound message (if any) and report it
                // destroyed in transit.
                self.inner.recv_raw(from, timeout)?;
                Err(CommError::Corrupt {
                    rank: self.inner.rank(),
                    peer: from,
                    detail: "injected message corruption".to_string(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{channel_transports, ChannelTransport, Endpoint};

    type FaultyEndpoint = Endpoint<FaultyTransport<ChannelTransport>>;

    fn tag(step: u32) -> Tag {
        Tag::new(Phase::Fold, 1, step)
    }

    fn two_rank_world(plan: FaultPlan) -> (Vec<FaultyEndpoint>, FaultProbe) {
        let probe = FaultProbe::new();
        let world = plan
            .wrap(channel_transports(2), &probe)
            .into_iter()
            .map(Endpoint::new)
            .collect();
        (world, probe)
    }

    fn run_pair<R: Send + 'static>(
        world: Vec<FaultyEndpoint>,
        rank0: impl FnOnce(&mut FaultyEndpoint) -> R + Send,
        rank1: impl FnOnce(&mut FaultyEndpoint) -> R + Send,
    ) -> (R, R) {
        let mut it = world.into_iter();
        let mut e0 = it.next().unwrap();
        let mut e1 = it.next().unwrap();
        std::thread::scope(|s| {
            let h0 = s.spawn(move || rank0(&mut e0));
            let h1 = s.spawn(move || rank1(&mut e1));
            (h0.join().unwrap(), h1.join().unwrap())
        })
    }

    #[test]
    fn empty_plan_is_exact_pass_through() {
        let (world, probe) = two_rank_world(FaultPlan::empty());
        let msg = Message {
            tag: tag(1),
            ints: vec![9],
            floats: vec![2.5, -0.0],
        };
        let sent = msg.clone();
        let (_, got) = run_pair(
            world,
            move |c| {
                c.send(1, &sent).unwrap();
                None
            },
            |c| Some(c.recv(0, tag(1)).unwrap()),
        );
        assert_eq!(got.unwrap(), msg);
        assert_eq!(probe.fired(), 0);
    }

    #[test]
    fn disconnect_cuts_the_link_permanently() {
        let plan = FaultPlan::one(FaultTrigger {
            rank: 0,
            peer: 1,
            op: FaultOp::Send,
            nth: 1,
            action: FaultAction::Disconnect,
        });
        let (world, probe) = two_rank_world(plan);
        let (errs, _) = run_pair(
            world,
            |c| {
                c.send(1, &Message::empty(tag(1))).unwrap();
                let first = c.send(1, &Message::empty(tag(2))).unwrap_err();
                let second = c.send(1, &Message::empty(tag(3))).unwrap_err();
                Some((first, second))
            },
            |c| {
                c.recv(0, tag(1)).unwrap();
                None
            },
        );
        let (first, second) = errs.unwrap();
        assert_eq!(first, CommError::PeerDisconnected { rank: 0, peer: 1 });
        assert_eq!(second, CommError::PeerDisconnected { rank: 0, peer: 1 });
        assert_eq!(probe.fired(), 1, "the cut itself fires once");
    }

    #[test]
    fn dropped_send_times_out_the_receiver() {
        let plan = FaultPlan::one(FaultTrigger {
            rank: 0,
            peer: 1,
            op: FaultOp::Send,
            nth: 0,
            action: FaultAction::Drop,
        });
        let probe = FaultProbe::new();
        let mut it = plan
            .wrap(channel_transports(2), &probe)
            .into_iter()
            .map(|t| Endpoint::with_recv_timeout(t, Duration::from_millis(30)));
        let mut e0 = it.next().unwrap();
        let mut e1 = it.next().unwrap();
        let err = std::thread::scope(|s| {
            let h0 = s.spawn(move || {
                e0.send(1, &Message::empty(tag(1))).unwrap();
                // Hold the endpoint open until released so the peer sees a
                // timeout, not a disconnect; our own deadline may fire
                // first, so retry until the release arrives.
                loop {
                    match e0.recv(1, tag(2)) {
                        Ok(_) => break,
                        Err(crate::comm::CommError::Timeout { .. }) => continue,
                        Err(e) => panic!("unexpected error waiting for release: {e:?}"),
                    }
                }
            });
            let h1 = s.spawn(move || {
                let err = e1.recv(0, tag(1)).unwrap_err();
                e1.send(0, &Message::empty(tag(2))).unwrap();
                err
            });
            h0.join().unwrap();
            h1.join().unwrap()
        });
        assert!(
            matches!(
                err,
                CommError::Timeout {
                    rank: 1,
                    peer: 0,
                    ..
                }
            ),
            "expected Timeout, got {err:?}"
        );
        assert_eq!(probe.fired(), 1);
    }

    #[test]
    fn corrupt_recv_reports_destroyed_frame() {
        let plan = FaultPlan::one(FaultTrigger {
            rank: 1,
            peer: 0,
            op: FaultOp::Recv,
            nth: 0,
            action: FaultAction::Corrupt,
        });
        let (world, probe) = two_rank_world(plan);
        let (_, err) = run_pair(
            world,
            |c| {
                c.send(1, &Message::empty(tag(1))).unwrap();
                None
            },
            |c| Some(c.recv(0, tag(1)).unwrap_err()),
        );
        assert!(
            matches!(
                err,
                Some(CommError::Corrupt {
                    rank: 1,
                    peer: 0,
                    ..
                })
            ),
            "expected Corrupt, got {err:?}"
        );
        assert_eq!(probe.fired(), 1);
    }

    #[test]
    fn corrupt_send_surfaces_as_tag_mismatch_at_receiver() {
        let plan = FaultPlan::one(FaultTrigger {
            rank: 0,
            peer: 1,
            op: FaultOp::Send,
            nth: 0,
            action: FaultAction::Corrupt,
        });
        let (world, probe) = two_rank_world(plan);
        let (_, err) = run_pair(
            world,
            |c| {
                c.send(1, &Message::empty(tag(1))).unwrap();
                None
            },
            |c| Some(c.recv(0, tag(1)).unwrap_err()),
        );
        assert!(
            matches!(
                err,
                Some(CommError::TagMismatch {
                    rank: 1,
                    peer: 0,
                    ..
                })
            ),
            "expected TagMismatch, got {err:?}"
        );
        assert_eq!(probe.fired(), 1);
    }

    #[test]
    fn dropped_recv_discards_one_message() {
        let plan = FaultPlan::one(FaultTrigger {
            rank: 1,
            peer: 0,
            op: FaultOp::Recv,
            nth: 0,
            action: FaultAction::Drop,
        });
        let (world, probe) = two_rank_world(plan);
        let (_, err) = run_pair(
            world,
            |c| {
                c.send(1, &Message::empty(tag(1))).unwrap();
                c.send(1, &Message::empty(tag(2))).unwrap();
                None
            },
            |c| Some(c.recv(0, tag(1)).unwrap_err()),
        );
        // The first message is discarded; the second arrives with the
        // "wrong" tag for the protocol step.
        match err {
            Some(CommError::TagMismatch { got, .. }) => assert_eq!(got, tag(2)),
            other => panic!("expected TagMismatch, got {other:?}"),
        }
        assert_eq!(probe.fired(), 1);
    }

    #[test]
    fn mangled_tag_never_collides_with_abort() {
        for phase in Phase::ALL {
            for step in [0u32, 1, 7, crate::comm::ABORT_STEP] {
                let mangled = mangle_tag(Tag::new(phase, 3, step));
                let as_msg = Message::empty(mangled);
                assert_eq!(crate::comm::parse_abort(&as_msg), None);
                assert_ne!(mangled, Tag::new(phase, 3, step));
            }
        }
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_the_seed() {
        for seed in 0..64u64 {
            for p in 2..5usize {
                let a = FaultPlan::seeded_decisive(seed, p);
                let b = FaultPlan::seeded_decisive(seed, p);
                assert_eq!(a, b);
                assert_eq!(a.triggers.len(), 1);
                let t = &a.triggers[0];
                assert!(t.rank == 0 || t.peer == 0, "decisive fault must touch root");
                assert!(t.rank < p && t.peer < p && t.rank != t.peer);
                let c = FaultPlan::seeded(seed, p, Duration::from_millis(100));
                assert_eq!(c, FaultPlan::seeded(seed, p, Duration::from_millis(100)));
            }
            assert!(FaultPlan::seeded_decisive(seed, 1).is_empty());
        }
    }
}
