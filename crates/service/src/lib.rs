//! Multi-tenant decomposition serving on top of the [`hooi`] solver.
//!
//! The paper's pipeline ends at "decompose one tensor well in parallel".
//! This crate wraps that kernel in the shape it is actually consumed in —
//! a long-lived server holding many tensors for many tenants:
//!
//! * **Registry** — tensors are [`Request::Ingest`]ed under string ids and
//!   shared via [`Arc`](std::sync::Arc); models
//!   ([`hooi::TuckerDecomposition`]) live with the tensor, so predictions
//!   survive plan eviction.
//! * **One shared pool** — every session is planned with
//!   [`hooi::PlanOptions::caller_pool`] and solved inside the service's
//!   single thread pool; no per-tensor worker threads, and responses are a
//!   pure function of the request (bit-identical across pool widths, queue
//!   interleavings and cache states).
//! * **Plan cache** — planned sessions are cached by their *measured*
//!   footprint ([`hooi::TuckerSession::memory_bytes`]) under a byte
//!   budget, least-recently-used first, ordered by a logical clock so the
//!   eviction sequence is deterministic; evicted plans are transparently
//!   rebuilt on the next decomposition.
//! * **Fair scheduler** — cheapest-deficit-first admission over per-tenant
//!   FIFO queues: every completed request is charged deterministic
//!   cost-model flops ([`hooi::per_mode_costs`]) and the next request
//!   always comes from the least-charged backlogged tenant.
//! * **Deadlines** — a [`Request::Decompose`] may carry a wall-clock
//!   budget counted from submission, enforced mid-HOOI by a
//!   [`hooi::DeadlineObserver`]: an over-budget solve returns the best
//!   decomposition so far flagged truncated, and a request whose budget
//!   expired while queueing fails with
//!   [`hooi::TuckerError::DeadlineExpired`].
//! * **Panic isolation** — every solve and predict runs behind
//!   `catch_unwind`: a panicking request answers
//!   [`hooi::TuckerError::SolvePanicked`], its tensor entry is quarantined
//!   (until a fresh ingest replaces it) and its poisoned session is
//!   dropped, while the shared pool, the plan cache, the scheduler and
//!   every other tenant keep serving.  Panicked and deadline-expired
//!   requests are charged zero flops — the fairness accounts never bill
//!   work that produced nothing.
//!
//! `tests/service.rs` replays a Zipf-skewed multi-tenant mix
//! (`datagen::requests`) against this service under two queue
//! interleavings and cache budgets and asserts bit-identical responses and
//! fair picks; the repo benchmark's `service-mix` workload measures its
//! latency, cache and fairness metrics.

mod cache;
mod request;
mod scheduler;
mod service;
mod stats;

pub use request::{Completed, Request, Response};
pub use service::{DecompositionService, ServiceOptions};
pub use stats::ServiceStats;
