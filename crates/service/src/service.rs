//! The service itself: registry, shared pool, scheduler and cache glued
//! into a deterministic request loop.

use crate::cache::{Admit, PlanCache};
use crate::request::{Completed, Request, Response};
use crate::scheduler::{FairScheduler, Pending};
use crate::stats::ServiceStats;
use hooi::{
    per_mode_costs, DeadlineObserver, PlanOptions, TuckerConfig, TuckerDecomposition, TuckerError,
    TuckerSession,
};
use sptensor::SparseTensor;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`DecompositionService`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Width of the one shared pool every request runs on; `0` means the
    /// machine default.  Fixing this fixes every response bit.
    pub num_threads: usize,
    /// Byte budget of the plan cache, measured by
    /// [`TuckerSession::memory_bytes`].
    pub plan_cache_bytes: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            num_threads: 0,
            plan_cache_bytes: 256 << 20,
        }
    }
}

impl ServiceOptions {
    /// Defaults: machine-default pool width, a 256 MiB plan cache.
    pub fn new() -> Self {
        ServiceOptions::default()
    }

    /// Sets the shared pool width (0 = machine default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Sets the plan-cache byte budget.
    pub fn plan_cache_bytes(mut self, bytes: usize) -> Self {
        self.plan_cache_bytes = bytes;
        self
    }
}

/// A registered tensor and the most recent model computed from it.  The
/// decomposition lives here, *outside* the plan cache, so predictions keep
/// working after the plan is evicted under memory pressure.
#[derive(Debug)]
struct TensorEntry {
    tensor: Arc<SparseTensor>,
    latest: Option<TuckerDecomposition>,
    /// `Some(panic message)` after a solve or predict on this tensor
    /// panicked.  A quarantined entry answers every further decompose or
    /// predict with [`TuckerError::SolvePanicked`] until a fresh ingest
    /// replaces it; eviction still works, and no other tenant or tensor is
    /// affected.
    quarantined: Option<String>,
}

#[derive(Debug, Default)]
struct Counters {
    completed: u64,
    failed: u64,
    ingests: u64,
    decomposes: u64,
    predicts: u64,
    evicts: u64,
    truncated: u64,
    panicked: u64,
}

/// Renders a caught panic payload for the quarantine record.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A multi-tenant decomposition server: owns the tensors, one shared
/// thread pool, a memory-budgeted plan cache and a fair scheduler.
///
/// Requests are [`submit`](Self::submit)ted to per-tenant FIFO queues and
/// executed one at a time by [`step`](Self::step) /
/// [`run_until_idle`](Self::run_until_idle), cheapest-charged tenant first.
/// Every solve runs inside the *same* pool (sessions are planned with
/// [`PlanOptions::caller_pool`]), so responses are a pure function of the
/// request and the pool width: the same `Decompose` request returns
/// bit-identical factors regardless of queue interleaving or cache state.
///
/// ```
/// use service::{DecompositionService, Request, Response, ServiceOptions};
/// use sptensor::SparseTensor;
/// use std::sync::Arc;
///
/// let tensor = Arc::new(SparseTensor::from_entries(
///     vec![4, 4, 4],
///     &[(vec![0, 1, 2], 1.0), (vec![3, 2, 0], 2.0), (vec![1, 3, 3], 3.0)],
/// ));
/// let mut service = DecompositionService::new(ServiceOptions::new().num_threads(1))?;
/// service.submit("alice", Request::Ingest { tensor_id: "toy".into(), tensor });
/// service.submit(
///     "alice",
///     Request::Decompose {
///         tensor_id: "toy".into(),
///         ranks: vec![2, 2, 2],
///         seed: 7,
///         max_iters: 5,
///         deadline: None,
///     },
/// );
/// let done = service.run_until_idle();
/// assert!(matches!(
///     done[1].outcome,
///     Ok(Response::Decomposed { truncated: false, .. })
/// ));
/// # Ok::<(), hooi::TuckerError>(())
/// ```
#[derive(Debug)]
pub struct DecompositionService {
    pool: rayon::ThreadPool,
    registry: BTreeMap<String, TensorEntry>,
    scheduler: FairScheduler,
    cache: PlanCache,
    counters: Counters,
    next_request_id: u64,
    /// Logical clock ordering plan-cache touches; never wall time, so the
    /// LRU eviction order is deterministic.
    clock: u64,
}

impl DecompositionService {
    /// Builds the service and spawns its shared worker pool.
    pub fn new(options: ServiceOptions) -> Result<Self, TuckerError> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(options.num_threads)
            .build()
            .map_err(|e| TuckerError::PoolFailure(e.to_string()))?;
        let cache = PlanCache::new(options.plan_cache_bytes);
        Ok(DecompositionService {
            pool,
            registry: BTreeMap::new(),
            scheduler: FairScheduler::default(),
            cache,
            counters: Counters::default(),
            next_request_id: 0,
            clock: 0,
        })
    }

    /// Enqueues a request for `tenant` and returns its ticket.  Deadlines
    /// start counting now.
    pub fn submit(&mut self, tenant: &str, request: Request) -> u64 {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        self.scheduler.submit(Pending {
            request_id,
            tenant: tenant.to_string(),
            arrival: Instant::now(),
            request,
        });
        request_id
    }

    /// Executes the next request under the fairness policy; `None` when
    /// every queue is empty.
    pub fn step(&mut self) -> Option<Completed> {
        let Pending {
            request_id,
            tenant,
            arrival,
            request,
        } = self.scheduler.next()?;
        let (outcome, charged_flops, plan_cache_hit) = match request {
            Request::Ingest { tensor_id, tensor } => self.do_ingest(tensor_id, tensor),
            Request::Decompose {
                tensor_id,
                ranks,
                seed,
                max_iters,
                deadline,
            } => self.do_decompose(arrival, tensor_id, ranks, seed, max_iters, deadline),
            Request::Predict { tensor_id, indices } => self.do_predict(tensor_id, indices),
            Request::Evict { tensor_id } => self.do_evict(tensor_id),
        };
        self.scheduler.charge(&tenant, charged_flops);
        self.counters.completed += 1;
        match &outcome {
            Ok(Response::Ingested { .. }) => self.counters.ingests += 1,
            Ok(Response::Decomposed { truncated, .. }) => {
                self.counters.decomposes += 1;
                if *truncated {
                    self.counters.truncated += 1;
                }
            }
            Ok(Response::Predicted { .. }) => self.counters.predicts += 1,
            Ok(Response::Evicted { .. }) => self.counters.evicts += 1,
            Err(TuckerError::SolvePanicked { .. }) => {
                self.counters.failed += 1;
                self.counters.panicked += 1;
            }
            Err(_) => self.counters.failed += 1,
        }
        Some(Completed {
            request_id,
            tenant,
            outcome,
            charged_flops,
            plan_cache_hit,
        })
    }

    /// Steps until every queue is empty, returning completions in
    /// execution order.
    pub fn run_until_idle(&mut self) -> Vec<Completed> {
        let mut done = Vec::new();
        while let Some(completed) = self.step() {
            done.push(completed);
        }
        done
    }

    /// Requests waiting across all tenants.
    pub fn pending_requests(&self) -> usize {
        self.scheduler.pending()
    }

    /// Requests waiting per backlogged tenant — what the fairness gate
    /// inspects before each step.
    pub fn pending_by_tenant(&self) -> BTreeMap<String, usize> {
        self.scheduler.pending_by_tenant()
    }

    /// Flops charged per tenant so far.
    pub fn charged_flops(&self) -> &BTreeMap<String, u64> {
        self.scheduler.charged_flops()
    }

    /// The shared pool's participant count.
    pub fn num_threads(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Registered tensor ids, in key order.
    pub fn tensor_ids(&self) -> Vec<String> {
        self.registry.keys().cloned().collect()
    }

    /// Tensor ids with a currently cached plan, in key order.
    pub fn cached_plan_ids(&self) -> Vec<String> {
        self.cache.ids()
    }

    /// The latest completed decomposition of a tensor, if any.
    pub fn latest(&self, tensor_id: &str) -> Option<&TuckerDecomposition> {
        self.registry.get(tensor_id)?.latest.as_ref()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            completed: self.counters.completed,
            failed: self.counters.failed,
            ingests: self.counters.ingests,
            decomposes: self.counters.decomposes,
            predicts: self.counters.predicts,
            evicts: self.counters.evicts,
            truncated_decomposes: self.counters.truncated,
            panicked: self.counters.panicked,
            quarantined_tensors: self
                .registry
                .iter()
                .filter(|(_, e)| e.quarantined.is_some())
                .map(|(id, _)| id.clone())
                .collect(),
            plan_cache_hits: self.cache.hits(),
            plan_cache_misses: self.cache.misses(),
            plan_cache_bytes: self.cache.bytes(),
            plan_cache_entries: self.cache.len(),
            evicted_plans: self.cache.evicted_ids().to_vec(),
            charged_flops: self.scheduler.charged_flops().clone(),
        }
    }

    /// Plans a session for `tensor` on the shared pool.
    fn plan_session(
        &self,
        tensor: &Arc<SparseTensor>,
    ) -> Result<TuckerSession<Arc<SparseTensor>>, TuckerError> {
        let tensor = Arc::clone(tensor);
        self.pool
            .install(|| TuckerSession::plan(tensor, PlanOptions::new().caller_pool()))
    }

    fn do_ingest(
        &mut self,
        tensor_id: String,
        tensor: Arc<SparseTensor>,
    ) -> (Result<Response, TuckerError>, u64, Option<bool>) {
        let session = match self.plan_session(&tensor) {
            Ok(session) => session,
            // A tensor that cannot be planned (e.g. empty) is not
            // registered at all.
            Err(e) => return (Err(e), 0, None),
        };
        // The ingest cost model: the symbolic analysis touches every
        // nonzero once per mode.
        let charge = (tensor.nnz() * tensor.order()) as u64;
        // Replacing an id drops the previous generation's plan and model.
        self.cache.remove(&tensor_id);
        // A fresh ingest replaces the whole entry, which also lifts any
        // quarantine from a previous generation.
        self.registry.insert(
            tensor_id.clone(),
            TensorEntry {
                tensor,
                latest: None,
                quarantined: None,
            },
        );
        self.clock += 1;
        let plan_bytes = match self.cache.insert(tensor_id.clone(), session, self.clock) {
            Admit::Cached { bytes } => Some(bytes),
            Admit::TooBig { required_bytes } => {
                debug_assert!(required_bytes > self.cache.budget());
                None
            }
        };
        (
            Ok(Response::Ingested {
                tensor_id,
                plan_bytes,
            }),
            charge,
            None,
        )
    }

    fn do_decompose(
        &mut self,
        arrival: Instant,
        tensor_id: String,
        ranks: Vec<usize>,
        seed: u64,
        max_iters: usize,
        deadline: Option<Duration>,
    ) -> (Result<Response, TuckerError>, u64, Option<bool>) {
        let Some(entry) = self.registry.get(&tensor_id) else {
            return (Err(TuckerError::UnknownTensorId { tensor_id }), 0, None);
        };
        if let Some(detail) = &entry.quarantined {
            let detail = detail.clone();
            return (
                Err(TuckerError::SolvePanicked { tensor_id, detail }),
                0,
                None,
            );
        }
        let tensor = Arc::clone(&entry.tensor);
        // A request that spent its whole budget queueing is rejected rather
        // than answered with a zero-iteration model.
        if let Some(d) = deadline {
            let waited = arrival.elapsed();
            if waited >= d {
                return (
                    Err(TuckerError::DeadlineExpired {
                        waited,
                        deadline: d,
                    }),
                    0,
                    None,
                );
            }
        }
        let (mut session, hit) = match self.cache.take(&tensor_id) {
            Some(session) => (session, true),
            // Transparent re-plan: the cached plan was evicted (or never
            // admitted); rebuild it exactly as ingest did.
            None => match self.plan_session(&tensor) {
                Ok(session) => {
                    let required_bytes = session.memory_bytes();
                    if required_bytes > self.cache.budget() {
                        return (
                            Err(TuckerError::PlanOverBudget {
                                tensor_id,
                                required_bytes,
                                budget_bytes: self.cache.budget(),
                            }),
                            0,
                            Some(false),
                        );
                    }
                    (session, false)
                }
                Err(e) => return (Err(e), 0, Some(false)),
            },
        };
        let config = TuckerConfig::new(ranks)
            .max_iterations(max_iters)
            .seed(seed);
        // The solve runs behind `catch_unwind` so a panicking request is an
        // answer, not an outage: the shared pool survives (workers re-throw
        // into the caller), the poisoned session is dropped instead of
        // being re-cached, and only this tensor's entry is quarantined.
        let attempt = catch_unwind(AssertUnwindSafe(|| match deadline {
            Some(d) => {
                let mut observer = DeadlineObserver::at(arrival + d);
                let outcome = self
                    .pool
                    .install(|| session.solve_with_observer(&config, &mut observer));
                outcome.map(|dec| (dec, observer.stopped_early()))
            }
            None => self
                .pool
                .install(|| session.solve(&config))
                .map(|dec| (dec, false)),
        }));
        let solved = match attempt {
            Ok(solved) => solved,
            Err(payload) => {
                let detail = panic_detail(payload);
                self.cache.remove(&tensor_id);
                if let Some(entry) = self.registry.get_mut(&tensor_id) {
                    entry.quarantined = Some(detail.clone());
                }
                // Charged 0: the fairness accounts must not bill work that
                // never produced a model.
                return (
                    Err(TuckerError::SolvePanicked { tensor_id, detail }),
                    0,
                    Some(hit),
                );
            }
        };
        // Fairness charge: the per-mode TTMc cost model at the effective
        // (clamped) ranks, per iteration actually run.  The same model for
        // every tenant and strategy keeps accounts comparable.
        let charge = match &solved {
            Ok((dec, _)) => {
                per_mode_costs(session.symbolic(), tensor.nnz(), &dec.ranks()).flops
                    * dec.iterations as u64
            }
            Err(_) => 0,
        };
        // The session goes back whatever happened; a workspace grown past
        // the whole budget is dropped and rebuilt on the next request.
        self.clock += 1;
        let _ = self.cache.insert(tensor_id.clone(), session, self.clock);
        match solved {
            Ok((decomposition, truncated)) => {
                if let Some(entry) = self.registry.get_mut(&tensor_id) {
                    entry.latest = Some(decomposition.clone());
                }
                (
                    Ok(Response::Decomposed {
                        decomposition,
                        truncated,
                    }),
                    charge,
                    Some(hit),
                )
            }
            Err(e) => (Err(e), charge, Some(hit)),
        }
    }

    fn do_predict(
        &mut self,
        tensor_id: String,
        indices: Vec<Vec<usize>>,
    ) -> (Result<Response, TuckerError>, u64, Option<bool>) {
        let Some(entry) = self.registry.get(&tensor_id) else {
            return (Err(TuckerError::UnknownTensorId { tensor_id }), 0, None);
        };
        if let Some(detail) = &entry.quarantined {
            let detail = detail.clone();
            return (
                Err(TuckerError::SolvePanicked { tensor_id, detail }),
                0,
                None,
            );
        }
        let Some(latest) = entry.latest.as_ref() else {
            return (Err(TuckerError::NothingDecomposed { tensor_id }), 0, None);
        };
        let order = latest.factors.len();
        for index in &indices {
            if index.len() != order {
                return (
                    Err(TuckerError::OrderMismatch {
                        config_modes: index.len(),
                        tensor_modes: order,
                    }),
                    0,
                    None,
                );
            }
        }
        // Model reads panic on out-of-range indices; catch it here so a
        // poisoned query answers as a value and quarantines only this
        // tensor's entry.
        let core_len = latest.core.len();
        let attempt = catch_unwind(AssertUnwindSafe(|| latest.predict_many(&indices)));
        match attempt {
            Ok(values) => {
                // The predict cost model: one fused multiply-add per factor
                // entry per core term per query.
                let charge = (values.len() * (2 * order + 1) * core_len) as u64;
                (Ok(Response::Predicted { values }), charge, None)
            }
            Err(payload) => {
                let detail = panic_detail(payload);
                if let Some(entry) = self.registry.get_mut(&tensor_id) {
                    entry.quarantined = Some(detail.clone());
                }
                (
                    Err(TuckerError::SolvePanicked { tensor_id, detail }),
                    0,
                    None,
                )
            }
        }
    }

    fn do_evict(
        &mut self,
        tensor_id: String,
    ) -> (Result<Response, TuckerError>, u64, Option<bool>) {
        if self.registry.remove(&tensor_id).is_none() {
            return (Err(TuckerError::UnknownTensorId { tensor_id }), 0, None);
        }
        let plan_was_cached = self.cache.remove(&tensor_id);
        (
            Ok(Response::Evicted {
                tensor_id,
                plan_was_cached,
            }),
            1,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::random_tensor;

    fn toy() -> Arc<SparseTensor> {
        Arc::new(random_tensor(&[14, 12, 10], 400, 3))
    }

    fn decompose(tensor_id: &str, seed: u64) -> Request {
        Request::Decompose {
            tensor_id: tensor_id.into(),
            ranks: vec![2, 2, 2],
            seed,
            max_iters: 3,
            deadline: None,
        }
    }

    fn service(plan_cache_bytes: usize) -> DecompositionService {
        DecompositionService::new(
            ServiceOptions::new()
                .num_threads(2)
                .plan_cache_bytes(plan_cache_bytes),
        )
        .unwrap()
    }

    fn factors(completed: &Completed) -> &TuckerDecomposition {
        match completed.outcome.as_ref().unwrap() {
            Response::Decomposed { decomposition, .. } => decomposition,
            other => panic!("expected a decomposition, got {other:?}"),
        }
    }

    #[test]
    fn ingest_decompose_predict_roundtrip() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit("a", decompose("t", 1));
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "t".into(),
                indices: vec![vec![0, 0, 0], vec![13, 11, 9]],
            },
        );
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 3);
        // Ingest planned eagerly, so the decomposition hits the cache.
        assert_eq!(done[1].plan_cache_hit, Some(true));
        let model = factors(&done[1]).clone();
        match done[2].outcome.as_ref().unwrap() {
            Response::Predicted { values } => {
                assert_eq!(
                    values,
                    &model.predict_many(&[vec![0, 0, 0], vec![13, 11, 9]])
                );
            }
            other => panic!("expected predictions, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.plan_cache_hits, 1);
        assert!(done[1].charged_flops > done[2].charged_flops);
    }

    #[test]
    fn unknown_ids_fail_as_values() {
        let mut svc = service(usize::MAX);
        svc.submit("a", decompose("ghost", 0));
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "ghost".into(),
                indices: vec![vec![0, 0, 0]],
            },
        );
        svc.submit(
            "a",
            Request::Evict {
                tensor_id: "ghost".into(),
            },
        );
        for completed in svc.run_until_idle() {
            assert!(matches!(
                completed.outcome,
                Err(TuckerError::UnknownTensorId { .. })
            ));
            assert_eq!(completed.charged_flops, 0);
        }
        assert_eq!(svc.stats().failed, 3);
    }

    #[test]
    fn predict_before_any_decomposition_is_an_error() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "t".into(),
                indices: vec![vec![1, 1, 1]],
            },
        );
        let done = svc.run_until_idle();
        assert!(matches!(
            done[1].outcome,
            Err(TuckerError::NothingDecomposed { .. })
        ));
    }

    #[test]
    fn malformed_predict_arity_is_an_error() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit("a", decompose("t", 1));
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "t".into(),
                indices: vec![vec![0, 0]],
            },
        );
        let done = svc.run_until_idle();
        assert!(matches!(
            done[2].outcome,
            Err(TuckerError::OrderMismatch {
                config_modes: 2,
                tensor_modes: 3,
            })
        ));
    }

    #[test]
    fn zero_deadline_expires_before_the_solve_starts() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit(
            "a",
            Request::Decompose {
                tensor_id: "t".into(),
                ranks: vec![2, 2, 2],
                seed: 0,
                max_iters: 3,
                deadline: Some(Duration::ZERO),
            },
        );
        let done = svc.run_until_idle();
        assert!(matches!(
            done[1].outcome,
            Err(TuckerError::DeadlineExpired { .. })
        ));
        assert_eq!(done[1].charged_flops, 0);
    }

    #[test]
    fn generous_deadline_does_not_truncate() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit(
            "a",
            Request::Decompose {
                tensor_id: "t".into(),
                ranks: vec![2, 2, 2],
                seed: 9,
                max_iters: 3,
                deadline: Some(Duration::from_secs(3600)),
            },
        );
        svc.submit("a", decompose("t", 9));
        let done = svc.run_until_idle();
        match done[1].outcome.as_ref().unwrap() {
            Response::Decomposed { truncated, .. } => assert!(!truncated),
            other => panic!("expected a decomposition, got {other:?}"),
        }
        // A deadline that never fires changes nothing: same bits as the
        // deadline-free request.
        assert_eq!(factors(&done[1]).factors, factors(&done[2]).factors);
        assert_eq!(svc.stats().truncated_decomposes, 0);
    }

    #[test]
    fn tiny_budget_makes_plans_over_budget() {
        let mut svc = service(16);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit("a", decompose("t", 0));
        let done = svc.run_until_idle();
        // Ingest succeeds but cannot cache the plan...
        match done[0].outcome.as_ref().unwrap() {
            Response::Ingested { plan_bytes, .. } => assert_eq!(*plan_bytes, None),
            other => panic!("expected an ingest, got {other:?}"),
        }
        // ...and the decomposition cannot be admitted at all.
        assert!(matches!(
            done[1].outcome,
            Err(TuckerError::PlanOverBudget {
                budget_bytes: 16,
                ..
            })
        ));
    }

    #[test]
    fn evict_drops_model_plan_and_registration() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit("a", decompose("t", 2));
        svc.submit(
            "a",
            Request::Evict {
                tensor_id: "t".into(),
            },
        );
        svc.submit("a", decompose("t", 2));
        let done = svc.run_until_idle();
        match done[2].outcome.as_ref().unwrap() {
            Response::Evicted {
                plan_was_cached, ..
            } => assert!(plan_was_cached),
            other => panic!("expected an eviction, got {other:?}"),
        }
        assert!(matches!(
            done[3].outcome,
            Err(TuckerError::UnknownTensorId { .. })
        ));
        assert!(svc.tensor_ids().is_empty());
        assert!(svc.cached_plan_ids().is_empty());
        assert!(svc.latest("t").is_none());
    }

    #[test]
    fn panicking_predict_is_answered_and_quarantines_only_its_tensor() {
        let mut svc = service(usize::MAX);
        for id in ["healthy", "poisoned"] {
            svc.submit(
                "a",
                Request::Ingest {
                    tensor_id: id.into(),
                    tensor: toy(),
                },
            );
            svc.submit("a", decompose(id, 3));
        }
        svc.run_until_idle();
        // Out-of-range indices panic inside predict_many; the service must
        // answer, not die.
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "poisoned".into(),
                indices: vec![vec![1000, 1000, 1000]],
            },
        );
        let done = svc.run_until_idle();
        assert!(
            matches!(&done[0].outcome, Err(TuckerError::SolvePanicked { tensor_id, .. })
                if tensor_id == "poisoned"),
            "expected SolvePanicked, got {:?}",
            done[0].outcome
        );
        assert_eq!(done[0].charged_flops, 0, "no charge for panicked work");
        // The quarantine holds for both predicts and decomposes on the
        // poisoned id...
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "poisoned".into(),
                indices: vec![vec![0, 0, 0]],
            },
        );
        svc.submit("a", decompose("poisoned", 3));
        // ...while the healthy tensor keeps serving.
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "healthy".into(),
                indices: vec![vec![0, 0, 0]],
            },
        );
        let done = svc.run_until_idle();
        assert!(matches!(
            done[0].outcome,
            Err(TuckerError::SolvePanicked { .. })
        ));
        assert!(matches!(
            done[1].outcome,
            Err(TuckerError::SolvePanicked { .. })
        ));
        assert!(matches!(done[2].outcome, Ok(Response::Predicted { .. })));
        let stats = svc.stats();
        assert_eq!(stats.panicked, 3);
        assert_eq!(stats.quarantined_tensors, vec!["poisoned".to_string()]);
        // A fresh ingest lifts the quarantine.
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "poisoned".into(),
                tensor: toy(),
            },
        );
        svc.submit("a", decompose("poisoned", 3));
        let done = svc.run_until_idle();
        assert!(matches!(done[1].outcome, Ok(Response::Decomposed { .. })));
        assert!(svc.stats().quarantined_tensors.is_empty());
    }

    #[test]
    fn evict_works_on_a_quarantined_tensor() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "a",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.submit("a", decompose("t", 1));
        svc.submit(
            "a",
            Request::Predict {
                tensor_id: "t".into(),
                indices: vec![vec![999, 999, 999]],
            },
        );
        svc.submit(
            "a",
            Request::Evict {
                tensor_id: "t".into(),
            },
        );
        let done = svc.run_until_idle();
        assert!(matches!(
            done[2].outcome,
            Err(TuckerError::SolvePanicked { .. })
        ));
        assert!(matches!(done[3].outcome, Ok(Response::Evicted { .. })));
        assert!(svc.tensor_ids().is_empty());
        assert!(svc.stats().quarantined_tensors.is_empty());
    }

    #[test]
    fn fair_admission_interleaves_backlogged_tenants() {
        let mut svc = service(usize::MAX);
        svc.submit(
            "heavy",
            Request::Ingest {
                tensor_id: "t".into(),
                tensor: toy(),
            },
        );
        svc.run_until_idle();
        // heavy has been charged for the ingest; with both backlogged the
        // cheapest tenant (light, charged 0) must run first.
        svc.submit("heavy", decompose("t", 1));
        svc.submit(
            "light",
            Request::Predict {
                tensor_id: "t".into(),
                indices: vec![],
            },
        );
        let first = svc.step().unwrap();
        assert_eq!(first.tenant, "light");
    }
}
