//! Zipf-skewed multi-tenant request mixes for the decomposition service.
//!
//! The service's replay test (`tests/service.rs`) drives a stream of
//! service requests — ingest a tensor, decompose it, predict entries, evict
//! it — issued by several tenants.  Real serving workloads are skewed twice
//! over: a few tenants issue most of the traffic, and a few hot tensors
//! receive most of the requests.  This module generates such streams deterministically from a
//! seed, with both skews drawn from [`ZipfSampler`], so every run replays
//! the exact same mix.
//!
//! The generator is *abstract*: events name tenants and tensors by small
//! integer ids and carry only scalar parameters (rank, iteration budget,
//! query count).  The consumer decides what tensor id 3 actually contains.
//! It also maintains the service's session-state invariant so replays never
//! hit bookkeeping errors by construction: the first event touching a tensor
//! is always [`RequestKind::Ingest`], and an evicted tensor is re-ingested
//! before it is used again.

use crate::zipf::ZipfSampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a single request asks the service to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestKind {
    /// Register the tensor with the service (build or rebuild its plan).
    Ingest,
    /// Run HOOI on the tensor at the given per-mode rank.
    Decompose {
        /// Target rank, applied to every mode.
        rank: usize,
        /// HOOI iteration budget.
        max_iters: usize,
        /// Factor-initialization seed.
        seed: u64,
    },
    /// Evaluate the latest decomposition at `queries` index tuples.
    Predict {
        /// Number of index tuples to evaluate.
        queries: usize,
    },
    /// Drop the tensor, its plan and its decomposition.
    Evict,
}

/// One event of the replayed stream: a tenant asking for work on a tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEvent {
    /// Issuing tenant, `0..num_tenants` (0 is the hottest).
    pub tenant: usize,
    /// Target tensor, `0..num_tensors` (0 is the hottest).
    pub tensor: usize,
    /// The operation requested.
    pub kind: RequestKind,
}

/// Parameters of a generated request mix.
#[derive(Debug, Clone)]
pub struct RequestMixSpec {
    /// Number of distinct tenants issuing requests.
    pub num_tenants: usize,
    /// Number of distinct tensors the requests target.
    pub num_tensors: usize,
    /// Number of *work* events to generate (implicit ingests after an evict
    /// are inserted on top, so the returned stream can be slightly longer).
    pub num_requests: usize,
    /// Zipf exponent of the tenant traffic skew (0 = uniform).
    pub tenant_skew: f64,
    /// Zipf exponent of the tensor popularity skew (0 = uniform).
    pub tensor_skew: f64,
    /// Fraction of work events that are `Decompose` (the rest are mostly
    /// `Predict` with an occasional `Evict`).
    pub decompose_fraction: f64,
    /// Fraction of work events that are `Evict`.
    pub evict_fraction: f64,
    /// Master seed; two calls with equal specs yield identical streams.
    pub seed: u64,
}

impl RequestMixSpec {
    /// A serving-shaped default: prediction-heavy traffic with periodic
    /// re-decompositions and rare evictions, over moderately skewed tenants
    /// and strongly skewed tensor popularity.
    pub fn new(num_tenants: usize, num_tensors: usize, num_requests: usize, seed: u64) -> Self {
        RequestMixSpec {
            num_tenants,
            num_tensors,
            num_requests,
            tenant_skew: 0.9,
            tensor_skew: 1.1,
            decompose_fraction: 0.25,
            evict_fraction: 0.05,
            seed,
        }
    }
}

/// Generates the request stream for `spec`.
///
/// Guarantees, by construction:
///
/// * deterministic — equal specs produce identical streams;
/// * the first event naming a tensor is an [`RequestKind::Ingest`];
/// * after an [`RequestKind::Evict`], the tensor is ingested again before
///   any `Decompose`/`Predict` names it;
/// * an `Evict` is only issued for a currently live tensor.
///
/// # Panics
/// Panics if any count is zero or a fraction is outside `[0, 1]`.
pub fn request_mix(spec: &RequestMixSpec) -> Vec<RequestEvent> {
    assert!(spec.num_tenants > 0, "need at least one tenant");
    assert!(spec.num_tensors > 0, "need at least one tensor");
    assert!(spec.num_requests > 0, "need at least one request");
    assert!(
        (0.0..=1.0).contains(&spec.decompose_fraction)
            && (0.0..=1.0).contains(&spec.evict_fraction)
            && spec.decompose_fraction + spec.evict_fraction <= 1.0,
        "event fractions must be probabilities summing to at most 1"
    );
    let tenants = ZipfSampler::new(spec.num_tenants, spec.tenant_skew);
    let tensors = ZipfSampler::new(spec.num_tensors, spec.tensor_skew);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut live = vec![false; spec.num_tensors];
    let mut events = Vec::with_capacity(spec.num_requests + spec.num_tensors);
    for _ in 0..spec.num_requests {
        let tenant = tenants.sample(&mut rng);
        let tensor = tensors.sample(&mut rng);
        if !live[tensor] {
            events.push(RequestEvent {
                tenant,
                tensor,
                kind: RequestKind::Ingest,
            });
            live[tensor] = true;
        }
        let roll: f64 = rng.gen();
        let kind = if roll < spec.decompose_fraction {
            RequestKind::Decompose {
                rank: 2 + rng.gen_range(0..2),
                max_iters: 2 + rng.gen_range(0..3),
                seed: rng.gen_range(0..1_000_000),
            }
        } else if roll < spec.decompose_fraction + spec.evict_fraction {
            live[tensor] = false;
            RequestKind::Evict
        } else {
            RequestKind::Predict {
                queries: 4 + rng.gen_range(0..60),
            }
        };
        events.push(RequestEvent {
            tenant,
            tensor,
            kind,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RequestMixSpec {
        RequestMixSpec::new(6, 8, 400, 42)
    }

    #[test]
    fn equal_specs_yield_identical_streams() {
        assert_eq!(request_mix(&spec()), request_mix(&spec()));
    }

    #[test]
    fn different_seeds_yield_different_streams() {
        let mut other = spec();
        other.seed = 43;
        assert_ne!(request_mix(&spec()), request_mix(&other));
    }

    #[test]
    fn every_tensor_is_ingested_before_use_and_after_eviction() {
        let events = request_mix(&spec());
        let mut live = [false; 8];
        for e in &events {
            match e.kind {
                RequestKind::Ingest => live[e.tensor] = true,
                RequestKind::Evict => {
                    assert!(live[e.tensor], "evicting a tensor that is not live");
                    live[e.tensor] = false;
                }
                _ => assert!(live[e.tensor], "work on a tensor that is not live"),
            }
        }
    }

    #[test]
    fn traffic_is_skewed_toward_hot_tenant_and_tensor() {
        let events = request_mix(&RequestMixSpec::new(8, 8, 4000, 9));
        let mut by_tenant = [0usize; 8];
        let mut by_tensor = [0usize; 8];
        for e in &events {
            by_tenant[e.tenant] += 1;
            by_tensor[e.tensor] += 1;
        }
        assert!(by_tenant[0] > 2 * by_tenant[7].max(1));
        assert!(by_tensor[0] > 3 * by_tensor[7].max(1));
    }

    #[test]
    fn mix_contains_all_work_kinds() {
        let events = request_mix(&spec());
        let has = |f: &dyn Fn(&RequestKind) -> bool| events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, RequestKind::Ingest)));
        assert!(has(&|k| matches!(k, RequestKind::Decompose { .. })));
        assert!(has(&|k| matches!(k, RequestKind::Predict { .. })));
        assert!(has(&|k| matches!(k, RequestKind::Evict)));
    }

    #[test]
    fn bounds_are_respected() {
        for e in request_mix(&spec()) {
            assert!(e.tenant < 6);
            assert!(e.tensor < 8);
            if let RequestKind::Decompose {
                rank, max_iters, ..
            } = e.kind
            {
                assert!((2..=3).contains(&rank));
                assert!((2..=4).contains(&max_iters));
            }
        }
    }
}
