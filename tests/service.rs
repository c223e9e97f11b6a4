//! Integration tests for the multi-tenant decomposition service: the
//! determinism contract (bit-identical responses across cache states and
//! submission interleavings), fair scheduling, and the plan cache's
//! eviction behaviour.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread;
use tucker_repro::datagen::requests::{request_mix, RequestEvent, RequestKind, RequestMixSpec};
use tucker_repro::prelude::*;

fn tensor(seed: u64) -> Arc<SparseTensor> {
    Arc::new(random_tensor(&[16, 14, 12], 500, seed))
}

/// Footprint of a freshly planned (not yet solved) session for the test
/// tensors — the unit the cache budgets below are expressed in.
fn plan_bytes() -> usize {
    TuckerSession::plan(tensor(0), PlanOptions::new().caller_pool())
        .unwrap()
        .memory_bytes()
}

fn ingest(id: &str, seed: u64) -> Request {
    Request::Ingest {
        tensor_id: id.into(),
        tensor: tensor(seed),
    }
}

fn decompose(id: &str, seed: u64) -> Request {
    Request::Decompose {
        tensor_id: id.into(),
        ranks: vec![3, 3, 3],
        seed,
        max_iters: 3,
        deadline: None,
    }
}

fn decomposition(outcome: &Result<Response, TuckerError>) -> &TuckerDecomposition {
    match outcome.as_ref().unwrap() {
        Response::Decomposed { decomposition, .. } => decomposition,
        other => panic!("expected a decomposition, got {other:?}"),
    }
}

/// Under memory pressure the plan cache must evict in LRU order driven by
/// the *logical* request clock — the same request history always evicts
/// the same plans in the same order.
#[test]
fn eviction_order_under_pressure_is_deterministic() {
    let per_plan = plan_bytes();
    let run = || {
        let mut svc = DecompositionService::new(
            ServiceOptions::new()
                .num_threads(1)
                // Room for two same-shaped plans, never three.
                .plan_cache_bytes(2 * per_plan + per_plan / 2),
        )
        .unwrap();
        for (i, id) in ["a", "b", "c", "d"].iter().enumerate() {
            svc.submit("tenant", ingest(id, i as u64));
        }
        svc.run_until_idle();
        (svc.stats().evicted_plans.clone(), svc.cached_plan_ids())
    };
    let (evicted, cached) = run();
    // Ingest order a, b, c, d with room for two: c evicts a, d evicts b.
    assert_eq!(evicted, vec!["a".to_string(), "b".to_string()]);
    assert_eq!(cached, vec!["c".to_string(), "d".to_string()]);
    // Bit-for-bit repeatable, not an artifact of wall-clock timing.
    assert_eq!(run(), (evicted, cached));
}

/// A decomposition whose plan was evicted re-plans transparently and
/// returns exactly the bits a never-evicted service returns; predictions
/// keep working after plan eviction because models outlive plans.
#[test]
fn replan_after_eviction_is_transparent_and_bit_identical() {
    let queries = vec![vec![0, 0, 0], vec![15, 13, 11], vec![7, 3, 9]];
    // Reference: a service whose cache never feels pressure.
    let mut reference = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
    reference.submit("t", ingest("a", 0));
    reference.submit("t", decompose("a", 42));
    let completions = reference.run_until_idle();
    assert_eq!(completions[1].plan_cache_hit, Some(true));
    let expected = decomposition(&completions[1].outcome).clone();

    // Pressured: room for one plan only, so ingesting `b` evicts `a`.
    let per_plan = plan_bytes();
    let mut svc = DecompositionService::new(
        ServiceOptions::new()
            .num_threads(1)
            .plan_cache_bytes(per_plan + per_plan / 2),
    )
    .unwrap();
    svc.submit("t", ingest("a", 0));
    svc.submit("t", ingest("b", 1));
    svc.submit("t", decompose("a", 42));
    let completions = svc.run_until_idle();
    // Ingesting `b` pushed `a` out (the solved session re-admitted after
    // the decomposition may push `b` out in turn; the first victim is
    // what this test arranges).
    assert_eq!(svc.stats().evicted_plans.first().unwrap(), "a");
    // The re-plan is invisible except to the cache counters...
    assert_eq!(completions[2].plan_cache_hit, Some(false));
    let replanned = decomposition(&completions[2].outcome);
    // ...and the factors are the reference bits exactly.
    assert_eq!(replanned.factors, expected.factors);
    assert_eq!(replanned.core.as_slice(), expected.core.as_slice());
    assert_eq!(replanned.fits, expected.fits);

    // Evict `a`'s plan again (ingest `b` refreshes nothing: re-ingest `b`),
    // then predict: the model lives in the registry, not the plan cache.
    svc.submit("t", ingest("b", 1));
    svc.submit(
        "t",
        Request::Predict {
            tensor_id: "a".into(),
            indices: queries.clone(),
        },
    );
    let completions = svc.run_until_idle();
    match completions[1].outcome.as_ref().unwrap() {
        Response::Predicted { values } => {
            assert_eq!(values, &expected.predict_many(&queries));
        }
        other => panic!("expected predictions, got {other:?}"),
    }
}

/// A tenant whose requests fail or expire must not be charged for work
/// never done, and the other tenants' responses must be bit-identical to a
/// replay without the poisoned load.
#[test]
fn poisoned_tenant_load_leaves_healthy_tenants_and_accounting_intact() {
    let healthy_requests = |svc: &mut DecompositionService| {
        svc.submit("healthy", ingest("h", 5));
        svc.submit("healthy", decompose("h", 77));
        svc.submit(
            "healthy",
            Request::Predict {
                tensor_id: "h".into(),
                indices: vec![vec![0, 0, 0], vec![15, 13, 11]],
            },
        );
    };

    // Reference: the healthy tenant alone.
    let mut reference = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
    healthy_requests(&mut reference);
    let expected = reference.run_until_idle();
    let expected_model = decomposition(&expected[1].outcome).clone();
    let expected_charge = reference.charged_flops().get("healthy").copied().unwrap();

    // Mixed load: the poisoned tenant interleaves an out-of-range predict,
    // a decompose after it, and a deadline that expired in the queue.
    let mut svc = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
    svc.submit("poisoned", ingest("p", 6));
    svc.submit("poisoned", decompose("p", 88));
    healthy_requests(&mut svc);
    svc.submit(
        "poisoned",
        Request::Predict {
            tensor_id: "p".into(),
            indices: vec![vec![500, 500, 500]],
        },
    );
    svc.submit("poisoned", decompose("p", 88));
    svc.submit(
        "poisoned",
        Request::Decompose {
            tensor_id: "p".into(),
            ranks: vec![3, 3, 3],
            seed: 88,
            max_iters: 3,
            deadline: Some(std::time::Duration::ZERO),
        },
    );
    let done = svc.run_until_idle();

    // The poisoned tenant's failures are answers, not outages: the
    // out-of-range predict is a typed error that quarantines nothing, so
    // the decompose after it is answered with the first one's bits.
    let poisoned: Vec<_> = done.iter().filter(|c| c.tenant == "poisoned").collect();
    assert!(matches!(
        poisoned[2].outcome,
        Err(TuckerError::IndexOutOfRange { .. })
    ));
    assert_eq!(
        decomposition(&poisoned[3].outcome).factors,
        decomposition(&poisoned[1].outcome).factors
    );
    assert!(matches!(
        poisoned[4].outcome,
        Err(TuckerError::DeadlineExpired { .. })
    ));
    for failure in [poisoned[2], poisoned[4]] {
        assert_eq!(
            failure.charged_flops, 0,
            "failed work must not charge the fairness account"
        );
    }

    // The healthy tenant's bits are exactly the solo-replay bits.
    let healthy: Vec<_> = done.iter().filter(|c| c.tenant == "healthy").collect();
    let model = decomposition(&healthy[1].outcome);
    assert_eq!(model.factors, expected_model.factors);
    assert_eq!(model.core.as_slice(), expected_model.core.as_slice());
    assert_eq!(model.fits, expected_model.fits);
    match healthy[2].outcome.as_ref().unwrap() {
        Response::Predicted { values } => {
            assert_eq!(
                values,
                &expected_model.predict_many(&[vec![0, 0, 0], vec![15, 13, 11]])
            );
        }
        other => panic!("expected predictions, got {other:?}"),
    }
    // ...and so is its fairness account.
    assert_eq!(
        svc.charged_flops().get("healthy").copied().unwrap(),
        expected_charge,
        "healthy tenant's account moved under poisoned load"
    );
    // The poisoned tenant is charged only for the work that completed
    // (ingest + the two decomposes), nothing for the failures.
    let charged_poisoned = svc.charged_flops().get("poisoned").copied().unwrap();
    let mut solo = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
    solo.submit("poisoned", ingest("p", 6));
    solo.submit("poisoned", decompose("p", 88));
    solo.submit("poisoned", decompose("p", 88));
    solo.run_until_idle();
    assert_eq!(
        charged_poisoned,
        solo.charged_flops().get("poisoned").copied().unwrap(),
        "failures must add zero to the poisoned tenant's account"
    );
    assert!(svc.stats().quarantined_tensors.is_empty());
    assert_eq!(svc.stats().panicked, 0);
}

/// N tenants hammering one shared service from real threads — submissions
/// and steps interleaved however the OS schedules them — must each get
/// bit-identical decompositions to a serial, single-tenant replay of their
/// own request stream.
#[test]
fn concurrent_tenants_match_serial_bit_for_bit() {
    const TENANTS: usize = 4;
    let options = || ServiceOptions::new().num_threads(2);
    let per_tenant_requests = |t: usize| {
        let id = format!("t{t}");
        vec![
            ingest(&id, t as u64),
            decompose(&id, 10 + t as u64),
            decompose(&id, 20 + t as u64),
        ]
    };

    // Serial reference: each tenant alone on a fresh service.
    let mut reference = Vec::new();
    for t in 0..TENANTS {
        let mut svc = DecompositionService::new(options()).unwrap();
        for request in per_tenant_requests(t) {
            svc.submit(&format!("t{t}"), request);
        }
        let done = svc.run_until_idle();
        reference.push(vec![
            decomposition(&done[1].outcome).clone(),
            decomposition(&done[2].outcome).clone(),
        ]);
    }

    // Concurrent: all tenants share one service behind a mutex, submitting
    // and stepping from their own threads.
    let svc = Arc::new(Mutex::new(DecompositionService::new(options()).unwrap()));
    let done = Arc::new(Mutex::new(Vec::new()));
    thread::scope(|scope| {
        for t in 0..TENANTS {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for request in per_tenant_requests(t) {
                    svc.lock().unwrap().submit(&format!("t{t}"), request);
                    // Interleave execution with everyone else's submissions.
                    if let Some(completed) = svc.lock().unwrap().step() {
                        done.lock().unwrap().push(completed);
                    }
                }
            });
        }
    });
    done.lock()
        .unwrap()
        .extend(svc.lock().unwrap().run_until_idle());

    let done = done.lock().unwrap();
    assert_eq!(done.len(), 3 * TENANTS);
    for t in 0..TENANTS {
        let tenant = format!("t{t}");
        let models: Vec<&TuckerDecomposition> = done
            .iter()
            .filter(|c| c.tenant == tenant && matches!(c.outcome, Ok(Response::Decomposed { .. })))
            .map(|c| decomposition(&c.outcome))
            .collect();
        assert_eq!(models.len(), 2, "tenant {tenant} lost a decomposition");
        // Per-tenant FIFO order: first completion is the seed-10+t solve.
        for (got, want) in models.iter().zip(&reference[t]) {
            assert_eq!(got.factors, want.factors, "tenant {tenant} diverged");
            assert_eq!(got.core.as_slice(), want.core.as_slice());
            assert_eq!(got.fits, want.fits);
        }
    }
}

/// The service's tensors arrive as `.tns` files read by
/// `read_tns_file_streamed` and handed to `Ingest`: a non-finite value stops
/// that flow at the reader with the line it is on, so no NaN ever reaches a
/// plan or a solve; the repaired file ingests and decomposes to a finite fit.
#[test]
fn non_finite_tns_values_stop_at_the_reader_before_ingest() {
    use tucker_repro::sptensor::io::TensorIoError;
    let path = std::env::temp_dir().join(format!("service_hostile_{}.tns", std::process::id()));
    write_tns_file(&tensor(7), &path).unwrap();
    let clean = std::fs::read_to_string(&path).unwrap();
    let mut svc = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
    for bad in ["nan", "inf", "-inf", "1e999"] {
        let hostile: Vec<String> = clean
            .lines()
            .enumerate()
            .map(|(i, line)| match (i, line.rsplit_once(' ')) {
                (41, Some((indices, _))) => format!("{indices} {bad}"),
                _ => line.to_string(),
            })
            .collect();
        std::fs::write(&path, hostile.join("\n")).unwrap();
        match read_tns_file_streamed(&path, &StreamOptions::new()) {
            Err(TensorIoError::Parse(42, msg)) => assert!(msg.contains(bad), "{msg}"),
            other => panic!("{bad}: expected a parse error on line 42, got {other:?}"),
        }
    }
    std::fs::write(&path, &clean).unwrap();
    let (repaired, _) = read_tns_file_streamed(&path, &StreamOptions::new()).unwrap();
    std::fs::remove_file(&path).ok();
    svc.submit(
        "tenant",
        Request::Ingest {
            tensor_id: "t".into(),
            tensor: Arc::new(repaired),
        },
    );
    svc.submit("tenant", decompose("t", 1));
    let done = svc.run_until_idle();
    assert!(decomposition(&done[1].outcome).final_fit().is_finite());
}

/// An in-memory tensor carrying a NaN never reaches a plan: the ingest
/// answers the typed error without charging the tenant, the id stays
/// unregistered, and the service keeps answering the tenant's requests.
#[test]
fn non_finite_in_memory_tensor_is_rejected_at_ingest() {
    let mut poisoned = random_tensor(&[16, 14, 12], 500, 3);
    *poisoned.value_mut(42) = f64::NAN;
    let mut svc = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
    svc.submit(
        "tenant",
        Request::Ingest {
            tensor_id: "bad".into(),
            tensor: Arc::new(poisoned),
        },
    );
    svc.submit("tenant", decompose("bad", 1));
    svc.submit("tenant", ingest("good", 3));
    svc.submit("tenant", decompose("good", 1));
    let done = svc.run_until_idle();
    assert_eq!(
        done[0].outcome.as_ref().unwrap_err(),
        &TuckerError::NonFiniteValue { nonzero: 42 }
    );
    assert_eq!(done[0].charged_flops, 0);
    assert!(matches!(
        done[1].outcome,
        Err(TuckerError::UnknownTensorId { .. })
    ));
    assert!(decomposition(&done[3].outcome).final_fit().is_finite());
    assert_eq!(svc.tensor_ids(), vec!["good".to_string()]);
}

/// A mode far too large for any allocator fails the ingest's plan with the
/// typed error naming it — it used to abort the whole process, every
/// tenant's requests with it — and the service answers the next request.
#[test]
fn impractical_modes_are_rejected_at_ingest_and_the_service_keeps_serving() {
    let mut svc = DecompositionService::new(ServiceOptions::new().num_threads(2)).unwrap();
    let huge = SparseTensor::from_entries(
        vec![2, 1 << 59, 2],
        &[
            (vec![0, 0, 0], 1.0),
            (vec![1, 5, 1], -0.5),
            (vec![0, 7, 1], 0.25),
        ],
    );
    svc.submit(
        "tenant",
        Request::Ingest {
            tensor_id: "huge".into(),
            tensor: Arc::new(huge),
        },
    );
    svc.submit("tenant", ingest("good", 3));
    svc.submit("tenant", decompose("good", 1));
    let done = svc.run_until_idle();
    match done[0].outcome.as_ref().unwrap_err() {
        TuckerError::BufferTooLarge { buffer } => {
            assert!(buffer.ends_with("of mode 1"), "{buffer}")
        }
        other => panic!("expected BufferTooLarge, got {other:?}"),
    }
    assert!(decomposition(&done[2].outcome).final_fit().is_finite());
    assert_eq!(svc.tensor_ids(), vec!["good".to_string()]);
}

/// A tensor whose finite values square out of the normal `f64` range —
/// overflowing, or underflowing to zero — never reaches a plan either: the
/// ingest answers the typed error uncharged and the id stays unregistered.
#[test]
fn out_of_range_norms_are_rejected_at_ingest() {
    let mut svc = DecompositionService::new(ServiceOptions::new().num_threads(1)).unwrap();
    for (id, scale) in [("huge", 1e160), ("tiny", 1e-200)] {
        let mut t = random_tensor(&[6, 5, 4], 40, 7);
        for nz in 0..t.nnz() {
            *t.value_mut(nz) *= scale;
        }
        let squared_norm = t.values().iter().map(|v| v * v).sum::<f64>();
        svc.submit(
            "tenant",
            Request::Ingest {
                tensor_id: id.into(),
                tensor: Arc::new(t),
            },
        );
        let done = svc.run_until_idle();
        assert_eq!(
            done[0].outcome.as_ref().unwrap_err(),
            &TuckerError::NormOutOfRange { squared_norm },
            "{id}"
        );
        assert_eq!(done[0].charged_flops, 0);
    }
    svc.submit("tenant", ingest("good", 3));
    svc.submit("tenant", decompose("good", 1));
    let done = svc.run_until_idle();
    assert!(decomposition(&done[1].outcome).final_fit().is_finite());
    assert_eq!(svc.tensor_ids(), vec!["good".to_string()]);
}

/// Tenants of the request-mix replay; tensor `t` belongs to tenant
/// `t % MIX_TENANTS`, so per-tenant FIFO order implies per-tensor order and
/// the responses are a function of the mix alone.
const MIX_TENANTS: usize = 3;

/// The replayed tensors: small enough for a debug build, with plan
/// footprints that differ from tensor to tensor.
fn mix_pool(count: usize) -> Vec<Arc<SparseTensor>> {
    (0..count)
        .map(|i| {
            let dims = [14 + 2 * (i % 3), 12 + 2 * (i % 4), 10 + i % 5];
            Arc::new(random_tensor(&dims, 300 + 100 * (i % 4), 50 + i as u64))
        })
        .collect()
}

/// The service request for the `index`-th event of the mix; predict
/// queries are a fixed function of the event index.
fn mix_request(event: &RequestEvent, index: usize, pool: &[Arc<SparseTensor>]) -> Request {
    let tensor_id = format!("tensor{}", event.tensor);
    let tensor = &pool[event.tensor];
    match event.kind {
        RequestKind::Ingest => Request::Ingest {
            tensor_id,
            tensor: Arc::clone(tensor),
        },
        RequestKind::Decompose {
            rank,
            max_iters,
            seed,
        } => Request::Decompose {
            tensor_id,
            ranks: vec![rank; tensor.order()],
            seed,
            max_iters,
            deadline: None,
        },
        RequestKind::Predict { queries } => Request::Predict {
            tensor_id,
            indices: (0..queries)
                .map(|q| {
                    let dims = tensor.dims().iter().enumerate();
                    dims.map(|(m, &d)| (31 * index + 7 * q + 13 * m) % d)
                        .collect()
                })
                .collect(),
        },
        RequestKind::Evict => Request::Evict { tensor_id },
    }
}

/// What a tenant consumes from a response, as bits.  The cache-state
/// fields (`plan_bytes`, `plan_was_cached`, `plan_cache_hit`) describe the
/// cache, not the answer, and are left out.
fn response_bits(outcome: &Result<Response, TuckerError>) -> Result<Vec<u64>, TuckerError> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    Ok(match outcome.as_ref().map_err(Clone::clone)? {
        Response::Ingested { .. } | Response::Evicted { .. } => Vec::new(),
        Response::Decomposed {
            decomposition,
            truncated,
        } => {
            let mut v = vec![decomposition.iterations as u64, *truncated as u64];
            v.extend(bits(decomposition.core.as_slice()));
            for factor in &decomposition.factors {
                v.extend(bits(factor.as_slice()));
            }
            v
        }
        Response::Predicted { values } => bits(values),
    })
}

/// One replay of a request mix.
struct Replay {
    /// Response bits by request id (ids follow submission order).
    responses: BTreeMap<u64, Result<Vec<u64>, TuckerError>>,
    /// Largest plan footprint an ingest reported.
    max_plan_bytes: usize,
    /// Steps that served a tenant charged above the least-charged
    /// backlogged tenant.
    unfair_picks: usize,
    stats: ServiceStats,
}

/// Submits the mix `window` requests at a time, stepping the service dry
/// after each window and checking every pick against the tenants'
/// accounts read just before the step.
fn replay(
    events: &[RequestEvent],
    pool: &[Arc<SparseTensor>],
    options: ServiceOptions,
    window: usize,
) -> Replay {
    let mut svc = DecompositionService::new(options).unwrap();
    let mut responses = BTreeMap::new();
    let (mut max_plan_bytes, mut unfair_picks) = (0, 0);
    for (w, chunk) in events.chunks(window).enumerate() {
        for (i, event) in chunk.iter().enumerate() {
            let request = mix_request(event, w * window + i, pool);
            svc.submit(&format!("tenant{}", event.tensor % MIX_TENANTS), request);
        }
        loop {
            let backlogged = svc.pending_by_tenant();
            let charged = svc.charged_flops().clone();
            let charge = |tenant: &String| charged.get(tenant).copied().unwrap_or(0);
            let Some(least) = backlogged.keys().map(charge).min() else {
                break;
            };
            let done = svc.step().expect("a backlogged service steps");
            unfair_picks += usize::from(charge(&done.tenant) > least);
            if let Ok(Response::Ingested {
                plan_bytes: Some(bytes),
                ..
            }) = done.outcome
            {
                max_plan_bytes = max_plan_bytes.max(bytes);
            }
            responses.insert(done.request_id, response_bits(&done.outcome));
        }
    }
    Replay {
        responses,
        max_plan_bytes,
        unfair_picks,
        stats: svc.stats(),
    }
}

/// A Zipf-skewed multi-tenant mix of ingests, decompositions, predictions
/// and evictions answers bit-identically whether it is submitted in small
/// windows under a roomy cache or all up front (the widest reordering
/// freedom) under a cache squeezed to 1.5× the largest plan — which must
/// really evict and re-plan — and the scheduler never serves a tenant
/// charged above the least-charged backlogged one.
#[test]
fn request_mix_replays_bit_identically_under_reordering_and_cache_pressure() {
    const TENSORS: usize = 6;
    let events = request_mix(&RequestMixSpec::new(MIX_TENANTS, TENSORS, 120, 1));
    let pool = mix_pool(TENSORS);
    let options = || ServiceOptions::new().num_threads(2);
    let windowed = replay(&events, &pool, options(), 8);
    let budget = windowed.max_plan_bytes + windowed.max_plan_bytes / 2;
    let squeezed = replay(
        &events,
        &pool,
        options().plan_cache_bytes(budget),
        events.len(),
    );

    assert_eq!(windowed.responses.len(), events.len());
    assert!(windowed.stats.decomposes > 0 && windowed.stats.predicts > 0);
    assert!(
        squeezed.responses == windowed.responses,
        "responses diverged between the windowed and the squeezed replay"
    );
    assert!(
        !squeezed.stats.evicted_plans.is_empty(),
        "the squeezed cache never evicted"
    );
    assert!(
        squeezed.stats.plan_cache_misses > 0,
        "the squeezed cache never re-planned"
    );
    assert_eq!((windowed.unfair_picks, squeezed.unfair_picks), (0, 0));
}
