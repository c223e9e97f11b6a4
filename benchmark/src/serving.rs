//! The `service-mix` workload: a fresh `DecompositionService` per cycle,
//! twelve tensors ingested from `.tns`, then one replay of the seeded
//! request stream in windows, one client, closed loop.

use crate::host;
use crate::metrics::{Gate, Measured};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    owner, request_stream, seeded_tensor, service_tensor, tensor_checksum, Event, Fnv, Op,
    ServiceSpec, ServiceTensor,
};
use crate::RunArgs;
use hooi::{PlanOptions, TuckerConfig, TuckerDecomposition, TuckerSolver};
use service::{Completed, DecompositionService, Request, Response, ServiceOptions, ServiceStats};
use sptensor::io::{read_tns_file_streamed, write_tns_file_with_header, StreamOptions};
use sptensor::SparseTensor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Requests a run must answer: with 1 500, 15 latencies lie beyond p99.
const MIN_REQUESTS: usize = 1_500;

struct Input {
    tensors: Vec<ServiceTensor>,
    paths: Vec<PathBuf>,
    dims: Vec<Vec<usize>>,
    checksums: Vec<u64>,
    file_bytes: Vec<u64>,
    /// Plan-cache budget: `cache_share` of the summed plan footprints.
    budget: usize,
    stream: Vec<Event>,
}

fn tensor_id(t: usize) -> String {
    format!("tensor-{t:02}")
}

fn tenant_name(tenant: usize) -> String {
    format!("tenant-{tenant}")
}

fn prepare(spec: &ServiceSpec, seed: u64, dir: &Path, width: usize) -> Result<Input, String> {
    let mut input = Input {
        tensors: Vec::new(),
        paths: Vec::new(),
        dims: Vec::new(),
        checksums: Vec::new(),
        file_bytes: Vec::new(),
        budget: 0,
        stream: Vec::new(),
    };
    let mut footprints = 0usize;
    for t in 0..spec.tensors {
        let st = service_tensor(spec, t);
        let salt = (t as u64 + 1).wrapping_mul(0x9e37_79b9);
        let tensor = seeded_tensor(st.profile, None, st.nnz, salt, seed);
        let path = dir.join(format!("{}.tns", tensor_id(t)));
        write_tns_file_with_header(&tensor, &path).map_err(|e| e.to_string())?;
        footprints += TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(width))
            .map_err(|e| e.to_string())?
            .memory_bytes();
        input
            .file_bytes
            .push(std::fs::metadata(&path).map_err(|e| e.to_string())?.len());
        input.checksums.push(tensor_checksum(&tensor));
        input.dims.push(tensor.dims().to_vec());
        input.paths.push(path);
        input.tensors.push(st);
    }
    input.budget = (footprints as f64 * spec.cache_share) as usize;
    input.stream = request_stream(spec, &input.dims, seed);
    Ok(input)
}

/// Digest of everything a response carries: two replays agree exactly when
/// every request was answered with the same bits.
fn fingerprint(outcome: &Result<Response, hooi::TuckerError>) -> u64 {
    let mut h = Fnv::new();
    match outcome {
        Ok(Response::Ingested { plan_bytes, .. }) => {
            h.write_u64(1);
            h.write_u64(plan_bytes.map_or(u64::MAX, |b| b as u64));
        }
        Ok(Response::Decomposed {
            decomposition,
            truncated,
        }) => {
            h.write_u64(2);
            h.write_u64(u64::from(*truncated));
            h.write_u64(decomposition_digest(decomposition));
        }
        Ok(Response::Predicted { values }) => {
            h.write_u64(3);
            h.write_f64s(values);
        }
        Ok(Response::Evicted {
            plan_was_cached, ..
        }) => {
            h.write_u64(4);
            h.write_u64(u64::from(*plan_was_cached));
        }
        Err(_) => h.write_u64(0),
    }
    h.finish()
}

fn decomposition_digest(d: &TuckerDecomposition) -> u64 {
    let mut h = Fnv::new();
    h.write_f64s(&d.fits);
    h.write_f64s(d.core.as_slice());
    for factor in &d.factors {
        h.write_f64s(factor.as_slice());
    }
    h.finish()
}

/// One answered request of a replay.
struct Answer {
    /// `Request::kind_name()` of the request answered.
    kind: &'static str,
    fingerprint: u64,
    decomposition: Option<u64>,
    /// Submit → response, submit → start of its `step()`, and the `step()`.
    latency_s: f64,
    queue_wait_s: f64,
    service_s: f64,
}

#[derive(Default)]
struct Cycle {
    calib: f64,
    setup: Option<f64>,
    e2e: Option<f64>,
    replay_s: Option<f64>,
    new_s: f64,
    /// Seconds and bytes of `.tns` reading, set-up and re-ingests together.
    read_s: f64,
    read_bytes: u64,
    peak_parse_bytes: usize,
    ingest_steps_s: Vec<f64>,
    /// Indexed by request id, set-up ingests first; `None` until answered.
    answers: Vec<Option<Answer>>,
    fit: f64,
    plan_bytes: usize,
    stats: ServiceStats,
    spans_on: bool,
    bare_decomposes_s: Option<f64>,
}

struct Harness<'a> {
    spec: &'a ServiceSpec,
    input: &'a Input,
    width: usize,
}

impl Harness<'_> {
    fn decompose_request(&self, t: usize, seed: u64) -> Request {
        let st = &self.input.tensors[t];
        Request::Decompose {
            tensor_id: tensor_id(t),
            ranks: vec![st.rank; self.input.dims[t].len()],
            seed,
            max_iters: st.max_iters,
            deadline: None,
        }
    }

    /// Reads tensor `t`'s file, booking the time and bytes to the cycle.
    fn read(
        &self,
        t: usize,
        out: &mut Cycle,
        tr: &mut Tracer,
        gate: &mut Gate,
    ) -> Option<Arc<SparseTensor>> {
        let started = Instant::now();
        let span = tr.enter("io.ingest");
        let read = read_tns_file_streamed(&self.input.paths[t], &StreamOptions::new());
        tr.exit(span);
        out.read_s += started.elapsed().as_secs_f64();
        out.read_bytes += self.input.file_bytes[t];
        let (tensor, stats) = gate.ok("read_tns_file_streamed", read)?;
        out.peak_parse_bytes = out.peak_parse_bytes.max(stats.peak_buffer_bytes);
        Some(Arc::new(tensor))
    }

    fn cycle(&self, tr: &mut Tracer, gate: &mut Gate) -> Cycle {
        let mut out = Cycle {
            spans_on: tr.enabled(),
            ..Cycle::default()
        };
        let whole = tr.enter("cycle");
        let span = tr.enter("calib");
        out.calib = host::calibration_seconds();
        tr.exit(span);

        let t0 = Instant::now();
        let span = tr.enter("service.new");
        let built = DecompositionService::new(
            ServiceOptions::new()
                .num_threads(self.width)
                .plan_cache_bytes(self.input.budget),
        );
        tr.exit(span);
        out.new_s = t0.elapsed().as_secs_f64();
        let Some(mut service) = gate.ok("DecompositionService::new", built) else {
            tr.exit(whole);
            return out;
        };
        let mut submitted: Vec<(Instant, &'static str)> = Vec::new();
        let mut ingested: Vec<(usize, Arc<SparseTensor>)> = Vec::new();
        for t in 0..self.spec.tensors {
            let span = tr.enter("service.ingest");
            if let Some(tensor) = self.read(t, &mut out, tr, gate) {
                ingested.push((t, Arc::clone(&tensor)));
                let request = Request::Ingest {
                    tensor_id: tensor_id(t),
                    tensor,
                };
                submitted.push((Instant::now(), request.kind_name()));
                service.submit(&tenant_name(owner(self.spec, t)), request);
                let t_step = Instant::now();
                let done = service.step();
                out.ingest_steps_s.push(t_step.elapsed().as_secs_f64());
                self.record(&mut out, &submitted, t_step, done, gate);
            }
            tr.exit(span);
        }
        out.setup = Some(t0.elapsed().as_secs_f64());

        let t_replay = Instant::now();
        let span = tr.enter("replay");
        for window in self.input.stream.chunks(self.spec.window) {
            for event in window {
                let request = match &event.op {
                    Op::Ingest => match self.read(event.tensor, &mut out, tr, gate) {
                        Some(tensor) => {
                            ingested.push((event.tensor, Arc::clone(&tensor)));
                            Request::Ingest {
                                tensor_id: tensor_id(event.tensor),
                                tensor,
                            }
                        }
                        None => continue,
                    },
                    Op::Decompose { seed } => self.decompose_request(event.tensor, *seed),
                    Op::Predict { indices } => Request::Predict {
                        tensor_id: tensor_id(event.tensor),
                        indices: indices.clone(),
                    },
                    Op::Evict => Request::Evict {
                        tensor_id: tensor_id(event.tensor),
                    },
                };
                let span = tr.enter("service.submit");
                submitted.push((Instant::now(), request.kind_name()));
                service.submit(&tenant_name(event.tenant), request);
                tr.exit(span);
            }
            while service.pending_requests() > 0 {
                let span = tr.enter("service.step");
                let t_step = Instant::now();
                let done = service.step();
                tr.exit(span);
                let first_decompose = out.e2e.is_none()
                    && matches!(
                        done.as_ref().map(|c| &c.outcome),
                        Some(Ok(Response::Decomposed { .. }))
                    );
                if first_decompose {
                    out.e2e = Some(t0.elapsed().as_secs_f64());
                }
                self.record(&mut out, &submitted, t_step, done, gate);
            }
        }
        tr.exit(span);
        out.replay_s = Some(t_replay.elapsed().as_secs_f64());

        out.stats = service.stats();
        let fits: Vec<f64> = (0..self.spec.tensors)
            .filter_map(|t| service.latest(&tensor_id(t)).map(|d| d.final_fit()))
            .collect();
        gate.check(fits.len() == self.spec.tensors, || {
            format!(
                "only {} of the tensors hold a model after the replay",
                fits.len()
            )
        });
        out.fit = fits.iter().sum::<f64>() / fits.len().max(1) as f64;
        drop(service);

        for (t, tensor) in &ingested {
            gate.check(
                tensor.dims() == self.input.dims[*t]
                    && tensor_checksum(tensor) == self.input.checksums[*t],
                || format!("streamed {} differs from the generated one", tensor_id(*t)),
            );
        }
        tr.exit(whole);
        out
    }

    /// Books one `step()`: the request must have been answered `Ok`.
    fn record(
        &self,
        out: &mut Cycle,
        submitted: &[(Instant, &'static str)],
        t_step: Instant,
        done: Option<Completed>,
        gate: &mut Gate,
    ) {
        let now = Instant::now();
        gate.check(done.is_some(), || "step() found an empty queue".to_string());
        let Some(done) = done else { return };
        gate.check(done.outcome.is_ok(), || {
            format!(
                "request {} of {} failed: {}",
                done.request_id,
                done.tenant,
                done.outcome
                    .as_ref()
                    .err()
                    .map_or(String::new(), |e| e.to_string())
            )
        });
        let id = done.request_id as usize;
        let (t_submit, kind) = submitted[id];
        let decomposition = match &done.outcome {
            Ok(Response::Decomposed { decomposition, .. }) => {
                Some(decomposition_digest(decomposition))
            }
            // The footprint of every session as set-up planned it: unlike
            // what the cache happens to hold at the end, it does not jump
            // when one plan more or less fits the budget.
            Ok(Response::Ingested { plan_bytes, .. }) if id < self.spec.tensors => {
                out.plan_bytes += plan_bytes.unwrap_or(0);
                None
            }
            _ => None,
        };
        let answer = Answer {
            kind,
            fingerprint: fingerprint(&done.outcome),
            decomposition,
            latency_s: (now - t_submit).as_secs_f64(),
            queue_wait_s: (t_step - t_submit).as_secs_f64(),
            service_s: (now - t_step).as_secs_f64(),
        };
        // Requests complete out of submission order across tenants; keep
        // answers addressable by request id.
        if out.answers.len() <= id {
            out.answers.resize_with(id + 1, || None);
        }
        out.answers[id] = Some(answer);
    }

    /// The first `events` events' decomposes on bare, already planned
    /// sessions: what the same numerical work costs without registry, cache,
    /// scheduler and re-plans — and each must equal the service's answer bit
    /// for bit.
    fn bare_decomposes(&self, events: usize, cycle: &Cycle, gate: &mut Gate) -> Option<f64> {
        let mut tensors = Vec::new();
        for path in &self.input.paths {
            let read = read_tns_file_streamed(path, &StreamOptions::new());
            tensors.push(gate.ok("read_tns_file_streamed (bare)", read)?.0);
        }
        let mut sessions = Vec::new();
        for tensor in &tensors {
            let plan = TuckerSolver::plan(tensor, PlanOptions::new().num_threads(self.width));
            sessions.push(gate.ok("TuckerSolver::plan (bare)", plan)?);
        }
        let mut total = 0.0;
        // Set-up's ingests took the first request ids, the stream the next.
        let stream_ids = self.spec.tensors..;
        for (request_id, event) in stream_ids.zip(self.input.stream.iter().take(events)) {
            if let Op::Decompose { seed } = event.op {
                let st = &self.input.tensors[event.tensor];
                let config = TuckerConfig::new(vec![st.rank; self.input.dims[event.tensor].len()])
                    .max_iterations(st.max_iters)
                    .seed(seed);
                let t = Instant::now();
                let solved = sessions[event.tensor].solve(&config);
                total += t.elapsed().as_secs_f64();
                let d = gate.ok("solve (bare)", solved)?;
                let served = cycle
                    .answers
                    .get(request_id)
                    .and_then(|a| a.as_ref()?.decomposition);
                gate.check(served == Some(decomposition_digest(&d)), || {
                    format!("request {request_id}: the service's model differs from a bare solve")
                });
            }
        }
        Some(total)
    }
}

pub fn run(
    spec: &ServiceSpec,
    args: &RunArgs,
    dir: &Path,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Measured {
    let mut m = Measured::default();
    let width = host::pool_width();
    let t = Instant::now();
    let input = gate
        .ok("prepare", prepare(spec, args.seed, dir, width))
        .unwrap_or_else(|| crate::die("cannot write the workload's inputs"));
    m.exact("run.prepare_s", t.elapsed().as_secs_f64());
    m.note("tensors", spec.tensors);
    m.note("tenants", spec.tenants);
    m.note("stream_requests", input.stream.len());
    m.note("plan_cache_budget_bytes", input.budget);
    let harness = Harness {
        spec,
        input: &input,
        width,
    };

    // One untimed cycle; its answers are what every later replay must
    // repeat.
    let traced = tr.enabled();
    let reference = harness.cycle(tr, gate);
    tr.clear();

    let mut cycles: Vec<Cycle> = Vec::new();
    let budget = args.loop_budget();
    let started = Instant::now();
    // A full-size run also goes on until `MIN_REQUESTS` were answered (a
    // traced run's cycle floor alone would stop short of them).
    let requests_per_cycle = input.stream.len();
    while args.wants_another_cycle(started.elapsed().as_secs_f64(), cycles.len(), budget)
        || (!args.smoke && cycles.len() * requests_per_cycle < MIN_REQUESTS)
    {
        let number = cycles.len() as u32 + 1;
        tr.set_cycle(number);
        // Spans on in odd cycles only: the even ones are the untraced
        // replays `trace.overhead_share` compares against.
        tr.set_enabled(traced && number % 2 == 1);
        let cycle = harness.cycle(tr, gate);
        let broken = cycle.replay_s.is_none() || cycle.e2e.is_none();
        cycles.push(cycle);
        if broken {
            break;
        }
    }
    tr.set_enabled(traced);
    tr.set_cycle(0);
    m.cycles = cycles.len();
    m.calib = cycles.iter().map(|c| c.calib).collect();

    // Every replay answers every request with the bits of the first.
    for cycle in &cycles {
        gate.check(cycle.answers.len() == reference.answers.len(), || {
            format!(
                "a replay answered {} requests, the first {}",
                cycle.answers.len(),
                reference.answers.len()
            )
        });
        for (id, (a, b)) in cycle.answers.iter().zip(&reference.answers).enumerate() {
            let fingerprint = |x: &Option<Answer>| x.as_ref().map(|a| a.fingerprint);
            gate.check(a.is_some() && fingerprint(a) == fingerprint(b), || {
                format!("request {id} was answered differently than in the first replay")
            });
        }
    }

    let setup: Vec<f64> = cycles.iter().filter_map(|c| c.setup).collect();
    let e2e: Vec<f64> = cycles.iter().filter_map(|c| c.e2e).collect();
    let steady: Vec<f64> = cycles.iter().filter_map(|c| c.replay_s).collect();
    let plan_bytes = cycles.last().map_or(0, |c| c.plan_bytes);
    let fit = cycles.last().map_or(0.0, |c| c.fit);
    gate.check(
        cycles
            .iter()
            .all(|c| c.plan_bytes == plan_bytes && c.fit.to_bits() == fit.to_bits()),
        || "fit or cached plan bytes changed between replays".to_string(),
    );
    if let Some(expected) = args.reference_fit() {
        gate.check(((fit - expected) / expected).abs() <= 1e-6, || {
            format!(
                "fit {fit} is not the reference {expected} of seed {}",
                args.seed
            )
        });
    }

    // Against bare solver sessions: the whole stream in a traced run (it is
    // the denominator of `service.overhead_ratio`), the priming decomposes —
    // one per tensor — otherwise.
    let t = Instant::now();
    let checked = if args.trace {
        input.stream.len()
    } else {
        spec.tensors
    };
    let mut last = cycles.pop();
    if let Some(cycle) = last.as_mut() {
        cycle.bare_decomposes_s = harness.bare_decomposes(checked, cycle, gate);
    }
    cycles.extend(last);
    m.exact("run.verify_s", t.elapsed().as_secs_f64());

    if args.trace {
        m.timed("run.setup_s", &setup);
        m.timed("run.e2e_s", &e2e);
        m.timed("run.steady_s", &steady);
        m.exact("plan.bytes", plan_bytes as f64);
        layer_metrics(&mut m, &harness, &cycles);
    } else {
        m.timed("setup_s", &setup);
        m.timed("e2e_s", &e2e);
        m.timed("steady_s", &steady);
        m.exact("fit", fit);
        m.exact("plan_bytes", plan_bytes as f64);
    }
    m
}

fn layer_metrics(m: &mut Measured, harness: &Harness, cycles: &[Cycle]) {
    let Some(last) = cycles.last() else { return };
    let first_stream_id = harness.spec.tensors;
    let ms = |f: fn(&Answer) -> f64, kind: Option<&str>| -> Vec<f64> {
        cycles
            .iter()
            .flat_map(|c| c.answers.iter().skip(first_stream_id).flatten())
            .filter(|a| kind.is_none_or(|k| a.kind == k))
            .map(|a| f(a) * 1e3)
            .collect()
    };
    m.sampled(
        "service.new_s",
        &cycles.iter().map(|c| c.new_s).collect::<Vec<_>>(),
    );
    let ingest_steps: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.ingest_steps_s.iter().map(|s| s * 1e3))
        .collect();
    m.exact("service.ingest_p50_ms", median(&ingest_steps));
    let decompose = ms(|a| a.service_s, Some("decompose"));
    m.exact("service.decompose_p50_ms", median(&decompose));
    m.exact("service.decompose_p95_ms", percentile(&decompose, 0.95));
    m.exact(
        "service.predict_p50_ms",
        median(&ms(|a| a.service_s, Some("predict"))),
    );
    let latency = ms(|a| a.latency_s, None);
    m.exact("service.req_p50_ms", median(&latency));
    m.exact("service.req_p95_ms", percentile(&latency, 0.95));
    m.exact("service.req_p99_ms", percentile(&latency, 0.99));
    m.exact("service.requests", latency.len() as f64);
    m.exact(
        "service.queue_wait_p50_ms",
        median(&ms(|a| a.queue_wait_s, None)),
    );
    m.exact("service.cache_hit_ratio", last.stats.cache_hit_rate());
    m.exact("service.replans", last.stats.plan_cache_misses as f64);
    m.exact("service.evictions", last.stats.evicted_plans.len() as f64);
    m.exact("service.fairness_spread", last.stats.fairness_spread());
    let replays: Vec<f64> = cycles.iter().filter_map(|c| c.replay_s).collect();
    if let Some(bare) = last.bare_decomposes_s {
        m.exact("service.overhead_ratio", median(&replays) / bare);
    }
    let replays_with = |spans_on: bool| -> Vec<f64> {
        cycles
            .iter()
            .filter(|c| c.spans_on == spans_on)
            .filter_map(|c| c.replay_s)
            .collect()
    };
    let (on, off) = (replays_with(true), replays_with(false));
    if !on.is_empty() && !off.is_empty() {
        m.exact("trace.overhead_share", median(&on) / median(&off) - 1.0);
    }
    m.sampled(
        "io.ingest_s",
        &cycles.iter().map(|c| c.read_s).collect::<Vec<_>>(),
    );
    m.sampled(
        "io.ingest_mb_s",
        &cycles
            .iter()
            .map(|c| c.read_bytes as f64 / 1e6 / c.read_s)
            .collect::<Vec<_>>(),
    );
    m.exact(
        "io.peak_parse_words",
        cycles.iter().map(|c| c.peak_parse_bytes).max().unwrap_or(0) as f64 / 8.0,
    );
}
