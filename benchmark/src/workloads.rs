//! The four workloads and their seeded inputs.  Everything the program
//! under test sees is generated here from `--seed` and written to `.tns`
//! files; sizes, ranks and iteration counts are constants of the benchmark.
//!
//! Every seed poses the *same problem under another labelling*: a workload's
//! base tensor comes from a constant, and the seed permutes each mode's
//! indices and the order of the nonzeros.  Two seeds therefore give
//! different files with the same nonzeros per row, the same TTMc flops and
//! the same singular values — the times of two seeds are comparable, which
//! independently drawn tensors' are not (their Lanczos solves take
//! different numbers of operator applications, and a solve's time moves by
//! ±6 % with them).

use datagen::{DatasetProfile, ProfileName, ZipfSampler};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sptensor::SparseTensor;

pub const NAMES: [&str; 4] = ["nell3", "dense3", "delicious4", "service-mix"];

/// HOOI iterations of every solver-workload solve: fixed work
/// (`fit_tolerance(0.0)` never stops early), so a time difference is a
/// speed difference.
pub const SOLVE_ITERATIONS: usize = 3;

/// One solver workload: a skewed tensor decomposed at a uniform rank.
#[derive(Debug, Clone)]
pub struct SolverSpec {
    /// Whose per-mode Zipf skews (and, without `dims`, whose shape) to use.
    pub profile: ProfileName,
    /// Explicit mode sizes; `None` takes the profile's sqrt-scaled ones.
    pub dims: Option<&'static [usize]>,
    pub nnz: usize,
    pub rank: usize,
    /// Warm solves per cycle, each one `steady_s` sample.
    pub warm_solves: usize,
}

/// The service workload: tenants, tensors and the request stream's shape.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    pub tenants: usize,
    pub tensors: usize,
    /// Smallest and largest tensor, in nonzeros; sizes step evenly between.
    pub nnz_range: (usize, usize),
    /// Work events per replay, before the re-ingest and re-decompose that
    /// follow every eviction are inserted on top.
    pub events: usize,
    /// Requests submitted before the queue is drained with `step()`.
    pub window: usize,
    /// Plan-cache budget as a share of the summed plan footprints.
    pub cache_share: f64,
}

#[derive(Debug, Clone)]
pub enum Workload {
    Solver(SolverSpec),
    Service(ServiceSpec),
}

/// The workload called `name`; `smoke` shrinks it to a few seconds through
/// the same code paths.  Full sizes are the issue's with nnz trimmed (shapes,
/// solver ranks and iteration counts kept) until a cycle takes about 2.3 s
/// on a 2-vCPU host: a 24-second run then holds 10 cycles, and still
/// finishes them when the host slows to half speed (README, "Sizes against
/// the issue").
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let shrink = |nnz: usize| if smoke { nnz / 25 } else { nnz };
    Some(match name {
        // Tall-skinny Y_(n): TRSVD and linalg::blas own the solve.
        "nell3" => Workload::Solver(SolverSpec {
            profile: ProfileName::Nell,
            dims: None,
            nnz: shrink(300_000),
            rank: 10,
            warm_solves: 1,
        }),
        // Hundreds of nonzeros per row: TTMc and the dimension tree own the
        // solve, ingest and plan own the cold path.
        "dense3" => Workload::Solver(SolverSpec {
            profile: ProfileName::Netflix,
            dims: Some(&[3000, 1000, 150]),
            nnz: shrink(1_000_000),
            rank: 10,
            warm_solves: 3,
        }),
        // Order 4 at a rank that is not a multiple of the SIMD width, the
        // 7-node tree with invalidation, the largest plan.
        "delicious4" => Workload::Solver(SolverSpec {
            profile: ProfileName::Delicious,
            dims: Some(&[64, 8000, 120_000, 24_000]),
            nnz: shrink(600_000),
            rank: 5,
            warm_solves: 1,
        }),
        // Fixed per-call cost, cache evictions and re-plans.
        "service-mix" => Workload::Service(ServiceSpec {
            tenants: 4,
            tensors: 12,
            nnz_range: (shrink(10_000), shrink(40_000)),
            events: if smoke { 48 } else { 160 },
            window: 8,
            cache_share: 0.6,
        }),
        _ => return None,
    })
}

/// A tensor with `profile`'s skews; with explicit `dims` the profile is
/// re-based so its generator scales nothing.
fn skewed_tensor(
    profile: ProfileName,
    dims: Option<&[usize]>,
    nnz: usize,
    seed: u64,
) -> SparseTensor {
    let mut p = DatasetProfile::new(profile);
    if let Some(dims) = dims {
        p.full_dims = dims.to_vec();
        p.full_nnz = nnz;
    }
    p.generate(nnz, seed)
}

/// Seed of every base tensor (salted per tensor on `service-mix`).
const BASE_SEED: u64 = 0x7e45_0b5e;

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..i + 1));
    }
    p
}

/// The tensor `--seed` stands for: the base tensor of (`profile`, `dims`,
/// `nnz`, `salt`) with every mode relabelled and the nonzeros reordered by
/// permutations drawn from `seed`.
pub fn seeded_tensor(
    profile: ProfileName,
    dims: Option<&[usize]>,
    nnz: usize,
    salt: u64,
    seed: u64,
) -> SparseTensor {
    let base = skewed_tensor(profile, dims, nnz, BASE_SEED ^ salt);
    let mut rng = SmallRng::seed_from_u64(seed ^ salt ^ 0x1abe_11ed);
    let relabel: Vec<Vec<usize>> = base
        .dims()
        .iter()
        .map(|&d| permutation(d, &mut rng))
        .collect();
    let mut out = SparseTensor::with_capacity(base.dims().to_vec(), base.nnz());
    let mut index = vec![0usize; base.order()];
    for t in permutation(base.nnz(), &mut rng) {
        for (mode, &i) in base.index(t).iter().enumerate() {
            index[mode] = relabel[mode][i];
        }
        out.push(&index, base.value(t));
    }
    out
}

/// Order-independent digest of a tensor's coordinates and value bits: what
/// "the streamed tensor equals the generated one" compares besides dims
/// and nnz.
pub fn tensor_checksum(tensor: &SparseTensor) -> u64 {
    tensor
        .iter()
        .map(|(index, value)| {
            let mut h = Fnv::new();
            for &i in index {
                h.write_u64(i as u64);
            }
            h.write_u64(value.to_bits());
            h.finish()
        })
        .fold(0u64, u64::wrapping_add)
}

/// FNV-1a, 64 bit: the fingerprint of tensors and service responses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_f64s(&mut self, values: &[f64]) {
        for v in values {
            self.write_u64(v.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The service workload's tensor `t`: which profile, how large, and the
/// decomposition its owner asks for.  Functions of `t` alone — the seed
/// changes what the tensors contain and who asks when, not how much work a
/// replay is.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTensor {
    pub profile: ProfileName,
    pub nnz: usize,
    pub rank: usize,
    pub max_iters: usize,
}

pub fn service_tensor(spec: &ServiceSpec, t: usize) -> ServiceTensor {
    let profile = [ProfileName::Netflix, ProfileName::Nell, ProfileName::Flickr][t % 3];
    let (lo, hi) = spec.nnz_range;
    let nnz = lo + (hi - lo) * t / (spec.tensors - 1).max(1);
    let step = (t / 3) % 3;
    let rank = if profile == ProfileName::Flickr {
        2 + step // order 4
    } else {
        [3, 4, 6][step]
    };
    ServiceTensor {
        profile,
        nnz,
        rank,
        max_iters: 2 + t % 2,
    }
}

/// The tenant every request on tensor `t` comes from.  The service serves
/// each tenant first-in first-out, so one owner per tensor keeps that
/// tensor's requests in stream order under any cross-tenant scheduling.
pub fn owner(spec: &ServiceSpec, t: usize) -> usize {
    t % spec.tenants
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Read the tensor's `.tns` file and register it.
    Ingest,
    Decompose {
        seed: u64,
    },
    Predict {
        indices: Vec<Vec<usize>>,
    },
    Evict,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub tenant: usize,
    pub tensor: usize,
    pub op: Op,
}

/// Share of sampled work events that evict (each followed by a re-ingest
/// and a decompose on top) and that decompose; the rest predict.  With the
/// priming and the follow-up decomposes, of the ~175 requests of a replay
/// about a third decompose, 60 % predict and the rest evict or re-ingest.
const EVICT_SHARE: f64 = 0.05;
const DECOMPOSE_SHARE: f64 = 0.24;

/// The request stream of one replay, replayed against a service that has
/// just ingested every tensor.  Built so no request can fail: every tensor
/// is decomposed once up front, a decompose follows every re-ingest before
/// anything else names that tensor, and all of a tensor's requests come
/// from its owner.
///
/// Who asks for what in which order is a constant of the benchmark, like the
/// tensors' sizes: it decides how much work a replay is (a stream drawn
/// anew per seed moved `steady_s` by ±20 %).  The seed draws the initial
/// factors of every decompose and the coordinates of every predict.
pub fn request_stream(spec: &ServiceSpec, dims: &[Vec<usize>], seed: u64) -> Vec<Event> {
    assert_eq!(dims.len(), spec.tensors);
    let mut shape = SmallRng::seed_from_u64(0x5712_ea30);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0c0f_fee5);
    let popularity = ZipfSampler::new(spec.tensors, 1.1);
    let mut events = Vec::with_capacity(spec.events + spec.events / 8);
    let mut push = |tensor: usize, op: Op| {
        events.push(Event {
            tenant: owner(spec, tensor),
            tensor,
            op,
        })
    };
    let decompose = |rng: &mut SmallRng| Op::Decompose {
        seed: rng.gen_range(0..1_000_000),
    };
    for tensor in 0..spec.tensors {
        push(tensor, decompose(&mut rng));
    }
    for _ in spec.tensors..spec.events {
        let tensor = popularity.sample(&mut shape);
        let roll: f64 = shape.gen();
        if roll < EVICT_SHARE {
            push(tensor, Op::Evict);
            push(tensor, Op::Ingest);
            push(tensor, decompose(&mut rng));
        } else if roll < EVICT_SHARE + DECOMPOSE_SHARE {
            push(tensor, decompose(&mut rng));
        } else {
            let queries = 4 + shape.gen_range(0..60);
            let indices = (0..queries)
                .map(|_| dims[tensor].iter().map(|&d| rng.gen_range(0..d)).collect())
                .collect();
            push(tensor, Op::Predict { indices });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_spec() -> ServiceSpec {
        match workload("service-mix", true).unwrap() {
            Workload::Service(spec) => spec,
            Workload::Solver(_) => unreachable!(),
        }
    }

    fn dims_of(spec: &ServiceSpec) -> Vec<Vec<usize>> {
        (0..spec.tensors)
            .map(|t| {
                let st = service_tensor(spec, t);
                DatasetProfile::new(st.profile).scaled_dims(st.nnz)
            })
            .collect()
    }

    fn tns_bytes(tensor: &SparseTensor) -> Vec<u8> {
        let mut buf = Vec::new();
        sptensor::io::write_tns_with_header(tensor, &mut buf).unwrap();
        buf
    }

    #[test]
    fn every_name_resolves_at_both_sizes_and_unknown_names_do_not() {
        for name in NAMES {
            assert!(workload(name, false).is_some(), "{name}");
            assert!(workload(name, true).is_some(), "{name}");
        }
        assert!(workload("distsim", false).is_none());
    }

    #[test]
    fn same_seed_gives_byte_identical_tns_and_another_seed_does_not() {
        let Workload::Solver(spec) = workload("dense3", true).unwrap() else {
            unreachable!()
        };
        let make = |seed| tns_bytes(&seeded_tensor(spec.profile, spec.dims, spec.nnz, 0, seed));
        let a = make(1);
        assert_eq!(a, make(1));
        assert_ne!(a, make(2));
    }

    #[test]
    fn seeds_relabel_one_problem() {
        let a = seeded_tensor(ProfileName::Netflix, None, 4_000, 7, 1);
        let b = seeded_tensor(ProfileName::Netflix, None, 4_000, 7, 2);
        assert_ne!(a, b);
        assert_eq!((a.dims(), a.nnz()), (b.dims(), b.nnz()));
        // The same values on the same nonzeros-per-slice histogram.
        let sorted_values = |t: &SparseTensor| {
            let mut v = t.values().to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(sorted_values(&a), sorted_values(&b));
        for mode in 0..a.order() {
            let histogram = |t: &SparseTensor| {
                let mut h = t.slice_nnz(mode);
                h.sort_unstable();
                h
            };
            assert_eq!(histogram(&a), histogram(&b), "mode {mode}");
        }
        assert!(a.validate().is_ok());
        // Another salt is another base tensor.
        let c = seeded_tensor(ProfileName::Netflix, None, 4_000, 8, 1);
        assert_ne!(sorted_values(&a), sorted_values(&c));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut p = permutation(1000, &mut rng);
        assert_ne!(p, (0..1000).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
        assert_eq!(permutation(0, &mut rng), Vec::<usize>::new());
    }

    #[test]
    fn explicit_dims_are_kept_and_profile_dims_are_scaled() {
        let t = seeded_tensor(
            ProfileName::Delicious,
            Some(&[64, 800, 12_000, 2_400]),
            5_000,
            0,
            3,
        );
        assert_eq!(t.dims(), &[64, 800, 12_000, 2_400]);
        assert_eq!(t.nnz(), 5_000);
        let t = seeded_tensor(ProfileName::Nell, None, 5_000, 0, 3);
        assert_eq!(
            t.dims(),
            DatasetProfile::new(ProfileName::Nell).scaled_dims(5_000)
        );
    }

    #[test]
    fn checksum_ignores_order_and_sees_values_and_coordinates() {
        let a = SparseTensor::from_entries(
            vec![4, 4, 4],
            &[(vec![0, 1, 2], 1.5), (vec![3, 2, 1], 2.5)],
        );
        let b = SparseTensor::from_entries(
            vec![4, 4, 4],
            &[(vec![3, 2, 1], 2.5), (vec![0, 1, 2], 1.5)],
        );
        let c = SparseTensor::from_entries(
            vec![4, 4, 4],
            &[(vec![0, 1, 2], 1.5), (vec![3, 2, 1], 2.5000000000000004)],
        );
        let d = SparseTensor::from_entries(
            vec![4, 4, 4],
            &[(vec![0, 2, 1], 1.5), (vec![3, 2, 1], 2.5)],
        );
        assert_eq!(tensor_checksum(&a), tensor_checksum(&b));
        assert_ne!(tensor_checksum(&a), tensor_checksum(&c));
        assert_ne!(tensor_checksum(&a), tensor_checksum(&d));
    }

    #[test]
    fn request_stream_is_a_function_of_the_seed() {
        let spec = service_spec();
        let dims = dims_of(&spec);
        let a = request_stream(&spec, &dims, 1);
        assert_eq!(a, request_stream(&spec, &dims, 1));
        let b = request_stream(&spec, &dims, 2);
        assert_ne!(a, b);
        // Another seed asks for the same kinds of work on the same tensors in
        // the same order, with other initial factors and coordinates.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.tenant, x.tensor), (y.tenant, y.tensor));
            assert_eq!(std::mem::discriminant(&x.op), std::mem::discriminant(&y.op));
            if let (Op::Predict { indices: i }, Op::Predict { indices: j }) = (&x.op, &y.op) {
                assert_eq!(i.len(), j.len());
            }
        }
    }

    #[test]
    fn no_request_of_the_stream_can_fail() {
        let Workload::Service(full) = workload("service-mix", false).unwrap() else {
            unreachable!()
        };
        for (spec, seeds) in [(service_spec(), 0..40u64), (full, 0..10u64)] {
            let dims = dims_of(&spec);
            for seed in seeds {
                // The state a fresh service is in after set-up: everything
                // ingested, nothing decomposed.
                let mut live = vec![true; spec.tensors];
                let mut decomposed = vec![false; spec.tensors];
                let stream = request_stream(&spec, &dims, seed);
                assert!(stream.len() >= spec.events);
                for e in &stream {
                    assert_eq!(e.tenant, owner(&spec, e.tensor), "one owner per tensor");
                    match &e.op {
                        Op::Ingest => {
                            assert!(!live[e.tensor], "re-ingest only after an eviction");
                            live[e.tensor] = true;
                            decomposed[e.tensor] = false;
                        }
                        Op::Decompose { .. } => {
                            assert!(live[e.tensor], "decompose of an evicted tensor");
                            decomposed[e.tensor] = true;
                        }
                        Op::Predict { indices } => {
                            assert!(decomposed[e.tensor], "predict before any decompose");
                            for index in indices {
                                assert_eq!(index.len(), dims[e.tensor].len());
                                assert!(index.iter().zip(&dims[e.tensor]).all(|(i, d)| i < d));
                            }
                        }
                        Op::Evict => {
                            assert!(live[e.tensor], "evicting what is not there");
                            live[e.tensor] = false;
                        }
                    }
                }
                assert!(
                    live.iter().all(|&l| l),
                    "a replay ends with every tensor live"
                );
            }
        }
    }

    #[test]
    fn stream_mix_is_roughly_a_third_decompose_and_mostly_predict() {
        let Workload::Service(spec) = workload("service-mix", false).unwrap() else {
            unreachable!()
        };
        let stream = request_stream(&spec, &dims_of(&spec), 1);
        let share = |f: fn(&Op) -> bool| {
            stream.iter().filter(|e| f(&e.op)).count() as f64 / spec.events as f64
        };
        let decompose = share(|op| matches!(op, Op::Decompose { .. }));
        let predict = share(|op| matches!(op, Op::Predict { .. }));
        let evict = share(|op| matches!(op, Op::Evict));
        assert!((0.25..=0.45).contains(&decompose), "decompose {decompose}");
        assert!((0.50..=0.75).contains(&predict), "predict {predict}");
        assert!(evict > 0.0 && evict < 0.12, "evict {evict}");
    }

    #[test]
    fn service_tensors_span_the_size_range_orders_and_ranks() {
        let Workload::Service(spec) = workload("service-mix", false).unwrap() else {
            unreachable!()
        };
        let all: Vec<ServiceTensor> = (0..spec.tensors)
            .map(|t| service_tensor(&spec, t))
            .collect();
        assert_eq!((all[0].nnz, all[spec.tensors - 1].nnz), spec.nnz_range);
        assert!(all.windows(2).all(|w| w[0].nnz < w[1].nnz));
        assert!(all
            .iter()
            .all(|t| (2..=8).contains(&t.rank) && t.max_iters <= 3));
        for profile in [ProfileName::Netflix, ProfileName::Nell, ProfileName::Flickr] {
            let ranks: std::collections::BTreeSet<usize> = all
                .iter()
                .filter(|t| t.profile == profile)
                .map(|t| t.rank)
                .collect();
            assert_eq!(ranks.len(), 3, "{profile:?} is asked for at three ranks");
        }
    }
}
