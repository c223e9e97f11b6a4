//! Synthetic sparse tensor generators for HyperTensor-RS.
//!
//! The paper evaluates on four real-world tensors (Netflix, NELL, Delicious,
//! Flickr — Table I) that are not redistributable and are far too large for a
//! single-node reproduction.  This crate provides the substitutes:
//!
//! * [`random`] — uniform random sparse tensors (the skew-free test
//!   workload),
//! * [`lowrank`] — tensors sampled from a ground-truth low-rank Tucker model
//!   plus noise (used by correctness and recovery tests),
//! * [`zipf`] — a power-law index sampler reproducing the skewed slice-size
//!   distributions of the real datasets,
//! * [`profiles`] — scaled-down dataset profiles preserving mode counts,
//!   relative mode sizes and skew of the four paper datasets,
//! * [`requests`] — Zipf-skewed multi-tenant request mixes replayed against
//!   the decomposition service.

pub mod lowrank;
pub mod profiles;
pub mod random;
pub mod requests;
pub mod zipf;

pub use lowrank::{lowrank_tensor, LowRankSpec};
pub use profiles::{DatasetProfile, ProfileName};
pub use random::random_tensor;
pub use requests::{request_mix, RequestEvent, RequestKind, RequestMixSpec};
pub use zipf::ZipfSampler;
