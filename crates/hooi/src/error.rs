//! Structured errors for the Tucker solver's public entry points.
//!
//! The solver treats failures as values: planning and solving return
//! [`TuckerError`] instead of panicking, so a long-lived service holding
//! many planned tensors (the ROADMAP's batched-decomposition shape) can
//! reject one bad request without tearing down the process.

use std::fmt;
use std::time::Duration;

/// Everything that can go wrong on the public solver path.
///
/// ```
/// use hooi::{PlanOptions, TuckerConfig, TuckerError, TuckerSolver};
/// use sptensor::SparseTensor;
///
/// // Planning an empty tensor fails as a value, not a panic.
/// let empty = SparseTensor::new(vec![4, 4, 4]);
/// let err = TuckerSolver::plan(&empty, PlanOptions::new()).unwrap_err();
/// assert_eq!(err, TuckerError::EmptyTensor);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TuckerError {
    /// The tensor has no modes or no stored nonzeros; there is nothing to
    /// decompose (the fit is undefined for a zero-norm tensor).
    EmptyTensor,
    /// A stored value is NaN or infinite.  Norms, TTMc and the TRSVD's
    /// eigensolver all assume finite arithmetic, so such a tensor is
    /// rejected before anything is planned.
    NonFiniteValue {
        /// Position of the first non-finite value among the stored
        /// nonzeros (the COO id, as in [`sptensor::SparseTensor::value`]).
        nonzero: usize,
    },
    /// Every value is finite, but the sum of their squares is not a normal
    /// `f64`: it overflows to infinity (values around `1e155` and beyond),
    /// or it is positive but below [`f64::MIN_POSITIVE`], or it underflows
    /// to zero although some value is nonzero (values around `1e-155` and
    /// below).  The Gram matrices of the TRSVD and the fit's norm ratio are
    /// computed from the same squares, so such a tensor would panic in the
    /// eigensolver or report a wrong fit; rescaling its values fixes it.
    NormOutOfRange {
        /// `Σ x²` over the stored values, summed in
        /// [`sptensor::SparseTensor::frobenius_norm`]'s order.
        squared_norm: f64,
    },
    /// The configuration's rank count does not match the tensor order.
    OrderMismatch {
        /// Number of ranks in the configuration.
        config_modes: usize,
        /// Number of modes of the planned tensor.
        tensor_modes: usize,
    },
    /// A requested decomposition rank is zero.
    ZeroRank {
        /// The offending mode.
        mode: usize,
    },
    /// A buffer whose size follows from the ranks — a mode's compact TTMc
    /// result (`|J_n| × Π_{t≠n} R_t`), a dimension-tree node (entries ×
    /// width), or the core (`Π R_t`) — has more elements than `usize`
    /// counts, or the allocator refused it.  The solve is rejected before it
    /// runs; the session, and a service holding it, keep serving.
    BufferTooLarge {
        /// Which buffer, naming its mode or tree node (e.g. "compact TTMc
        /// of mode 2", "dimension-tree node 5").
        buffer: String,
    },
    /// The solver's thread pool could not be built; carries the pool
    /// runtime's reason (e.g. an absurd thread count or an OS spawn
    /// failure).
    PoolFailure(String),
    /// A service request named a tensor id that is not in the registry
    /// (never ingested, or removed by an evict request).
    UnknownTensorId {
        /// The id the request asked for.
        tensor_id: String,
    },
    /// A single plan's measured memory footprint exceeds the service's
    /// whole plan-cache budget, so it could never be admitted no matter
    /// what else is evicted.
    PlanOverBudget {
        /// The id of the tensor whose plan was priced.
        tensor_id: String,
        /// Measured footprint of the plan (workspace + symbolic + tree
        /// buffers), in bytes.
        required_bytes: usize,
        /// The configured plan-cache budget, in bytes.
        budget_bytes: usize,
    },
    /// A request's deadline had already expired before its solve started
    /// (it spent its whole budget waiting in the queue), so the service
    /// rejected it instead of returning a zero-iteration decomposition.
    DeadlineExpired {
        /// How long the request waited before being scheduled.
        waited: Duration,
        /// The request's whole deadline budget.
        deadline: Duration,
    },
    /// A predict request named a tensor that has been ingested but never
    /// successfully decomposed, so there is no model to read scores from.
    NothingDecomposed {
        /// The id the request asked for.
        tensor_id: String,
    },
    /// A rank of the distributed executor failed mid-solve — a peer
    /// disconnected, a receive timed out, or a frame arrived corrupt — and
    /// the failure was propagated to every surviving rank through the
    /// executor's abort protocol.  `rank` is the rank that first observed
    /// the fault (the *origin*), so all survivors agree on the attribution;
    /// `phase` and `iteration` locate the failure inside Algorithm 4, and
    /// `source` carries the underlying comm error's message.  The fields
    /// are plain strings because the solver crate does not depend on the
    /// executor's comm types.
    RankFailed {
        /// The rank that first observed the failure.
        rank: usize,
        /// The Algorithm 4 phase label (e.g. "fold", "gather") at the
        /// failure point.
        phase: String,
        /// The HOOI iteration in which the failure occurred
        /// (`u64::from(u32::MAX)` marks the final collectives after the
        /// iteration loop).
        iteration: u64,
        /// Human-readable description of the underlying fault.
        source: String,
    },
    /// A solve or predict running inside the decomposition service
    /// panicked.  The panic was caught at the request boundary, the
    /// offending tensor entry was quarantined, and every other tenant kept
    /// serving — this variant is the poisoned request's answer.
    SolvePanicked {
        /// The id of the tensor whose request panicked.
        tensor_id: String,
        /// The panic payload's message, if it was a string.
        detail: String,
    },
    /// A `.tns` ingestion failure — parse error, index out of the declared
    /// range, empty or truncated file, or an I/O fault — with
    /// the reader's message (line numbers included) carried as a string so
    /// the error stays `Eq`-comparable.  Produced by the `From`
    /// conversion from [`sptensor::io::TensorIoError`], so `?` works across
    /// the ingestion boundary.
    Ingestion(String),
}

impl From<sptensor::io::TensorIoError> for TuckerError {
    fn from(e: sptensor::io::TensorIoError) -> Self {
        TuckerError::Ingestion(e.to_string())
    }
}

impl fmt::Display for TuckerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuckerError::EmptyTensor => {
                write!(f, "tensor has no modes or no stored nonzeros")
            }
            TuckerError::NonFiniteValue { nonzero } => {
                write!(f, "stored nonzero {nonzero} is NaN or infinite")
            }
            TuckerError::NormOutOfRange { squared_norm } => write!(
                f,
                "the squared Frobenius norm of the values ({squared_norm:e}) is outside the \
                 normal f64 range; rescale the values"
            ),
            TuckerError::OrderMismatch {
                config_modes,
                tensor_modes,
            } => write!(
                f,
                "configuration has {config_modes} ranks but the tensor has {tensor_modes} modes"
            ),
            TuckerError::ZeroRank { mode } => {
                write!(f, "requested rank for mode {mode} is zero")
            }
            TuckerError::BufferTooLarge { buffer } => {
                write!(
                    f,
                    "the {buffer} buffer is too large to allocate at these ranks"
                )
            }
            TuckerError::PoolFailure(reason) => {
                write!(f, "failed to build the solver thread pool: {reason}")
            }
            TuckerError::UnknownTensorId { tensor_id } => {
                write!(f, "no tensor with id '{tensor_id}' is registered")
            }
            TuckerError::PlanOverBudget {
                tensor_id,
                required_bytes,
                budget_bytes,
            } => write!(
                f,
                "plan for tensor '{tensor_id}' needs {required_bytes} bytes but the whole \
                 plan-cache budget is {budget_bytes} bytes"
            ),
            TuckerError::DeadlineExpired { waited, deadline } => write!(
                f,
                "deadline of {:.3} s expired before the solve started (waited {:.3} s in queue)",
                deadline.as_secs_f64(),
                waited.as_secs_f64()
            ),
            TuckerError::NothingDecomposed { tensor_id } => {
                write!(
                    f,
                    "tensor '{tensor_id}' has no completed decomposition to predict from"
                )
            }
            TuckerError::RankFailed {
                rank,
                phase,
                iteration,
                source,
            } => {
                if *iteration == u64::from(u32::MAX) {
                    write!(
                        f,
                        "rank {rank} failed during {phase} in the final collectives: {source}"
                    )
                } else {
                    write!(
                        f,
                        "rank {rank} failed during {phase} at iteration {iteration}: {source}"
                    )
                }
            }
            TuckerError::SolvePanicked { tensor_id, detail } => write!(
                f,
                "solve for tensor '{tensor_id}' panicked and the entry was quarantined: {detail}"
            ),
            TuckerError::Ingestion(reason) => {
                write!(f, "tensor ingestion failed: {reason}")
            }
        }
    }
}

// `squared_norm` is never NaN: `validate_tensor` rejects non-finite
// values before it sums their squares, so equality stays total.
impl Eq for TuckerError {}

impl std::error::Error for TuckerError {}

/// The tensor checks every solver entry point runs before planning:
/// [`TuckerError::EmptyTensor`] for a tensor with no modes or no stored
/// nonzeros, [`TuckerError::NonFiniteValue`] for the first NaN or infinite
/// value, and [`TuckerError::NormOutOfRange`] when `Σ x²` overflows or
/// underflows (one pass over the values).  A tensor of explicit zeros
/// passes: its norm is exactly zero, not an underflow.
pub fn validate_tensor(tensor: &sptensor::SparseTensor) -> Result<(), TuckerError> {
    if tensor.order() == 0 || tensor.nnz() == 0 {
        return Err(TuckerError::EmptyTensor);
    }
    let mut squared_norm = 0.0f64;
    let mut any_nonzero = false;
    for (nonzero, &v) in tensor.values().iter().enumerate() {
        if !v.is_finite() {
            return Err(TuckerError::NonFiniteValue { nonzero });
        }
        squared_norm += v * v;
        any_nonzero |= v != 0.0;
    }
    let underflow = if squared_norm == 0.0 {
        any_nonzero
    } else {
        squared_norm < f64::MIN_POSITIVE
    };
    if squared_norm.is_infinite() || underflow {
        return Err(TuckerError::NormOutOfRange { squared_norm });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_problem() {
        assert!(TuckerError::EmptyTensor.to_string().contains("nonzeros"));
        let msg = TuckerError::OrderMismatch {
            config_modes: 2,
            tensor_modes: 3,
        }
        .to_string();
        assert!(msg.contains('2') && msg.contains('3'));
        assert!(TuckerError::ZeroRank { mode: 1 }
            .to_string()
            .contains("mode 1"));
        assert!(TuckerError::PoolFailure("oom".into())
            .to_string()
            .contains("oom"));
        let msg = TuckerError::BufferTooLarge {
            buffer: "compact TTMc of mode 4".into(),
        }
        .to_string();
        assert!(msg.contains("mode 4") && msg.contains("too large"));
    }

    #[test]
    fn pool_build_errors_surface_the_builders_reason() {
        // The rayon shim's build error carries a message; planning must
        // forward it verbatim inside `PoolFailure`.
        let build_err = rayon::ThreadPoolBuilder::new()
            .num_threads(usize::MAX)
            .build()
            .unwrap_err();
        let mapped = TuckerError::PoolFailure(build_err.to_string());
        let msg = mapped.to_string();
        assert!(
            msg.contains("at most"),
            "mapped error lost the builder's reason: {msg}"
        );
    }

    #[test]
    fn service_level_variants_name_the_failure() {
        let msg = TuckerError::UnknownTensorId {
            tensor_id: "netflix".into(),
        }
        .to_string();
        assert!(msg.contains("netflix"));
        let msg = TuckerError::PlanOverBudget {
            tensor_id: "nell".into(),
            required_bytes: 4096,
            budget_bytes: 1024,
        }
        .to_string();
        assert!(msg.contains("4096") && msg.contains("1024") && msg.contains("nell"));
        let msg = TuckerError::DeadlineExpired {
            waited: Duration::from_millis(250),
            deadline: Duration::from_millis(100),
        }
        .to_string();
        assert!(msg.contains("0.100") && msg.contains("0.250"));
        let msg = TuckerError::NothingDecomposed {
            tensor_id: "flickr".into(),
        }
        .to_string();
        assert!(msg.contains("flickr") && msg.contains("decomposition"));
    }

    #[test]
    fn robustness_variants_carry_full_attribution() {
        let msg = TuckerError::RankFailed {
            rank: 2,
            phase: "fold".into(),
            iteration: 5,
            source: "recv from peer 1 timed out after 300 ms".into(),
        }
        .to_string();
        assert!(
            msg.contains("rank 2") && msg.contains("fold") && msg.contains("iteration 5"),
            "attribution lost: {msg}"
        );
        assert!(msg.contains("timed out"), "source lost: {msg}");

        let msg = TuckerError::RankFailed {
            rank: 0,
            phase: "control".into(),
            iteration: u64::from(u32::MAX),
            source: "peer 3 disconnected".into(),
        }
        .to_string();
        assert!(
            msg.contains("final collectives"),
            "sentinel iteration must not print as a number: {msg}"
        );

        let msg = TuckerError::SolvePanicked {
            tensor_id: "poisoned".into(),
            detail: "index out of bounds".into(),
        }
        .to_string();
        assert!(
            msg.contains("poisoned") && msg.contains("quarantined") && msg.contains("index"),
            "panic answer lost context: {msg}"
        );
    }

    #[test]
    fn ingestion_errors_convert_with_line_numbers() {
        let io_err = sptensor::io::TensorIoError::Parse(7, "bad value".into());
        let mapped: TuckerError = io_err.into();
        let msg = mapped.to_string();
        assert!(
            msg.contains("line 7") && msg.contains("ingestion"),
            "conversion lost the reader's context: {msg}"
        );
    }

    #[test]
    fn validate_tensor_names_the_first_non_finite_value() {
        let mut tensor = sptensor::SparseTensor::new(vec![3, 3]);
        assert_eq!(validate_tensor(&tensor), Err(TuckerError::EmptyTensor));
        for (i, v) in [1.0, f64::INFINITY, f64::NAN].into_iter().enumerate() {
            tensor.push(&[i, i], v);
        }
        assert_eq!(
            validate_tensor(&tensor),
            Err(TuckerError::NonFiniteValue { nonzero: 1 })
        );
        *tensor.value_mut(1) = -2.0;
        *tensor.value_mut(2) = f64::NEG_INFINITY;
        let err = validate_tensor(&tensor).unwrap_err();
        assert_eq!(err, TuckerError::NonFiniteValue { nonzero: 2 });
        assert!(err.to_string().contains("nonzero 2"));
        *tensor.value_mut(2) = 0.5;
        assert_eq!(validate_tensor(&tensor), Ok(()));
    }

    #[test]
    fn validate_tensor_rejects_norms_outside_the_normal_range() {
        let with = |values: &[f64]| {
            let mut t = sptensor::SparseTensor::new(vec![4, 4]);
            for (i, &v) in values.iter().enumerate() {
                t.push(&[i, i], v);
            }
            validate_tensor(&t)
        };
        let out_of_range = |squared_norm| Err(TuckerError::NormOutOfRange { squared_norm });
        // Overflow, a subnormal sum, and an underflow to zero.
        assert_eq!(with(&[1.0, 1e160]), out_of_range(f64::INFINITY));
        assert_eq!(with(&[1e-160, 0.0]), out_of_range(1e-160 * 1e-160));
        assert_eq!(with(&[1e-200, -1e-200]), out_of_range(0.0));
        // Explicit zeros and large-but-representable values pass.
        assert_eq!(with(&[0.0, -0.0]), Ok(()));
        assert_eq!(with(&[1e150, -1e150, 3.0]), Ok(()));
        let msg = out_of_range(f64::INFINITY).unwrap_err().to_string();
        assert!(msg.contains("inf") && msg.contains("rescale"), "{msg}");
    }

    #[test]
    fn error_trait_is_implemented() {
        let err: Box<dyn std::error::Error> = Box::new(TuckerError::EmptyTensor);
        assert!(!err.to_string().is_empty());
    }
}
