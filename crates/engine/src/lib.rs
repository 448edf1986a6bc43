#![warn(missing_docs)]

//! # tsg-engine — resident SpGEMM service engine
//!
//! Everything below `tsg-engine` runs one product and exits; this crate is
//! the layer that serves *many*. An [`Engine`] holds loaded matrices in a
//! content-addressed [`registry::Registry`] (so the expensive CSR→tiled
//! conversion — several single-product runtimes, per the paper's Figure 12 —
//! is paid once and amortized, Ocean-style, across repeated products),
//! predicts each job's cost with a spECK-style model ([`estimate`]),
//! executes jobs synchronously on the caller's thread over the memoized
//! per-device Rayon pool, and reports statistics (execution time, cache hit
//! rate, evictions). The engine has no queue and spawns no thread: the
//! `tsg-serve` scheduler is the one queue in front of it, and its workers
//! call [`Engine::execute`].
//!
//! The [`protocol`] module exposes the engine as a JSON-lines request/
//! response protocol; the `tsg-serve` binary serves it (wrapped in the
//! scheduler's session verbs) over stdin/stdout or TCP, and the
//! `tile_spgemm client` subcommand drives it from scripts.
//!
//! ```
//! use tsg_engine::{Engine, EngineConfig, JobSpec};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let (id, _) = engine.register(tsg_matrix::Csr::<f64>::identity(64));
//! let report = engine.multiply_now(JobSpec::new(id, id)).unwrap();
//! assert_eq!(report.nnz_c, 64);
//! // The second product of the same operands reuses the cached conversion.
//! let again = engine.multiply_now(JobSpec::new(id, id)).unwrap();
//! assert_eq!(again.cache_hits, 2);
//! ```

pub mod engine;
pub mod estimate;
pub mod json;
pub mod protocol;
pub mod registry;

pub use engine::{Engine, EngineConfig, EngineStats, JobReport, JobResult, JobSpec, OpSpec};
pub use estimate::{estimate_job, JobEstimate};
pub use protocol::{MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
pub use registry::{MatrixId, Registry, RegistryStats, TiledLookup};

use tilespgemm_core::SpGemmError;

/// Errors surfaced by the engine layer.
///
/// `#[non_exhaustive]`: front ends must keep a wildcard arm, so new
/// admission or execution failures are not semver breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The referenced matrix id is not registered.
    UnknownMatrix(MatrixId),
    /// The multiply pipeline failed (out of memory, shape mismatch).
    SpGemm(SpGemmError),
    /// The job's estimate exceeds the whole device budget
    /// ([`Engine::multiply_now`]'s up-front check).
    EstimateExceedsBudget {
        /// Predicted peak bytes for the job.
        est_bytes: usize,
        /// The device budget it exceeds.
        budget: usize,
    },
    /// The job's queue wait exceeded its deadline; it was never run.
    TimedOut,
    /// The job was canceled while queued.
    Canceled,
    /// The server is draining and the job was never run.
    ShuttingDown,
    /// A batch job's dependency (an earlier entry it referenced) failed, so
    /// this job can never have its operands.
    DependencyFailed {
        /// Serve-level id of the failed dependency job.
        dep: u64,
    },
    /// The op expression is malformed (a chain with fewer than two
    /// operands, a power with `k < 2`), independent of any operand's state.
    InvalidOp(&'static str),
    /// The job panicked. The panic was contained at the job boundary; the
    /// message is the panic's payload.
    Internal(String),
}

impl EngineError {
    /// Stable machine-readable code, used verbatim by the JSON protocol.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::UnknownMatrix(_) => "unknown_matrix",
            EngineError::SpGemm(e) => e.code(),
            EngineError::EstimateExceedsBudget { .. } => "estimate_exceeds_budget",
            EngineError::TimedOut => "timed_out",
            EngineError::Canceled => "canceled",
            EngineError::ShuttingDown => "shutting_down",
            EngineError::DependencyFailed { .. } => "dependency_failed",
            EngineError::InvalidOp(_) => "invalid_op",
            EngineError::Internal(_) => "internal",
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownMatrix(id) => write!(f, "matrix {id} is not registered"),
            EngineError::SpGemm(_) => write!(f, "multiply failed"),
            EngineError::EstimateExceedsBudget { est_bytes, budget } => write!(
                f,
                "estimated footprint {est_bytes} B exceeds device budget {budget} B"
            ),
            EngineError::TimedOut => write!(f, "queue-wait deadline exceeded before execution"),
            EngineError::Canceled => write!(f, "job canceled while queued"),
            EngineError::ShuttingDown => write!(f, "server is shutting down"),
            EngineError::DependencyFailed { dep } => {
                write!(f, "dependency job {dep} failed; operands unavailable")
            }
            EngineError::InvalidOp(why) => write!(f, "invalid op expression: {why}"),
            EngineError::Internal(why) => write!(f, "internal error: the job panicked: {why}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::SpGemm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpGemmError> for EngineError {
    fn from(e: SpGemmError) -> Self {
        EngineError::SpGemm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_stable_and_sources_chain() {
        use std::error::Error;
        let e = EngineError::Internal("boom".into());
        assert_eq!(e.code(), "internal");
        assert!(e.source().is_none());

        let inner = SpGemmError::ShapeMismatch {
            a: (1, 2),
            b: (3, 4),
        };
        let e = EngineError::SpGemm(inner.clone());
        assert_eq!(e.code(), "shape_mismatch");
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
    }
}
