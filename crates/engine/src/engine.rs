//! The resident engine: a matrix registry plus a synchronous job executor.
//!
//! One [`Engine`] owns a simulated [`Device`], a shared [`MemTracker`]
//! enforcing the device budget across *all* in-flight products, a
//! [`Registry`] of loaded matrices with cached tiled conversions, and the
//! scratch arenas jobs reuse. It has no queue and spawns no thread: a job
//! runs on the thread that calls [`Engine::execute`], over the memoized
//! per-device Rayon pool ([`tsg_runtime::device::pool_for`]). Queueing,
//! fairness, admission against free memory, cancellation and queue-wait
//! deadlines belong to the caller — in this workspace the `tsg-serve`
//! scheduler, whose workers are the only threads that execute jobs.
//!
//! Job lifecycle:
//!
//! 1. [`Engine::next_job`] issues the job id. Every job the engine runs
//!    draws from this one counter, so a reply's `job` keys its profile row.
//! 2. [`Engine::estimate_op`] predicts the cost ([`crate::estimate`]) and
//!    validates the operands' shapes.
//! 3. [`Engine::execute`] resolves the operands through the registry (cache
//!    hit or conversion) and runs the tiled pipeline under the shared
//!    tracker, returning a [`JobReport`] or an [`EngineError`].
//!
//! [`Engine::multiply_now`] is the three steps on the caller's thread, with
//! the one admission check a queue-less caller needs: an estimate over the
//! whole device budget is rejected up front. A running multiply is not
//! interruptible (matching the kernels it models).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tilespgemm_core::{multiply_with_pool, Config, SpGemmError};
use tsg_matrix::{Footprint, TileMatrix};
use tsg_runtime::observe::{
    est_error_bucket, null_recorder, CollectingRecorder, Counter, MetricsSnapshot, Recorder,
};
use tsg_runtime::{device::pool_for, Breakdown, Device, MemTracker, ScratchPool, Step};

use crate::estimate::{
    estimate_add, estimate_job, estimate_job_sampled, estimate_product, estimate_tiled_sampled,
    mask_pruned, JobEstimate, OperandShape,
};
use crate::registry::{MatrixId, Registry, RegistryStats, TiledLookup};
use crate::EngineError;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated device jobs execute on; its `mem_budget` is the shared
    /// in-flight budget.
    pub device: Device,
    /// Jobs executed concurrently. The engine itself spawns no thread; a
    /// front end runs this many executors (the `tsg-serve` scheduler spawns
    /// one worker each).
    pub workers: usize,
    /// Byte budget for cached tiled conversions in the registry.
    pub cache_bytes: usize,
    /// Pipeline configuration jobs run with unless they override it.
    pub base_config: Config,
    /// Record per-job span trees and counters into a
    /// [`CollectingRecorder`], retrievable through [`Engine::collector`] and
    /// the JSON protocol's `stats`/`profile` verbs. Off by default, which
    /// runs every job on the [`tsg_runtime::NullRecorder`] fast path.
    pub profile: bool,
    /// Fraction of A's tile rows the admission estimator samples when both
    /// operand structures are materialized. `0.0` disables sampling and
    /// falls back to the `ASSUMED_COMPRESSION` upper-bound model; `1.0`
    /// measures every tile row (exact symbolic, zero-width band). The
    /// default ([`tilespgemm_core::sample::DEFAULT_SAMPLE_RATE`]) trades
    /// ~6% of the symbolic work for a measured nnz(C) band.
    pub sample_rate: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let device = Device::rtx3090_sim();
        EngineConfig {
            cache_bytes: device.mem_budget / 2,
            device,
            workers: 1,
            base_config: Config::default(),
            profile: false,
            sample_rate: tilespgemm_core::sample::DEFAULT_SAMPLE_RATE,
        }
    }
}

/// The operation a job evaluates, over registry handles.
///
/// This is the expression layer of the engine: GraphBLAS-style workloads —
/// triangle counting `C⟨A⟩ = A·A`, Galerkin triple products `R·A·P`, Markov
/// clustering's `A^k` — are sequences of products, and an `OpSpec` lets one
/// job carry the whole sequence so intermediates stay in the tiled format
/// instead of round-tripping through CSR between submissions.
///
/// `#[non_exhaustive]`: build specs through the [`JobSpec`] constructors
/// (`JobSpec::multiply(a, b).mask(m)` and friends) and match with a wildcard
/// arm, so new op kinds are not semver breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpSpec {
    /// `C = A·B` — the classic single product.
    Multiply {
        /// Left operand.
        a: MatrixId,
        /// Right operand.
        b: MatrixId,
    },
    /// `C⟨M⟩ = A·B` — the product computed only where the mask `M` has
    /// stored entries. The mask is pushed into step 2 (the per-tile
    /// symbolic phase inherits `M`'s tile structure), so masked-out tiles
    /// are never computed, not computed-then-filtered.
    MaskedMultiply {
        /// Left operand.
        a: MatrixId,
        /// Right operand.
        b: MatrixId,
        /// Mask; shape must be `(a.nrows, b.ncols)`.
        mask: MatrixId,
    },
    /// `C = alpha·A + beta·B` — elementwise linear combination of two
    /// same-shaped operands (structural union; exact zeros are kept).
    Add {
        /// Scale on `a`.
        alpha: f64,
        /// Left operand.
        a: MatrixId,
        /// Scale on `b`.
        beta: f64,
        /// Right operand.
        b: MatrixId,
    },
    /// `C = M₁·M₂·…·Mₙ` — a left-associated chain of products. Each
    /// intermediate stays tiled and feeds the next link directly; it is
    /// also registered as a resident product handle (unless registration
    /// degrades gracefully under memory pressure), reported in
    /// [`JobReport::intermediates`]. An optional mask applies to the final
    /// link only.
    Chain {
        /// The operands, in multiplication order (at least two).
        operands: Vec<MatrixId>,
        /// Mask for the final link; shape must match the chain's output.
        mask: Option<MatrixId>,
    },
    /// `C = A^k` — matrix power, `k ≥ 2`. Sugar for a chain of `k` copies
    /// of `a`; executes through the same chain path.
    Power {
        /// The (square) operand.
        a: MatrixId,
        /// The exponent (at least 2).
        k: u32,
        /// Mask for the final link.
        mask: Option<MatrixId>,
    },
}

impl OpSpec {
    /// Every registry handle the op references (operands, then mask).
    pub fn operands(&self) -> Vec<MatrixId> {
        match self {
            OpSpec::Multiply { a, b } => vec![*a, *b],
            OpSpec::MaskedMultiply { a, b, mask } => vec![*a, *b, *mask],
            OpSpec::Add { a, b, .. } => vec![*a, *b],
            OpSpec::Chain { operands, mask } => {
                let mut v = operands.clone();
                v.extend(mask.iter().copied());
                v
            }
            OpSpec::Power { a, k, mask } => {
                let mut v = vec![*a; (*k).max(1) as usize];
                v.extend(mask.iter().copied());
                v
            }
        }
    }

    /// Stable kind name (used in protocol responses and bench rows).
    pub fn kind(&self) -> &'static str {
        match self {
            OpSpec::Multiply { .. } => "multiply",
            OpSpec::MaskedMultiply { .. } => "masked_multiply",
            OpSpec::Add { .. } => "add",
            OpSpec::Chain { .. } => "chain",
            OpSpec::Power { .. } => "power",
        }
    }
}

/// One job request: the [`OpSpec`] expression to evaluate.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The operation to evaluate.
    pub op: OpSpec,
}

impl JobSpec {
    /// A job multiplying `a · b` with engine defaults.
    ///
    /// Kept as a thin compatibility wrapper over [`JobSpec::multiply`]; the
    /// protocol-v2 `multiply` verb and all pre-expression callers build
    /// their specs here and behave exactly as before the op redesign.
    pub fn new(a: MatrixId, b: MatrixId) -> Self {
        Self::multiply(a, b)
    }

    /// A job running an arbitrary op expression with engine defaults.
    pub fn of(op: OpSpec) -> Self {
        JobSpec { op }
    }

    /// `C = A·B`.
    pub fn multiply(a: MatrixId, b: MatrixId) -> Self {
        Self::of(OpSpec::Multiply { a, b })
    }

    /// `C = alpha·A + beta·B`.
    pub fn add(alpha: f64, a: MatrixId, beta: f64, b: MatrixId) -> Self {
        Self::of(OpSpec::Add { alpha, a, beta, b })
    }

    /// A left-associated chain `C = M₁·M₂·…·Mₙ`.
    pub fn chain(operands: impl Into<Vec<MatrixId>>) -> Self {
        Self::of(OpSpec::Chain {
            operands: operands.into(),
            mask: None,
        })
    }

    /// `C = A^k`.
    pub fn power(a: MatrixId, k: u32) -> Self {
        Self::of(OpSpec::Power { a, k, mask: None })
    }

    /// Applies a mask: a plain multiply becomes a [`OpSpec::MaskedMultiply`];
    /// on a chain or power the mask attaches to the final link; on an
    /// already-masked multiply it replaces the mask. `Add` has no product
    /// to mask — the spec is returned unchanged.
    pub fn mask(mut self, m: MatrixId) -> Self {
        self.op = match self.op {
            OpSpec::Multiply { a, b } => OpSpec::MaskedMultiply { a, b, mask: m },
            OpSpec::MaskedMultiply { a, b, .. } => OpSpec::MaskedMultiply { a, b, mask: m },
            OpSpec::Chain { operands, .. } => OpSpec::Chain {
                operands,
                mask: Some(m),
            },
            OpSpec::Power { a, k, .. } => OpSpec::Power {
                a,
                k,
                mask: Some(m),
            },
            other @ OpSpec::Add { .. } => other,
        };
        self
    }
}

/// Completion record of a successful job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Engine-issued job id ([`Engine::next_job`]).
    pub job: u64,
    /// The product, in tiled form.
    pub c: Arc<TileMatrix<f64>>,
    /// Output nonzeros (structural, as the pipeline reports them).
    pub nnz_c: usize,
    /// Output tile count.
    pub tiles_c: usize,
    /// Time the job spent queued before it started, as its caller measured
    /// it (zero for [`Engine::multiply_now`]).
    pub queue_wait: Duration,
    /// Execution wall time (operand resolution + multiply).
    pub exec: Duration,
    /// Peak tracked device bytes during the multiply.
    pub peak_bytes: usize,
    /// Operand tiled forms served from the registry cache (0..=2).
    pub cache_hits: u32,
    /// CSR→tiled conversions this job had to perform (0..=2).
    pub conversions: u32,
    /// The cost prediction the job was admitted under.
    pub estimate: JobEstimate,
    /// Per-step wall times of the multiply (Figure 10's slices); chains
    /// accumulate every link's slices.
    pub breakdown: Breakdown,
    /// Multiply links executed: 1 for a (masked) multiply, 0 for an add,
    /// `n − 1` for a chain of `n` operands.
    pub links: u32,
    /// Resident handles of chain intermediates registered along the way
    /// (empty for non-chain ops, or when registration degraded under
    /// memory pressure). Each can be used as an operand of a later job
    /// without any CSR round-trip; release with `Engine::unregister`.
    pub intermediates: Vec<MatrixId>,
}

/// Terminal state of a job.
pub type JobResult = Result<JobReport, EngineError>;

#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    queue_wait_micros: AtomicU64,
    exec_micros: AtomicU64,
}

/// Snapshot of engine-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs that finished with a product.
    pub completed: u64,
    /// Jobs that ran and failed (OOM, shape mismatch, vanished operand).
    pub failed: u64,
    /// [`Engine::multiply_now`] calls rejected up front because the
    /// estimate exceeded the whole device budget.
    pub rejected: u64,
    /// Sum of the queue waits callers reported over executed jobs.
    pub queue_wait_total: Duration,
    /// Sum of execution times over completed/failed jobs.
    pub exec_total: Duration,
    /// Registry counters (conversions, hits, evictions).
    pub registry: RegistryStats,
    /// Bytes currently cached by the registry.
    pub cached_bytes: usize,
    /// Bytes held by resident (tiled-primary) product entries, outside the
    /// conversion cache's budget.
    pub resident_bytes: usize,
    /// Bytes currently tracked in-flight against the device budget.
    pub device_bytes_in_use: usize,
    /// High-water footprint of the shared scratch-arena pool (bytes); the
    /// arenas stay warm across jobs, so this is the engine-lifetime peak.
    pub arena_high_water: usize,
}

/// The resident SpGEMM service engine: registry plus synchronous executor.
/// See the module docs for the job lifecycle. Share it behind an `Arc`;
/// every method takes `&self` and jobs may execute concurrently.
pub struct Engine {
    cfg: EngineConfig,
    device_tracker: MemTracker,
    registry: Mutex<Registry>,
    counters: Counters,
    next_job: AtomicU64,
    recorder: Arc<dyn Recorder>,
    collector: Option<Arc<CollectingRecorder>>,
    /// Reusable scratch arenas shared by every job; after the first few
    /// jobs the step-2/3 hot path allocates nothing.
    arena: ScratchPool,
}

impl Engine {
    /// Builds an engine.
    pub fn new(cfg: EngineConfig) -> Self {
        let collector = cfg.profile.then(|| Arc::new(CollectingRecorder::new()));
        let recorder: Arc<dyn Recorder> = match &collector {
            Some(c) => Arc::clone(c) as Arc<dyn Recorder>,
            None => null_recorder(),
        };
        let device_tracker = MemTracker::with_budget(cfg.device.mem_budget);
        // The tracker and registry drop the attachment again when the
        // recorder is disabled, so the non-profiling path stays free.
        device_tracker.set_recorder(Some(Arc::clone(&recorder)));
        let registry = Registry::new(cfg.cache_bytes);
        registry.set_recorder(Arc::clone(&recorder));
        Engine {
            device_tracker,
            registry: Mutex::new(registry),
            counters: Counters::default(),
            next_job: AtomicU64::new(1),
            recorder,
            collector,
            arena: ScratchPool::new(),
            cfg,
        }
    }

    /// An engine with default configuration on the given device.
    pub fn on_device(device: Device) -> Self {
        Self::new(EngineConfig {
            cache_bytes: device.mem_budget / 2,
            device,
            ..EngineConfig::default()
        })
    }

    /// Registers a matrix, returning `(id, deduped)`.
    pub fn register(&self, csr: tsg_matrix::Csr<f64>) -> (MatrixId, bool) {
        self.lock_registry().insert(csr)
    }

    /// Forces (or looks up) the tiled conversion of `id`; returns the tile
    /// count, cached byte size, and whether it was a cache hit.
    pub fn convert(&self, id: MatrixId) -> Result<(usize, usize, bool), EngineError> {
        use tsg_matrix::Footprint;
        let (t, hit) = self.resolve_tiled(id)?;
        Ok((t.tile_count(), t.bytes(), hit))
    }

    /// The tiled form of `id`, converting on a cache miss *outside* the
    /// registry lock. The boolean is `true` on a cache hit. This is what
    /// jobs use to resolve operands, and what a conversion-prefetch thread
    /// calls to warm job N+1's operands while job N computes: the registry
    /// mutex is only held for the lookup and the install, so a running
    /// conversion never blocks concurrent resolves.
    pub fn resolve_tiled(&self, id: MatrixId) -> Result<(Arc<TileMatrix<f64>>, bool), EngineError> {
        // Bind the lookup first: a guard in the match scrutinee would hold
        // the registry lock through the conversion.
        let lookup = self.lock_registry().begin_tiled(id)?;
        match lookup {
            TiledLookup::Cached(t) => Ok((t, true)),
            TiledLookup::Convert(csr) => {
                let tiled = Arc::new(TileMatrix::from_csr(&csr));
                self.lock_registry()
                    .install_tiled(id, Arc::clone(&tiled), true);
                Ok((tiled, false))
            }
        }
    }

    /// Registers a pipeline product as an operand: derives its CSR form,
    /// inserts it under its content id, and pre-seeds the tiled cache with
    /// the product itself so a dependent multiply skips the conversion.
    /// Returns `(id, deduped)` like [`Engine::register`].
    ///
    /// This is the *materializing* path (protocol `materialize: true`): the
    /// CSR derivation costs about a product runtime. Chained workloads that
    /// only feed the product back into later multiplies should use
    /// [`Engine::register_tiled`] instead, which derives nothing.
    pub fn register_product(&self, tiled: Arc<TileMatrix<f64>>) -> (MatrixId, bool) {
        // Derive the CSR outside the registry lock — same discipline as
        // resolve_tiled, the derivation can cost a product runtime.
        let csr = tiled.to_csr();
        self.lock_registry().insert_with_tiled(csr, tiled)
    }

    /// Registers a pipeline product straight from its tiled form, with no
    /// CSR derivation — the handle-in/handle-out path chained jobs use. The
    /// entry is resident (exempt from cache eviction, see
    /// [`Registry::insert_tiled`]); a CSR is derived lazily only if a
    /// client later asks for one.
    ///
    /// The product is compacted first ([`TileMatrix::compact`]): phantom
    /// tiles out of step 1's structural prediction would otherwise tax
    /// every job that takes the handle as an operand, and would make the
    /// content hash depend on which pipeline produced the value.
    pub fn register_tiled(&self, tiled: Arc<TileMatrix<f64>>) -> (MatrixId, bool) {
        let compact = if (0..tiled.tile_count()).any(|t| tiled.tile_nnz_of(t) == 0) {
            Arc::new(tiled.compact())
        } else {
            tiled
        };
        self.lock_registry().insert_tiled(compact)
    }

    /// The registered CSR form of `id`. For resident tiled products this
    /// materializes (and caches) the CSR — the opt-in conversion the
    /// expression API otherwise avoids.
    pub fn csr(&self, id: MatrixId) -> Result<Arc<tsg_matrix::Csr<f64>>, EngineError> {
        self.lock_registry().csr(id)
    }

    /// Drops cached tiled forms: one matrix, or all when `id` is `None`.
    /// Returns how many cached conversions were dropped.
    pub fn evict(&self, id: Option<MatrixId>) -> Result<usize, EngineError> {
        let mut reg = self.lock_registry();
        match id {
            Some(id) => Ok(usize::from(reg.evict(id)?)),
            None => Ok(reg.evict_all()),
        }
    }

    /// Unregisters a matrix entirely (CSR and cached conversion); later
    /// references fail with `unknown_matrix`. Jobs already holding `Arc`s
    /// are unaffected.
    pub fn unregister(&self, id: MatrixId) -> Result<(), EngineError> {
        self.lock_registry().remove(id)
    }

    /// Predicts the cost of `a · b` without running it.
    pub fn estimate(&self, a: MatrixId, b: MatrixId) -> Result<JobEstimate, EngineError> {
        self.estimate_op(&OpSpec::Multiply { a, b })
    }

    /// Predicts the cost of an op expression without running it. Shape
    /// errors (incompatible operands, a mask that does not match the
    /// output) and malformed ops surface here, before anything executes.
    /// Estimation never materializes a CSR: operands whose CSR form is
    /// absent are estimated structurally from their registered shape.
    pub fn estimate_op(&self, op: &OpSpec) -> Result<JobEstimate, EngineError> {
        estimate_spec(&self.lock_registry(), op, self.cfg.sample_rate)
    }

    /// Issues a fresh job id. Every job the engine runs — through
    /// [`Engine::multiply_now`] or a scheduler calling
    /// [`Engine::execute`] — takes its id from this one counter.
    pub fn next_job(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    /// Estimates, admits and executes `spec` on the caller's thread. The
    /// only admission check is the static one a queue-less caller needs:
    /// an estimate above the whole device budget is rejected with
    /// [`EngineError::EstimateExceedsBudget`] before anything runs.
    pub fn multiply_now(&self, spec: JobSpec) -> JobResult {
        let estimate = self.estimate_op(&spec.op)?;
        let budget = self.cfg.device.mem_budget;
        if estimate.est_bytes > budget {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::EstimateExceedsBudget {
                est_bytes: estimate.est_bytes,
                budget,
            });
        }
        self.execute(self.next_job(), &spec.op, estimate, Duration::ZERO)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        let (registry, cached_bytes, resident_bytes) = {
            let reg = self.lock_registry();
            (reg.stats(), reg.cached_bytes(), reg.resident_bytes())
        };
        EngineStats {
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            queue_wait_total: Duration::from_micros(c.queue_wait_micros.load(Ordering::Relaxed)),
            exec_total: Duration::from_micros(c.exec_micros.load(Ordering::Relaxed)),
            registry,
            cached_bytes,
            resident_bytes,
            device_bytes_in_use: self.device_tracker.current_bytes(),
            arena_high_water: self.arena.high_water_bytes(),
        }
    }

    /// The engine's device.
    pub fn device(&self) -> &Device {
        &self.cfg.device
    }

    /// The engine's construction parameters.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shared device-budget tracker (in-flight bytes across all jobs).
    pub fn device_tracker(&self) -> &MemTracker {
        &self.device_tracker
    }

    /// The recorder jobs report into — a [`CollectingRecorder`] when the
    /// engine was built with [`EngineConfig::profile`], the null fast path
    /// otherwise.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The collecting recorder, when profiling is on. This is where per-job
    /// span trees live ([`CollectingRecorder::span_tree`]).
    pub fn collector(&self) -> Option<&Arc<CollectingRecorder>> {
        self.collector.as_ref()
    }

    /// Aggregated observability counters across all jobs so far. All zeros
    /// unless the engine is profiling.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    fn lock_registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shape-mismatch error from two shape summaries.
fn shape_err(a: OperandShape, b: OperandShape) -> EngineError {
    EngineError::SpGemm(SpGemmError::ShapeMismatch {
        a: (a.nrows, a.ncols),
        b: (b.nrows, b.ncols),
    })
}

/// Cost prediction for an op expression, from registry shape summaries.
///
/// Uses the exact row-by-row flop count when both operands' CSR forms are
/// already materialized, and the structural heuristic otherwise — the
/// estimate never forces the CSR materialization the expression API exists
/// to avoid. Shape validation happens here too, so incompatible operands
/// are rejected before a job ever executes.
fn estimate_spec(
    reg: &Registry,
    op: &OpSpec,
    sample_rate: f64,
) -> Result<JobEstimate, EngineError> {
    let shape_of = |id: MatrixId| -> Result<OperandShape, EngineError> {
        let (nrows, ncols, nnz) = reg.shape(id)?;
        Ok(OperandShape { nrows, ncols, nnz })
    };
    // Failpoint `engine.estimate_sample`: the sampled symbolic pass "fails"
    // and estimation falls back to the constant-compression upper bound —
    // the degraded mode a job must survive (admitted or deferred, never
    // wrongly rejected for lack of a sample).
    #[cfg(feature = "failpoints")]
    let sample_rate = if tsg_runtime::failpoint::should_fail("engine.estimate_sample") {
        0.0
    } else {
        sample_rate
    };
    let product = |a: MatrixId, b: MatrixId| -> Result<JobEstimate, EngineError> {
        let sa = shape_of(a)?;
        let sb = shape_of(b)?;
        if sa.ncols != sb.nrows {
            return Err(shape_err(sa, sb));
        }
        // Seeded per operand pair so repeated estimates of the same product
        // are bit-identical while distinct products decorrelate.
        let seed = a.0.rotate_left(32) ^ b.0 ^ 0x7153_7047_454d_4d01;
        if sample_rate > 0.0 {
            if let (Some(ca), Some(cb)) = (reg.csr_if_present(a)?, reg.csr_if_present(b)?) {
                return Ok(estimate_job_sampled(&ca, &cb, sample_rate, seed));
            }
            if let (Some(ta), Some(tb)) = (reg.tiled_if_present(a)?, reg.tiled_if_present(b)?) {
                return Ok(estimate_tiled_sampled(&ta, &tb, sample_rate, seed));
            }
        }
        match (reg.csr_if_present(a)?, reg.csr_if_present(b)?) {
            (Some(ca), Some(cb)) => Ok(estimate_job(&ca, None, &cb, None)),
            _ => Ok(estimate_product(sa, sb)),
        }
    };
    let chain = |operands: &[MatrixId], mask: Option<MatrixId>| {
        if operands.len() < 2 {
            return Err(EngineError::InvalidOp(
                "a chain needs at least two operands",
            ));
        }
        // Fold left: each link's output shape (with the estimated nnz)
        // becomes the next link's left operand. Flops sum over links; the
        // byte prediction is the widest single link, since intermediates
        // are held one at a time.
        let mut links: Vec<JobEstimate> = Vec::with_capacity(operands.len() - 1);
        let mut cur = shape_of(operands[0])?;
        for (i, &bid) in operands[1..].iter().enumerate() {
            let sb = shape_of(bid)?;
            if cur.ncols != sb.nrows {
                return Err(shape_err(cur, sb));
            }
            let e = if i == 0 {
                product(operands[0], bid)?
            } else {
                estimate_product(cur, sb)
            };
            cur = OperandShape {
                nrows: cur.nrows,
                ncols: sb.ncols,
                nnz: e.est_nnz_c,
            };
            links.push(e);
        }
        if let Some(m) = mask {
            let sm = shape_of(m)?;
            if (sm.nrows, sm.ncols) != (cur.nrows, cur.ncols) {
                return Err(shape_err(
                    sm,
                    OperandShape {
                        nrows: cur.nrows,
                        ncols: cur.ncols,
                        nnz: 0,
                    },
                ));
            }
            let last = links.pop().expect("at least one link");
            links.push(mask_pruned(last, sm));
        }
        let last = links.last().expect("at least one link");
        Ok(JobEstimate {
            flops: links.iter().map(|e| e.flops).sum(),
            est_nnz_c: last.est_nnz_c,
            est_bytes: links.iter().map(|e| e.est_bytes).max().unwrap_or(0),
            // A chain's first link may carry a sample, but the chain total
            // mixes it with heuristic links — a band over the mix would
            // overstate what was measured.
            sample: None,
        })
    };
    match op {
        OpSpec::Multiply { a, b } => product(*a, *b),
        OpSpec::MaskedMultiply { a, b, mask } => {
            let base = product(*a, *b)?;
            let sa = shape_of(*a)?;
            let sb = shape_of(*b)?;
            let sm = shape_of(*mask)?;
            if (sm.nrows, sm.ncols) != (sa.nrows, sb.ncols) {
                return Err(shape_err(
                    sm,
                    OperandShape {
                        nrows: sa.nrows,
                        ncols: sb.ncols,
                        nnz: 0,
                    },
                ));
            }
            Ok(mask_pruned(base, sm))
        }
        OpSpec::Add { a, b, .. } => {
            let sa = shape_of(*a)?;
            let sb = shape_of(*b)?;
            if (sa.nrows, sa.ncols) != (sb.nrows, sb.ncols) {
                return Err(shape_err(sa, sb));
            }
            Ok(estimate_add(sa, sb))
        }
        OpSpec::Chain { operands, mask } => chain(operands, *mask),
        OpSpec::Power { a, k, mask } => {
            if *k < 2 {
                return Err(EngineError::InvalidOp("a power needs k >= 2"));
            }
            chain(&vec![*a; *k as usize], *mask)
        }
    }
}

impl Engine {
    /// Executes job `job` (an id from [`Engine::next_job`]) on the caller's
    /// thread: resolves the operands through the registry and runs `op`
    /// under the shared device tracker. `estimate` is the prediction the
    /// caller admitted the job under and `queue_wait` the time it spent
    /// queued; both are reported back in the [`JobReport`]. No admission
    /// check runs here — a caller that admits against free memory may run
    /// a job whose estimate exceeds the whole budget, with the mid-flight
    /// tracker as the backstop.
    pub fn execute(
        &self,
        job: u64,
        op: &OpSpec,
        estimate: JobEstimate,
        queue_wait: Duration,
    ) -> JobResult {
        // Failpoint `engine.job_panic`: the job panics before it touches
        // anything, standing in for a bug anywhere in the pipeline. The
        // caller's job boundary must turn it into an `internal` error.
        #[cfg(feature = "failpoints")]
        if tsg_runtime::failpoint::should_fail("engine.job_panic") {
            panic!("injected panic at failpoint engine.job_panic (job {job})");
        }
        // Failpoint gate `engine.job_start`: while a test keeps it paused
        // the job holds its thread here, so the test decides when it may
        // finish.
        #[cfg(feature = "failpoints")]
        tsg_runtime::failpoint::gate("engine.job_start");

        self.counters
            .queue_wait_micros
            .fetch_add(queue_wait.as_micros() as u64, Ordering::Relaxed);
        let exec_start = Instant::now();
        let recorder = &*self.recorder;
        // Operand resolution gets its own span per operand (a sibling of the
        // multiply's "job" root), so a profile shows conversion stalls next to
        // the pipeline phases.
        let resolve = |id| {
            // Failpoint `engine.resolve`: the operand disappears between
            // admission (which saw it) and execution — the unregister/eviction
            // race. The job must fail with the stable `unknown_matrix` code and
            // leave the engine serving.
            #[cfg(feature = "failpoints")]
            if tsg_runtime::failpoint::should_fail("engine.resolve") {
                return Err(EngineError::UnknownMatrix(id));
            }
            let span = recorder.span_enter(job, "resolve");
            let out = self.resolve_tiled(id);
            recorder.span_exit(span);
            out
        };
        // Every job runs the engine's base configuration.
        let config = self.cfg.base_config;
        // Plain and masked multiplies are one pipeline call; the mask is one
        // more operand, resolved after `a` and `b`.
        let multiply = |a: MatrixId, b: MatrixId, mask: Option<MatrixId>| -> JobResult {
            let operands = [Some(a), Some(b), mask]
                .into_iter()
                .flatten()
                .map(&resolve)
                .collect::<Result<Vec<_>, _>>()?;
            let hits = operands.iter().filter(|(_, hit)| *hit).count() as u32;
            let out = pool_for(&self.cfg.device)
                .install(|| {
                    multiply_with_pool(
                        &operands[0].0,
                        &operands[1].0,
                        operands.get(2).map(|(m, _)| &**m),
                        &config,
                        &self.device_tracker,
                        recorder,
                        job,
                        &self.arena,
                    )
                })
                .map_err(EngineError::SpGemm)?;
            Ok(JobReport {
                job,
                nnz_c: out.c.nnz(),
                tiles_c: out.c.tile_count(),
                c: Arc::new(out.c),
                queue_wait,
                exec: exec_start.elapsed(),
                peak_bytes: out.peak_bytes,
                cache_hits: hits,
                conversions: operands.len() as u32 - hits,
                estimate,
                breakdown: out.breakdown,
                links: 1,
                intermediates: Vec::new(),
            })
        };
        let result = match op {
            OpSpec::Multiply { a, b } => multiply(*a, *b, None),
            OpSpec::MaskedMultiply { a, b, mask } => multiply(*a, *b, Some(*mask)),
            OpSpec::Add { alpha, a, beta, b } => resolve(*a).and_then(|(ta, hit_a)| {
                let (tb, hit_b) = resolve(*b)?;
                if (ta.nrows, ta.ncols) != (tb.nrows, tb.ncols) {
                    // `core::add` asserts on shape; surface the typed error
                    // instead (estimation validated against the registry, but
                    // operands can be swapped under us between admission and
                    // execution).
                    return Err(EngineError::SpGemm(SpGemmError::ShapeMismatch {
                        a: (ta.nrows, ta.ncols),
                        b: (tb.nrows, tb.ncols),
                    }));
                }
                // The add kernel has no tracker of its own; account its
                // operands and output against the device budget here so an add
                // respects the same admission backstop as the multiplies.
                let input_bytes = ta.bytes() + tb.bytes();
                self.device_tracker
                    .on_alloc(input_bytes)
                    .map_err(|e| EngineError::SpGemm(e.into()))?;
                let mut breakdown = Breakdown::default();
                let span = recorder.span_enter(job, "job");
                let c = pool_for(&self.cfg.device).install(|| {
                    breakdown.timed(Step::Step3, || {
                        tilespgemm_core::add(*alpha, &ta, *beta, &tb)
                    })
                });
                recorder.span_exit(span);
                let c_bytes = c.bytes();
                let out_alloc = self.device_tracker.on_alloc(c_bytes);
                self.device_tracker.on_free(input_bytes);
                match out_alloc {
                    Ok(()) => self.device_tracker.on_free(c_bytes),
                    Err(e) => return Err(EngineError::SpGemm(e.into())),
                }
                Ok(JobReport {
                    job,
                    nnz_c: c.nnz(),
                    tiles_c: c.tile_count(),
                    c: Arc::new(c),
                    queue_wait,
                    exec: exec_start.elapsed(),
                    peak_bytes: input_bytes + c_bytes,
                    cache_hits: u32::from(hit_a) + u32::from(hit_b),
                    conversions: u32::from(!hit_a) + u32::from(!hit_b),
                    estimate,
                    breakdown,
                    links: 0,
                    intermediates: Vec::new(),
                })
            }),
            OpSpec::Chain { operands, mask } => self.run_chain(
                job, &resolve, operands, *mask, &config, estimate, exec_start, queue_wait,
            ),
            OpSpec::Power { a, k, mask } => {
                let ops = vec![*a; (*k).max(1) as usize];
                self.run_chain(
                    job, &resolve, &ops, *mask, &config, estimate, exec_start, queue_wait,
                )
            }
        };
        self.counters
            .exec_micros
            .fetch_add(exec_start.elapsed().as_micros() as u64, Ordering::Relaxed);
        match &result {
            Ok(report) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                // Pin the estimator's accuracy per completed job: which log2
                // band did actual peak bytes land in relative to the admission
                // estimate?
                //
                // Multiply-shaped jobs tick: plain multiplies run on the
                // sampled/exact-flops model, and masked multiplies now prune
                // that same model through the mask (`mask_pruned`), so both are
                // like-for-like with the histogram. Add and chain jobs still
                // run on unrelated heuristic baselines and skip the tick.
                if matches!(*op, OpSpec::Multiply { .. } | OpSpec::MaskedMultiply { .. }) {
                    recorder.add(
                        est_error_bucket(report.estimate.est_bytes, report.peak_bytes),
                        1,
                    );
                }
                // Sampled-estimator provenance: how many completed jobs carried
                // a sampled band, how many tile rows those samples measured,
                // how often the "sample" was in fact the full population, and
                // how many multiply-shaped jobs fell back to the constant model
                // (sampling disabled, failpoint, or shape-only operands).
                match estimate.sample {
                    Some(s) => {
                        recorder.add(Counter::EstSampleJobs, 1);
                        recorder.add(Counter::EstSampleRows, u64::from(s.sampled_tile_rows));
                        if s.exact {
                            recorder.add(Counter::EstSampleExact, 1);
                        }
                    }
                    None => {
                        if matches!(*op, OpSpec::Multiply { .. } | OpSpec::MaskedMultiply { .. }) {
                            recorder.add(Counter::EstSampleFallback, 1);
                        }
                    }
                }
                if matches!(*op, OpSpec::Chain { .. } | OpSpec::Power { .. }) {
                    recorder.add(Counter::ChainLinks, u64::from(report.links));
                }
                if matches!(
                    *op,
                    OpSpec::MaskedMultiply { .. }
                        | OpSpec::Chain { mask: Some(_), .. }
                        | OpSpec::Power { mask: Some(_), .. }
                ) {
                    recorder.add(Counter::MaskedJobs, 1);
                }
            }
            Err(_) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        };
        result
    }

    /// Executes a left-associated chain of multiplies, keeping every
    /// intermediate in the tiled format: link `i`'s product feeds link `i+1`
    /// directly as an `Arc`, and is also registered as a resident product
    /// handle (no CSR is derived — see [`Registry::insert_tiled`]). The mask,
    /// if any, applies to the final link only.
    ///
    /// All named operands are pinned in the registry for the duration, so
    /// concurrent cache pressure cannot evict a tiled form between links.
    #[allow(clippy::too_many_arguments)]
    fn run_chain(
        &self,
        job: u64,
        resolve: &dyn Fn(MatrixId) -> Result<TiledHit, EngineError>,
        ops: &[MatrixId],
        mask: Option<MatrixId>,
        config: &Config,
        estimate: JobEstimate,
        exec_start: Instant,
        queue_wait: Duration,
    ) -> JobResult {
        let recorder = &*self.recorder;
        let pinned: Vec<MatrixId> = ops.iter().copied().chain(mask).collect();
        {
            let mut reg = self.lock_registry();
            for &id in &pinned {
                reg.pin(id);
            }
        }
        let result = (|| {
            let (first, hit0) = resolve(ops[0])?;
            let mut cur = first;
            let mut cache_hits = u32::from(hit0);
            let mut conversions = u32::from(!hit0);
            let tm = match mask {
                Some(m) => {
                    let (t, hit) = resolve(m)?;
                    cache_hits += u32::from(hit);
                    conversions += u32::from(!hit);
                    Some(t)
                }
                None => None,
            };
            let mut breakdown = Breakdown::default();
            let mut peak = 0usize;
            let mut intermediates = Vec::new();
            let last = ops.len() - 2;
            for (i, &bid) in ops[1..].iter().enumerate() {
                let (tb, hit) = resolve(bid)?;
                cache_hits += u32::from(hit);
                conversions += u32::from(!hit);
                let link_mask = if i == last { tm.as_deref() } else { None };
                let out = pool_for(&self.cfg.device)
                    .install(|| {
                        multiply_with_pool(
                            &cur,
                            &tb,
                            link_mask,
                            config,
                            &self.device_tracker,
                            recorder,
                            job,
                            &self.arena,
                        )
                    })
                    .map_err(EngineError::SpGemm)?;
                breakdown.step1 += out.breakdown.step1;
                breakdown.step2 += out.breakdown.step2;
                breakdown.step3 += out.breakdown.step3;
                breakdown.alloc += out.breakdown.alloc;
                peak = peak.max(out.peak_bytes);
                // Step 1 predicts the product's tile set structurally, so the
                // raw output can carry phantom (zero-entry) tiles. The next
                // link's step 1 walks every operand tile, so compact before
                // feeding the product back — a pure metadata rewrite, far
                // cheaper than the CSR round-trip it replaces.
                let c = Arc::new(out.c.compact());
                if i != last {
                    // Failpoint `engine.chain_register`: the resident
                    // registration is refused (the registry cannot take the
                    // allocation). Graceful degradation: the intermediate
                    // lives on as this job's local `Arc`, the chain continues,
                    // only the handle is missing from the report.
                    #[cfg(feature = "failpoints")]
                    let skip = tsg_runtime::failpoint::should_fail("engine.chain_register");
                    #[cfg(not(feature = "failpoints"))]
                    let skip = false;
                    if !skip {
                        let (mid, _) = self.lock_registry().insert_tiled(Arc::clone(&c));
                        intermediates.push(mid);
                    }
                }
                cur = c;
            }
            Ok(JobReport {
                job,
                nnz_c: cur.nnz(),
                tiles_c: cur.tile_count(),
                c: cur,
                queue_wait,
                exec: exec_start.elapsed(),
                peak_bytes: peak,
                cache_hits,
                conversions,
                estimate,
                breakdown,
                links: (ops.len() - 1) as u32,
                intermediates,
            })
        })();
        let mut reg = self.lock_registry();
        for &id in &pinned {
            reg.unpin(id);
        }
        result
    }
}

/// A resolved operand: its tiled form plus whether the conversion cache hit.
type TiledHit = (Arc<TileMatrix<f64>>, bool);
