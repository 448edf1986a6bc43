//! Weighted-fair, backpressure-first job scheduler: the one queue in front
//! of the engine.
//!
//! The engine is a synchronous executor with no queue of its own; this
//! scheduler owns every queueing decision and runs jobs on its own workers:
//!
//! * Every client holds a [session](Scheduler::open_session) with its own
//!   bounded FIFO queue and a fairness weight. A submission that finds the
//!   queue full is briefly held (the connection blocks — natural flow
//!   control) and, if space does not free in time, answered with a
//!   structured [`BackpressureHint`] (`retry_after`, `queue_position`)
//!   instead of an error drop. The client resubmits; nothing is lost.
//! * [`EngineConfig::workers`](tsg_engine::EngineConfig::workers) scheduler
//!   workers each loop: pick a job, [`Engine::execute`] it, register a kept
//!   or `$k`-referenced product, complete the ticket. The worker count is
//!   the in-flight cap. Each job runs inside `catch_unwind`: a panic
//!   completes its ticket with the `internal` error code and the worker
//!   carries on.
//! * The pick is weighted-fair queueing over virtual time: each dispatch
//!   advances its session's virtual finish tag by `1/weight`, and the
//!   runnable session with the smallest tag goes next. A bulk batch in one
//!   session therefore cannot starve another session's interactive jobs —
//!   dispatches interleave in weight proportion.
//! * Admission reserves each job's estimated bytes against the memory
//!   currently free (`budget − max(reserved, tracked)`). A head that does
//!   not fit waits at the head of the dispatch order; completions release
//!   memory and re-evaluate it. An estimate above the whole budget is
//!   *deferred*: once the device is idle it runs solo (exclusive), with the
//!   mid-flight tracker as the backstop. While the fair-queue head waits
//!   nothing overtakes it, so deferral cannot become starvation.
//! * Queue-wait deadlines (a job's `timeout`, else
//!   [`SchedConfig::default_timeout`]) and cancellation apply while a job
//!   is queued; a job whose deadline passed completes as `timed_out`
//!   without running. A running job is not interruptible.
//! * Batches ([`Scheduler::submit`] with several [`SubmitSpec`]s) may
//!   reference earlier entries' products as operands ([`Operand::Ref`],
//!   `$k` on the wire). Referenced products are registered on completion
//!   ([`Engine::register_product`]) and the dependent job becomes runnable
//!   the moment its operand exists.
//! * Pipeline-stage overlap: after each dispatch the scheduler peeks the
//!   next runnable job and warms its operand conversions on a dedicated
//!   conversion thread ([`Engine::resolve_tiled`] converts outside the
//!   registry lock), so job N+1's CSR→tiled conversion runs while job N
//!   computes.
//!
//! Job ids come from the engine's one counter ([`Engine::next_job`]), so a
//! ticket's id is the `job` its report carries and the key of its profile
//! row.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsg_engine::{Engine, EngineError, JobEstimate, JobReport, MatrixId, OpSpec};
use tsg_runtime::observe::{Counter, QueueGauge, WaitGauge};

/// Scheduler construction parameters.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Default bounded depth of each session's queue (a session may
    /// override it at open time).
    pub session_queue_depth: usize,
    /// How long a submission that finds its queue full is held waiting for
    /// space before it is answered with a [`BackpressureHint`].
    pub backpressure_wait: Duration,
    /// Warm the next runnable job's operand conversions on the conversion
    /// thread while the current job computes.
    pub prefetch: bool,
    /// Queue-wait deadline for jobs that carry no `timeout` of their own.
    pub default_timeout: Option<Duration>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            session_queue_depth: 8,
            backpressure_wait: Duration::from_millis(25),
            prefetch: true,
            default_timeout: None,
        }
    }
}

/// One operand of a scheduled multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A registered matrix.
    Id(MatrixId),
    /// The product of an earlier entry in the same batch (`"$k"` on the
    /// wire). Must point strictly backwards.
    Ref(usize),
}

/// One job in a submission (single job or batch entry): a multiply, or an
/// add when [`SubmitSpec::add`] is set.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Left operand.
    pub a: Operand,
    /// Right operand.
    pub b: Operand,
    /// Optional mask operand: the job computes `(A·B) ∘ mask` with the
    /// mask pushed into the pipeline's step 2. Like `a`/`b` it may be a
    /// `$k` back-reference, so a chain's final link can mask by an earlier
    /// entry's product.
    pub mask: Option<Operand>,
    /// `Some((alpha, beta))` makes the job the sum `alpha·A + beta·B`
    /// instead of a product; `mask` is then unused.
    pub add: Option<(f64, f64)>,
    /// Queue-wait deadline; `None` uses [`SchedConfig::default_timeout`].
    pub timeout: Option<Duration>,
    /// Register the product as an operand and report its handle.
    pub keep: bool,
    /// How a registered product (kept or `$k`-referenced) enters the
    /// registry: `true` materializes its CSR (the v2 behaviour, handles
    /// usable everywhere), `false` registers the tiled form as a resident
    /// entry — chain links stay handle-in/handle-out with no CSR
    /// round-trip.
    pub materialize: bool,
}

impl SubmitSpec {
    /// A job multiplying `a · b` with defaults.
    pub fn new(a: MatrixId, b: MatrixId) -> Self {
        SubmitSpec {
            a: Operand::Id(a),
            b: Operand::Id(b),
            mask: None,
            add: None,
            timeout: None,
            keep: false,
            materialize: true,
        }
    }

    /// A job adding `alpha·a + beta·b` with defaults.
    pub fn add(alpha: f64, a: MatrixId, beta: f64, b: MatrixId) -> Self {
        SubmitSpec {
            add: Some((alpha, beta)),
            ..Self::new(a, b)
        }
    }

    /// Every operand the job depends on, mask included.
    pub(crate) fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        [Some(self.a), Some(self.b), self.mask]
            .into_iter()
            .flatten()
    }
}

/// Structured flow-control answer to a submission that could not be queued:
/// nothing was dropped, the client holds its work and resubmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressureHint {
    /// Suggested wait before resubmitting, derived from the execution-time
    /// EWMA and the backlog depth.
    pub retry_after: Duration,
    /// Jobs currently ahead in the session's queue. Monotone non-increasing
    /// across retries of a blocked client (its own adds are the ones being
    /// refused), so clients can observe drain progress.
    pub queue_position: usize,
}

/// Why a submission was refused outright (not flow control — the request
/// itself is unserviceable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The session id was never opened (or the scheduler restarted).
    UnknownSession(u64),
    /// The scheduler is draining and accepts no new work.
    Draining,
    /// A batch `$k` reference points at itself or forwards.
    BadRef {
        /// Batch entry holding the bad reference.
        index: usize,
        /// The referenced entry.
        reference: usize,
    },
    /// The batch is larger than the session queue can ever hold.
    BatchTooLarge {
        /// Entries in the rejected batch.
        len: usize,
        /// The session's queue depth.
        depth: usize,
    },
}

/// Outcome of [`Scheduler::submit`].
#[derive(Debug)]
pub enum Submission {
    /// All entries queued, in order; one ticket per entry.
    Queued(Vec<ServeTicket>),
    /// The queue stayed full through the bounded hold: retry later.
    Backpressure(BackpressureHint),
}

/// Completed job payload: the engine's report plus the registered product
/// handle when the job kept it (or a later batch entry referenced it).
#[derive(Debug, Clone)]
pub struct JobDone {
    /// The engine's completion record.
    pub report: JobReport,
    /// Content id the product registered under, when kept.
    pub kept: Option<MatrixId>,
}

/// Terminal state of a scheduled job.
pub type ServeResult = Result<JobDone, EngineError>;

struct STicket {
    result: Mutex<Option<ServeResult>>,
    cv: Condvar,
}

fn complete(ticket: &STicket, result: ServeResult) {
    *ticket.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    ticket.cv.notify_all();
}

/// Handle to a scheduled job; `wait` blocks for the result.
#[derive(Clone)]
pub struct ServeTicket {
    /// Engine-issued job id; the `job` of its report and its profile row.
    pub job: u64,
    inner: Arc<STicket>,
}

impl std::fmt::Debug for ServeTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTicket")
            .field("job", &self.job)
            .field("done", &self.try_result().is_some())
            .finish()
    }
}

impl ServeTicket {
    /// Blocks until the job completes, returning its result.
    pub fn wait(&self) -> ServeResult {
        let mut guard = self
            .inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = guard.as_ref() {
                return r.clone();
            }
            guard = self
                .inner
                .cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll.
    pub fn try_result(&self) -> Option<ServeResult> {
        self.inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

struct QueuedSJob {
    id: u64,
    spec: SubmitSpec,
    /// Batch id (first job id of the batch) for `$k` resolution.
    batch: Option<u64>,
    batch_index: usize,
    /// Register the product on completion (`keep`, or a later entry
    /// references it).
    register: bool,
    enqueued: Instant,
    /// Set once the job has been counted as deferred, so re-evaluations do
    /// not double-count.
    deferred_marked: bool,
    ticket: Arc<STicket>,
}

struct SessionState {
    name: String,
    weight: f64,
    depth: usize,
    queue: VecDeque<QueuedSJob>,
    /// Weighted-fair virtual finish tag; next dispatch from this session
    /// starts at `max(vtime, vclock)` and finishes `1/weight` later.
    vtime: f64,
    enqueued: u64,
    completed: u64,
    failed: u64,
    canceled: u64,
    hints: u64,
}

/// Per-session statistics row.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Session id.
    pub id: u64,
    /// Client-supplied label.
    pub name: String,
    /// Fairness weight.
    pub weight: f64,
    /// Jobs currently queued (not yet dispatched).
    pub queued: usize,
    /// Jobs accepted into the session queue.
    pub enqueued: u64,
    /// Jobs completed with a product.
    pub completed: u64,
    /// Jobs that failed (including expired deadlines and failed deps).
    pub failed: u64,
    /// Jobs canceled while queued.
    pub canceled: u64,
    /// Backpressure hints issued to this session.
    pub hints: u64,
}

/// Scheduler-level statistics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerStats {
    /// Per-session rows, in open order.
    pub sessions: Vec<SessionStats>,
    /// Jobs currently queued across all sessions.
    pub queue_depth: u64,
    /// High-water queued jobs across all sessions.
    pub queue_high_water: u64,
    /// Mean scheduler queue wait over dispatched jobs.
    pub wait_mean: Duration,
    /// Dispatched jobs the wait mean covers.
    pub wait_samples: u64,
    /// Backpressure hints issued (submissions held then retried — never
    /// dropped).
    pub backpressure_hints: u64,
    /// Jobs that waited at the dispatch head for memory to free.
    pub deferred: u64,
    /// Jobs submitted as part of a multi-entry batch.
    pub batch_jobs: u64,
    /// Jobs handed to a worker so far.
    pub dispatched: u64,
    /// Jobs currently executing on the workers (at most their count).
    pub in_flight: usize,
    /// Jobs whose execution panicked; each completed as `internal`.
    pub job_panics: u64,
    /// Execution-time EWMA feeding `retry_after` hints.
    pub exec_ewma: Duration,
    /// Whether the scheduler is draining.
    pub draining: bool,
}

struct Inner {
    sessions: HashMap<u64, SessionState>,
    session_order: Vec<u64>,
    vclock: f64,
    in_flight: usize,
    /// Sum of the admission estimates of every in-flight job. Admission
    /// gates on `budget − max(reserved, tracked)`: reservations cover the
    /// bytes an admitted job has not allocated *yet* (a sampled estimate is
    /// an upper bound on its tracked peak, so `Σ estimates ≤ budget` keeps
    /// concurrent jobs from growing past the budget mid-flight), while the
    /// tracked term covers allocations that outlive or exceed a reservation.
    reserved_bytes: usize,
    /// `(batch id, entry index)` → registered product, or the failed job's
    /// id when the entry can never produce one.
    batch_products: HashMap<(u64, usize), Result<MatrixId, u64>>,
    /// `(session, job)` in dispatch order — the fairness audit trail.
    dispatch_log: Vec<(u64, u64)>,
    exec_ewma: Duration,
    deferred: u64,
    hints: u64,
    batch_jobs: u64,
    /// Job admitted solo past the free-memory check: while it runs nothing
    /// else may dispatch (or prefetch), or the combined peaks could blow
    /// the budget mid-flight.
    exclusive_job: Option<u64>,
    draining: bool,
    stopped: bool,
}

struct Shared {
    engine: Arc<Engine>,
    cfg: SchedConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
    queue_gauge: QueueGauge,
    wait_gauge: WaitGauge,
    job_panics: AtomicU64,
    next_session: AtomicU64,
    convert_tx: Mutex<Option<Sender<MatrixId>>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The multi-client scheduler. Construction spawns
/// [`EngineConfig::workers`](tsg_engine::EngineConfig::workers) workers
/// and one conversion thread; [`Scheduler::shutdown`] (or drop) drains and
/// joins them.
pub struct Scheduler {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Builds a scheduler over `engine` and starts its threads.
    pub fn new(engine: Arc<Engine>, cfg: SchedConfig) -> Self {
        let (tx, rx) = mpsc::channel::<MatrixId>();
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                session_order: Vec::new(),
                vclock: 0.0,
                in_flight: 0,
                reserved_bytes: 0,
                batch_products: HashMap::new(),
                dispatch_log: Vec::new(),
                exec_ewma: Duration::ZERO,
                deferred: 0,
                hints: 0,
                batch_jobs: 0,
                exclusive_job: None,
                draining: false,
                stopped: false,
            }),
            cv: Condvar::new(),
            queue_gauge: QueueGauge::new(),
            wait_gauge: WaitGauge::new(),
            job_panics: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            convert_tx: Mutex::new(Some(tx)),
            cfg,
            engine: Arc::clone(&engine),
        });
        let mut threads: Vec<JoinHandle<()>> = (0..engine.config().workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tsg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning scheduler worker")
            })
            .collect();
        threads.push({
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("tsg-serve-convert".into())
                .spawn(move || {
                    // Warm conversions until the sender side is dropped at
                    // shutdown. Errors (unloaded matrix) are fine — the
                    // job re-resolves authoritatively.
                    while let Ok(id) = rx.recv() {
                        let _ = engine.resolve_tiled(id);
                    }
                })
                .expect("spawning converter")
        });
        Scheduler {
            shared,
            threads: Mutex::new(threads),
        }
    }

    /// The engine jobs dispatch into.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Opens a session with fairness `weight` (must be finite and positive)
    /// and an optional queue-depth override, returning its id.
    pub fn open_session(
        &self,
        name: &str,
        weight: f64,
        depth: Option<usize>,
    ) -> Result<u64, SubmitError> {
        // Failpoint `serve.session_open`: the scheduler refuses the session
        // as if it were draining, exercising the client-visible refusal
        // path without an actual shutdown.
        #[cfg(feature = "failpoints")]
        if tsg_runtime::failpoint::should_fail("serve.session_open") {
            return Err(SubmitError::Draining);
        }
        let weight = if weight.is_finite() && weight > 0.0 {
            weight
        } else {
            1.0
        };
        let mut inner = self.lock();
        if inner.draining {
            return Err(SubmitError::Draining);
        }
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        // New sessions start at the current virtual clock, not zero — a
        // late joiner must not replay the virtual time others already
        // consumed.
        let vtime = inner.vclock;
        inner.sessions.insert(
            id,
            SessionState {
                name: name.to_string(),
                weight,
                depth: depth.unwrap_or(self.shared.cfg.session_queue_depth).max(1),
                queue: VecDeque::new(),
                vtime,
                enqueued: 0,
                completed: 0,
                failed: 0,
                canceled: 0,
                hints: 0,
            },
        );
        inner.session_order.push(id);
        self.shared
            .engine
            .recorder()
            .add(Counter::SessionsOpened, 1);
        Ok(id)
    }

    /// Submits one job (`specs.len() == 1`) or an ordered batch. Entries
    /// may reference earlier entries' products ([`Operand::Ref`]). The
    /// whole submission is admitted atomically: either every entry queues
    /// (in order) or none does and the caller gets a [`BackpressureHint`].
    pub fn submit(&self, session: u64, specs: Vec<SubmitSpec>) -> Result<Submission, SubmitError> {
        assert!(!specs.is_empty(), "a submission needs at least one job");
        // Validate references before touching any queue: `$k` must point
        // strictly backwards.
        let mut referenced = vec![false; specs.len()];
        for (i, spec) in specs.iter().enumerate() {
            for op in spec.operands() {
                if let Operand::Ref(k) = op {
                    if k >= i {
                        return Err(SubmitError::BadRef {
                            index: i,
                            reference: k,
                        });
                    }
                    referenced[k] = true;
                }
            }
        }
        let mut inner = self.lock();
        if inner.draining {
            return Err(SubmitError::Draining);
        }
        let depth = match inner.sessions.get(&session) {
            Some(s) => s.depth,
            None => return Err(SubmitError::UnknownSession(session)),
        };
        if specs.len() > depth {
            return Err(SubmitError::BatchTooLarge {
                len: specs.len(),
                depth,
            });
        }
        // Bounded hold: wait for space, then hint. Holding the submission
        // here (the transport blocks with it) is the backpressure — the
        // hint is only the fallback when the backlog outlives the hold.
        // Failpoint `serve.backpressure_wait`: the hold "expires"
        // immediately, forcing the hint path deterministically.
        #[cfg(feature = "failpoints")]
        let skip_hold = tsg_runtime::failpoint::should_fail("serve.backpressure_wait");
        #[cfg(not(feature = "failpoints"))]
        let skip_hold = false;
        let deadline = Instant::now() + self.shared.cfg.backpressure_wait;
        loop {
            let sess = inner.sessions.get(&session).expect("session exists");
            if sess.queue.len() + specs.len() <= depth && !skip_hold {
                break;
            }
            let now = Instant::now();
            if skip_hold || now >= deadline || inner.draining {
                let backlog = sess.queue.len();
                let hint = BackpressureHint {
                    retry_after: retry_after(&inner, self.shared.engine.config(), backlog),
                    queue_position: backlog,
                };
                let sess = inner.sessions.get_mut(&session).expect("session exists");
                sess.hints += 1;
                inner.hints += 1;
                self.shared
                    .engine
                    .recorder()
                    .add(Counter::ServeBackpressureHints, 1);
                return Ok(Submission::Backpressure(hint));
            }
            inner = self
                .shared
                .cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if inner.draining {
                return Err(SubmitError::Draining);
            }
        }
        // Space confirmed for the whole submission: enqueue in order.
        let batch = specs.len() > 1;
        let mut batch_id = None;
        let mut tickets = Vec::with_capacity(specs.len());
        let now = Instant::now();
        for (i, spec) in specs.into_iter().enumerate() {
            let id = self.shared.engine.next_job();
            if batch && batch_id.is_none() {
                batch_id = Some(id);
            }
            let ticket = Arc::new(STicket {
                result: Mutex::new(None),
                cv: Condvar::new(),
            });
            tickets.push(ServeTicket {
                job: id,
                inner: Arc::clone(&ticket),
            });
            let register = spec.keep || referenced[i];
            let sess = inner.sessions.get_mut(&session).expect("session exists");
            sess.queue.push_back(QueuedSJob {
                id,
                spec,
                batch: batch_id,
                batch_index: i,
                register,
                enqueued: now,
                deferred_marked: false,
                ticket,
            });
            sess.enqueued += 1;
            self.shared.queue_gauge.add(1);
            self.shared.engine.recorder().add(Counter::ServeEnqueued, 1);
            if batch {
                inner.batch_jobs += 1;
                self.shared
                    .engine
                    .recorder()
                    .add(Counter::ServeBatchJobs, 1);
            }
        }
        drop(inner);
        self.shared.cv.notify_all();
        Ok(Submission::Queued(tickets))
    }

    /// Convenience: submit one job and wait for it, resubmitting through
    /// backpressure hints. Used by tests and the bench harness.
    pub fn multiply_now(&self, session: u64, spec: SubmitSpec) -> Result<ServeResult, SubmitError> {
        loop {
            match self.submit(session, vec![spec.clone()])? {
                Submission::Queued(tickets) => return Ok(tickets[0].wait()),
                Submission::Backpressure(hint) => std::thread::sleep(hint.retry_after),
            }
        }
    }

    /// Cancels a queued job, completing it as `canceled`. A job already
    /// executing is not interruptible and completes normally. Returns
    /// whether a queued job was canceled.
    pub fn cancel(&self, job: u64) -> bool {
        let mut inner = self.lock();
        let sids: Vec<u64> = inner.sessions.keys().copied().collect();
        for sid in sids {
            let sess = inner.sessions.get_mut(&sid).expect("session exists");
            let Some(idx) = sess.queue.iter().position(|j| j.id == job) else {
                continue;
            };
            let j = sess.queue.remove(idx).expect("index in range");
            sess.canceled += 1;
            self.shared.queue_gauge.sub(1);
            fail_queued(&mut inner, j, EngineError::Canceled);
            drop(inner);
            self.shared.cv.notify_all();
            return true;
        }
        false
    }

    /// Current scheduler statistics.
    pub fn stats(&self) -> SchedulerStats {
        let inner = self.lock();
        let sessions = inner
            .session_order
            .iter()
            .filter_map(|id| inner.sessions.get(id).map(|s| (id, s)))
            .map(|(&id, s)| SessionStats {
                id,
                name: s.name.clone(),
                weight: s.weight,
                queued: s.queue.len(),
                enqueued: s.enqueued,
                completed: s.completed,
                failed: s.failed,
                canceled: s.canceled,
                hints: s.hints,
            })
            .collect();
        SchedulerStats {
            sessions,
            queue_depth: self.shared.queue_gauge.depth(),
            queue_high_water: self.shared.queue_gauge.high_water(),
            wait_mean: self.shared.wait_gauge.mean(),
            wait_samples: self.shared.wait_gauge.samples(),
            backpressure_hints: inner.hints,
            deferred: inner.deferred,
            batch_jobs: inner.batch_jobs,
            dispatched: inner.dispatch_log.len() as u64,
            in_flight: inner.in_flight,
            job_panics: self.shared.job_panics.load(Ordering::Relaxed),
            exec_ewma: inner.exec_ewma,
            draining: inner.draining,
        }
    }

    /// `(session, job)` pairs in dispatch order — the fairness audit trail
    /// tests assert interleaving on.
    pub fn dispatch_log(&self) -> Vec<(u64, u64)> {
        self.lock().dispatch_log.clone()
    }

    /// Stops accepting work and waits up to `deadline` for every queued and
    /// in-flight job to finish. Jobs still queued past the deadline
    /// complete as `shutting_down`. Returns `true` when the drain finished
    /// inside the deadline.
    pub fn drain(&self, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        let mut inner = self.lock();
        inner.draining = true;
        self.shared.cv.notify_all();
        let drained = loop {
            let idle = inner.in_flight == 0 && inner.sessions.values().all(|s| s.queue.is_empty());
            if idle {
                break true;
            }
            let now = Instant::now();
            if now >= end {
                break false;
            }
            inner = self
                .shared
                .cv
                .wait_timeout(inner, end - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        // Past the deadline: fail whatever is still queued (in-flight jobs
        // are not interruptible; their workers finish them).
        let sids: Vec<u64> = inner.session_order.clone();
        for sid in sids {
            let Some(sess) = inner.sessions.get_mut(&sid) else {
                continue;
            };
            let leftovers: Vec<QueuedSJob> = sess.queue.drain(..).collect();
            sess.failed += leftovers.len() as u64;
            for j in leftovers {
                self.shared.queue_gauge.sub(1);
                fail_queued(&mut inner, j, EngineError::ShuttingDown);
            }
        }
        inner.stopped = true;
        drop(inner);
        self.shared.cv.notify_all();
        drained
    }

    /// Drains (with `deadline`) and joins the scheduler's threads: the
    /// workers finish their in-flight jobs first. Idempotent.
    pub fn shutdown(&self, deadline: Duration) -> bool {
        let drained = self.drain(deadline);
        // Closing the channel ends the conversion thread.
        *self
            .shared
            .convert_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        let threads: Vec<JoinHandle<()>> = self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in threads {
            let _ = h.join();
        }
        drained
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared.lock()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(30));
    }
}

/// `retry_after` for a backpressure hint: the backlog's expected service
/// time under the execution EWMA, spread over the engine's workers.
fn retry_after(inner: &Inner, cfg: &tsg_engine::EngineConfig, backlog: usize) -> Duration {
    let ewma = if inner.exec_ewma.is_zero() {
        Duration::from_millis(10)
    } else {
        inner.exec_ewma
    };
    let workers = cfg.workers.max(1) as u32;
    (ewma * backlog.max(1) as u32 / workers).max(Duration::from_millis(1))
}

/// Resolution of one operand at dispatch time.
enum Resolved {
    Ready(MatrixId),
    /// Referenced batch entry has not produced yet.
    Pending,
    /// Referenced batch entry failed; carries the dep's job id.
    Broken(u64),
}

fn resolve_operand(inner: &Inner, job: &QueuedSJob, op: Operand) -> Resolved {
    match op {
        Operand::Id(id) => Resolved::Ready(id),
        Operand::Ref(k) => {
            let Some(batch) = job.batch else {
                return Resolved::Broken(job.id);
            };
            match inner.batch_products.get(&(batch, k)) {
                Some(Ok(id)) => Resolved::Ready(*id),
                Some(Err(dep)) => Resolved::Broken(*dep),
                None => Resolved::Pending,
            }
        }
    }
}

/// The engine op of a queued job, once every operand it names exists.
fn resolve_op(inner: &Inner, job: &QueuedSJob) -> Option<OpSpec> {
    let id = |op| match resolve_operand(inner, job, op) {
        Resolved::Ready(id) => Some(id),
        _ => None,
    };
    let (a, b) = (id(job.spec.a)?, id(job.spec.b)?);
    let mask = match job.spec.mask {
        Some(m) => Some(id(m)?),
        None => None,
    };
    Some(match (job.spec.add, mask) {
        (Some((alpha, beta)), _) => OpSpec::Add { alpha, a, beta, b },
        (None, Some(mask)) => OpSpec::MaskedMultiply { a, b, mask },
        (None, None) => OpSpec::Multiply { a, b },
    })
}

/// Completes a job that leaves the queue without running: a batch entry
/// that later entries reference can then never produce, so they fail with
/// `dependency_failed`.
fn fail_queued(inner: &mut Inner, job: QueuedSJob, err: EngineError) {
    if job.register {
        if let Some(b) = job.batch {
            inner
                .batch_products
                .insert((b, job.batch_index), Err(job.id));
        }
    }
    complete(&job.ticket, Err(err));
}

/// What a worker decided while scanning the queues.
enum Scan {
    /// Run this session's head as `op`, reserving its estimated bytes until
    /// it completes; `exclusive` marks a job whose estimate exceeds the
    /// whole budget (the deferred-admission backstop), which must then run
    /// alone.
    Dispatch {
        sid: u64,
        op: OpSpec,
        estimate: JobEstimate,
        exclusive: bool,
    },
    /// Nothing runnable (or the fair head is parked on memory): wait.
    Wait,
}

/// A dispatched job on its worker.
struct Running {
    sid: u64,
    job: QueuedSJob,
    op: OpSpec,
    estimate: JobEstimate,
    queue_wait: Duration,
}

/// One scheduler worker: pick a job, run it, complete it, until the
/// scheduler stops.
fn worker_loop(shared: &Shared) {
    loop {
        let run = {
            let mut inner = shared.lock();
            loop {
                if inner.stopped {
                    return;
                }
                match scan(shared, &mut inner) {
                    Scan::Dispatch {
                        sid,
                        op,
                        estimate,
                        exclusive,
                    } => break dispatch(shared, &mut inner, sid, op, estimate, exclusive),
                    Scan::Wait => {
                        inner = shared
                            .cv
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        // Another worker may find the next head runnable.
        shared.cv.notify_all();
        let result = run_job(shared, &run);
        finish(shared, run, result);
    }
}

/// One pass over the session queues: fail heads that can never run, then
/// pick the weighted-fair runnable head and check it against free memory.
fn scan(shared: &Shared, inner: &mut Inner) -> Scan {
    let workers = shared.engine.config().workers.max(1);
    if inner.in_flight >= workers || inner.exclusive_job.is_some() {
        return Scan::Wait;
    }
    loop {
        // Terminal heads first: expired deadlines and broken dependencies
        // are completed inline so they never block the fair pick.
        if let Some((sid, err)) = doomed_head(shared, inner) {
            fail_head(shared, inner, sid, err);
            continue;
        }
        let Some((sid, op)) = fair_pick(inner) else {
            return Scan::Wait;
        };
        // With sampling enabled (the engine default) the estimate is the
        // band-upper edge of a measured symbolic sample rather than the
        // constant-compression bound, so most products that actually fit
        // are admitted directly. Operands that cannot combine (shape
        // mismatch, unloaded mid-queue) fail here, before any worker runs.
        let estimate = match shared.engine.estimate_op(&op) {
            Ok(estimate) => estimate,
            Err(err) => {
                fail_head(shared, inner, sid, err);
                continue;
            }
        };
        let budget = shared.engine.device().mem_budget;
        // Free memory is the budget minus the larger of (a) the in-flight
        // reservations — admitted estimates whose jobs may not have
        // allocated their peak yet — and (b) the bytes actually tracked
        // right now. With sampled estimates upper-bounding each job's
        // tracked peak, gating on reservations makes concurrent admission
        // safe by construction instead of racing the tracker.
        let committed = inner
            .reserved_bytes
            .max(shared.engine.device_tracker().current_bytes());
        let free = budget.saturating_sub(committed);
        let est_bytes = estimate.est_bytes;
        if est_bytes > free && inner.in_flight > 0 {
            // Only an estimate the whole budget cannot hold is *deferred*
            // (the run-solo-once-idle backstop the counter reports); a head
            // merely waiting for reservations to drain is ordinary
            // memory-ordered queuing.
            if est_bytes > budget {
                let head = inner
                    .sessions
                    .get_mut(&sid)
                    .expect("session exists")
                    .queue
                    .front_mut()
                    .expect("head exists");
                if !head.deferred_marked {
                    head.deferred_marked = true;
                    inner.deferred += 1;
                    shared.engine.recorder().add(Counter::ServeDeferred, 1);
                }
            }
            return Scan::Wait;
        }
        // An over-budget estimate only gets here with the device idle
        // (`in_flight == 0`): it runs solo until it completes.
        return Scan::Dispatch {
            sid,
            op,
            estimate,
            exclusive: est_bytes > budget,
        };
    }
}

/// The first session head that can never run: its queue-wait deadline
/// passed, or a batch entry it depends on failed.
fn doomed_head(shared: &Shared, inner: &Inner) -> Option<(u64, EngineError)> {
    for (&sid, sess) in inner.sessions.iter() {
        let Some(head) = sess.queue.front() else {
            continue;
        };
        let timeout = head.spec.timeout.or(shared.cfg.default_timeout);
        if timeout.is_some_and(|t| head.enqueued.elapsed() > t) {
            return Some((sid, EngineError::TimedOut));
        }
        for op in head.spec.operands() {
            if let Resolved::Broken(dep) = resolve_operand(inner, head, op) {
                return Some((sid, EngineError::DependencyFailed { dep }));
            }
        }
    }
    None
}

/// The weighted-fair pick: the smallest virtual finish tag among sessions
/// whose head is runnable (every operand exists), with the head's engine
/// op. Ties break by session id for determinism.
fn fair_pick(inner: &Inner) -> Option<(u64, OpSpec)> {
    let mut pick: Option<(f64, u64, OpSpec)> = None;
    for (&sid, sess) in inner.sessions.iter() {
        let Some(op) = sess.queue.front().and_then(|h| resolve_op(inner, h)) else {
            continue;
        };
        let tag = sess.vtime.max(inner.vclock);
        if pick
            .as_ref()
            .is_none_or(|(best, best_sid, _)| tag < *best || (tag == *best && sid < *best_sid))
        {
            pick = Some((tag, sid, op));
        }
    }
    pick.map(|(_, sid, op)| (sid, op))
}

/// Fails `sid`'s head without running it.
fn fail_head(shared: &Shared, inner: &mut Inner, sid: u64, err: EngineError) {
    let sess = inner.sessions.get_mut(&sid).expect("session exists");
    let job = sess.queue.pop_front().expect("head exists");
    sess.failed += 1;
    shared.queue_gauge.sub(1);
    fail_queued(inner, job, err);
}

/// Pops `sid`'s head, advances the fair clock, and reserves its memory.
fn dispatch(
    shared: &Shared,
    inner: &mut Inner,
    sid: u64,
    op: OpSpec,
    estimate: JobEstimate,
    exclusive: bool,
) -> Running {
    let sess = inner.sessions.get_mut(&sid).expect("session exists");
    let job = sess.queue.pop_front().expect("head exists");
    let start = sess.vtime.max(inner.vclock);
    sess.vtime = start + 1.0 / sess.weight;
    inner.vclock = start;
    shared.queue_gauge.sub(1);
    let queue_wait = job.enqueued.elapsed();
    shared.wait_gauge.record(queue_wait);
    inner.in_flight += 1;
    inner.reserved_bytes += estimate.est_bytes;
    if exclusive {
        inner.exclusive_job = Some(job.id);
    }
    inner.dispatch_log.push((sid, job.id));
    // Prefetching converts operands on the device — not while an
    // over-budget job needs every byte of it.
    if shared.cfg.prefetch && !exclusive {
        prefetch_next(shared, inner);
    }
    Running {
        sid,
        job,
        op,
        estimate,
        queue_wait,
    }
}

/// Warms the next runnable head's operand conversions on the conversion
/// thread, overlapping job N+1's CSR→tiled conversion with job N's compute.
fn prefetch_next(shared: &Shared, inner: &Inner) {
    let Some((_, op)) = fair_pick(inner) else {
        return;
    };
    let tx = shared
        .convert_tx
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(tx) = tx.as_ref() {
        for id in op.operands() {
            let _ = tx.send(id);
        }
    }
}

/// The job boundary: executes the job and registers its product when kept
/// or referenced. A panic anywhere inside is contained here and completes
/// the job as `internal`, so the client gets an answer and the worker
/// lives on.
fn run_job(shared: &Shared, run: &Running) -> ServeResult {
    let engine = &shared.engine;
    catch_unwind(AssertUnwindSafe(|| {
        let report = engine.execute(run.job.id, &run.op, run.estimate, run.queue_wait)?;
        let kept = run.job.register.then(|| {
            let c = Arc::clone(&report.c);
            if run.job.spec.materialize {
                engine.register_product(c).0
            } else {
                engine.register_tiled(c).0
            }
        });
        Ok(JobDone { report, kept })
    }))
    .unwrap_or_else(|payload| {
        shared.job_panics.fetch_add(1, Ordering::Relaxed);
        Err(EngineError::Internal(panic_message(&*payload)))
    })
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => s.to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    }
}

/// Releases a finished job's reservation, records its outcome, and
/// completes its ticket.
fn finish(shared: &Shared, run: Running, result: ServeResult) {
    let Running {
        sid, job, estimate, ..
    } = run;
    let mut inner = shared.lock();
    inner.in_flight -= 1;
    inner.reserved_bytes = inner.reserved_bytes.saturating_sub(estimate.est_bytes);
    if inner.exclusive_job == Some(job.id) {
        inner.exclusive_job = None;
    }
    if job.register {
        if let Some(b) = job.batch {
            let entry = match &result {
                Ok(done) => Ok(done.kept.expect("registered products carry their id")),
                Err(_) => Err(job.id),
            };
            inner.batch_products.insert((b, job.batch_index), entry);
        }
    }
    if let Some(sess) = inner.sessions.get_mut(&sid) {
        match &result {
            Ok(done) => {
                sess.completed += 1;
                // EWMA of execution time feeds retry_after hints.
                let exec = done.report.exec;
                inner.exec_ewma = if inner.exec_ewma.is_zero() {
                    exec
                } else {
                    (inner.exec_ewma * 7 + exec * 3) / 10
                };
            }
            Err(_) => sess.failed += 1,
        }
    }
    drop(inner);
    shared.cv.notify_all();
    complete(&job.ticket, result);
}
