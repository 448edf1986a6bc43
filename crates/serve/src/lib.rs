#![warn(missing_docs)]

//! # tsg-serve — concurrent multi-client serving over the resident engine
//!
//! `tsg-engine` is a registry plus a synchronous executor; this crate is
//! the one queue in front of it and serves *many clients at once*. It
//! layers three pieces over a shared [`tsg_engine::Engine`]:
//!
//! * [`scheduler`] — sessions with bounded fair-share queues, weighted-fair
//!   dispatch onto a fixed pool of workers that execute the jobs,
//!   backpressure instead of shedding (a full queue answers with a
//!   structured retry hint, never a drop), admission against the memory
//!   currently free with deferral for over-budget estimates, queue-wait
//!   deadlines and cancellation, batched submission with intra-batch
//!   dependencies, panic isolation per job, and conversion/compute
//!   pipeline overlap.
//! * [`wire`] — the session verbs (`open_session`, `multiply_many`,
//!   scheduler-routed `multiply`/`add`/`chain`/`power`, `async`/`wait`/
//!   `cancel`, `stats`) wrapping the engine's JSON-lines session, which
//!   handles the registry verbs (`load`, `convert`, `estimate`, `evict`,
//!   `unload`, `profile`, `hello`) unchanged.
//! * [`server`] — the `tsg-serve` binary's transports: stdin/stdout or TCP
//!   (one session per connection, one engine for all), with graceful drain
//!   on SIGINT, EOF, or the `shutdown` verb.
//!
//! The protocol and its guarantees are documented in DESIGN.md §12; the
//! engine-level wire format is DESIGN.md §9.

pub mod scheduler;
pub mod server;
pub mod wire;

pub use scheduler::{
    BackpressureHint, JobDone, Operand, SchedConfig, Scheduler, SchedulerStats, ServeResult,
    ServeTicket, SessionStats, Submission, SubmitError, SubmitSpec,
};
pub use wire::ServeSession;
