//! Fault injection for the serving layer (`--features failpoints`).
//!
//! The two serve-side failpoints exercise client-visible refusal paths
//! deterministically: `serve.session_open` makes the scheduler refuse a
//! session as if it were draining, and `serve.backpressure_wait` expires
//! the bounded submission hold immediately so the hint path fires on an
//! otherwise empty queue. Both tests assert the refusal is clean — the
//! same call succeeds the moment the failpoint disarms. The engine's
//! `engine.job_start` gate pins the only worker on a job for exactly as
//! long as a test needs a full queue or an expiring deadline, and
//! `engine.job_panic` makes a job panic inside `Engine::execute`.

#![cfg(feature = "failpoints")]

use std::sync::Arc;
use std::time::Duration;

use tsg_engine::json::{parse, Value};
use tsg_engine::{Engine, EngineConfig};
use tsg_gen::suite::GenSpec;
use tsg_matrix::Csr;
use tsg_runtime::{failpoint, Device};
use tsg_serve::{
    SchedConfig, Scheduler, ServeSession, ServeTicket, Submission, SubmitError, SubmitSpec,
};

fn scheduler() -> Scheduler {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    Scheduler::new(Arc::new(engine), SchedConfig::default())
}

fn queued(sched: &Scheduler, sid: u64, spec: SubmitSpec) -> ServeTicket {
    match sched.submit(sid, vec![spec]).unwrap() {
        Submission::Queued(mut t) => t.remove(0),
        Submission::Backpressure(_) => panic!("the queue has room"),
    }
}

fn error_code(resp: &str) -> Option<String> {
    let v = parse(resp).unwrap();
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

#[test]
fn session_open_failpoint_refuses_once_then_recovers() {
    let _x = failpoint::exclusive();
    let sched = scheduler();

    failpoint::arm("serve.session_open", 0, 1);
    assert_eq!(
        sched.open_session("victim", 1.0, None),
        Err(SubmitError::Draining),
        "the armed open must be refused as if draining"
    );
    assert_eq!(failpoint::hits("serve.session_open"), 1);

    // The refusal left no half-opened state: the retry succeeds and the
    // session is fully usable.
    let sid = sched
        .open_session("victim", 1.0, None)
        .expect("disarmed open succeeds");
    let (id, _) = sched.engine().register(Csr::<f64>::identity(32));
    let Submission::Queued(tickets) = sched.submit(sid, vec![SubmitSpec::new(id, id)]).unwrap()
    else {
        panic!("empty queue must accept")
    };
    tickets[0].wait().expect("job on the recovered session");
    assert_eq!(sched.stats().sessions.len(), 1);
}

#[test]
fn session_open_failpoint_maps_to_shutting_down_on_the_wire() {
    let _x = failpoint::exclusive();
    let sched = Arc::new(scheduler());
    let session = ServeSession::new(Arc::clone(&sched));

    failpoint::arm("serve.session_open", 0, 1);
    let (resp, _) = session.handle_line(r#"{"op":"open_session","name":"wire"}"#);
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("shutting_down"),
        "clients see the stable refusal code: {resp}"
    );

    // Disarmed, the same line opens a session.
    let (resp, _) = session.handle_line(r#"{"op":"open_session","name":"wire"}"#);
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert!(v.get("session").and_then(Value::as_u64).is_some());
}

#[test]
fn backpressure_wait_failpoint_forces_a_hint_on_an_empty_queue() {
    let _x = failpoint::exclusive();
    let sched = scheduler();
    let sid = sched.open_session("hinted", 1.0, None).unwrap();
    let (id, _) = sched.engine().register(Csr::<f64>::identity(32));

    // Armed: the bounded hold "expires" immediately, so even an empty
    // session queue answers with a hint instead of admitting.
    failpoint::arm("serve.backpressure_wait", 0, 1);
    let Submission::Backpressure(hint) = sched.submit(sid, vec![SubmitSpec::new(id, id)]).unwrap()
    else {
        panic!("the armed submit must be refused with a hint")
    };
    assert_eq!(hint.queue_position, 0, "nothing is actually queued");
    assert!(
        hint.retry_after.as_millis() >= 1,
        "hints always name a delay"
    );
    let stats = sched.stats();
    assert_eq!(stats.backpressure_hints, 1);
    assert_eq!(stats.sessions[0].hints, 1);

    // The hinted client retries; disarmed, the identical submission queues
    // and completes.
    let Submission::Queued(tickets) = sched.submit(sid, vec![SubmitSpec::new(id, id)]).unwrap()
    else {
        panic!("the retry must be admitted")
    };
    tickets[0].wait().expect("retried job completes");
    assert_eq!(sched.stats().backpressure_hints, 1, "no further hints");
}

#[test]
fn full_queue_answers_with_a_hint_and_the_retry_succeeds() {
    let _x = failpoint::exclusive();
    let mut device = Device::rtx3090_sim();
    device.mem_budget = usize::MAX;
    let engine = Engine::new(EngineConfig {
        device,
        workers: 1,
        ..EngineConfig::default()
    });
    let sched = Scheduler::new(
        Arc::new(engine),
        SchedConfig {
            backpressure_wait: Duration::from_millis(5),
            ..SchedConfig::default()
        },
    );
    let sid = sched.open_session("pressured", 1.0, Some(1)).unwrap();
    let banded = GenSpec::Banded {
        n: 2048,
        bandwidth: 24,
        per_row: 12,
        seed: 3,
    };
    let (blocker, _) = sched.engine().register(banded.build());
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));

    // The blocker holds the only worker at the job-start gate until the
    // test resumes it, however fast its product would run.
    failpoint::pause("engine.job_start");
    let Submission::Queued(head) = sched
        .submit(sid, vec![SubmitSpec::new(blocker, blocker)])
        .unwrap()
    else {
        panic!("empty queue must accept")
    };
    // Wait until the blocker leaves the session queue for the worker, so
    // the depth-1 queue is empty again.
    while sched.stats().in_flight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let Submission::Queued(second) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("the emptied queue must accept one job")
    };
    // The queue (depth 1) is full and the blocker pins the worker: this
    // submission is held briefly, then answered with a hint — not dropped.
    let Submission::Backpressure(hint) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("a full session queue must answer with backpressure")
    };
    assert_eq!(hint.queue_position, 1);
    assert!(hint.retry_after >= Duration::from_millis(1));
    assert_eq!(sched.stats().backpressure_hints, 1);

    // Resubmitting after the backlog drains succeeds: nothing was lost.
    failpoint::resume("engine.job_start");
    for t in head.iter().chain(&second) {
        t.wait().unwrap();
    }
    let Submission::Queued(third) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("the drained queue must accept the retry")
    };
    third[0].wait().unwrap();
}

#[test]
fn a_panicking_job_answers_internal_and_the_worker_lives_on() {
    let _x = failpoint::exclusive();
    let sched = Arc::new(scheduler());
    let session = ServeSession::new(Arc::clone(&sched));
    let (id, _) = sched.engine().register(Csr::<f64>::identity(32));
    let multiply = format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#);

    // The armed job panics inside `Engine::execute`; its client still gets
    // an answer, with the stable code.
    failpoint::arm("engine.job_panic", 0, 1);
    let (resp, _) = session.handle_line(&multiply);
    assert_eq!(error_code(&resp).as_deref(), Some("internal"), "{resp}");
    assert_eq!(failpoint::hits("engine.job_panic"), 1);
    let stats = sched.stats();
    assert_eq!(stats.job_panics, 1);
    assert_eq!(stats.in_flight, 0, "the panicked job released its slot");
    assert_eq!(stats.sessions[0].failed, 1);

    // The same (only) worker runs the next job to completion.
    let (resp, _) = session.handle_line(&multiply);
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("nnz_c").and_then(Value::as_u64), Some(32), "{resp}");
    assert_eq!(sched.stats().sessions[0].completed, 1);
    assert_eq!(sched.engine().device_tracker().current_bytes(), 0);
}

#[test]
fn a_job_whose_deadline_passes_in_the_queue_times_out_without_running() {
    let _x = failpoint::exclusive();
    let sched = scheduler();
    let sid = sched.open_session("deadline", 1.0, None).unwrap();
    let (id, _) = sched.engine().register(Csr::<f64>::identity(64));

    // The blocker holds the only worker at the job-start gate while the
    // second job's 1 ms deadline passes in the session queue.
    failpoint::pause("engine.job_start");
    let blocker = queued(&sched, sid, SubmitSpec::new(id, id));
    while sched.stats().in_flight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stale = queued(
        &sched,
        sid,
        SubmitSpec {
            timeout: Some(Duration::from_millis(1)),
            ..SubmitSpec::new(id, id)
        },
    );
    std::thread::sleep(Duration::from_millis(20));
    failpoint::resume("engine.job_start");

    blocker.wait().unwrap();
    assert_eq!(stale.wait().unwrap_err().code(), "timed_out");
    // It never ran: one dispatch, one engine execution.
    assert_eq!(sched.stats().dispatched, 1);
    assert_eq!(sched.engine().stats().completed, 1);
    assert_eq!(sched.stats().sessions[0].failed, 1);
}

#[test]
fn the_server_timeout_applies_to_jobs_without_their_own() {
    let _x = failpoint::exclusive();
    let opts =
        tsg_serve::server::parse_args(["--workers", "1", "--timeout-ms", "5"].map(String::from));
    assert_eq!(opts.sched.default_timeout, Some(Duration::from_millis(5)));
    let sched = Scheduler::new(Arc::new(Engine::new(opts.engine)), opts.sched);
    let sid = sched.open_session("default-deadline", 1.0, None).unwrap();
    let (id, _) = sched.engine().register(Csr::<f64>::identity(64));

    failpoint::pause("engine.job_start");
    // Its own generous deadline overrides the server's.
    let blocker = queued(
        &sched,
        sid,
        SubmitSpec {
            timeout: Some(Duration::from_secs(60)),
            ..SubmitSpec::new(id, id)
        },
    );
    while sched.stats().in_flight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // No timeout of its own: the server's 5 ms applies.
    let stale = queued(&sched, sid, SubmitSpec::new(id, id));
    std::thread::sleep(Duration::from_millis(50));
    failpoint::resume("engine.job_start");

    blocker.wait().unwrap();
    assert_eq!(stale.wait().unwrap_err().code(), "timed_out");
    assert_eq!(sched.engine().stats().completed, 1);
}
