//! The scheduler's thread count is fixed: `workers` scheduler workers plus
//! one conversion thread, however many jobs it dispatches. This is its own
//! test binary, so its own process: no other test's threads are counted.

use std::sync::Arc;
use std::time::Duration;

use tsg_engine::json::{parse, Value};
use tsg_engine::{Engine, EngineConfig};
use tsg_gen::suite::GenSpec;
use tsg_runtime::Device;
use tsg_serve::{SchedConfig, Scheduler, ServeSession};

/// Threads of this process whose name starts with `tsg-`, or `None`
/// without `/proc`.
fn tsg_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("tsg-"))
            .count(),
    )
}

fn ok(session: &ServeSession, line: &str) -> Value {
    let (resp, _) = session.handle_line(line);
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
    v
}

#[test]
fn a_burst_of_async_jobs_never_grows_the_thread_count() {
    if tsg_threads().is_none() {
        eprintln!("no /proc/self/task on this platform; skipped");
        return;
    }
    let workers = 2;
    // A one-thread device: the pipeline's data-parallel helpers are
    // unnamed scoped threads that would inherit their worker's name, and
    // what is counted here is the serving layer's own threads.
    let engine = Engine::new(EngineConfig {
        device: Device::new("one-thread", 1, 1 << 30),
        workers,
        ..EngineConfig::default()
    });
    let sched = Arc::new(Scheduler::new(Arc::new(engine), SchedConfig::default()));
    let session = ServeSession::new(Arc::clone(&sched));
    let m = GenSpec::Scatter {
        n: 2048,
        per_row: 8,
        seed: 7,
    }
    .build();
    let (id, _) = sched.engine().register(m);
    // Warm the conversion so no job (or prefetch) converts during the burst.
    sched.engine().convert(id).unwrap();
    ok(
        &session,
        r#"{"op":"open_session","name":"burst","depth":32}"#,
    );

    let line = format!(r#"{{"op":"multiply","a":"{id}","b":"{id}","async":true}}"#);
    let jobs: Vec<u64> = (0..20)
        .map(|_| {
            ok(&session, &line)
                .get("job")
                .and_then(Value::as_u64)
                .unwrap()
        })
        .collect();
    let mut most = 0;
    loop {
        most = most.max(tsg_threads().unwrap());
        if sched.stats().sessions[0].completed == 20 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        most,
        workers + 1,
        "only the workers and the conversion thread, never one per job"
    );
    for job in jobs {
        let done = ok(&session, &format!(r#"{{"op":"wait","job":{job}}}"#));
        assert_eq!(done.get("job").and_then(Value::as_u64), Some(job));
    }
    assert_eq!(sched.stats().dispatched, 20);
}
