//! Deterministic fault injection for tests (`--features failpoints`).
//!
//! A *failpoint* is a named site in production code that tests can arm to
//! force a failure that is otherwise hard to reach deterministically: an
//! allocation failing exactly mid-step-3, a cache eviction racing a lookup,
//! a truncated protocol frame. The registry is zero-dependency (std mutex +
//! map) and the whole module only exists under `cfg(feature =
//! "failpoints")`, so release and tier-1 builds carry no trace of it.
//!
//! Sites call [`should_fail`] with their stable name; tests call [`arm`] to
//! schedule failures and [`exclusive`] to serialize themselves against other
//! failpoint tests (the registry is process-global, and `cargo test` runs
//! tests on multiple threads). A *gate* site calls [`gate`] instead, which
//! holds the calling thread while a test keeps that name [`pause`]d — so a
//! test decides when, say, a running job may finish.
//!
//! The failpoint catalog — every name compiled into the workspace — is
//! documented in DESIGN.md §10.3.
//!
//! ```
//! use tsg_runtime::failpoint;
//!
//! let _guard = failpoint::exclusive();       // clears the registry on drop
//! failpoint::arm("tracker.alloc", 2, 1);     // skip 2 hits, then fail once
//! assert!(!failpoint::should_fail("tracker.alloc"));
//! assert!(!failpoint::should_fail("tracker.alloc"));
//! assert!(failpoint::should_fail("tracker.alloc"));
//! assert!(!failpoint::should_fail("tracker.alloc")); // budget spent
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// One armed site: fail the hits in `(skip, skip + times]`.
#[derive(Debug, Clone, Copy)]
struct Armed {
    /// Hits to let through before failing.
    skip: u64,
    /// Failures to inject after the skips (0 = unlimited).
    times: u64,
    /// Hits observed since arming.
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<String, Armed>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of currently armed sites; lets [`should_fail`] stay a single
/// relaxed atomic load on the (overwhelmingly common) nothing-armed path.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn lock() -> MutexGuard<'static, HashMap<String, Armed>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `name`: the next `skip` hits pass, then the following `times` hits
/// fail (`times == 0` fails every hit after the skips). Re-arming replaces
/// any previous schedule and resets the hit count.
pub fn arm(name: &str, skip: u64, times: u64) {
    let mut map = lock();
    if map
        .insert(
            name.to_string(),
            Armed {
                skip,
                times,
                hits: 0,
            },
        )
        .is_none()
    {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarms `name` (a no-op when it was not armed).
pub fn clear(name: &str) {
    if lock().remove(name).is_some() {
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Disarms every site and opens every paused gate.
pub fn clear_all() {
    let mut map = lock();
    ARMED.fetch_sub(map.len(), Ordering::Relaxed);
    map.clear();
    let (paused, opened) = gates();
    paused
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    opened.notify_all();
}

/// Paused gate names, and the condvar [`gate`] waits on.
fn gates() -> &'static (Mutex<HashSet<String>>, Condvar) {
    static GATES: OnceLock<(Mutex<HashSet<String>>, Condvar)> = OnceLock::new();
    GATES.get_or_init(|| (Mutex::new(HashSet::new()), Condvar::new()))
}

/// Closes the gate `name`: threads reaching [`gate`]`(name)` block until
/// [`resume`]`(name)` or [`clear_all`] (which the [`exclusive`] guard runs
/// on drop, so a failing test cannot leave a thread parked).
pub fn pause(name: &str) {
    gates()
        .0
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(name.to_string());
}

/// Opens the gate `name`, releasing every thread held there.
pub fn resume(name: &str) {
    let (paused, opened) = gates();
    paused
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(name);
    opened.notify_all();
}

/// Called by instrumented production code at a gate site: returns at once
/// unless a test has [`pause`]d `name`, and otherwise blocks until it is
/// resumed.
pub fn gate(name: &str) {
    let (paused, opened) = gates();
    let mut set = paused.lock().unwrap_or_else(PoisonError::into_inner);
    while set.contains(name) {
        set = opened.wait(set).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Hits observed at `name` since it was armed (0 when not armed). Lets a
/// test assert a site was actually reached, not silently skipped.
pub fn hits(name: &str) -> u64 {
    lock().get(name).map_or(0, |a| a.hits)
}

/// Called by instrumented production code: records a hit at `name` and
/// reports whether the site should fail now. Always `false` when nothing is
/// armed there.
pub fn should_fail(name: &str) -> bool {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let mut map = lock();
    let Some(armed) = map.get_mut(name) else {
        return false;
    };
    armed.hits += 1;
    let past_skip = armed.hits > armed.skip;
    past_skip && (armed.times == 0 || armed.hits <= armed.skip + armed.times)
}

/// Guard serializing failpoint tests. Holding it gives the test exclusive
/// use of the process-global registry; acquiring and dropping both clear
/// every armed site, so tests cannot leak schedules into each other.
pub struct FailpointGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        clear_all();
    }
}

/// Takes the global failpoint lock (blocking on other holders), clears the
/// registry, and returns a guard that clears it again on drop.
pub fn exclusive() -> FailpointGuard {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    let guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    clear_all();
    FailpointGuard { _lock: guard }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_skip_then_fail_then_exhaust() {
        let _x = exclusive();
        arm("unit.site", 1, 2);
        assert!(!should_fail("unit.site"));
        assert!(should_fail("unit.site"));
        assert!(should_fail("unit.site"));
        assert!(!should_fail("unit.site"));
        assert_eq!(hits("unit.site"), 4);
    }

    #[test]
    fn unarmed_sites_never_fail_and_count_nothing() {
        let _x = exclusive();
        assert!(!should_fail("unit.other"));
        assert_eq!(hits("unit.other"), 0);
        arm("unit.a", 0, 0);
        // A different armed site does not bleed over.
        assert!(!should_fail("unit.other"));
        assert!(should_fail("unit.a"));
        assert!(should_fail("unit.a"));
        clear("unit.a");
        assert!(!should_fail("unit.a"));
    }

    #[test]
    fn gates_hold_threads_until_resumed() {
        let _x = exclusive();
        gate("unit.gate"); // never paused: passes straight through
        pause("unit.gate");
        let passed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let passed = passed.clone();
            std::thread::spawn(move || {
                gate("unit.gate");
                passed.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!passed.load(Ordering::SeqCst), "the paused gate holds");
        resume("unit.gate");
        waiter.join().unwrap();
        assert!(passed.load(Ordering::SeqCst));
    }

    #[test]
    fn exclusive_clears_on_acquire_and_drop() {
        {
            let _x = exclusive();
            arm("unit.leak", 0, 0);
            assert!(should_fail("unit.leak"));
        }
        let _x = exclusive();
        assert!(!should_fail("unit.leak"));
    }
}
