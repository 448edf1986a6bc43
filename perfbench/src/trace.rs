//! In-memory spans around public calls, exported as Chrome trace-event JSON.
//!
//! A span records its name, start and end, its parent span and the op it
//! belongs to. A disabled tracer records nothing and reads no clock, so the
//! untraced runs pay one branch per call.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use tsg_engine::json::{obj, Value};

/// Index of a recorded span; `None` when the tracer is disabled.
pub type SpanId = Option<usize>;

/// One closed (or still open) span, times in microseconds since the
/// tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The public call (or op root) the span wraps.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Small per-thread id, for the trace viewer's lanes.
    pub tid: u32,
    /// Start time.
    pub start_us: f64,
    /// End time (`NaN` while open).
    pub end_us: f64,
}

impl Span {
    /// Span length in milliseconds.
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span recorder shared by every client thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

fn thread_lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static LANE: Cell<u32> = const { Cell::new(0) });
    LANE.with(|l| {
        if l.get() == 0 {
            l.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Self::enabled()
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span.
    pub fn enter(&self, op: u64, parent: SpanId, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_us = self.now_us();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            op,
            parent,
            tid: thread_lane(),
            start_us,
            end_us: f64::NAN,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span, returning its length in milliseconds (0 when
    /// disabled).
    pub fn exit(&self, id: SpanId) -> f64 {
        let Some(i) = id else { return 0.0 };
        let end_us = self.now_us();
        let mut spans = self.lock();
        spans[i].end_us = end_us;
        spans[i].dur_ms()
    }

    /// Runs `f` inside a span, returning its result and the span length in
    /// milliseconds (0 when disabled).
    pub fn span<R>(
        &self,
        op: u64,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(op, parent, name);
        let out = f();
        (out, self.exit(id))
    }

    /// Every recorded span, in enter order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events), which
    /// Perfetto and `chrome://tracing` load offline. The op id and the
    /// parent's index ride in `args`; open spans are skipped.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let events = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_us.is_finite())
            .map(|(i, s)| {
                let parent = s.parent.map_or(Value::Null, |p| p.into());
                obj([
                    ("name", s.name.into()),
                    ("cat", "perfbench".into()),
                    ("ph", "X".into()),
                    ("ts", s.start_us.into()),
                    ("dur", (s.end_us - s.start_us).into()),
                    ("pid", 1u64.into()),
                    ("tid", u64::from(s.tid).into()),
                    (
                        "args",
                        obj([("span", i.into()), ("op", s.op.into()), ("parent", parent)]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ])
        .to_string()
    }
}
