//! Run results: the one-line summary the benchmark ends with, and the
//! result file that also carries the host block.

use std::path::Path;

use tsg_engine::json::{obj, parse, Value};

use crate::host::Host;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Value as measured (all digits).
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Every checked output matched.
    pub correct: bool,
    /// Ops attempted in the timed window(s).
    pub attempted: u64,
    /// Ops that failed, timed out or were refused.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Where it was measured.
    pub host: Host,
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", m.value.into()), ("unit", m.unit.as_str().into())]),
                )
            })
            .collect(),
    )
}

impl RunResult {
    /// Metrics whose value is not a finite number (JSON cannot carry them).
    pub fn non_finite(&self) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }

    /// The summary line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn summary_line(&self) -> String {
        obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .to_string()
    }

    /// The full result, host block included.
    pub fn to_json(&self) -> Value {
        obj([
            ("workload", self.workload.as_str().into()),
            ("trace", self.trace.into()),
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("host", self.host.to_json()),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }

    /// Reads a result written by [`RunResult::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let count = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{k}: missing or not a count"))
        };
        let flag = |k: &str| {
            v.get(k)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("{k}: missing or not a bool"))
        };
        let Some(Value::Obj(members)) = v.get("metrics") else {
            return Err("metrics: missing or not an object".to_string());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok(Metric::new(name, unit, value)),
                    _ => Err(format!("metrics.{name}: needs a numeric value and a unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("workload: missing")?
                .to_string(),
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            host: Host::from_json(v.get("host").ok_or("host: missing")?)?,
        })
    }

    /// Writes the result file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Reads a result file.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let v = parse(text.trim()).map_err(|e| format!("{e:?}"))?;
        Self::from_json(&v)
    }
}
