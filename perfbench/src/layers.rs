//! Per-layer accounting: where the op wall time went.
//!
//! Each layer is timed separately, from outside its public call (or read
//! from a field the layer already reports). The residual is the wall time
//! no layer explains; it is reported, never folded into a layer.

use std::fmt::Write;

use crate::report::Metric;

/// Totals over a window of ops: each layer's summed time and the summed op
/// wall time, all in milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTable {
    /// Table heading.
    pub title: String,
    /// Ops the totals cover.
    pub ops: usize,
    /// Summed op wall time.
    pub wall_ms: f64,
    /// `(layer, summed time)` in pipeline order.
    pub layers: Vec<(String, f64)>,
    /// Lines printed under the residual: named parts of it, or context.
    pub notes: Vec<String>,
}

impl LayerTable {
    /// An empty table over `ops` ops.
    pub fn new(title: impl Into<String>, ops: usize) -> Self {
        LayerTable {
            title: title.into(),
            ops,
            wall_ms: 0.0,
            layers: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds `total_ms` to layer `name`, creating it at the end if new.
    pub fn add(&mut self, name: &str, total_ms: f64) {
        match self.layers.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => *t += total_ms,
            None => self.layers.push((name.to_string(), total_ms)),
        }
    }

    /// Summed time of layer `name` (0 when absent).
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, t)| *t)
    }

    /// Time the layers explain.
    pub fn explained_ms(&self) -> f64 {
        self.layers.iter().map(|(_, t)| t).sum()
    }

    /// Summed wall time no layer explains. Negative when the layers
    /// overlap (concurrent layers counted twice).
    pub fn residual_ms(&self) -> f64 {
        self.wall_ms - self.explained_ms()
    }

    /// The residual as a percentage of wall time (0 for an empty table).
    pub fn residual_pct(&self) -> f64 {
        crate::stats::ratio(100.0 * self.residual_ms(), self.wall_ms)
    }

    /// `total` spread over the table's ops.
    pub fn per_op(&self, total_ms: f64) -> f64 {
        crate::stats::ratio(total_ms, self.ops as f64)
    }

    /// The table as text: one row per layer with its per-op mean and share
    /// of wall time, then the wall total and the residual.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{} ({} ops, per-op means)", self.title, self.ops);
        let _ = writeln!(s, "  {:<28} {:>11} {:>8}", "layer", "ms/op", "share");
        let row = |s: &mut String, name: &str, total: f64| {
            let share = crate::stats::ratio(100.0 * total, self.wall_ms);
            let _ = writeln!(
                s,
                "  {:<28} {:>11.3} {:>7.1}%",
                name,
                self.per_op(total),
                share
            );
        };
        for (name, total) in &self.layers {
            row(&mut s, name, *total);
        }
        row(&mut s, "op wall", self.wall_ms);
        row(&mut s, "residual", self.residual_ms());
        for note in &self.notes {
            let _ = writeln!(s, "    {note}");
        }
        s
    }
}

/// Every per-layer metric of a traced run. Each workload fills all of
/// them: the library workloads add a served row of their own product for
/// the engine and serve layers, and `serve-mixed` adds library rows of its
/// request mix for conversion, materialization and the pipeline counters.
#[derive(Debug, Clone, Default)]
pub struct PerLayer {
    /// `TileMatrix::from_csr` per op.
    pub convert_ms: f64,
    /// `Output::to_csr` per op.
    pub materialize_ms: f64,
    /// Step 1 per op.
    pub step1_ms: f64,
    /// Step 2 per op.
    pub step2_ms: f64,
    /// Step 3 per op.
    pub step3_ms: f64,
    /// Allocation per op.
    pub alloc_ms: f64,
    /// Matched pairs per intersection probe.
    pub pairs_per_probe: f64,
    /// Share of output tiles that end empty.
    pub phantom_tile_share: f64,
    /// Share of output tiles accumulated densely.
    pub dense_acc_share: f64,
    /// Matched pairs per op.
    pub matched_pairs: f64,
    /// Output tiles per op.
    pub tiles_c: f64,
    /// One empty parallel for-each on the device pool.
    pub fanout_us: f64,
    /// Time at 1 worker over (workers × time at the pool size).
    pub parallel_eff: f64,
    /// Scratch-arena high water.
    pub arena_high_water_mb: f64,
    /// Engine and serve layers from the replies.
    pub served: crate::serve::ServedLayers,
    /// Serial Gustavson per op.
    pub serial_gustavson_ms: f64,
    /// Op wall time no layer explains, per op.
    pub residual_ms: f64,
    /// The residual as a share of op wall time.
    pub residual_pct: f64,
    /// Traced over untraced latency p50, minus one, in percent.
    pub trace_overhead_pct: f64,
}

impl PerLayer {
    /// The metrics in `BENCHMARK.json`'s `per_layer` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let s = &self.served;
        [
            ("matrix.convert_ms", "ms", self.convert_ms),
            ("matrix.materialize_ms", "ms", self.materialize_ms),
            ("core.step1_ms", "ms", self.step1_ms),
            ("core.step2_ms", "ms", self.step2_ms),
            ("core.step3_ms", "ms", self.step3_ms),
            ("core.alloc_ms", "ms", self.alloc_ms),
            ("core.pairs_per_probe", "ratio", self.pairs_per_probe),
            ("core.phantom_tile_share", "ratio", self.phantom_tile_share),
            ("core.dense_acc_share", "ratio", self.dense_acc_share),
            ("core.matched_pairs", "count", self.matched_pairs),
            ("core.tiles_c", "count", self.tiles_c),
            ("runtime.fanout_us", "us", self.fanout_us),
            ("runtime.parallel_eff", "ratio", self.parallel_eff),
            (
                "runtime.arena_high_water_mb",
                "MiB",
                self.arena_high_water_mb,
            ),
            ("engine.exec_ms_p50", "ms", s.exec_ms_p50),
            ("engine.overhead_ms_p50", "ms", s.overhead_ms_p50),
            ("engine.estimate_ms", "ms", s.estimate_ms),
            ("engine.est_ratio", "ratio", s.est_ratio),
            ("engine.cache_hit_rate", "ratio", s.cache_hit_rate),
            ("engine.conversions_per_op", "count", s.conversions_per_op),
            ("serve.queue_wait_ms_p50", "ms", s.queue_wait_ms_p50),
            ("serve.queue_wait_ms_p90", "ms", s.queue_wait_ms_p90),
            ("serve.wire_ms_p50", "ms", s.wire_ms_p50),
            ("serve.load_ms_p50", "ms", s.load_ms_p50),
            ("serve.backpressure_per_op", "count", s.backpressure_per_op),
            (
                "baseline.serial_gustavson_ms",
                "ms",
                self.serial_gustavson_ms,
            ),
            ("residual_ms", "ms", self.residual_ms),
            ("residual_pct", "%", self.residual_pct),
            ("trace_overhead_pct", "%", self.trace_overhead_pct),
        ]
        .into_iter()
        .map(|(name, unit, value)| Metric::new(name, unit, value))
        .collect()
    }
}
