//! The library workloads, `powerlaw-a2` and `fem-a2`: one client running
//! CSR→CSR products through an `SpGemm` context in a closed loop.

use std::sync::Arc;
use std::time::Instant;

use tilespgemm_core::{multiply_masked, Output, SpGemm, SpGemmError};
use tsg_baselines::reference::reference_spgemm;
use tsg_check::{compare_csr, ValuePolicy};
use tsg_gen::suite::GenSpec;
use tsg_matrix::{Csr, TileMatrix};
use tsg_runtime::observe::{CollectingRecorder, Counter, MetricsSnapshot};
use tsg_runtime::{run_on, Breakdown, Device};

use crate::host::nproc;
use crate::layers::{LayerTable, PerLayer};
use crate::report::Metric;
use crate::stats::{p50, p90, ratio};
use crate::trace::Tracer;
use crate::workload::{
    device, end_to_end, fanout_us, median_ms, ms_since, rss_rise_of, window_over,
    with_seeded_values, RunConfig, Workload, MIN_OPS, MIN_TRACED_OPS, RSS_OPS, SETUP_REPS,
};

const MIB: f64 = (1u64 << 20) as f64;

/// The input of a library workload: a fixed structure (the dataset) with
/// values drawn from the run's seed.
pub fn input(w: Workload, seed: u64) -> Csr<f64> {
    let structure = match w {
        // webbase-like skew (R-MAT, not mild, the suite's seed) at half the
        // established row's scale with the same edges per row.
        Workload::PowerlawA2 => GenSpec::Rmat {
            scale: 13,
            edges: 40_000,
            mild: false,
            seed: 112,
        },
        // cant-like: 4000 nodes of 6 DoF, the suite's seed.
        Workload::FemA2 => GenSpec::Fem {
            nodes: 4000,
            block: 6,
            couplings: 4,
            spread: 30,
            seed: 103,
        },
        Workload::ServeMixed => unreachable!("serve-mixed is not a library workload"),
    };
    with_seeded_values(structure.build(), seed)
}

/// One op of a library loop: CSR in, CSR out.
#[derive(Debug, Clone, Copy)]
pub enum LibOp<'a> {
    /// `A·A`.
    Square(&'a Csr<f64>),
    /// `(A·A)⟨A⟩`, the mask pushed into step 2.
    MaskedSquare(&'a Csr<f64>),
    /// `A^(links+1)`, intermediates kept tiled.
    Power(&'a Csr<f64>, usize),
}

impl LibOp<'_> {
    /// The op's product computed by serial Gustavson.
    pub fn serial(&self) -> Csr<f64> {
        match *self {
            LibOp::Square(a) => reference_spgemm(a, a),
            LibOp::MaskedSquare(a) => crate::workload::masked(&reference_spgemm(a, a), a),
            LibOp::Power(a, links) => {
                (0..links).fold(a.clone(), |acc, _| reference_spgemm(&acc, a))
            }
        }
    }

    /// `2 ×` the intermediate products the op forms.
    pub fn flops(&self) -> u64 {
        match *self {
            LibOp::Square(a) => a.spgemm_flops(a),
            LibOp::MaskedSquare(a) => 2 * crate::workload::masked_products(a, a, a),
            LibOp::Power(a, links) => {
                let mut acc = a.clone();
                let mut flops = 0;
                for _ in 0..links {
                    flops += acc.spgemm_flops(a);
                    acc = reference_spgemm(&acc, a);
                }
                flops
            }
        }
    }
}

/// Timings and shape of one op; the product itself is returned beside it.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// `TileMatrix::from_csr`.
    pub convert_ms: f64,
    /// The multiply calls, whole.
    pub multiply_ms: f64,
    /// The pipeline's own step slices, summed over links.
    pub breakdown: Breakdown,
    /// `Output::to_csr`.
    pub materialize_ms: f64,
    /// The whole op.
    pub wall_ms: f64,
    /// Largest `Output::peak_bytes` of its links.
    pub peak_bytes: usize,
    /// Tiles of the product.
    pub tiles_c: usize,
    /// Tiles of the product that hold no entry.
    pub phantom_tiles: usize,
}

fn merged(acc: &mut OpRecord, out: &Output<f64>, multiply_ms: f64) {
    acc.multiply_ms += multiply_ms;
    acc.breakdown = acc.breakdown.merge(&out.breakdown);
    acc.peak_bytes = acc.peak_bytes.max(out.peak_bytes);
}

/// Runs one op through `ctx`, with a span around each public call.
pub fn run_lib_op(
    ctx: &SpGemm,
    op: LibOp<'_>,
    tracer: &Tracer,
    id: u64,
) -> Result<(Csr<f64>, OpRecord), SpGemmError> {
    let mut rec = OpRecord::default();
    let t0 = Instant::now();
    let root = tracer.enter(id, None, "op");
    let a = match op {
        LibOp::Square(a) | LibOp::MaskedSquare(a) | LibOp::Power(a, _) => a,
    };
    let (ta, convert_ms) =
        tracer.span(id, root, "TileMatrix::from_csr", || TileMatrix::from_csr(a));
    rec.convert_ms = convert_ms;
    let out = match op {
        LibOp::Square(_) => {
            let (out, ms) = tracer.span(id, root, "SpGemm::multiply", || ctx.multiply(&ta, &ta));
            let out = out?;
            merged(&mut rec, &out, ms);
            out
        }
        LibOp::MaskedSquare(_) => {
            let (out, ms) = tracer.span(id, root, "multiply_masked", || {
                multiply_masked(&ta, &ta, &ta, ctx.config(), ctx.tracker())
            });
            let out = out?;
            merged(&mut rec, &out, ms);
            out
        }
        LibOp::Power(_, links) => {
            let (first, ms) = tracer.span(id, root, "SpGemm::multiply", || ctx.multiply(&ta, &ta));
            let mut out = first?;
            merged(&mut rec, &out, ms);
            for _ in 1..links {
                let (next, ms) =
                    tracer.span(id, root, "SpGemm::multiply", || ctx.multiply(&out.c, &ta));
                out = next?;
                merged(&mut rec, &out, ms);
            }
            out
        }
    };
    let (c, materialize_ms) = tracer.span(id, root, "Output::to_csr", || out.to_csr());
    rec.materialize_ms = materialize_ms;
    tracer.exit(root);
    rec.wall_ms = ms_since(t0);
    rec.tiles_c = out.c.tile_count();
    rec.phantom_tiles = (0..rec.tiles_c)
        .filter(|&t| out.c.tile_nnz_of(t) == 0)
        .count();
    Ok((c, rec))
}

/// Runs `op` once and checks it against serial Gustavson; the checked
/// product is the gold every timed result must match bitwise.
pub fn verified_gold(ctx: &SpGemm, dev: &Device, op: LibOp<'_>) -> Result<Csr<f64>, String> {
    let serial = op.serial();
    let (c, _) = run_on(dev, || run_lib_op(ctx, op, &Tracer::disabled(), 0))
        .map_err(|e| format!("warm-up product failed: {e}"))?;
    compare_csr(&c, &serial, &ValuePolicy::default())
        .map_err(|m| format!("warm-up product differs from serial Gustavson: {m}"))?;
    Ok(c)
}

/// A closed-loop window of ops.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-op wall times.
    pub latency_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or mismatched the gold.
    pub failed: u64,
    /// Ops whose product differed from the gold.
    pub mismatched: u64,
    /// Per-op records of the completed ops.
    pub records: Vec<OpRecord>,
}

impl Window {
    /// Summed wall time of the ops (the checks between them excluded).
    pub fn busy_ms(&self) -> f64 {
        self.latency_ms.iter().sum()
    }

    /// Ops that completed and matched.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Largest peak tracked bytes of any op.
    pub fn peak_bytes(&self) -> usize {
        self.records.iter().map(|r| r.peak_bytes).max().unwrap_or(0)
    }
}

/// Runs `op` in a closed loop for `seconds` and at least `min_ops` ops,
/// checking every product bitwise against `gold`.
#[allow(clippy::too_many_arguments)]
pub fn timed_window(
    ctx: &SpGemm,
    dev: &Device,
    op: LibOp<'_>,
    gold: &Csr<f64>,
    tracer: &Tracer,
    seconds: f64,
    min_ops: usize,
    next_id: &mut u64,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    while !window_over(start, seconds, w.attempted as usize, min_ops) {
        w.attempted += 1;
        *next_id += 1;
        match run_on(dev, || run_lib_op(ctx, op, tracer, *next_id)) {
            Ok((c, rec)) => {
                if c != *gold {
                    w.failed += 1;
                    w.mismatched += 1;
                }
                w.latency_ms.push(rec.wall_ms);
                w.records.push(rec);
            }
            Err(e) => {
                eprintln!("perfbench: op {next_id} failed: {e}");
                w.failed += 1;
            }
        }
    }
    w
}

/// Pipeline counters over a traced window.
fn counter_share(d: &MetricsSnapshot, part: Counter, other: Counter) -> f64 {
    let p = d.get(part) as f64;
    ratio(p, p + d.get(other) as f64)
}

/// The library side of a traced run: the op's layers through `SpGemm`,
/// timed from outside, plus the recorder's counters, at 1 worker and at
/// the pool size, against serial Gustavson.
#[derive(Debug, Default)]
pub struct LibProfile {
    /// Per-layer totals over the traced ops.
    pub table: LayerTable,
    /// Untraced p50 at the pool size.
    pub plain_p50_ms: f64,
    /// Traced p50 at the pool size.
    pub traced_p50_ms: f64,
    /// Untraced p50 at 1 worker.
    pub one_worker_p50_ms: f64,
    /// Serial Gustavson median.
    pub serial_ms: f64,
    /// Matched pairs per traced op.
    pub matched_pairs: f64,
    /// Matched pairs per intersection probe.
    pub pairs_per_probe: f64,
    /// Share of output tiles accumulated densely.
    pub dense_acc_share: f64,
    /// Output tiles per traced op.
    pub tiles_c: f64,
    /// Share of output tiles that end empty.
    pub phantom_tile_share: f64,
    /// Scratch-arena high water of the traced context.
    pub arena_high_water_bytes: usize,
    /// Ops attempted and failed across every window.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// Profiles `op` (with `gold` its verified product) for a traced run. The
/// plain and traced windows each take `window_s`, the 1-worker window half
/// that.
pub fn profile(
    op: LibOp<'_>,
    gold: &Csr<f64>,
    dev: &Device,
    plain_ctx: &SpGemm,
    tracer: &Tracer,
    window_s: f64,
    next_id: &mut u64,
) -> Result<LibProfile, String> {
    let plain = timed_window(
        plain_ctx,
        dev,
        op,
        gold,
        &Tracer::disabled(),
        window_s,
        MIN_TRACED_OPS,
        next_id,
    );

    let collector = Arc::new(CollectingRecorder::new());
    let ctx = SpGemm::builder().recorder(collector).build();
    run_on(dev, || run_lib_op(&ctx, op, &Tracer::disabled(), 0))
        .map_err(|e| format!("traced warm-up failed: {e}"))?;
    let before = ctx.metrics();
    let traced = timed_window(
        &ctx,
        dev,
        op,
        gold,
        tracer,
        window_s,
        MIN_TRACED_OPS,
        next_id,
    );
    let d = ctx.metrics().since(&before);

    let one_dev = device(1);
    let one_ctx = SpGemm::new();
    run_on(&one_dev, || {
        run_lib_op(&one_ctx, op, &Tracer::disabled(), 0)
    })
    .map_err(|e| format!("1-worker warm-up failed: {e}"))?;
    let one = timed_window(
        &one_ctx,
        &one_dev,
        op,
        gold,
        &Tracer::disabled(),
        window_s / 2.0,
        5,
        next_id,
    );
    *next_id += 1;
    let id = *next_id;
    let (serial_ms, _) = median_ms(5, || {
        tracer.span(id, None, "reference_spgemm", || op.serial())
    });

    let n = traced.records.len();
    let mut table = LayerTable::new("traced layers", n);
    for r in &traced.records {
        table.wall_ms += r.wall_ms;
        table.add("matrix.convert", r.convert_ms);
        table.add("core.step1", r.breakdown.step1.as_secs_f64() * 1e3);
        table.add("core.step2", r.breakdown.step2.as_secs_f64() * 1e3);
        table.add("core.alloc", r.breakdown.alloc.as_secs_f64() * 1e3);
        table.add("core.step3", r.breakdown.step3.as_secs_f64() * 1e3);
        table.add("matrix.materialize", r.materialize_ms);
    }
    let multiply_ms: f64 = traced.records.iter().map(|r| r.multiply_ms).sum();
    let steps: f64 = ["core.step1", "core.step2", "core.alloc", "core.step3"]
        .iter()
        .map(|l| table.layer_ms(l))
        .sum();
    table.notes.push(format!(
        "of which SpGemm::multiply outside its steps: {:.3} ms/op",
        table.per_op(multiply_ms - steps)
    ));
    let tiles: usize = traced.records.iter().map(|r| r.tiles_c).sum();
    let phantom: usize = traced.records.iter().map(|r| r.phantom_tiles).sum();
    let probes = d.get(Counter::IntersectionProbes) as f64;
    Ok(LibProfile {
        plain_p50_ms: p50(&plain.latency_ms).unwrap_or(0.0),
        traced_p50_ms: p50(&traced.latency_ms).unwrap_or(0.0),
        one_worker_p50_ms: p50(&one.latency_ms).unwrap_or(0.0),
        serial_ms,
        matched_pairs: ratio(d.get(Counter::MatchedPairs) as f64, n as f64),
        pairs_per_probe: ratio(d.get(Counter::MatchedPairs) as f64, probes),
        dense_acc_share: counter_share(&d, Counter::DenseAccPicks, Counter::SparseAccPicks),
        tiles_c: ratio(tiles as f64, n as f64),
        phantom_tile_share: ratio(phantom as f64, tiles as f64),
        arena_high_water_bytes: ctx.arena_high_water_bytes(),
        attempted: plain.attempted + traced.attempted + one.attempted,
        failed: plain.failed + traced.failed + one.failed,
        table,
    })
}

/// The outcome of a library or serve run: the result and, for a traced
/// run, its layer table.
pub struct Outcome {
    /// Correctness, counts and metrics.
    pub correct: bool,
    /// Ops attempted in the timed windows.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// The per-layer table (traced runs).
    pub table: Option<LayerTable>,
}

/// Runs a library workload.
pub fn run(w: Workload, cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let dev = device(nproc());
    let mut next_id = 0u64;
    if cfg.trace {
        let a = input(w, cfg.seed);
        let op = LibOp::Square(&a);
        let ctx = SpGemm::new();
        let gold = verified_gold(&ctx, &dev, op)?;
        let lib = profile(
            op,
            &gold,
            &dev,
            &ctx,
            tracer,
            cfg.seconds / 2.0,
            &mut next_id,
        )?;
        let served = crate::serve::served_square(&a, &dev, cfg, tracer)?;
        let mut table = lib.table.clone();
        table.title = format!("{} traced layers", w.name());
        table.notes.push(format!(
            "serial Gustavson (1 thread): {:.3} ms; tiled p50 {:.3} ms is {:.2}x it",
            lib.serial_ms,
            lib.plain_p50_ms,
            ratio(lib.plain_p50_ms, lib.serial_ms)
        ));
        table.notes.push(format!(
            "1 worker p50 {:.3} ms, {} workers p50 {:.3} ms",
            lib.one_worker_p50_ms, dev.threads, lib.plain_p50_ms
        ));
        table.notes.push(served.note());
        let per_layer = PerLayer {
            convert_ms: table.per_op(table.layer_ms("matrix.convert")),
            materialize_ms: table.per_op(table.layer_ms("matrix.materialize")),
            step1_ms: table.per_op(table.layer_ms("core.step1")),
            step2_ms: table.per_op(table.layer_ms("core.step2")),
            step3_ms: table.per_op(table.layer_ms("core.step3")),
            alloc_ms: table.per_op(table.layer_ms("core.alloc")),
            pairs_per_probe: lib.pairs_per_probe,
            phantom_tile_share: lib.phantom_tile_share,
            dense_acc_share: lib.dense_acc_share,
            matched_pairs: lib.matched_pairs,
            tiles_c: lib.tiles_c,
            fanout_us: fanout_us(&dev, 200),
            parallel_eff: ratio(lib.one_worker_p50_ms, dev.threads as f64 * lib.plain_p50_ms),
            arena_high_water_mb: lib.arena_high_water_bytes as f64 / MIB,
            served: served.clone(),
            serial_gustavson_ms: lib.serial_ms,
            residual_ms: table.per_op(table.residual_ms()),
            residual_pct: table.residual_pct(),
            trace_overhead_pct: ratio(
                100.0 * (lib.traced_p50_ms - lib.plain_p50_ms),
                lib.plain_p50_ms,
            ),
        };
        return Ok(Outcome {
            correct: lib.failed == 0 && served.failed == 0,
            attempted: lib.attempted + served.attempted,
            failed: lib.failed + served.failed,
            metrics: per_layer.metrics(),
            table: Some(table),
        });
    }

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up before building the next.
        drop(prepared.take());
        let t = Instant::now();
        let a = input(w, cfg.seed);
        let ctx = SpGemm::new();
        let gold = verified_gold(&ctx, &dev, LibOp::Square(&a))?;
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((a, ctx, gold));
    }
    let (a, ctx, gold) = prepared.expect("at least one set-up");
    let op = LibOp::Square(&a);
    let flops = op.flops();
    let win = timed_window(
        &ctx,
        &dev,
        op,
        &gold,
        &Tracer::disabled(),
        cfg.seconds,
        MIN_OPS,
        &mut next_id,
    );
    // Resident memory from a few more ops, each from a trimmed heap: the
    // most one op adds on top of the resident inputs, not what the
    // window's churn left behind.
    let mut rss_mib = 0.0f64;
    for _ in 0..RSS_OPS {
        let rise = rss_rise_of(|| {
            let _ = run_on(&dev, || run_lib_op(&ctx, op, &Tracer::disabled(), 0));
        })?;
        rss_mib = rss_mib.max(rise);
    }
    let lat_p90 = p90(&win.latency_ms)
        .ok_or_else(|| format!("only {} ops completed; p90 needs {MIN_OPS}", win.ok()))?;
    let metrics = end_to_end([
        win.ok() as f64 * flops as f64 / (win.busy_ms() / 1e3) / 1e9,
        p50(&win.latency_ms).unwrap_or(0.0),
        lat_p90,
        win.peak_bytes() as f64 / MIB,
        rss_mib,
        ratio(win.ok() as f64, win.attempted as f64),
        p50(&setup_s).unwrap_or(0.0),
    ]);
    Ok(Outcome {
        correct: win.mismatched == 0,
        attempted: win.attempted,
        failed: win.failed,
        metrics,
        table: None,
    })
}
