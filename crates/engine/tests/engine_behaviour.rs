//! Engine-level behaviour: admission control (up-front rejection and
//! mid-flight budget trips), registry caching across jobs, and the
//! estimator counters. Queueing, cancellation and deadlines belong to the
//! serve scheduler (`crates/serve/tests`).

use std::time::Duration;

use tilespgemm_core::{multiply, Config, SpGemmError};
use tsg_engine::{Engine, EngineConfig, EngineError, JobSpec};
use tsg_gen::suite::GenSpec;
use tsg_matrix::{Csr, TileMatrix};
use tsg_runtime::{Device, MemTracker};

fn device_with_budget(budget: usize) -> Device {
    let mut d = Device::rtx3090_sim();
    d.mem_budget = budget;
    d
}

fn engine_with_budget(budget: usize) -> Engine {
    Engine::new(EngineConfig {
        device: device_with_budget(budget),
        ..EngineConfig::default()
    })
}

fn scatter(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
    GenSpec::Scatter { n, per_row, seed }.build()
}

#[test]
fn over_budget_estimate_is_rejected_up_front() {
    // A budget far below any real product's estimate.
    let engine = engine_with_budget(1 << 10);
    let (id, _) = engine.register(scatter(512, 8, 1));
    let est = engine.estimate(id, id).unwrap();
    assert!(est.est_bytes > engine.device().mem_budget);

    let err = engine.multiply_now(JobSpec::new(id, id)).unwrap_err();
    match err {
        EngineError::EstimateExceedsBudget { est_bytes, budget } => {
            assert_eq!(est_bytes, est.est_bytes);
            assert_eq!(budget, 1 << 10);
        }
        other => panic!("expected EstimateExceedsBudget, got {other:?}"),
    }
    let s = engine.stats();
    assert_eq!(s.rejected, 1);
    // Nothing ran, so nothing was ever charged to the device.
    assert_eq!((s.completed, s.failed), (0, 0));
    assert_eq!(s.device_bytes_in_use, 0);

    // A scheduler doing its own deferred admission executes an over-budget
    // job directly; the mid-flight tracker stays the backstop.
    let op = JobSpec::new(id, id).op;
    let err = engine
        .execute(engine.next_job(), &op, est, Duration::ZERO)
        .unwrap_err();
    assert_eq!(err.code(), "out_of_memory");
    assert_eq!(engine.device_tracker().current_bytes(), 0);
    let s = engine.stats();
    assert_eq!(s.rejected, 1);
    assert_eq!(s.failed, 1);
}

#[test]
fn mid_flight_budget_trip_fails_the_job_and_frees_back_to_zero() {
    // Random scatter products barely compact, so the real output is ~4x the
    // ASSUMED_COMPRESSION prediction: the admission estimate under-predicts
    // the true peak by design, leaving a gap where a job is admitted but
    // trips the tracker mid-flight. Sampling is disabled so the estimate
    // comes from the constant-compression fallback — the calibrated sampled
    // model upper-bounds the tracked peak on this input, which would close
    // the very gap this test exists to pin.
    let engine_with_budget = |budget: usize| {
        Engine::new(EngineConfig {
            device: device_with_budget(budget),
            sample_rate: 0.0,
            ..EngineConfig::default()
        })
    };
    let a = scatter(2048, 8, 42);

    // Learn the true tracked peak from an unconstrained run.
    let unconstrained = engine_with_budget(usize::MAX);
    let (id, _) = unconstrained.register(a.clone());
    let est = unconstrained.estimate(id, id).unwrap();
    let peak = unconstrained
        .multiply_now(JobSpec::new(id, id))
        .unwrap()
        .peak_bytes;
    assert!(
        est.est_bytes < peak,
        "estimate {} should under-predict peak {peak}",
        est.est_bytes
    );

    // A budget the estimate clears but the real peak cannot.
    let budget = est.est_bytes + (peak - est.est_bytes) / 4;
    let engine = engine_with_budget(budget);
    let (id, _) = engine.register(a);
    let err = engine.multiply_now(JobSpec::new(id, id)).unwrap_err();
    match &err {
        EngineError::SpGemm(SpGemmError::OutOfMemory(trip)) => {
            assert_eq!(err.code(), "out_of_memory");
            assert!(trip.in_use + trip.requested > budget);
        }
        other => panic!("expected a mid-flight OutOfMemory, got {other:?}"),
    }
    let s = engine.stats();
    assert_eq!(s.failed, 1);
    assert_eq!(s.completed, 0);
    // The tracker must drain back to zero on the error path, or the engine
    // would leak budget across jobs.
    assert_eq!(engine.device_tracker().current_bytes(), 0);

    // The engine stays serviceable: a small product still completes.
    let (tiny, _) = engine.register(Csr::<f64>::identity(64));
    assert_eq!(
        engine.multiply_now(JobSpec::new(tiny, tiny)).unwrap().nnz_c,
        64
    );
}

#[test]
fn repeated_multiplies_convert_once_and_match_direct_multiply() {
    let a = scatter(768, 6, 7);
    let b = scatter(768, 5, 9);
    let engine = Engine::new(EngineConfig::default());
    let (ia, _) = engine.register(a.clone());
    let (ib, _) = engine.register(b.clone());

    let first = engine.multiply_now(JobSpec::new(ia, ib)).unwrap();
    let second = engine.multiply_now(JobSpec::new(ia, ib)).unwrap();
    let third = engine.multiply_now(JobSpec::new(ia, ib)).unwrap();

    // Exactly one conversion per operand, all on the first job.
    assert_eq!(first.conversions, 2);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(second.conversions, 0);
    assert_eq!(second.cache_hits, 2);
    assert_eq!(third.cache_hits, 2);
    let s = engine.stats();
    assert_eq!(s.registry.conversions, 2);
    assert_eq!(s.registry.cache_hits, 4);

    // Engine results are bitwise identical to a direct pipeline call.
    let direct = multiply(
        &TileMatrix::from_csr(&a),
        &TileMatrix::from_csr(&b),
        &Config::default(),
        &MemTracker::new(),
    )
    .unwrap();
    assert_eq!(direct.c, *first.c);
    assert_eq!(*first.c, *second.c);
    assert_eq!(*second.c, *third.c);
}

#[test]
fn kept_products_register_with_preseeded_conversion() {
    let engine = Engine::new(EngineConfig::default());
    let (ia, _) = engine.register(scatter(256, 4, 2));
    let r = engine.multiply_now(JobSpec::new(ia, ia)).unwrap();

    let (ic, dedup) = engine.register_product(std::sync::Arc::clone(&r.c));
    assert!(!dedup);
    // The cache was pre-seeded with the product itself, so using it as an
    // operand costs no conversion (ia is already cached from the first job).
    let r2 = engine.multiply_now(JobSpec::new(ic, ia)).unwrap();
    assert_eq!(r2.conversions, 0);
    assert_eq!(r2.cache_hits, 2);
    // Content-addressed: re-registering the product — through either path —
    // dedupes onto the same id.
    let (ic2, dedup2) = engine.register_product(std::sync::Arc::clone(&r.c));
    assert_eq!(ic2, ic);
    assert!(dedup2);
    let (ic3, dedup3) = engine.register(r.c.to_csr());
    assert_eq!(ic3, ic);
    assert!(dedup3);
}

#[test]
fn completed_jobs_populate_the_estimator_error_counters() {
    let engine = Engine::new(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    let (id, _) = engine.register(scatter(512, 8, 21));
    let report = engine.multiply_now(JobSpec::new(id, id)).unwrap();

    // Exactly one completed job → exactly one est-error observation, in the
    // bucket the report's own numbers map to.
    let m = engine.metrics();
    let populated: Vec<_> = tsg_runtime::observe::EST_ERR_BUCKETS
        .iter()
        .filter(|&&c| m.get(c) > 0)
        .collect();
    assert_eq!(populated.len(), 1);
    let expected = tsg_runtime::est_error_bucket(report.estimate.est_bytes, report.peak_bytes);
    assert_eq!(m.get(expected), 1);
}

/// Multiply-*shaped* jobs tick the est_err histogram: a plain multiply and
/// a masked multiply (whose estimate is mask-pruned from the same model)
/// each land one observation; an add — which runs on an unrelated heuristic
/// baseline — contributes none. The sampled-estimator provenance counters
/// tick alongside: both multiply-shaped jobs carried a sampled band here,
/// and none fell back to the constant model.
#[test]
fn masked_multiplies_tick_est_err_and_sample_counters() {
    use tsg_engine::OpSpec;
    let engine = Engine::new(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    let (id, _) = engine.register(scatter(512, 8, 21));
    let (mask, _) = engine.register(scatter(512, 2, 4));

    let plain = engine.multiply_now(JobSpec::new(id, id)).unwrap();
    let masked = engine
        .multiply_now(JobSpec::of(OpSpec::MaskedMultiply { a: id, b: id, mask }))
        .unwrap();
    engine
        .multiply_now(JobSpec::of(OpSpec::Add {
            a: id,
            b: id,
            alpha: 1.0,
            beta: 1.0,
        }))
        .unwrap();

    let m = engine.metrics();
    let est_err_total: u64 = tsg_runtime::observe::EST_ERR_BUCKETS
        .iter()
        .map(|&c| m.get(c))
        .sum();
    assert_eq!(
        est_err_total, 2,
        "multiply + masked multiply tick, the add does not"
    );
    // Both ticks landed in the bucket their own report maps to.
    for r in [&plain, &masked] {
        let bucket = tsg_runtime::est_error_bucket(r.estimate.est_bytes, r.peak_bytes);
        assert!(m.get(bucket) >= 1);
    }
    // Sampled-estimator provenance: both multiply-shaped estimates carried
    // a band (the default config samples), measuring at least the sampling
    // floor of tile rows each; nothing fell back.
    assert!(plain.estimate.sample.is_some());
    assert!(masked.estimate.sample.is_some());
    assert_eq!(m.get(tsg_runtime::Counter::EstSampleJobs), 2);
    assert!(m.get(tsg_runtime::Counter::EstSampleRows) >= 32);
    assert_eq!(m.get(tsg_runtime::Counter::EstSampleFallback), 0);
}
