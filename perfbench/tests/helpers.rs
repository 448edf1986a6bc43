//! Self-tests of the benchmark's helpers: percentiles and the p90
//! sample-count rule, layer and residual accounting, spans, the result
//! file round-trip, and agreement with `BENCHMARK.json`.

use std::time::{Duration, Instant};

use tsg_engine::json::{parse, Value};
use tsg_matrix::Csr;
use tsg_perfbench::host::Host;
use tsg_perfbench::layers::{LayerTable, PerLayer};
use tsg_perfbench::report::{Metric, RunResult};
use tsg_perfbench::stats::{mean, p50, p90, p90_or_max, percentile, ratio, MIN_P90_SAMPLES};
use tsg_perfbench::trace::Tracer;
use tsg_perfbench::workload::{masked, masked_products, window_over, Workload, END_TO_END};

fn one_to(n: usize) -> Vec<f64> {
    // Shuffled, so the helpers must sort.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.swap(0, n / 2);
    v
}

#[test]
fn percentiles_use_nearest_rank() {
    let v = one_to(10);
    assert_eq!(percentile(&v, 0.5), Some(5.0));
    assert_eq!(percentile(&v, 0.51), Some(6.0));
    assert_eq!(percentile(&v, 1.0), Some(10.0));
    assert_eq!(percentile(&v, 0.01), Some(1.0));
    assert_eq!(p50(&[7.0]), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&v, 0.0), None);
    assert_eq!(percentile(&v, 1.5), None);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    assert_eq!(mean(&[]), None);
    assert_eq!(ratio(1.0, 0.0), 0.0);
}

#[test]
fn p90_needs_its_sample_count() {
    assert_eq!(MIN_P90_SAMPLES, 100);
    let short = one_to(MIN_P90_SAMPLES - 1);
    assert_eq!(p90(&short), None, "99 samples give no p90");
    assert_eq!(p90_or_max(&short), Some(99.0), "the fallback is the max");
    let enough = one_to(MIN_P90_SAMPLES);
    assert_eq!(p90(&enough), Some(90.0));
    assert_eq!(p90_or_max(&enough), Some(90.0));
    assert_eq!(p90(&one_to(1000)), Some(900.0));
    assert_eq!(p90_or_max(&[]), None);
}

#[test]
fn layers_and_residual_add_up_to_the_wall() {
    let mut t = LayerTable::new("t", 4);
    t.wall_ms = 100.0;
    t.add("convert", 10.0);
    t.add("step3", 50.0);
    t.add("convert", 15.0);
    assert_eq!(t.layer_ms("convert"), 25.0);
    assert_eq!(t.layer_ms("absent"), 0.0);
    assert_eq!(t.layers.len(), 2, "repeated names accumulate");
    assert_eq!(t.explained_ms(), 75.0);
    assert_eq!(t.residual_ms(), 25.0);
    assert_eq!(t.residual_pct(), 25.0);
    assert_eq!(t.per_op(t.residual_ms()), 6.25);
    assert_eq!(t.explained_ms() + t.residual_ms(), t.wall_ms);
    let text = t.render();
    let last_layer = text.find("step3").unwrap();
    let residual = text.find("residual").unwrap();
    assert!(
        residual > last_layer,
        "the table ends in the residual:\n{text}"
    );
    assert!(text.contains("25.0%"), "{text}");

    let mut overlap = LayerTable::new("overlap", 1);
    overlap.wall_ms = 10.0;
    overlap.add("a", 8.0);
    overlap.add("b", 8.0);
    assert_eq!(
        overlap.residual_ms(),
        -6.0,
        "overlapping layers show as negative residual"
    );
    assert_eq!(LayerTable::new("empty", 0).residual_pct(), 0.0);
}

#[test]
fn spans_nest_and_export_as_chrome_trace() {
    let t = Tracer::enabled();
    let root = t.enter(7, None, "op");
    let (v, ms) = t.span(7, root, "child", || {
        std::thread::sleep(Duration::from_millis(2));
        41 + 1
    });
    assert_eq!(v, 42);
    assert!(ms >= 2.0, "span time covers the call: {ms}");
    let total = t.exit(root);
    assert!(total >= ms);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].op, 7);
    assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);

    let json = parse(&t.chrome_json()).expect("trace parses");
    let events = json.get("traceEvents").and_then(Value::as_arr).unwrap();
    assert_eq!(events.len(), 2);
    let child = &events[1];
    assert_eq!(child.get("ph").and_then(Value::as_str), Some("X"));
    assert_eq!(child.get("name").and_then(Value::as_str), Some("child"));
    let args = child.get("args").unwrap();
    assert_eq!(args.get("parent").and_then(Value::as_u64), Some(0));
    assert_eq!(args.get("op").and_then(Value::as_u64), Some(7));

    let off = Tracer::disabled();
    let (v, ms) = off.span(1, None, "x", || 5);
    assert_eq!((v, ms), (5, 0.0));
    assert!(off.enter(1, None, "y").is_none());
    assert!(off.spans().is_empty());
}

fn sample_result() -> RunResult {
    RunResult {
        workload: "fem-a2".to_string(),
        trace: false,
        correct: true,
        attempted: 120,
        failed: 1,
        metrics: vec![
            Metric::new("latency_ms_p50", "ms", 159.476_051_123_456_7),
            Metric::new("gflops", "GFLOP/s", 0.292_751_882_113_850_34),
            Metric::new("success_rate", "ratio", 1.0),
        ],
        host: Host {
            nproc: 2,
            simd: "Avx2".to_string(),
            rustc: "rustc 1.0.0 (\"quoted\")".to_string(),
            commit: "unknown".to_string(),
            seed: u64::from(u32::MAX) + 5,
            workers: 2,
            clients: 1,
            pool_threads: 2,
        },
    }
}

#[test]
fn result_file_round_trips() {
    let r = sample_result();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("perfbench-roundtrip-{}.json", std::process::id()));
    r.write(&path).unwrap();
    let back = RunResult::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(back, r, "every field, all digits, survives the file");

    let line = parse(&r.summary_line()).unwrap();
    let Value::Obj(members) = &line else {
        panic!("summary is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let lat = line
        .get("metrics")
        .and_then(|m| m.get("latency_ms_p50"))
        .unwrap();
    assert_eq!(
        lat.get("value").and_then(Value::as_f64),
        Some(159.476_051_123_456_7)
    );
    assert_eq!(lat.get("unit").and_then(Value::as_str), Some("ms"));

    assert!(RunResult::from_json(&parse(r#"{"workload":"x"}"#).unwrap()).is_err());
    let mut nan = r.clone();
    nan.metrics.push(Metric::new("bad", "ms", f64::NAN));
    assert_eq!(nan.non_finite(), ["bad"]);
}

#[test]
fn windows_last_their_seconds_and_their_ops() {
    let start = Instant::now();
    assert!(!window_over(start, 0.0, 3, 5), "too few ops");
    assert!(window_over(start, 0.0, 5, 5));
    assert!(!window_over(start, 60.0, 500, 5), "too early");
}

#[test]
fn masked_gold_keeps_only_masked_coordinates() {
    // A = [[1,2],[0,3]]: A·A = [[1,8],[0,9]]; mask = pattern of A.
    let a = Csr::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 2.0, 3.0]).unwrap();
    let mask = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
    let product = Csr::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 8.0, 9.0]).unwrap();
    let m = masked(&product, &mask);
    assert_eq!(m.colidx, [0, 1]);
    assert_eq!(m.vals, [1.0, 9.0]);
    // Products landing in the mask: (0,0): a00·a00; (1,1): a11·a11.
    assert_eq!(masked_products(&a, &a, &mask), 2);
    assert_eq!(masked_products(&a, &a, &a), 4);
}

/// The metric and workload lists the code emits agree with the benchmark
/// definition at the repository root.
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let def = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        def.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let per_layer: Vec<(String, String)> = PerLayer::default()
        .metrics()
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect();
    assert_eq!(names("per_layer"), per_layer);
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
