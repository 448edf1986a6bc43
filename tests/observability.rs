//! Counter-correctness tests for the observability layer: every counter a
//! [`CollectingRecorder`] aggregates is checked against ground truth
//! computed independently (the step-1 structure, a fresh intersection per
//! output tile, the tracker's byte accounting), byte accounting is pinned
//! to be independent of the worker count, and a property test pins down
//! that recording changes nothing about the numerics.

use std::sync::Arc;

use proptest::prelude::*;
use tilespgemm::prelude::*;

/// A representative mix: a banded FEM-like pattern, a power-law scatter,
/// and a diagonal (degenerate: every output tile accumulates one pair).
fn fixtures() -> Vec<(&'static str, TileMatrix<f64>)> {
    let fem = tilespgemm::gen::suite::GenSpec::Fem {
        nodes: 120,
        block: 5,
        couplings: 3,
        spread: 9,
        seed: 7,
    }
    .build();
    let scatter = tilespgemm::gen::random::erdos_renyi(600, 600, 4_000, 21);
    let eye = Csr::<f64>::identity(300);
    vec![
        ("fem", TileMatrix::from_csr(&fem)),
        ("scatter", TileMatrix::from_csr(&scatter)),
        ("identity", TileMatrix::from_csr(&eye)),
    ]
}

/// One profiled product; returns the recorder's snapshot alongside the
/// output so every test reads the same run.
fn profiled_square(
    ta: &TileMatrix<f64>,
    config: Config,
) -> (
    tilespgemm::core::pipeline::Output<f64>,
    Arc<CollectingRecorder>,
    SpGemm,
) {
    let recorder = Arc::new(CollectingRecorder::new());
    let ctx = SpGemm::builder()
        .config(config)
        .recorder(recorder.clone())
        .build();
    let out = ctx.multiply(ta, ta).expect("multiply");
    (out, recorder, ctx)
}

#[test]
fn tiles_visited_equals_the_step1_tile_count() {
    for (name, ta) in fixtures() {
        let (out, recorder, _ctx) = profiled_square(&ta, Config::default());
        // Step 2 visits each tile of the step-1 structure exactly once, so
        // the counter must equal the output layout's tile count.
        assert_eq!(
            recorder.snapshot().get(Counter::TilesVisited) as usize,
            out.c.tile_count(),
            "{name}: one visit per predicted output tile"
        );
    }
}

#[test]
fn matched_pairs_equal_the_recomputed_intersections() {
    for (name, ta) in fixtures() {
        let (out, recorder, _ctx) = profiled_square(&ta, Config::default());
        let b_cols = ta.col_index();
        let (mut scratch, mut pairs) = (Vec::new(), Vec::new());
        let mut total = 0usize;
        for ti in 0..out.c.tile_m {
            for &tj in out.c.tile_row_cols(ti) {
                tilespgemm::core::step2::matched_pairs_with(
                    &ta,
                    &b_cols,
                    ti,
                    tj as usize,
                    None,
                    &mut scratch,
                    &mut pairs,
                );
                total += pairs.len();
            }
        }
        assert_eq!(
            recorder.snapshot().get(Counter::MatchedPairs) as usize,
            total,
            "{name}: the counter totals exactly the pairs a fresh intersection finds"
        );
        // The degenerate diagonal makes the bound exact: one pair per tile.
        if name == "identity" {
            assert_eq!(total, out.c.tile_count());
        }
    }
}

#[test]
fn accumulator_picks_partition_the_output_tiles() {
    for (name, ta) in fixtures() {
        let (out, recorder, _ctx) = profiled_square(&ta, Config::default());
        let snap = recorder.snapshot();
        // Step 3 routes every output tile through exactly one accumulator,
        // so the two pick counters partition the tile count.
        assert_eq!(
            (snap.get(Counter::SparseAccPicks) + snap.get(Counter::DenseAccPicks)) as usize,
            out.c.tile_count(),
            "{name}: sparse + dense picks cover each tile exactly once"
        );
        // Under the bitmap default one probe (a sidecar word) can find up to
        // 64 matches, so the classic probe bound is pinned on the
        // paper-faithful kernel.
        let bsearch = Config::builder()
            .intersection(tilespgemm::core::IntersectionKind::BinarySearch)
            .build();
        let (_, recorder, _ctx) = profiled_square(&ta, bsearch);
        let snap = recorder.snapshot();
        assert!(
            snap.get(Counter::IntersectionProbes) >= snap.get(Counter::MatchedPairs),
            "{name}: every match costs at least one probe"
        );
    }
}

#[test]
fn byte_counters_reconcile_with_the_tracker() {
    for (name, ta) in fixtures() {
        let (out, recorder, ctx) = profiled_square(&ta, Config::default());
        let snap = recorder.snapshot();
        let alloc = snap.get(Counter::BytesAlloc);
        let freed = snap.get(Counter::BytesFreed);
        // The pipeline drains its device attribution, so alloc == freed and
        // the tracker sits back at zero; the cumulative alloc total must
        // dominate the high-water mark both the tracker and the output
        // report.
        assert_eq!(alloc, freed, "{name}: attribution drains to zero");
        assert_eq!(ctx.tracker().current_bytes(), 0, "{name}");
        assert_eq!(ctx.tracker().peak_bytes(), out.peak_bytes, "{name}");
        assert!(
            alloc as usize >= out.peak_bytes,
            "{name}: total bytes allocated ({alloc}) below the peak ({})",
            out.peak_bytes
        );
    }
}

#[test]
fn byte_accounting_is_identical_across_runs_at_any_worker_count() {
    // The fixtures plus a skewed R-MAT and small random squares: on inputs
    // whose per-tile pair counts vary, which worker drains which chunk
    // changes the realized scratch capacities from run to run.
    let mut inputs = fixtures();
    let rmat = tilespgemm::gen::suite::GenSpec::Rmat {
        scale: 11,
        edges: 18_000,
        mild: false,
        seed: 7,
    }
    .build();
    inputs.push(("rmat", TileMatrix::from_csr(&rmat)));
    for seed in 0..4 {
        let er = tilespgemm::gen::random::erdos_renyi(90, 90, 380, seed);
        inputs.push(("erdos-renyi", TileMatrix::from_csr(&er)));
    }
    for (name, ta) in &inputs {
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("explicit worker pool");
            pool.install(|| {
                // Two identical multiplies on one warm context, then fresh
                // contexts: the arena charge depends only on the input and
                // the slot count, never on which worker grew which buffer.
                let recorder = Arc::new(CollectingRecorder::new());
                let ctx = SpGemm::builder().recorder(recorder.clone()).build();
                let first = ctx.multiply(ta, ta).expect("job 1").peak_bytes;
                let after_one = recorder.snapshot();
                let second = ctx.multiply(ta, ta).expect("job 2").peak_bytes;
                let delta = recorder.snapshot().since(&after_one);
                assert_eq!(first, second, "{name}/{threads} workers: peak_bytes");
                assert_eq!(
                    delta.get(Counter::BytesAlloc),
                    after_one.get(Counter::BytesAlloc),
                    "{name}/{threads} workers: BytesAlloc differs between runs"
                );
                for _ in 0..3 {
                    let (out, fresh, _ctx) = profiled_square(ta, Config::default());
                    assert_eq!(
                        out.peak_bytes, first,
                        "{name}/{threads} workers: warm vs fresh pool"
                    );
                    assert_eq!(
                        fresh.snapshot().get(Counter::BytesAlloc),
                        after_one.get(Counter::BytesAlloc),
                        "{name}/{threads} workers: fresh BytesAlloc"
                    );
                }
            });
        }
    }
}

/// A checkerboard-thinned mask over the square's own pattern: about half of
/// each output tile survives, so most tiles are trimmed and step 3 must run
/// them on the dense accumulator.
fn checkerboard_mask(ta: &TileMatrix<f64>) -> TileMatrix<f64> {
    let full = multiply(ta, ta, &Config::default(), &MemTracker::new())
        .expect("unmasked square")
        .c
        .to_csr();
    let mut coo = Coo::new(full.nrows, full.ncols);
    for r in 0..full.nrows {
        for &c in full.row(r).0 {
            if (r as u32 + c).is_multiple_of(2) {
                coo.push(r as u32, c, 1.0);
            }
        }
    }
    TileMatrix::from_csr(&coo.to_csr())
}

/// `C⟨M⟩ = A·A` as job 1, profiled into a fresh recorder, on `arena`.
fn profiled_masked_square(
    ta: &TileMatrix<f64>,
    tm: &TileMatrix<f64>,
    arena: &tilespgemm::runtime::ScratchPool,
) -> (tilespgemm::core::pipeline::Output<f64>, CollectingRecorder) {
    let recorder = CollectingRecorder::new();
    let out = tilespgemm::core::multiply_with_pool(
        ta,
        ta,
        Some(tm),
        &Config::default(),
        &MemTracker::new(),
        &recorder,
        1,
        arena,
    )
    .expect("masked multiply");
    (out, recorder)
}

#[test]
fn masked_products_report_spans_counters_and_bytes_like_plain_ones() {
    use tilespgemm::core::step2::{matched_pairs_with, symbolic_tile};
    use tilespgemm::runtime::{Scratch, ScratchPool};

    for (name, ta) in fixtures() {
        let tm = checkerboard_mask(&ta);
        let (out, recorder) = profiled_masked_square(&ta, &tm, &ScratchPool::new());

        // The masked product runs the main pipeline: the step spans nest
        // under the job root.
        let roots = recorder.span_tree(1);
        let root = roots.last().expect("job root span");
        assert_eq!(root.name, "job", "{name}");
        for phase in ["step1", "step2", "step3"] {
            assert!(root.child(phase).is_some(), "{name}: missing {phase}");
        }

        // Step 1 is the mask's layout, visited once per tile.
        let snap = recorder.snapshot();
        let visited = snap.get(Counter::TilesVisited);
        assert_eq!(visited as usize, tm.tile_count(), "{name}");
        assert_eq!(out.c.tile_count(), tm.tile_count(), "{name}");

        // Ground truth for the kernel each tile ran: a fresh intersection
        // and symbolic pass per tile says whether the mask trimmed it, and
        // trimmed tiles run on the dense accumulator whatever their size.
        let b_cols = ta.col_index();
        let (mut scratch, mut pairs) = (Vec::new(), Vec::new());
        let (mut want_dense, mut trimmed_tiles) = (0u64, 0usize);
        for ti in 0..tm.tile_m {
            for (t, &tj) in tm.tile_row_range(ti).zip(tm.tile_row_cols(ti)) {
                matched_pairs_with(
                    &ta,
                    &b_cols,
                    ti,
                    tj as usize,
                    None,
                    &mut scratch,
                    &mut pairs,
                );
                let sym = symbolic_tile(&ta, &ta, &pairs);
                let kept: usize = sym
                    .masks
                    .iter()
                    .zip(tm.tile(t).masks)
                    .map(|(&p, &m)| (p & m).count_ones() as usize)
                    .sum();
                let trimmed = kept < sym.nnz;
                trimmed_tiles += usize::from(trimmed);
                if trimmed || kept > Config::default().tnnz_threshold {
                    want_dense += 1;
                }
            }
        }
        if name != "identity" {
            assert!(trimmed_tiles > 0, "{name}: the mask must trim some tile");
        }
        let (sparse, dense) = (
            snap.get(Counter::SparseAccPicks),
            snap.get(Counter::DenseAccPicks),
        );
        assert_eq!(sparse + dense, visited, "{name}: picks partition the tiles");
        assert_eq!(dense, want_dense, "{name}: dense picks = trimmed or > tnnz");

        // Byte accounting at 1, 2 and 4 workers: identical run to run on a
        // warm or a fresh pool, and identical across worker counts once the
        // per-slot arena charge (4 slots per worker, each sized to the
        // per-tile pair bound) is taken out.
        let bound = (0..tm.tile_m)
            .flat_map(|ti| {
                let la = ta.tile_row_range(ti).len();
                let b_cols = &b_cols;
                tm.tile_row_cols(ti)
                    .iter()
                    .map(move |&tj| la.min(b_cols.col(tj as usize).0.len()))
            })
            .max()
            .unwrap_or(0);
        let mut net = Vec::new();
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("explicit worker pool");
            let peaks: Vec<usize> = pool.install(|| {
                let (warm, fresh) = (ScratchPool::new(), ScratchPool::new());
                [&warm, &warm, &fresh]
                    .iter()
                    .map(|arena| profiled_masked_square(&ta, &tm, arena).0.peak_bytes)
                    .collect()
            });
            assert!(
                peaks.iter().all(|&p| p == peaks[0]),
                "{name}/{threads} workers: peak_bytes {peaks:?}"
            );
            net.push(peaks[0] - threads * 4 * Scratch::charge_for(bound));
        }
        assert!(
            net.iter().all(|&n| n == net[0]),
            "{name}: peak_bytes net of the arena charge differs by worker count: {net:?}"
        );
    }
}

#[test]
fn counters_accumulate_across_jobs() {
    let (_, ta) = fixtures().remove(0);
    let recorder = Arc::new(CollectingRecorder::new());
    let ctx = SpGemm::builder().recorder(recorder.clone()).build();
    ctx.multiply(&ta, &ta).expect("job 1");
    let after_one = recorder.snapshot();
    ctx.multiply(&ta, &ta).expect("job 2");
    let delta = recorder.snapshot().since(&after_one);
    // The same product again adds exactly the same per-job totals, and each
    // job keeps its own span tree.
    assert_eq!(
        delta, after_one,
        "second job repeats the first job's totals"
    );
    assert_eq!(recorder.jobs(), vec![1, 2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recording must be purely observational: the same product through a
    /// `NullRecorder` context, a `CollectingRecorder` context, and the free
    /// function is bitwise-identical.
    #[test]
    fn recording_never_changes_the_product(
        n in 8usize..96,
        nnz in 0usize..400,
        seed in 0u64..500,
    ) {
        let a = tilespgemm::gen::random::erdos_renyi(n, n, nnz.min(n * n), seed);
        let ta = TileMatrix::from_csr(&a);
        let free = multiply(&ta, &ta, &Config::default(), &MemTracker::new())
            .expect("free function");
        let null_ctx = SpGemm::new().multiply(&ta, &ta).expect("null context");
        let collecting = SpGemm::builder()
            .recorder(Arc::new(CollectingRecorder::new()))
            .build()
            .multiply(&ta, &ta)
            .expect("collecting context");
        prop_assert_eq!(&free.c, &null_ctx.c);
        prop_assert_eq!(&free.c, &collecting.c);
        prop_assert_eq!(free.peak_bytes, collecting.peak_bytes);
    }
}
