//! Ablation of §3.3's adaptive accumulator: the `tnnz` threshold at the
//! paper's 192 against its two degenerate ends, 0 (every non-empty tile
//! dense) and 256 (every tile sparse). The paper's rationale: dense
//! accumulation wins above ~75% tile occupancy, sparse below.
//!
//! ```text
//! cargo bench -p tsg-bench --bench ablation_accumulator
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tilespgemm_core::{Config, IntersectionKind};
use tsg_gen::suite::GenSpec;
use tsg_matrix::{TileMatrix, TILE_AREA};
use tsg_runtime::MemTracker;

fn bench_accumulators(c: &mut Criterion) {
    // Two regimes: dense tiles (cluster matrix -> full output tiles) and
    // sparse tiles (stencil -> few nonzeros per tile).
    let cases = [
        (
            "dense-tiles",
            GenSpec::PowerFlow {
                clusters: 10,
                cluster_size: 60,
                links: 100,
                seed: 1,
            },
        ),
        ("sparse-tiles", GenSpec::Grid5 { nx: 90, ny: 90 }),
    ];
    let mut group = c.benchmark_group("accumulator");
    group.sample_size(10);
    for (regime, spec) in cases {
        let a = spec.build();
        let ta = TileMatrix::from_csr(&a);
        for (label, tnnz) in [
            ("tnnz-0-always-dense", 0usize),
            ("tnnz-192-paper", 192),
            ("tnnz-256-always-sparse", TILE_AREA),
        ] {
            let cfg = Config::builder()
                .tnnz_threshold(tnnz)
                .intersection(IntersectionKind::BinarySearch)
                .build();
            group.bench_with_input(BenchmarkId::new(label, regime), &ta, |b, ta| {
                b.iter(|| tilespgemm_core::multiply(ta, ta, &cfg, &MemTracker::new()).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_accumulators);
criterion_main!(benches);
