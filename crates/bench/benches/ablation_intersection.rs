//! Ablation of §3.3's set-intersection choice: the paper picks binary
//! search (with left-bound narrowing) for matching tile pairs; this bench
//! compares it with the default bitmap kernel (DESIGN.md §11), both on raw
//! index lists and end-to-end.
//!
//! ```text
//! cargo bench -p tsg-bench --bench ablation_intersection
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tilespgemm_core::intersect::{
    bitmap_word_range, intersect_binary_search, intersect_bitmap, IntersectionKind,
};
use tilespgemm_core::Config;
use tsg_gen::suite::GenSpec;
use tsg_matrix::{ListBitmaps, TileMatrix};
use tsg_runtime::MemTracker;

/// Sorted random list of `len` values below `universe`.
fn sorted_list(len: usize, universe: u32, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut v: Vec<u32> = (0..len * 2)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % universe as u64) as u32
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(len);
    v
}

fn bench_raw_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect_raw");
    // Asymmetric lists (the common tile-row vs tile-column case) and
    // symmetric ones.
    for (short, long) in [(8usize, 512usize), (64, 512), (256, 256)] {
        let a = sorted_list(short, 4096, 1);
        let b = sorted_list(long, 4096, 2);
        group.bench_with_input(
            BenchmarkId::new("BinarySearch", format!("{short}x{long}")),
            &(a.clone(), b.clone()),
            |bench, (a, b)| {
                let mut out = Vec::new();
                bench.iter(|| {
                    intersect_binary_search(a, b, &mut out);
                    out.len()
                });
            },
        );
        // The bitmap kernel consumes pre-built sidecars (amortized over a
        // whole pipeline run), so only the clipped AND+rank walk is on the
        // clock.
        let w = bitmap_word_range(&a, &b);
        let a_map = ListBitmaps::from_csr(&[0, a.len()], &a, 4096);
        let b_map = ListBitmaps::from_csr(&[0, b.len()], &b, 4096);
        group.bench_with_input(
            BenchmarkId::new("Bitmap", format!("{short}x{long}")),
            &(a_map, b_map),
            |bench, (a_map, b_map)| {
                let (aw, ar) = a_map.list(0);
                let (bw, br) = b_map.list(0);
                let (aw, ar, bw, br) = (
                    &aw[w.clone()],
                    &ar[w.clone()],
                    &bw[w.clone()],
                    &br[w.clone()],
                );
                let mut out = Vec::new();
                bench.iter(|| {
                    intersect_bitmap(aw, ar, bw, br, &mut out);
                    out.len()
                });
            },
        );
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let a = GenSpec::Rmat {
        scale: 12,
        edges: 25_000,
        mild: false,
        seed: 3,
    }
    .build();
    let ta = TileMatrix::from_csr(&a);
    let mut group = c.benchmark_group("intersect_end_to_end");
    group.sample_size(10);
    for kind in [IntersectionKind::BinarySearch, IntersectionKind::Bitmap] {
        let cfg = Config::builder().intersection(kind).build();
        group.bench_function(format!("{kind:?}"), |b| {
            b.iter(|| tilespgemm_core::multiply(&ta, &ta, &cfg, &MemTracker::new()).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_raw_intersection, bench_end_to_end);
criterion_main!(benches);
