//! Steady-state allocation audit of the step-2/step-3 hot path.
//!
//! A counting global allocator wraps the system allocator; after one warm
//! pass over every tile task (which grows the scratch arena's buffers to
//! their high-water sizes), a second identical pass must perform **zero**
//! heap allocations — the property the arena module exists to provide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tilespgemm_core::step2::{matched_pairs_with, symbolic_tile};
use tilespgemm_core::step3::{numeric_tile_dense, numeric_tile_sparse};
use tsg_matrix::{Coo, ListBitmaps, TileMatrix};
use tsg_runtime::{Scratch, ScratchPool};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn random_tiled(n: usize, per_row: usize, seed: u64) -> TileMatrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut coo = Coo::new(n, n);
    for r in 0..n as u32 {
        for _ in 0..per_row {
            let c = (next() % n as u64) as u32;
            coo.push(r, c, (next() % 16) as f64 - 8.0);
        }
    }
    TileMatrix::from_csr(&coo.to_csr())
}

/// One full pass of the per-tile hot path over every `(ti, tj)` tile pair
/// of `a·b`, using only `s` and the pre-sized `vals` window for storage.
/// Returns a checksum so the work cannot be optimized away.
#[allow(clippy::too_many_arguments)]
fn hot_pass(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    b_cols: &tsg_matrix::TileColIndex,
    bitmaps: (&ListBitmaps, &ListBitmaps),
    s: &mut Scratch,
    vals: &mut [f64],
    tnnz: usize,
) -> f64 {
    let mut checksum = 0.0;
    for ti in 0..a.tile_m {
        for tj in 0..b.tile_n {
            // Step 2: bitmap intersection + symbolic mask-OR, staged
            // through the arena's pair lists.
            matched_pairs_with(
                a,
                b_cols,
                ti,
                tj,
                Some(bitmaps),
                &mut s.pos_pairs,
                &mut s.id_pairs,
            );
            let sym = symbolic_tile(a, b, &s.id_pairs);
            if s.id_pairs.is_empty() {
                continue;
            }
            // Step 3 repeats the intersection, then runs both numeric
            // kernels into the pre-sized value window.
            matched_pairs_with(
                a,
                b_cols,
                ti,
                tj,
                Some(bitmaps),
                &mut s.pos_pairs,
                &mut s.id_pairs,
            );
            let window = &mut vals[..sym.nnz];
            window.fill(0.0);
            if sym.nnz > tnnz {
                numeric_tile_dense(a, b, &s.id_pairs, &sym.masks, window);
            } else {
                numeric_tile_sparse(a, b, &s.id_pairs, &sym.masks, &sym.row_ptr, window);
            }
            checksum += window.iter().sum::<f64>();
        }
    }
    checksum
}

#[test]
fn steady_state_hot_path_performs_zero_allocations() {
    let a = random_tiled(160, 6, 97);
    let b = random_tiled(160, 6, 131);
    let b_cols = b.col_index();
    let a_maps = ListBitmaps::from_csr(&a.tile_ptr, &a.tile_colidx, a.tile_n);
    let b_maps = ListBitmaps::from_csr(&b_cols.colptr, &b_cols.rowidx, b.tile_m);

    let pool = ScratchPool::new();
    let mut guard = pool.checkout();
    let mut vals = vec![0.0f64; 256];

    // Warm pass: scratch buffers grow to their high-water sizes here.
    let warm = hot_pass(
        &a,
        &b,
        &b_cols,
        (&a_maps, &b_maps),
        &mut guard,
        &mut vals,
        192,
    );

    // Steady state: bit-identical work, zero heap traffic.
    let before = ALLOCS.load(Ordering::Relaxed);
    let steady = hot_pass(
        &a,
        &b,
        &b_cols,
        (&a_maps, &b_maps),
        &mut guard,
        &mut vals,
        192,
    );
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state step-2/3 execution must not touch the allocator"
    );
    assert_eq!(warm, steady, "the two passes did identical work");
    assert_ne!(warm, 0.0, "the product is non-trivial");
}
