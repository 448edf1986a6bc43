//! The full TileSpGEMM pipeline: step 1 → allocate → step 2 → allocate →
//! step 3, with the per-step breakdown of Figure 10 and device-memory
//! accounting for Figures 7 and 9.

use crate::convert::{timed_csr_to_tile, ConversionTiming};
use crate::intersect::{bitmap_word_range, IntersectionKind};
use crate::maskops;
use crate::simd::{self, Kernel};
use crate::step1::{tile_structure_spgemm, TilePattern};
use crate::step2::{matched_pairs_with, symbolic_tile};
use crate::{Config, SpGemmError};

use rayon::prelude::*;
use tsg_matrix::{Csr, ListBitmaps, Scalar, TileColIndex, TileMatrix, TILE_DIM};
use tsg_runtime::observe::{Counter, NullRecorder, Recorder};
use tsg_runtime::{split_mut_by_offsets, Breakdown, MemTracker, ScratchPool, Step};

/// The result of a TileSpGEMM multiplication — the one result type both the
/// tiled and the CSR entry points return.
#[derive(Debug)]
pub struct Output<T> {
    /// The product in sparse-tile form. May retain step-1 tiles that turned
    /// out empty, exactly as the paper allows.
    pub c: TileMatrix<T>,
    /// Per-step wall times (Figure 10's slices).
    pub breakdown: Breakdown,
    /// Peak tracked device bytes during this multiplication.
    pub peak_bytes: usize,
    /// CSR → tiled conversion timing, summed over both operands. `Some` iff
    /// this output came from a CSR entry point; the tiled entry points set
    /// `None`. Conversion stays outside [`Output::breakdown`], matching the
    /// paper's timing protocol (which assumes tiled inputs).
    pub conversion: Option<ConversionTiming>,
}

impl<T: Scalar> Output<T> {
    /// The product as CSR, with exact numeric zeros dropped (the tiled form
    /// keeps structurally-predicted entries that cancelled to zero).
    pub fn to_csr(&self) -> Csr<T> {
        self.c.to_csr().drop_numeric_zeros()
    }
}

/// Footprint cap for the bitmap intersection sidecars: when
/// [`ListBitmaps::bytes_for`] over both operands exceeds this, the sidecars
/// are skipped and binary search runs instead. The cap bounds the sidecars
/// to a small fraction of any realistic operand set while admitting every
/// matrix in the evaluation suite (webbase-like at scale 14 needs ≈0.4 MB).
const TILE_BITMAP_MAX_BYTES: usize = 8 << 20;

/// Set-intersection lookups a step-2/step-3 intersection pass issues, plus
/// the kernel histogram `[binary-search, bitmap]`. Whether the sidecars were
/// built decides the kernel for the whole multiply, so this replays it
/// outside the parallel hot loops: binary search probes once per element of
/// the shorter tile list; the bitmap kernel touches the words of its
/// clipped range ([`bitmap_word_range`]). The counters are a deterministic
/// proxy, not a hardware event count.
fn intersection_stats<T: Scalar>(
    a: &TileMatrix<T>,
    b_cols: &TileColIndex,
    c_rowidx: &[u32],
    c_colidx: &[u32],
    bitmaps: bool,
) -> (u64, [u64; 2]) {
    let mut probes = 0u64;
    for (&ti, &tj) in c_rowidx.iter().zip(c_colidx) {
        let a_cols = a.tile_row_cols(ti as usize);
        let b_rows = b_cols.col(tj as usize).0;
        probes += if bitmaps {
            bitmap_word_range(a_cols, b_rows).len()
        } else {
            a_cols.len().min(b_rows.len())
        } as u64;
    }
    let tiles = c_rowidx.len() as u64;
    let picks = if bitmaps { [0, tiles] } else { [tiles, 0] };
    (probes, picks)
}

/// Runs `C = A·B` on tiled operands with the paper's three-step algorithm.
///
/// The `tracker` carries the device-memory budget; exceeding it aborts with
/// [`SpGemmError::OutOfMemory`] (the paper's Figure-7 `0.00` bars). Pass
/// [`MemTracker::new()`] for unlimited memory.
///
/// This is the original free-function surface, kept as a thin wrapper over
/// [`multiply_with`] with recording disabled. New code should prefer the
/// [`crate::SpGemm`] context, which owns the `(config, tracker, recorder)`
/// triple and numbers jobs.
pub fn multiply<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    config: &Config,
    tracker: &MemTracker,
) -> Result<Output<T>, SpGemmError> {
    multiply_with(a, b, config, tracker, &NullRecorder, 0)
}

/// [`multiply`] with an explicit recorder and job id: phase spans nest under
/// a `"job"` root span recorded for `job`, and the pipeline's counters
/// ([`Counter::TilesVisited`], matched pairs, intersection probes, the
/// intersection-kernel histogram, accumulator picks) flow into the
/// recorder.
///
/// All per-tile instrumentation is derived outside the parallel hot loops
/// from state the pipeline already computes, and is skipped entirely when
/// [`Recorder::is_enabled`] is `false` — a [`NullRecorder`] run costs a few
/// virtual calls per multiply, not per tile.
///
/// Worker scratch comes from a throwaway [`ScratchPool`]; long-lived
/// callers (the [`crate::SpGemm`] context, the engine) should hold a pool
/// and call [`multiply_with_pool`] so the arenas stay warm across
/// multiplies.
pub fn multiply_with<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    config: &Config,
    tracker: &MemTracker,
    recorder: &dyn Recorder,
    job: u64,
) -> Result<Output<T>, SpGemmError> {
    let arena = ScratchPool::new();
    multiply_with_pool(a, b, None, config, tracker, recorder, job, &arena)
}

/// [`multiply_with`] against a caller-owned [`ScratchPool`], optionally
/// restricted to the stored pattern of `mask` (`C⟨M⟩ = A·B`, the GraphBLAS
/// structural mask; `M`'s values are ignored).
///
/// Steps 2 and 3 check a [`tsg_runtime::Scratch`] arena out of `arena` once
/// per task chunk; after the first multiply warms the pool, the per-tile hot
/// path performs zero heap allocations (DESIGN.md §11). Scratch is charged
/// to `tracker` for the duration of the call (so `peak_bytes` covers it) as
/// one fixed amount per executor slot, derived from the per-tile pair bound
/// step 1 implies — never from realized capacities, so identical inputs
/// report identical bytes at a given thread count.
///
/// Under a mask, step 1 takes `M`'s tile layout as the output pattern, step
/// 2 ANDs `M`'s row masks into each tile's symbolic masks, and step 3 runs
/// every tile the mask trimmed through the dense accumulator: its products
/// may land outside the trimmed pattern, which the sparse accumulator's
/// rank addressing cannot express. The per-slot summation order is the
/// same on both accumulators, so the surviving values are bitwise those of
/// the unmasked product.
#[allow(clippy::too_many_arguments)]
pub fn multiply_with_pool<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    mask: Option<&TileMatrix<T>>,
    config: &Config,
    tracker: &MemTracker,
    recorder: &dyn Recorder,
    job: u64,
    arena: &ScratchPool,
) -> Result<Output<T>, SpGemmError> {
    if a.ncols != b.nrows {
        return Err(SpGemmError::ShapeMismatch {
            a: (a.nrows, a.ncols),
            b: (b.nrows, b.ncols),
        });
    }
    if let Some(m) = mask {
        if (m.nrows, m.ncols) != (a.nrows, b.ncols) {
            return Err(SpGemmError::ShapeMismatch {
                a: (m.nrows, m.ncols),
                b: (a.nrows, b.ncols),
            });
        }
    }
    let mut breakdown = Breakdown::default();
    let peak_start = tracker.peak_bytes();
    let enabled = recorder.is_enabled();
    let root = recorder.span_enter(job, "job");
    // Closes `root` (and reports nothing else) on early error returns.
    let fail = |e: SpGemmError| -> SpGemmError {
        recorder.span_exit(root);
        e
    };

    // Inputs live on the device for the duration of the product.
    let input_bytes = tile_matrix_bytes(a) + tile_matrix_bytes(b);
    if let Err(e) = tracker.on_alloc(input_bytes) {
        return Err(fail(e.into()));
    }

    // ---- Step 1: tile-structure symbolic SpGEMM (Figure 3). ----
    // Under a mask a product tile can only survive where `M` has a tile, so
    // `M`'s layout is the output pattern. (Mask tiles whose product is empty
    // come out with zero nonzeros, like the unmasked step-1 overestimate.)
    let span = recorder.span_enter(job, "step1");
    let c_pattern = breakdown.timed(Step::Step1, || match mask {
        Some(m) => TilePattern {
            rows: m.tile_m,
            cols: m.tile_n,
            ptr: m.tile_ptr.clone(),
            idx: m.tile_colidx.clone(),
        },
        None => tile_structure_spgemm(
            a.tile_m,
            &a.tile_ptr,
            &a.tile_colidx,
            &b.tile_ptr,
            &b.tile_colidx,
            b.tile_n,
        ),
    });
    recorder.span_exit(span);
    let num_tiles = c_pattern.nnz();

    // ---- Allocation for step 2 (counted like the paper's cudaMalloc). ----
    // B's column-wise tile index (Algorithm 2's tileColPtr_B/tileRowidx_B),
    // C's expanded tile-row indices, and — under the bitmap kernel, when the
    // footprint gate admits them — the bitmap sidecars of A's tile rows and
    // B's tile columns. Whether they are built picks the kernel for the
    // whole multiply.
    let span = recorder.span_enter(job, "alloc");
    let (b_cols, bitmaps, c_rowidx, max_pairs, mut c_masks, mut c_row_ptr) =
        breakdown.timed(Step::Alloc, || {
            let b_cols = b.col_index();
            // Both lists live in the shared universe K = A.tile_n == B.tile_m
            // (shapes were checked above).
            let k = a.tile_n;
            let sidecar_bytes =
                ListBitmaps::bytes_for(a.tile_m, k) + ListBitmaps::bytes_for(b.tile_n, k);
            let bitmaps = (config.intersection == IntersectionKind::Bitmap
                && num_tiles > 0
                && sidecar_bytes <= TILE_BITMAP_MAX_BYTES)
                .then(|| {
                    (
                        ListBitmaps::from_csr(&a.tile_ptr, &a.tile_colidx, k),
                        ListBitmaps::from_csr(&b_cols.colptr, &b_cols.rowidx, k),
                    )
                });
            let mut c_rowidx = vec![0u32; num_tiles];
            for ti in 0..c_pattern.rows {
                c_rowidx[c_pattern.ptr[ti]..c_pattern.ptr[ti + 1]].fill(ti as u32);
            }
            // A tile's intersection matches at most min(|A tile row|, |B
            // tile column|) pairs, so scratch pair lists reserved to the
            // largest such minimum never grow during steps 2 and 3.
            let max_pairs = c_rowidx
                .iter()
                .zip(&c_pattern.idx)
                .map(|(&ti, &tj)| {
                    let la = a.tile_row_range(ti as usize).len();
                    la.min(b_cols.col(tj as usize).0.len())
                })
                .max()
                .unwrap_or(0);
            let c_masks = vec![0u16; num_tiles * TILE_DIM];
            let c_row_ptr = vec![0u8; num_tiles * TILE_DIM];
            (b_cols, bitmaps, c_rowidx, max_pairs, c_masks, c_row_ptr)
        });
    recorder.span_exit(span);
    let bitmaps_ref = bitmaps.as_ref().map(|(am, bm)| (am, bm));
    let step2_temp_bytes = c_pattern.nnz() * 4
        + b_cols.colptr.len() * 8
        + b_cols.rowidx.len() * 8
        + num_tiles * (4 + TILE_DIM * 3 + 8 + 1)
        + bitmaps_ref.map_or(0, |(am, bm)| am.bytes() + bm.bytes())
        + 8;
    if let Err(e) = tracker.on_alloc(step2_temp_bytes) {
        tracker.on_free(input_bytes);
        return Err(fail(e.into()));
    }

    // Reserve one scratch arena per executor chunk (the same sizing the
    // `for_each_init` dispatch below uses), pair lists pre-grown to the
    // per-tile bound, and charge a fixed amount per slot for the duration
    // of this multiply — so scratch memory shows up in `peak_bytes` every
    // run, identically at a given thread count.
    let arena_slots = rayon::current_num_threads().max(1) * 4;
    let arena_charged = match arena.reserve(arena_slots, max_pairs, tracker) {
        Ok(bytes) => bytes,
        Err(e) => {
            tracker.on_free(input_bytes + step2_temp_bytes);
            return Err(fail(e.into()));
        }
    };

    // The kernel level is a run constant: resolved once (policy, then the
    // `core.simd_dispatch` failpoint, then hardware detection), so the
    // counter replay below re-derives the same per-tile choices.
    let simd_level = simd::resolve_level(config.simd);

    // ---- Step 2: per-tile symbolic (Algorithm 2). ----
    let mut c_counts = vec![0usize; num_tiles];
    // Matched-pair count per tile (one word per tile) — feeds the counters.
    let mut pair_counts = vec![0usize; num_tiles];
    // Whether the mask removed any position of the tile's product.
    let mut trimmed = vec![false; num_tiles];
    let span = recorder.span_enter(job, "step2");
    breakdown.timed(Step::Step2, || {
        c_masks
            .par_chunks_mut(TILE_DIM)
            .zip(c_row_ptr.par_chunks_mut(TILE_DIM))
            .zip(c_counts.par_iter_mut())
            .zip(pair_counts.par_iter_mut())
            .zip(trimmed.par_iter_mut())
            .enumerate()
            .for_each_init(
                || arena.checkout(),
                |s, (t, ((((mask_w, row_ptr_w), count), pair_count), trimmed))| {
                    let s = &mut **s;
                    matched_pairs_with(
                        a,
                        &b_cols,
                        c_rowidx[t] as usize,
                        c_pattern.idx[t] as usize,
                        bitmaps_ref,
                        &mut s.pos_pairs,
                        &mut s.id_pairs,
                    );
                    *pair_count = s.id_pairs.len();
                    let mut sym = symbolic_tile(a, b, &s.id_pairs);
                    if let Some(m) = mask {
                        let mut m_masks = [0u16; TILE_DIM];
                        m_masks.copy_from_slice(m.tile(t).masks);
                        let allowed = maskops::and_masks(&sym.masks, &m_masks, simd_level);
                        *trimmed = allowed != sym.masks;
                        (sym.row_ptr, sym.nnz) = maskops::row_ptr_from_masks(&allowed);
                        sym.masks = allowed;
                    }
                    mask_w.copy_from_slice(&sym.masks);
                    row_ptr_w.copy_from_slice(&sym.row_ptr);
                    *count = sym.nnz;
                },
            );
    });
    recorder.span_exit(span);

    // Prefix-sum the per-tile counts into the tileNnz offsets — the scan
    // the paper ends step 2 with — then allocate C's nonzero arrays.
    let mut c_offsets = vec![0usize; num_tiles + 1];
    let span = recorder.span_enter(job, "scan");
    let nnz_c = breakdown.timed(Step::Step2, || {
        tsg_runtime::par_exclusive_scan_to(&c_counts, &mut c_offsets)
    });
    recorder.span_exit(span);

    // Step-2 counters, all derived from state the phase already produced:
    // one visit per predicted output tile (== step-1 nnz), the matched-pair
    // total, the length-derived probe count, and the kernel histogram (see
    // `intersection_stats`).
    let probes = if enabled {
        let (probes, picks) =
            intersection_stats(a, &b_cols, &c_rowidx, &c_pattern.idx, bitmaps_ref.is_some());
        recorder.add(Counter::TilesVisited, num_tiles as u64);
        recorder.add(
            Counter::MatchedPairs,
            pair_counts.iter().map(|&p| p as u64).sum(),
        );
        recorder.add(Counter::IntersectionProbes, probes);
        recorder.add(Counter::IsectBinaryPicks, picks[0]);
        recorder.add(Counter::IsectBitmapPicks, picks[1]);
        probes
    } else {
        0
    };

    let output_bytes = nnz_c * (2 + std::mem::size_of::<T>()) + (num_tiles + 1) * 8;
    let span = recorder.span_enter(job, "alloc");
    let alloc_res = breakdown.timed(Step::Alloc, || {
        tracker.on_alloc(output_bytes)?;
        Ok::<_, SpGemmError>((
            tracker.timed_alloc(|| vec![0u8; nnz_c]),
            tracker.timed_alloc(|| vec![0u8; nnz_c]),
            tracker.timed_alloc(|| vec![T::ZERO; nnz_c]),
        ))
    });
    recorder.span_exit(span);
    let (mut c_row_idx, mut c_col_idx, mut c_vals) = match alloc_res {
        Ok(v) => v,
        Err(e) => {
            tracker.on_free(input_bytes + step2_temp_bytes + arena_charged);
            return Err(fail(e));
        }
    };

    // ---- Step 3: numeric (Algorithm 3). ----
    // The per-tile kernel: the paper's `tnnz` accumulator rule, with every
    // mask-trimmed tile on the dense side, at the run's vector level.
    let kernel_for = |t: usize, nnz: usize| {
        let dense = trimmed[t] || nnz > config.tnnz_threshold;
        simd::select_kernel(simd_level, dense)
    };
    let span = recorder.span_enter(job, "step3");
    breakdown.timed(Step::Step3, || {
        let row_idx_w = split_mut_by_offsets(&mut c_row_idx, &c_offsets);
        let col_idx_w = split_mut_by_offsets(&mut c_col_idx, &c_offsets);
        let vals_w = split_mut_by_offsets(&mut c_vals, &c_offsets);
        row_idx_w
            .into_par_iter()
            .zip(col_idx_w)
            .zip(vals_w)
            .enumerate()
            .for_each_init(
                || arena.checkout(),
                |s, (t, ((row_idx_w, col_idx_w), vals_w))| {
                    let s = &mut **s;
                    let masks = &c_masks[t * TILE_DIM..(t + 1) * TILE_DIM];
                    let row_ptr = &c_row_ptr[t * TILE_DIM..(t + 1) * TILE_DIM];
                    let filled = simd::fill_indices_fast(masks, row_idx_w, col_idx_w, simd_level);
                    debug_assert_eq!(filled, vals_w.len());
                    // Like the paper's kernels, step 3 repeats the step-2
                    // intersection of A's tile row with B's tile column.
                    matched_pairs_with(
                        a,
                        &b_cols,
                        c_rowidx[t] as usize,
                        c_pattern.idx[t] as usize,
                        bitmaps_ref,
                        &mut s.pos_pairs,
                        &mut s.id_pairs,
                    );
                    simd::run_numeric(
                        kernel_for(t, vals_w.len()),
                        simd_level,
                        a,
                        b,
                        &s.id_pairs,
                        masks,
                        row_ptr,
                        vals_w,
                    );
                },
            );
    });
    recorder.span_exit(span);

    // Step-3 counters: the kernel pick per tile re-derives the exact branch
    // step 3 took (same inputs, same pure selector), and step 3 repeats the
    // step-2 intersections, so the probe count is charged again. `sparse +
    // dense` sums to the visited tiles; the `simd_*` counters are the
    // subsets that ran a vector kernel.
    if enabled {
        recorder.add(Counter::IntersectionProbes, probes);
        let (mut sparse, mut dense) = (0u64, 0u64);
        let (mut simd_sparse, mut simd_dense) = (0u64, 0u64);
        for t in 0..num_tiles {
            match kernel_for(t, c_offsets[t + 1] - c_offsets[t]) {
                Kernel::SparseScalar => sparse += 1,
                Kernel::DenseScalar => dense += 1,
                Kernel::SparseSimd => {
                    sparse += 1;
                    simd_sparse += 1;
                }
                Kernel::DenseSimd => {
                    dense += 1;
                    simd_dense += 1;
                }
            }
        }
        recorder.add(Counter::SparseAccPicks, sparse);
        recorder.add(Counter::DenseAccPicks, dense);
        recorder.add(Counter::SimdSparsePicks, simd_sparse);
        recorder.add(Counter::SimdDensePicks, simd_dense);
    }

    // Assemble the output structure.
    let c = TileMatrix {
        nrows: a.nrows,
        ncols: b.ncols,
        tile_m: c_pattern.rows,
        tile_n: c_pattern.cols,
        tile_ptr: c_pattern.ptr,
        tile_colidx: c_pattern.idx,
        tile_nnz: c_offsets,
        row_ptr: c_row_ptr,
        row_idx: c_row_idx,
        col_idx: c_col_idx,
        vals: c_vals,
        masks: c_masks,
    };

    let peak_bytes = tracker.peak_bytes().max(peak_start);
    // Everything this product allocated is released: inputs, step-2
    // temporaries, the arena reservation, and the output arrays (handed
    // back to the host). The tracker's current-bytes count
    // returns to its pre-call level — DESIGN.md §5's balanced alloc/free
    // rule. The arenas themselves stay warm in the pool for the next
    // multiply; only the tracker charge is released.
    tracker.on_free(input_bytes + step2_temp_bytes + output_bytes + arena_charged);
    recorder.span_exit(root);

    Ok(Output {
        c,
        breakdown,
        peak_bytes,
        conversion: None,
    })
}

/// Multiplies CSR operands by converting to tiled form, returning the same
/// [`Output`] as [`multiply`] with [`Output::conversion`] filled in.
/// Conversion time stays outside the breakdown, matching the paper's timing
/// protocol (which assumes tiled inputs); use [`Output::to_csr`] to recover
/// a CSR product.
///
/// Kept as a thin wrapper over [`multiply_csr_with`] with recording
/// disabled; prefer [`crate::SpGemm::multiply_csr`] in new code.
pub fn multiply_csr<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    config: &Config,
    tracker: &MemTracker,
) -> Result<Output<T>, SpGemmError> {
    multiply_csr_with(a, b, config, tracker, &NullRecorder, 0)
}

/// [`multiply_csr`] with an explicit recorder and job id. The conversions
/// record under a `"convert"` span of the job, preceding the `"job"` span
/// [`multiply_with`] opens.
pub fn multiply_csr_with<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    config: &Config,
    tracker: &MemTracker,
    recorder: &dyn Recorder,
    job: u64,
) -> Result<Output<T>, SpGemmError> {
    let span = recorder.span_enter(job, "convert");
    let (ta, conv_a) = timed_csr_to_tile(a);
    let (tb, conv_b) = timed_csr_to_tile(b);
    recorder.span_exit(span);
    let mut out = multiply_with(&ta, &tb, config, tracker, recorder, job)?;
    out.conversion = Some(ConversionTiming {
        conversion: conv_a.conversion + conv_b.conversion,
        tiles: conv_a.tiles + conv_b.tiles,
        nnz: conv_a.nnz + conv_b.nnz,
    });
    Ok(out)
}

/// Total bytes of a tile matrix, as tracked on the simulated device.
pub fn tile_matrix_bytes<T: Scalar>(m: &TileMatrix<T>) -> usize {
    use tsg_matrix::Footprint;
    m.bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_matrix::{Coo, Dense};

    fn random_csr(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
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
                coo.push(
                    r,
                    (next() % n as u64) as u32,
                    ((next() % 9) + 1) as f64 * 0.5,
                );
            }
        }
        coo.to_csr()
    }

    #[test]
    fn multiply_matches_dense_oracle() {
        for (n, per_row, seed) in [(16usize, 3usize, 1u64), (50, 4, 2), (130, 6, 3)] {
            let a = random_csr(n, per_row, seed);
            let b = random_csr(n, per_row, seed + 100);
            let c = multiply_csr(&a, &b, &Config::default(), &MemTracker::new())
                .unwrap()
                .to_csr();
            let expect = Dense::from_csr(&a).matmul(&Dense::from_csr(&b)).to_csr();
            assert!(
                c.approx_eq_ignoring_zeros(&expect, 1e-10),
                "mismatch for n={n}"
            );
        }
    }

    #[test]
    fn output_tile_structure_validates() {
        let a = random_csr(100, 5, 7);
        let ta = TileMatrix::from_csr(&a);
        let out = multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
        out.c.validate().unwrap();
        assert!(out.breakdown.total().as_nanos() > 0);
        assert!(out.peak_bytes > 0);
    }

    #[test]
    fn all_config_variants_agree() {
        let a = random_csr(80, 5, 11);
        let reference = multiply_csr(&a, &a, &Config::default(), &MemTracker::new())
            .unwrap()
            .to_csr();
        for intersection in [IntersectionKind::BinarySearch, IntersectionKind::Bitmap] {
            for tnnz_threshold in [0, 64, 192, 256] {
                let cfg = Config::builder()
                    .tnnz_threshold(tnnz_threshold)
                    .intersection(intersection)
                    .build();
                let c = multiply_csr(&a, &a, &cfg, &MemTracker::new())
                    .unwrap()
                    .to_csr();
                assert!(
                    c.approx_eq_ignoring_zeros(&reference, 1e-10),
                    "variant {cfg:?} disagrees"
                );
            }
        }
    }

    #[test]
    fn scheduling_variants_agree_bitwise() {
        use tsg_gen::suite::GenSpec;
        // Skewed R-MAT inputs (a Graph500-parameter one and a webbase-like
        // one) on top of the uniform random matrix: however many workers
        // drain the per-tile queue, the output must be the same bits on
        // every input family.
        let inputs: Vec<(&str, Csr<f64>)> = vec![
            ("uniform-random", random_csr(150, 6, 21)),
            (
                "rmat-skewed",
                GenSpec::Rmat {
                    scale: 11,
                    edges: 18_000,
                    mild: false,
                    seed: 7,
                }
                .build(),
            ),
            (
                "webbase-like",
                GenSpec::Rmat {
                    scale: 12,
                    edges: 30_000,
                    mild: false,
                    seed: 112,
                }
                .build(),
            ),
        ];
        for (name, a) in &inputs {
            let ta = TileMatrix::from_csr(a);
            let reference = multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let out = pool
                    .install(|| multiply(&ta, &ta, &Config::default(), &MemTracker::new()))
                    .unwrap();
                assert_eq!(
                    reference.c, out.c,
                    "{name}: {threads} workers must agree bitwise"
                );
            }
        }
    }

    #[test]
    fn tracker_returns_to_zero_after_multiply() {
        let a = random_csr(120, 5, 33);
        let ta = TileMatrix::from_csr(&a);
        let tracker = MemTracker::new();
        let out = multiply(&ta, &ta, &Config::default(), &tracker).unwrap();
        assert!(out.peak_bytes > 0);
        assert_eq!(tracker.current_bytes(), 0, "unbalanced alloc/free");
    }

    #[test]
    fn intersection_kinds_agree_bitwise_on_skewed_input() {
        use tsg_gen::suite::GenSpec;
        // Both kernels must produce bit-identical tile matrices: each emits
        // pairs in ascending A-position order, so even float accumulation
        // order is the same.
        let a: Csr<f64> = GenSpec::Rmat {
            scale: 11,
            edges: 20_000,
            mild: false,
            seed: 41,
        }
        .build();
        let ta = TileMatrix::from_csr(&a);
        let reference = multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
        for intersection in [IntersectionKind::BinarySearch, IntersectionKind::Bitmap] {
            let cfg = Config {
                intersection,
                ..Config::default()
            };
            let out = multiply(&ta, &ta, &cfg, &MemTracker::new()).unwrap();
            assert_eq!(reference.c, out.c, "{intersection:?} must agree bitwise");
        }
    }

    #[test]
    fn sidecars_over_the_cap_fall_back_to_binary_search() {
        use tsg_runtime::CollectingRecorder;
        // identity(262_144) has 16_384 tile rows and tile columns over a
        // 16_384-id universe: each sidecar would take 16_384 · 256 words ·
        // 12 bytes ≈ 50 MB, far over the cap.
        let n = 262_144;
        let ta = TileMatrix::from_csr(&Csr::<f64>::identity(n));
        assert!(
            ListBitmaps::bytes_for(ta.tile_m, ta.tile_n) * 2 > TILE_BITMAP_MAX_BYTES,
            "the input must exceed the sidecar cap"
        );
        let recorder = CollectingRecorder::new();
        let out = multiply_with(
            &ta,
            &ta,
            &Config::default(),
            &MemTracker::new(),
            &recorder,
            1,
        )
        .unwrap();
        let snap = recorder.snapshot();
        let visited = snap.get(Counter::TilesVisited);
        assert_eq!(visited, ta.tile_m as u64);
        assert_eq!(snap.get(Counter::IsectBitmapPicks), 0);
        assert_eq!(snap.get(Counter::IsectBinaryPicks), visited);
        let bsearch = Config::builder()
            .intersection(IntersectionKind::BinarySearch)
            .build();
        let want = multiply(&ta, &ta, &bsearch, &MemTracker::new()).unwrap();
        assert_eq!(out.c, want.c);
        assert_eq!(out.c.nnz(), n);
    }

    #[test]
    fn shared_arena_pool_is_reused_and_invisible_in_output() {
        let a = random_csr(100, 5, 57);
        let ta = TileMatrix::from_csr(&a);
        let reference = multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
        let pool = tsg_runtime::ScratchPool::new();
        let tracker = MemTracker::new();
        let first = multiply_with_pool(
            &ta,
            &ta,
            None,
            &Config::default(),
            &tracker,
            &NullRecorder,
            0,
            &pool,
        )
        .unwrap();
        assert_eq!(reference.c, first.c);
        assert_eq!(tracker.current_bytes(), 0, "arena charge must balance");
        let created_after_first = pool.created();
        assert!(created_after_first > 0, "the multiply warmed the pool");
        let warmed_bytes = pool.bytes();
        assert!(warmed_bytes >= created_after_first * tsg_runtime::Scratch::BASE_BYTES);
        // Steady state: a second multiply reuses the warmed arenas and
        // produces the identical result.
        let second = multiply_with_pool(
            &ta,
            &ta,
            None,
            &Config::default(),
            &tracker,
            &NullRecorder,
            1,
            &pool,
        )
        .unwrap();
        assert_eq!(reference.c, second.c);
        assert_eq!(pool.created(), created_after_first, "no new arenas");
        assert_eq!(pool.bytes(), warmed_bytes, "no scratch growth in reuse");
        assert_eq!(tracker.current_bytes(), 0);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = TileMatrix::from_csr(&Csr::<f64>::identity(32));
        let b = TileMatrix::from_csr(&Csr::<f64>::zero(48, 48));
        let err = multiply(&a, &b, &Config::default(), &MemTracker::new()).unwrap_err();
        assert!(matches!(err, SpGemmError::ShapeMismatch { .. }));
    }

    #[test]
    fn memory_budget_failure_surfaces_as_oom() {
        let a = random_csr(200, 8, 13);
        let ta = TileMatrix::from_csr(&a);
        let tracker = MemTracker::with_budget(1024); // absurdly small
        let err = multiply(&ta, &ta, &Config::default(), &tracker).unwrap_err();
        assert!(matches!(err, SpGemmError::OutOfMemory(_)));
    }

    #[test]
    fn identity_times_matrix_is_identity_map() {
        let a = random_csr(64, 4, 17);
        let i = Csr::<f64>::identity(64);
        let out = multiply_csr(&i, &a, &Config::default(), &MemTracker::new()).unwrap();
        assert!(out.to_csr().approx_eq_ignoring_zeros(&a, 1e-12));
        assert!(out.conversion.is_some(), "CSR entry point times conversion");
        let c2 = multiply_csr(&a, &i, &Config::default(), &MemTracker::new())
            .unwrap()
            .to_csr();
        assert!(c2.approx_eq_ignoring_zeros(&a, 1e-12));
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let z = TileMatrix::from_csr(&Csr::<f64>::zero(32, 32));
        let out = multiply(&z, &z, &Config::default(), &MemTracker::new()).unwrap();
        assert_eq!(out.c.nnz(), 0);
        assert_eq!(out.c.tile_count(), 0);
    }

    #[test]
    fn step1_overestimate_retains_empty_tiles() {
        // A(0, 16) * B(16, 0): step 1 pairs tile (0,1) of A with tile (1,0)
        // of B, predicting C tile (0,0). The product is 1*1 at (0,0) —
        // nonzero. Now use values that cancel: A has two entries whose
        // products into the same C position cancel exactly.
        let mut coo_a = Coo::new(32, 32);
        coo_a.push(0, 16, 1.0);
        coo_a.push(0, 17, 1.0);
        let mut coo_b = Coo::new(32, 32);
        coo_b.push(16, 0, 1.0);
        coo_b.push(17, 0, -1.0);
        let ta = TileMatrix::from_csr(&coo_a.to_csr());
        let tb = TileMatrix::from_csr(&coo_b.to_csr());
        let out = multiply(&ta, &tb, &Config::default(), &MemTracker::new()).unwrap();
        // The tile exists structurally (mask bit set), with a stored value
        // of exactly zero — numeric cancellation is not removed, matching
        // the paper's "no tile-wise cancellation" rule at the numeric level.
        assert_eq!(out.c.tile_count(), 1);
        assert_eq!(out.c.nnz(), 1);
        assert_eq!(out.c.vals[0], 0.0);
        let csr = out.c.to_csr().drop_numeric_zeros();
        assert_eq!(csr.nnz(), 0);
    }
}
