//! Step 2: per-tile symbolic phase (§3.3, Algorithm 2, Figures 4–5).
//!
//! For every tile `C_ij` found by step 1, one task (the paper's warp):
//!
//! 1. intersects `A`'s tile row `i` with `B`'s tile column `j`
//!    ([`crate::intersect`]) to find the matched pairs `(A_ik, B_kj)`;
//! 2. for each pair, walks `A_ik`'s nonzeros; a nonzero at local `(r, c)`
//!    pulls `B_kj`'s row mask `c` and ORs it into `C_ij`'s row mask `r`
//!    (the paper's `AtomicOr` — plain OR here because one task owns the
//!    tile);
//! 3. popcounts the 16 row masks into the tile's local row pointers and its
//!    nonzero count.
//!
//! All state is a few `u16`s on the stack, honouring the paper's bound that
//! step 2 never allocates global intermediate memory.

use crate::intersect::{bitmap_word_range, intersect_binary_search, intersect_bitmap, MatchedPair};
use tsg_matrix::{ListBitmaps, Scalar, TileColIndex, TileMatrix, TILE_DIM};

/// The per-tile symbolic result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSymbolic {
    /// Row bitmasks of the output tile.
    pub masks: [u16; TILE_DIM],
    /// Local row pointers (16 entries, derived 17th == `nnz`).
    pub row_ptr: [u8; TILE_DIM],
    /// Stored nonzeros of the tile.
    pub nnz: usize,
}

/// Finds the matched `(a_tile_id, b_tile_id)` pairs for output tile
/// `(ti, tj)`: `a` contributes its tile row `ti`, `b_cols` (the column
/// index of `B`) its tile column `tj`.
///
/// `bitmaps` are the [`ListBitmaps`] sidecars of `A`'s tile rows and `B`'s
/// tile columns. When present the bitmap kernel runs over the words
/// [`bitmap_word_range`] clips the two lists to; when absent, binary search
/// runs. Both yield the same pairs in the same order. `scratch` is left
/// holding the list-position pairs; `pairs` gets them translated to flat
/// tile ids.
pub fn matched_pairs_with<T: Scalar>(
    a: &TileMatrix<T>,
    b_cols: &TileColIndex,
    ti: usize,
    tj: usize,
    bitmaps: Option<(&ListBitmaps, &ListBitmaps)>,
    scratch: &mut Vec<MatchedPair>,
    pairs: &mut Vec<(u32, u32)>,
) {
    let a_base = a.tile_ptr[ti];
    let a_cols = a.tile_row_cols(ti);
    let (b_rows, b_ids) = b_cols.col(tj);
    match bitmaps {
        Some((am, bm)) => {
            let w = bitmap_word_range(a_cols, b_rows);
            let (aw, ar) = am.list(ti);
            let (bw, br) = bm.list(tj);
            intersect_bitmap(
                &aw[w.clone()],
                &ar[w.clone()],
                &bw[w.clone()],
                &br[w],
                scratch,
            );
        }
        None => intersect_binary_search(a_cols, b_rows, scratch),
    }
    pairs.clear();
    pairs.extend(
        scratch
            .iter()
            .map(|&(pa, pb)| ((a_base + pa as usize) as u32, b_ids[pb as usize])),
    );
}

/// Computes the symbolic tile `C_ij` from its matched pairs (Figure 5).
pub fn symbolic_tile<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
) -> TileSymbolic {
    let mut masks = [0u16; TILE_DIM];
    for &(a_id, b_id) in pairs {
        let a_tile = a.tile(a_id as usize);
        let b_masks = b.tile(b_id as usize).masks;
        // Every nonzero (r, c) of A_ik routes B_kj's row mask c into C row r.
        for (&r, &c) in a_tile.row_idx.iter().zip(a_tile.col_idx.iter()) {
            masks[r as usize] |= b_masks[c as usize];
        }
    }
    let (row_ptr, nnz) = crate::maskops::row_ptr_from_masks(&masks);
    TileSymbolic {
        masks,
        row_ptr,
        nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_matrix::{Coo, Csr};

    /// Builds a tiled matrix from triplets on a 32x32 grid (2x2 tiles).
    fn tiled(entries: &[(u32, u32)]) -> TileMatrix<f64> {
        let mut coo = Coo::new(32, 32);
        for &(r, c) in entries {
            coo.push(r, c, 1.0);
        }
        TileMatrix::from_csr(&coo.to_csr())
    }

    #[test]
    fn figure5_style_mask_or() {
        // A has one tile (0,0) with nonzeros at rows 0: cols {0, 2}.
        // B has one tile (0,0) with row masks: row0 = {0,1}, row2 = {1,3}.
        // C tile (0,0) row 0 must get mask {0,1} | {1,3} = {0,1,3}.
        let a = tiled(&[(0, 0), (0, 2)]);
        let b = tiled(&[(0, 0), (0, 1), (2, 1), (2, 3)]);
        let sym = symbolic_tile(&a, &b, &[(0, 0)]);
        assert_eq!(sym.masks[0], 0b1011);
        assert_eq!(sym.nnz, 3);
        assert_eq!(sym.row_ptr[0], 0);
        assert_eq!(sym.row_ptr[1], 3);
        assert_eq!(sym.row_ptr[15], 3);
    }

    #[test]
    fn symbolic_counts_match_exact_product_pattern() {
        // Random 32x32: symbolic nnz per tile must equal the true tile nnz
        // of the CSR product computed densely.
        let mut state = 31u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ea: Vec<(u32, u32)> = (0..150)
            .map(|_| ((next() % 32) as u32, (next() % 32) as u32))
            .collect();
        let eb: Vec<(u32, u32)> = (0..150)
            .map(|_| ((next() % 32) as u32, (next() % 32) as u32))
            .collect();
        let a = tiled(&ea);
        let b = tiled(&eb);
        // Dense positive-values oracle (no numeric cancellation possible).
        let ac: Csr<f64> = a.to_csr();
        let bc: Csr<f64> = b.to_csr();
        let dense = tsg_matrix::Dense::from_csr(&ac).matmul(&tsg_matrix::Dense::from_csr(&bc));
        let c_exact = TileMatrix::from_csr(&dense.to_csr());

        let b_cols = b.col_index();
        let mut scratch = Vec::new();
        let mut pairs = Vec::new();
        for ti in 0..2usize {
            for tj in 0..2usize {
                matched_pairs_with(&a, &b_cols, ti, tj, None, &mut scratch, &mut pairs);
                let sym = symbolic_tile(&a, &b, &pairs);
                // Find the exact tile, if present.
                let exact_nnz = c_exact
                    .tile_row_cols(ti)
                    .iter()
                    .position(|&tc| tc == tj as u32)
                    .map(|off| c_exact.tile_nnz_of(c_exact.tile_ptr[ti] + off))
                    .unwrap_or(0);
                assert_eq!(sym.nnz, exact_nnz, "tile ({ti},{tj})");
            }
        }
    }

    #[test]
    fn no_pairs_gives_empty_tile() {
        let a = tiled(&[(0, 0)]);
        let b = tiled(&[(0, 0)]);
        let sym = symbolic_tile(&a, &b, &[]);
        assert_eq!(sym.nnz, 0);
        assert_eq!(sym.masks, [0u16; 16]);
        assert_eq!(sym.row_ptr, [0u8; 16]);
    }

    #[test]
    fn full_tile_symbolic_reaches_256() {
        // Dense A tile times dense B tile -> full mask.
        let all: Vec<(u32, u32)> = (0..16u32)
            .flat_map(|r| (0..16u32).map(move |c| (r, c)))
            .collect();
        let a = tiled(&all);
        let b = tiled(&all);
        let sym = symbolic_tile(&a, &b, &[(0, 0)]);
        assert_eq!(sym.nnz, 256);
        assert_eq!(sym.masks, [0xFFFF; 16]);
        assert_eq!(sym.row_ptr[15], 240);
    }

    #[test]
    fn matched_pairs_translates_to_flat_ids() {
        // A row 0 has tiles at tile-cols {0, 1}; B col 1 has tiles at
        // tile-rows {0, 1}. Intersection of {0,1} (A's cols) with {0,1}
        // (B's rows) = both.
        let a = tiled(&[(0, 0), (0, 16), (16, 16)]);
        let b = tiled(&[(0, 16), (16, 16)]);
        let b_cols = b.col_index();
        let mut scratch = Vec::new();
        let mut pairs = Vec::new();
        matched_pairs_with(&a, &b_cols, 0, 1, None, &mut scratch, &mut pairs);
        assert_eq!(pairs.len(), 2);
        // First pair: A tile (0,0) id 0 with B tile (0,1) id 0.
        // Second: A tile (0,1) id 1 with B tile (1,1) id 1.
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn bitmap_sidecars_yield_the_binary_search_pairs() {
        let a = tiled(&[(0, 0), (0, 16), (16, 16)]);
        let b = tiled(&[(0, 16), (16, 16)]);
        let b_cols = b.col_index();
        // Sidecars over the shared universe K = a.tile_n = b.tile_m = 2.
        let am = ListBitmaps::from_csr(&a.tile_ptr, &a.tile_colidx, a.tile_n);
        let bm = ListBitmaps::from_csr(&b_cols.colptr, &b_cols.rowidx, b.tile_m);
        let (mut scratch, mut pairs) = (Vec::new(), Vec::new());
        for ti in 0..2usize {
            for tj in 0..2usize {
                matched_pairs_with(&a, &b_cols, ti, tj, None, &mut scratch, &mut pairs);
                let want = pairs.clone();
                matched_pairs_with(
                    &a,
                    &b_cols,
                    ti,
                    tj,
                    Some((&am, &bm)),
                    &mut scratch,
                    &mut pairs,
                );
                assert_eq!(pairs, want, "tile ({ti},{tj})");
            }
        }
    }

    #[test]
    fn disjoint_id_ranges_scan_no_words_and_yield_no_pairs() {
        // A's tile row 0 holds tile columns {0, 1}; B's tile column 0 holds
        // tile rows {130, 199}. The universe K = 200 tile ids spans 4 words,
        // but the id ranges do not overlap, so the clipped scan is empty.
        let k = 200 * TILE_DIM;
        let mut coo = Coo::new(32, k);
        coo.push(0, 0, 1.0);
        coo.push(0, 16, 1.0);
        let a = TileMatrix::from_csr(&coo.to_csr());
        let mut coo = Coo::new(k, 32);
        coo.push(130 * TILE_DIM as u32, 0, 1.0);
        coo.push(k as u32 - 1, 0, 1.0);
        let b = TileMatrix::<f64>::from_csr(&coo.to_csr());
        let b_cols = b.col_index();
        let (a_cols, b_rows) = (a.tile_row_cols(0), b_cols.col(0).0);
        assert_eq!((a_cols, b_rows), (&[0, 1][..], &[130, 199][..]));
        let words = crate::intersect::bitmap_word_range(a_cols, b_rows);
        assert_eq!(words.len(), 0, "no word is scanned");

        let am = ListBitmaps::from_csr(&a.tile_ptr, &a.tile_colidx, a.tile_n);
        let bm = ListBitmaps::from_csr(&b_cols.colptr, &b_cols.rowidx, b.tile_m);
        let mut scratch = vec![(7u32, 7u32)];
        let mut pairs = vec![(7u32, 7u32)];
        matched_pairs_with(
            &a,
            &b_cols,
            0,
            0,
            Some((&am, &bm)),
            &mut scratch,
            &mut pairs,
        );
        assert!(scratch.is_empty() && pairs.is_empty());
    }
}
