//! Set intersection of tile index lists (step 2, Algorithm 2 lines 6–18).
//!
//! For a tile `C_ij`, the tiles of `A`'s tile row `i` and `B`'s tile column
//! `j` must be matched by index: `A_ik` pairs with `B_kj`. Both index lists
//! are sorted, so this is sorted-set intersection. Two kernels (DESIGN.md
//! §11):
//!
//! * [`intersect_bitmap`] — the default: word-wise AND over the
//!   [`tsg_matrix::ListBitmaps`] sidecars with `trailing_zeros` iteration;
//!   list positions are recovered by rank-by-popcount. Only the words both
//!   lists can share are scanned ([`bitmap_word_range`]).
//! * [`intersect_binary_search`] — the paper's kernel: each element of the
//!   *shorter* list is binary-searched in the longer one; after a hit, the
//!   next search's left bound starts just past the hit (the "narrowing" the
//!   paper describes with its `tilecolidx_A` example). It also runs whenever
//!   the pipeline did not build the sidecars.
//!
//! Both kernels emit the same pair list in the same (ascending-value)
//! order, so the choice is bitwise-invisible in the product — the
//! `tsg-check` oracle pins this across its whole corpus.

use std::ops::Range;

/// Which intersection kernel step 2 and step 3 use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectionKind {
    /// Word-wise AND over per-list bitmaps with rank-by-popcount position
    /// recovery (default). Runs as [`Self::BinarySearch`] when the pipeline
    /// skips the sidecars because they would exceed its footprint cap.
    Bitmap,
    /// Binary-search the shorter list into the longer one (the paper's
    /// kernel).
    BinarySearch,
}

/// A matched tile pair: positions into the two index lists.
pub type MatchedPair = (u32, u32);

/// The sidecar words the bitmap kernel scans for ascending lists `a` and
/// `b`: from the word holding `max(a_first, b_first)` through the word
/// holding `min(a_last, b_last)`. No common value lies outside that span,
/// and the range is empty when either list is empty or the value ranges do
/// not overlap.
pub fn bitmap_word_range(a: &[u32], b: &[u32]) -> Range<usize> {
    match (a.first(), a.last(), b.first(), b.last()) {
        (Some(&a_first), Some(&a_last), Some(&b_first), Some(&b_last)) => {
            let (lo, hi) = (a_first.max(b_first), a_last.min(b_last));
            if lo > hi {
                0..0
            } else {
                lo as usize / 64..hi as usize / 64 + 1
            }
        }
        _ => 0..0,
    }
}

/// Binary-search intersection with left-bound narrowing: replaces `out`
/// with the `(pos_a, pos_b)` pairs of every value common to the strictly
/// ascending `a` and `b`.
pub fn intersect_binary_search(a: &[u32], b: &[u32], out: &mut Vec<MatchedPair>) {
    out.clear();
    // Search each element of the shorter array within the longer one, as the
    // paper's Algorithm 2 does (lines 6 and 16–17 swap the roles).
    if a.len() <= b.len() {
        search_short_in_long(a, b, out, false);
    } else {
        search_short_in_long(b, a, out, true);
    }
}

fn search_short_in_long(short: &[u32], long: &[u32], out: &mut Vec<MatchedPair>, swapped: bool) {
    let mut lo = 0usize;
    for (ps, &value) in short.iter().enumerate() {
        if lo >= long.len() {
            break;
        }
        match long[lo..].binary_search(&value) {
            Ok(rel) => {
                let pl = lo + rel;
                if swapped {
                    out.push((pl as u32, ps as u32));
                } else {
                    out.push((ps as u32, pl as u32));
                }
                // Narrow: both lists ascend, so later values of the short
                // list can only match past this position.
                lo = pl + 1;
            }
            Err(rel) => {
                // Even a miss tells us where the next search may start.
                lo += rel;
            }
        }
    }
}

/// Bitmap intersection over two lists' [`tsg_matrix::ListBitmaps`] rows:
/// `(a_words, a_rank)` and `(b_words, b_rank)` are the membership words and
/// exclusive prefix popcounts of the two lists (equal length), or the same
/// word sub-range of both (the ranks are absolute list positions, so a
/// [`bitmap_word_range`] slice recovers the same pairs). Common values
/// survive the word-wise AND; each survivor's positions in the *lists* are
/// recovered as `rank[word] + popcount(word_bits_below_it)`. Output order is
/// ascending by value — identical to binary search's.
pub fn intersect_bitmap(
    a_words: &[u64],
    a_rank: &[u32],
    b_words: &[u64],
    b_rank: &[u32],
    out: &mut Vec<MatchedPair>,
) {
    out.clear();
    debug_assert_eq!(a_words.len(), b_words.len());
    for (w, (&aw, &bw)) in a_words.iter().zip(b_words.iter()).enumerate() {
        let mut common = aw & bw;
        if common == 0 {
            continue;
        }
        let (ra, rb) = (a_rank[w], b_rank[w]);
        while common != 0 {
            let bit = common.trailing_zeros();
            out.push((
                ra + crate::maskops::rank64(aw, bit) as u32,
                rb + crate::maskops::rank64(bw, bit) as u32,
            ));
            common &= common - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_matrix::ListBitmaps;

    fn run_bsearch(a: &[u32], b: &[u32]) -> Vec<MatchedPair> {
        let mut out = vec![(9u32, 9u32)]; // must be cleared
        intersect_binary_search(a, b, &mut out);
        out
    }

    /// Bitmap intersection of two plain lists via a throwaway sidecar,
    /// scanning only the clipped word range.
    fn run_bitmap(a: &[u32], b: &[u32]) -> Vec<MatchedPair> {
        let universe = a.iter().chain(b).max().map_or(1, |&m| m as usize + 1);
        let mut idx = a.to_vec();
        idx.extend_from_slice(b);
        let bm = ListBitmaps::from_csr(&[0, a.len(), a.len() + b.len()], &idx, universe);
        let (aw, ar) = bm.list(0);
        let (bw, br) = bm.list(1);
        let w = bitmap_word_range(a, b);
        let mut out = vec![(9u32, 9u32)]; // must be cleared
        intersect_bitmap(
            &aw[w.clone()],
            &ar[w.clone()],
            &bw[w.clone()],
            &br[w],
            &mut out,
        );
        out
    }

    #[test]
    fn paper_example_c12() {
        // Figure 4: tile row A1* has columns {0, 1, 3}, tile column B*2 has
        // rows {1, 3}; the intersection is {1, 3} — pairs A11·B12 and
        // A13·B32.
        let a = [0u32, 1, 3];
        let b = [1u32, 3];
        let pairs = run_bsearch(&a, &b);
        // Positions: value 1 sits at a[1]/b[0], value 3 at a[2]/b[1].
        assert_eq!(pairs, vec![(1, 0), (2, 1)]);
        assert_eq!(run_bitmap(&a, &b), pairs);
    }

    #[test]
    fn both_kernels_agree_on_many_inputs() {
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            // Mix small universes (dense lists, multi-hit words) with wide
            // ones (sparse bitmaps spanning several words).
            let bound = [40u64, 70, 500][round % 3];
            let la = (next() % 20) as usize;
            let lb = (next() % 20) as usize;
            let mut a: Vec<u32> = (0..la).map(|_| (next() % bound) as u32).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| (next() % bound) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let bs = run_bsearch(&a, &b);
            assert_eq!(bs, run_bitmap(&a, &b), "a={a:?} b={b:?}");
            // And every reported pair is a real match.
            for (pa, pb) in bs {
                assert_eq!(a[pa as usize], b[pb as usize]);
            }
        }
    }

    #[test]
    fn empty_and_disjoint_inputs() {
        assert!(run_bsearch(&[], &[1, 2]).is_empty());
        assert!(run_bsearch(&[3], &[]).is_empty());
        assert!(run_bsearch(&[1, 3, 5], &[0, 2, 4]).is_empty());
        assert!(run_bitmap(&[1, 3, 5], &[0, 2, 4]).is_empty());
        assert!(run_bitmap(&[], &[1, 2]).is_empty());
    }

    #[test]
    fn word_range_clips_to_the_shared_span() {
        // Either list empty, or value ranges that do not overlap: no words.
        assert_eq!(bitmap_word_range(&[], &[1, 2]), 0..0);
        assert_eq!(bitmap_word_range(&[5], &[]), 0..0);
        assert_eq!(bitmap_word_range(&[0, 10, 63], &[64, 200]), 0..0);
        assert_eq!(bitmap_word_range(&[300, 400], &[1, 2, 299]), 0..0);
        // Overlap inside one word scans just that word, wherever it sits.
        assert_eq!(bitmap_word_range(&[1, 63], &[0, 70]), 0..1);
        assert_eq!(bitmap_word_range(&[130, 140], &[0, 135, 900]), 2..3);
        // A span crossing words covers both ends inclusively.
        assert_eq!(bitmap_word_range(&[0, 200], &[60, 130, 500]), 0..4);
    }

    #[test]
    fn identical_lists_match_elementwise() {
        let v: Vec<u32> = (0..50).map(|i| i * 3).collect();
        let pairs = run_bsearch(&v, &v);
        assert_eq!(pairs.len(), 50);
        assert!(pairs
            .iter()
            .enumerate()
            .all(|(i, &(a, b))| a as usize == i && b as usize == i));
        assert_eq!(run_bitmap(&v, &v), pairs);
    }

    #[test]
    fn swapped_roles_report_positions_in_original_order() {
        // a longer than b: the kernel searches b in a but must still report
        // (pos_in_a, pos_in_b).
        let a = [1u32, 4, 6, 9, 12, 15];
        let b = [6u32, 15];
        let pairs = run_bsearch(&a, &b);
        assert_eq!(pairs, vec![(2, 0), (5, 1)]);
        assert_eq!(run_bitmap(&a, &b), pairs);
    }
}
