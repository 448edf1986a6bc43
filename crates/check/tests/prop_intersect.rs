//! Property test pinning the bitmap intersection kernel to binary search.
//!
//! The bitmap kernel recovers `(pos_a, pos_b)` list positions by
//! rank-over-popcount instead of walking the sorted lists, so it is the one
//! intersection variant whose output order is not obviously the same as the
//! reference kernel. This test drives it — through the clipped word range
//! the pipeline scans — across the adversarial corpus (randomized seeds) and
//! asserts the *pair lists themselves* — not just the final product — are
//! identical to binary search, tile by tile.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tilespgemm_core::step2::matched_pairs_with;
use tsg_check::corpus;
use tsg_matrix::{Csr, ListBitmaps, TileMatrix};

/// Pins bitmap pair lists to binary search for every step-1-predicted tile
/// of one operand pair.
fn pin_pair_lists(a: &Csr<f64>, b: &Csr<f64>, label: &str) -> Result<(), TestCaseError> {
    let ta = TileMatrix::from_csr(a);
    let tb = TileMatrix::from_csr(b);
    let b_cols = tb.col_index();
    let a_maps = ListBitmaps::from_csr(&ta.tile_ptr, &ta.tile_colidx, ta.tile_n);
    let b_maps = ListBitmaps::from_csr(&b_cols.colptr, &b_cols.rowidx, tb.tile_m);
    let (mut scratch, mut pairs) = (Vec::new(), Vec::new());
    let (mut scratch_ref, mut pairs_ref) = (Vec::new(), Vec::new());
    for ti in 0..ta.tile_m {
        for tj in 0..tb.tile_n {
            matched_pairs_with(
                &ta,
                &b_cols,
                ti,
                tj,
                Some((&a_maps, &b_maps)),
                &mut scratch,
                &mut pairs,
            );
            matched_pairs_with(&ta, &b_cols, ti, tj, None, &mut scratch_ref, &mut pairs_ref);
            prop_assert_eq!(
                &scratch,
                &scratch_ref,
                "{}: tile ({ti},{tj}) position pairs diverge",
                label
            );
            prop_assert_eq!(
                &pairs,
                &pairs_ref,
                "{}: tile ({ti},{tj}) flat id pairs diverge",
                label
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bitmap_pair_lists_match_binary_search_on_the_corpus(seed in 0u64..10_000) {
        for name in corpus::names() {
            let (a, b) = corpus::build(name, seed).expect("known corpus case");
            pin_pair_lists(&a, &b, name)?;
        }
    }
}
