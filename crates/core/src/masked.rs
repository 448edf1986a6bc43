//! Masked SpGEMM: `C⟨M⟩ = A·B`, computing only the entries of the product
//! that fall inside a mask pattern `M`.
//!
//! The paper situates SpGEMM inside GraphBLAS (§1), whose signature
//! operation is the masked product — e.g. linear-algebra triangle counting
//! is `C⟨A⟩ = A·A` followed by a reduction, never materialising the full
//! square. The tiled format makes masking unusually cheap: `M`'s tile
//! layout replaces step 1's output pattern, and `M`'s row bitmasks AND into
//! step 2's symbolic masks, so step 3 touches exactly the surviving
//! entries. The main pipeline implements all of it
//! ([`crate::multiply_with_pool`] with a mask); this module keeps the
//! free-function entry point.

use crate::{Config, SpGemmError};
use tsg_matrix::{Scalar, TileMatrix};
use tsg_runtime::observe::NullRecorder;
use tsg_runtime::{MemTracker, ScratchPool};

/// Computes `C⟨M⟩ = A·B`: the product restricted to the stored pattern of
/// `mask`. Tiles of the product outside `mask`'s tile layout are never
/// formed; inside a surviving tile, only positions present in `mask` are
/// kept, with values bitwise equal to the unmasked product's.
///
/// Values of `mask` are ignored — only its pattern matters (the GraphBLAS
/// structural mask).
pub fn multiply_masked<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    mask: &TileMatrix<T>,
    config: &Config,
    tracker: &MemTracker,
) -> Result<crate::Output<T>, SpGemmError> {
    crate::pipeline::multiply_with_pool(
        a,
        b,
        Some(mask),
        config,
        tracker,
        &NullRecorder,
        0,
        &ScratchPool::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_matrix::{ops, Coo, Csr};

    fn random(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
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

    fn masked_oracle(a: &Csr<f64>, b: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
        let full = crate::multiply_csr(a, b, &Config::default(), &MemTracker::new())
            .unwrap()
            .to_csr();
        let pattern = mask.map_values(|_| 1.0);
        ops::hadamard(&full, &pattern)
    }

    #[test]
    fn masked_product_matches_hadamard_oracle() {
        for seed in [1u64, 7, 23] {
            let a = random(80, 5, seed);
            let b = random(80, 5, seed + 50);
            let mask = random(80, 8, seed + 99);
            let ta = TileMatrix::from_csr(&a);
            let tb = TileMatrix::from_csr(&b);
            let tm = TileMatrix::from_csr(&mask);
            let out =
                multiply_masked(&ta, &tb, &tm, &Config::default(), &MemTracker::new()).unwrap();
            out.c.validate().unwrap();
            let got = out.c.to_csr().drop_numeric_zeros();
            let want = masked_oracle(&a, &b, &mask).drop_numeric_zeros();
            assert!(got.approx_eq_ignoring_zeros(&want, 1e-10), "seed {seed}");
        }
    }

    #[test]
    fn self_mask_gives_triangle_counting_kernel() {
        // C<A> = A·A on a small undirected graph: per-edge common-neighbour
        // counts.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 2), (2, 3)] {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        let adj = coo.to_csr();
        let t = TileMatrix::from_csr(&adj);
        let out = multiply_masked(&t, &t, &t, &Config::default(), &MemTracker::new()).unwrap();
        let c = out.c.to_csr();
        // Edge (0,1): common neighbour {2} -> 1. Edge (2,3): no common
        // neighbour, so the position is absent from the product pattern and
        // the mask intersection drops it.
        assert_eq!(c.get(0, 1), Some(1.0));
        assert_eq!(c.get(2, 3), None);
        // Triangle count = sum / 6.
        assert_eq!(ops::sum_all(&c), 6.0);
    }

    #[test]
    fn masked_output_never_exceeds_mask_pattern() {
        let a = random(60, 6, 3);
        let mask = random(60, 2, 4);
        let ta = TileMatrix::from_csr(&a);
        let tm = TileMatrix::from_csr(&mask);
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &MemTracker::new()).unwrap();
        let c = out.c.to_csr();
        for row in 0..60 {
            let (cols, _) = c.row(row);
            let (mcols, _) = mask.row(row);
            for &col in cols {
                assert!(mcols.contains(&col), "({row},{col}) outside the mask");
            }
        }
        assert!(out.c.nnz() <= mask.nnz());
    }

    #[test]
    fn empty_mask_gives_empty_product() {
        let a = random(40, 5, 9);
        let ta = TileMatrix::from_csr(&a);
        let tm = TileMatrix::from_csr(&Csr::zero(40, 40));
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &MemTracker::new()).unwrap();
        assert_eq!(out.c.nnz(), 0);
        assert_eq!(out.c.tile_count(), 0);
    }

    #[test]
    fn tracker_returns_to_zero_after_masked_multiply() {
        let a = random(80, 5, 11);
        let mask = random(80, 8, 12);
        let ta = TileMatrix::from_csr(&a);
        let tm = TileMatrix::from_csr(&mask);
        let tracker = MemTracker::new();
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &tracker).unwrap();
        assert!(out.c.nnz() > 0);
        assert_eq!(
            tracker.current_bytes(),
            0,
            "a masked multiply must not leak"
        );
        // Budgets that refuse the inputs, the step-2 temporaries and the
        // output each unwind to zero as well.
        let inputs = crate::pipeline::tile_matrix_bytes(&ta) * 2;
        for budget in [inputs / 2, inputs + 1, out.peak_bytes - 1] {
            let tracker = MemTracker::with_budget(budget);
            let err = multiply_masked(&ta, &ta, &tm, &Config::default(), &tracker).unwrap_err();
            assert!(
                matches!(err, SpGemmError::OutOfMemory(_)),
                "budget {budget}"
            );
            assert_eq!(tracker.current_bytes(), 0, "refused at budget {budget}");
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = TileMatrix::from_csr(&Csr::<f64>::identity(32));
        let m = TileMatrix::from_csr(&Csr::<f64>::identity(48));
        let err = multiply_masked(&a, &a, &m, &Config::default(), &MemTracker::new()).unwrap_err();
        assert!(matches!(err, SpGemmError::ShapeMismatch { .. }));
    }
}
