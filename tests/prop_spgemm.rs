//! Property-based tests of the SpGEMM kernels: every method against the
//! dense oracle, algebraic identities, and structural guarantees of the
//! tiled product.
//!
//! Value comparison goes through the shared `tsg-check` comparator
//! (canonical form + documented `ValuePolicy`), so this file holds no
//! canonicalization of its own.

use proptest::prelude::*;
use tilespgemm::baselines::{run_method, MethodKind};
use tilespgemm::matrix::{Coo, Csr, Dense, TileMatrix};
use tilespgemm::prelude::*;
use tsg_check::{compare_csr, ValuePolicy};

fn arb_square(n_max: usize, nnz_max: usize) -> impl Strategy<Value = Csr<f64>> {
    (2usize..n_max).prop_flat_map(move |n| {
        let entry = (0..n as u32, 0..n as u32, 1i32..=9);
        proptest::collection::vec(entry, 0..nnz_max).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                // Positive values: no accidental cancellation, so pattern
                // comparisons are exact.
                coo.push(r, c, v as f64 * 0.25);
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_method_matches_the_dense_oracle(
        a in arb_square(48, 200),
        b_seed in 0u64..1000,
    ) {
        // B: a permuted variant of A's pattern with fresh values. The dense
        // oracle is independent of the sparse reference tsg-check uses.
        let policy = ValuePolicy::default();
        let b = tilespgemm::gen::random::erdos_renyi(a.nrows, a.ncols, a.nnz().max(1), b_seed)
            .map_values(f64::abs);
        let want = Dense::from_csr(&a).matmul(&Dense::from_csr(&b)).to_csr();
        for kind in MethodKind::all() {
            let got = run_method(kind, &a, &b, &MemTracker::new()).unwrap();
            let cmp = compare_csr(&got.c, &want, &policy);
            prop_assert!(
                cmp.is_ok(),
                "{} disagrees with the dense oracle: {:?}", kind.name(), cmp.err()
            );
        }
    }

    #[test]
    fn identity_is_neutral(a in arb_square(64, 250)) {
        let policy = ValuePolicy::default();
        let i = Csr::<f64>::identity(a.nrows);
        let left = multiply_csr(&i, &a, &Config::default(), &MemTracker::new()).unwrap().to_csr();
        let right = multiply_csr(&a, &i, &Config::default(), &MemTracker::new()).unwrap().to_csr();
        prop_assert!(compare_csr(&left, &a, &policy).is_ok(), "I*A != A");
        prop_assert!(compare_csr(&right, &a, &policy).is_ok(), "A*I != A");
    }

    #[test]
    fn transpose_identity_holds(a in arb_square(40, 150), b_seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ — with positive values both sides keep the same
        // stored pattern, so the comparison is strict.
        let policy = ValuePolicy::default();
        let b = tilespgemm::gen::random::erdos_renyi(a.nrows, a.ncols, a.nnz().max(1), b_seed)
            .map_values(f64::abs);
        let cfg = Config::default();
        let t = MemTracker::new();
        let ab = multiply_csr(&a, &b, &cfg, &t).unwrap().to_csr();
        let btat = multiply_csr(&b.transpose(), &a.transpose(), &cfg, &t).unwrap().to_csr();
        let cmp = compare_csr(&ab.transpose(), &btat, &policy);
        prop_assert!(cmp.is_ok(), "(AB)^T != B^T A^T: {:?}", cmp.err());
    }

    #[test]
    fn tiled_product_structure_is_valid_and_superset(a in arb_square(48, 250)) {
        let ta = TileMatrix::from_csr(&a);
        let out = tilespgemm::core::multiply(&ta, &ta, &Config::default(), &MemTracker::new())
            .unwrap();
        out.c.validate().unwrap();
        // Step-1 tile pattern is a superset of the exact product's tiles:
        // every tile of the exact product appears in the output layout.
        let exact = TileMatrix::from_csr(
            &Dense::from_csr(&a).matmul(&Dense::from_csr(&a)).to_csr(),
        );
        for ti in 0..exact.tile_m {
            for &tc in exact.tile_row_cols(ti) {
                prop_assert!(
                    out.c.tile_row_cols(ti).contains(&tc),
                    "tile ({ti},{tc}) missing from the step-1 layout"
                );
            }
        }
        // And the nonzero count matches the oracle exactly (positive
        // values -> no cancellation).
        prop_assert_eq!(out.c.nnz(), tilespgemm::gen::spgemm_nnz(&a, &a));
    }

    #[test]
    fn flop_accounting_is_exact(a in arb_square(40, 150)) {
        // spgemm_flops == 2 * Σ_i Σ_{j∈row i} nnz(row j), computed two ways.
        let brute: u64 = (0..a.nrows)
            .map(|i| {
                a.row(i).0.iter()
                    .map(|&j| a.row_nnz(j as usize) as u64)
                    .sum::<u64>()
            })
            .sum::<u64>() * 2;
        prop_assert_eq!(a.spgemm_flops(&a), brute);
    }

    #[test]
    fn scalar_distributes(a in arb_square(32, 120)) {
        // (2A)·A == 2·(A·A)
        let policy = ValuePolicy::default();
        let cfg = Config::default();
        let t = MemTracker::new();
        let doubled = a.map_values(|v| v * 2.0);
        let lhs = multiply_csr(&doubled, &a, &cfg, &t).unwrap().to_csr();
        let rhs_base = multiply_csr(&a, &a, &cfg, &t).unwrap().to_csr();
        let rhs = rhs_base.map_values(|v| v * 2.0);
        let cmp = compare_csr(&lhs, &rhs, &policy);
        prop_assert!(cmp.is_ok(), "(2A)A != 2(AA): {:?}", cmp.err());
    }
}
