//! Property-based tests across all orderings: every algorithm must
//! produce a valid permutation on arbitrary graphs, and the
//! structure-specific guarantees (coloring properness, transversal
//! maximality) must hold.

#![cfg(test)]

use crate::coloring::{coloring_order, greedy_coloring};
use crate::dm::maximum_transversal;
use crate::graph::Graph;
use crate::mindeg::{fill_in_count, min_degree_order};
use crate::nd::nested_dissection_order;
use crate::rcm::rcm_order;
use javelin_sparse::{CooMatrix, CsrMatrix, Perm};
use proptest::prelude::*;

fn arb_square(n_max: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (2..n_max).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..n * 3).prop_map(move |pairs| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 4.0).unwrap();
            }
            for (r, c) in pairs {
                coo.push(r, c, -1.0).unwrap();
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every ordering is a bijection (construction would panic
    /// otherwise) and covers all vertices exactly once.
    #[test]
    fn all_orderings_are_valid_permutations(a in arb_square(40)) {
        for p in [
            rcm_order(&a),
            min_degree_order(&a),
            nested_dissection_order(&a, 8),
            coloring_order(&a),
        ] {
            prop_assert_eq!(p.len(), a.nrows());
            // Round-trip sanity.
            prop_assert!(p.compose(&p.inverse()).is_identity());
        }
    }

    /// Greedy coloring is proper on arbitrary graphs.
    #[test]
    fn coloring_is_always_proper(a in arb_square(40)) {
        let g = Graph::from_matrix(&a);
        let (color, n_colors) = greedy_coloring(&g);
        for v in 0..g.n() {
            prop_assert!(color[v] < n_colors);
            for &w in g.neighbors(v) {
                prop_assert_ne!(color[v], color[w]);
            }
        }
    }

    /// Minimum degree never produces more fill than the natural order
    /// ... is NOT a theorem (MD is a heuristic), but it must stay within
    /// a small factor on these diagonally-dominated random graphs, and
    /// the fill count itself must be consistent between calls.
    #[test]
    fn fill_count_is_deterministic(a in arb_square(24)) {
        let p = min_degree_order(&a);
        let f1 = fill_in_count(&a, &p);
        let f2 = fill_in_count(&a, &p);
        prop_assert_eq!(f1, f2);
        let nat = fill_in_count(&a, &Perm::identity(a.nrows()));
        // Heuristic sanity bound (loose on purpose).
        prop_assert!(f1 <= nat.max(4) * 4);
    }

    /// The maximum transversal puts at least as many nonzeros on the
    /// diagonal as the natural order had.
    #[test]
    fn transversal_never_loses_diagonal_entries(a in arb_square(32)) {
        let before = (0..a.nrows()).filter(|&i| a.get(i, i).is_some()).count();
        let p = maximum_transversal(&a).unwrap();
        let b = a.permute(&p, &Perm::identity(a.ncols())).unwrap();
        let after = (0..b.nrows()).filter(|&i| b.get(i, i).is_some()).count();
        prop_assert!(after >= before, "matching lost diagonal: {before} -> {after}");
    }

    /// RCM on a connected graph keeps the first vertex peripheral-ish:
    /// the last CM vertex (first RCM vertex) has no smaller-eccentricity
    /// guarantee, but the permutation must at least be stable across
    /// calls (determinism).
    #[test]
    fn orderings_are_deterministic(a in arb_square(28)) {
        prop_assert_eq!(rcm_order(&a), rcm_order(&a));
        prop_assert_eq!(min_degree_order(&a), min_degree_order(&a));
        prop_assert_eq!(nested_dissection_order(&a, 8), nested_dissection_order(&a, 8));
        prop_assert_eq!(coloring_order(&a), coloring_order(&a));
    }
}
