//! # javelin-order
//!
//! Fill-reducing and structure-revealing orderings, built from scratch.
//!
//! The paper's preprocessing pipeline (§IV "Preordering") is: a
//! Dulmage–Mendelsohn-style permutation to place nonzeros on the
//! diagonal, followed by METIS nested dissection; §VII compares against
//! Reverse Cuthill–McKee, SYMAMD and the natural order. This crate
//! reimplements each component natively:
//!
//! * `graph::Graph` — symmetrized adjacency used by all orderings;
//! * `rcm` — Reverse Cuthill–McKee with George–Liu pseudo-peripheral
//!   root finding;
//! * `mindeg` — quotient-graph minimum degree with approximate degrees
//!   and element absorption (the SYMAMD stand-in);
//! * `nd` — recursive-bisection nested dissection with BFS separators
//!   (the METIS stand-in);
//! * `coloring` — greedy largest-first coloring (the paper mentions
//!   Coloring orderings as a known-worse-convergence baseline);
//! * [`dm`] — maximum transversal (MC21-style augmenting paths).
//!
//! All orderings return a [`javelin_sparse::Perm`] in new-to-old form,
//! directly usable with `CsrMatrix::permute_sym`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod coloring;
pub mod dm;
pub(crate) mod graph;
pub(crate) mod mindeg;
pub(crate) mod nd;
mod proptests;
pub(crate) mod rcm;

use coloring::coloring_order;
use mindeg::min_degree_order;
pub use nd::nested_dissection_order;
use rcm::rcm_order;

use javelin_sparse::{CsrMatrix, Perm, Scalar};

/// The named orderings compared in the paper's sensitivity study
/// (Table II): SYMAMD-style minimum degree, RCM, nested dissection, and
/// the natural order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Minimum-degree (SYMAMD stand-in).
    Amd,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Nested dissection (METIS stand-in).
    Nd,
    /// Natural (identity) order.
    Natural,
    /// Greedy coloring order.
    Coloring,
}

impl std::fmt::Display for Ordering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Ordering::Amd => "AMD",
            Ordering::Rcm => "RCM",
            Ordering::Nd => "ND",
            Ordering::Natural => "NAT",
            Ordering::Coloring => "COL",
        };
        write!(f, "{s}")
    }
}

/// Computes the requested ordering for a square matrix.
pub fn compute_order<T: Scalar>(a: &CsrMatrix<T>, which: Ordering) -> Perm {
    match which {
        Ordering::Amd => min_degree_order(a),
        Ordering::Rcm => rcm_order(a),
        Ordering::Nd => nested_dissection_order(a, 64),
        Ordering::Natural => Perm::identity(a.nrows()),
        Ordering::Coloring => coloring_order(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    fn path(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn compute_order_dispatches_all_variants() {
        let a = path(20);
        for o in [
            Ordering::Amd,
            Ordering::Rcm,
            Ordering::Nd,
            Ordering::Natural,
            Ordering::Coloring,
        ] {
            let p = compute_order(&a, o);
            assert_eq!(p.len(), 20, "{o}");
        }
        assert!(compute_order(&a, Ordering::Natural).is_identity());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Ordering::Amd.to_string(), "AMD");
        assert_eq!(Ordering::Rcm.to_string(), "RCM");
        assert_eq!(Ordering::Nd.to_string(), "ND");
        assert_eq!(Ordering::Natural.to_string(), "NAT");
    }
}
