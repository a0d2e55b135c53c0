//! Reverse Cuthill–McKee ordering.
//!
//! RCM is the paper's "iteration-friendly" ordering: Table II shows it
//! (and the natural order) typically need the fewest Krylov iterations,
//! at the cost of long, narrow level sets for the factorization. The
//! implementation uses George–Liu pseudo-peripheral roots per connected
//! component and visits neighbours in increasing-degree order.

use crate::graph::Graph;
use javelin_sparse::{CsrMatrix, Perm, Scalar};

/// Reverse Cuthill–McKee ordering.
pub(crate) fn rcm_order<T: Scalar>(a: &CsrMatrix<T>) -> Perm {
    let g = Graph::from_matrix(a);
    let cm = cm_on_graph(&g);
    let mut v = cm.new_to_old().to_vec();
    v.reverse();
    Perm::from_new_to_old(v).expect("reversal of a bijection is a bijection")
}

fn cm_on_graph(g: &Graph) -> Perm {
    let n = g.n();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mask = vec![true; n];
    let mut scratch: Vec<usize> = Vec::new();
    for comp in g.components(&mask) {
        let root = g.pseudo_peripheral(comp[0], &mask_of(&comp, n));
        // BFS with degree-sorted neighbour visits.
        let start = order.len();
        order.push(root);
        placed[root] = true;
        let mut head = start;
        while head < order.len() {
            let v = order[head];
            head += 1;
            scratch.clear();
            scratch.extend(g.neighbors(v).iter().copied().filter(|&w| !placed[w]));
            scratch.sort_unstable_by_key(|&w| (g.degree(w), w));
            for &w in &scratch {
                if !placed[w] {
                    placed[w] = true;
                    order.push(w);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    Perm::from_new_to_old(order).expect("CM visits every vertex exactly once")
}

fn mask_of(comp: &[usize], n: usize) -> Vec<bool> {
    let mut m = vec![false; n];
    for &v in comp {
        m[v] = true;
    }
    m
}

/// Half-bandwidth of a matrix: `max |i - j|` over stored entries. Used
/// to verify RCM's bandwidth-shrinking behaviour in tests and benches.
#[cfg(test)]
pub(crate) fn bandwidth<T: Scalar>(a: &CsrMatrix<T>) -> usize {
    let mut bw = 0usize;
    for (r, c, _) in a.iter() {
        bw = bw.max(r.abs_diff(c));
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    /// A 2D grid numbered in a bandwidth-hostile way (column-major with a
    /// scrambled twist) so RCM has something to improve.
    fn scrambled_grid(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        // Scramble node ids by multiplying by a unit coprime to n.
        let a_coef = {
            let mut a = 7usize;
            while gcd(a, n) != 1 {
                a += 2;
            }
            a
        };
        let id = |i: usize, j: usize| (a_coef * (i * ny + j) + 3) % n;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let r = id(i, j);
                coo.push(r, r, 4.0).unwrap();
                if i + 1 < nx {
                    let c = id(i + 1, j);
                    coo.push(r, c, -1.0).unwrap();
                    coo.push(c, r, -1.0).unwrap();
                }
                if j + 1 < ny {
                    let c = id(i, j + 1);
                    coo.push(r, c, -1.0).unwrap();
                    coo.push(c, r, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn rcm_is_valid_permutation() {
        let a = scrambled_grid(8, 8);
        let p = rcm_order(&a);
        assert_eq!(p.len(), 64);
        // from_new_to_old validates bijectivity; reaching here suffices.
    }

    #[test]
    fn rcm_shrinks_bandwidth() {
        let a = scrambled_grid(12, 12);
        let before = bandwidth(&a);
        let p = rcm_order(&a);
        let b = a.permute_sym(&p).unwrap();
        let after = bandwidth(&b);
        assert!(
            after * 2 < before,
            "bandwidth {before} -> {after}, expected at least 2x reduction"
        );
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint paths.
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            coo.push(a, b, 1.0).unwrap();
            coo.push(b, a, 1.0).unwrap();
        }
        let p = rcm_order(&coo.to_csr());
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn handles_isolated_vertices() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 1.0).unwrap();
        }
        let p = rcm_order(&coo.to_csr());
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn bandwidth_helper() {
        let a = CsrMatrix::<f64>::identity(5);
        assert_eq!(bandwidth(&a), 0);
        let mut coo = CooMatrix::new(5, 5);
        coo.push(0, 4, 1.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        assert_eq!(bandwidth(&coo.to_csr()), 4);
    }
}
