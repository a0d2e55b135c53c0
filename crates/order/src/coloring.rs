//! Greedy graph-coloring ordering.
//!
//! Coloring orderings maximize obvious parallelism (every color class is
//! an independent set, so all its rows factor concurrently) but the
//! paper — citing Benzi, Szyld & van Duin — notes they are "known to be
//! worse in terms of iteration than any other ordering considered".
//! They are provided for completeness and for ablation experiments.

use crate::graph::Graph;
use javelin_sparse::{CsrMatrix, Perm, Scalar};

/// Greedy largest-degree-first coloring; returns `(color_of, n_colors)`.
pub(crate) fn greedy_coloring(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut verts: Vec<usize> = (0..n).collect();
    verts.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut color = vec![usize::MAX; n];
    let mut forbidden: Vec<usize> = Vec::new(); // stamp per color
    let mut n_colors = 0usize;
    for &v in &verts {
        forbidden.clear();
        forbidden.resize(n_colors, usize::MAX);
        for &w in g.neighbors(v) {
            if color[w] != usize::MAX {
                forbidden[color[w]] = v;
            }
        }
        let c = (0..n_colors)
            .find(|&c| forbidden[c] != v)
            .unwrap_or(n_colors);
        if c == n_colors {
            n_colors += 1;
        }
        color[v] = c;
    }
    (color, n_colors)
}

/// Ordering that groups vertices by color class (color 0 first).
pub(crate) fn coloring_order<T: Scalar>(a: &CsrMatrix<T>) -> Perm {
    let g = Graph::from_matrix(a);
    let (color, n_colors) = greedy_coloring(&g);
    let n = g.n();
    let mut counts = vec![0usize; n_colors + 1];
    for &c in &color {
        counts[c + 1] += 1;
    }
    for c in 0..n_colors {
        counts[c + 1] += counts[c];
    }
    let mut order = vec![0usize; n];
    let mut next = counts;
    for v in 0..n {
        order[next[color[v]]] = v;
        next[color[v]] += 1;
    }
    Perm::from_new_to_old(order).expect("coloring covers all vertices")
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    fn cycle(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            let j = (i + 1) % n;
            coo.push(i, j, 1.0).unwrap();
            coo.push(j, i, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn coloring_is_proper() {
        let a = cycle(10);
        let g = Graph::from_matrix(&a);
        let (color, n_colors) = greedy_coloring(&g);
        for v in 0..g.n() {
            for &w in g.neighbors(v) {
                assert_ne!(color[v], color[w], "adjacent {v},{w} share color");
            }
        }
        assert!(n_colors >= 2);
    }

    #[test]
    fn even_cycle_needs_two_colors() {
        let a = cycle(8);
        let g = Graph::from_matrix(&a);
        let (_, n_colors) = greedy_coloring(&g);
        assert_eq!(n_colors, 2);
    }

    #[test]
    fn odd_cycle_needs_three() {
        let a = cycle(9);
        let g = Graph::from_matrix(&a);
        let (_, n_colors) = greedy_coloring(&g);
        assert_eq!(n_colors, 3);
    }

    #[test]
    fn order_groups_by_color() {
        let a = cycle(8);
        let p = coloring_order(&a);
        let g = Graph::from_matrix(&a);
        let (color, _) = greedy_coloring(&g);
        let seq: Vec<usize> = p.new_to_old().iter().map(|&v| color[v]).collect();
        // Colors must be non-decreasing along the new order.
        assert!(seq.windows(2).all(|w| w[0] <= w[1]), "{seq:?}");
    }

    #[test]
    fn isolated_vertices_get_color_zero() {
        let a = CsrMatrix::<f64>::identity(4);
        let g = Graph::from_matrix(&a);
        let (color, n_colors) = greedy_coloring(&g);
        assert_eq!(n_colors, 1);
        assert!(color.iter().all(|&c| c == 0));
    }
}
