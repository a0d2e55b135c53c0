//! Quotient-graph minimum-degree ordering (the SYMAMD stand-in).
//!
//! A faithful-if-simplified implementation of the minimum-degree family:
//! the elimination graph is represented as a quotient graph (variables +
//! elements), pivots are chosen by approximate external degree
//! (Amestoy–Davis–Duff style upper bound), and elements reached through
//! the pivot are absorbed. Supernode detection and multiple elimination
//! are omitted for clarity; ordering quality is close enough to SYMAMD
//! to reproduce the paper's Table-II iteration-count ranking.

use crate::graph::Graph;
use javelin_sparse::{CsrMatrix, Perm, Scalar};

/// Minimum-degree ordering of a square matrix's symmetrized pattern.
pub(crate) fn min_degree_order<T: Scalar>(a: &CsrMatrix<T>) -> Perm {
    let g = Graph::from_matrix(a);
    let n = g.n();
    // Quotient graph state. `avars[v]`: variable neighbours still
    // uneliminated and not covered by an element; `aelems[v]`: elements
    // adjacent to v; `elems[e]`: variable members of element e (element
    // ids are the eliminated pivot ids).
    let mut avars: Vec<Vec<usize>> = (0..n).map(|v| g.neighbors(v).to_vec()).collect();
    let mut aelems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut absorbed = vec![false; n];
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();

    // Simple bucket priority structure: buckets[d] holds candidate
    // vertices of (approximate) degree d; stale entries are skipped.
    let max_deg = n;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v].min(max_deg)].push(v);
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut cursor = 0usize;
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;

    while order.len() < n {
        // Pop the lowest-degree live vertex.
        let p = loop {
            while cursor <= max_deg && buckets[cursor].is_empty() {
                cursor += 1;
            }
            debug_assert!(cursor <= max_deg, "ran out of candidates");
            let v = buckets[cursor].pop().expect("nonempty bucket");
            if !eliminated[v] && degree[v].min(max_deg) == cursor {
                break v;
            }
            // Stale entry (already eliminated or degree changed): skip.
        };
        eliminated[p] = true;
        order.push(p);

        // L_p = avars[p] ∪ (∪_{e ∈ aelems[p]} elems[e]) minus eliminated.
        stamp += 1;
        let mut lp: Vec<usize> = Vec::new();
        for &v in &avars[p] {
            if !eliminated[v] && mark[v] != stamp {
                mark[v] = stamp;
                lp.push(v);
            }
        }
        for &e in &aelems[p] {
            if absorbed[e] {
                continue;
            }
            for &v in &elems[e] {
                if !eliminated[v] && mark[v] != stamp {
                    mark[v] = stamp;
                    lp.push(v);
                }
            }
            absorbed[e] = true; // e is absorbed into p
        }
        elems[p] = lp.clone();

        // Update the adjacency of every variable in L_p.
        for &v in &lp {
            // Prune avars[v]: drop p, drop members of L_p (now covered by
            // the new element), drop eliminated.
            avars[v].retain(|&w| !eliminated[w] && mark[w] != stamp);
            // Prune absorbed elements; attach the new one.
            aelems[v].retain(|&e| !absorbed[e]);
            aelems[v].push(p);
            // Approximate external degree: |avars| + Σ |elems| (overlap
            // overcounted — a valid AMD-style upper bound).
            let mut d = avars[v].len();
            for &e in &aelems[v] {
                d += elems[e].len().saturating_sub(1);
            }
            let d = d.min(max_deg);
            if d != degree[v] {
                degree[v] = d;
                buckets[d].push(v);
                cursor = cursor.min(d);
            }
        }
    }
    Perm::from_new_to_old(order).expect("min-degree eliminates each vertex once")
}

/// Counts the fill-in (in entries) that *complete* Cholesky elimination
/// of the symmetrized pattern would create under permutation `perm`.
/// O(n · bandwidth²) reference implementation used to compare ordering
/// quality in tests and benches.
#[cfg(test)]
pub(crate) fn fill_in_count<T: Scalar>(a: &CsrMatrix<T>, perm: &Perm) -> usize {
    let b = a.permute_sym(perm).expect("valid permutation");
    let g = Graph::from_matrix(&b);
    let n = g.n();
    // Simulate elimination with sorted adjacency sets.
    let mut adj: Vec<Vec<usize>> = (0..n)
        .map(|v| g.neighbors(v).iter().copied().filter(|&w| w > v).collect())
        .collect();
    let mut fill = 0usize;
    for v in 0..n {
        let nbrs = std::mem::take(&mut adj[v]);
        if nbrs.is_empty() {
            continue;
        }
        // Connect the (higher-numbered) neighbours into a clique rooted
        // at the smallest: standard elimination-tree shortcut.
        let &m = nbrs.iter().min().expect("nonempty");
        for &w in &nbrs {
            if w != m && !adj[m].contains(&w) {
                adj[m].push(w);
                fill += 1;
            }
        }
    }
    fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    fn star(n: usize) -> CsrMatrix<f64> {
        // Vertex 0 is the hub.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        for i in 1..n {
            coo.push(0, i, 1.0).unwrap();
            coo.push(i, 0, 1.0).unwrap();
        }
        coo.to_csr()
    }

    fn grid(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.0).unwrap();
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0).unwrap();
                    coo.push(idx(i + 1, j), r, -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0).unwrap();
                    coo.push(idx(i, j + 1), r, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn star_hub_eliminated_at_the_end() {
        let a = star(10);
        let p = min_degree_order(&a);
        // Leaves have degree 1, hub degree 9. The hub's degree only drops
        // to 1 once a single leaf remains, so it sits in the last two
        // positions (it can tie with the final leaf).
        let pos = p.new_to_old().iter().position(|&v| v == 0).unwrap();
        assert!(pos >= 8, "hub eliminated at position {pos}");
    }

    #[test]
    fn star_ordering_has_zero_fill() {
        let a = star(12);
        let p = min_degree_order(&a);
        assert_eq!(fill_in_count(&a, &p), 0);
        // Natural order (hub first) fills the whole leaf clique.
        let nat = Perm::identity(12);
        assert!(fill_in_count(&a, &nat) > 0);
    }

    #[test]
    fn beats_natural_order_on_grid() {
        let a = grid(9, 9);
        let p = min_degree_order(&a);
        let md_fill = fill_in_count(&a, &p);
        let nat_fill = fill_in_count(&a, &Perm::identity(81));
        assert!(
            md_fill < nat_fill,
            "min-degree fill {md_fill} should beat natural {nat_fill}"
        );
    }

    #[test]
    fn valid_on_disconnected() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let p = min_degree_order(&coo.to_csr());
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn path_is_perfect_elimination() {
        // A path has a zero-fill elimination order; MD should find one.
        let mut coo = CooMatrix::new(16, 16);
        for i in 0..16 {
            coo.push(i, i, 1.0).unwrap();
            if i + 1 < 16 {
                coo.push(i, i + 1, 1.0).unwrap();
                coo.push(i + 1, i, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let p = min_degree_order(&a);
        assert_eq!(fill_in_count(&a, &p), 0);
    }
}
