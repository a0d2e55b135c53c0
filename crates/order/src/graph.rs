//! Symmetrized adjacency graph shared by all orderings.

use javelin_sparse::{CsrMatrix, Scalar};

/// An undirected graph in adjacency-array (CSR-like) form: the pattern
/// of `A + Aᵀ` with the diagonal removed.
#[derive(Debug, Clone)]
pub(crate) struct Graph {
    n: usize,
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

impl Graph {
    /// Builds the symmetrized adjacency of a square matrix.
    ///
    /// # Panics
    /// When the matrix is not square.
    pub(crate) fn from_matrix<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        assert!(a.is_square(), "Graph requires a square matrix");
        let n = a.nrows();
        let mut counts = vec![0usize; n];
        for r in 0..n {
            for &c in a.row_cols(r) {
                if c != r {
                    counts[r] += 1;
                    counts[c] += 1;
                }
            }
        }
        let mut xadj = vec![0usize; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + counts[i];
        }
        let mut adjncy = vec![0usize; xadj[n]];
        let mut next = xadj.clone();
        for r in 0..n {
            for &c in a.row_cols(r) {
                if c != r {
                    adjncy[next[r]] = c;
                    next[r] += 1;
                    adjncy[next[c]] = r;
                    next[c] += 1;
                }
            }
        }
        // Sort and dedup each vertex's neighbour list.
        let mut out_adj = Vec::with_capacity(adjncy.len());
        let mut out_xadj = vec![0usize; n + 1];
        let mut scratch: Vec<usize> = Vec::new();
        for v in 0..n {
            scratch.clear();
            scratch.extend_from_slice(&adjncy[xadj[v]..xadj[v + 1]]);
            scratch.sort_unstable();
            scratch.dedup();
            out_adj.extend_from_slice(&scratch);
            out_xadj[v + 1] = out_adj.len();
        }
        Graph {
            n,
            xadj: out_xadj,
            adjncy: out_adj,
        }
    }

    /// Number of vertices.
    #[inline(always)]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges (each counted once).
    #[cfg(test)]
    pub(crate) fn n_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of `v`, sorted ascending, self excluded.
    #[inline(always)]
    pub(crate) fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of `v`.
    #[inline(always)]
    pub(crate) fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Breadth-first level structure from `root`, restricted to the
    /// vertices where `mask` is true. Returns `(levels, level_of)` where
    /// `levels[l]` lists the vertices at distance `l` and
    /// `level_of[v] == usize::MAX` for unreached vertices.
    pub(crate) fn bfs_levels(&self, root: usize, mask: &[bool]) -> (Vec<Vec<usize>>, Vec<usize>) {
        debug_assert!(mask[root]);
        let mut level_of = vec![usize::MAX; self.n];
        let mut levels: Vec<Vec<usize>> = Vec::new();
        let mut frontier = vec![root];
        level_of[root] = 0;
        let mut depth = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &w in self.neighbors(v) {
                    if mask[w] && level_of[w] == usize::MAX {
                        level_of[w] = depth + 1;
                        next.push(w);
                    }
                }
            }
            levels.push(frontier);
            frontier = next;
            depth += 1;
        }
        (levels, level_of)
    }

    /// George–Liu pseudo-peripheral vertex within the masked subgraph,
    /// starting the search from `start`.
    pub(crate) fn pseudo_peripheral(&self, start: usize, mask: &[bool]) -> usize {
        let (mut levels, _) = self.bfs_levels(start, mask);
        let mut ecc = levels.len();
        loop {
            // Minimum-degree vertex in the deepest level.
            let last = levels.last().expect("bfs from a masked root is nonempty");
            let &cand = last
                .iter()
                .min_by_key(|&&v| self.degree(v))
                .expect("nonempty level");
            let (new_levels, _) = self.bfs_levels(cand, mask);
            if new_levels.len() > ecc {
                ecc = new_levels.len();
                levels = new_levels;
            } else {
                return cand;
            }
        }
    }

    /// Connected components of the masked subgraph; each component is a
    /// vertex list headed by its discovery root.
    pub(crate) fn components(&self, mask: &[bool]) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for v in 0..self.n {
            if !mask[v] || seen[v] {
                continue;
            }
            let mut comp = vec![v];
            seen[v] = true;
            let mut head = 0;
            while head < comp.len() {
                let u = comp[head];
                head += 1;
                for &w in self.neighbors(u) {
                    if mask[w] && !seen[w] {
                        seen[w] = true;
                        comp.push(w);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    fn path_graph(n: usize) -> Graph {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, 1.0).unwrap();
            }
        }
        // Intentionally one-sided: Graph must symmetrize.
        Graph::from_matrix(&coo.to_csr())
    }

    #[test]
    fn symmetrizes_one_sided_input() {
        let g = path_graph(4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.n_edges(), 3);
    }

    #[test]
    fn dedups_two_sided_input() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let g = Graph::from_matrix(&coo.to_csr());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path_graph(5);
        let mask = vec![true; 5];
        let (levels, level_of) = g.bfs_levels(0, &mask);
        assert_eq!(levels.len(), 5);
        assert_eq!(level_of, vec![0, 1, 2, 3, 4]);
        let (levels_mid, _) = g.bfs_levels(2, &mask);
        assert_eq!(levels_mid.len(), 3);
    }

    #[test]
    fn bfs_respects_mask() {
        let g = path_graph(5);
        let mut mask = vec![true; 5];
        mask[2] = false; // cut the path
        let (levels, level_of) = g.bfs_levels(0, &mask);
        assert_eq!(levels.concat().len(), 2);
        assert_eq!(level_of[4], usize::MAX);
    }

    #[test]
    fn pseudo_peripheral_finds_path_end() {
        let g = path_graph(9);
        let mask = vec![true; 9];
        let pp = g.pseudo_peripheral(4, &mask);
        assert!(pp == 0 || pp == 8, "got {pp}");
    }

    #[test]
    fn components_split_by_mask() {
        let g = path_graph(7);
        let mut mask = vec![true; 7];
        mask[3] = false;
        let comps = g.components(&mask);
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![3, 3]);
    }
}
