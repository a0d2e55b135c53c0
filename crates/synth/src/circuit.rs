//! Circuit-simulation-flavoured irregular matrices.
//!
//! The paper's group-B suite leans on circuit matrices (`scircuit`,
//! `trans4`, `transient`, `ASIC_320ks`, `ASIC_680ks`, `G3_circuit`,
//! `ibm_matrix_2`) precisely because they are *irregular*: power-law-ish
//! degree distributions, a handful of very dense rows (supply rails,
//! ground nets), and in some cases nonsymmetric patterns. These
//! generators reproduce those traits with a preferential-attachment
//! skeleton plus controlled dense rows.

use crate::util;
use javelin_sparse::{CooMatrix, CsrMatrix};
use rand::Rng;

/// Preferential-attachment ("rich get richer") circuit graph.
///
/// * `n` — nodes;
/// * `m` — edges added per new node (average degree ≈ 2m);
/// * `symmetric_pattern` — when false, each edge is kept one-sided with
///   probability `one_sided`, modelling nonsymmetric device stamps;
/// * diagonally dominant values (no pivoting hazards).
pub(crate) fn preferential_attachment(
    n: usize,
    m: usize,
    symmetric_pattern: bool,
    one_sided: f64,
    seed: u64,
) -> CsrMatrix<f64> {
    assert!(n > m + 1, "need n > m + 1");
    let mut rng = util::rng(seed);
    // Endpoint pool: each edge contributes both endpoints, so sampling
    // uniformly from the pool is degree-proportional sampling.
    let mut pool: Vec<usize> = Vec::with_capacity(2 * n * m);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * m);
    // Seed clique over the first m+1 vertices.
    for a in 0..=m {
        for b in (a + 1)..=m {
            edges.push((a, b));
            pool.push(a);
            pool.push(b);
        }
    }
    for v in (m + 1)..n {
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 100 * m {
            let t = pool[rng.gen_range(0..pool.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
        }
        for &t in &chosen {
            edges.push((v, t));
            pool.push(v);
            pool.push(t);
        }
    }
    let mut coo = CooMatrix::with_capacity(n, n, edges.len() * 2 + n);
    for &(a, b) in &edges {
        if symmetric_pattern || rng.gen::<f64>() >= one_sided {
            coo.push_unchecked(a, b, 1.0);
            coo.push_unchecked(b, a, 1.0);
        } else if rng.gen_bool(0.5) {
            coo.push_unchecked(a, b, 1.0);
        } else {
            coo.push_unchecked(b, a, 1.0);
        }
    }
    for v in 0..n {
        coo.push_unchecked(v, v, 1.0);
    }
    let pattern = coo.to_csr();
    util::make_diagonally_dominant(&pattern, 1.0, seed ^ 0x9e3779b97f4a7c15)
}

/// ASIC-style matrix: a sparse grid-ish substrate (average degree
/// ≈ `base_degree`) plus `n_dense` dense rows/columns touching a
/// `dense_frac` fraction of all nodes — the supply-rail rows that give
/// `ASIC_320ks`-class matrices their huge maximum level width and tiny
/// minimum.
pub(crate) fn asic_like(
    n: usize,
    base_degree: usize,
    n_dense: usize,
    dense_frac: f64,
    seed: u64,
) -> CsrMatrix<f64> {
    let mut rng = util::rng(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (base_degree + 1));
    // Sparse substrate: ring + random chords keeps the graph connected
    // and the degree low-variance.
    for v in 0..n {
        coo.push_unchecked(v, v, 1.0);
        let w = (v + 1) % n;
        coo.push_unchecked(v, w, 1.0);
        coo.push_unchecked(w, v, 1.0);
        for _ in 0..base_degree.saturating_sub(3) / 2 {
            let t = rng.gen_range(0..n);
            if t != v {
                coo.push_unchecked(v, t, 1.0);
                coo.push_unchecked(t, v, 1.0);
            }
        }
    }
    // Dense rails.
    let picks = ((n as f64) * dense_frac) as usize;
    for d in 0..n_dense {
        let rail = d * (n / n_dense.max(1)).max(1) % n;
        for _ in 0..picks {
            let t = rng.gen_range(0..n);
            if t != rail {
                coo.push_unchecked(rail, t, 1.0);
                coo.push_unchecked(t, rail, 1.0);
            }
        }
    }
    let pattern = coo.to_csr();
    util::make_diagonally_dominant(&pattern, 1.0, seed ^ 0xdeadbeef)
}

/// Power-network matrix in the style of `TSOPF_RS_b300_c2`: moderate
/// dimension, very high row density (≈ `block` per row in the dense
/// band), nonsymmetric pattern.
///
/// Structure: block-diagonal dense-ish blocks (bus clusters) of width
/// `block`, plus sparse random inter-block ties; each in-block entry is
/// kept one-sided with probability 0.3.
pub fn power_grid(n: usize, block: usize, tie_per_row: usize, seed: u64) -> CsrMatrix<f64> {
    let mut rng = util::rng(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * block);
    for r in 0..n {
        coo.push_unchecked(r, r, 1.0);
        let b0 = (r / block) * block;
        for c in b0..(b0 + block).min(n) {
            if c == r {
                continue;
            }
            // Nonsymmetric: keep directed entry with prob 0.7.
            if rng.gen::<f64>() < 0.7 {
                coo.push_unchecked(r, c, 1.0);
            }
        }
        for _ in 0..tie_per_row {
            let t = rng.gen_range(0..n);
            if t != r {
                coo.push_unchecked(r, t, 1.0);
            }
        }
    }
    let pattern = coo.to_csr();
    util::make_diagonally_dominant(&pattern, 1.0, seed ^ 0x5ca1ab1e)
}

/// Grid-backed circuit matrix (`G3_circuit` analogue): a 2D grid where a
/// random `drop` fraction of the stencil edges is deleted, lowering RD
/// below 5 while keeping the pattern symmetric.
pub(crate) fn thinned_grid_circuit(nx: usize, ny: usize, drop: f64, seed: u64) -> CsrMatrix<f64> {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut rng = util::rng(seed);
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            coo.push_unchecked(r, r, 1.0);
            if j + 1 < ny && rng.gen::<f64>() >= drop {
                coo.push_unchecked(r, idx(i, j + 1), 1.0);
                coo.push_unchecked(idx(i, j + 1), r, 1.0);
            }
            if i + 1 < nx && rng.gen::<f64>() >= drop {
                coo.push_unchecked(r, idx(i + 1, j), 1.0);
                coo.push_unchecked(idx(i + 1, j), r, 1.0);
            }
        }
    }
    let pattern = coo.to_csr();
    util::make_diagonally_dominant(&pattern, 1.0, seed ^ 0x0dd)
}

/// Transient-circuit analogue (`trans4`/`transient`): mostly very sparse
/// rows, a compact strongly-coupled core of `core_size` rows at random
/// positions, and a nonsymmetric pattern option. The resulting level
/// structure is a few wide levels plus a tiny tail — the case where the
/// paper's lower-stage methods pay off (≈2.3× on Haswell for
/// `transient`).
pub fn transient_circuit(
    n: usize,
    core_size: usize,
    symmetric_pattern: bool,
    seed: u64,
) -> CsrMatrix<f64> {
    let mut rng = util::rng(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * 6 + core_size * core_size / 2);
    // Sparse substrate: each row couples to ~3 random earlier nodes.
    for v in 0..n {
        coo.push_unchecked(v, v, 1.0);
        let links = rng.gen_range(2..=4);
        for _ in 0..links {
            if v == 0 {
                break;
            }
            let t = rng.gen_range(0..v);
            coo.push_unchecked(v, t, 1.0);
            if symmetric_pattern || rng.gen::<f64>() < 0.5 {
                coo.push_unchecked(t, v, 1.0);
            }
        }
    }
    // Strongly coupled core: dense-ish clique spread over random rows.
    let mut core: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        core.swap(i, j);
    }
    core.truncate(core_size);
    for (ai, &a) in core.iter().enumerate() {
        for &b in core.iter().skip(ai + 1) {
            if rng.gen::<f64>() < 0.5 {
                coo.push_unchecked(a, b, 1.0);
                if symmetric_pattern || rng.gen::<f64>() < 0.5 {
                    coo.push_unchecked(b, a, 1.0);
                }
            }
        }
    }
    let pattern = coo.to_csr();
    util::make_diagonally_dominant(&pattern, 1.0, seed ^ 0x7a5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pa_graph_has_powerlaw_tail() {
        let a = preferential_attachment(600, 2, true, 0.0, 3);
        assert!(a.is_pattern_symmetric());
        let max_deg = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap();
        let avg = a.row_density();
        assert!(
            max_deg as f64 > 4.0 * avg,
            "expected heavy tail: max {max_deg}, avg {avg}"
        );
        assert!(a.diag_positions().is_ok());
    }

    #[test]
    fn pa_nonsymmetric_option() {
        let a = preferential_attachment(300, 2, false, 0.6, 5);
        assert!(!a.is_pattern_symmetric());
        assert!(a.diag_positions().is_ok());
    }

    #[test]
    fn asic_has_dense_rails() {
        let a = asic_like(1000, 4, 3, 0.2, 7);
        let max_deg = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap();
        assert!(max_deg > 100, "rail row should be dense, got {max_deg}");
        assert!(a.row_density() < 10.0);
        assert!(a.is_pattern_symmetric());
    }

    #[test]
    fn power_grid_high_density_nonsym() {
        let a = power_grid(400, 60, 2, 11);
        assert!(a.row_density() > 30.0, "rd = {}", a.row_density());
        assert!(!a.is_pattern_symmetric());
        assert!(a.diag_positions().is_ok());
    }

    #[test]
    fn thinned_grid_low_density() {
        let a = thinned_grid_circuit(40, 40, 0.15, 13);
        assert!(a.is_pattern_symmetric());
        assert!(a.row_density() < 5.0);
        assert!(a.diag_positions().is_ok());
    }

    #[test]
    fn transient_has_core() {
        let a = transient_circuit(800, 40, true, 17);
        assert!(a.diag_positions().is_ok());
        assert!(a.is_pattern_symmetric());
        let max_deg = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap();
        assert!(max_deg > 15);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = preferential_attachment(200, 2, true, 0.0, 99);
        let b = preferential_attachment(200, 2, true, 0.0, 99);
        assert!(a.approx_eq(&b, 0.0));
        let c = power_grid(100, 20, 1, 4);
        let d = power_grid(100, 20, 1, 4);
        assert!(c.approx_eq(&d, 0.0));
    }
}
