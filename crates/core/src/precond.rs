//! The preconditioner abstraction consumed by `javelin-solver`.

use crate::batch_factor::FactorsBatch;
use crate::factors::IluFactors;
use crate::options::SolveEngine;
use javelin_sparse::{CsrMatrix, Panel, PanelMut, Scalar};

/// Caller-owned scratch for [`Preconditioner::apply_with`]: a buffer an
/// application may work in instead of allocating (the ILU factors'
/// Serial engine solves in it). Grow-only — sized by the widest apply
/// seen, reused verbatim by every narrower one — so a Krylov solver
/// keeps one of these (inside its `SolverWorkspace`) across solves of
/// any widths.
#[derive(Debug, Clone, Default)]
pub struct ApplyScratch<T> {
    buf: Vec<T>,
}

impl<T: Scalar> ApplyScratch<T> {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        ApplyScratch { buf: Vec::new() }
    }

    /// A buffer of at least `n` entries (contents unspecified).
    pub fn buffer(&mut self, n: usize) -> &mut Vec<T> {
        if self.buf.len() < n {
            self.buf.resize(n, T::ZERO);
        }
        &mut self.buf
    }
}

/// Application of `z = M⁻¹·r` inside a Krylov iteration.
///
/// # Panics
/// Implementations panic on length mismatches (the solver owns the
/// buffers, so a mismatch is a programming error, not a data error).
pub trait Preconditioner<T: Scalar>: Sync {
    /// Applies the preconditioner: `z ← M⁻¹ r`.
    fn apply(&self, r: &[T], z: &mut [T]);

    /// Applies the preconditioner with caller-owned scratch, so
    /// implementations that need working memory (e.g. the ILU factors'
    /// Serial solve buffer) can run allocation-free in the steady state.
    /// The default falls back to [`Preconditioner::apply`]; stateless
    /// implementations need not override it.
    fn apply_with(&self, scratch: &mut ApplyScratch<T>, r: &[T], z: &mut [T]) {
        let _ = scratch;
        self.apply(r, z);
    }

    /// Applies the preconditioner to **panel column `col`**: `z ← M⁻¹ r`
    /// where `r` is column `col` of a batched solve. Most
    /// preconditioners are column-oblivious and the default simply
    /// forwards to [`Preconditioner::apply_with`]; per-scenario
    /// preconditioners (one operator per batch column: an
    /// [`EnginePinned`] from [`FactorsBatch::precond`]) override this
    /// to dispatch on `col`. Batched solvers route every single-column
    /// apply through this method so scenario dispatch reaches
    /// restart/finalization paths too.
    fn apply_column_with(&self, scratch: &mut ApplyScratch<T>, col: usize, r: &[T], z: &mut [T]) {
        let _ = col;
        self.apply_with(scratch, r, z);
    }

    /// Applies the preconditioner to a whole RHS panel: `Z ← M⁻¹ R`,
    /// column for column. Implementations with a genuine multi-RHS path
    /// (the ILU factors' panel trisolve) override this so one schedule
    /// walk — or one factor stream — retires all `k` columns; the
    /// default simply loops
    /// [`Preconditioner::apply_column_with`] over the columns, which is
    /// always correct because the contract requires column `c` of the
    /// panel result to be **bit-identical** to a single-RHS apply of
    /// column `c` — batched solvers rely on that equivalence.
    fn apply_panel_with(
        &self,
        scratch: &mut ApplyScratch<T>,
        r: Panel<'_, T>,
        mut z: PanelMut<'_, T>,
    ) {
        for c in 0..r.ncols() {
            self.apply_column_with(scratch, c, r.col(c), z.col_mut(c));
        }
    }
}

/// The identity preconditioner (`M = I`) — turns PCG into CG.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl<T: Scalar> Preconditioner<T> for IdentityPrecond {
    fn apply(&self, r: &[T], z: &mut [T]) {
        z.copy_from_slice(r);
    }
}

impl<T: Scalar> Preconditioner<T> for IluFactors<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        self.with_engine(self.default_engine()).apply(r, z);
    }

    fn apply_with(&self, scratch: &mut ApplyScratch<T>, r: &[T], z: &mut [T]) {
        self.with_engine(self.default_engine())
            .apply_with(scratch, r, z);
    }

    fn apply_panel_with(&self, scratch: &mut ApplyScratch<T>, r: Panel<'_, T>, z: PanelMut<'_, T>) {
        self.with_engine(self.default_engine())
            .apply_panel_with(scratch, r, z);
    }
}

/// A factor object applied through an explicitly pinned
/// triangular-solve engine — the one [`Preconditioner`] view of the
/// crate's factor storage. Obtain with [`IluFactors::with_engine`] (the
/// form session-style callers hand to Krylov solvers when the engine
/// choice must not follow [`IluFactors::default_engine`]) or
/// [`FactorsBatch::precond`]. Borrowed, copyable and engine-stable.
///
/// Every apply is **one** pass of the apply pipeline over the stored
/// values — one gather, one schedule walk (Serial: one stream over
/// `colidx` + values for the whole panel), one scatter. Over
/// [`IluFactors`] (`k = 1`) the one factor serves every panel column;
/// over a [`FactorsBatch`] of `k > 1` scenarios, panel column `c` is
/// preconditioned by scenario `c` — each column is a different
/// scenario's linear system — and a single-column apply
/// ([`Preconditioner::apply_column_with`], what batched GMRES's
/// per-column finalization issues) reads scenario `col`'s lane. Column
/// `c` carries exactly the bits of a scalar solve through its factors
/// either way. Single-vector applies ([`Preconditioner::apply`] /
/// [`Preconditioner::apply_with`]) use scenario 0 — batched drivers
/// never call them on a batch, but the trait requires a meaningful
/// fallback.
#[derive(Clone, Copy)]
pub struct EnginePinned<'a, T> {
    pub(crate) batch: &'a FactorsBatch<T>,
    pub(crate) engine: SolveEngine,
}

impl<T: Scalar> Preconditioner<T> for EnginePinned<'_, T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        self.apply_with(&mut ApplyScratch::new(), r, z);
    }

    fn apply_with(&self, scratch: &mut ApplyScratch<T>, r: &[T], z: &mut [T]) {
        self.apply_column_with(scratch, 0, r, z);
    }

    // `buffer(0)`: the apply pipeline sizes the buffer itself, and only
    // on the engine that works in it.
    fn apply_column_with(&self, scratch: &mut ApplyScratch<T>, col: usize, r: &[T], z: &mut [T]) {
        let (r, z) = (Panel::from_col(r), PanelMut::from_col(z));
        self.batch
            .solve(self.engine, col, scratch.buffer(0), r, z)
            .expect("preconditioner buffers sized by the solver");
    }

    fn apply_panel_with(&self, scratch: &mut ApplyScratch<T>, r: Panel<'_, T>, z: PanelMut<'_, T>) {
        self.batch
            .solve(self.engine, 0, scratch.buffer(0), r, z)
            .expect("preconditioner buffers sized by the solver");
    }
}

/// Symmetric successive over-relaxation (SSOR) preconditioning:
/// `M = (D/ω + L)·(D/ω)⁻¹·(D/ω + U) · ω/(2-ω)`.
///
/// The paper names spmv-driven preconditioners like successive
/// over-relaxation as the future work its spmv kernels target (§VI);
/// this implements that preconditioner on the same CSR substrate —
/// forward sweep with the strict lower part, diagonal scaling, backward
/// sweep with the strict upper part, no factorization at all.
#[derive(Debug, Clone)]
pub struct SsorPrecond<T> {
    a: CsrMatrix<T>,
    diag_pos: Vec<usize>,
    omega: T,
}

impl<T: Scalar> SsorPrecond<T> {
    /// Builds SSOR with relaxation factor `omega ∈ (0, 2)`.
    ///
    /// # Errors
    /// Propagates [`javelin_sparse::SparseError`] when the matrix is not
    /// square or misses structural diagonal entries.
    pub fn new(a: &CsrMatrix<T>, omega: f64) -> Result<Self, javelin_sparse::SparseError> {
        assert!(omega > 0.0 && omega < 2.0, "SSOR needs omega in (0, 2)");
        let diag_pos = a.diag_positions()?;
        Ok(SsorPrecond {
            a: a.clone(),
            diag_pos,
            omega: T::from_f64(omega),
        })
    }

    /// The relaxation factor.
    pub fn omega(&self) -> f64 {
        self.omega.to_f64()
    }
}

impl<T: Scalar> Preconditioner<T> for SsorPrecond<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        let n = self.a.nrows();
        assert_eq!(r.len(), n, "ssor: length mismatch");
        assert_eq!(z.len(), n, "ssor: length mismatch");
        let vals = self.a.vals();
        let colidx = self.a.colidx();
        let rowptr = self.a.rowptr();
        let w = self.omega;
        // Forward sweep: (D/ω + L) y = r.
        for i in 0..n {
            let mut sum = r[i];
            for k in rowptr[i]..self.diag_pos[i] {
                sum -= vals[k] * z[colidx[k]];
            }
            z[i] = sum * w / vals[self.diag_pos[i]];
        }
        // Scale: y ← (D/ω) y.
        for i in 0..n {
            z[i] = z[i] * vals[self.diag_pos[i]] / w;
        }
        // Backward sweep: (D/ω + U) z = y.
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in (self.diag_pos[i] + 1)..rowptr[i + 1] {
                sum -= vals[k] * z[colidx[k]];
            }
            z[i] = sum * w / vals[self.diag_pos[i]];
        }
        // Symmetrizing scale ω/(2-ω) ≈ folded into the sweeps above for
        // preconditioning purposes (a constant scaling of M does not
        // change Krylov convergence for CG/GMRES with exact arithmetic,
        // but keep it for fidelity).
        let scale = (T::from_f64(2.0) - w) / w;
        for zi in z.iter_mut() {
            *zi *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    #[test]
    fn identity_copies() {
        let p = IdentityPrecond;
        let r = vec![1.0, -2.0, 3.0];
        let mut z = vec![0.0; 3];
        Preconditioner::<f64>::apply(&p, &r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn ilu_factors_implement_preconditioner() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0).unwrap();
        }
        let a = coo.to_csr();
        let f = crate::factorize(&a, &crate::IluOptions::default()).unwrap();
        let mut z = vec![0.0; 3];
        f.apply(&[2.0, 4.0, 6.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn apply_scratch_is_grow_only_across_widths() {
        // Serial engine, one scratch: a width-8 apply grows the buffer
        // to 8n; a single-column apply after it (what the batched GMRES
        // driver issues per column at every cycle exit) must neither
        // shrink nor move it, and the next width-8 apply must not care.
        let a = javelin_synth::grid::laplace_2d(12, 12);
        let (n, k) = (a.nrows(), 8);
        let f = crate::factorize(&a, &crate::IluOptions::default()).unwrap();
        let m = f.with_engine(SolveEngine::Serial);
        let r = javelin_synth::util::rhs_panel(n, k, 7);
        let wide = |scratch: &mut ApplyScratch<f64>| {
            let mut z = vec![0.0; n * k];
            m.apply_panel_with(scratch, Panel::new(&r, n, k), PanelMut::new(&mut z, n, k));
            z.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        let mut scratch = ApplyScratch::new();
        let fresh = wide(&mut scratch);
        let (len, ptr) = (scratch.buffer(0).len(), scratch.buffer(0).as_ptr());
        assert_eq!(len, n * k);
        let mut z1 = vec![0.0; n];
        m.apply_with(&mut scratch, &r[..n], &mut z1);
        assert_eq!(
            scratch.buffer(0).len(),
            len,
            "narrow apply shrank the buffer"
        );
        assert_eq!(
            scratch.buffer(0).as_ptr(),
            ptr,
            "narrow apply moved the buffer"
        );
        assert_eq!(wide(&mut scratch), fresh, "reused vs fresh scratch");
        assert_eq!(scratch.buffer(0).as_ptr(), ptr);
    }

    fn tridiag(n: usize) -> CsrMatrix<f64> {
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
    fn ssor_diagonal_matrix_is_jacobi_like() {
        // On a pure diagonal, SSOR(ω=1) reduces to exact inversion.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(2, 2, 8.0).unwrap();
        let p = SsorPrecond::new(&coo.to_csr(), 1.0).unwrap();
        let mut z = vec![0.0; 3];
        p.apply(&[2.0, 4.0, 8.0], &mut z);
        assert_eq!(z, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn ssor_gauss_seidel_identity_on_tridiag() {
        // ω = 1 (symmetric Gauss–Seidel): M = (D+L) D^{-1} (D+U); verify
        // by applying M to the computed z and comparing with r.
        let a = tridiag(12);
        let p = SsorPrecond::new(&a, 1.0).unwrap();
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut z = vec![0.0; n];
        p.apply(&r, &mut z);
        // M z: backward op first... reconstruct M z = (D+L) D^{-1} (D+U) z.
        let dp = a.diag_positions().unwrap();
        let mut t = vec![0.0; n]; // t = (D+U) z
        for i in 0..n {
            let mut s = 0.0;
            for k in dp[i]..a.rowptr()[i + 1] {
                s += a.vals()[k] * z[a.colidx()[k]];
            }
            t[i] = s;
        }
        for ti in t.iter_mut().zip(dp.iter()) {
            *ti.0 /= a.vals()[*ti.1]; // D^{-1}
        }
        let mut mz = vec![0.0; n]; // (D+L) t
        for i in 0..n {
            let mut s = 0.0;
            for k in a.rowptr()[i]..=dp[i] {
                s += a.vals()[k] * t[a.colidx()[k]];
            }
            mz[i] = s;
        }
        for (got, want) in mz.iter().zip(r.iter()) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn ssor_preconditions_cg_style_iteration() {
        // Richardson iteration with SSOR must contract on an SPD system.
        let a = tridiag(30);
        let p = SsorPrecond::new(&a, 1.2).unwrap();
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut z = vec![0.0; n];
        let first = (n as f64).sqrt(); // ||b - A·0||
        let mut last = f64::INFINITY;
        for _ in 0..60 {
            let ax = a.spmv(&x);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
            let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(rn <= last * 1.001, "not contracting: {rn} > {last}");
            last = rn;
            p.apply(&r, &mut z);
            for (xi, zi) in x.iter_mut().zip(&z) {
                *xi += zi;
            }
        }
        // SSOR-Richardson on a 1D Laplacian converges slowly but must
        // clearly make progress: halve the residual over 60 sweeps.
        assert!(last < 0.5 * first, "Richardson stalled: {last} vs {first}");
    }

    #[test]
    #[should_panic(expected = "omega")]
    fn ssor_rejects_bad_omega() {
        let a = tridiag(4);
        let _ = SsorPrecond::new(&a, 2.5);
    }
}
