//! The preconditioner abstraction consumed by `javelin-solver`.

use crate::batch_factor::FactorsBatch;
use crate::factors::IluFactors;
use crate::options::SolveEngine;
use javelin_sparse::{Panel, PanelMut, Scalar};
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU64;

/// Caller-owned scratch for [`Preconditioner::apply_with`]: a buffer an
/// application may work in instead of allocating. The ILU factors'
/// engines, Serial and threaded alike, solve an `n × k` panel in its
/// first `n·k` entries, so this is the only place an apply keeps
/// width-sized state. Grow-only — sized by the widest apply seen,
/// reused verbatim by every narrower one — so a Krylov solver keeps one
/// of these (inside its `SolverWorkspace`) across solves of any widths.
#[derive(Debug, Default)]
pub struct ApplyScratch<T> {
    pub(crate) buf: Vec<T>,
    /// Debug builds: the threaded apply that last wrote each solution
    /// entry (`c·n + original row`), checked to be written exactly once
    /// per apply; one stamp per buffer entry.
    #[cfg(debug_assertions)]
    pub(crate) written: Vec<AtomicU64>,
    /// Debug builds: the epoch of the latest threaded apply.
    #[cfg(debug_assertions)]
    pub(crate) epoch: u64,
}

impl<T: Scalar> ApplyScratch<T> {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer of at least `n` entries (contents unspecified); debug
    /// builds grow the write stamps with it.
    pub fn buffer(&mut self, n: usize) -> &mut Vec<T> {
        if self.buf.len() < n {
            self.buf.resize(n, T::ZERO);
        }
        #[cfg(debug_assertions)]
        if self.written.len() < n {
            self.written.resize_with(n, AtomicU64::default);
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

    // The apply pipeline grows `scratch` to the panel's size itself.
    fn apply_column_with(&self, scratch: &mut ApplyScratch<T>, col: usize, r: &[T], z: &mut [T]) {
        let (r, z) = (Panel::from_col(r), PanelMut::from_col(z));
        self.batch
            .solve(self.engine, col, scratch, r, z)
            .expect("preconditioner buffers sized by the solver");
    }

    fn apply_panel_with(&self, scratch: &mut ApplyScratch<T>, r: Panel<'_, T>, z: PanelMut<'_, T>) {
        self.batch
            .solve(self.engine, 0, scratch, r, z)
            .expect("preconditioner buffers sized by the solver");
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
}
