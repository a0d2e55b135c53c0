//! The batched-refactor differential-test layer: every column of a
//! `factor_batch` / `refactor_batch` must carry **exactly the bits** of
//! a scalar `refactor` of that column's matrix — across thread counts
//! (serial and the planned p2p + Even-Rows engines), matrices with and
//! without heavy lower-stage rows (the latter with small solve tiles),
//! batch widths (the SIMD-specialized `k ∈ {1, 4, 8}` and the
//! `DynLanes` fallback widths in between), pivot policies (plain,
//! shift-and-retry, drop-tolerance) and, for the batch's own applies
//! (one pipeline pass over its lane-interleaved values), both
//! triangular-solve engines: panel column `c` ≡ the single-column apply
//! of scenario `c` ≡ a scalar `refactor` + `solve_with`.
//!
//! A deterministic full grid pins the exact configuration matrix the
//! contract names; a proptest sweeps random matrices, widths, thread
//! counts and policies over the same bitwise check.

use javelin_core::{
    ApplyScratch, IluOptions, Preconditioner, SolveEngine, SymbolicIlu, ZeroPivotPolicy,
};
use javelin_sparse::{CooMatrix, CsrMatrix, Panel, PanelMut};
use javelin_synth::grid::laplace_2d;
use javelin_synth::util::{bordered, revalue};
use proptest::prelude::*;

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

fn corners(a: &CsrMatrix<f64>, k: usize, seed: f64) -> Vec<CsrMatrix<f64>> {
    (0..k)
        .map(|c| revalue(a, seed + c as f64 * 0.77, 0.05))
        .collect()
}

/// The three policy corners the contract names.
fn policy_opts(nthreads: usize, policy: usize) -> IluOptions {
    let mut opts = IluOptions::ilu0(nthreads);
    opts.split.min_rows_per_level = 4;
    opts.split.location_frac = 0.0;
    match policy {
        1 => opts.zero_pivot = ZeroPivotPolicy::shift_retry(),
        2 => opts.drop_tol = 0.05,
        _ => {}
    }
    opts
}

const ENGINES: [SolveEngine; 2] = [SolveEngine::Serial, SolveEngine::PointToPointLower];

/// Batch columns vs looped scalar refactors, bitwise, plus — under
/// `check_engines` — the batch's own applies on both engines: the
/// width-`k` panel apply, a panel narrower than `k` and the
/// single-column apply must each carry, per column, the bits of a
/// scalar solve through that scenario's scalar refactor.
fn check_batch_vs_looped(
    sym: &SymbolicIlu<f64>,
    mats: &[&CsrMatrix<f64>],
    check_engines: bool,
) -> Result<(), String> {
    let (n, k) = (mats[0].nrows(), mats.len());
    let batch = sym.factor_batch(mats).map_err(|e| format!("{e:?}"))?;
    let mut scalar = sym.factor(mats[0]).map_err(|e| format!("{e:?}"))?;
    let b: Vec<f64> = (0..n * k)
        .map(|i| ((i * 31 % 23) as f64 - 11.0) * 0.17)
        .collect();
    let narrow = k.div_ceil(2);
    let mut scratch = ApplyScratch::new();
    // Per engine: the full and the narrow panel apply.
    let mut panels = Vec::new();
    if check_engines {
        for engine in ENGINES {
            let m = batch.precond(engine);
            let mut full = vec![0.0; n * k];
            m.apply_panel_with(
                &mut scratch,
                Panel::new(&b, n, k),
                PanelMut::new(&mut full, n, k),
            );
            let mut part = vec![0.0; n * narrow];
            m.apply_panel_with(
                &mut scratch,
                Panel::new(&b[..n * narrow], n, narrow),
                PanelMut::new(&mut part, n, narrow),
            );
            panels.push((engine, full, part));
        }
    }
    for (c, m) in mats.iter().enumerate() {
        scalar.refactor(m).map_err(|e| format!("{e:?}"))?;
        let bb = bits(batch.to_factors(c).lu().vals());
        let sb = bits(scalar.lu().vals());
        if bb != sb {
            return Err(format!("column {c}: batch factor bits != scalar refactor"));
        }
        if batch.stats(c).shift_attempts != scalar.stats().shift_attempts {
            return Err(format!("column {c}: shift_attempts diverged"));
        }
        let col = c * n..(c + 1) * n;
        for (engine, full, part) in &panels {
            let mut xs = vec![0.0; n];
            scalar
                .solve_with(*engine, &b[col.clone()], &mut xs)
                .map_err(|e| format!("{e:?}"))?;
            let mut xc = vec![0.0; n];
            batch
                .precond(*engine)
                .apply_column_with(&mut scratch, c, &b[col.clone()], &mut xc);
            if bits(&xc) != bits(&xs) {
                return Err(format!(
                    "column {c}: {engine:?} single-column apply diverged"
                ));
            }
            if bits(&full[col.clone()]) != bits(&xs) {
                return Err(format!("column {c}: {engine:?} panel apply diverged"));
            }
            if c < narrow && bits(&part[col.clone()]) != bits(&xs) {
                return Err(format!("column {c}: {engine:?} narrow panel diverged"));
            }
        }
    }
    Ok(())
}

/// The pinned grid: matrices {a grid, the grid with heavy border rows
/// and 4-entry solve tiles}, each through Even-Rows + the serial
/// corner × threads {1, 2, 3} × k {1, 2, 4, 5, 8} × policies {plain,
/// ShiftRetry, drop-tolerance}, with the batch's own applies checked on both
/// solve engines in every cell, and a second `refactor_batch` step
/// (new values, same handle) on top.
#[test]
fn pinned_grid_batch_columns_bitwise_equal_scalar_refactor() {
    for border in [false, true] {
        let grid = laplace_2d(13, 13);
        let a = if border { bordered(&grid, 6) } else { grid };
        pinned_grid(&a, border);
    }
}

fn pinned_grid(a: &CsrMatrix<f64>, border: bool) {
    for nthreads in 1..=3usize {
        for k in [1usize, 2, 4, 5, 8] {
            for policy in 0..3 {
                let opts = policy_opts(nthreads, policy);
                let sym = SymbolicIlu::analyze(a, &opts).unwrap();
                if border {
                    assert!(sym.stats().n_lower_rows >= 6, "border rows demoted");
                }
                let cs = corners(a, k, 0.3);
                let mats: Vec<&CsrMatrix<f64>> = cs.iter().collect();
                check_batch_vs_looped(&sym, &mats, true).unwrap_or_else(|e| {
                    panic!("border={border} nthreads={nthreads} k={k} policy={policy}: {e}")
                });
                // Second step through the same batch handle: the
                // numeric-only refactor_batch path.
                let mut batch = sym.factor_batch(&mats).unwrap();
                let cs2 = corners(a, k, 7.3);
                let mats2: Vec<&CsrMatrix<f64>> = cs2.iter().collect();
                batch.refactor_batch(&mats2).unwrap();
                assert!(batch.all_ok());
                let mut scalar = sym.factor(a).unwrap();
                for (c, m) in mats2.iter().enumerate() {
                    scalar.refactor(m).unwrap();
                    assert_eq!(
                        bits(batch.to_factors(c).lu().vals()),
                        bits(scalar.lu().vals()),
                        "refactor_batch border={border} nthreads={nthreads} k={k} policy={policy} column {c}"
                    );
                }
            }
        }
    }
}

/// Random diagonally dominant square matrix with full diagonal (the
/// same strategy the factors proptests use).
fn arb_matrix(n_max: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (4..n_max).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.05..1.0f64), n..n * 4).prop_map(move |trips| {
            let mut coo = CooMatrix::new(n, n);
            let mut rowsum = vec![0.0f64; n];
            for (r, c, v) in &trips {
                if r != c {
                    coo.push(*r, *c, -*v).unwrap();
                    rowsum[*r] += v;
                }
            }
            for (r, item) in rowsum.iter().enumerate() {
                coo.push(r, r, item + 1.0).unwrap();
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random matrices through the same differential check: batch
    /// column c carries the bits of a scalar refactor of matrix c,
    /// whatever the width, thread count or pivot policy.
    #[test]
    fn batch_columns_bitwise_equal_scalar_refactor(
        a in arb_matrix(24),
        nthreads in 1usize..4,
        k_idx in 0usize..5,
        policy in 0usize..3,
        seed in 0.1..2.0f64,
    ) {
        let k = [1usize, 2, 4, 5, 8][k_idx];
        let opts = policy_opts(nthreads, policy);
        let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
        let cs = corners(&a, k, seed);
        let mats: Vec<&CsrMatrix<f64>> = cs.iter().collect();
        if let Err(e) = check_batch_vs_looped(&sym, &mats, false) {
            prop_assert!(false, "nthreads={} k={} policy={}: {}", nthreads, k, policy, e);
        }
    }
}
