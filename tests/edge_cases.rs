//! Cross-crate edge cases: degenerate shapes the pipeline must handle
//! gracefully — 1×1 systems, diagonal matrices, single long chains,
//! matrices where everything lands in one level, and pathological
//! option combinations.

use javelin::core::options::SolveEngine;
use javelin::core::{factorize, IluOptions, ZeroPivotPolicy};
use javelin::sparse::pattern::LevelPattern;
use javelin::sparse::{CooMatrix, CsrMatrix, SparseError};

fn solve_roundtrip(a: &CsrMatrix<f64>, opts: &IluOptions) {
    let f = factorize(a, opts).expect("factorization");
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    for engine in [SolveEngine::Serial, SolveEngine::PointToPointLower] {
        let mut x = vec![0.0; n];
        f.solve_with(engine, &b, &mut x).expect("solve");
        assert!(x.iter().all(|v| v.is_finite()), "{engine}");
    }
}

#[test]
fn empty_matrix_factorizes_and_solves() {
    // 0×0: every phase must degrade to a no-op, not an index panic.
    let a = CooMatrix::<f64>::new(0, 0).to_csr();
    for nthreads in [1usize, 3] {
        let f = factorize(&a, &IluOptions::ilu0(nthreads)).expect("empty factorization");
        let mut x: Vec<f64> = vec![];
        f.solve_into(&[], &mut x).expect("empty solve");
        assert!(x.is_empty());
        solve_roundtrip(&a, &IluOptions::ilu0(nthreads));
    }
}

#[test]
fn all_zero_row_needs_a_pivot_policy() {
    // Row 3 carries structural entries whose values are all zero. The
    // strict policy must name the breakdown; Replace (the default) and
    // ShiftRetry must both produce finite factors and finite solves.
    let n = 20;
    let build = || {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let v = if i == 3 { 0.0 } else { 4.0 };
            coo.push(i, i, v).unwrap();
            if i > 0 {
                let v = if i == 3 { 0.0 } else { -1.0 };
                coo.push(i, i - 1, v).unwrap();
            }
        }
        coo.to_csr()
    };
    let a = build();
    let strict = IluOptions::ilu0(2).with_zero_pivot(ZeroPivotPolicy::Error);
    assert!(
        matches!(factorize(&a, &strict), Err(SparseError::ZeroPivot { .. })),
        "strict policy must fail on the all-zero row"
    );
    solve_roundtrip(&a, &IluOptions::ilu0(2)); // default Replace policy
    solve_roundtrip(
        &a,
        &IluOptions::ilu0(2).with_zero_pivot(ZeroPivotPolicy::shift_retry()),
    );
}

#[test]
fn fully_dense_row_and_column() {
    // One row (and its mirror column) touching every index: the worst
    // case for fill and for the two-stage split heuristics.
    let n = 30;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 40.0).unwrap();
    }
    for j in 0..n {
        if j != n - 1 {
            coo.push(n - 1, j, -0.5).unwrap(); // dense last row
            coo.push(j, n - 1, -0.25).unwrap(); // dense last column
        }
    }
    let a = coo.to_csr();
    for nthreads in [1usize, 4] {
        solve_roundtrip(&a, &IluOptions::ilu0(nthreads));
        solve_roundtrip(&a, &IluOptions::ilu0(nthreads).with_fill(2));
    }
}

#[test]
fn exactly_singular_two_by_two() {
    // [[1, 1], [1, 1]]: the second pivot is exactly 1 − 1·1 = 0 after
    // elimination — a *produced* zero, not a structural one.
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, 1.0).unwrap();
    coo.push(0, 1, 1.0).unwrap();
    coo.push(1, 0, 1.0).unwrap();
    coo.push(1, 1, 1.0).unwrap();
    let a = coo.to_csr();
    let strict = IluOptions::default().with_zero_pivot(ZeroPivotPolicy::Error);
    assert!(
        matches!(factorize(&a, &strict), Err(SparseError::ZeroPivot { .. })),
        "exact singularity must surface under the strict policy"
    );
    // Replace and ShiftRetry both recover with finite factors.
    solve_roundtrip(&a, &IluOptions::default());
    let retry = IluOptions::default().with_zero_pivot(ZeroPivotPolicy::shift_retry());
    let f = factorize(&a, &retry).unwrap();
    assert!(f.stats().shift_attempts > 1, "recovery must have retried");
    assert!(f.stats().diag_shift > 0.0);
    solve_roundtrip(&a, &retry);
}

#[test]
fn one_by_one_system() {
    let mut coo = CooMatrix::new(1, 1);
    coo.push(0, 0, 5.0).unwrap();
    let a = coo.to_csr();
    for nthreads in [1usize, 4] {
        let f = factorize(&a, &IluOptions::ilu0(nthreads)).unwrap();
        let mut x = vec![0.0];
        f.solve_into(&[10.0], &mut x).unwrap();
        assert_eq!(x, vec![2.0]);
    }
}

#[test]
fn pure_diagonal_matrix_single_level() {
    let n = 50;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, (i + 1) as f64).unwrap();
    }
    let a = coo.to_csr();
    let f = factorize(&a, &IluOptions::ilu0(4)).unwrap();
    assert_eq!(f.stats().n_levels, 1);
    assert_eq!(f.stats().n_waits, 0, "diagonal has no dependencies");
    solve_roundtrip(&a, &IluOptions::ilu0(4));
}

#[test]
fn pure_chain_every_row_its_own_level() {
    let n = 60;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0).unwrap();
        if i > 0 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
    }
    let a = coo.to_csr();
    // lower(A) pattern: n levels of one row each.
    let mut opts = IluOptions::ilu0(3);
    opts.level_pattern = LevelPattern::LowerA;
    let f = factorize(&a, &opts).unwrap();
    assert!(f.stats().n_levels >= n - f.stats().n_lower_rows);
    solve_roundtrip(&a, &opts);
}

#[test]
fn everything_demoted_to_lower_stage_is_prevented() {
    // Even with absurd split settings, level 0 must stay in the upper
    // stage (the split never demotes everything).
    let n = 40;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0).unwrap();
        if i > 0 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
    }
    let a = coo.to_csr();
    let mut opts = IluOptions::ilu0(2);
    opts.split.min_rows_per_level = usize::MAX;
    opts.split.location_frac = 0.0;
    opts.split.max_lower_frac = 1.0;
    let f = factorize(&a, &opts).unwrap();
    assert!(f.symbolic().plan().n_upper >= 1, "level 0 must survive");
    solve_roundtrip(&a, &opts);
}

#[test]
fn more_threads_than_rows() {
    let mut coo = CooMatrix::new(3, 3);
    for i in 0..3 {
        coo.push(i, i, 1.0 + i as f64).unwrap();
    }
    coo.push(2, 0, -0.5).unwrap();
    let a = coo.to_csr();
    solve_roundtrip(&a, &IluOptions::ilu0(16));
}

#[test]
fn two_threads_on_matrix_without_lower_stage() {
    // A team of two but the split demotes nothing: the lower-stage and
    // corner sweeps must degrade cleanly to no-ops.
    let n = 30;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 3.0).unwrap();
    }
    let a = coo.to_csr();
    let opts = IluOptions::ilu0(2);
    let f = factorize(&a, &opts).unwrap();
    assert_eq!(f.stats().n_lower_rows, 0);
    solve_roundtrip(&a, &opts);
}

#[test]
fn dense_small_matrix_all_engines() {
    let n = 12;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for j in 0..n {
            let v = if i == j {
                20.0
            } else {
                -0.5 - ((i * n + j) % 7) as f64 * 0.1
            };
            coo.push(i, j, v).unwrap();
        }
    }
    let a = coo.to_csr();
    for nthreads in [1usize, 2, 5] {
        solve_roundtrip(&a, &IluOptions::ilu0(nthreads));
    }
}

/// A banded matrix whose lower stage gets real work: the 3-thread
/// factor carries the 1-thread factor's bits, and the threaded apply
/// carries the Serial apply's.
#[test]
fn banded_lower_stage_factor_and_apply_are_bitwise_serial() {
    let n = 80;
    let mut coo = CooMatrix::<f64>::new(n, n);
    for i in 0..n {
        coo.push(i, i, 9.0).unwrap();
        if i > 4 {
            for d in 1..=4 {
                coo.push(i, i - d, -0.5).unwrap();
            }
        }
    }
    let a = coo.to_csr();
    let mut opts = IluOptions::ilu0(3);
    opts.split.min_rows_per_level = 8;
    opts.split.location_frac = 0.0;
    let mut serial_same_split = opts.clone();
    serial_same_split.nthreads = 1;
    let f_ser = factorize(&a, &serial_same_split).unwrap();
    let f_par = factorize(&a, &opts).unwrap();
    let bs: Vec<u64> = f_ser.lu().vals().iter().map(|v| v.to_bits()).collect();
    let bp: Vec<u64> = f_par.lu().vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bs, bp);
    assert!(f_par.stats().n_lower_rows > 0, "lower stage must run");
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
    let solve = |engine| {
        let mut x = vec![0.0; n];
        f_par.solve_with(engine, &b, &mut x).unwrap();
        x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    assert_eq!(
        solve(SolveEngine::PointToPointLower),
        solve(SolveEngine::Serial)
    );
}

#[test]
fn failed_refactor_keeps_previous_factor_and_lu_tracks_success() {
    // The scalar keep-previous contract, carried by the factor storage's
    // masked commit: a refactor whose pivot collapses under the strict
    // policy leaves the committed values (and the lazy `lu()` view of
    // them) and every statistic exactly as they were; the next
    // successful refactor refreshes a view read before it. Serially and
    // through Even-Rows + the serial corner over heavy border rows.
    let a = javelin::synth::util::bordered(&javelin::synth::grid::laplace_2d(12, 12), 6);
    let a2 = javelin::synth::util::revalue(&a, 0.37, 0.01);
    // Pattern-identical, every diagonal zero: whatever the ordering, the
    // first row's pivot is its own diagonal and collapses.
    let mut singular = a.clone();
    for p in a.diag_positions().unwrap() {
        singular.vals_mut()[p] = 0.0;
    }
    let bits = |f: &javelin::core::IluFactors<f64>| -> Vec<u64> {
        f.lu().vals().iter().map(|v| v.to_bits()).collect()
    };
    for nthreads in [1usize, 2, 3] {
        let at = format!("threads={nthreads}");
        let opts = IluOptions::ilu0(nthreads).with_zero_pivot(ZeroPivotPolicy::Error);
        let sym = javelin::core::SymbolicIlu::analyze(&a, &opts).unwrap();
        assert!(sym.stats().n_lower_rows > 0, "{at}: lower stage must run");
        let mut f = sym.factor(&a).unwrap();
        let (before, stats) = (bits(&f), format!("{:?}", f.stats()));
        assert!(
            matches!(f.refactor(&singular), Err(SparseError::ZeroPivot { .. })),
            "{at}"
        );
        assert_eq!(bits(&f), before, "{at}: failed refactor changed lu()");
        assert_eq!(format!("{:?}", f.stats()), stats, "{at}: stats changed");
        f.refactor(&a2).unwrap();
        assert_eq!(
            bits(&f),
            bits(&sym.factor(&a2).unwrap()),
            "{at}: stale lu()"
        );
    }
}
