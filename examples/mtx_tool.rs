//! Matrix Market workflow: run Javelin on *real* matrices.
//!
//! Point this at any SuiteSparse `.mtx` file (e.g. the paper's actual
//! test suite) to reproduce the experiments on the original inputs:
//!
//! ```text
//! cargo run --release --example mtx_tool -- path/to/matrix.mtx
//! ```
//!
//! Without an argument it demonstrates the round trip on a generated
//! matrix written to a temporary file.

use javelin::level::LevelSets;
use javelin::prelude::*;
use javelin::sparse::io::{read_matrix_market, write_matrix_market};
use javelin::sparse::pattern::lower_symmetrized_pattern;
use javelin::synth::grid::convection_diffusion_2d;
use javelin_bench::harness::preorder_dm_nd;

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            let tmp = std::env::temp_dir().join("javelin_demo.mtx");
            let demo = convection_diffusion_2d(48, 48, 30.0, -12.0);
            write_matrix_market(&tmp, &demo).expect("write demo matrix");
            println!(
                "(no argument given; wrote a demo matrix to {})",
                tmp.display()
            );
            tmp.to_string_lossy().into_owned()
        }
    };
    let raw = read_matrix_market::<f64>(&path).expect("readable Matrix Market file");
    println!(
        "{path}: {} x {}, {} nonzeros, rd {:.2}, symmetric pattern: {}",
        raw.nrows(),
        raw.ncols(),
        raw.nnz(),
        raw.row_density(),
        raw.is_pattern_symmetric()
    );
    let a = preorder_dm_nd(&raw);
    let levels = LevelSets::compute_lower(&lower_symmetrized_pattern(&a));
    let st = levels.stats();
    println!(
        "after DM+ND: {} levels (min {}, median {}, max {})",
        st.n_levels, st.min, st.median, st.max
    );
    // One Session owns the matrix, the two-phase factorization and
    // every workspace — analyze + factor here, solve below.
    let t0 = std::time::Instant::now();
    let mut session = Session::builder().build(&a).expect("ILU(0)");
    println!(
        "ILU(0) in {:.2?}; {} lower-stage rows, {:.0}% of raw deps pruned",
        t0.elapsed(),
        session.stats().n_lower_rows,
        100.0 * session.stats().wait_sparsification()
    );
    let n = a.nrows();
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];
    let res = session.krylov(Method::Gmres, &b, &mut x).expect("shapes");
    println!(
        "GMRES(50) + ILU(0): converged = {}, iterations = {}, relres = {:.2e}",
        res.converged, res.iterations, res.relative_residual
    );
}
