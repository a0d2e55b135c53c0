//! Matrix Market round-trip integration: every suite matrix survives
//! write → read → factor with identical results, so experiments run on
//! the bundled synthetic suite and on real `.mtx` inputs through the
//! very same code path.

use javelin::core::{factorize, IluOptions};
use javelin::sparse::io::{read_matrix_market_from, write_matrix_market_to};
use javelin::sparse::{CsrMatrix, SparseError};
use javelin::synth::suite::paper_suite;

#[test]
fn suite_roundtrips_through_matrix_market() {
    for meta in paper_suite().into_iter().take(8) {
        let a = meta.build_tiny();
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &a).expect("write");
        let b: CsrMatrix<f64> = read_matrix_market_from(buf.as_slice()).expect("read");
        assert_eq!(a.nrows(), b.nrows(), "{}", meta.name);
        assert_eq!(a.nnz(), b.nnz(), "{}", meta.name);
        assert!(a.approx_eq(&b, 1e-12), "{}: values drifted", meta.name);
    }
}

#[test]
fn factorization_identical_after_roundtrip() {
    let meta = &paper_suite()[3]; // ibm-like, nonsymmetric pattern
    let a = meta.build_tiny();
    let mut buf = Vec::new();
    write_matrix_market_to(&mut buf, &a).expect("write");
    let b: CsrMatrix<f64> = read_matrix_market_from(buf.as_slice()).expect("read");
    let fa = factorize(&a, &IluOptions::default()).expect("factor a");
    let fb = factorize(&b, &IluOptions::default()).expect("factor b");
    // Same permutation and near-identical values (write/read loses at
    // most the last ulp through decimal formatting; we print with {:e}
    // which is exact for f64 -> decimal -> f64? Not guaranteed — allow
    // tiny drift).
    assert_eq!(
        fa.symbolic().perm().new_to_old(),
        fb.symbolic().perm().new_to_old()
    );
    assert!(fa.lu().approx_eq(fb.lu(), 1e-9));
}

fn parse(text: &str) -> Result<CsrMatrix<f64>, SparseError> {
    read_matrix_market_from(text.as_bytes())
}

#[test]
fn malformed_matrix_market_inputs_are_rejected() {
    // Every hostile input must come back as a structured error — never
    // a panic, never a silently wrong matrix.

    // Wrong banner.
    assert!(matches!(
        parse("%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"),
        Err(SparseError::Io(_))
    ));
    // Unsupported field / symmetry keywords.
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.0 0.0\n"),
        Err(SparseError::Io(_))
    ));
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 2.0\n"),
        Err(SparseError::Io(_))
    ));
    // Garbage size line.
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n2 two 1\n1 1 2.0\n"),
        Err(SparseError::Io(_))
    ));
    // Entry-count header that overflows any plausible buffer.
    let huge = format!(
        "%%MatrixMarket matrix coordinate real general\n{} {} {}\n",
        usize::MAX,
        usize::MAX,
        usize::MAX
    );
    assert!(matches!(parse(&huge), Err(SparseError::Io(_))));
    // Truncated entry list (header promises 2, file has 1).
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n"),
        Err(SparseError::Io(_))
    ));
    // Short entry line and unparsable value.
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"),
        Err(SparseError::Io(_))
    ));
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 fast\n"),
        Err(SparseError::Io(_))
    ));
    // 0-based and out-of-range indices.
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 2.0\n"),
        Err(SparseError::Io(_))
    ));
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 2.0\n"),
        Err(SparseError::IndexOutOfBounds { .. })
    ));
    // Non-finite payloads are stopped at the boundary, with coordinates.
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 NaN\n"),
        Err(SparseError::NonFinite { row: 0, col: 1 })
    ));
    assert!(matches!(
        parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 inf\n"),
        Err(SparseError::NonFinite { row: 1, col: 0 })
    ));
    // Empty stream.
    assert!(matches!(parse(""), Err(SparseError::Io(_))));
}
