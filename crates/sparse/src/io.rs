//! Matrix Market I/O.
//!
//! The paper evaluates on SuiteSparse matrices distributed in Matrix
//! Market (`.mtx`) format. This reader/writer supports the subset those
//! files use: `matrix coordinate {real|integer|pattern}
//! {general|symmetric|skew-symmetric}` with `%` comments. A user holding
//! the original test matrices can reproduce every experiment on the real
//! inputs by pointing the bench binaries at a directory of `.mtx` files.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Symmetry declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; `(j,i)` implied equal to `(i,j)`.
    Symmetric,
    /// Lower triangle stored; `(j,i)` implied equal to `-(i,j)`.
    SkewSymmetric,
}

/// Value field declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MmField {
    /// Floating-point values.
    Real,
    /// Integer values (read as floats).
    Integer,
    /// Structure only; values set to 1.
    Pattern,
}

/// Reads a Matrix Market file from a path.
///
/// # Errors
/// [`SparseError::Io`] on file-system or parse failures.
pub fn read_matrix_market<T: Scalar>(path: impl AsRef<Path>) -> Result<CsrMatrix<T>, SparseError> {
    let f = std::fs::File::open(path.as_ref())
        .map_err(|e| SparseError::Io(format!("{}: {e}", path.as_ref().display())))?;
    read_matrix_market_from(BufReader::new(f))
}

/// Reads a Matrix Market stream.
///
/// # Errors
/// [`SparseError::Io`] on malformed headers or entries.
pub fn read_matrix_market_from<T: Scalar, R: Read>(reader: R) -> Result<CsrMatrix<T>, SparseError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::Io("empty matrix market stream".into()))?
        .map_err(|e| SparseError::Io(e.to_string()))?;
    let head_l = header.to_ascii_lowercase();
    let toks: Vec<&str> = head_l.split_whitespace().collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(SparseError::Io(format!(
            "bad MatrixMarket banner: {header}"
        )));
    }
    if toks[2] != "coordinate" {
        return Err(SparseError::Io(format!(
            "only coordinate format supported, got {}",
            toks[2]
        )));
    }
    let field = match toks[3] {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => return Err(SparseError::Io(format!("unsupported field type: {other}"))),
    };
    let symmetry = match toks[4] {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => return Err(SparseError::Io(format!("unsupported symmetry: {other}"))),
    };

    // Size line: first non-comment line.
    let mut size_line = String::new();
    for line in lines.by_ref() {
        let line = line.map_err(|e| SparseError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = trimmed.to_string();
        break;
    }
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| SparseError::Io(format!("bad size line '{size_line}': {e}")))?;
    if dims.len() != 3 {
        return Err(SparseError::Io(format!("bad size line '{size_line}'")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    // Hostile-header guards: a forged size line must not drive a huge
    // allocation or overflow the mirror-capacity arithmetic below.
    if nnz > nrows.saturating_mul(ncols) {
        return Err(SparseError::Io(format!(
            "header declares {nnz} entries for a {nrows}x{ncols} matrix"
        )));
    }
    let cap = match symmetry {
        MmSymmetry::General => nnz,
        _ => nnz
            .checked_mul(2)
            .ok_or_else(|| SparseError::Io(format!("entry count {nnz} overflows capacity")))?,
    };
    // The header is untrusted: reserve at most a bounded prefix and let
    // the triplet buffers grow with the entries actually present, so a
    // forged nnz cannot drive an OOM (or a capacity panic) up front.
    const MAX_HEADER_RESERVE: usize = 1 << 20;
    let mut coo = CooMatrix::with_capacity(nrows, ncols, cap.min(MAX_HEADER_RESERVE));
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(|e| SparseError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| SparseError::Io(format!("short entry line: {trimmed}")))?
            .parse()
            .map_err(|e| SparseError::Io(format!("bad row index: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| SparseError::Io(format!("short entry line: {trimmed}")))?
            .parse()
            .map_err(|e| SparseError::Io(format!("bad col index: {e}")))?;
        if r == 0 || c == 0 {
            return Err(SparseError::Io("matrix market indices are 1-based".into()));
        }
        if r > nrows || c > ncols {
            return Err(SparseError::IndexOutOfBounds {
                row: r - 1,
                col: c - 1,
                nrows,
                ncols,
            });
        }
        let v = match field {
            MmField::Pattern => T::ONE,
            _ => {
                let tok = it
                    .next()
                    .ok_or_else(|| SparseError::Io(format!("missing value: {trimmed}")))?;
                let mut parsed = tok
                    .parse::<f64>()
                    .map_err(|e| SparseError::Io(format!("bad value '{tok}': {e}")))?;
                if crate::fault::fire("io.value") == Some(crate::fault::FaultAction::Nan) {
                    parsed = f64::NAN;
                }
                if !parsed.is_finite() {
                    return Err(SparseError::NonFinite {
                        row: r - 1,
                        col: c - 1,
                    });
                }
                T::from_f64(parsed)
            }
        };
        coo.push(r - 1, c - 1, v)?;
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric => {
                if r != c {
                    coo.push(c - 1, r - 1, v)?;
                }
            }
            MmSymmetry::SkewSymmetric => {
                if r != c {
                    coo.push(c - 1, r - 1, T::ZERO - v)?;
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Io(format!(
            "entry count mismatch: header says {nnz}, file has {seen}"
        )));
    }
    Ok(coo.to_csr())
}

/// Writes a CSR matrix as `matrix coordinate real general`.
///
/// # Errors
/// [`SparseError::Io`] on write failures.
pub fn write_matrix_market<T: Scalar>(
    path: impl AsRef<Path>,
    a: &CsrMatrix<T>,
) -> Result<(), SparseError> {
    let f = std::fs::File::create(path.as_ref())
        .map_err(|e| SparseError::Io(format!("{}: {e}", path.as_ref().display())))?;
    write_matrix_market_to(BufWriter::new(f), a)
}

/// Writes a CSR matrix to a stream as `matrix coordinate real general`.
///
/// # Errors
/// [`SparseError::Io`] on write failures.
pub fn write_matrix_market_to<T: Scalar, W: Write>(
    mut w: W,
    a: &CsrMatrix<T>,
) -> Result<(), SparseError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% generated by javelin-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (r, c, v) in a.iter() {
        writeln!(w, "{} {} {:e}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CsrMatrix<f64>, SparseError> {
        read_matrix_market_from(s.as_bytes())
    }

    #[test]
    fn reads_general_real() {
        let a = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % a comment\n\
             3 3 4\n\
             1 1 2.0\n\
             2 2 3.0\n\
             3 1 -1.5\n\
             3 3 4.0\n",
        )
        .unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(2, 0), Some(-1.5));
    }

    #[test]
    fn reads_symmetric_expands() {
        let a = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             2 2 2\n\
             1 1 1.0\n\
             2 1 5.0\n",
        )
        .unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), Some(5.0));
        assert_eq!(a.get(1, 0), Some(5.0));
    }

    #[test]
    fn reads_skew_symmetric() {
        let a = parse(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n\
             2 2 1\n\
             2 1 3.0\n",
        )
        .unwrap();
        assert_eq!(a.get(1, 0), Some(3.0));
        assert_eq!(a.get(0, 1), Some(-3.0));
    }

    #[test]
    fn reads_pattern_and_integer() {
        let a = parse(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 2 2\n\
             1 2\n\
             2 1\n",
        )
        .unwrap();
        assert_eq!(a.get(0, 1), Some(1.0));
        let b = parse(
            "%%MatrixMarket matrix coordinate integer general\n\
             1 1 1\n\
             1 1 7\n",
        )
        .unwrap();
        assert_eq!(b.get(0, 0), Some(7.0));
    }

    #[test]
    fn rejects_bad_banner_and_counts() {
        assert!(parse("%%NotMM matrix coordinate real general\n1 1 0\n").is_err());
        assert!(parse("%%MatrixMarket matrix array real general\n1 1\n1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n").is_err());
    }

    #[test]
    fn rejects_non_finite_values() {
        let e =
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 nan\n").unwrap_err();
        assert_eq!(e, SparseError::NonFinite { row: 0, col: 1 });
        let e =
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 inf\n").unwrap_err();
        assert_eq!(e, SparseError::NonFinite { row: 1, col: 0 });
        assert!(
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 -infinity\n").is_err()
        );
    }

    #[test]
    fn rejects_out_of_range_indices() {
        let e =
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n").unwrap_err();
        assert!(matches!(e, SparseError::IndexOutOfBounds { row: 2, .. }));
        let e =
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 9 1.0\n").unwrap_err();
        assert!(matches!(e, SparseError::IndexOutOfBounds { col: 8, .. }));
    }

    #[test]
    fn rejects_overflowing_headers() {
        // nnz larger than the matrix can hold: must fail before any
        // large allocation happens.
        let huge = usize::MAX;
        let e = parse(&format!(
            "%%MatrixMarket matrix coordinate real general\n2 2 {huge}\n"
        ))
        .unwrap_err();
        assert!(matches!(e, SparseError::Io(_)));
        // Symmetric capacity doubling must not wrap.
        let e = parse(&format!(
            "%%MatrixMarket matrix coordinate real symmetric\n{huge} {huge} {huge}\n"
        ))
        .unwrap_err();
        assert!(matches!(e, SparseError::Io(_)));
        // A general header where nnz == nrows·ncols (saturated) slips
        // past the density check; the bounded reservation must keep it
        // from allocating, and the missing entries make it an error.
        let e = parse(&format!(
            "%%MatrixMarket matrix coordinate real general\n{huge} {huge} {huge}\n"
        ))
        .unwrap_err();
        assert!(matches!(e, SparseError::Io(_)));
    }

    #[test]
    fn write_read_roundtrip() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.25).unwrap();
        coo.push(1, 2, -7.5e-3).unwrap();
        coo.push(2, 1, 42.0).unwrap();
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &a).unwrap();
        let b: CsrMatrix<f64> = read_matrix_market_from(buf.as_slice()).unwrap();
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("javelin_sparse_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let a = CsrMatrix::<f64>::identity(4);
        write_matrix_market(&path, &a).unwrap();
        let b: CsrMatrix<f64> = read_matrix_market(&path).unwrap();
        assert!(a.approx_eq(&b, 0.0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
