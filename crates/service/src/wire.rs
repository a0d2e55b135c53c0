//! Length-prefixed wire format for the TCP front-end.
//!
//! Framing: `[u8 tag][u64 LE body length][body]`. All integers are
//! little-endian `u64`, all values IEEE-754 `f64` bits LE. The protocol
//! is deliberately stateful-per-connection (like the in-process API is
//! stateful-per-`Arc`): a client uploads its matrix once
//! ([`Tag::SetMatrix`]) and then streams right-hand sides
//! ([`Tag::Solve`]), which is exactly the pattern-identical traffic
//! shape the coalescing dispatcher exists for.
//!
//! Reading is hardened the same way the Matrix Market reader is: every
//! length claim is bounded *before* any allocation, so a hostile or
//! corrupt frame fails with a typed error instead of an abort.

use javelin_solver::{Method, SolverResult};
use std::io::{self, Read, Write};

/// Hard cap on any single frame body (1 GiB) — bounds allocation from
/// untrusted length claims.
pub(crate) const MAX_FRAME: u64 = 1 << 30;
/// Hard cap on a wire matrix dimension / entry count.
pub(crate) const MAX_DIM: u64 = 1 << 28;

/// Frame tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Client → server: replace this connection's matrix.
    SetMatrix = 1,
    /// Client → server: solve against the connection's matrix.
    Solve = 2,
    /// Server → client: solution + solver outcome.
    ReplyOk = 3,
    /// Server → client: typed failure for the preceding request.
    ReplyErr = 4,
    /// Server → client: matrix accepted.
    MatrixOk = 5,
}

impl Tag {
    fn from_u8(v: u8) -> Option<Tag> {
        match v {
            1 => Some(Tag::SetMatrix),
            2 => Some(Tag::Solve),
            3 => Some(Tag::ReplyOk),
            4 => Some(Tag::ReplyErr),
            5 => Some(Tag::MatrixOk),
            _ => None,
        }
    }
}

/// Wire error codes for [`Tag::ReplyErr`] bodies.
pub mod code {
    /// Admission queue full.
    pub(crate) const OVERLOADED: u16 = 1;
    /// Malformed request.
    pub(crate) const REJECTED: u16 = 2;
    /// Service draining.
    pub(crate) const SHUTTING_DOWN: u16 = 3;
    /// Solver-stack failure.
    pub const SOLVE: u16 = 4;
    /// Dispatcher gone.
    pub(crate) const DISCONNECTED: u16 = 5;
    /// Protocol violation (bad tag, length, or state).
    pub(crate) const PROTOCOL: u16 = 6;
}

/// Method ↔ wire tag.
pub(crate) fn method_to_wire(m: Method) -> u8 {
    match m {
        Method::Pcg => 0,
        Method::Gmres => 1,
        Method::Fgmres => 2,
        Method::Bicgstab => 3,
        Method::BatchPcg => 4,
        Method::BatchBicgstab => 5,
        Method::BatchGmres => 6,
    }
}

/// Wire tag ↔ method.
pub(crate) fn method_from_wire(v: u8) -> Option<Method> {
    match v {
        0 => Some(Method::Pcg),
        1 => Some(Method::Gmres),
        2 => Some(Method::Fgmres),
        3 => Some(Method::Bicgstab),
        4 => Some(Method::BatchPcg),
        5 => Some(Method::BatchBicgstab),
        6 => Some(Method::BatchGmres),
        _ => None,
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A cursor over a received frame body with bounded reads.
pub struct BodyReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Wraps a frame body.
    pub fn new(body: &'a [u8]) -> Self {
        BodyReader { body, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "frame body truncated"))?;
        let s = &self.body[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Next `u16` (LE).
    pub(crate) fn u16(&mut self) -> io::Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Next `u64` (LE), capped at `MAX_FRAME` to bound downstream use.
    pub fn u64(&mut self) -> io::Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Next `f64` (LE bit pattern).
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next `len` u64s as `usize`s (each bounded by `MAX_DIM`).
    pub fn usizes(&mut self, len: usize, out: &mut Vec<usize>) -> io::Result<()> {
        out.clear();
        out.reserve(len);
        for _ in 0..len {
            let v = self.u64()?;
            if v > MAX_DIM {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "wire index exceeds bound",
                ));
            }
            out.push(v as usize);
        }
        Ok(())
    }

    /// Next `len` f64s.
    pub fn f64s(&mut self, len: usize, out: &mut Vec<f64>) -> io::Result<()> {
        out.clear();
        out.reserve(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(())
    }

    /// Next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.take(n)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }
}

/// Reads one frame: its tag and body. Length claims beyond
/// `MAX_FRAME` are refused before any allocation; `body` is a reused
/// caller buffer.
pub fn read_frame<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<Tag> {
    let mut head = [0u8; 9];
    r.read_exact(&mut head)?;
    let tag = Tag::from_u8(head[0])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown frame tag"))?;
    let mut lb = [0u8; 8];
    lb.copy_from_slice(&head[1..9]);
    let len = u64::from_le_bytes(lb);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds bound",
        ));
    }
    body.clear();
    body.resize(len as usize, 0);
    r.read_exact(body)?;
    Ok(tag)
}

/// Writes one frame.
pub fn write_frame<W: Write>(w: &mut W, tag: Tag, body: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 9];
    head[0] = tag as u8;
    head[1..9].copy_from_slice(&(body.len() as u64).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(body)?;
    w.flush()
}

/// Encodes a [`Tag::SetMatrix`] body from CSR parts.
pub fn encode_set_matrix(
    body: &mut Vec<u8>,
    n: usize,
    rowptr: &[usize],
    colidx: &[usize],
    vals: &[f64],
) {
    body.clear();
    put_u64(body, n as u64);
    put_u64(body, vals.len() as u64);
    for &p in rowptr {
        put_u64(body, p as u64);
    }
    for &c in colidx {
        put_u64(body, c as u64);
    }
    for &v in vals {
        put_f64(body, v);
    }
}

/// Encodes a [`Tag::Solve`] body.
pub fn encode_solve(body: &mut Vec<u8>, method: Method, b: &[f64]) {
    body.clear();
    body.push(method_to_wire(method));
    put_u64(body, b.len() as u64);
    for &v in b {
        put_f64(body, v);
    }
}

/// Encodes a [`Tag::ReplyOk`] body.
pub fn encode_reply_ok(body: &mut Vec<u8>, result: &SolverResult, x: &[f64]) {
    body.clear();
    body.push(u8::from(result.converged));
    body.push(u8::from(result.retried));
    put_u64(body, result.iterations as u64);
    put_f64(body, result.relative_residual);
    put_u64(body, x.len() as u64);
    for &v in x {
        put_f64(body, v);
    }
}

/// Encodes a [`Tag::ReplyErr`] body.
pub(crate) fn encode_reply_err(body: &mut Vec<u8>, code: u16, message: &str) {
    body.clear();
    body.extend_from_slice(&code.to_le_bytes());
    put_u64(body, message.len() as u64);
    body.extend_from_slice(message.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_bound_length_claims() {
        let mut buf = Vec::new();
        let mut body = Vec::new();
        encode_solve(&mut body, Method::BatchGmres, &[1.0, -2.5, 3.25]);
        write_frame(&mut buf, Tag::Solve, &body).unwrap();
        let mut cursor = io::Cursor::new(&buf);
        let mut rbody = Vec::new();
        let tag = read_frame(&mut cursor, &mut rbody).unwrap();
        assert_eq!(tag, Tag::Solve);
        let mut r = BodyReader::new(&rbody);
        assert_eq!(method_from_wire(r.u8().unwrap()), Some(Method::BatchGmres));
        let len = r.u64().unwrap() as usize;
        let mut b = Vec::new();
        r.f64s(len, &mut b).unwrap();
        assert_eq!(b, vec![1.0, -2.5, 3.25]);
        assert_eq!(r.remaining(), 0);

        // A hostile length claim is refused before allocation.
        let mut evil = vec![Tag::Solve as u8];
        evil.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(&evil);
        assert!(read_frame(&mut cursor, &mut rbody).is_err());
    }
}
