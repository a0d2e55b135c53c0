//! # javelin-baseline
//!
//! Comparator implementations for the paper's evaluation:
//!
//! * [`ilut`] — Saad's ILUT(τ, p) with a *dynamic* pattern (dual
//!   threshold dropping), the classic serial reference most packages
//!   ship. Javelin deliberately differs (fixed pattern, τ applied
//!   within it) — this module exists to compare quality and to serve as
//!   the ILU(k, τ) interface used in the WSMP comparison (Fig. 9).
//! * [`heavy`] — the WSMP-class comparator: a blocked,
//!   supernodal-style ILU that gathers panels into dense working
//!   buffers and scatters results back. WSMP itself is proprietary;
//!   this code reproduces the *architectural*
//!   behaviour Fig. 9 measures — many data-movement operations per
//!   flop and coarse panel-level synchronization that stops scaling by
//!   ~8 cores — plus the stricter breakdown behaviour that produced the
//!   paper's 'x' columns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heavy;
pub mod ilut;

pub use heavy::{HeavyIlu, HeavyOptions};
pub use ilut::{ilut_factor, IlutFactors, IlutOptions};
