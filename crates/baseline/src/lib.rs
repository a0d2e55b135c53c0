//! # javelin-baseline
//!
//! The heavyweight comparator for the paper's evaluation:
//!
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

pub use heavy::{product_error_on_pattern, HeavyIlu, HeavyOptions};
