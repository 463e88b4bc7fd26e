//! # express-bench
//!
//! The benchmark harness regenerating every table and figure in the
//! EXPRESS paper's evaluation (see DESIGN.md's per-experiment index and
//! EXPERIMENTS.md for paper-vs-measured records).
//!
//! * Figure/table binaries live in `src/bin/` — each prints the rows or
//!   series the paper reports.
//! * [`harness`] holds the shared scenario builders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
