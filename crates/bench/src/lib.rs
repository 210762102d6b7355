//! Experiment harness shared by the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see DESIGN.md §4 for the full index). They share:
//!
//! * [`cli`] — a tiny flag parser (`--scale`, `--seed`, `--csv`, and the
//!   report binaries' `--quick`, `--threads`, `--persist`, `--out`);
//! * [`data`] — dataset construction at a given scale;
//! * [`harness`] — attack/defense experiment drivers;
//! * [`output`] — aligned table and CSV emission, and the one-row-per-line
//!   reports of `perf_report` and `tournament`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod data;
pub mod harness;
pub mod metadata_exp;
pub mod output;
