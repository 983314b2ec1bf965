//! # check — correctness analysis for the solver's kernels and comm
//!
//! A distributed stencil solver has three classic failure modes that
//! ordinary tests are bad at catching: a kernel writing memory it does
//! not own (races masked by a benign schedule), a message-protocol slip
//! (swapped tag, dropped wait) that hangs or silently corrupts, and
//! reads of never-initialised buffers. This crate attacks each with a
//! dedicated checker, all usable from the normal test suite:
//!
//! * [`Checked`] — a sanitizing [`accel::Device`] wrapper. It is a
//!   bitwise-identical passthrough to any back-end, but shadow-tracks
//!   every launch: the `RowMap` is audited exhaustively (bounds,
//!   cross-row aliasing), the output is snapshot-diffed to catch writes
//!   that escaped the row slice, and (opt-in) two-canary shadow replays
//!   detect outputs that depend on uninitialised data.
//! * [`VerifiedComm`] — a protocol-verifying [`comm::Communicator`]
//!   wrapper. Blocked receives poll, so the world diagnoses its own
//!   deadlocks with a wait-for graph (rank, tag, undelivered channels,
//!   recv cycles) instead of hanging; collectives are audited for
//!   cross-rank agreement; teardown reports unmatched sends and
//!   never-waited receive requests.
//! * [`run_ranks_checked`] / [`try_run_ranks_checked`] — the checked
//!   SPMD launcher wiring both together, with an opt-in watchdog that
//!   aborts a hung world with the wait-for graph dump.
//!
//! The static leg of the analysis lives in the `xtask` crate
//! (`cargo xtask lint`): unsafe-allowlist enforcement, `#[must_use]`
//! presence on request tokens, and `missing_docs` coverage.

#![warn(missing_docs)]

mod report;
mod runner;
mod sanitizer;
mod verifier;

pub use report::{Policy, Report, Violation};
pub use runner::{run_ranks_checked, try_run_ranks_checked, CheckConfig, CheckFailure};
pub use sanitizer::Checked;
pub use verifier::VerifiedComm;
