//! The SQPeer experiment suite: one experiment per paper figure plus the
//! measured qualitative claims (DESIGN.md §6 / EXPERIMENTS.md).
//!
//! Every experiment is a function returning a printable report, so the
//! `experiments` binary, `tests/reports.rs` and EXPERIMENTS.md all see
//! identical numbers (the whole stack is deterministic). An experiment is
//! one row of [`EXPERIMENTS`]; what its network looks like is stated once
//! in [`scenario`], how it is driven and recorded in [`harness`], and what
//! it allocates is counted by [`alloc`].

pub mod alloc;
pub mod experiments;
pub mod harness;
pub mod scenario;
pub mod table;

pub use experiments::{find, Experiment, EXPERIMENTS};
