//! Model-checked protocol core for the SQPeer middleware.
//!
//! This crate holds the four protocol machines of `sqpeer-exec` in
//! explorable form — the stream machine as the shipped
//! `sqpeer_exec::stream` types themselves, lease, dispatch and replan as
//! small-state FSM models of what `crates/exec/src/peer.rs` does — an
//! exhaustive explorer that checks them against safety and liveness
//! properties under an adversarial network, and a conformance layer
//! that replays model traces against the real `PeerNode` logic through
//! the `Ctx`/`NodeLogic` seam.
//!
//! - [`explore`] — the machine trait, BFS explorer with canonical state
//!   hashing, counterexample schedules and termination proofs.
//! - [`lease`] — advertisement leases: renew / heartbeat / sweep /
//!   tombstone / re-advertise, with member and holder churn.
//! - [`dispatch`] — at-least-once subplan dispatch: timeout ladder,
//!   `(root, qid, tag)` dedup, failover to an alternate holder.
//! - [`stream`] — credit-window streaming: seq-numbered data, in-order
//!   drain, seq dedup, credit grants, retry re-serves — the real
//!   `Sender`/`Receiver` inside a modelled network and timeout ladder.
//! - [`replan`] — channel failure and replanning with completeness
//!   accounting (the `missing` set) and honest partials.
//! - [`trace`] — the shared replayable trace format (also the format of
//!   counterexample artifacts).
//! - [`conform`] — the conductor that drives real `PeerNode`s through
//!   named traces.
//!
//! Every machine is explored to a *fixpoint* within a bounded
//! configuration (≤ 3 peers, ≤ 2 concurrent queries, credit window
//! ≤ 2, budgeted drop/duplicate/reorder adversary); exceeding the state
//! budget is a hard failure, so a passing run is an exhaustiveness
//! proof for that configuration, not a sample. See DESIGN.md §5 for
//! state spaces, invariants and the fairness assumptions behind the
//! liveness results.

pub mod conform;
pub mod dispatch;
pub mod explore;
pub mod lease;
pub mod replan;
pub mod stream;
pub mod trace;
