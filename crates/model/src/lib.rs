//! Model-checked protocol core for the SQPeer middleware.
//!
//! An exhaustive explorer that checks the protocol machines of
//! `sqpeer-exec` against safety and liveness properties under an
//! adversarial network, and two machines to run it on — both the code
//! that ships, with no hand-written restatement left: the stream machine
//! holds the real `sqpeer_exec::stream` types, and the peer machine
//! replays schedules on real `PeerNode`s.
//!
//! - [`explore`] — the machine trait, BFS explorer with canonical state
//!   hashing, counterexample schedules and termination proofs.
//! - [`stream`] — credit-window streaming: seq-numbered data, in-order
//!   drain, seq dedup, credit grants, retry re-serves — the real
//!   `Sender`/`Receiver` inside a modelled network and timeout ladder.
//! - [`conform`] — the conductor that drives real `PeerNode`s through
//!   trace schedules, and the peer machine built on it: dispatch, the
//!   timeout ladder, `(root, qid, tag, attempt)` dedup, failover, replans,
//!   completeness accounting and advertisement leases (time is state: the
//!   heartbeat and sweep timers are the clock), explored as shipped.
//! - [`trace`] — the shared replayable trace format (also the format of
//!   counterexample artifacts).
//!
//! Every machine is explored to a *fixpoint* within a bounded
//! configuration (≤ 3 peers, ≤ 2 concurrent queries, credit window
//! ≤ 2, budgeted drop/duplicate/crash adversary); exceeding the state
//! budget is a hard failure, so a passing run is an exhaustiveness
//! proof for that configuration, not a sample. See DESIGN.md §5 for
//! state spaces, invariants and the fairness assumptions behind the
//! liveness results.

pub mod conform;
pub mod explore;
pub mod stream;
pub mod trace;
