//! Conformance: the named traces under `crates/model/traces/` replayed
//! against the real `PeerNode` logic — two each for streaming, dispatch,
//! leases and replanning. Each trace is an adversarial schedule in the
//! shared replay grammar (the same grammar the explorer renders
//! counterexamples in); the [`Conductor`] hosts actual peers behind the
//! `Ctx`/`NodeLogic` seam and executes it step by step.
//!
//! A trace failure reports the trace name, the failing step, and the
//! live pool/timer listing — edit the `.trace` file, not this harness.

use sqpeer_model::conform::{scenarios, Conductor};
use sqpeer_model::trace;
use std::path::PathBuf;

fn replay(name: &str, conductor: Conductor) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{name}.trace"));
    let trace = trace::load(&path).unwrap_or_else(|e| panic!("{e}"));
    let mut conductor = conductor;
    if let Err(e) = conductor.run(&trace) {
        panic!("{e}");
    }
}

// ---- streaming ----

#[test]
fn stream_dup_reorder_seed2() {
    replay("stream_dup_reorder_seed2", scenarios::streaming_pair(1, 2));
}

#[test]
fn stream_credit_window_one_backpressure() {
    replay(
        "stream_credit_window_one_backpressure",
        scenarios::streaming_pair(1, 1),
    );
}

// ---- dispatch: retry and dedup ----

#[test]
fn dispatch_retry_after_drop() {
    replay("dispatch_retry_after_drop", scenarios::retry_pair(1));
}

#[test]
fn dispatch_dup_subplan_served_once() {
    replay("dispatch_dup_subplan_served_once", scenarios::retry_pair(0));
}

// ---- leases ----

#[test]
fn lease_expiry_tombstone() {
    replay("lease_expiry_tombstone", scenarios::lease_pair(4_000_000));
}

#[test]
fn lease_heartbeat_renews_and_readvertises() {
    replay(
        "lease_heartbeat_renews_and_readvertises",
        scenarios::lease_pair(4_000_000),
    );
}

// ---- replanning ----

#[test]
fn replan_dest_down_honest_partial() {
    replay("replan_dest_down_honest_partial", scenarios::retry_pair(0));
}

#[test]
fn replan_failover_alternate() {
    replay("replan_failover_alternate", scenarios::failover_trio(0));
}
