//! §2.5 run-time adaptation, three flavours of trouble:
//!
//! 1. A **notified** crash mid-query — the root re-plans around the
//!    failed peer and recovers the rows from a replica.
//! 2. A **silent** crash with leases on — nobody is told; the peer's
//!    advertisement lease lapses unrenewed, routing purges it, and later
//!    answers honestly name it as a possibly-missing contributor until it
//!    restarts and re-advertises.
//! 3. A **degraded-but-alive** channel — the holder never fails, it just
//!    starves the channel; the telemetry probe sees the dead throughput
//!    window and re-plans long before the timeout ladder would.
//!
//! ```text
//! cargo run --example adaptive_failover
//! ```

use sqpeer::exec::node_of;
use sqpeer::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
    let c1 = b.class("C1")?;
    let c2 = b.class("C2")?;
    let prop1 = b.property("prop1", c1, Range::Class(c2))?;
    let schema = Arc::new(b.finish()?);

    // --- 1. Notified crash: adaptation recovers via the replica --------
    let mut fragment = LocalPeer::new(Arc::clone(&schema));
    fragment.insert("http://a", prop1, "http://b");
    fragment.insert("http://c", prop1, "http://d");

    let mut builder = HybridBuilder::new(Arc::clone(&schema), 1);
    let origin = builder.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0);
    let fragile = builder.add_peer(fragment.base().clone(), 0);
    let _backup = builder.add_peer(fragment.base().clone(), 0);
    let mut net = builder.build();

    // Crash the first replica just as the query goes out: its subplan
    // delivery fails with notification, triggering a §2.5 re-plan.
    let query = net.compile("SELECT X, Y FROM {X}prop1{Y}")?;
    let qid = net.query(origin, query.clone());
    net.crash_peer(fragile);
    net.run();
    let outcome = net.outcome(origin, qid).expect("query completes");
    println!(
        "notified crash: {} row(s) after {} re-plan(s); partial={} \
         (the middleware cannot prove the replica mirrors {:?})",
        outcome.result.len(),
        outcome.replans,
        outcome.partial,
        fragile
    );

    // --- 2. Silent crash: leases turn churn into named gaps ------------
    const LEASE_US: u64 = 2_000_000;
    let mut builder = HybridBuilder::new(Arc::clone(&schema), 1).config(PeerConfig {
        ad_lease_us: Some(LEASE_US),
        subplan_timeout_us: Some(500_000),
        ..PeerConfig::default()
    });
    let origin = builder.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0);
    let victim = builder.add_peer(fragment.base().clone(), 0);
    let mut net = builder.build();
    net.run_for(LEASE_US);

    net.crash_peer_silent(victim);
    // No notification fires; only the missing heartbeats give it away.
    net.run_for(3 * LEASE_US);
    let sp = net.super_peers()[0];
    let departed = net
        .sim()
        .node(node_of(sp))
        .expect("super-peer exists")
        .departed_peers();
    println!("silent crash: super-peer tombstoned {departed:?} after the lease lapsed");

    let qid = net.query(origin, query.clone());
    net.run_for(LEASE_US);
    let outcome = net.outcome(origin, qid).expect("query completes");
    println!(
        "query during the outage: {} row(s), partial={}, missing={:?}",
        outcome.result.len(),
        outcome.partial,
        outcome.missing
    );

    net.restart_peer(victim);
    net.run_for(LEASE_US);
    let qid = net.query(origin, query);
    net.run_for(LEASE_US);
    let outcome = net.outcome(origin, qid).expect("query completes");
    println!(
        "after restart + re-advertisement: {} row(s), partial={}",
        outcome.result.len(),
        outcome.partial
    );

    // --- 3. Slow channel: telemetry replans a live-but-starved holder --
    let mut builder = HybridBuilder::new(Arc::clone(&schema), 1).config(PeerConfig {
        trace: true,
        slow_channel: true,
        subplan_timeout_us: Some(2_000_000),
        ..PeerConfig::default()
    });
    let origin = builder.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0);
    let starved = builder.add_peer(fragment.base().clone(), 0);
    let _replica = builder.add_peer(fragment.base().clone(), 0);
    let mut net = builder.build();
    net.enable_telemetry(sqpeer::net::DEFAULT_WINDOW_US);
    // The holder stays up — it just takes half a minute per row, so its
    // channel moves no bytes. Routing prefers it (lowest peer id wins the
    // tiebreak under a fan-out cap of one).
    net.sim_mut()
        .node_mut(node_of(starved))
        .expect("peer exists")
        .config
        .processing_us_per_row = 30_000_000;
    net.sim_mut()
        .node_mut(node_of(origin))
        .expect("peer exists")
        .config
        .limits = sqpeer::routing::RoutingLimits::top(1);
    let query = net.compile("SELECT X, Y FROM {X}prop1{Y}")?;
    let qid = net.query(origin, query);
    net.run();
    let outcome = net.outcome(origin, qid).expect("query completes");
    println!(
        "\nslow channel: {} row(s) after {} re-plan(s) \u{2014} \
         {} slow-channel, {} timeout",
        outcome.result.len(),
        outcome.replans,
        net.sim().metrics().slow_channel_replans(),
        net.sim().metrics().timeout_replans()
    );
    let explain = net.explain(origin, qid).expect("tracing on");
    for line in &explain.adaptation {
        println!("  EXPLAIN adaptation: {line}");
    }
    // The telemetry snapshot at the moment of the replan: the starved
    // link's counters show the dead window the probe adapted on.
    let snapshot = net.telemetry_snapshot().expect("telemetry enabled");
    println!("  telemetry at replan (delivery counters per link):");
    for line in snapshot.render().lines() {
        if line.contains("_total{") {
            println!("    {line}");
        }
    }
    Ok(())
}
