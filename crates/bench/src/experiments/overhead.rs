//! What a recorder costs when it is on: the span recorder (E18) and the
//! per-link telemetry registry (E19), each off, off again and on over the
//! same small SON and the same 36 chain queries, priced in allocations.
//! E19 first measures what the registry buys — how early it sees a
//! degraded channel.

use crate::harness::{counted, overhead, BenchJson, Digest};
use crate::scenario::{chain_workload, small_son, SON_PEERS};
use crate::table::{ms, Table};
use sqpeer::exec::{Msg, PeerMode};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingLimits;
use sqpeer_testkit::fixtures::{base_with, fig1_schema};
use sqpeer_testkit::{community_schema, SchemaSpec};

const QUERIES: usize = 36;
const REPS: usize = 5;

pub fn e18(json: BenchJson) -> String {
    // One full workload pass at the given trace setting.
    fn pass(trace: bool) -> (Digest, u64, u64) {
        let schema = community_schema(SchemaSpec::default(), 0x18);
        let config = PeerConfig {
            trace,
            ..PeerConfig::default()
        };
        let (mut net, ids) = small_son(&schema, 18, config);
        let workload = chain_workload(&schema, 0x18C0_FFEE, QUERIES);
        counted(&mut net, &ids, &workload)
    }
    // Transparency: tracing must never change query answers.
    let (digest, table, json) = overhead(
        ("trace", "spans + EXPLAIN + profiles"),
        (SON_PEERS, QUERIES, REPS),
        json,
        pass,
    );

    let answered = digest
        .iter()
        .filter(|(rows, _)| *rows != usize::MAX)
        .count();
    let mut out = format!(
        "E18: tracing overhead \u{2014} span recorder on the hot path\n\n\
         {QUERIES} chain queries over a {SON_PEERS}-peer hybrid SON; allocation\n\
         calls and bytes of the inject+run portion, {REPS} passes a setting\n\
         after one warm-up pass. Every pass of a setting allocates exactly\n\
         the same, so the A/A row reads 0 and the trace-on row (every span,\n\
         EXPLAIN and profile) is the recorder's whole price.\n\n"
    );
    out.push_str(&table);
    out.push_str(&format!(
        "\n{answered}/{QUERIES} queries answered; answers bit-identical across\n\
         all three configurations (tracing is observability-only).\n"
    ));

    json.write(&mut out);
    out.push_str(
        "\nacceptance: answers identical trace on/off and allocations identical \
         across the passes of a setting (both asserted).\n",
    );
    out
}

/// E19 — overlay telemetry (§2.5): how much earlier the windowed
/// throughput probe catches a degraded-but-alive channel than the
/// timeout does, and what the per-link registry costs when it is off.
pub fn e19(json: BenchJson) -> String {
    // ------------------------------------------------------------------
    // Part 1 — detection latency, in virtual time. P1 routes its single
    // subplan to a live-but-starved holder (seconds of processing before
    // the first byte flows) and must fall back to a fast replica. The
    // telemetry probe observes the dead channel window and replans;
    // with the probe off, only the subplan timeout fires.
    // ------------------------------------------------------------------
    const TIMEOUT_US: u64 = 2_000_000;

    // Returns (detection virtual µs from dispatch, query latency µs,
    // slow-channel replans, timeout replans).
    fn detect(slow_channel: bool) -> (u64, u64, usize, usize) {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let adhoc = PeerConfig {
            mode: PeerMode::Adhoc,
            optimize: false,
            ..PeerConfig::default()
        };
        let root_config = PeerConfig {
            subplan_timeout_us: Some(TIMEOUT_US),
            slow_channel,
            trace: true,
            phased: true,
            limits: RoutingLimits::top(1),
            ..adhoc.clone()
        };
        let mut root = PeerNode::simple(PeerId(1), base_with(&schema, &[]), root_config);
        // Starved enough that even the full retry ladder (2 s, then 4 s
        // and 8 s backoffs) exhausts before the first byte flows.
        let starved_config = PeerConfig {
            processing_us_per_row: 30_000_000,
            ..adhoc.clone()
        };
        let starved = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("http://a", "prop1", "http://b")]),
            starved_config,
        );
        let replica = PeerNode::simple(
            PeerId(3),
            base_with(&schema, &[("http://a", "prop1", "http://b")]),
            adhoc,
        );
        root.son
            .registry
            .register(starved.own_advertisement().unwrap());
        root.son
            .registry
            .register(replica.own_advertisement().unwrap());
        sim.add_node(NodeId(1), root);
        sim.add_node(NodeId(2), starved);
        sim.add_node(NodeId(3), replica);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        let qid = QueryId(19);
        let msg = Msg::ClientQuery { qid, query };
        let bytes = msg.wire_size();
        sim.inject(NodeId(99), NodeId(1), msg, bytes);
        sim.run_to_quiescence();

        let root = sim.node(NodeId(1)).unwrap();
        let outcome = root.outcome(qid).expect("query completed");
        assert_eq!(outcome.result.len(), 1, "the replica must answer");
        let events = root.trace_events_for(qid);
        let dispatched = events
            .iter()
            .filter(|e| e.name == "exec:dispatch")
            .map(|e| e.start_us)
            .min()
            .expect("dispatch span recorded");
        // Both triggers log their observation as a `t=<N>us …` line in
        // the EXPLAIN adaptation record — the triggering window itself.
        let adaptation = root.explain(qid).expect("explain recorded").adaptation;
        let trigger_at = adaptation
            .first()
            .and_then(|l| l.strip_prefix("t="))
            .and_then(|l| l.split("us").next())
            .and_then(|n| n.parse::<u64>().ok())
            .expect("adaptation line with trigger time");
        let m = sim.metrics();
        (
            trigger_at - dispatched,
            outcome.latency_us,
            m.slow_channel_replans(),
            m.timeout_replans(),
        )
    }

    let (telemetry_detect, telemetry_latency, slow_replans, t_timeouts) = detect(true);
    let (timeout_detect, timeout_latency, no_slow, timeout_replans) = detect(false);
    assert_eq!(slow_replans, 1, "the probe must fire exactly once");
    assert_eq!(t_timeouts, 0, "the probe must pre-empt the timeout");
    assert_eq!(no_slow, 0, "probe off, no slow-channel replan");
    assert_eq!(timeout_replans, 1, "the timeout must fire instead");
    // Acceptance: telemetry catches the degraded channel strictly earlier
    // (virtual time) than the timeout.
    assert!(
        telemetry_detect < timeout_detect,
        "telemetry must detect before the timeout \
         ({telemetry_detect} vs {timeout_detect} µs)"
    );

    // ------------------------------------------------------------------
    // Part 2 — registry cost, on E18's runner: the allocations of a
    // full hybrid workload with telemetry off and on.
    // ------------------------------------------------------------------
    fn pass(telemetry: bool) -> (Digest, u64, u64) {
        let schema = community_schema(SchemaSpec::default(), 0x19);
        let (mut net, ids) = small_son(&schema, 19, PeerConfig::default());
        if telemetry {
            net.enable_telemetry(sqpeer::net::DEFAULT_WINDOW_US);
        }
        let workload = chain_workload(&schema, 0x19C0_FFEE, QUERIES);
        let done = counted(&mut net, &ids, &workload);
        if telemetry {
            let snapshot = net.telemetry_snapshot().expect("telemetry enabled");
            assert!(
                snapshot.render().contains("sqpeer_link_messages_total"),
                "exposition must carry link counters"
            );
        } else {
            assert!(net.telemetry_snapshot().is_none(), "off means off");
        }
        done
    }
    let json = json
        .field("telemetry_detect_us", telemetry_detect)
        .field("timeout_detect_us", timeout_detect)
        .field("telemetry_latency_us", telemetry_latency)
        .field("timeout_latency_us", timeout_latency);
    let (_, registry_table, json) = overhead(
        ("telemetry", "histograms + windows"),
        (SON_PEERS, QUERIES, REPS),
        json,
        pass,
    );

    let mut out = format!(
        "E19: overlay telemetry \u{2014} detection latency and registry cost\n\n\
         Part 1: a live-but-starved subplan holder (30 s/row processing)\n\
         with a fast replica behind it; subplan timeout {} ms. Virtual-time\n\
         from dispatch to the replan trigger:\n\n",
        TIMEOUT_US / 1_000
    );
    let mut table = Table::new("trigger, detected after, query latency, replans");
    table.row(vec![
        "telemetry probe (windowed throughput)".into(),
        ms(telemetry_detect),
        ms(telemetry_latency),
        format!("{slow_replans} slow-channel"),
    ]);
    table.row(vec![
        "subplan timeout".into(),
        ms(timeout_detect),
        ms(timeout_latency),
        format!("{timeout_replans} timeout"),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nthe probe cut detection from {} to {} of virtual time \u{2014} \
         {:.1}\u{00d7} earlier.\n",
        ms(timeout_detect),
        ms(telemetry_detect),
        timeout_detect as f64 / telemetry_detect as f64
    ));

    out.push_str(&format!(
        "\nPart 2: per-link registry cost on {QUERIES} chain queries over a\n\
         {SON_PEERS}-peer hybrid SON, in allocations (as E18):\n\n"
    ));
    out.push_str(&registry_table);

    json.write(&mut out);
    out.push_str(&format!(
        "\nacceptance: telemetry detection strictly earlier than timeout \
         ({} < {}), answers identical telemetry on/off and allocations \
         identical across the passes of a setting (all asserted).\n",
        ms(telemetry_detect),
        ms(timeout_detect),
    ));
    out
}
