//! One daemon group on three substrates — the virtual-time simulator,
//! the real-clock loopback transport (wire codec on every hop) and the
//! `sqpeerd` TCP host — answering monolithically (E20) and streamed
//! (E21). The answers must be identical everywhere; the latencies show
//! what each layer costs.

use crate::harness::{
    fixed, mean, substrate_leg, tcp_leg, BenchJson, Leg, Workload, REAL_PACING, SIM_PACING,
};
use crate::scenario::scaled_fig2_bases;
use crate::table::{f1, Table};
use sqpeer::prelude::*;
use sqpeer_daemon::{GroupSpec, LoopbackNet};
use sqpeer_testkit::fixtures::{fig1_query_text, fig1_schema, fig2_bases};
use sqpeer_wire::SchemaRegistry;

/// A loopback transport that knows the Figure 1 schema.
fn loopback() -> LoopbackNet<PeerNode> {
    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    LoopbackNet::new(schemas)
}

// ----------------------------------------------------------------------
// E20 — deployment: virtual time vs real clock vs real sockets
// ----------------------------------------------------------------------

/// One workload, three substrates, one query in flight at a time.
pub fn e20(json: BenchJson) -> String {
    const QUERIES: usize = 12;

    let schema = fig1_schema();
    let spec = || GroupSpec {
        schema: fig1_schema(),
        bases: fig2_bases(&schema),
        config: PeerConfig::default(),
    };
    let work = Workload {
        query_text: fig1_query_text(),
        target: PeerId(0),
        queries: QUERIES,
        concurrent: false,
    };

    // Leg 1: virtual-time simulator. `latency_us` is virtual; the wall
    // clock measures how fast simulation burns through it.
    let mut sim: Simulator<PeerNode> = Simulator::default();
    let sim_leg = substrate_leg(&mut sim, SIM_PACING, spec(), &work);

    // Leg 2: real-clock loopback, wire codec on every hop.
    let mut net = loopback();
    let loop_leg = substrate_leg(&mut net, REAL_PACING, spec(), &work);
    assert_eq!(
        net.decode_failures(),
        0,
        "codec failed on the loopback path"
    );

    // Leg 3: the TCP host, queried over a real socket.
    let tcp = tcp_leg(spec(), None, &work);

    let identical = sim_leg.rows == loop_leg.rows && loop_leg.rows == tcp.rows;
    assert!(identical, "answer sets diverged across substrates");
    assert!(!sim_leg.rows[0].is_empty(), "workload produced no rows");

    let p50 = |v: &[u64]| {
        let mut s = v.to_vec();
        s.sort_unstable();
        s[s.len() / 2]
    };

    let mut out = String::from(
        "E20 — deployment: one workload, three substrates\n\
         workload: figure-2 bases, figure-1 query, posed 12x at peer 0\n\n",
    );
    let mut table = Table::new(&["substrate", "latency mean", "latency p50", "wall ms (leg)"]);
    table.row(vec![
        "simulator (virtual µs)".into(),
        f1(mean(&sim_leg.latency_us)),
        format!("{}", p50(&sim_leg.latency_us)),
        format!("{:.2}", sim_leg.wall_ms),
    ]);
    table.row(vec![
        "loopback (real µs, codec on path)".into(),
        f1(mean(&loop_leg.latency_us)),
        format!("{}", p50(&loop_leg.latency_us)),
        format!("{:.2}", loop_leg.wall_ms),
    ]);
    table.row(vec![
        "tcp host (client round trip µs)".into(),
        f1(mean(&tcp.latency_us)),
        format!("{}", p50(&tcp.latency_us)),
        "-".into(),
    ]);
    out.push_str(&table.render());

    json.field("queries", QUERIES)
        .field("sim_latency_us_mean", fixed(mean(&sim_leg.latency_us), 1))
        .field("sim_latency_us_p50", p50(&sim_leg.latency_us))
        .field("sim_wall_ms", fixed(sim_leg.wall_ms, 3))
        .field(
            "loopback_latency_us_mean",
            fixed(mean(&loop_leg.latency_us), 1),
        )
        .field("loopback_latency_us_p50", p50(&loop_leg.latency_us))
        .field("loopback_wall_ms", fixed(loop_leg.wall_ms, 3))
        .field("tcp_rtt_us_mean", fixed(mean(&tcp.latency_us), 1))
        .field("tcp_rtt_us_p50", p50(&tcp.latency_us))
        .field("decode_failures", 0)
        .field("answers_identical", true)
        .write(&mut out);
    out.push_str(
        "\nacceptance: identical answer sets on all three substrates; \
         0 decode failures with the codec on every loopback hop.\n",
    );
    out
}

// ----------------------------------------------------------------------
// E21 — streaming packetized execution
// ----------------------------------------------------------------------

/// E21 — streaming packetized execution (PR 7 tentpole): time-to-first-row
/// and credit-window bounds, streamed vs monolithic, under a concurrent
/// multi-query workload. Peers charge 1 ms of processing per produced row,
/// so a monolithic answer only ships once the whole result is evaluated;
/// streamed production ships the first batch as soon as it exists. The
/// acceptance gate is TTFR(streamed) < 0.5 × total latency(monolithic) on
/// both the simulator and the loopback, with identical answer sets,
/// completeness accounting pinned, and per-channel in-flight packets never
/// exceeding the credit window. A third leg streams the answer over a real
/// TCP socket and checks the client-observed first-row clock.
pub fn e21(json: BenchJson) -> String {
    const QUERIES: usize = 6;
    const TCP_QUERIES: usize = 4;
    const BATCH: usize = 8;
    const PER_ROW_US: u64 = 1_000;
    const TRIPLES: usize = 120;
    const WINDOW: u32 = 4; // PeerConfig::default().stream_credit_window

    let schema = fig1_schema();
    // Single-pattern prop1 query: held by peers 0 and 1 (plus peer 3 via
    // prop4 ⊑ prop1), so the root unions several large remote streams.
    let query_text = "SELECT X, Y FROM {X}n1:prop1{Y} \
                      USING NAMESPACE n1 = &http://example.org/n1#";
    let spec = |batch: Option<usize>| GroupSpec {
        schema: fig1_schema(),
        bases: scaled_fig2_bases(&schema, TRIPLES, 21),
        config: PeerConfig {
            stream_batch_rows: batch,
            processing_us_per_row: PER_ROW_US,
            ..PeerConfig::default()
        },
    };
    // Peer 3 holds no prop1 proper — the bulk of the answer streams in
    // over the network from peers 0 and 1. All QUERIES are posed before
    // any is awaited, so the streams genuinely run concurrently and
    // contend for credits on the same links.
    let work = Workload {
        query_text,
        target: PeerId(3),
        queries: QUERIES,
        concurrent: true,
    };

    // Leg 1: virtual-time simulator, monolithic then streamed.
    let run_sim = |batch: Option<usize>| -> Leg {
        let mut sim: Simulator<PeerNode> = Simulator::default();
        sim.enable_telemetry(10_000_000);
        substrate_leg(&mut sim, SIM_PACING, spec(batch), &work)
    };
    let sim_mono = run_sim(None);
    let sim_stream = run_sim(Some(BATCH));

    // Leg 2: real-clock loopback with the wire codec on every hop —
    // Credit packets included.
    let run_loop = |batch: Option<usize>| -> Leg {
        let mut net = loopback();
        net.enable_telemetry(10_000_000);
        let leg = substrate_leg(&mut net, REAL_PACING, spec(batch), &work);
        assert_eq!(
            net.decode_failures(),
            0,
            "codec failed on the loopback path"
        );
        leg
    };
    let loop_mono = run_loop(None);
    let loop_stream = run_loop(Some(BATCH));

    // Answers must be identical: streamed vs monolithic, and across
    // substrates (the bases are seeded, so every leg sees the same data).
    assert!(!sim_mono.rows[0].is_empty(), "workload produced no rows");
    assert_eq!(
        sim_mono.rows, sim_stream.rows,
        "sim streaming changed the answer"
    );
    assert_eq!(
        loop_mono.rows, loop_stream.rows,
        "loopback streaming changed the answer"
    );
    assert_eq!(
        sim_mono.rows, loop_mono.rows,
        "answers diverged across substrates"
    );

    // Credit windows: monolithic never streams; streamed legs stay within
    // the configured window on every channel even with all queries in
    // flight at once.
    assert_eq!(sim_mono.max_inflight, 0, "monolithic run streamed");
    assert!(
        sim_stream.max_inflight > 0 && sim_stream.max_inflight <= WINDOW,
        "sim in-flight {} outside (0, {WINDOW}]",
        sim_stream.max_inflight
    );
    assert!(
        loop_stream.max_inflight > 0 && loop_stream.max_inflight <= WINDOW,
        "loopback in-flight {} outside (0, {WINDOW}]",
        loop_stream.max_inflight
    );
    assert!(sim_stream.ttfr_samples > 0, "per-link TTFR histogram empty");
    assert!(
        loop_stream.ttfr_samples > 0,
        "per-link TTFR histogram empty"
    );

    // The acceptance gate: streamed first rows land in under half the
    // monolithic total latency.
    let sim_ratio = mean(&sim_stream.ttfr_us) / mean(&sim_mono.latency_us);
    let loop_ratio = mean(&loop_stream.ttfr_us) / mean(&loop_mono.latency_us);
    assert!(
        sim_ratio < 0.5,
        "sim streamed TTFR not < 0.5x monolithic latency (ratio {sim_ratio:.3})"
    );
    assert!(
        loop_ratio < 0.5,
        "loopback streamed TTFR not < 0.5x monolithic latency (ratio {loop_ratio:.3})"
    );

    // Leg 3: the TCP host streams the answer in batches over a real
    // socket; the client clocks first frame vs last frame.
    let tcp_work = Workload {
        queries: TCP_QUERIES,
        ..work
    };
    let tcp = tcp_leg(spec(Some(BATCH)), Some(BATCH), &tcp_work);
    for (ttfr, total) in tcp.ttfr_us.iter().zip(&tcp.latency_us) {
        assert!(
            ttfr < total,
            "TCP first-row clock ({ttfr} us) not strictly before total ({total} us)"
        );
    }
    assert_eq!(tcp.rows[0], sim_mono.rows[0], "TCP answer diverged");

    let mut out = String::from(
        "E21 — streaming packetized execution: TTFR and credit bounds\n\
         workload: scaled figure-2 bases (120 triples/property), prop1 union \
         query posed 6x concurrently at peer 3, 1 ms/row processing\n\n",
    );
    let mut table = Table::new(&["leg", "ttfr mean", "latency mean", "max in-flight"]);
    let leg_row = |name: &str, leg: &Leg| {
        vec![
            name.into(),
            f1(mean(&leg.ttfr_us)),
            f1(mean(&leg.latency_us)),
            format!("{}", leg.max_inflight),
        ]
    };
    table.row(leg_row("sim monolithic (virtual µs)", &sim_mono));
    table.row(leg_row("sim streamed (virtual µs)", &sim_stream));
    table.row(leg_row("loopback monolithic (real µs)", &loop_mono));
    table.row(leg_row("loopback streamed (real µs)", &loop_stream));
    table.row(vec![
        "tcp streamed (client µs)".into(),
        f1(mean(&tcp.ttfr_us)),
        f1(mean(&tcp.latency_us)),
        "-".into(),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nsim TTFR/monolithic-latency ratio: {sim_ratio:.3}; \
         loopback ratio: {loop_ratio:.3} (gate: < 0.5)\n"
    ));

    let us = |v: &[u64]| fixed(mean(v), 1);
    json.field("queries", QUERIES)
        .field("batch_rows", BATCH)
        .field("per_row_us", PER_ROW_US)
        .field("credit_window", WINDOW)
        .field("sim_mono_latency_us_mean", us(&sim_mono.latency_us))
        .field("sim_stream_ttfr_us_mean", us(&sim_stream.ttfr_us))
        .field("sim_stream_latency_us_mean", us(&sim_stream.latency_us))
        .field("sim_ttfr_ratio", fixed(sim_ratio, 4))
        .field("sim_max_inflight", sim_stream.max_inflight)
        .field("loopback_mono_latency_us_mean", us(&loop_mono.latency_us))
        .field("loopback_stream_ttfr_us_mean", us(&loop_stream.ttfr_us))
        .field(
            "loopback_stream_latency_us_mean",
            us(&loop_stream.latency_us),
        )
        .field("loopback_ttfr_ratio", fixed(loop_ratio, 4))
        .field("loopback_max_inflight", loop_stream.max_inflight)
        .field("tcp_ttfr_us_mean", us(&tcp.ttfr_us))
        .field("tcp_total_us_mean", us(&tcp.latency_us))
        .field("decode_failures", 0)
        .field("answers_identical", true)
        .write(&mut out);
    out.push_str(
        "\nacceptance: identical answers streamed vs monolithic on every \
         substrate; streamed TTFR < 0.5x monolithic total latency on \
         simulator and loopback; per-channel in-flight packets bounded by \
         the credit window under the concurrent workload.\n",
    );
    out
}
