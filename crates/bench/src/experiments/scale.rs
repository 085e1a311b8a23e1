//! The thousand-peer overlays: cluster-tree routing against the flat
//! backbone (E22) and the observability plane's rollup traffic (E23),
//! over one community schema and one placement rule.

use crate::alloc;
use crate::harness::{fixed, BenchJson, Obj};
use crate::scenario::{chain_workload, ring_with_chords, scale_schema, scale_spec};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqpeer::exec::{node_of, ObsConfig};
use sqpeer::net::PatternStats;
use sqpeer::overlay::Network;
use sqpeer::prelude::*;
use sqpeer::routing::flood;
use sqpeer_testkit::{hier_network, hybrid_network, random_chain_query};
use std::collections::{HashMap, HashSet};

/// What a finished query answered: its sorted rows and partial flag.
fn answered(net: &Network, origin: PeerId, qid: QueryId) -> (ResultSet, bool) {
    let out = net
        .outcome(origin, qid)
        .unwrap_or_else(|| panic!("query {qid} never completed"));
    (out.result.clone().sorted(), out.partial)
}

// ----------------------------------------------------------------------
// E22 — hierarchical SONs at thousand-peer scale
// ----------------------------------------------------------------------

/// E22 — cluster-tree routing vs the flat super-peer backbone vs
/// flooding at 1,000–5,000 peers (PR 9 tentpole). Identical seeded
/// placements feed a flat hybrid overlay and a hierarchical one, so the
/// flat overlay is the routing oracle: every query must return the same
/// rows with the same partial flag. The acceptance gate is total
/// cluster-tree traffic (boot + queries) < 0.5x flat at every size —
/// the flat backbone replicates every advertisement to all super-peers
/// (O(S·N) deliveries), the cluster tree pushes only merged summaries
/// up to heads and across the head ring.
pub fn e22(json: BenchJson) -> String {
    const CLUSTER: u32 = 8;
    const QUERIES: usize = 3;
    const SIZES: [(usize, u32); 3] = [(1_000, 40), (2_000, 80), (5_000, 120)];

    let schema = scale_schema();

    let mut out = String::from(
        "E22 — hierarchical SONs: cluster-tree vs flat backbone vs flooding\n\
         workload: 1 property/peer, 2 triples/property, 3 oracle-checked \
         chain queries per size\n\n",
    );
    let mut t = Table::new(
        "peers, supers, flood msgs/query, flat boot, flat query, hier boot, hier query, \
         hier/flat total",
    );
    let mut json_rows = Vec::new();
    for (n, supers) in SIZES {
        let spec = scale_spec(n, 31 ^ n as u64);
        let queries = chain_workload(&schema, spec.seed, QUERIES);

        // One overlay flavour over the shared placement: boot traffic,
        // query traffic and the per-query answers.
        let run = |hier: bool| -> (usize, usize, Vec<(ResultSet, bool)>) {
            let (mut net, ids) = if hier {
                hier_network(&schema, spec, supers, CLUSTER, PeerConfig::default())
            } else {
                hybrid_network(&schema, spec, supers, PeerConfig::default())
            };
            let boot = net.sim().metrics().total_messages();
            net.sim_mut().reset_metrics();
            let mut answers = Vec::new();
            for (i, q) in queries.iter().enumerate() {
                let origin = ids[(i * 311) % ids.len()];
                let qid = net.query(origin, q.clone());
                net.run();
                answers.push(answered(&net, origin, qid));
            }
            (boot, net.sim().metrics().total_messages(), answers)
        };
        let (flat_boot, flat_query, flat_answers) = run(false);
        let (hier_boot, hier_query, hier_answers) = run(true);
        assert_eq!(
            hier_answers, flat_answers,
            "{n} peers: cluster-tree answers diverged from the flat oracle"
        );
        assert!(
            flat_answers.iter().any(|(rs, _)| !rs.is_empty()),
            "{n} peers: every query came back empty — vacuous comparison"
        );
        assert!(
            flat_answers.iter().all(|(_, partial)| !partial),
            "{n} peers: fault-free flat run must be complete"
        );

        // Flooding baseline: analytic flood over a ring-plus-chords
        // physical topology of the same size (every reached peer
        // processes the query), per query posed.
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(1));
        let flood_out = flood(&ring_with_chords(n, &mut rng), PeerId(0), n);

        let flat_total = flat_boot + flat_query;
        let hier_total = hier_boot + hier_query;
        let ratio = hier_total as f64 / flat_total as f64;
        assert!(
            ratio < 0.5,
            "{n} peers: cluster-tree traffic not < 0.5x flat \
             ({hier_total} vs {flat_total}, ratio {ratio:.3})"
        );
        t.row(vec![
            n.to_string(),
            supers.to_string(),
            flood_out.messages.to_string(),
            flat_boot.to_string(),
            flat_query.to_string(),
            hier_boot.to_string(),
            hier_query.to_string(),
            format!("{ratio:.3}"),
        ]);
        json_rows.push(
            Obj::default()
                .field("peers", n)
                .field("supers", supers)
                .field("flood_msgs_per_query", flood_out.messages)
                .field("flat_boot", flat_boot)
                .field("flat_query", flat_query)
                .field("hier_boot", hier_boot)
                .field("hier_query", hier_query)
                .field("ratio", fixed(ratio, 4)),
        );
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: flat boot replicates every advertisement across the \
         backbone and grows with supers x peers; cluster-tree boot carries \
         each advertisement once plus merged summary pushes. Answers are \
         asserted identical to the flat oracle at every size.\n",
    );

    json.field("cluster_size", CLUSTER)
        .field("queries_per_size", QUERIES)
        .field("gate_ratio", 0.5)
        .field("answers_identical", true)
        .rows("sizes", json_rows)
        .write(&mut out);
    out.push_str(
        "\nacceptance: >= 1,000 peers; cluster-tree total traffic < 0.5x the \
         flat backbone at every size; answer sets identical to the flat \
         oracle on every query.\n",
    );
    out
}

// ----------------------------------------------------------------------
// E23 — observability-plane overhead at thousand-peer scale
// ----------------------------------------------------------------------

/// E23 — the hierarchical observability plane at 1,000 peers (PR 10
/// tentpole). A Zipf-skewed workload over a fixed pool of chain
/// patterns runs twice on identical seeded placements — plane off,
/// plane on. The off run prices pure query traffic; the on run's extra
/// messages are exactly the rollup pushes (pinned by the transparency
/// proptest), so the overhead ratio is push traffic over query
/// traffic. Gates: identical answers, rollup overhead <= 3% of query
/// traffic in messages and bytes, and the head's pattern table
/// reproducing the workload's Zipf histogram exactly.
pub fn e23(json: BenchJson) -> String {
    const PEERS: usize = 1_000;
    const SUPERS: u32 = 40;
    const CLUSTER: u32 = 14;
    const POOL: usize = 6;
    const QUERIES: usize = 384;
    const ORIGINS: usize = 4;
    const PUSH_US: u64 = 20_000_000;
    const STAGGER_US: u64 = 50_000;
    const GATE: f64 = 0.03;

    let schema = scale_schema();
    let spec = scale_spec(PEERS, 47);

    // A fixed pool of distinct chain patterns over the schema. Drawn and
    // deduplicated here, not through `zipf_workload`: the gated counters
    // were recorded under this order of draws.
    let pool: Vec<QueryPattern> = {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut seen = HashSet::new();
        let mut pool = Vec::new();
        for attempt in 0..1_000 {
            if pool.len() == POOL {
                break;
            }
            if let Some(q) = random_chain_query(&schema, 1 + attempt % 2, &mut rng) {
                if seen.insert(q.to_string()) {
                    pool.push(q);
                }
            }
        }
        pool
    };
    assert_eq!(pool.len(), POOL, "schema too small for the pattern pool");

    // A Zipf(1) draw over the pool: rank r sampled with weight 1/(r+1)
    // (integer weights, for the same reason).
    let workload: Vec<usize> = {
        let weights: Vec<u64> = (0..POOL as u64).map(|r| 840 / (r + 1)).collect();
        let total: u64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5A5A);
        (0..QUERIES)
            .map(|_| {
                let mut x = rng.gen_range(0..total);
                for (i, &w) in weights.iter().enumerate() {
                    if x < w {
                        return i;
                    }
                    x -= w;
                }
                POOL - 1
            })
            .collect()
    };

    // One run over the shared placement: answers, query-phase traffic,
    // rollup-push traffic, query-phase allocations, the routing requests
    // sent down the cluster tree, the subtrees answered from a gather
    // memo instead and the statistics snapshots answers carried, and
    // (plane on) the pattern table a cluster head serves.
    type RunOut = (
        Vec<(ResultSet, bool)>,
        u64,
        u64,
        u64,
        u64,
        (u64, u64),
        (u64, u64, u64),
        Option<PatternStats>,
    );
    let run = |obs_on: bool| -> RunOut {
        let config = PeerConfig {
            obs: obs_on.then(|| ObsConfig {
                push_period_us: PUSH_US,
                ..ObsConfig::default()
            }),
            ..PeerConfig::default()
        };
        let (mut net, ids) = hier_network(&schema, spec, SUPERS, CLUSTER, config);
        // Flush boot-driven rollups so the measured window prices only
        // the query phase (an idle peer has no newer rows, so it stays
        // silent).
        net.run_for(4 * PUSH_US);
        net.sim_mut().reset_metrics();
        let pushes0 = net.obs_pushes_total();
        let push_bytes0 = net.obs_push_bytes_total();
        let (injected, calls, alloc_bytes) = alloc::measure(|| {
            let mut injected = Vec::new();
            for (k, &pi) in workload.iter().enumerate() {
                let origin = ids[(k % ORIGINS) * 113 % ids.len()];
                let qid = net.query(origin, pool[pi].clone());
                injected.push((origin, qid));
                net.run_for(STAGGER_US);
            }
            // Drain: answers finalize, then rollups climb member → head →
            // sibling head with a period to spare.
            net.run_for(4 * PUSH_US + 1_000_000);
            injected
        });
        let allocs = (calls, alloc_bytes);
        let answers: Vec<(ResultSet, bool)> = injected
            .iter()
            .map(|(o, q)| answered(&net, *o, *q))
            .collect();
        let msgs = net.sim().metrics().total_messages() as u64;
        let bytes = net.sim().metrics().total_bytes() as u64;
        let pushes = net.obs_pushes_total() - pushes0;
        let push_bytes = net.obs_push_bytes_total() - push_bytes0;
        // Boot runs no gather, so the totals are the query phase's.
        let node = |p| net.sim().node(node_of(p)).expect("hosted");
        let (sent, memo) = net.super_peers().iter().fold((0, 0), |(sent, memo), &s| {
            let son = &node(s).son;
            (sent + son.hier_requests_sent(), memo + son.memo_answers())
        });
        let attached = net.peers().iter().map(|&p| node(p).stats_attached()).sum();
        let counts = (sent, memo, attached);
        let head_pats = if obs_on {
            let head = net
                .super_peers()
                .iter()
                .copied()
                .find(|&s| {
                    net.sim()
                        .node(node_of(s))
                        .and_then(|n| n.son.cluster.as_ref())
                        .is_some_and(|c| c.head == s)
                })
                .expect("clustered overlay has heads");
            Some(net.obs_snapshot(head).expect("plane is on").pattern_stats())
        } else {
            None
        };
        (
            answers, msgs, bytes, pushes, push_bytes, allocs, counts, head_pats,
        )
    };

    let (answers_off, msgs_off, bytes_off, pushes_off, _, allocs_off, (sent, memo, attached), _) =
        run(false);
    let (answers_on, msgs_on, bytes_on, pushes_on, push_bytes_on, allocs_on, _, head_pats) =
        run(true);
    let per_query = |n: u64| fixed(n as f64 / QUERIES as f64, 3);
    assert_eq!(pushes_off, 0, "plane off must push nothing");
    assert_eq!(answers_on, answers_off, "answers changed with the plane on");
    assert!(
        answers_off.iter().any(|(rs, _)| !rs.is_empty()),
        "every query came back empty — vacuous run"
    );
    assert!(
        answers_off.iter().all(|(_, partial)| !partial),
        "fault-free run must be complete"
    );

    let msg_ratio = pushes_on as f64 / msgs_off as f64;
    let byte_ratio = push_bytes_on as f64 / bytes_off as f64;

    // Hot-pattern attribution: the head's table must reproduce the
    // workload's Zipf histogram exactly, pattern text for pattern text.
    let mut expected: HashMap<String, u64> = HashMap::new();
    for &pi in &workload {
        *expected.entry(pool[pi].to_string()).or_insert(0) += 1;
    }
    let pats = head_pats.expect("plane-on run serves a head snapshot");
    assert_eq!(
        pats.total(),
        QUERIES as u64,
        "head pattern table must count every answered query"
    );
    for (text, count) in &expected {
        let entry = pats
            .get(text)
            .unwrap_or_else(|| panic!("pattern '{text}' missing from the head's table"));
        assert_eq!(
            entry.count, *count,
            "pattern '{text}' count diverged from the workload histogram"
        );
    }
    let hottest = pats.by_count()[0];
    let max_expected = expected.values().max().copied().unwrap_or(0);
    assert_eq!(
        hottest.count, max_expected,
        "the head's hottest pattern must match the Zipf head"
    );

    let mut out = format!(
        "E23 — observability plane: rollup overhead and hot-pattern attribution\n\
         overlay: {PEERS} peers, {SUPERS} supers, clusters of {CLUSTER}; \
         workload: {QUERIES} Zipf-drawn queries over {POOL} patterns from \
         {ORIGINS} origins; push period {}ms\n\n",
        PUSH_US / 1_000,
    );
    let mut t = Table::new("metric, plane off, plane on, overhead");
    t.row(vec![
        "query msgs".into(),
        msgs_off.to_string(),
        msgs_on.to_string(),
        format!("{} pushes ({:.2}%)", pushes_on, 100.0 * msg_ratio),
    ]);
    t.row(vec![
        "query bytes".into(),
        bytes_off.to_string(),
        bytes_on.to_string(),
        format!("{} push bytes ({:.2}%)", push_bytes_on, 100.0 * byte_ratio),
    ]);
    t.row(vec![
        "routing requests/query".into(),
        per_query(sent),
        String::new(),
        format!("{} subtrees/query from the memo", per_query(memo)),
    ]);
    let calls_ratio = allocs_on.0 as f64 / allocs_off.0 as f64;
    t.row(vec![
        "alloc calls / bytes".into(),
        format!("{} / {}", allocs_off.0, allocs_off.1),
        format!("{} / {}", allocs_on.0, allocs_on.1),
        format!("{:+.2}% calls", 100.0 * (calls_ratio - 1.0)),
    ]);
    out.push_str(&t.render());
    out.push_str("\nhead pattern table (hottest first):\n");
    out.push_str(&pats.render());

    assert!(
        msg_ratio <= GATE,
        "rollup message overhead {msg_ratio:.4} exceeds the {GATE} gate \
         ({pushes_on} pushes vs {msgs_off} query msgs)"
    );
    assert!(
        byte_ratio <= GATE,
        "rollup byte overhead {byte_ratio:.4} exceeds the {GATE} gate \
         ({push_bytes_on} push bytes vs {bytes_off} query bytes)"
    );
    // The plane-off run does strictly less work than the plane-on run.
    assert!(
        allocs_off.1 <= allocs_on.1,
        "plane off asked for {} alloc bytes, more than plane on's {}",
        allocs_off.1,
        allocs_on.1
    );

    json.field("peers", PEERS)
        .field("supers", SUPERS)
        .field("queries", QUERIES)
        .field("pool", POOL)
        .field("gate_ratio", GATE)
        .field("query_msgs", msgs_off)
        .field("query_bytes", bytes_off)
        .field("hier_requests_per_query", per_query(sent))
        .field("memo_answers_per_query", per_query(memo))
        .field("stats_per_query", per_query(attached))
        .field("obs_pushes", pushes_on)
        .field("obs_push_bytes", push_bytes_on)
        .field("msg_ratio", fixed(msg_ratio, 5))
        .field("byte_ratio", fixed(byte_ratio, 5))
        .field("answers_identical", true)
        .field("hot_patterns_reproduced", true)
        .field("off_alloc_calls", allocs_off.0)
        .field("off_alloc_bytes", allocs_off.1)
        .field("on_alloc_calls", allocs_on.0)
        .field("on_alloc_bytes", allocs_on.1)
        .write(&mut out);
    out.push_str(&format!(
        "\nacceptance: answers identical plane on/off; rollup overhead \
         {:.2}% msgs / {:.2}% bytes of query traffic (gate {:.0}%); head \
         pattern table reproduces the Zipf workload histogram exactly.\n",
        100.0 * msg_ratio,
        100.0 * byte_ratio,
        100.0 * GATE,
    ));
    out
}
