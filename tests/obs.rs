//! Integration tests for the hierarchical observability plane: rollup
//! convergence at cluster heads, disabled-plane transparency, the
//! flight recorder, pattern statistics and the slow-query log.
//!
//! The two property tests pin the plane's acceptance bar:
//!
//! * **Rollup ≡ merge** — after the network quiesces, the snapshot any
//!   cluster head serves equals the fold of every tree member's own
//!   rows (the client sits outside the tree and pushes nothing).
//! * **Transparency** — with the plane off, answers and traffic are
//!   identical to a plane-on run minus exactly the rollup pushes: the
//!   plane observes, it never participates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::exec::{node_of, ObsConfig, Rollup};
use sqpeer::net::FaultPlan;
use sqpeer::overlay::HybridNetwork;
use sqpeer::prelude::*;
use sqpeer_testkit::{community_schema, hier_network, random_chain_query, NetworkSpec, SchemaSpec};

/// Rollup push period used throughout: short enough that the drain
/// window covers many propagation rounds (member → head → sibling head
/// needs three).
const PUSH_US: u64 = 200_000;

fn obs_config() -> PeerConfig {
    PeerConfig {
        obs: Some(ObsConfig {
            push_period_us: PUSH_US,
            ..ObsConfig::default()
        }),
        ..PeerConfig::default()
    }
}

/// A seeded workload on a 12-peer, 4-super hierarchical overlay
/// (clusters of 2, so two heads): four staggered chain queries, then a
/// drain long enough for every rollup to climb the tree and cross to
/// the sibling head.
fn run_workload(seed: u64, config: PeerConfig) -> (HybridNetwork, Vec<(PeerId, QueryId, String)>) {
    run_workload_under(seed, config, None)
}

/// [`run_workload`] with `faults` installed before the first query.
fn run_workload_under(
    seed: u64,
    config: PeerConfig,
    faults: Option<FaultPlan>,
) -> (HybridNetwork, Vec<(PeerId, QueryId, String)>) {
    let schema = community_schema(SchemaSpec::default(), seed ^ 0xA5A5);
    let spec = NetworkSpec {
        peers: 12,
        seed,
        ..NetworkSpec::default()
    };
    let (mut net, ids) = hier_network(&schema, spec, 4, 2, config);
    if let Some(plan) = faults {
        net.sim_mut().set_fault_plan(plan);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut injected = Vec::new();
    for k in 0..4usize {
        let Some(q) = random_chain_query(&schema, 1 + (k % 2), &mut rng) else {
            continue;
        };
        let origin = ids[(seed as usize + k) % ids.len()];
        let text = q.to_string();
        let qid = net.query(origin, q);
        injected.push((origin, qid, text));
        net.run_for(400_000);
    }
    net.run_for(3_000_000);
    (net, injected)
}

/// Every tree member of the overlay: super-peers and simple peers. The
/// client node is outside the cluster tree and never pushes.
fn tree_members(net: &HybridNetwork) -> Vec<PeerId> {
    net.super_peers()
        .iter()
        .chain(net.peers())
        .copied()
        .collect()
}

/// The fold of every tree member's *own* rows — its link receipts and
/// the patterns it rooted: the ground truth a head's snapshot must
/// reproduce.
fn global_merge(net: &HybridNetwork) -> Rollup {
    let mut rows = Rollup::default();
    for p in tree_members(net) {
        let obs = net
            .sim()
            .node(node_of(p))
            .and_then(|n| n.obs())
            .expect("plane is on for every node");
        rows.fold(&obs.own);
    }
    rows
}

/// The cluster heads of the overlay, read off the peers' cluster info.
fn heads(net: &HybridNetwork) -> Vec<PeerId> {
    net.super_peers()
        .iter()
        .copied()
        .filter(|&s| {
            net.sim()
                .node(node_of(s))
                .and_then(|n| n.son.cluster.as_ref())
                .is_some_and(|c| c.head == s)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance pin: after quiescence, the snapshot at *every* cluster
    /// head equals the fold of all members' own rows — link row for link
    /// row, pattern row for pattern row, and so the summed pattern table
    /// byte for byte.
    #[test]
    fn head_rollup_equals_global_merge(seed in 0u64..500) {
        let (net, injected) = run_workload(seed, obs_config());
        prop_assert!(!injected.is_empty());
        let global = global_merge(&net);
        let heads = heads(&net);
        prop_assert!(!heads.is_empty(), "a clustered overlay has heads");
        for h in heads {
            let snap = net.obs_snapshot(h).expect("plane is on");
            prop_assert_eq!(
                &snap.links,
                &global.links,
                "head {} rollup diverged from the global merge",
                h
            );
            prop_assert_eq!(
                &snap.patterns,
                &global.patterns,
                "head {} pattern rows diverged from the global merge",
                h
            );
            prop_assert_eq!(
                snap.pattern_stats().render(),
                global.pattern_stats().render()
            );
        }
    }

    /// Acceptance pin: the plane is observation-only. The identical
    /// workload run with the plane off yields the same outcome for every
    /// query, and the plane-on run's traffic exceeds it by *exactly* the
    /// rollup pushes — nothing else moved.
    #[test]
    fn disabled_plane_is_transparent(seed in 0u64..500) {
        let (net_off, q_off) = run_workload(seed, PeerConfig::default());
        let (net_on, q_on) = run_workload(seed, obs_config());
        prop_assert_eq!(&q_off, &q_on, "workload injection diverged");
        for (origin, qid, _) in &q_off {
            let off = net_off.outcome(*origin, *qid);
            let on = net_on.outcome(*origin, *qid);
            match (off, on) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.partial, b.partial);
                    prop_assert_eq!(
                        a.result.clone().sorted(),
                        b.result.clone().sorted(),
                        "query {} answer changed with the plane on",
                        qid
                    );
                }
                _ => prop_assert!(false, "query {} completed on one side only", qid),
            }
        }
        // Sends, not deliveries: a push emitted at the very end of the
        // window may still be in flight at cutoff, but it was counted
        // as sent on both ledgers.
        let sends = |net: &HybridNetwork| -> (u64, u64) {
            let m = net.sim().metrics();
            tree_members(net)
                .into_iter()
                .chain(std::iter::once(net.client()))
                .map(|p| m.node(node_of(p)))
                .fold((0, 0), |(msgs, bytes), n| {
                    (msgs + n.messages_sent as u64, bytes + n.bytes_sent as u64)
                })
        };
        let (msgs_off, bytes_off) = sends(&net_off);
        let (msgs_on, bytes_on) = sends(&net_on);
        prop_assert_eq!(net_off.obs_pushes_total(), 0);
        prop_assert_eq!(
            msgs_on,
            msgs_off + net_on.obs_pushes_total(),
            "plane-on traffic must exceed plane-off by exactly the pushes"
        );
        prop_assert_eq!(
            bytes_on,
            bytes_off + net_on.obs_push_bytes_total(),
            "plane-on bytes must exceed plane-off by exactly the push bytes"
        );
    }
}

/// Rollup ≡ merge under duplicated and reordered delivery: every push
/// may arrive twice, and late behind a newer one, yet after the drain
/// every head's snapshot still equals the global merge, links and
/// patterns alike. (No loss: a lost row returns only with its next
/// change.)
#[test]
fn head_rollup_equals_global_merge_under_duplication() {
    for (dup_permille, jitter_us) in [(50, 20_000), (200, 0)] {
        for seed in 0..10 {
            let plan = FaultPlan::new(seed)
                .with_duplication(dup_permille)
                .with_jitter(jitter_us);
            let (net, _) = run_workload_under(seed, obs_config(), Some(plan));
            let global = global_merge(&net);
            for h in heads(&net) {
                let snap = net.obs_snapshot(h).expect("plane is on");
                let setting = format!("dup {dup_permille}‰ jitter {jitter_us}µs seed {seed}");
                assert_eq!(snap.links, global.links, "{setting}: head {h}");
                assert_eq!(snap.patterns, global.patterns, "{setting}: head {h}");
            }
        }
    }
}

/// The flight recorder at a query origin captures the dispatch trail,
/// and its dump renders one line per event.
#[test]
fn flight_recorder_captures_dispatches() {
    let (net, injected) = run_workload(7, obs_config());
    let dispatched: Vec<&(PeerId, QueryId, String)> = injected
        .iter()
        .filter(|(o, _, _)| {
            net.sim()
                .node(node_of(*o))
                .and_then(|n| n.obs())
                .is_some_and(|obs| !obs.recorder.is_empty())
        })
        .collect();
    assert!(
        !dispatched.is_empty(),
        "no origin recorded any flight events"
    );
    for (origin, _, _) in dispatched {
        let dump = net.flight_dump(*origin);
        assert!(
            dump.contains("dispatch"),
            "origin {origin} dump has no dispatch event:\n{dump}"
        );
    }
}

/// Pattern statistics at a head attribute every injected query text,
/// with counts summing to the number of finalized queries.
#[test]
fn pattern_stats_attribute_query_texts() {
    let (net, injected) = run_workload(11, obs_config());
    let answered: Vec<&(PeerId, QueryId, String)> = injected
        .iter()
        .filter(|(o, q, _)| net.outcome(*o, *q).is_some())
        .collect();
    assert!(!answered.is_empty(), "vacuous run");
    let head = heads(&net)[0];
    let pats = net.obs_snapshot(head).expect("plane is on").pattern_stats();
    assert_eq!(
        pats.total(),
        answered.len() as u64,
        "every finalized query increments exactly one pattern entry"
    );
    for (_, _, text) in answered {
        assert!(
            pats.get(text).is_some(),
            "pattern '{text}' missing from the head's table"
        );
    }
}

/// A zero threshold classifies every query as slow: each lands in the
/// origin's slow-query log with its EXPLAIN and profile JSON attached
/// (tracing on), and the recorder notes the event.
#[test]
fn zero_threshold_logs_every_query_with_json() {
    let config = PeerConfig {
        trace: true,
        obs: Some(ObsConfig {
            push_period_us: PUSH_US,
            slow_query_us: 0,
        }),
        ..PeerConfig::default()
    };
    let (net, injected) = run_workload(13, config);
    let mut logged = 0usize;
    for (origin, qid, _) in &injected {
        if net.outcome(*origin, *qid).is_none() {
            continue;
        }
        let obs = net
            .sim()
            .node(node_of(*origin))
            .and_then(|n| n.obs())
            .expect("plane is on");
        let entry = obs
            .slow_queries
            .iter()
            .find(|s| s.query == *qid)
            .unwrap_or_else(|| panic!("query {qid} missing from the slow log"));
        assert!(entry.explain_json.is_some(), "tracing was on");
        assert!(entry.profile_json.is_some(), "tracing was on");
        assert!(net.flight_dump(*origin).contains("slow-query"));
        logged += 1;
    }
    assert!(logged > 0, "vacuous run");
}

/// The default threshold (1 s virtual) never fires on this workload —
/// the slow log stays empty while pattern stats still fill.
#[test]
fn default_threshold_keeps_slow_log_empty() {
    let (net, _) = run_workload(17, obs_config());
    for p in tree_members(&net) {
        let obs = net
            .sim()
            .node(node_of(p))
            .and_then(|n| n.obs())
            .expect("plane is on");
        assert!(
            obs.slow_queries.is_empty(),
            "peer {p} logged a slow query under the default threshold"
        );
    }
    let snap = net.obs_snapshot(heads(&net)[0]).expect("plane is on");
    assert!(
        snap.pattern_stats().total() > 0,
        "pattern stats must still accumulate"
    );
}

/// A quiet overlay is silent: once the workload has drained, ten more
/// push periods send no rollup push at all — no peer holds a row newer
/// than it last pushed, and the plane does not count its own pushes.
#[test]
fn drained_overlay_pushes_nothing() {
    let (mut net, injected) = run_workload(23, obs_config());
    assert!(!injected.is_empty(), "vacuous run");
    let pushes = net.obs_pushes_total();
    let push_bytes = net.obs_push_bytes_total();
    assert!(pushes > 0, "the workload's rows were never pushed");
    net.run_for(10 * PUSH_US);
    assert_eq!(net.obs_pushes_total(), pushes, "an idle peer pushed");
    assert_eq!(net.obs_push_bytes_total(), push_bytes);
}
