//! The chaos harness: generated workloads under generated fault plans,
//! checked against a fault-free oracle.
//!
//! §2.4 argues vertical distribution ensures *correctness* and horizontal
//! distribution *completeness*. Under silent faults the system cannot
//! always be complete, so the harness checks the two invariants that must
//! survive arbitrary (seeded) chaos:
//!
//! * **Soundness** — every row a root returns appears in the centralised
//!   oracle answer. Faults may eat rows; they must never invent them.
//! * **Completeness honesty** — a result *not* flagged partial equals the
//!   oracle answer exactly. The system may degrade, but it must say so.
//!
//! Queries that never complete (their root crashed, or control traffic
//! was eaten with nothing to time out) are exempt from both checks — no
//! answer is not a wrong answer — but are counted so callers can bound
//! vacuity. Every violation message embeds `(seed, fault plan)` so a
//! failing schedule replays exactly.

use crate::network_gen::{hier_network, hybrid_network, NetworkSpec};
use crate::schema_gen::{community_schema, SchemaSpec};
use crate::workload::random_chain_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqpeer::exec::{node_of, ObsConfig, PeerConfig, QueryId};
use sqpeer::net::{FaultPlan, Metrics, SplitMix64};
use sqpeer::overlay::{oracle_answer, oracle_base, HybridNetwork};
use sqpeer::routing::PeerId;
use sqpeer::rql::{QueryPattern, ResultSet};

/// Shape of one chaos run: network size, workload size and fault rates.
/// Everything derives deterministically from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Master seed: drives the schema, bases, workload, fault plan and
    /// churn schedule.
    pub seed: u64,
    /// Number of simple-peers.
    pub peers: usize,
    /// Number of super-peers on the backbone.
    pub super_count: u32,
    /// Queries injected (staggered, at rotating origins).
    pub queries: usize,
    /// Global silent message loss in permille (no failure notification).
    pub silent_loss_permille: u32,
    /// Message duplication in permille.
    pub duplicate_permille: u32,
    /// Uniform extra delivery jitter in µs (reorders messages).
    pub jitter_us: u64,
    /// Peers crashed ungracefully mid-run (each restarts later).
    pub churn_crashes: usize,
    /// Advertisement lease; crashed peers are purged from routing once it
    /// lapses unrenewed.
    pub lease_us: u64,
    /// Stream subplan results in batches of at most this many rows, so
    /// answers cross the network as multi-packet streams whose sequence
    /// numbers the faults reorder and duplicate. `None` keeps
    /// single-packet results (the pre-streaming behaviour).
    pub stream_batch_rows: Option<usize>,
    /// Group the super-peers into a hierarchical SON with clusters of
    /// this size (`None` keeps the flat backbone). Routing then descends
    /// the cluster tree, and the invariants additionally cover summary
    /// staleness, gather timeouts and head churn.
    pub cluster_size: Option<u32>,
    /// Super-peers crashed ungracefully mid-run (each restarts later) —
    /// in hierarchical mode this takes down cluster heads and entry
    /// super-peers, exercising degradation and summary re-push.
    pub super_churn_crashes: usize,
    /// Fault-profile name, embedded in every replay artifact so a red
    /// run replays with `CHAOS_PROFILE=<name> CHAOS_SEED=<seed>`.
    pub profile: &'static str,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 1,
            peers: 10,
            super_count: 2,
            queries: 12,
            silent_loss_permille: 100,
            duplicate_permille: 50,
            jitter_us: 20_000,
            churn_crashes: 1,
            lease_us: 2_000_000,
            stream_batch_rows: None,
            cluster_size: None,
            super_churn_crashes: 0,
            profile: "default",
        }
    }
}

/// The outcome of a chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// The spec's master seed (for replay).
    pub seed: u64,
    /// The spec's fault-profile name (for replay).
    pub profile: &'static str,
    /// The generated fault plan, printed (for replay).
    pub replay: String,
    /// Queries that produced an outcome at their root.
    pub answered: usize,
    /// Queries that never completed (root crashed, control traffic eaten).
    pub unanswered: usize,
    /// Answered queries flagged partial.
    pub partial: usize,
    /// Answered queries claiming completeness.
    pub complete: usize,
    /// Invariant violations (empty = the run is sound and honest).
    pub violations: Vec<String>,
    /// One replay artifact per violation: the failing query's EXPLAIN
    /// rendering plus its profile JSON (tracing is on in chaos runs).
    pub artifacts: Vec<String>,
    /// Network-wide counters (messages, silent drops, retries, …).
    pub metrics: Metrics,
    /// Highest per-channel in-flight data-packet count any sender
    /// recorded — 0 unless the spec streamed, and never above the credit
    /// window when it did.
    pub max_stream_inflight: u32,
}

impl ChaosReport {
    /// True when every answered query was sound and honestly flagged.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one seeded chaos schedule and checks both invariants.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosReport {
    run_chaos_keeping(spec).0
}

/// [`run_chaos`], also returning the drained network and each query's `(origin, qid)`.
pub fn run_chaos_keeping(spec: &ChaosSpec) -> (ChaosReport, HybridNetwork, Vec<(PeerId, QueryId)>) {
    let schema = community_schema(SchemaSpec::default(), spec.seed ^ 0xA5A5);
    let net_spec = NetworkSpec {
        peers: spec.peers,
        seed: spec.seed,
        ..NetworkSpec::default()
    };
    // Tight subplan timeout so lost-message recovery converges well
    // within the drain window; leases on so churn heals.
    // Tracing on: a violation's artifact carries the failing query's
    // EXPLAIN and profile, so a red run replays with full context.
    // Observability is on but local-only (push period 0): the flight
    // recorder and slow-query log capture every run for the replay
    // artifacts without injecting rollup traffic that would perturb the
    // fault plan's RNG draws and change pinned schedules.
    let config = PeerConfig {
        subplan_timeout_us: Some(1_000_000),
        ad_lease_us: Some(spec.lease_us),
        trace: true,
        stream_batch_rows: spec.stream_batch_rows,
        obs: Some(ObsConfig {
            push_period_us: 0,
            ..ObsConfig::default()
        }),
        ..PeerConfig::default()
    };
    let (mut net, ids) = match spec.cluster_size {
        Some(cluster_size) => {
            hier_network(&schema, net_spec, spec.super_count, cluster_size, config)
        }
        None => hybrid_network(&schema, net_spec, spec.super_count, config),
    };

    // The workload, and its fault-free ground truth. Peer bases are
    // durable across churn, so the oracle can be taken up front.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x00C0_FFEE);
    let mut queries: Vec<QueryPattern> = Vec::new();
    while queries.len() < spec.queries {
        let len = rng.gen_range(1..=2);
        match random_chain_query(&schema, len, &mut rng) {
            Some(q) => queries.push(q),
            None => break,
        }
    }
    let oracle = oracle_base(&schema, net.bases());
    let truths: Vec<ResultSet> = queries.iter().map(|q| oracle_answer(&oracle, q)).collect();

    // The fault plan: global rates plus a seeded churn schedule.
    let mut chaos_rng = SplitMix64::new(spec.seed ^ 0xDEAD_BEEF);
    let now = net.sim().now_us();
    let mut plan = FaultPlan::new(spec.seed)
        .with_silent_loss(spec.silent_loss_permille)
        .with_duplication(spec.duplicate_permille)
        .with_jitter(spec.jitter_us);
    let mut victims: Vec<PeerId> = ids.clone();
    for k in 0..spec.churn_crashes.min(victims.len()) {
        let pick = k + chaos_rng.below((victims.len() - k) as u64) as usize;
        victims.swap(k, pick);
        let crash_at = now + 200_000 + chaos_rng.below(3_000_000);
        let down_for = spec.lease_us + chaos_rng.below(2 * spec.lease_us);
        plan = plan.with_churn(node_of(victims[k]), crash_at, Some(crash_at + down_for));
    }
    // Super-peer churn: routing infrastructure itself crashes and
    // restarts. Crashed heads make gathers time out (silent churn gives
    // no failure notifications), restarted super-peers rebuild their
    // summary tables from periodic re-pushes.
    let mut sp_victims: Vec<PeerId> = net.super_peers().to_vec();
    for k in 0..spec.super_churn_crashes.min(sp_victims.len()) {
        let pick = k + chaos_rng.below((sp_victims.len() - k) as u64) as usize;
        sp_victims.swap(k, pick);
        let crash_at = now + 200_000 + chaos_rng.below(3_000_000);
        let down_for = spec.lease_us + chaos_rng.below(2 * spec.lease_us);
        plan = plan.with_churn(node_of(sp_victims[k]), crash_at, Some(crash_at + down_for));
    }
    let replay = plan.replay_string();
    net.sim_mut().set_fault_plan(plan);

    // Staggered injection at rotating (seeded) origins.
    let mut injected = Vec::with_capacity(queries.len());
    for q in &queries {
        let origin = ids[chaos_rng.below(ids.len() as u64) as usize];
        let qid = net.query(origin, q.clone());
        injected.push((origin, qid));
        net.run_for(400_000);
    }
    // Drain: covers the retry/backoff ladder (1 s base, two retries),
    // lease expiry and every scheduled restart.
    net.run_for(30_000_000);

    let mut report = ChaosReport {
        seed: spec.seed,
        profile: spec.profile,
        replay,
        ..ChaosReport::default()
    };
    for (i, (origin, qid)) in injected.iter().enumerate() {
        let outcome = net.outcome(*origin, *qid);
        let Some(outcome) = outcome else {
            report.unanswered += 1;
            continue;
        };
        report.answered += 1;
        if outcome.partial {
            report.partial += 1;
        } else {
            report.complete += 1;
        }
        let truth = &truths[i];
        let before = report.violations.len();
        // Soundness: no invented rows, ever.
        for row in outcome.result.rows.iter() {
            if !truth.rows.iter().any(|t| t == row) {
                report.violations.push(format!(
                    "UNSOUND: query {i} at {origin} returned a row absent from \
                     the oracle answer [replay: seed={} {}]",
                    report.seed, report.replay
                ));
                break;
            }
        }
        // Completeness honesty: claiming complete means *being* complete.
        if !outcome.partial {
            let got = outcome.result.clone().sorted();
            if got != *truth {
                report.violations.push(format!(
                    "DISHONEST: query {i} at {origin} claimed completeness with \
                     {} rows, oracle has {} [replay: seed={} {}]",
                    got.len(),
                    truth.len(),
                    report.seed,
                    report.replay
                ));
            }
        }
        // Every fresh violation gets a replay artifact: the exact
        // one-command replay line (profile + seed), the query's EXPLAIN
        // plus its profile JSON as recorded at the root, the
        // network-wide adaptation tally so the replayer sees which §2.5
        // trigger (telemetry vs timeout) was driving re-plans, and the
        // root's flight-recorder dump — the protocol events leading up
        // to the anomaly.
        for _ in before..report.violations.len() {
            let explain = net
                .explain(*origin, *qid)
                .map(|e| e.render())
                .unwrap_or_else(|| "(no explain recorded)".to_string());
            let profile_json = net
                .profile(*origin, *qid)
                .map(|p| p.to_json())
                .unwrap_or_else(|| "null".to_string());
            let m = net.sim().metrics();
            report.artifacts.push(format!(
                "replay: CHAOS_PROFILE={} CHAOS_SEED={} cargo test --test chaos replay_from_env\n\
                 query {i} at {origin}\n{explain}\nprofile: {profile_json}\n\
                 replans: {} total ({} slow-channel, {} timeout)\n\
                 flight recorder at {origin}:\n{}",
                spec.profile,
                spec.seed,
                m.replans(),
                m.slow_channel_replans(),
                m.timeout_replans(),
                net.flight_dump(*origin)
            ));
        }
    }
    report.metrics = net.sim().metrics().clone();
    report.max_stream_inflight = net
        .peers()
        .iter()
        .chain(net.super_peers())
        .filter_map(|&p| net.sim().node(node_of(p)))
        .map(|n| n.max_stream_inflight())
        .max()
        .unwrap_or(0);
    (report, net, injected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_chaos_run_is_all_complete() {
        let spec = ChaosSpec {
            seed: 3,
            silent_loss_permille: 0,
            duplicate_permille: 0,
            jitter_us: 0,
            churn_crashes: 0,
            ..ChaosSpec::default()
        };
        let report = run_chaos(&spec);
        assert!(report.holds(), "{:?}", report.violations);
        assert_eq!(report.unanswered, 0);
        assert_eq!(report.partial, 0, "no faults, nothing partial");
        assert!(report.answered > 0);
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let spec = ChaosSpec {
            seed: 9,
            ..ChaosSpec::default()
        };
        let a = run_chaos(&spec);
        let b = run_chaos(&spec);
        assert_eq!(a.replay, b.replay);
        assert_eq!(a.answered, b.answered);
        assert_eq!(a.partial, b.partial);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.artifacts, b.artifacts);
    }

    #[test]
    fn invariants_hold_under_moderate_chaos() {
        let report = run_chaos(&ChaosSpec {
            seed: 17,
            ..ChaosSpec::default()
        });
        assert!(report.holds(), "{:?}", report.violations);
        assert!(report.answered > 0, "run must not be vacuous");
    }

    #[test]
    fn hierarchical_chaos_with_head_churn_is_sound_and_honest() {
        let report = run_chaos(&ChaosSpec {
            seed: 21,
            super_count: 4,
            cluster_size: Some(2),
            super_churn_crashes: 1,
            ..ChaosSpec::default()
        });
        assert!(report.holds(), "{:?}", report.violations);
        assert!(report.answered > 0, "run must not be vacuous");
    }
}
