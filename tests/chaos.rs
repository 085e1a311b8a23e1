//! The chaos invariant matrix: seeded fault schedules over generated
//! networks and workloads, checked for soundness (no invented rows) and
//! completeness honesty (non-partial answers equal the fault-free
//! oracle).
//!
//! Eight seeds × two fault profiles. The *heavy* profile runs at the
//! acceptance bar — 20 % silent message loss with crash/restart churn.
//! On violation the failing `(seed, fault plan)` is written to an
//! artifact file (CI uploads it) and printed in the panic, together with
//! each failing query's EXPLAIN rendering and profile JSON (chaos runs
//! trace), so the exact schedule replays from the report alone.

use sqpeer::exec::{node_of, PeerNode, QueryId, TraceEvent};
use sqpeer_testkit::{run_chaos, run_chaos_keeping, ChaosSpec};
use std::fs;
use std::path::PathBuf;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

fn light(seed: u64) -> ChaosSpec {
    ChaosSpec {
        seed,
        silent_loss_permille: 50,
        duplicate_permille: 25,
        jitter_us: 10_000,
        churn_crashes: 1,
        profile: "light",
        ..ChaosSpec::default()
    }
}

fn heavy(seed: u64) -> ChaosSpec {
    ChaosSpec {
        seed,
        silent_loss_permille: 200,
        duplicate_permille: 100,
        jitter_us: 50_000,
        churn_crashes: 2,
        profile: "heavy",
        ..ChaosSpec::default()
    }
}

fn artifact_dir() -> PathBuf {
    std::env::var_os("CHAOS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/chaos-artifacts"))
}

fn run_profile(name: &str, spec: ChaosSpec) -> sqpeer_testkit::ChaosReport {
    let report = run_chaos(&spec);
    if !report.holds() {
        let body = format!(
            "profile: {name}\nseed: {}\nreplay: CHAOS_PROFILE={name} CHAOS_SEED={} cargo test --test chaos replay_from_env\nfault plan: {}\nanswered: {} (partial {}, complete {}), unanswered: {}\nviolations:\n{}\n\nper-violation EXPLAIN + profile + flight recorder:\n{}\n",
            report.seed,
            report.seed,
            report.replay,
            report.answered,
            report.partial,
            report.complete,
            report.unanswered,
            report.violations.join("\n"),
            report.artifacts.join("\n---\n"),
        );
        let dir = artifact_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("chaos-{name}-seed{}.txt", spec.seed));
        let _ = fs::write(&path, &body);
        panic!(
            "chaos invariants violated (artifact: {}):\n{body}",
            path.display()
        );
    }
    assert!(
        report.answered > 0,
        "{name} seed {}: vacuous run (every query unanswered)",
        spec.seed
    );
    report
}

/// Streaming under reordering and duplication, no loss: every answer
/// crosses the network as a multi-packet stream (2-row batches), the
/// jitter reorders packets and the duplicator resends them, yet nothing
/// is ever actually lost — so beyond the standard soundness/honesty
/// oracle, every answered query must be *complete* (StreamState's
/// in-order drain and seq-dedup must reconstruct each stream exactly).
fn streamed(seed: u64) -> ChaosSpec {
    ChaosSpec {
        seed,
        silent_loss_permille: 0,
        duplicate_permille: 150,
        jitter_us: 50_000,
        churn_crashes: 0,
        stream_batch_rows: Some(2),
        profile: "streamed",
        ..ChaosSpec::default()
    }
}

/// Hierarchical overlay under churn that takes out super-peers — the
/// nodes carrying cluster summaries and gather state. Crashed heads
/// force the degradation path (re-parenting or flat scatter); the
/// standard oracle still applies: no invented rows, and any answer
/// claimed complete must equal the fault-free answer.
fn hierarchical(seed: u64) -> ChaosSpec {
    ChaosSpec {
        seed,
        super_count: 6,
        cluster_size: Some(2),
        silent_loss_permille: 50,
        duplicate_permille: 25,
        jitter_us: 10_000,
        churn_crashes: 1,
        super_churn_crashes: 1,
        profile: "hierarchical",
        ..ChaosSpec::default()
    }
}

#[test]
fn light_profile_holds_across_seed_matrix() {
    for seed in SEEDS {
        run_profile("light", light(seed));
    }
}

#[test]
fn heavy_profile_holds_across_seed_matrix() {
    for seed in SEEDS {
        run_profile("heavy", heavy(seed));
    }
}

/// Cluster-tree descent under super-peer churn: soundness, honesty and
/// liveness on every seed — gather timeouts and the degradation path
/// must keep queries answering even with a head down.
#[test]
fn hierarchical_profile_holds_across_seed_matrix() {
    for seed in SEEDS {
        run_profile("hierarchical", hierarchical(seed));
    }
}

#[test]
fn streamed_profile_survives_reorder_and_duplication() {
    for seed in SEEDS {
        // The oracle is the identical schedule run without streaming:
        // reordered, duplicated multi-packet streams must reassemble to
        // the same per-run accounting — same answered/partial/complete
        // split — because nothing was actually lost.
        let mono = run_profile(
            "streamed-baseline",
            ChaosSpec {
                stream_batch_rows: None,
                profile: "streamed-baseline",
                ..streamed(seed)
            },
        );
        let report = run_profile("streamed", streamed(seed));
        assert_eq!(
            report.unanswered, 0,
            "seed {seed}: nothing was lost, every query must answer"
        );
        assert_eq!(
            (report.answered, report.partial, report.complete),
            (mono.answered, mono.partial, mono.complete),
            "seed {seed}: streaming changed the outcome accounting"
        );
        assert_eq!(mono.max_stream_inflight, 0, "baseline streamed packets");
        assert!(
            report.max_stream_inflight > 0,
            "seed {seed}: streaming never engaged — workload too small?"
        );
        assert!(
            report.max_stream_inflight <= 4,
            "seed {seed}: credit window breached ({} in flight)",
            report.max_stream_inflight
        );
    }
}

/// Heavy chaos over streamed answers: loss, churn, reordering and
/// duplication together. A single lost packet or credit stalls its
/// stream until the subplan timeout re-sends the whole subplan, so at
/// 20 % loss per packet some seeds never converge inside the drain
/// window — liveness is therefore asserted across the matrix, not per
/// seed. Soundness and completeness honesty must hold on every seed.
#[test]
fn streamed_heavy_profile_holds_across_seed_matrix() {
    let mut answered = 0;
    for seed in SEEDS {
        let report = run_chaos(&ChaosSpec {
            stream_batch_rows: Some(2),
            profile: "streamed-heavy",
            ..heavy(seed)
        });
        assert!(
            report.holds(),
            "streamed-heavy seed {seed}:\n{}",
            report.violations.join("\n")
        );
        assert!(
            report.max_stream_inflight <= 4,
            "seed {seed}: credit window breached ({} in flight)",
            report.max_stream_inflight
        );
        answered += report.answered;
    }
    assert!(answered > 0, "every heavy streamed seed was vacuous");
}

/// Shrunk regression from the streamed matrix: seed 2 is the schedule
/// where reordering + duplication coincide with data-coverage partials
/// (3 of 12 queries are honestly partial even unstreamed). Pinned
/// exactly — streaming must reproduce the baseline accounting to the
/// query, and the duplicated final packets must not double-complete any
/// stream.
///
/// The deterministic essence of this schedule is also pinned as the
/// named conformance trace
/// `crates/model/traces/stream_dup_reorder_seed2.trace`, replayed
/// step-by-step against the real peer logic by `sqpeer-model`'s
/// conformance suite.
/// One-command replay: a violation artifact names its profile and seed,
/// and `CHAOS_PROFILE=heavy CHAOS_SEED=13 cargo test --test chaos
/// replay_from_env` re-runs exactly that schedule with full artifact
/// capture (EXPLAIN, profile JSON, flight-recorder dump). A no-op when
/// the variables are unset, so the matrix stays green in normal runs.
#[test]
fn replay_from_env() {
    let (Ok(profile), Ok(seed)) = (std::env::var("CHAOS_PROFILE"), std::env::var("CHAOS_SEED"))
    else {
        return;
    };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be an integer");
    let spec = match profile.as_str() {
        "default" => ChaosSpec {
            seed,
            ..ChaosSpec::default()
        },
        "light" => light(seed),
        "heavy" => heavy(seed),
        "streamed" => streamed(seed),
        "streamed-baseline" => ChaosSpec {
            stream_batch_rows: None,
            profile: "streamed-baseline",
            ..streamed(seed)
        },
        "streamed-heavy" => ChaosSpec {
            stream_batch_rows: Some(2),
            profile: "streamed-heavy",
            ..heavy(seed)
        },
        "hierarchical" => hierarchical(seed),
        other => panic!("unknown CHAOS_PROFILE '{other}'"),
    };
    let report = run_profile(&profile, spec);
    println!(
        "replayed {profile} seed {seed}: answered {} (partial {}, complete {}), unanswered {}",
        report.answered, report.partial, report.complete, report.unanswered
    );
}

#[test]
fn regression_streamed_dup_reorder_seed2() {
    let report = run_chaos(&streamed(2));
    assert!(report.holds(), "{:?}", report.violations);
    assert_eq!(report.answered, 12);
    assert_eq!(report.unanswered, 0);
    assert_eq!(
        report.partial, 3,
        "seed 2's three data-coverage partials must survive streaming \
         unchanged — more means streams lost rows, fewer means the \
         accounting went dishonest"
    );
    assert!(report.max_stream_inflight > 0 && report.max_stream_inflight <= 4);
}

/// Every recorder of a protocol event agrees. One lossy, streamed light
/// schedule (it retries, times out, re-plans and drops duplicates) is
/// read back: per answered query, the root's profile, tracer and flight
/// ring count the same retries, timeouts and re-plans (the answer
/// abandons whatever is still outstanding, so nothing of the query is
/// retried after it); across the overlay, each protocol counter equals
/// what the tracers and the flight rings recorded.
#[test]
fn recorders_agree_on_a_lossy_run() {
    let spec = ChaosSpec {
        stream_batch_rows: Some(16),
        ..light(2)
    };
    let (report, net, injected) = run_chaos_keeping(&spec);
    assert!(report.holds(), "{:?}", report.violations);
    let node = |p| net.sim().node(node_of(p)).expect("a node of the overlay");
    // What `n` recorded as `name` (tracer) and `kind` (flight ring),
    // about `qid`, or about anything.
    let traced = |n: &PeerNode, of: Option<QueryId>, name: &str| {
        let hit = |e: &&TraceEvent| of.is_none_or(|q| e.qid == q.0);
        n.trace_events()
            .iter()
            .filter(hit)
            .filter(|e| e.name == name)
            .count()
    };
    let flown = |n: &PeerNode, of: Option<QueryId>, kind: &str| {
        let dump = n.flight_dump();
        let header = dump.lines().next().unwrap_or_default();
        assert!(
            header.contains(" 0 dropped"),
            "the ring overflowed: {header}"
        );
        let hit = |line: &&str| {
            let words: Vec<&str> = line.split_whitespace().take(3).collect();
            words[1] == kind && of.is_none_or(|q| words[2] == q.to_string())
        };
        dump.lines().skip(1).filter(hit).count()
    };
    let mut checked = 0;
    for &(origin, qid) in &injected {
        let (Some(profile), Some(_)) = (net.profile(origin, qid), net.outcome(origin, qid)) else {
            continue;
        };
        let (root, of) = (node(origin), Some(qid));
        let retries = profile.retries as usize;
        assert_eq!(retries, traced(root, of, "exec:retry"), "{qid} retries");
        assert_eq!(retries, flown(root, of, "retry"), "{qid} retries");
        let timeouts = profile.timeouts as usize;
        assert_eq!(timeouts, traced(root, of, "exec:timeout"), "{qid} timeouts");
        assert_eq!(timeouts, flown(root, of, "timeout"), "{qid} timeouts");
        let replans = profile.replans as usize;
        assert_eq!(replans, traced(root, of, "exec:replan"), "{qid} replans");
        checked += 1;
    }
    assert!(checked > 0, "no query kept a profile");

    let all: Vec<&PeerNode> = net
        .peers()
        .iter()
        .chain(net.super_peers())
        .map(|&p| node(p))
        .collect();
    let sum = |count: &dyn Fn(&PeerNode) -> usize| all.iter().map(|n| count(n)).sum::<usize>();
    let m = net.sim().metrics();
    let retries = m.retries_sent();
    assert_eq!(retries, sum(&|n| traced(n, None, "exec:retry")));
    assert_eq!(retries, sum(&|n| flown(n, None, "retry")));
    let timeouts = m.timeouts_fired();
    assert_eq!(timeouts, sum(&|n| traced(n, None, "exec:timeout")));
    assert_eq!(timeouts, sum(&|n| flown(n, None, "timeout")));
    assert_eq!(m.replans(), sum(&|n| traced(n, None, "exec:replan")));
    let dups = m.stream_dedup_drops();
    assert_eq!(dups, sum(&|n| traced(n, None, "exec:dedup")));
    assert!(
        retries > 0 && timeouts > 0 && m.replans() > 0 && dups > 0,
        "the schedule must exercise every counter: {} {} {} {}",
        retries,
        timeouts,
        m.replans(),
        dups
    );
}
