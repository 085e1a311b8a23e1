//! The standing model-check: every bounded configuration of the two
//! machines explored to a fixpoint, violation-free, with a termination
//! proof — plus the demonstrations that the harness catches bugs: a
//! sender that skips one credit grant wedges, a silently lost subplan
//! with no timeout to notice it deadlocks real peers, and a member that
//! never heartbeats stays tombstoned forever; each counterexample renders
//! as a replayable trace artifact.
//!
//! Run with `--nocapture` to see the explored-state counts per
//! configuration; CI copies them into the job summary. The same lines
//! are pinned by `tests/states.golden`: a change that moves a count must
//! re-bless it (`BLESS=1 cargo test -p sqpeer-model --test exhaustive`)
//! and explain the difference in DESIGN.md §5.

use sqpeer_model::conform::{self, scenarios, Faults, PeerCfg, PeerMachine};
use sqpeer_model::explore::{explore, Report, ViolationKind};
use sqpeer_model::{stream, trace};

/// Per-configuration state budget: a fixpoint beyond this means the
/// configuration is no longer small-state and must be re-bounded, not
/// silently sampled.
const BUDGET: usize = 2_000_000;

/// The same for the peer machine, whose states each cost a replay of the
/// real peers.
const PEER_BUDGET: usize = 50_000;

/// One configuration's exploration, to run on whichever worker is free.
type Job = Box<dyn FnOnce() -> Report + Send>;

/// Runs `jobs` on two workers, each taking the next one as it finishes
/// the last, and returns the verified reports in job order.
fn run_verified(jobs: Vec<Job>) -> Vec<Report> {
    let queue = std::sync::Mutex::new(jobs.into_iter().enumerate().rev().collect::<Vec<_>>());
    let work = || {
        let mut done = Vec::new();
        loop {
            // The guard must drop before the job runs, or one worker
            // holds the queue for the whole exploration.
            let Some((i, job)) = queue.lock().unwrap().pop() else {
                break;
            };
            let report = job();
            report.assert_verified();
            println!("{}", report.summary());
            done.push((i, report));
        }
        done
    };
    let mut done: Vec<(usize, Report)> = std::thread::scope(|s| {
        let workers = [s.spawn(work), s.spawn(work)];
        let joined = workers.map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        joined.into_iter().flatten().collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, report)| report).collect()
}

/// Compares the per-configuration summary lines with the committed
/// `tests/states.golden` (or rewrites it under `BLESS=1`).
fn golden_check(actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/states.golden");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write states.golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        actual, expected,
        "explored-state lines diverged from tests/states.golden; if intended, re-bless with \
         `BLESS=1 cargo test -p sqpeer-model --test exhaustive` and explain the difference in \
         DESIGN.md §5"
    );
}

/// Both machines, every bounded configuration, explored to a fixpoint —
/// with the acceptance floor: ≥ 10⁵ distinct states covered across the
/// machines. One test so each configuration is explored exactly once per
/// run, on two workers.
#[test]
fn all_machines_exhaustive_meet_coverage_floor() {
    let stream = stream::configs()
        .into_iter()
        .map(|cfg| Box::new(move || explore(&stream::StreamMachine::new(cfg), BUDGET)) as Job);
    let peer = conform::configs()
        .into_iter()
        .map(|cfg| Box::new(move || explore(&PeerMachine::new(cfg), PEER_BUDGET)) as Job);
    let reports = run_verified(stream.chain(peer).collect());
    assert_eq!(reports.len(), 17, "a configuration family went missing");

    let total: usize = reports.iter().map(|r| r.states).sum();
    println!("total explored states across machines: {total}");
    let mut lines: String = reports.iter().map(|r| r.summary() + "\n").collect();
    lines += &format!("total explored states across machines: {total}\n");
    golden_check(&lines);
    assert!(
        total >= 100_000,
        "bounded configs cover only {total} states — below the 10^5 floor"
    );
}

/// Deliberate mutation: a receiver that skips the credit grant for the
/// first data packet starves a window-1 sender forever. The explorer
/// must catch the wedge and the counterexample must land on disk as a
/// replayable chaos artifact in the shared trace grammar.
#[test]
fn skipped_credit_grant_yields_counterexample_artifact() {
    let machine = stream::StreamMachine::new(stream::mutation_cfg());
    let report = explore(&machine, BUDGET);
    let cex = report
        .violation
        .as_ref()
        .expect("skipping a credit grant must wedge the stream");
    assert_eq!(
        cex.kind,
        ViolationKind::Deadlock,
        "the starved sender has no action left: {}",
        report.summary()
    );

    let dir = std::env::temp_dir().join(format!("sqpeer-model-mutation-{}", std::process::id()));
    let path = trace::write_counterexample_to(&dir, &report.name, cex)
        .expect("artifact directory is writable");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("# violation: deadlock"), "{text}");
    // The schedule replays: every non-comment line parses in the shared
    // trace grammar and reaches the wedged state step by step.
    let replay = trace::parse(&report.name, &text).expect("artifact is valid trace grammar");
    assert_eq!(replay.steps.len(), cex.schedule.len());
    assert!(
        replay.steps.iter().all(|s| s.verb == "deliver"),
        "drop/dup-free config: the wedge needs no adversary, only the skipped grant"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes the counterexample of a peer-machine `report` as an artifact,
/// parses it back and replays it with `Conductor::run` on a fresh
/// `scenario`: it must end at the digest the explorer reported.
fn replay_artifact(report: &Report, scenario: fn() -> conform::Conductor) -> trace::Trace {
    let cex = report.violation.as_ref().expect("a counterexample");
    let dir = format!(
        "sqpeer-{}-{}",
        report.name.replace('/', "-"),
        std::process::id()
    );
    let dir = std::env::temp_dir().join(dir);
    let path = trace::write_counterexample_to(&dir, &report.name, cex).expect("writable");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let replay = trace::parse(&report.name, &text).expect("artifact is valid trace grammar");
    let mut conductor = scenario();
    conductor.run(&replay).expect("the counterexample replays");
    let digest = format!("digest={:016x}", conductor.digest());
    assert!(cex.state.starts_with(&digest), "{digest} vs {}", cex.state);
    replay
}

/// Counterexamples of the peer machine are conformance traces. Without a
/// subplan timeout nothing tells the root that its subplan was silently
/// dropped, so real peers deadlock.
#[test]
fn peer_counterexample_replays_as_a_conformance_trace() {
    fn no_timeout() -> conform::Conductor {
        scenarios::chain_pair(|config| config.subplan_timeout_us = None)
    }
    let budget = Faults {
        drops: 1,
        ..Faults::default()
    };
    let cfg = PeerCfg {
        name: "no-timeout-drop",
        scenario: no_timeout,
        budget,
    };
    let report = explore(&PeerMachine::new(cfg), PEER_BUDGET);
    let kind = report.violation.as_ref().map(|cex| &cex.kind);
    assert_eq!(kind, Some(&ViolationKind::Deadlock), "{}", report.summary());
    let replay = replay_artifact(&report, no_timeout);
    assert!(replay.steps.iter().any(|s| s.verb == "drop"));
}

/// The same with time as state: a member running with leases off never
/// heartbeats, so its super-peer tombstones it and it stays tombstoned
/// while up. The holder's heartbeat and sweep ticks then loop forever
/// short of the goal — a fair cycle.
#[test]
fn lease_counterexample_replays_as_a_conformance_trace() {
    fn silent_member() -> conform::Conductor {
        scenarios::lease_super_pair(false)
    }
    let cfg = PeerCfg {
        name: "silent-member",
        scenario: silent_member,
        budget: Faults::default(),
    };
    let report = explore(&PeerMachine::new(cfg), PEER_BUDGET);
    let kind = report.violation.as_ref().map(|cex| &cex.kind);
    assert_eq!(
        kind,
        Some(&ViolationKind::FairCycle),
        "{}",
        report.summary()
    );
    let replay = replay_artifact(&report, silent_member);
    assert!(replay.steps.iter().any(|s| s.get("kind") == Some("sweep")));
}
