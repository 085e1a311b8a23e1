//! Bench-trend gate: compares committed `BENCH_*.json` baselines
//! against freshly generated ones and fails on any move of a
//! deterministic counter.
//!
//! ```text
//! trend <baseline_dir> <fresh_dir>
//! ```
//!
//! Every experiment's JSON mixes two kinds of numbers. Virtual-clock
//! counters (messages, bytes, latencies on the simulated clock,
//! violation counts) are bit-deterministic for a given seed and code
//! version: any shift means behaviour changed — or a committed
//! baseline went stale — so they are compared for equality, and a
//! difference fails the gate until the baseline is re-blessed by
//! committing the fresh file. Real-clock numbers (`*_ms`, `*_pct`,
//! wall clocks, loopback/TCP timings, speedups, host facts) vary by
//! machine and are reported but never gated; a gated key that proves
//! machine-dependent joins `machine_dependent()` with its reason, the
//! rule is not widened.
//!
//! The scanner and the gated/ungated rule live beside the writer
//! (`sqpeer_bench::harness`), where a unit test holds them to each other.

use sqpeer_bench::harness::{machine_dependent, metrics, Metric};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// Compares one file's gated metrics: how many were compared, and each
/// failure described. A gated metric missing from the fresh run ends the
/// file's comparison.
fn compare_file(name: &str, baseline: &str, fresh: &str) -> (usize, Vec<String>) {
    let (mut gated, mut failures) = (0, Vec::new());
    let fresh: HashMap<Metric, f64> = metrics(fresh).into_iter().collect();
    for (metric, b) in metrics(baseline) {
        if machine_dependent(&metric.key) {
            continue;
        }
        let (key, occurrence) = (&metric.key, metric.occurrence);
        let Some(&f) = fresh.get(&metric) else {
            failures.push(format!(
                "{name}: gated metric '{key}' (occurrence {occurrence}) missing from the fresh \
                 run — structure changed, re-bless the baseline"
            ));
            break;
        };
        gated += 1;
        if f != b {
            failures.push(format!(
                "{name} {key} (occurrence {occurrence}): baseline {b} fresh {f} — differs"
            ));
        }
    }
    (gated, failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, fresh_dir] = &args[..] else {
        eprintln!("usage: trend <baseline_dir> <fresh_dir>");
        return ExitCode::from(2);
    };
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("trend: cannot read {baseline_dir}: {e}");
            return ExitCode::from(2);
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("trend: no BENCH_*.json baselines under {baseline_dir}");
        return ExitCode::from(2);
    }

    let (mut gated, mut failures) = (0usize, Vec::new());
    for name in &names {
        let read = |dir: &str| std::fs::read_to_string(Path::new(dir).join(name));
        match (read(baseline_dir), read(fresh_dir)) {
            (Err(e), _) => failures.push(format!("{name}: cannot read baseline: {e}")),
            (_, Err(e)) => failures.push(format!(
                "{name}: committed baseline exists but the fresh run produced \
                 nothing ({e}) — did its experiment fail?"
            )),
            (Ok(baseline), Ok(fresh)) => {
                let (compared, mut failed) = compare_file(name, &baseline, &fresh);
                gated += compared;
                failures.append(&mut failed);
            }
        }
    }

    println!(
        "trend: {} baseline file(s), {gated} gated metric(s) compared",
        names.len()
    );
    for f in &failures {
        println!("FAIL {f}");
    }
    if failures.is_empty() {
        println!("trend: all gated metrics equal the committed baselines");
        ExitCode::SUCCESS
    } else {
        println!(
            "trend: {} violation(s) — investigate, or re-bless by committing the fresh \
             BENCH_*.json",
            failures.len()
        );
        ExitCode::FAILURE
    }
}
