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
use std::path::Path;
use std::process::ExitCode;

/// A gated comparison whose fresh value differs from the baseline.
struct Violation {
    file: String,
    metric: Metric,
    baseline: f64,
    fresh: f64,
}

fn compare_file(
    name: &str,
    baseline: &str,
    fresh: &str,
    violations: &mut Vec<Violation>,
    gated: &mut usize,
) -> Result<(), String> {
    let fresh_map: std::collections::HashMap<Metric, f64> = metrics(fresh).into_iter().collect();
    for (metric, b) in metrics(baseline) {
        if machine_dependent(&metric.key) {
            continue;
        }
        let Some(&f) = fresh_map.get(&metric) else {
            return Err(format!(
                "{name}: gated metric '{}' (occurrence {}) missing from the fresh run — \
                 structure changed, re-bless the baseline",
                metric.key, metric.occurrence
            ));
        };
        *gated += 1;
        if f != b {
            violations.push(Violation {
                file: name.to_string(),
                metric,
                baseline: b,
                fresh: f,
            });
        }
    }
    Ok(())
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

    let mut violations = Vec::new();
    let mut gated = 0usize;
    let mut failures = Vec::new();
    for name in &names {
        let base_path = Path::new(baseline_dir).join(name);
        let fresh_path = Path::new(fresh_dir).join(name);
        let baseline = match std::fs::read_to_string(&base_path) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("{name}: cannot read baseline: {e}"));
                continue;
            }
        };
        let fresh = match std::fs::read_to_string(&fresh_path) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!(
                    "{name}: committed baseline exists but the fresh run produced \
                     nothing ({e}) — did its experiment fail?"
                ));
                continue;
            }
        };
        if let Err(e) = compare_file(name, &baseline, &fresh, &mut violations, &mut gated) {
            failures.push(e);
        }
    }

    println!(
        "trend: {} baseline file(s), {} gated metric(s) compared",
        names.len(),
        gated
    );
    for v in &violations {
        println!(
            "FAIL {} {} (occurrence {}): baseline {} fresh {} — differs",
            v.file, v.metric.key, v.metric.occurrence, v.baseline, v.fresh
        );
    }
    for f in &failures {
        println!("FAIL {f}");
    }
    if violations.is_empty() && failures.is_empty() {
        println!("trend: all gated metrics equal the committed baselines");
        ExitCode::SUCCESS
    } else {
        println!(
            "trend: {} violation(s) — investigate, or re-bless by committing the fresh \
             BENCH_*.json",
            violations.len() + failures.len()
        );
        ExitCode::FAILURE
    }
}
