//! The metric catalogue — names, units, directions, regression bounds —
//! and the result a workload run reports. `BENCHMARK.json` at the repo
//! root states the same catalogue for outside drivers; a unit test keeps
//! the two in step.

use crate::json::quote;
use crate::stats::Summary;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = ["gw_point", "gw_scan", "sim_zipf", "sim_churn"];

/// Default seed of every command, and the documented hold-out seed that
/// no tuning of the benchmark or of the product is done against.
pub const DEFAULT_SEED: u64 = 20040314;
pub const HOLDOUT_SEED: u64 = 77003;

/// Seconds the timed part of a run is sized for (`--seconds`), as stated
/// in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
/// `bound` is the share of the parent's median by which it may get worse
/// before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_p50_us", "us", Better::Lower, 0.25),
    e2e("throughput_qps", "1/s", Better::Higher, 0.25),
    e2e("rows_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_query", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("msgs_per_query", "count", Better::Lower, 0.01),
    e2e("bytes_per_query", "B", Better::Lower, 0.01),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric: reported by the traced run, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 56] = [
    lo("client.query_p95_us", "us"),
    lo("client.query_max_us", "us"),
    hi("client.samples", "count"),
    lo("rql.compile_us", "us"),
    lo("rql.eval_us", "us"),
    hi("rql.eval_rows_per_s", "1/s"),
    lo("rql.join_us", "us"),
    lo("store.snapshot_build_us", "us"),
    lo("store.insert_us", "us"),
    lo("store.stats_us", "us"),
    lo("routing.route_us", "us"),
    lo("routing.checks_per_route", "count"),
    lo("routing.peers_per_pattern", "count"),
    lo("subsume.match_ns", "ns"),
    hi("cache.hit_ratio", "ratio"),
    hi("cache.subsume_hit_ratio", "ratio"),
    hi("cache.plan_hit_ratio", "ratio"),
    lo("cache.invalidations", "count"),
    lo("cache.evictions", "count"),
    lo("cache.route_hit_us", "us"),
    lo("cache.route_miss_us", "us"),
    lo("plan.generate_us", "us"),
    lo("plan.optimize_us", "us"),
    lo("plan.fetches", "count"),
    lo("plan.subplans", "count"),
    lo("wire.encode_us_per_msg", "us"),
    lo("wire.decode_us_per_msg", "us"),
    hi("wire.encode_mb_per_s", "MB/s"),
    hi("wire.decode_mb_per_s", "MB/s"),
    lo("wire.bytes_per_row", "B"),
    lo("wire.query_decode_us", "us"),
    hi("net.sim_events_per_s", "1/s"),
    lo("net.sim_us_per_event", "us"),
    lo("net.events_per_query", "count"),
    lo("net.virt_ttfr_p50_us", "us"),
    lo("net.virt_latency_p50_us", "us"),
    lo("exec.loopback_self_us", "us"),
    lo("exec.subplans_per_query", "count"),
    lo("exec.retries", "count"),
    lo("exec.replans", "count"),
    lo("overlay.boot_msgs", "count"),
    lo("overlay.boot_s", "s"),
    lo("overlay.update_us", "us"),
    lo("overlay.msgs_per_update", "count"),
    lo("daemon.loopback_query_us", "us"),
    lo("daemon.host_rtt_us", "us"),
    lo("daemon.host_overhead_us", "us"),
    lo("daemon.gateway_rtt_us", "us"),
    lo("daemon.gateway_overhead_us", "us"),
    lo("daemon.fresh_conn_penalty_us", "us"),
    lo("daemon.ttfr_p50_us", "us"),
    lo("daemon.served_latency_p50_us", "us"),
    lo("daemon.idle_cpu_pct", "%"),
    lo("daemon.wait_share", "ratio"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.ladder_vs_p50_pct", "%"),
];

/// What one run of one workload found.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Timed operations attempted and failed: transport errors, refusals,
    /// `Error`/`OverQuota`, answers that differ from the oracle, `partial`
    /// where the oracle is complete, operations lost to the watchdog.
    pub attempted: u64,
    pub failed: u64,
    /// Untraced runs: every end-to-end metric, in catalogue order.
    pub end_to_end: Vec<Summary>,
    /// Traced runs: every per-layer metric, in catalogue order.
    pub per_layer: Vec<f64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The table a person reads.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {}  attempted {}  failed {}  failed_ratio {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed_ratio(),
        );
        if self.traced {
            for (def, value) in PER_LAYER.iter().zip(&self.per_layer) {
                let _ = writeln!(
                    out,
                    "  {:<30} {:>16.3} {:<6} ({} is better)",
                    def.name,
                    value,
                    def.unit,
                    def.better.word()
                );
            }
        } else {
            let _ = writeln!(
                out,
                "  {:<24} {:>14} {:<6} {:>14} {:>14}  bound",
                "metric", "value", "unit", "min", "max"
            );
            for (def, s) in END_TO_END.iter().zip(&self.end_to_end) {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>14.3} {:<6} {:>14.3} {:>14.3}  {:.0}%",
                    def.name,
                    s.value,
                    def.unit,
                    s.min,
                    s.max,
                    def.bound * 100.0
                );
            }
        }
        out
    }

    /// The machine-readable last line of a run.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            PER_LAYER
                .iter()
                .zip(&self.per_layer)
                .map(|(d, v)| metric_json(d.name, *v, d.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(d, s)| metric_json(d.name, s.value, d.unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is not a number: {value}");
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        quote(name),
        quote(unit)
    )
}

/// The per-layer vector under construction: set by name, read by name,
/// zero where a layer is not on the workload's path.
pub struct Layers(Vec<f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(vec![0.0; PER_LAYER.len()])
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0[Self::index(name)] = if value.is_finite() { value } else { 0.0 };
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.0[Self::index(name)]
    }

    pub fn into_values(self) -> Vec<f64> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(PER_LAYER.iter().map(|d| (d.name, d.unit)))
            .chain(WORKLOADS.iter().map(|w| (*w, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_states_the_same_catalogue() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names("per_layer"), layers);
        for (def, m) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.word())
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        for (def, m) in PER_LAYER
            .iter()
            .zip(doc.get("per_layer").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.word())
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }

    #[test]
    fn result_line_is_the_contracted_shape() {
        let report = Report {
            workload: "gw_point",
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            end_to_end: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, _)| Summary::once(i as f64 + 0.5))
                .collect(),
            per_layer: Vec::new(),
        };
        let doc = parse(&report.result_line()).expect("result line parses");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Json::as_str),
            Some("s")
        );
        assert!(report.render().contains("throughput_qps"));
    }
}
