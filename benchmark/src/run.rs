//! One workload, one process: set-up, the timed repetitions, the traced
//! ladder, the watchdog, and the fold from repetitions to a report.

use crate::gw::{Gateway, GwKind};
use crate::metrics::{Layers, Report, END_TO_END, RUN_SECONDS};
use crate::sim::{Sim, SimKind};
use crate::span::{by_name, Recorder};
use crate::stats::{median, percentile, Summary};
use crate::sys::{peak_rss_mb, rss_mb};
use crate::workload::{Progress, Rep, Rung, Workload};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A traced run alternates untraced and traced repetitions, five each, so
/// one process yields both sides of `bench.trace_overhead_pct`.
const TRACED_REPETITIONS: usize = 10;
/// Set-up runs this many times per untraced run, each time for a fifth of
/// the repetitions; `setup_s` is the median.
const SETUPS: usize = 5;

/// Watchdog limits: a workload whose resident set, one repetition or whole
/// run passes these is stopped and its remaining operations count as
/// failed. The last keeps a hung run inside an outside driver's patience.
const RSS_LIMIT_MB: f64 = 4096.0;
const REPETITION_LIMIT_S: f64 = 120.0;
const RUN_LIMIT_S: f64 = 170.0;
/// Exit code of a run the watchdog stopped.
pub const WATCHDOG_EXIT: i32 = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Smoke run: tiny counts, one set-up, two repetitions.
    pub quick: bool,
}

fn setup(name: &str, seed: u64, scale: f64) -> Box<dyn Workload> {
    match name {
        "gw_point" => Box::new(Gateway::setup(GwKind::Point, seed, scale)),
        "gw_scan" => Box::new(Gateway::setup(GwKind::Scan, seed, scale)),
        "sim_zipf" => Box::new(Sim::setup(SimKind::Zipf, seed, scale)),
        "sim_churn" => Box::new(Sim::setup(SimKind::Churn, seed, scale)),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// Which watchdog limit, if any, these readings pass.
fn limit_passed(rss_mb: f64, repetition_s: Option<f64>, run_s: f64) -> Option<String> {
    if rss_mb > RSS_LIMIT_MB {
        Some(format!(
            "resident set {rss_mb:.0} MB passed {RSS_LIMIT_MB} MB"
        ))
    } else if repetition_s.is_some_and(|s| s > REPETITION_LIMIT_S) {
        Some(format!("a repetition passed {REPETITION_LIMIT_S} s"))
    } else if run_s > RUN_LIMIT_S {
        Some(format!("the run passed {RUN_LIMIT_S} s"))
    } else {
        None
    }
}

/// Stops the process when a limit is passed: prints what was lost and a
/// result line without metrics, so a suite can go on to the next workload.
fn watchdog(progress: Arc<Progress>, planned: Arc<AtomicU64>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
        let tripped = limit_passed(rss_mb(), progress.rep_elapsed_s(), progress.elapsed_s());
        if let Some(why) = tripped {
            let done = progress.done.load(Ordering::Relaxed);
            let planned = planned.load(Ordering::Relaxed).max(done).max(1);
            let failed = progress.failed.load(Ordering::Relaxed) + (planned - done);
            println!("watchdog: {why}; {failed} of {planned} operations count as failed");
            println!(
                "{{\"correct\": false, \"attempted\": {planned}, \"failed\": {failed}, \
                 \"metrics\": {{}}}}"
            );
            std::process::exit(WATCHDOG_EXIT);
        }
    }
}

/// Runs one workload to a report; prints the tables a person reads on the
/// way (the caller prints the result line).
pub fn run(opts: &Options) -> Report {
    let scale = if opts.quick {
        0.1
    } else {
        opts.seconds as f64 / RUN_SECONDS as f64
    };
    let setups = if opts.quick || opts.traced { 1 } else { SETUPS };

    let progress = Arc::new(Progress::new());
    let planned = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let guard = {
        let (progress, planned, stop) = (progress.clone(), planned.clone(), stop.clone());
        std::thread::spawn(move || watchdog(progress, planned, stop))
    };

    // Everything before the first timed operation is set-up: generating
    // inputs from the seed, booting, settling discovery, the oracle's
    // answers, the warm-up pass. The set-ups are spaced evenly through the
    // run: each runs its share of the repetitions and is torn down before
    // the next, so a slow spell on the box catches some of the set-ups and
    // some of the repetitions, never all of either.
    let mut setup_s = Vec::new();
    let mut rec = Recorder::new(Instant::now(), false);
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut attempted = 0;
    let mut last = None;
    for nth in 0..setups {
        if let Some(previous) = last.take() {
            Workload::shutdown(previous);
        }
        let started = Instant::now();
        let mut workload = setup(opts.workload, opts.seed, scale);
        setup_s.push(started.elapsed().as_secs_f64());
        let (repetitions, pause) = match (opts.quick, opts.traced) {
            (true, _) => (2, Duration::ZERO),
            (false, true) => (TRACED_REPETITIONS, Duration::ZERO),
            (false, false) => (workload.repetitions(), workload.pause()),
        };
        attempted = workload.ops_per_rep() * repetitions as u64;
        planned.store(attempted, Ordering::Relaxed);
        for i in repetitions * nth / setups..repetitions * (nth + 1) / setups {
            let traced = opts.traced && i % 2 == 1;
            rec.set_enabled(traced);
            progress.rep_begins();
            let rep = workload.repetition(&mut rec, &progress);
            progress.rep_ends();
            reps.push((traced, rep));
            std::thread::sleep(pause);
        }
        last = Some(workload);
    }
    let mut workload = last.expect("at least one set-up");
    let failed = progress.failed.load(Ordering::Relaxed);

    let mut report = Report {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.traced,
        attempted,
        failed,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    if opts.traced {
        rec.set_enabled(true);
        let mut layers = Layers::new();
        let rungs = workload.layers(&mut rec, &mut layers);
        fold_layers(&reps, &rungs, &mut layers);
        report.per_layer = layers.into_values();
        print!("{}", report.render());
        print!("{}", render_rungs(&rungs));
        print!("{}", render_spans(&rec));
        write_spans(&rec, opts);
    } else {
        let all: Vec<&Rep> = reps.iter().map(|(_, rep)| rep).collect();
        report.end_to_end = fold_end_to_end(&all, median(&setup_s));
        print!("{}", report.render());
    }
    workload.shutdown();
    stop.store(true, Ordering::SeqCst);
    guard.join().expect("watchdog thread panicked");
    report
}

/// Per-repetition values of every end-to-end metric, then their median —
/// or, for the timings of a workload that times single operations, the
/// same reading of the uncontended repetition (`Rep::uncontended`). CPU
/// time, which a busy box stretches but never shrinks, is read from the
/// quiet end either way: where operations are not timed singly, from the
/// lowest-decile repetition.
fn fold_end_to_end(reps: &[&Rep], setup_s: f64) -> Vec<Summary> {
    let values = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(r)).collect::<Vec<_>>();
    let per_rep = |f: &dyn Fn(&Rep) -> f64| Summary::of(&values(f));
    let quiet = Rep::uncontended(reps);
    let timing = |f: &dyn Fn(&Rep) -> f64| match &quiet {
        Some(rep) => per_rep(f).valued(f(rep)),
        None => per_rep(f),
    };
    let cpu = |f: &dyn Fn(&Rep) -> f64| match &quiet {
        Some(rep) => per_rep(f).valued(f(rep)),
        None => per_rep(f).valued(percentile(&values(f), 10.0)),
    };
    let queries = |r: &Rep| r.query_us.len().max(1) as f64;
    END_TO_END
        .iter()
        .map(|def| match def.name {
            "setup_s" => Summary::once(setup_s),
            "query_p50_us" => timing(&|r| median(&r.query_us)),
            "throughput_qps" => timing(&|r| r.query_us.len() as f64 / r.wall_s),
            "rows_per_s" => timing(&|r| r.rows as f64 / r.wall_s),
            "cpu_ms_per_query" => cpu(&|r| r.cpu_s * 1e3 / queries(r)),
            "peak_rss_mb" => Summary::once(peak_rss_mb()),
            "msgs_per_query" => per_rep(&|r| r.msgs as f64 / queries(r)),
            "bytes_per_query" => per_rep(&|r| r.bytes as f64 / queries(r)),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        })
        .collect()
}

/// The layers read off the repetitions themselves (counts from the
/// product's public accessors, the client's own tail) and the two
/// `bench.*` cross-checks.
fn fold_layers(reps: &[(bool, Rep)], rungs: &[Rung], layers: &mut Layers) {
    let side = |traced: bool| -> Vec<&Rep> {
        reps.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r)
            .collect()
    };
    let p50 = |reps: &[&Rep]| median(&reps.iter().map(|r| median(&r.query_us)).collect::<Vec<_>>());
    let (untraced, traced) = (side(false), side(true));
    let untraced_p50 = p50(&untraced);
    // Samples of the untraced repetitions, pooled.
    let pooled = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        untraced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let latencies = pooled(|r| &r.query_us);
    layers.set("client.query_p95_us", percentile(&latencies, 95.0));
    layers.set("client.query_max_us", percentile(&latencies, 100.0));
    layers.set("client.samples", latencies.len() as f64);
    if !traced.is_empty() {
        layers.set(
            "bench.trace_overhead_pct",
            (p50(&traced) - untraced_p50) / untraced_p50 * 100.0,
        );
    }
    if let Some(top) = rungs.last() {
        layers.set(
            "bench.ladder_vs_p50_pct",
            (top.us - untraced_p50) / untraced_p50 * 100.0,
        );
    }

    let total = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|(_, r)| f(r)).sum::<f64>();
    let (events, run_s) = (total(&|r| r.events as f64), total(&|r| r.sim_run_s));
    // What the serving side itself clocked: the gateway's wall clock, or
    // the simulator's virtual one.
    let (ttfr, served) = if events > 0.0 {
        ("net.virt_ttfr_p50_us", "net.virt_latency_p50_us")
    } else {
        ("daemon.ttfr_p50_us", "daemon.served_latency_p50_us")
    };
    layers.set(ttfr, median(&pooled(|r| &r.ttfr_us)));
    layers.set(served, median(&pooled(|r| &r.served_us)));
    if events > 0.0 {
        let queries = total(&|r| r.query_us.len() as f64);
        layers.set("net.sim_events_per_s", events / run_s);
        layers.set("net.sim_us_per_event", run_s * 1e6 / events);
        layers.set("net.events_per_query", events / queries.max(1.0));
    }
    let update_us: Vec<f64> = reps
        .iter()
        .flat_map(|(_, r)| r.update_us.iter().copied())
        .collect();
    if !update_us.is_empty() {
        layers.set("overlay.update_us", median(&update_us));
        layers.set(
            "overlay.msgs_per_update",
            total(&|r| r.update_msgs as f64) / update_us.len() as f64,
        );
    }
    layers.set("exec.retries", total(&|r| r.retries as f64));
    layers.set("exec.replans", total(&|r| r.replans as f64));
}

fn render_rungs(rungs: &[Rung]) -> String {
    let mut out = format!("  {:<34} {:>14} {:>14}\n", "ladder rung", "us", "self us");
    for rung in rungs {
        let _ = writeln!(
            out,
            "  {:<34} {:>14.1} {:>14.1}",
            rung.name, rung.us, rung.self_us
        );
    }
    let sum: f64 = rungs.iter().map(|r| r.self_us).sum();
    let _ = writeln!(
        out,
        "  {:<34} {:>14} {:>14.1}",
        "sum of self times", "", sum
    );
    out
}

/// Where the traced repetitions' and the ladder's time went, span by span.
fn render_spans(rec: &Recorder) -> String {
    let mut out = format!(
        "  {:<34} {:>8} {:>14} {:>14}\n",
        "span", "count", "median us", "median self us"
    );
    for (name, count, us, self_us) in by_name(rec.spans()) {
        let _ = writeln!(out, "  {name:<34} {count:>8} {us:>14.1} {self_us:>14.1}");
    }
    out
}

fn write_spans(rec: &Recorder, opts: &Options) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}.json", opts.workload);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(opts.workload, opts.seed)));
    match written {
        Ok(()) => println!("  {} spans written to {path}", rec.spans().len()),
        Err(e) => println!("  could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_limits() {
        assert_eq!(limit_passed(100.0, Some(5.0), 30.0), None);
        assert_eq!(limit_passed(100.0, None, 30.0), None);
        assert!(limit_passed(5000.0, None, 1.0)
            .unwrap()
            .contains("resident"));
        assert!(limit_passed(100.0, Some(121.0), 125.0)
            .unwrap()
            .contains("repetition"));
        assert!(limit_passed(100.0, None, 171.0).unwrap().contains("run"));
    }

    #[test]
    fn end_to_end_fold_takes_the_median_repetition() {
        let rep = |wall_s: f64, us: f64| Rep {
            wall_s,
            cpu_s: wall_s / 2.0,
            query_us: vec![us; 10],
            rows: 30,
            msgs: 100,
            bytes: 2_000,
            ..Rep::default()
        };
        let reps = [rep(1.0, 100.0), rep(2.0, 300.0), rep(4.0, 200.0)];
        let folded = fold_end_to_end(&reps.iter().collect::<Vec<_>>(), 0.5);
        let value = |name: &str| {
            let i = END_TO_END.iter().position(|d| d.name == name).unwrap();
            folded[i].value
        };
        assert_eq!(value("setup_s"), 0.5);
        assert_eq!(value("query_p50_us"), 200.0);
        assert_eq!(value("throughput_qps"), 5.0); // 10 queries in 2 s
        assert_eq!(value("rows_per_s"), 15.0);
        assert_eq!(value("cpu_ms_per_query"), 50.0); // the quietest: 0.5 s over 10
        assert_eq!(value("msgs_per_query"), 10.0);
        assert_eq!(value("bytes_per_query"), 200.0);
        assert!(value("peak_rss_mb") > 0.0);
    }
}
