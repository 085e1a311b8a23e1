//! What the runner needs from a workload, and what a repetition reports.

use crate::metrics::Layers;
use crate::span::Recorder;
use crate::stats::percentile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Everything one timed repetition measured. Per-query vectors hold one
/// entry per *completed* query; counts are totals over the repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall and process-CPU seconds of the repetition, net of the time the
    /// benchmark itself spent verifying answers.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Client-seen latency, system-reported time to first rows and
    /// system-reported latency of each query, µs.
    pub query_us: Vec<f64>,
    pub ttfr_us: Vec<f64>,
    pub served_us: Vec<f64>,
    pub rows: u64,
    /// Messages and bytes the queries (not the writes) caused.
    pub msgs: u64,
    pub bytes: u64,
    pub retries: u64,
    pub replans: u64,
    /// Advertisement writes: wall µs of each, messages they caused.
    pub update_us: Vec<f64>,
    pub update_msgs: u64,
    /// Simulator events processed and the wall seconds spent in its loop.
    pub events: u64,
    pub sim_run_s: f64,
    /// One entry per operation, in sequence order, from a workload that
    /// runs its operations one at a time on the calling thread (the
    /// simulator's do); empty otherwise. See [`Rep::uncontended`].
    pub ops: Vec<OpTime>,
}

/// Wall and process-CPU µs of one operation, and whether it was a query
/// (the others are advertisement writes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTime {
    pub wall_us: f64,
    pub cpu_us: f64,
    pub query: bool,
}

impl Rep {
    /// The repetition this box runs when nothing else runs on it: every
    /// operation at the lowest-decile wall and CPU time it took over all
    /// the repetitions. A neighbour on a shared host only ever adds time,
    /// and adds it for seconds on end, so whole repetitions come out slow
    /// together and their median moves with the neighbour; what one
    /// millisecond-sized operation costs in the quietest tenth of its
    /// repetitions does not. (The decile, not the minimum: one repetition
    /// in which an operation found a cache warm by accident must not pass
    /// for its price.) Counts are the first repetition's — the sequence is
    /// fixed, so every repetition's are the same. `None` when the workload
    /// times no single operations, or when a repetition lost some.
    pub fn uncontended(reps: &[&Rep]) -> Option<Rep> {
        let first = reps.first()?;
        if first.ops.is_empty() || reps.iter().any(|r| r.ops.len() != first.ops.len()) {
            return None;
        }
        let ops: Vec<OpTime> = (0..first.ops.len())
            .map(|i| {
                let decile = |f: fn(&OpTime) -> f64| {
                    percentile(&reps.iter().map(|r| f(&r.ops[i])).collect::<Vec<_>>(), 10.0)
                };
                OpTime {
                    wall_us: decile(|op| op.wall_us),
                    cpu_us: decile(|op| op.cpu_us),
                    ..first.ops[i]
                }
            })
            .collect();
        let queries = ops.iter().filter(|op| op.query);
        Some(Rep {
            wall_s: ops.iter().map(|op| op.wall_us).sum::<f64>() / 1e6,
            cpu_s: ops.iter().map(|op| op.cpu_us).sum::<f64>() / 1e6,
            query_us: queries.map(|op| op.wall_us).collect(),
            rows: first.rows,
            msgs: first.msgs,
            bytes: first.bytes,
            ops,
            ..Rep::default()
        })
    }
}

/// One row of a traced run's ladder, from the smallest entry point to the
/// largest: the rung's duration and its self time — the duration minus the
/// rungs below that it contains.
pub struct Rung {
    pub name: &'static str,
    pub us: f64,
    pub self_us: f64,
}

/// Timed repetitions of the fixed operation sequence in an untraced run.
/// Many short repetitions rather than a few long ones: identical CPU-bound
/// work on a shared box differs by ±5 % from one second to the next, and
/// only a statistic over many intervals sheds that. Operation counts
/// shrink with `--seconds`, this never does.
pub const REPETITIONS: usize = 15;

pub trait Workload {
    /// Timed operations (queries + writes) one repetition attempts.
    fn ops_per_rep(&self) -> u64;

    /// Timed repetitions of an untraced run, and the untimed pause after
    /// each of them.
    fn repetitions(&self) -> usize {
        REPETITIONS
    }
    fn pause(&self) -> Duration {
        Duration::ZERO
    }

    /// Runs the fixed operation sequence once, verifying every answer
    /// against the oracle and ticking `progress` per operation.
    fn repetition(&mut self, rec: &mut Recorder, progress: &Progress) -> Rep;

    /// The traced run's ladder and counters: fills the layers this
    /// workload has, returns the rung table.
    fn layers(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Vec<Rung>;

    /// Stops every thread and socket the workload started.
    fn shutdown(self: Box<Self>);
}

/// Shared with the watchdog: how far the run has got.
pub struct Progress {
    epoch: Instant,
    /// Operations finished, and those of them that failed.
    pub done: AtomicU64,
    pub failed: AtomicU64,
    /// ms since `epoch` at which the current repetition started; 0 = none.
    rep_started_ms: AtomicU64,
}

impl Progress {
    pub fn new() -> Self {
        Progress {
            epoch: Instant::now(),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rep_started_ms: AtomicU64::new(0),
        }
    }

    pub fn tick(&self, ok: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn rep_begins(&self) {
        let ms = (self.epoch.elapsed().as_millis() as u64).max(1);
        self.rep_started_ms.store(ms, Ordering::Relaxed);
    }

    pub fn rep_ends(&self) {
        self.rep_started_ms.store(0, Ordering::Relaxed);
    }

    /// Seconds the current repetition has been running, if one is.
    pub fn rep_elapsed_s(&self) -> Option<f64> {
        match self.rep_started_ms.load(Ordering::Relaxed) {
            0 => None,
            started => Some(self.elapsed_s() - started as f64 / 1e3),
        }
    }
}

/// `base` operations scaled to the requested run length, never below `min`.
pub fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

pub fn us_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(times: &[(f64, bool)]) -> Rep {
        Rep {
            rows: 7,
            ops: times
                .iter()
                .map(|&(us, query)| OpTime {
                    wall_us: us,
                    cpu_us: us / 2.0,
                    query,
                })
                .collect(),
            ..Rep::default()
        }
    }

    #[test]
    fn uncontended_repetition_takes_each_operation_at_its_quiet_decile() {
        // Twenty repetitions of query, write, query. A neighbour stretches
        // repetition 3 throughout; in repetition 5 the second query found
        // a cache warm by accident.
        let reps: Vec<Rep> = (0..20)
            .map(|r| {
                let slow = if r == 3 { 1.5 } else { 1.0 };
                let jitter = r as f64;
                let second = if r == 5 { 10.0 } else { 400.0 + jitter };
                rep(&[
                    ((100.0 + jitter) * slow, true),
                    ((50.0 + jitter) * slow, false),
                    (second * slow, true),
                ])
            })
            .collect();
        let quiet = Rep::uncontended(&reps.iter().collect::<Vec<_>>()).expect("ops were timed");
        // Nearest-rank decile of twenty: the second smallest.
        assert_eq!(quiet.query_us, vec![101.0, 400.0]);
        assert_eq!(quiet.wall_s, (101.0 + 51.0 + 400.0) / 1e6);
        assert_eq!(quiet.cpu_s, quiet.wall_s / 2.0);
        assert_eq!(quiet.rows, 7);
    }

    #[test]
    fn no_uncontended_repetition_without_per_operation_times() {
        let (timed, untimed, short) = (
            rep(&[(1.0, true), (2.0, true)]),
            Rep::default(),
            rep(&[(1.0, true)]),
        );
        assert!(Rep::uncontended(&[]).is_none());
        assert!(Rep::uncontended(&[&untimed, &untimed]).is_none());
        assert!(Rep::uncontended(&[&timed, &short]).is_none());
        assert!(Rep::uncontended(&[&timed, &timed]).is_some());
    }
}
