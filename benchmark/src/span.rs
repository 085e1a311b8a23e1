//! The benchmark's own in-memory span recorder.
//!
//! Spans are taken from *outside* the program, around calls into each
//! layer's public functions; spans inside the product are a later change
//! (ROADMAP item 1). They stay in memory during the run and are written
//! out once, when the workload ends.

use crate::stats::median;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `query` ties the spans of one request together;
/// `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub query: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per span name, in first-seen order: how many spans, their median
/// duration and their median self time, µs.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut names: Vec<&'static str> = Vec::new();
    for span in spans {
        if !names.contains(&span.name) {
            names.push(span.name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let (mut durations, mut own) = (Vec::new(), Vec::new());
            for (span, self_ns) in spans.iter().zip(&selfs).filter(|(s, _)| s.name == name) {
                durations.push(span.duration_ns() as f64 / 1e3);
                own.push(*self_ns as f64 / 1e3);
            }
            (name, durations.len(), median(&durations), median(&own))
        })
        .collect()
}

/// Collects spans against one shared epoch. A disabled recorder records
/// nothing, so the untraced repetitions pay one branch per call site.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run: same epoch, same
    /// switch, merged back with [`Recorder::absorb`].
    pub fn sibling(&self) -> Recorder {
        Recorder::new(self.epoch, self.enabled)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, query: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            query,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in µs — measured whether or not the recorder is enabled,
    /// because the ladder needs the number either way.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, query);
        let started = Instant::now();
        let out = f();
        let us = started.elapsed().as_nanos() as f64 / 1_000.0;
        self.end(id);
        (out, us)
    }

    /// Merges another thread's spans, renumbering ids past our own.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: one JSON object with a `spans` array.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"query\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.query, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span, in input order: its duration minus the part of
/// that interval its child spans cover (overlapping children count once,
/// children are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for child in spans {
        let parent = child.parent.filter(|p| *p != child.id);
        if let Some(&at) = parent.and_then(|p| index.get(&p)) {
            let parent = &spans[at];
            children[at].push((
                child.start_ns.clamp(parent.start_ns, parent.end_ns),
                child.end_ns.clamp(parent.start_ns, parent.end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time of each rung of a ladder whose rungs are successively larger
/// entry points: a rung's duration minus the rung below it (the lowest
/// rung keeps its own). Never negative: a rung measured faster than the
/// one below it (noise) has no self time to report.
pub fn rung_self_times(rungs_us: &[f64]) -> Vec<f64> {
    rungs_us
        .iter()
        .enumerate()
        .map(|(i, &us)| {
            if i == 0 {
                us
            } else {
                (us - rungs_us[i - 1]).max(0.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            query: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60), // overlaps span 1: 10..60 covered once
            span(3, Some(0), 90, 130), // clipped to the parent's end
            span(4, Some(1), 15, 20), // grandchild: only span 1 pays for it
            span(5, None, 200, 250),  // unrelated root
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 40, 5, 50]);
    }

    #[test]
    fn rung_self_is_the_step_up_from_the_rung_below() {
        assert_eq!(
            rung_self_times(&[5.0, 12.0, 11.0, 40.0]),
            vec![5.0, 7.0, 0.0, 29.0]
        );
        assert!(rung_self_times(&[]).is_empty());
    }

    #[test]
    fn recorder_nests_merges_and_switches_off() {
        let mut rec = Recorder::new(Instant::now(), true);
        let root = rec.begin("root", None, 7);
        let ((), us) = rec.timed("leaf", Some(root), 7, || ());
        rec.end(root);
        assert!(us >= 0.0);
        let mut other = rec.sibling();
        let o = other.begin("other", None, 8);
        let oc = other.begin("other.child", Some(o), 8);
        other.end(oc);
        other.end(o);
        rec.absorb(other);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[3].id, spans[3].parent), (3, Some(2)));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let table = by_name(rec.spans());
        assert_eq!(
            table.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
            vec![("root", 1), ("leaf", 1), ("other", 1), ("other.child", 1)]
        );
        assert!(table[0].3 <= table[0].2, "self time within duration");
        let json = rec.to_json("w", 1);
        assert!(json.contains("\"name\":\"other.child\"") && json.ends_with("]}\n"));

        let mut off = Recorder::new(Instant::now(), false);
        let id = off.begin("x", None, 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
