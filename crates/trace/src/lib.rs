//! Query-lifecycle observability: a lightweight span/event recorder plus
//! the per-query [`QueryProfile`] aggregate.
//!
//! The SQPeer pipeline past compilation — routing annotation (§2.3) →
//! plan generation/optimisation (§2.4–§2.5) → channel execution —
//! reports into a [`Tracer`]. Design constraints:
//!
//! * **Virtual-time aware.** The recorder never reads a clock; every call
//!   takes the caller's notion of "now" (the simulator's virtual µs, via
//!   `Ctx::now_us`), so traces are deterministic and replayable.
//! * **Zero-alloc when disabled.** A disabled tracer never allocates and
//!   never formats: every entry point returns before touching its detail
//!   closure, and an empty `Vec` holds no heap storage. Overhead is one
//!   predictable branch per call site. Experiment E18 asserts identical
//!   answers with tracing on and off and reports the wall-clock cost
//!   beside an A/A noise floor; it asserts no overhead bound.
//! * **Spans close within one callback.** Activities that cross simulator
//!   callbacks (a subplan dispatched now, answered later) are recorded as
//!   *paired instant events* (`dispatch`/`answer` sharing a tag), not as
//!   spans — so recorded spans are always properly nested, an invariant
//!   the property suite checks with [`spans_well_nested`].
//!
//! This crate is dependency-free on purpose: `routing`, `plan` and `exec`
//! all record into it, so it must sit below every one of them.

use std::fmt::Write as _;

/// Sentinel query id for events not attributable to a single query
/// (advertisement handling, lease sweeps, …).
pub const NO_QUERY: u64 = u64::MAX;

/// One recorded span or instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The query this event belongs to ([`NO_QUERY`] when unattributed).
    pub qid: u64,
    /// Taxonomy name (see DESIGN.md §4), e.g. `"route"`, `"plan"`,
    /// `"exec:dispatch"`.
    pub name: &'static str,
    /// Free-form detail, formatted lazily (only when tracing is enabled).
    pub detail: String,
    /// Virtual time the span opened (or the instant fired), in µs.
    pub start_us: u64,
    /// Virtual time the span closed; equals `start_us` for instants and
    /// for spans still open.
    pub end_us: u64,
    /// Nesting depth at record time (0 = top level).
    pub depth: u16,
    /// Instant event (no duration) vs span.
    pub instant: bool,
    /// Span begun but not yet ended.
    pub open: bool,
}

impl TraceEvent {
    /// Span duration in virtual µs (0 for instants).
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Handle returned by [`Tracer::begin`]; pass back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// The span/event recorder. One per peer (or per harness); see the
/// module docs for the design constraints it upholds.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
    /// Indices of currently-open spans (LIFO).
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that drops everything (the zero-alloc default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span. Returns a handle for [`Tracer::end`]; on a disabled
    /// tracer this is a no-op returning an inert handle.
    pub fn begin(&mut self, now_us: u64, qid: u64, name: &'static str) -> SpanId {
        self.begin_with(now_us, qid, name, String::new)
    }

    /// Opens a span with lazily-formatted detail.
    pub fn begin_with(
        &mut self,
        now_us: u64,
        qid: u64,
        name: &'static str,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let idx = self.events.len();
        self.events.push(TraceEvent {
            qid,
            name,
            detail: detail(),
            start_us: now_us,
            end_us: now_us,
            depth: self.stack.len() as u16,
            instant: false,
            open: true,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans must close in
    /// LIFO order (they are scoped to one simulator callback).
    pub fn end(&mut self, now_us: u64, span: SpanId) {
        if !self.enabled || span == SpanId::NONE {
            return;
        }
        debug_assert_eq!(self.stack.last(), Some(&span.0), "spans close LIFO");
        if self.stack.last() == Some(&span.0) {
            self.stack.pop();
        }
        if let Some(ev) = self.events.get_mut(span.0) {
            ev.end_us = now_us.max(ev.start_us);
            ev.open = false;
        }
    }

    /// Records an instant event with lazily-formatted detail. The closure
    /// runs only when tracing is enabled — disabled-path call sites pay
    /// one branch and allocate nothing.
    pub fn event_with(
        &mut self,
        now_us: u64,
        qid: u64,
        name: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            qid,
            name,
            detail: detail(),
            start_us: now_us,
            end_us: now_us,
            depth: self.stack.len() as u16,
            instant: true,
            open: false,
        });
    }

    /// All recorded events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Recorded events attributed to `qid`, cloned.
    pub fn events_for(&self, qid: u64) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.qid == qid)
            .cloned()
            .collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// No events recorded?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all recorded events (open-span bookkeeping included).
    pub fn clear(&mut self) {
        self.events.clear();
        self.stack.clear();
    }
}

/// Checks the structural span invariants over a recorded event stream:
/// every span has non-negative duration (guaranteed by `u64` + clamping,
/// asserted anyway against `start > end` corruption), no span is left
/// open, and any two spans are either disjoint in time-and-record-order
/// or properly nested (the later-recorded one closed no later than the
/// earlier one). Returns the first violation found.
pub fn spans_well_nested(events: &[TraceEvent]) -> Result<(), String> {
    let spans: Vec<&TraceEvent> = events.iter().filter(|e| !e.instant).collect();
    for s in &spans {
        if s.open {
            return Err(format!("span {:?} ({}) never closed", s.name, s.detail));
        }
        if s.end_us < s.start_us {
            return Err(format!("span {:?} has negative duration", s.name));
        }
    }
    // Record order is open order; a span recorded while another is open
    // (deeper depth, start within the parent) must close within it.
    for (i, outer) in spans.iter().enumerate() {
        for inner in &spans[i + 1..] {
            if inner.start_us >= outer.end_us {
                continue; // disjoint in time
            }
            if inner.depth > outer.depth
                && inner.start_us >= outer.start_us
                && inner.end_us > outer.end_us
            {
                return Err(format!(
                    "span {:?} [{}, {}] escapes enclosing {:?} [{}, {}]",
                    inner.name,
                    inner.start_us,
                    inner.end_us,
                    outer.name,
                    outer.start_us,
                    outer.end_us
                ));
            }
        }
    }
    Ok(())
}

/// Validates a **stitched cross-peer trace**: the root peer's events for
/// one query plus the event slices remote peers recorded for the same
/// query (attributable because `Subplan` envelopes carry the root's trace
/// context). The stitched tree is well nested when
///
/// * every per-peer slice satisfies [`spans_well_nested`] on its own
///   (peers record independently; stitching cannot repair a locally
///   broken tree),
/// * every event — root or remote — carries the same query id (the
///   stitch key), and
/// * no remote event *precedes* the root's first event: remote work on a
///   query is caused by the root dispatching it, so it cannot start
///   before the root opened the query.
///
/// There is deliberately **no upper bound**: a remote peer may serve a
/// subplan *after* the root finalised the query (a straggler answer to a
/// channel the root already re-planned around, or a duplicate delivery
/// under chaos) — late echoes are legitimate, time travel is not.
/// Returns the first violation found.
pub fn stitched_well_nested(
    root: &[TraceEvent],
    remotes: &[Vec<TraceEvent>],
) -> Result<(), String> {
    spans_well_nested(root).map_err(|e| format!("root trace: {e}"))?;
    let Some(first) = root.iter().map(|e| e.start_us).min() else {
        return if remotes.iter().all(|r| r.is_empty()) {
            Ok(())
        } else {
            Err("remote events recorded for a query the root never traced".into())
        };
    };
    let qid = root[0].qid;
    if let Some(stray) = root.iter().find(|e| e.qid != qid) {
        return Err(format!(
            "root trace mixes queries: expected q{qid}, found q{} ({})",
            stray.qid, stray.name
        ));
    }
    for (i, remote) in remotes.iter().enumerate() {
        spans_well_nested(remote).map_err(|e| format!("remote trace #{i}: {e}"))?;
        for ev in remote {
            if ev.qid != qid {
                return Err(format!(
                    "remote trace #{i} mixes queries: expected q{qid}, found q{} ({})",
                    ev.qid, ev.name
                ));
            }
            if ev.start_us < first {
                return Err(format!(
                    "remote event {:?} at {} precedes the root's query start at {} \
                     (effect before cause)",
                    ev.name, ev.start_us, first
                ));
            }
        }
    }
    Ok(())
}

/// Post-run aggregate for one query: where its virtual time went, what it
/// cost the network, and how the caches and the retry ladder behaved.
/// Built by the root peer at finalisation; rendered by [`Self::render`]
/// and exported by [`Self::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// The query id (root-local numbering).
    pub qid: u64,
    /// The query text (RQL rendering of the compiled pattern).
    pub query: String,
    /// Virtual µs from intake to the routing annotation being available.
    pub routing_us: u64,
    /// Virtual µs from annotation to the executable plan being ready.
    pub planning_us: u64,
    /// Virtual µs from plan-ready to the final answer.
    pub execution_us: u64,
    /// Virtual µs from intake to answer (= the outcome's latency).
    pub total_us: u64,
    /// Time-to-first-row: virtual µs from intake until the first answer
    /// rows reached the root (`None` for an empty answer). Streamed
    /// executions pull this well below `total_us`; monolithic ones get
    /// their first row with the whole answer.
    pub ttfr_us: Option<u64>,
    /// Query-attributed messages this root sent (route + subplans).
    pub messages_sent: u64,
    /// Bytes of those messages.
    pub bytes_sent: u64,
    /// Result-payload bytes received back over channels.
    pub bytes_received: u64,
    /// Distinct peers subplans were dispatched to.
    pub peers_contacted: usize,
    /// Subplan dispatches (first sends; retries counted separately).
    pub subplans_dispatched: u64,
    /// Subplan answers assembled (one per completed channel fetch).
    pub subplans_answered: u64,
    /// Subplans given up on (failure notification or retries exhausted).
    pub subplans_failed: u64,
    /// At-least-once re-sends of timed-out subplans.
    pub retries: u64,
    /// Subplan timeouts observed.
    pub timeouts: u64,
    /// Run-time adaptation rounds.
    pub replans: u32,
    /// Routing-cache lookups that hit (exact or subsumption).
    pub cache_hits: u64,
    /// Routing-cache lookups that missed (full scans).
    pub cache_misses: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Whether the final answer was flagged partial.
    pub partial: bool,
    /// Known-missing contributors (completeness accounting, PR 3).
    pub missing: usize,
    /// Final answer rows.
    pub rows: usize,
}

impl QueryProfile {
    /// Stable, diffable text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "profile q{}: {}", self.qid, self.query);
        let _ = writeln!(
            out,
            "  time     routing {} us | planning {} us | execution {} us | total {} us",
            self.routing_us, self.planning_us, self.execution_us, self.total_us
        );
        let _ = writeln!(
            out,
            "  ttfr     {}",
            match self.ttfr_us {
                Some(t) => format!("{t} us"),
                None => "- (empty answer)".to_string(),
            }
        );
        let _ = writeln!(
            out,
            "  network  {} msgs out ({} B), {} B results in, {} peers contacted",
            self.messages_sent, self.bytes_sent, self.bytes_received, self.peers_contacted
        );
        let _ = writeln!(
            out,
            "  channels {} dispatched, {} answered, {} failed, {} retries, {} timeouts, {} replans",
            self.subplans_dispatched,
            self.subplans_answered,
            self.subplans_failed,
            self.retries,
            self.timeouts,
            self.replans
        );
        let _ = writeln!(
            out,
            "  cache    route {}/{} hit, plan {}/{} hit",
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.plan_cache_hits,
            self.plan_cache_hits + self.plan_cache_misses
        );
        let _ = writeln!(
            out,
            "  answer   {} rows, partial: {}, missing contributors: {}",
            self.rows, self.partial, self.missing
        );
        out
    }

    /// Hand-formatted JSON export (the workspace carries no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"qid\": {}, \"query\": \"{}\", \"routing_us\": {}, \"planning_us\": {}, \
             \"execution_us\": {}, \"total_us\": {}, \"ttfr_us\": {}, \"messages_sent\": {}, \"bytes_sent\": {}, \
             \"bytes_received\": {}, \"peers_contacted\": {}, \"subplans_dispatched\": {}, \
             \"subplans_answered\": {}, \"subplans_failed\": {}, \"retries\": {}, \
             \"timeouts\": {}, \"replans\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \"partial\": {}, \
             \"missing\": {}, \"rows\": {}}}",
            self.qid,
            json_escape(&self.query),
            self.routing_us,
            self.planning_us,
            self.execution_us,
            self.total_us,
            self.ttfr_us
                .map_or("null".to_string(), |t| t.to_string()),
            self.messages_sent,
            self.bytes_sent,
            self.bytes_received,
            self.peers_contacted,
            self.subplans_dispatched,
            self.subplans_answered,
            self.subplans_failed,
            self.retries,
            self.timeouts,
            self.replans,
            self.cache_hits,
            self.cache_misses,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.partial,
            self.missing,
            self.rows
        )
    }
}

/// Escapes a string for embedding in hand-formatted JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_and_allocates_nothing() {
        let mut t = Tracer::disabled();
        let s = t.begin_with(10, 1, "route", || panic!("detail must not format"));
        t.event_with(11, 1, "subsume", || panic!("detail must not format"));
        t.end(12, s);
        assert!(t.is_empty());
        assert_eq!(t.events.capacity(), 0, "no heap storage when disabled");
    }

    #[test]
    fn spans_nest_and_close() {
        let mut t = Tracer::enabled();
        let outer = t.begin(0, 1, "plan");
        let inner = t.begin(5, 1, "optimize");
        t.event_with(7, 1, "rewrite", || "TR1".into());
        t.end(9, inner);
        t.end(12, outer);
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[0].duration_us(), 12);
        assert_eq!(t.events()[1].depth, 1);
        spans_well_nested(t.events()).unwrap();
    }

    #[test]
    fn nesting_checker_catches_escapes() {
        let bad = vec![
            TraceEvent {
                qid: 1,
                name: "outer",
                detail: String::new(),
                start_us: 0,
                end_us: 10,
                depth: 0,
                instant: false,
                open: false,
            },
            TraceEvent {
                qid: 1,
                name: "inner",
                detail: String::new(),
                start_us: 5,
                end_us: 20,
                depth: 1,
                instant: false,
                open: false,
            },
        ];
        assert!(spans_well_nested(&bad).is_err());
    }

    #[test]
    fn stitched_checker_accepts_causal_and_rejects_time_travel() {
        let ev = |name: &'static str, qid: u64, start: u64, end: u64| TraceEvent {
            qid,
            name,
            detail: String::new(),
            start_us: start,
            end_us: end,
            depth: 0,
            instant: start == end,
            open: false,
        };
        let root = vec![
            ev("query:begin", 1, 100, 100),
            ev("query:done", 1, 900, 900),
        ];
        // A remote serving within the query window stitches cleanly, and
        // a straggler *after* query:done is legitimate (late echo).
        let ok_remote = vec![ev("exec:serve", 1, 400, 450)];
        let straggler = vec![ev("exec:serve", 1, 950, 980)];
        stitched_well_nested(&root, std::slice::from_ref(&ok_remote)).unwrap();
        stitched_well_nested(&root, &[ok_remote.clone(), straggler]).unwrap();
        // Effect before cause: remote work predating the root's start.
        let too_early = vec![ev("exec:serve", 1, 50, 60)];
        assert!(stitched_well_nested(&root, &[too_early]).is_err());
        // Cross-query contamination is a stitching bug.
        let wrong_query = vec![ev("exec:serve", 2, 400, 450)];
        assert!(stitched_well_nested(&root, &[wrong_query]).is_err());
        // A locally broken remote tree fails even when causal.
        let mut open_span = ev("exec:serve", 1, 400, 450);
        open_span.open = true;
        assert!(stitched_well_nested(&root, &[vec![open_span]]).is_err());
        // No root trace: remotes for that query cannot exist.
        assert!(stitched_well_nested(&[], &[ok_remote]).is_err());
        stitched_well_nested(&[], &[Vec::new()]).unwrap();
    }

    #[test]
    fn events_filter_by_query() {
        let mut t = Tracer::enabled();
        t.event_with(1, 7, "a", String::new);
        t.event_with(2, 8, "b", String::new);
        t.event_with(3, 7, "c", String::new);
        assert_eq!(t.events_for(7).len(), 2);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn profile_renders_and_exports() {
        let p = QueryProfile {
            qid: 3,
            query: "SELECT X FROM {X}prop1{Y}".into(),
            total_us: 120_000,
            rows: 4,
            ..QueryProfile::default()
        };
        let text = p.render();
        assert!(text.contains("profile q3"), "{text}");
        let json = p.to_json();
        assert!(json.contains("\"total_us\": 120000"), "{json}");
        assert!(json.contains("\"rows\": 4"), "{json}");
    }

    #[test]
    fn json_escaping_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
