//! How experiments run a scenario and record what they saw: pose / run /
//! digest on the simulator, the off/on allocation runner of E18 and E19, one
//! substrate leg for any `Transport` plus the TCP client of E20 and E21,
//! and the `BENCH_*.json` writer with the scanner `trend` reads it by.

use crate::alloc;
use crate::table::Table;
use sqpeer::exec::{node_of, Msg, QueryOutcome};
use sqpeer::net::Transport;
use sqpeer::overlay::{oracle_answer, oracle_base, Network};
use sqpeer::prelude::*;
use sqpeer_daemon::{assemble, await_outcome, outcome, pose, spawn_host, GroupSpec, HostConfig};
use sqpeer_wire::{read_frame, write_frame, Envelope, SchemaRegistry};
use std::fmt::{Debug, Display};
use std::net::TcpStream;
use std::time::Instant;

// ----------------------------------------------------------------------
// Simulator: pose, run, digest
// ----------------------------------------------------------------------

/// Poses `query` at `origin`, runs the network to quiescence and returns
/// the root's outcome.
pub fn answer(net: &mut Network, origin: PeerId, query: QueryPattern) -> QueryOutcome {
    let qid = net.query(origin, query);
    net.run();
    net.outcome(origin, qid).expect("completed").clone()
}

/// [`answer`] for a hand-built plan.
pub fn execute(
    net: &mut Network,
    origin: PeerId,
    query: &QueryPattern,
    plan: &PlanNode,
) -> QueryOutcome {
    let qid = net.execute_plan(origin, query.clone(), plan.clone());
    net.run();
    net.outcome(origin, qid).expect("completed").clone()
}

/// What a single base holding every peer's triples answers.
pub fn oracle_rows(net: &Network, query: &QueryPattern) -> ResultSet {
    oracle_answer(&oracle_base(net.schema(), net.bases()), query)
}

/// How many of `ids`, the origin apart, processed at least one subquery.
pub fn peers_asked(net: &Network, ids: &[PeerId], origin: PeerId) -> usize {
    ids.iter()
        .filter(|&&p| {
            p != origin && net.sim().node(node_of(p)).expect("node").queries_processed > 0
        })
        .count()
}

/// A result set as sorted rows of rendered cells: equal across
/// substrates whenever the answers are.
pub fn render(result: &ResultSet) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| row.iter().map(|n| n.to_string()).collect())
        .collect();
    rows.sort();
    rows
}

/// Mean of a latency sample.
pub fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len() as f64
}

/// Runs `f`, returning what it did and the wall-clock ms it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let done = f();
    (done, t.elapsed().as_secs_f64() * 1e3)
}

/// Best-of-`reps` wall clock of `run`, whose repetitions must all
/// produce the same result.
pub fn best_of<T: PartialEq + Debug>(reps: usize, mut run: impl FnMut() -> (T, f64)) -> (T, f64) {
    let (first, mut best) = run();
    for _ in 1..reps {
        let (again, ms) = run();
        assert_eq!(again, first, "runs of one setting must agree");
        best = best.min(ms);
    }
    (first, best)
}

/// Per-query `(rows, partial)` — the transparency check of the on/off
/// experiments. An unanswered query reads `(usize::MAX, true)`.
pub type Digest = Vec<(usize, bool)>;

/// One full workload pass: every query injected round-robin over `ids`,
/// then the network run to quiescence. Returns the digest and the
/// allocation calls and bytes of that inject+run portion (network build
/// and workload generation are the caller's, and excluded).
pub fn counted(net: &mut Network, ids: &[PeerId], queries: &[QueryPattern]) -> (Digest, u64, u64) {
    let (injected, calls, bytes) = alloc::measure(|| {
        let injected: Vec<(PeerId, QueryId)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let origin = ids[i % ids.len()];
                (origin, net.query(origin, q.clone()))
            })
            .collect();
        net.run();
        injected
    });
    let digest = injected
        .iter()
        .map(|(o, qid)| {
            net.outcome(*o, *qid)
                .map(|oc| (oc.result.len(), oc.partial))
                .unwrap_or((usize::MAX, true))
        })
        .collect();
    (digest, calls, bytes)
}

// ----------------------------------------------------------------------
// A recorder off and on, in allocations
// ----------------------------------------------------------------------

/// Counts what `pass(false)` and `pass(true)` allocate over a
/// `queries`-query workload on `peers` peers, `reps` passes each after one
/// warm-up pass (the process's first-use allocations land there). Every
/// pass of one setting must agree exactly, so the off setting's A/A row
/// reads 0; the on row (`on_detail` says what that switches on) is the
/// recorder's price. Asserts the digests equal — `what` must never change
/// query answers. Returns the digest, the three-row table (off, off again,
/// on) and the record with the runner's keys appended.
pub fn overhead(
    (what, on_detail): (&str, &str),
    (peers, queries, reps): (usize, usize, usize),
    json: BenchJson,
    pass: impl Fn(bool) -> (Digest, u64, u64),
) -> (Digest, String, BenchJson) {
    pass(false);
    let passes = |on: bool| -> Vec<(Digest, u64, u64)> { (0..reps).map(|_| pass(on)).collect() };
    let (off, on) = (passes(false), passes(true));
    for runs in [&off, &on] {
        let agree = runs.iter().all(|r| *r == runs[0]);
        assert!(agree, "the passes of a {what} setting must agree");
    }
    assert_eq!(off[0].0, on[0].0, "{what} changed query answers");

    let mut table = Table::new("configuration, alloc calls, alloc bytes, calls vs baseline");
    let mut json = json
        .field("peers", peers)
        .field("queries", queries)
        .field("reps", reps);
    let again = &off[reps - 1];
    let rows = [
        ("off", format!("{what} off (baseline)"), &off[0]),
        ("off_again", format!("{what} off again (A/A)"), again),
        ("on", format!("{what} on ({on_detail})"), &on[0]),
    ];
    for (key, configuration, &(_, calls, bytes)) in rows {
        let vs = (calls as f64 / off[0].1 as f64 - 1.0) * 100.0;
        let cells = [calls.to_string(), bytes.to_string(), format!("{vs:+.1} %")];
        table.row([configuration].into_iter().chain(cells).collect());
        json = json
            .field(&format!("{key}_alloc_calls"), calls)
            .field(&format!("{key}_alloc_bytes"), bytes);
    }
    let json = json.field("answers_identical", true);
    (off[0].0.clone(), table.render(), json)
}

// ----------------------------------------------------------------------
// Substrates
// ----------------------------------------------------------------------

/// What one run of a workload on one substrate observed, per query.
pub struct Leg {
    /// Time to first row at the root.
    pub ttfr_us: Vec<u64>,
    /// Intake-to-answer latency at the root.
    pub latency_us: Vec<u64>,
    /// The answers, [`render`]ed.
    pub rows: Vec<Vec<Vec<String>>>,
    /// Most stream packets any member ever had in flight on one channel.
    pub max_inflight: u32,
    /// Samples in the per-link TTFR histograms towards the target (0 with
    /// telemetry off).
    pub ttfr_samples: u64,
}

/// One query text posed `queries` times at `target` of a daemon group —
/// all before any is awaited when `concurrent`, so the streams contend
/// for credits on the same links; otherwise one at a time.
#[derive(Clone, Copy)]
pub struct Workload<'a> {
    pub query_text: &'a str,
    pub target: PeerId,
    pub queries: usize,
    pub concurrent: bool,
}

/// The most transport time advertisement discovery may take (assembly
/// returns once the group has discovered itself) and the await slice, on
/// the simulator in its virtual µs: time is free there.
pub const SIM_PACING: (u64, u64) = (2_000_000, 100_000);
/// The same on a real clock: a discovery bound with room, a fine poll.
pub const REAL_PACING: (u64, u64) = (150_000, 5_000);

/// Assembles `spec` on `net`, runs `work` there and asserts every answer
/// complete.
pub fn substrate_leg<T: Transport<PeerNode>>(
    net: &mut T,
    (settle_us, slice_us): (u64, u64),
    spec: GroupSpec,
    work: &Workload,
) -> Leg {
    let Workload {
        target,
        queries,
        concurrent,
        ..
    } = *work;
    let mut group = assemble(net, spec, settle_us);
    let query = group
        .compile(work.query_text)
        .expect("workload query compiles");
    let mut qids = Vec::new();
    if concurrent {
        qids.extend((0..queries).map(|_| pose(net, &mut group, target, query.clone())));
    }
    let (mut ttfr_us, mut latency_us, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..queries {
        if !concurrent {
            qids.push(pose(net, &mut group, target, query.clone()));
        }
        assert!(await_outcome(net, target, qids[i], slice_us, 120_000_000));
        let o = outcome(net, target, qids[i]).expect("awaited");
        assert!(!o.partial, "run lost completeness");
        assert!(o.missing.is_empty(), "missing peers: {:?}", o.missing);
        ttfr_us.push(o.ttfr_us.expect("rows arrived"));
        latency_us.push(o.latency_us);
        rows.push(render(&o.result));
    }
    let max_inflight = group
        .peers
        .iter()
        .filter_map(|&p| net.node(node_of(p)))
        .map(|n| n.max_stream_inflight())
        .max()
        .unwrap_or(0);
    let ttfr_samples = net.telemetry_snapshot().map_or(0, |snapshot| {
        group
            .peers
            .iter()
            .filter_map(|&p| snapshot.link(node_of(p), node_of(target)))
            .map(|l| l.ttfr_us.count())
            .sum()
    });
    Leg {
        ttfr_us,
        latency_us,
        rows,
        max_inflight,
        ttfr_samples,
    }
}

/// Boots a `sqpeerd` TCP host over `spec` and runs `work` against it on
/// one socket, one round trip at a time: writes the `ClientQuery`, reads
/// `Data` frames until `last`. Client-observed clocks include framing,
/// the kernel and the pump's admission poll; `ttfr_us` is the first
/// frame that carried rows. `batch` makes the host stream its answer in
/// frames of at most that many rows (asserted).
pub fn tcp_leg(spec: GroupSpec, batch: Option<usize>, work: &Workload) -> Leg {
    let query = compile(work.query_text, &spec.schema).expect("workload query compiles");
    let mut schemas = SchemaRegistry::new();
    schemas.register(spec.schema.clone());
    let host = spawn_host(HostConfig {
        listen: "127.0.0.1:0".into(),
        status: None,
        spec,
        telemetry_window_us: Some(1_000_000),
        settle_us: REAL_PACING.0,
        answer_batch_rows: batch,
    })
    .expect("host starts");
    let mut stream = TcpStream::connect(host.addr).expect("host reachable");
    let (mut ttfr_us, mut latency_us, mut all_rows) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..work.queries {
        let sent = Instant::now();
        let msg = Msg::ClientQuery {
            qid: QueryId(i as u64),
            query: query.clone(),
        };
        let envelope = Envelope {
            from: PeerId(9_999),
            to: work.target,
            sent_at_us: 0,
            msg,
        };
        write_frame(&mut stream, &envelope).expect("query sent");
        let mut first_us = None;
        let mut answer = ResultSet::default();
        loop {
            let reply: Envelope = read_frame(&mut stream, &schemas)
                .expect("reply readable")
                .expect("host answered");
            let Msg::Data {
                result,
                partial,
                last,
                ..
            } = reply.msg
            else {
                panic!("expected Data");
            };
            assert!(
                batch.is_none_or(|b| result.rows.len() <= b),
                "frame exceeds batch size"
            );
            if first_us.is_none() && !result.rows.is_empty() {
                first_us = Some(sent.elapsed().as_micros() as u64);
            }
            answer.columns = result.columns;
            answer.rows.append(result.rows);
            if last {
                assert!(!partial);
                break;
            }
        }
        latency_us.push(sent.elapsed().as_micros() as u64);
        ttfr_us.push(first_us.expect("at least one frame carried rows"));
        all_rows.push(render(&answer));
    }
    drop(stream);
    host.shutdown();
    Leg {
        ttfr_us,
        latency_us,
        rows: all_rows,
        max_inflight: 0,
        ttfr_samples: 0,
    }
}

// ----------------------------------------------------------------------
// BENCH_*.json: the writer and its reader
// ----------------------------------------------------------------------

/// An ordered JSON object of numbers and booleans.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// Appends `"key": value`. Integers and booleans print as they are;
    /// fractions go through [`fixed`] so a file's digits do not depend on
    /// the value.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }
}

/// A fraction at a fixed number of decimals.
pub fn fixed(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// The machine-readable record of one experiment, written beside its
/// report so the trajectory is tracked per PR: `BENCH_<id>.json`, keys in
/// the order given, one top-level key a line and one array row a line.
pub struct BenchJson {
    id: &'static str,
    top: Obj,
}

impl BenchJson {
    /// The record of experiment `id`; its first key names it.
    pub fn new(id: &'static str) -> Self {
        BenchJson {
            id,
            top: Obj::default().field("experiment", format_args!("\"{id}\"")),
        }
    }

    /// Appends a top-level `"key": value` (see [`Obj::field`]).
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.top = self.top.field(key, value);
        self
    }

    /// Appends a top-level array of objects.
    pub fn rows(self, key: &str, rows: Vec<Obj>) -> Self {
        let lines: Vec<String> = rows
            .iter()
            .map(|r| format!("    {{ {} }}", r.0.join(", ")))
            .collect();
        self.field(key, format_args!("[\n{}\n  ]", lines.join(",\n")))
    }

    /// The file's text.
    pub fn render(&self) -> String {
        format!("{{\n  {}\n}}\n", self.top.0.join(",\n  "))
    }

    /// Writes the file into the working directory and says so in `report`.
    pub fn write(self, report: &mut String) {
        let name = format!("BENCH_{}.json", self.id);
        match std::fs::write(&name, self.render()) {
            Ok(()) => report.push_str(&format!("\nwrote {name}\n")),
            Err(e) => report.push_str(&format!("\ncould not write {name}: {e}\n")),
        }
    }
}

/// Extracts every `"key": number` pair in document order. A
/// deliberately tiny scanner — the files are written by [`BenchJson`],
/// and a scanner keeps `trend` dependency-free.
pub fn scan_numbers(text: &str) -> Vec<(String, f64)> {
    // Split at quotes, every odd piece is quoted; a quoted piece followed
    // by `: <number>` is a key with a numeric value.
    let pieces: Vec<&str> = text.split('"').collect();
    let quoted = pieces.iter().skip(1).step_by(2);
    let after = pieces.iter().skip(2).step_by(2);
    let numeric = |c: char| matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E');
    quoted
        .zip(after)
        .filter_map(|(key, after)| {
            let value = after.trim_start().strip_prefix(':')?.trim_start();
            let len = value.find(|c| !numeric(c)).unwrap_or(value.len());
            Some((key.to_string(), value[..len].parse().ok()?))
        })
        .collect()
}

/// One numeric observation: key plus occurrence index (rows arrays
/// repeat keys; pairing by index keeps row order significant).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Metric {
    /// The JSON key.
    pub key: String,
    /// How many times the key occurred earlier in the document.
    pub occurrence: usize,
}

/// [`scan_numbers`] with each key's occurrences numbered.
pub fn metrics(text: &str) -> Vec<(Metric, f64)> {
    let mut counts = std::collections::HashMap::new();
    scan_numbers(text)
        .into_iter()
        .map(|(key, v)| {
            let n = counts.entry(key.clone()).or_insert(0usize);
            let occurrence = *n;
            *n += 1;
            (Metric { key, occurrence }, v)
        })
        .collect()
}

/// Is this key a machine-dependent measurement (reported, never gated)?
pub fn machine_dependent(key: &str) -> bool {
    key.ends_with("_ms")
        || key.ends_with("_pct")
        || key.contains("wall")
        || key.starts_with("loopback_")
        || key.starts_with("tcp_")
        || key.starts_with("speedup")
        || key == "host_cores"
        || key.chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed(json: &BenchJson) -> Vec<(String, usize, f64)> {
        metrics(&json.render())
            .into_iter()
            .map(|(m, v)| (m.key, m.occurrence, v))
            .collect()
    }

    #[test]
    fn flat_record_reads_back_in_order() {
        let json = BenchJson::new("e99")
            .field("queries", 36)
            .field("baseline_ms", fixed(12.3456, 3))
            .field("sim_ttfr_ratio", fixed(0.25, 4))
            .field("answers_identical", true);
        assert_eq!(
            json.render(),
            "{\n  \"experiment\": \"e99\",\n  \"queries\": 36,\n  \"baseline_ms\": 12.346,\n  \
             \"sim_ttfr_ratio\": 0.2500,\n  \"answers_identical\": true\n}\n"
        );
        assert_eq!(
            observed(&json),
            [
                ("queries".to_string(), 0, 36.0),
                ("baseline_ms".to_string(), 0, 12.346),
                ("sim_ttfr_ratio".to_string(), 0, 0.25),
            ]
        );
    }

    #[test]
    fn rows_repeat_keys_with_rising_occurrence() {
        let row = |peers: usize, ratio: f64| {
            Obj::default()
                .field("peers", peers)
                .field("ratio", fixed(ratio, 4))
        };
        let json = BenchJson::new("e99")
            .field("gate_ratio", 0.5)
            .rows("sizes", vec![row(1_000, 0.0634), row(2_000, 0.0349)])
            .field("wall_off_ms", fixed(777.5, 1));
        assert_eq!(
            observed(&json),
            [
                ("gate_ratio".to_string(), 0, 0.5),
                ("peers".to_string(), 0, 1_000.0),
                ("ratio".to_string(), 0, 0.0634),
                ("peers".to_string(), 1, 2_000.0),
                ("ratio".to_string(), 1, 0.0349),
                ("wall_off_ms".to_string(), 0, 777.5),
            ]
        );
    }

    #[test]
    fn wall_clock_keys_stay_ungated_and_counters_gated() {
        for key in [
            "baseline_ms",
            "noise_floor_pct",
            "wall_ratio_ms",
            "loopback_latency_us_p50",
            "tcp_rtt_us_mean",
            "speedup_warm",
        ] {
            assert!(machine_dependent(key), "{key} must not be gated");
        }
        // A sample of the counters, then every allocation-count key.
        let gated = "messages sim_latency_us_p50 obs_pushes ratio off_alloc_calls \
                     off_alloc_bytes off_again_alloc_calls off_again_alloc_bytes on_alloc_calls \
                     on_alloc_bytes cold_alloc_calls_per_query cold_alloc_bytes_per_query \
                     warm_alloc_calls_per_query warm_alloc_bytes_per_query queries_per_row \
                     alloc_calls alloc_bytes events msgs bytes";
        for key in gated.split_whitespace() {
            assert!(!machine_dependent(key), "{key} must be gated");
        }
    }
}
