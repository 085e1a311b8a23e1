//! E24 — the work a query costs, counted: allocations, simulator events,
//! messages and bytes per query on E23's placement at the benchmark's
//! `sim_*` size, and allocations per step of an answer's path at
//! `gw_scan`'s sizes. Every number is a count, so every key is gated.

use crate::alloc;
use crate::harness::{fixed, BenchJson, Obj};
use crate::scenario::{chain_half, chain_workload, host_frames, scale_schema, scale_spec};
use crate::table::Table;
use sqpeer::overlay::Network;
use sqpeer::prelude::*;
use sqpeer_testkit::{fixtures::fig1_schema, hier_network};
use sqpeer_wire::{decode_frame, AnswerFrame, Envelope, SchemaRegistry};
use std::sync::Arc;

pub fn e24(json: BenchJson) -> String {
    const PEERS: usize = 500;
    const QUERIES: usize = 8;
    let (schema, config) = (scale_schema(), PeerConfig::default());
    let (mut net, ids) = hier_network(&schema, scale_spec(PEERS, 24), 20, 7, config);
    // A one- and a two-pattern chain, both with answers, posed once each to warm up.
    let chains = chain_workload(&schema, 1, 2);
    let pose = |net: &mut Network, query: &QueryPattern| -> [u64; 5] {
        net.sim_mut().reset_metrics();
        let (events, calls, bytes) = alloc::measure(|| {
            net.query(ids[0], query.clone());
            net.sim_mut().run_to_quiescence() as u64
        });
        let m = net.sim().metrics();
        let (msgs, sent) = (m.total_messages() as u64, m.total_bytes() as u64);
        [calls, bytes, events, msgs, sent]
    };
    for query in &chains {
        pose(&mut net, query);
    }
    // `sim_churn`'s writes, in pairs that undo each other: a holder of the
    // one-pattern chain's property empties its base, then gets it back.
    // Each re-pushes the holder's advertisement.
    let property = chains[0].patterns()[0].property;
    let (writer, original) = (ids.iter().zip(net.bases()))
        .find(|(_, base)| base.populated_properties().contains(&property))
        .map(|(&peer, base)| (peer, base.clone()))
        .expect("a holder of the property");
    let mut sim = Vec::new();
    for (r, row) in ["warm one-pattern", "warm two-pattern", "after an ad write"]
        .into_iter()
        .enumerate()
    {
        let mut sum = [0; 5];
        for i in 0..QUERIES {
            if r == 2 {
                net.update_peer_base(writer, |base| match i % 2 {
                    0 => *base = DescriptionBase::new(Arc::clone(&schema)),
                    _ => *base = original.clone(),
                });
                net.sim_mut().run_to_quiescence();
            }
            let counts = pose(&mut net, &chains[if r < 2 { r } else { i % 2 }]);
            sum.iter_mut().zip(counts).for_each(|(s, n)| *s += n);
        }
        let per_query = sum.map(|n| fixed(n as f64 / QUERIES as f64, 3));
        sim.push([row.to_string()].into_iter().chain(per_query).collect());
    }

    // The answer path; inputs are built outside each step's window.
    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    let names = |cs: &[&str]| -> Vec<String> { cs.iter().map(|c| c.to_string()).collect() };
    // Consecutive parts share two-thirds of their rows; the first is the
    // left half of a chain whose 1,800 ⋈ 1,800 on `Y` is 5,400 rows.
    let parts: Vec<ResultSet> = (0..3).map(|k| chain_half(["X", "Y"], 0, k * 600)).collect();
    let frame = host_frames(parts[0].clone(), usize::MAX).remove(0);
    let (left, right) = (&parts[0], chain_half(["Y", "Z"], 1, 0));
    let (ends, permuted) = (names(&["X", "Z"]), names(&["Z", "X", "Y"]));
    let wide = left.join_onto(&right, None).0;
    let (mut answer, joined) = left.join_onto(&right, Some(&ends));
    let first = answer.rows.chunks(5_300).next().expect("rows");
    answer.rows = first;
    let frames = host_frames(answer.clone(), 256);
    assert_eq!((joined, frames.len()), (5_400, 21));
    let mut inputs = [parts[0].clone(), answer].map(Some);
    let mut path = Vec::new();
    let mut step = |name: &str, f: &mut dyn FnMut()| {
        let ((), calls, bytes) = alloc::measure(f);
        path.push(vec![name.to_string(), calls.to_string(), bytes.to_string()]);
    };
    step("union fold 3x1800", &mut || {
        parts[0].clone().union_all(&parts[1..])
    });
    step("Data encode 1800", &mut || {
        host_frames(inputs[0].take().expect("once"), usize::MAX);
    });
    step("Data decode 1800", &mut || {
        decode_frame::<Envelope>(&frame, &schemas).expect("decodes");
    });
    step("join+project 5400", &mut || {
        left.join_onto(&right, Some(&ends));
    });
    step("project 5400", &mut || drop(wide.project(&permuted)));
    step("host 256-row frames 5300", &mut || {
        host_frames(inputs[1].take().expect("once"), 256);
    });
    step("gateway render 5300", &mut || {
        let mut rendered = AnswerFrame::new();
        for frame in &frames {
            rendered.push_data(&frame[4..], &schemas).expect("renders");
        }
        rendered.finish(false, 0, 0);
    });

    let mut out = format!(
        "E24 — work per query, counted\n\n\
         simulator: {PEERS} peers, 20 supers, clusters of 7 (E23's placement); \
         {QUERIES} queries a row at one origin after a warm-up posing of each \
         chain; the write row alternates the chains, each after a write. All \
         figures are per query.\n\n"
    );
    let (sim_table, sim) = record("query, alloc calls, alloc bytes, events, msgs, bytes", sim);
    let (path_table, path) = record("answer path step, alloc calls, alloc bytes", path);
    out.push_str(&format!("{sim_table}\n{path_table}"));
    json.field("peers", PEERS)
        .field("queries_per_row", QUERIES)
        .rows("sim", sim)
        .rows("answer_path", path)
        .write(&mut out);
    out.push_str("\nacceptance: every key is a count, equal on every run (gated by trend).\n");
    out
}

/// `rows` as a table under the comma-separated `header` and as JSON
/// objects: a row's first cell under the header's last word (`"step"`),
/// the others under their column names in snake case (`"alloc_calls"`).
fn record(header: &str, rows: Vec<Vec<String>>) -> (String, Vec<Obj>) {
    let mut table = Table::new(header);
    let header: Vec<&str> = header.split(", ").collect();
    let name_key = header[0].rsplit(' ').next().expect("named");
    let mut objects = Vec::new();
    for cells in rows {
        let mut obj = Obj::default().field(name_key, format_args!("\"{}\"", cells[0]));
        for (column, cell) in header[1..].iter().zip(&cells[1..]) {
            obj = obj.field(&column.replace(' ', "_"), cell);
        }
        objects.push(obj);
        table.row(cells);
    }
    (table.render(), objects)
}
