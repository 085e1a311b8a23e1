//! Single-layer microbenchmarks of the path an answer takes from the
//! root's `combine()` to the gateway: the union fold, the `Data` packet
//! decode, a two-pattern chain joined and projected in one pass (what a
//! root's last join does) and the final projection, at `gw_scan`'s answer
//! sizes (URIs drawn from a 600-resource pool per column, so they repeat).

use criterion::{criterion_group, criterion_main, Criterion};
use sqpeer::exec::{Msg, QueryId};
use sqpeer::net::{Channel, ChannelId, ChannelState};
use sqpeer::prelude::*;
use sqpeer_testkit::fixtures::fig1_schema;
use sqpeer_wire::{decode_frame, encode_frame, Envelope, SchemaRegistry};
use std::hint::black_box;

/// Rows `from..to` of a fixed universe of distinct rows over `columns`
/// (the first two cells identify the row).
fn rows(columns: &[&str], from: usize, to: usize) -> ResultSet {
    ResultSet {
        columns: columns.iter().map(|c| c.to_string()).collect(),
        rows: (from..to)
            .map(|i| {
                (0..columns.len())
                    .map(|c| {
                        let n = [i % 600, (i / 600 + 31 * i) % 600, 13 * i % 600][c % 3];
                        Node::Resource(Resource::new(format!("http://example.org/data/c{c}/r{n}")))
                    })
                    .collect()
            })
            .collect(),
    }
}

/// One half of a two-pattern chain: 1,800 rows of a unique end column
/// and the join column `Y`, which takes 600 values three times each.
fn chain_half(columns: [&str; 2], end: usize) -> ResultSet {
    let uri = |c: &str, n: usize| {
        Node::Resource(Resource::new(format!("http://example.org/data/{c}/r{n}")))
    };
    let row = |i: usize| {
        let (end_cell, y) = (uri(columns[end], i), uri("Y", i % 600));
        if end == 0 {
            vec![end_cell, y]
        } else {
            vec![y, end_cell]
        }
    };
    ResultSet {
        columns: columns.iter().map(|c| c.to_string()).collect(),
        rows: (0..1_800).map(row).collect(),
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("answer_path");

    // Consecutive parts share two-thirds of their rows.
    let parts: Vec<ResultSet> = (0..3)
        .map(|k| rows(&["X", "Y"], k * 600, k * 600 + 1_800))
        .collect();
    group.bench_function("union_all_3x1800", |b| {
        b.iter(|| {
            let mut acc = parts[0].clone();
            acc.union_all(&parts[1..]);
            black_box(acc)
        })
    });

    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    let frame = encode_frame(&Envelope {
        from: PeerId(1),
        to: PeerId(0),
        sent_at_us: 0,
        msg: Msg::Data {
            channel: Channel {
                id: ChannelId(1),
                root: PeerId(0),
                dest: PeerId(1),
                state: ChannelState::Open,
            },
            qid: QueryId(1),
            tag: 1,
            result: rows(&["X", "Y"], 0, 1_800),
            partial: false,
            stats: None,
            seq: 0,
            last: true,
        },
    });
    group.bench_function("decode_data_1800", |b| {
        b.iter(|| black_box(decode_frame::<Envelope>(black_box(&frame), &schemas)))
    });

    // 1,800 ⋈ 1,800 on `Y` is 5,400 rows, projected onto the ends.
    let (left, right) = (chain_half(["X", "Y"], 0), chain_half(["Y", "Z"], 1));
    let ends: Vec<String> = ["X", "Z"].iter().map(|c| c.to_string()).collect();
    assert_eq!(left.join_onto(&right, Some(&ends)).0.len(), 5_400);
    group.bench_function("join_project_chain_5400", |b| {
        b.iter(|| black_box(left.join_onto(&right, Some(&ends))))
    });

    let wide = rows(&["X", "Y", "Z"], 0, 5_300);
    let permuted: Vec<String> = ["Z", "X", "Y"].iter().map(|c| c.to_string()).collect();
    group.bench_function("project_permute_5300", |b| {
        b.iter(|| black_box(wide.project(&permuted)))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
