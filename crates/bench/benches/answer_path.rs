//! Single-layer microbenchmarks of the path an answer takes from the
//! root's `combine()` to the gateway: the union fold, the `Data` packet's
//! encode and decode, a two-pattern chain joined and projected in one pass
//! (what a root's last join does), the final projection, the host cutting
//! an answer into 256-row frames and the gateway rendering those frames,
//! at `gw_scan`'s answer sizes (URIs drawn from a 600-resource pool per
//! column, so they repeat).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sqpeer::exec::{Msg, QueryId};
use sqpeer::net::{Channel, ChannelId, ChannelState};
use sqpeer::prelude::*;
use sqpeer_testkit::fixtures::fig1_schema;
use sqpeer_wire::{decode_frame, encode_frame, AnswerFrame, Envelope, SchemaRegistry};
use std::hint::black_box;

/// Distinct `rows` over `columns` as a peer ships them: one dictionary
/// entry per distinct value.
fn shipped(columns: &[&str], rows: Vec<Vec<Node>>) -> ResultSet {
    let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    let mut set = ResultSet::empty(columns.clone());
    set.union(&ResultSet::from_rows(columns, rows));
    set
}

/// Rows `from..to` of a fixed universe of distinct rows over `columns`
/// (the first two cells identify the row).
fn rows(columns: &[&str], from: usize, to: usize) -> ResultSet {
    let rows = (from..to)
        .map(|i| {
            (0..columns.len())
                .map(|c| {
                    let n = [i % 600, (i / 600 + 31 * i) % 600, 13 * i % 600][c % 3];
                    Node::Resource(Resource::new(format!("http://example.org/data/c{c}/r{n}")))
                })
                .collect()
        })
        .collect();
    shipped(columns, rows)
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
    shipped(&columns, (0..1_800).map(row).collect())
}

/// The host's reply frame carrying `result` as packet `seq`.
fn data_frame(result: ResultSet, seq: u32, last: bool) -> Vec<u8> {
    encode_frame(&Envelope {
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
            result,
            partial: false,
            stats: None,
            seq,
            last,
        },
    })
}

/// What a host does with a finished answer streamed 256 rows a frame:
/// cut, encode every frame, and let the answer go.
fn host_frames(answer: ResultSet) -> Vec<Vec<u8>> {
    let pieces = answer.rows.chunks(256);
    let count = pieces.len();
    pieces
        .enumerate()
        .map(|(seq, rows)| {
            let columns = answer.columns.clone();
            data_frame(ResultSet { columns, rows }, seq as u32, seq + 1 == count)
        })
        .collect()
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
    let part = rows(&["X", "Y"], 0, 1_800);
    group.bench_function("encode_data_1800", |b| {
        b.iter_batched(
            || part.clone(),
            |part| data_frame(part, 0, true),
            BatchSize::SmallInput,
        )
    });
    let frame = data_frame(part, 0, true);
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

    let answer = left.join_onto(&right, Some(&ends)).0;
    let rows = answer.rows.iter().take(5_300);
    let answer = shipped(
        &["X", "Z"],
        rows.map(|r| r.iter().cloned().collect()).collect(),
    );
    group.bench_function("host_frames_5300", |b| {
        b.iter_batched(|| answer.clone(), host_frames, BatchSize::SmallInput)
    });
    let frames = host_frames(answer);
    assert_eq!(frames.len(), 21);
    group.bench_function("gateway_render_5300", |b| {
        b.iter(|| {
            let mut rendered = AnswerFrame::new();
            for frame in &frames {
                let flags = rendered.push_data(&frame[4..], &schemas);
                black_box(flags.expect("a frame we just encoded renders"));
            }
            black_box(rendered.finish(false, 0, 0))
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
