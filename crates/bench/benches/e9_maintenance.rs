//! E9 benchmarks: per-churn-event maintenance cost of the three routing
//! knowledge structures.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::prelude::*;
use sqpeer::routing::{PathIndex, TripleIndexCost};
use sqpeer_bench::scenario::fragment_bases;
use sqpeer_testkit::{community_schema, DataSpec, SchemaSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let schema = community_schema(SchemaSpec::default(), 8);
    // One of E9's churning peers (3 properties), at twice its data volume.
    let data = DataSpec {
        triples_per_property: 100,
        class_pool: 50,
    };
    let base = fragment_bases(&schema, 1, 3, data, &mut StdRng::seed_from_u64(9)).remove(0);
    let active = ActiveSchema::of_base(&base);

    c.bench_function("e9/derive_advertisement", |b| {
        b.iter(|| black_box(ActiveSchema::of_base(&base)))
    });

    c.bench_function("e9/path_index_join_leave", |b| {
        b.iter(|| {
            let mut idx = PathIndex::new(3);
            idx.index_peer(PeerId(1), &active, &schema);
            black_box(idx.remove_peer(PeerId(1)))
        })
    });

    c.bench_function("e9/triple_index_cost_model", |b| {
        b.iter(|| black_box(TripleIndexCost::join_cost(black_box(base.triple_count()))))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
