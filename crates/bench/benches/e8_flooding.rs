//! E8 benchmarks: SON end-to-end query cost vs flooding cost at growing
//! network sizes, on E8's relevant-four placement and flooding topology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqpeer::prelude::*;
use sqpeer::routing::flood;
use sqpeer_bench::harness::answer;
use sqpeer_bench::scenario::relevant_four;
use sqpeer_testkit::{chain_properties, chain_query_text, community_schema, SchemaSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let schema = community_schema(SchemaSpec::default(), 8);
    let chain = chain_properties(&schema, 2)
        .into_iter()
        .next()
        .expect("chain exists");
    let query_text = chain_query_text(&schema, &chain);

    let mut group = c.benchmark_group("e8");
    group.sample_size(10);
    for n in [16usize, 64] {
        group.bench_with_input(BenchmarkId::new("son_query", n), &n, |b, &n| {
            b.iter_batched(
                || relevant_four(&schema, &chain, n),
                |(mut net, ids, _)| {
                    let query = net.compile(&query_text).unwrap();
                    black_box(answer(&mut net, ids[n - 1], query).result.len())
                },
                criterion::BatchSize::SmallInput,
            )
        });

        let (_, _, topo) = relevant_four(&schema, &chain, n);
        group.bench_with_input(BenchmarkId::new("flood", n), &n, |b, &n| {
            b.iter(|| black_box(flood(&topo, PeerId(0), n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
