//! E6 (Figure 6) benchmarks: the full hybrid query round trip — network
//! build (advertisement push) and end-to-end query execution.

use criterion::{criterion_group, criterion_main, Criterion};
use sqpeer::exec::PeerConfig;
use sqpeer_bench::harness::answer;
use sqpeer_bench::scenario::CHAIN_QUERY;
use sqpeer_testkit::fig6_network;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("fig6/build_network", |b| {
        b.iter(|| black_box(fig6_network(PeerConfig::default())))
    });

    c.bench_function("fig6/end_to_end_query", |b| {
        b.iter_batched(
            || fig6_network(PeerConfig::default()),
            |(mut net, peers)| {
                let query = net.compile(CHAIN_QUERY).unwrap();
                black_box(answer(&mut net, peers[0], query).result.len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
