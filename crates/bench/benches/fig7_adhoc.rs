//! E7 (Figure 7) benchmarks: ad-hoc discovery plus the hole-filling query
//! round trip.

use criterion::{criterion_group, criterion_main, Criterion};
use sqpeer::exec::{PeerConfig, PeerMode};
use sqpeer_bench::harness::answer;
use sqpeer_bench::scenario::CHAIN_QUERY;
use sqpeer_testkit::fig7_network;
use std::hint::black_box;

fn config() -> PeerConfig {
    PeerConfig {
        mode: PeerMode::Adhoc,
        ..PeerConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    c.bench_function("fig7/build_network_with_discovery", |b| {
        b.iter(|| black_box(fig7_network(config())))
    });

    c.bench_function("fig7/interleaved_query", |b| {
        b.iter_batched(
            || fig7_network(config()),
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
