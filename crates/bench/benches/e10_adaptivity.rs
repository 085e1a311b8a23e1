//! E10 benchmarks: end-to-end query execution with a mid-flight crash,
//! adaptive vs static, on E10's replica pair at half its data volume.

use criterion::{criterion_group, criterion_main, Criterion};
use sqpeer::exec::PeerConfig;
use sqpeer_bench::harness::answer;
use sqpeer_bench::scenario::{replica_pair, unoptimized, CHAIN_QUERY};
use std::hint::black_box;

fn run(adaptive: bool) -> usize {
    let config = PeerConfig {
        adaptive,
        ..unoptimized()
    };
    let (mut net, [origin, ..]) = replica_pair(config, 10, 50, true, Some(60_000));
    let query = net.compile(CHAIN_QUERY).unwrap();
    answer(&mut net, origin, query).result.len()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10");
    group.sample_size(20);
    group.bench_function("adaptive_with_crash", |b| b.iter(|| black_box(run(true))));
    group.bench_function("static_with_crash", |b| b.iter(|| black_box(run(false))));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
