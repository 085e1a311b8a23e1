//! E2 (Figure 2) benchmarks: the Query-Routing Algorithm at growing
//! advertisement counts, for both routing policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingPolicy;
use sqpeer_bench::scenario::{ads_of, fig1_query};
use sqpeer_testkit::fixtures::{fig1_schema, fig2_bases};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let schema = fig1_schema();
    let query = fig1_query(&schema);
    let bases = fig2_bases(&schema);

    let mut group = c.benchmark_group("fig2/route");
    for n in [4usize, 64, 512, 4096] {
        let advertisements = ads_of(&bases, n);
        group.bench_with_input(BenchmarkId::new("subsumed_only", n), &n, |b, _| {
            b.iter(|| black_box(route(&query, &advertisements, RoutingPolicy::SubsumedOnly)))
        });
        group.bench_with_input(BenchmarkId::new("include_overlapping", n), &n, |b, _| {
            b.iter(|| {
                black_box(route(
                    &query,
                    &advertisements,
                    RoutingPolicy::IncludeOverlapping,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
