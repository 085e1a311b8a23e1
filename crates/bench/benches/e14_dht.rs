//! E14 benchmarks: Chord lookup cost and DHT-backed routing vs registry
//! routing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqpeer::dht::{ChordRing, SchemaDht, SubsumptionMode};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingPolicy;
use sqpeer_bench::scenario::{ads_of, fig1_query};
use sqpeer_testkit::fixtures::{fig1_schema, fig2_bases};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Raw ring lookups.
    let mut group = c.benchmark_group("e14/chord_lookup");
    for n in [16u32, 256, 4096] {
        let mut ring = ChordRing::new();
        for i in 0..n {
            ring.join(PeerId(i));
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ring.lookup_name(PeerId(0), black_box("n1:prop1"))))
        });
    }
    group.finish();

    // DHT-backed routing vs direct registry routing on the Figure 2 setup.
    let schema = fig1_schema();
    let query = fig1_query(&schema);
    let ads = ads_of(&fig2_bases(&schema), 4);
    let mut dht = SchemaDht::new(SubsumptionMode::PublishClosure);
    for i in 0..64u32 {
        dht.join_node(PeerId(i));
    }
    for ad in &ads {
        dht.publish(&schema, ad);
    }

    c.bench_function("e14/dht_route", |b| {
        b.iter(|| black_box(dht.route(PeerId(0), &query, RoutingPolicy::SubsumedOnly)))
    });
    c.bench_function("e14/registry_route", |b| {
        b.iter(|| black_box(route(&query, &ads, RoutingPolicy::SubsumedOnly)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
