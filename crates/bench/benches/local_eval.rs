//! Substrate microbenchmarks: local RQL evaluation, store insertion and
//! subsumption-closed extent scans at growing base sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::prelude::*;
use sqpeer_bench::scenario::{fig1_query, populated};
use sqpeer_testkit::fixtures::fig1_schema;
use sqpeer_testkit::DataSpec;
use std::hint::black_box;
use std::sync::Arc;

fn sized_base(triples: usize) -> DescriptionBase {
    let schema = fig1_schema();
    let props: Vec<PropertyId> = ["prop1", "prop2", "prop4"]
        .iter()
        .map(|p| schema.property_by_name(p).unwrap())
        .collect();
    let spec = DataSpec {
        triples_per_property: triples / 3,
        class_pool: (triples / 6).max(4),
    };
    populated(&schema, &props, spec, &mut StdRng::seed_from_u64(1))
}

fn bench(c: &mut Criterion) {
    let schema = fig1_schema();
    let query = fig1_query(&schema);
    let single = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();

    let mut group = c.benchmark_group("local_eval");
    for triples in [300usize, 3_000, 30_000] {
        let base = sized_base(triples);
        group.throughput(Throughput::Elements(base.triple_count() as u64));
        group.bench_with_input(BenchmarkId::new("chain_join", triples), &triples, |b, _| {
            b.iter(|| black_box(evaluate(&query, &base)))
        });
        group.bench_with_input(
            BenchmarkId::new("single_pattern_closed", triples),
            &triples,
            |b, _| b.iter(|| black_box(evaluate(&single, &base))),
        );
    }
    group.finish();

    c.bench_function("store/insert_described_10k", |b| {
        let schema = fig1_schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        b.iter(|| {
            let mut base = DescriptionBase::new(Arc::clone(&schema));
            for i in 0..10_000u32 {
                base.insert_described(Triple::new(
                    Resource::new(format!("http://s/{}", i % 2_000)),
                    p1,
                    Node::Resource(Resource::new(format!("http://o/{}", i % 1_000))),
                ));
            }
            black_box(base.triple_count())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
