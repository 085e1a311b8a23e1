//! E15: routing with and without the semantic cache on Zipf-skewed
//! repeated-query workloads.
//!
//! Cold = every query routed by a full advertisement scan (the seed
//! behaviour). Warm = the same workload through a [`SemanticCache`].
//! The gap grows with both advertisement count and workload skew, since
//! skew concentrates lookups on few patterns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::cache::SemanticCache;
use sqpeer::prelude::*;
use sqpeer::routing::{route_limited, RoutingLimits, RoutingPolicy};
use sqpeer_bench::scenario::cache_registry;
use sqpeer_testkit::fixtures::fig1_schema;
use sqpeer_testkit::zipf_workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let schema = fig1_schema();
    let policy = RoutingPolicy::SubsumedOnly;
    let limits = RoutingLimits::unlimited();

    let mut group = c.benchmark_group("e15/zipf_workload");
    for ads in [64usize, 512] {
        for exponent in [0.0f64, 1.0] {
            let reg = cache_registry(&schema, ads);
            let mut rng = StdRng::seed_from_u64(15);
            let workload = zipf_workload(&schema, 6, &[1, 2], exponent, 200, &mut rng);
            assert!(!workload.is_empty());
            group.throughput(Throughput::Elements(workload.len() as u64));
            let label = format!("ads{ads}/s{exponent}");

            group.bench_with_input(BenchmarkId::new("cold", &label), &reg, |b, reg| {
                b.iter(|| {
                    for q in &workload {
                        let live: Vec<Advertisement> =
                            reg.advertisements().into_iter().cloned().collect();
                        black_box(route_limited(q, &live, policy, limits));
                    }
                })
            });
            group.bench_with_input(BenchmarkId::new("warm", &label), &reg, |b, reg| {
                b.iter(|| {
                    // One cache per measured pass: the first occurrence of
                    // each query pays the scan, repeats hit.
                    let mut cache = SemanticCache::default();
                    for q in &workload {
                        black_box(cache.route(reg, q, policy, limits));
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
