//! E16 wall-clock harness: interned statistics-ordered evaluation vs the
//! retained row-at-a-time reference engine. The experiment binary
//! (`cargo run --release --bin experiments e16`) produces the recorded
//! table and `BENCH_e16.json`; this harness is the criterion view of the
//! same comparison.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sqpeer::prelude::*;
use sqpeer::rql::evaluate_snapshot;
use sqpeer_bench::scenario::{eval_base, eval_workload};
use sqpeer_testkit::fixtures::fig1_schema;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let schema = fig1_schema();
    let base = eval_base(&schema, 2700); // ~10k triples after dedup
    let workload = eval_workload(&schema);

    let mut group = c.benchmark_group("e16_engines");
    group.throughput(Throughput::Elements(workload.len() as u64));
    group.bench_function("reference_row_at_a_time", |b| {
        b.iter(|| {
            let rows: usize = workload
                .iter()
                .map(|q| evaluate_reference(q, &base).len())
                .sum();
            black_box(rows)
        })
    });
    group.bench_function("interned_cold", |b| {
        // Clone before any snapshot exists, so every iteration pays the
        // interning build.
        b.iter(|| {
            let cold = base.clone();
            let rows: usize = workload.iter().map(|q| evaluate(q, &cold).len()).sum();
            black_box(rows)
        })
    });
    let ib = base.interned();
    group.bench_function("interned_warm", |b| {
        b.iter(|| {
            let rows: usize = workload
                .iter()
                .map(|q| evaluate_snapshot(q, &ib).len())
                .sum();
            black_box(rows)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
