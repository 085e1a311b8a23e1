//! E5 (Figure 5) benchmarks: shipping-site assignment cost and the full
//! simulated execution of the data- vs query-shipping plans.

use criterion::{criterion_group, criterion_main, Criterion};
use sqpeer::plan::{assign_sites, CostParams, Estimator, UniformCost};
use sqpeer::prelude::*;
use sqpeer_bench::harness::execute;
use sqpeer_bench::scenario::{fig1_query, shipping_plans, shipping_triangle};
use sqpeer_testkit::fixtures::fig1_schema;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let query = fig1_query(&fig1_schema());
    let (plan, _) = shipping_plans(&query, &[PeerId(1), PeerId(2), PeerId(3)]);
    let estimator = Estimator::new(CostParams::default());
    let mut net_cost = UniformCost::new(1.0, 0.001);
    net_cost.set_link(PeerId(1), PeerId(3), 10.0);
    net_cost.set_link(PeerId(2), PeerId(3), 0.1);

    c.bench_function("fig5/assign_sites", |b| {
        b.iter(|| black_box(assign_sites(plan.clone(), PeerId(1), &estimator, &net_cost)))
    });

    // Full simulated execution of both plan shapes, on E5's triangle at
    // the middle of its bandwidth sweep.
    let run = |ship_query: bool| {
        let (mut net, ids) = shipping_triangle(100, 1_000, 0);
        let (data, query_ship) = shipping_plans(&query, &ids);
        let plan = if ship_query { query_ship } else { data };
        execute(&mut net, ids[0], &query, &plan).result.len()
    };

    c.bench_function("fig5/simulate_data_shipping", |b| {
        b.iter(|| black_box(run(false)))
    });
    c.bench_function("fig5/simulate_query_shipping", |b| {
        b.iter(|| black_box(run(true)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
