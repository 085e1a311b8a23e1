//! E4 (Figure 4) benchmarks: the optimisation pipeline — join/union
//! distribution, TR1/TR2 merging, the full cost-based `optimize` with its
//! report, and the report-less cold plan of a wide chain.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::plan::{
    distribute_joins, flatten_joins, generate_plan, merge_same_peer, optimize, optimize_traced,
    CostParams, Estimator, UniformCost,
};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingPolicy;
use sqpeer::trace::NO_QUERY;
use sqpeer_bench::scenario::{ads_of, fig1_query, populated};
use sqpeer_testkit::fixtures::{fig1_schema, fig2_bases};
use sqpeer_testkit::{chain_properties, chain_query_text, community_schema, DataSpec, SchemaSpec};
use std::hint::black_box;

/// The generated plan of a `len`-pattern chain query with 56 holders per
/// pattern and no peer holding two — what a peer of the benchmark's
/// 500-peer overlay plans from scratch after every advertisement write.
fn wide_chain_plan(len: usize) -> PlanNode {
    let spec = SchemaSpec {
        chain_classes: len + 1,
        subclasses_per_class: 0,
        subproperty_fraction: 0.0,
    };
    let schema = community_schema(spec, 0);
    let chain = chain_properties(&schema, len).swap_remove(0);
    let query = compile(&chain_query_text(&schema, &chain), &schema).unwrap();
    let one_triple = DataSpec {
        triples_per_property: 1,
        class_pool: 1,
    };
    let mut rng = StdRng::seed_from_u64(0);
    let ads: Vec<Advertisement> = (0..len * 56)
        .map(|i| {
            let base = populated(&schema, &[chain[i / 56]], one_triple, &mut rng);
            Advertisement::new(PeerId(i as u32 + 1), ActiveSchema::of_base(&base))
        })
        .collect();
    generate_plan(&route(&query, &ads, RoutingPolicy::SubsumedOnly))
}

fn bench(c: &mut Criterion) {
    let schema = fig1_schema();
    let query = fig1_query(&schema);
    let ads = ads_of(&fig2_bases(&schema), 4);
    let annotated = route(&query, &ads, RoutingPolicy::SubsumedOnly);
    let plan1 = generate_plan(&annotated);

    c.bench_function("fig4/distribute_joins", |b| {
        b.iter(|| black_box(distribute_joins(flatten_joins(plan1.clone()))))
    });

    let plan2 = distribute_joins(flatten_joins(plan1.clone()));
    c.bench_function("fig4/merge_same_peer", |b| {
        b.iter(|| black_box(merge_same_peer(flatten_joins(plan2.clone()))))
    });

    let mut estimator = Estimator::new(CostParams::default());
    for ad in &ads {
        if let Some(s) = &ad.stats {
            estimator.set_stats(ad.peer, s.clone());
        }
    }
    let net = UniformCost::default();
    c.bench_function("fig4/optimize_full_pipeline", |b| {
        b.iter(|| black_box(optimize(plan1.clone(), PeerId(1), &estimator, &net)))
    });

    // The cold plan path as a peer runs it untraced: the decision alone,
    // no report. The distributed shape would have 56² and 56³ joins.
    let unknown = Estimator::new(CostParams::default());
    for len in [2, 3] {
        let wide = wide_chain_plan(len);
        assert_eq!(wide.fetch_count(), len * 56);
        c.bench_function(&format!("fig4/optimize_{len}x56"), |b| {
            b.iter(|| {
                let mut off = Tracer::disabled();
                let plan = black_box(wide.clone());
                black_box(optimize_traced(
                    plan,
                    PeerId(0),
                    &unknown,
                    &net,
                    &mut off,
                    0,
                    NO_QUERY,
                ))
            })
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
