//! The optimiser's cost-bounded decision against its eager definition.
//!
//! `optimize` decides Fig 4's "distribute joins over unions" by costing
//! the distributed shape combination by combination under the generated
//! shape's cost. Its contract is that nobody can tell: same plan, same
//! cost to the bit, same `distributed_won` as building Plans 2 and 3 in
//! full and siting both. The reference here is that definition, with the
//! shipping-site search written the way it was before candidates were
//! costed by reference, so the summation order is pinned independently of
//! the code under test.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqpeer_plan::{
    distribute_joins, flatten_joins, generate_plan, merge_same_peer, optimize, optimize_traced,
    CostParams, Estimator, NetworkCost, PlanNode, Site, UniformCost,
};
use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
use sqpeer_routing::{route, Advertisement, PeerId, RoutingPolicy};
use sqpeer_rql::compile;
use sqpeer_rvl::{ActiveProperty, ActiveSchema};
use sqpeer_store::{BaseStatistics, ClassStats, PropertyStats};
use sqpeer_trace::{Tracer, NO_QUERY};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHAIN: [&str; 3] = ["p1", "p2", "p3"];

/// `C1 –p1→ C2 –p2→ C3 –p3→ C4`.
fn chain_schema() -> Arc<Schema> {
    let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
    let classes: Vec<_> = (1..=4)
        .map(|i| b.class(&format!("C{i}")).unwrap())
        .collect();
    for (i, name) in CHAIN.iter().enumerate() {
        b.property(name, classes[i], Range::Class(classes[i + 1]))
            .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn advertises(schema: &Arc<Schema>, props: &[&str]) -> ActiveSchema {
    let arcs = props.iter().map(|name| {
        let property = schema.property_by_name(name).unwrap();
        let def = schema.property(property);
        ActiveProperty {
            property,
            domain: def.domain,
            range: match def.range {
                Range::Class(c) => Some(c),
                Range::Literal(_) => None,
            },
        }
    });
    ActiveSchema::new(Arc::clone(schema), [], arcs.collect::<Vec<_>>())
}

/// The generated plan of the `len`-pattern chain query over `ads`.
fn chain_plan(schema: &Arc<Schema>, len: usize, ads: &[Advertisement]) -> PlanNode {
    let vars = ["X", "Y", "Z", "W"];
    let from: Vec<String> = (0..len)
        .map(|i| format!("{{{}}}{}{{{}}}", vars[i], CHAIN[i], vars[i + 1]))
        .collect();
    let query = compile(&format!("SELECT X FROM {}", from.join(", ")), schema).unwrap();
    generate_plan(&route(&query, ads, RoutingPolicy::SubsumedOnly))
}

/// The shipping-site search as first written: every candidate site gets a
/// sited copy of the inputs, and the join's output is sized on that copy.
fn reference_best_for(
    plan: PlanNode,
    dest: Site,
    estimator: &Estimator,
    net: &dyn NetworkCost,
) -> (PlanNode, f64) {
    match plan {
        PlanNode::Fetch { subquery, site } => {
            let tuples = estimator.fetch_cardinality(site, &subquery);
            let bytes = tuples * estimator.params().tuple_bytes;
            let cost = net.processing(site, tuples) + net.transfer(site, dest, bytes);
            (PlanNode::Fetch { subquery, site }, cost)
        }
        PlanNode::Union(inputs) => {
            let mut total = 0.0;
            let mut out = Vec::with_capacity(inputs.len());
            for input in inputs {
                let (p, c) = reference_best_for(input, dest, estimator, net);
                total += c;
                out.push(p);
            }
            (PlanNode::Union(out), total)
        }
        PlanNode::Join { inputs, .. } => {
            let mut candidates: Vec<Site> = vec![dest];
            for input in &inputs {
                for p in input.peers() {
                    let s = Site::Peer(p);
                    if !candidates.contains(&s) {
                        candidates.push(s);
                    }
                }
            }
            let mut best: Option<(PlanNode, f64)> = None;
            for site in candidates {
                let mut total = 0.0;
                let mut sited_inputs = Vec::with_capacity(inputs.len());
                for input in inputs.iter().cloned() {
                    let (p, c) = reference_best_for(input, site, estimator, net);
                    total += c;
                    sited_inputs.push(p);
                }
                let candidate = PlanNode::Join {
                    inputs: sited_inputs,
                    site: match site {
                        Site::Peer(p) => Some(p),
                        Site::Hole => None,
                    },
                };
                let out_tuples = estimator.plan_cardinality(&candidate);
                total += net.processing(site, out_tuples)
                    + net.transfer(site, dest, out_tuples * estimator.params().tuple_bytes);
                if best.as_ref().is_none_or(|(_, c)| total < *c) {
                    best = Some((candidate, total));
                }
            }
            best.expect("joins have at least one candidate site")
        }
    }
}

/// §2.5's gate by definition: build Plan 1 and Plan 3, site both, keep the
/// cheaper (the distributed one on a tie).
fn eager_optimize(
    plan: PlanNode,
    initiator: PeerId,
    estimator: &Estimator,
    net: &dyn NetworkCost,
) -> (PlanNode, f64, bool) {
    let dest = Site::Peer(initiator);
    let plan1 = flatten_joins(plan);
    let plan3 = merge_same_peer(flatten_joins(distribute_joins(plan1.clone())));
    let (sited_gen, gen_cost) = reference_best_for(plan1, dest, estimator, net);
    let (sited_dist, dist_cost) = reference_best_for(plan3, dest, estimator, net);
    if dist_cost <= gen_cost {
        (sited_dist, dist_cost, true)
    } else {
        (sited_gen, gen_cost, false)
    }
}

/// One random planning problem: a chain of 1–3 patterns, each held by
/// 1–12 of 14 peers (peers hold several properties, so TR1/TR2 fire),
/// statistics on most advertisements, and a cost model whose links and
/// loads are skewed by up to four orders of magnitude.
struct Scenario {
    plan: PlanNode,
    initiator: PeerId,
    stats: Vec<(PeerId, BaseStatistics)>,
    net: UniformCost,
}

impl Scenario {
    fn estimator(&self) -> Estimator<'_> {
        let mut estimator = Estimator::new(CostParams::default());
        for (peer, stats) in &self.stats {
            estimator.borrow_stats(*peer, stats);
        }
        estimator
    }
}

fn scenario(seed: u64) -> Scenario {
    const PEERS: u32 = 14;
    let rng = &mut StdRng::seed_from_u64(seed);
    let schema = chain_schema();
    let len = rng.gen_range(1..=3usize);
    // Who holds what: every pattern gets 1–12 holders.
    let mut held: Vec<Vec<&str>> = vec![Vec::new(); PEERS as usize];
    for name in &CHAIN[..len] {
        let mut peers: Vec<usize> = (0..PEERS as usize).collect();
        // Half the patterns have a handful of holders: that is where the
        // distributed shape can win.
        let most = if rng.gen_bool(0.5) { 3 } else { 12 };
        for _ in 0..rng.gen_range(1..=most) {
            let holder = peers.swap_remove(rng.gen_range(0..peers.len()));
            held[holder].push(name);
        }
    }
    let mut ads = Vec::new();
    let mut stats = Vec::new();
    for (i, props) in held.iter().enumerate() {
        if props.is_empty() {
            continue;
        }
        let peer = PeerId(i as u32 + 1);
        ads.push(Advertisement::new(peer, advertises(&schema, props)));
        if rng.gen_bool(0.8) {
            let per_property = schema
                .properties()
                .map(|_| {
                    // From a few hundred triples down to none: selective
                    // joins are what per-branch query shipping pays off on.
                    let triples = rng.gen_range(0..=400usize) >> rng.gen_range(0..=8u32);
                    PropertyStats {
                        triples,
                        distinct_subjects: rng.gen_range(0..=triples),
                        distinct_objects: rng.gen_range(0..=triples),
                    }
                })
                .collect();
            let per_class = schema.classes().map(|_| ClassStats::default()).collect();
            stats.push((peer, BaseStatistics::new(per_property, per_class, &schema)));
        }
    }
    let skew = |rng: &mut StdRng| 10f64.powi(rng.gen_range(-2..=2));
    let mut net = UniformCost::new(0.01 * skew(rng), 0.1 * skew(rng));
    for _ in 0..rng.gen_range(0..=40usize) {
        let (a, b) = (rng.gen_range(0..=PEERS), rng.gen_range(0..=PEERS));
        net.set_link(PeerId(a), PeerId(b), 0.01 * skew(rng));
    }
    for _ in 0..rng.gen_range(0..=4usize) {
        net.set_load(PeerId(rng.gen_range(0..=PEERS)), skew(rng));
    }
    Scenario {
        plan: chain_plan(&schema, len, &ads),
        // Peer 0 holds nothing; the others may be holders themselves.
        initiator: PeerId(rng.gen_range(0..=PEERS)),
        stats,
        net,
    }
}

fn untraced(s: &Scenario) -> (PlanNode, f64, bool) {
    let (plan, report) = optimize_traced(
        s.plan.clone(),
        s.initiator,
        &s.estimator(),
        &s.net,
        &mut Tracer::disabled(),
        0,
        NO_QUERY,
    );
    assert!(report.stages.is_empty(), "no report was asked for");
    (plan, report.final_cost, report.distributed_won)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn bounded_decision_equals_eager_reference(seed in any::<u64>()) {
        let s = scenario(seed);
        let (want_plan, want_cost, want_won) =
            eager_optimize(s.plan.clone(), s.initiator, &s.estimator(), &s.net);
        let (plan, cost, won) = untraced(&s);
        prop_assert_eq!(won, want_won);
        prop_assert_eq!(cost.to_bits(), want_cost.to_bits(), "{} vs {}", cost, want_cost);
        prop_assert_eq!(plan, want_plan);
    }

    #[test]
    fn tracing_changes_the_report_not_the_decision(seed in any::<u64>()) {
        let s = scenario(seed);
        let (plan, cost, won) = untraced(&s);
        let mut tracer = Tracer::enabled();
        let (traced, report) =
            optimize_traced(s.plan.clone(), s.initiator, &s.estimator(), &s.net, &mut tracer, 5, 9);
        prop_assert_eq!(&traced, &plan);
        prop_assert_eq!(report.final_cost.to_bits(), cost.to_bits());
        prop_assert_eq!(report.distributed_won, won);

        let stages: Vec<&str> = report.stages.iter().map(|s| s.0.as_str()).collect();
        prop_assert_eq!(stages, [
            "plan 1 (generated)",
            "plan 2 (joins below unions)",
            "plan 3 (same-peer merge, TR1+TR2)",
            "plan 4 (shipping sites)",
        ]);
        prop_assert_eq!(&report.stages[3].1, &plan.to_string());

        // The events say which rewrites changed the plan.
        let plan1 = flatten_joins(s.plan.clone());
        let plan2 = flatten_joins(distribute_joins(plan1.clone()));
        let merged = plan2.fetch_count() - merge_same_peer(plan2.clone()).fetch_count();
        let fired = |name: &str| tracer.events().iter().filter(|e| e.name == name).count();
        prop_assert_eq!(fired("rewrite:distribute"), usize::from(plan2 != plan1));
        prop_assert_eq!(fired("rewrite:merge-same-peer"), usize::from(merged > 0));
        prop_assert_eq!(fired("rewrite:site"), 1);
        prop_assert!(tracer.events().iter().all(|e| e.qid == 9 && e.start_us == 5));
    }
}

/// The generator reaches every regime the equivalence is claimed over.
#[test]
fn scenarios_cover_both_winners_both_shippings_and_the_merges() {
    let (mut distributed, mut generated, mut merges) = (0, 0, 0);
    let (mut data_shipping, mut query_shipping) = (0, 0);
    for seed in 0..300 {
        let s = scenario(seed);
        let (plan, _, won) = untraced(&s);
        let is_join = matches!(flatten_joins(s.plan.clone()), PlanNode::Join { .. });
        // A join that came back as a union of joins: really distributed.
        distributed += usize::from(won && is_join && matches!(plan, PlanNode::Union(_)));
        generated += usize::from(!won);
        let flat2 = flatten_joins(distribute_joins(flatten_joins(s.plan.clone())));
        merges += usize::from(merge_same_peer(flat2.clone()).fetch_count() < flat2.fetch_count());
        plan.visit(&mut |node| {
            if let PlanNode::Join { site, .. } = node {
                if *site == Some(s.initiator) {
                    data_shipping += 1;
                } else {
                    query_shipping += 1;
                }
            }
        });
    }
    for (regime, cases) in [
        ("distributed shape wins", distributed),
        ("generated shape wins", generated),
        ("TR1/TR2 merge", merges),
        ("data shipping", data_shipping),
        ("query shipping", query_shipping),
    ] {
        assert!(cases >= 10, "{regime}: only {cases} of 300 scenarios");
    }
}

/// `len` patterns × 56 holders each, no peer holding two — the shape of a
/// chain query on the benchmark's 500-peer overlay.
fn disjoint_holders(len: usize) -> PlanNode {
    let schema = chain_schema();
    let ads: Vec<Advertisement> = (0..len * 56)
        .map(|i| Advertisement::new(PeerId(i as u32 + 1), advertises(&schema, &[CHAIN[i / 56]])))
        .collect();
    chain_plan(&schema, len, &ads)
}

/// Plan 2 of a k-pattern chain over 56 holders has 56^k joins; deciding
/// against it must not cost anything like building it (3.9 s in release
/// for k = 3 when it did).
#[test]
fn wide_chains_keep_the_generated_shape_without_building_the_distributed_one() {
    for (len, cost) in [(2, 7_056.0), (3, 10_304.0)] {
        let plan = disjoint_holders(len);
        let started = Instant::now();
        let (best, report) = optimize_traced(
            plan,
            PeerId(0),
            &Estimator::new(CostParams::default()),
            &UniformCost::default(),
            &mut Tracer::disabled(),
            0,
            NO_QUERY,
        );
        let took = started.elapsed();
        assert!(!report.distributed_won);
        assert_eq!(best.fetch_count(), len * 56);
        assert_eq!(report.final_cost, cost);
        assert!(
            took < Duration::from_millis(250),
            "{len} × 56 holders took {took:?}"
        );
    }
}

/// A cost model that breaks `NetworkCost`'s non-negativity precondition
/// loses the early exit, not the right answer: here the distributed shape
/// wins only through the last branches enumerated, long after the running
/// sum first passed the generated shape's (negative) cost.
#[test]
fn negative_link_cost_finishes_the_sum() {
    let schema = chain_schema();
    let ads: Vec<Advertisement> = (0..16)
        .map(|i| Advertisement::new(PeerId(i + 1), advertises(&schema, &[CHAIN[i as usize / 8]])))
        .collect();
    let plan = chain_plan(&schema, 2, &ads);
    // One triple per holder of the second pattern: joins come out small,
    // so the generated shape has little to send over the paying link.
    let one_triple = PropertyStats {
        triples: 1,
        distinct_subjects: 1,
        distinct_objects: 1,
    };
    let per_property = vec![
        PropertyStats::default(),
        one_triple,
        PropertyStats::default(),
    ];
    let per_class = schema.classes().map(|_| ClassStats::default()).collect();
    let stats = BaseStatistics::new(per_property, per_class, &schema);
    let mut estimator = Estimator::new(CostParams::default());
    for peer in 9..=16 {
        estimator.borrow_stats(PeerId(peer), &stats);
    }
    let mut net = UniformCost::default();
    // P8 is the last holder of the first pattern: its 8 combinations
    // come last, and each is paid to ship P8's 100 rows to the initiator.
    net.set_link(PeerId(8), PeerId(0), -1.0);

    let (want_plan, want_cost, want_won) =
        eager_optimize(plan.clone(), PeerId(0), &estimator, &net);
    assert!(want_won && want_cost < 0.0, "{want_cost}");
    let (best, report) = optimize(plan, PeerId(0), &estimator, &net);
    assert!(report.distributed_won);
    assert_eq!(report.final_cost.to_bits(), want_cost.to_bits());
    assert_eq!(best, want_plan);
}
