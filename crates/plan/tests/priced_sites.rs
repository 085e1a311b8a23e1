//! The shipping-site search prices each fetch once per join; the sum it
//! minimises must not notice. The reference here is the search as it was
//! written before: every candidate site re-reads every fetch's statistics
//! below the join, summed input by input. Plans and costs are compared to
//! the bit, on the generated shape and on the distributed one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqpeer_plan::{
    assign_sites, distribute_joins, flatten_joins, generate_plan, merge_same_peer, CostParams,
    Estimator, NetworkCost, PlanNode, Site, UniformCost,
};
use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
use sqpeer_routing::{route, Advertisement, PeerId, RoutingPolicy};
use sqpeer_rql::compile;
use sqpeer_rvl::{ActiveProperty, ActiveSchema};
use sqpeer_store::{BaseStatistics, ClassStats, PropertyStats};
use std::ops::RangeInclusive;
use std::sync::Arc;

mod reference {
    use super::*;

    /// `assign_sites` before fetches were priced once per join.
    pub fn assign_sites(
        plan: &PlanNode,
        initiator: PeerId,
        estimator: &Estimator,
        net: &dyn NetworkCost,
    ) -> (PlanNode, f64) {
        best_for(plan, Site::Peer(initiator), estimator, net)
    }

    fn best_for(
        plan: &PlanNode,
        dest: Site,
        estimator: &Estimator,
        net: &dyn NetworkCost,
    ) -> (PlanNode, f64) {
        match plan {
            PlanNode::Fetch { .. } => (plan.clone(), cost_for(plan, dest, estimator, net)),
            PlanNode::Union(inputs) => {
                let mut total = 0.0;
                let mut out = Vec::with_capacity(inputs.len());
                for input in inputs {
                    let (p, c) = best_for(input, dest, estimator, net);
                    total += c;
                    out.push(p);
                }
                (PlanNode::Union(out), total)
            }
            PlanNode::Join { inputs, .. } => {
                let (site, total) = best_join_site(plan, inputs, dest, estimator, net);
                let inputs = inputs.iter().map(|i| best_for(i, site, estimator, net).0);
                let site = match site {
                    Site::Peer(p) => Some(p),
                    Site::Hole => None,
                };
                let inputs = inputs.collect();
                (PlanNode::Join { inputs, site }, total)
            }
        }
    }

    fn cost_for(plan: &PlanNode, dest: Site, estimator: &Estimator, net: &dyn NetworkCost) -> f64 {
        match plan {
            PlanNode::Fetch { subquery, site } => {
                let tuples = estimator.fetch_cardinality(*site, subquery);
                let bytes = tuples * estimator.params().tuple_bytes;
                net.processing(*site, tuples) + net.transfer(*site, dest, bytes)
            }
            PlanNode::Union(inputs) => inputs_cost(inputs, dest, estimator, net),
            PlanNode::Join { inputs, .. } => best_join_site(plan, inputs, dest, estimator, net).1,
        }
    }

    fn inputs_cost(
        inputs: &[PlanNode],
        dest: Site,
        estimator: &Estimator,
        net: &dyn NetworkCost,
    ) -> f64 {
        let mut total = 0.0;
        for input in inputs {
            total += cost_for(input, dest, estimator, net);
        }
        total
    }

    fn best_join_site(
        join: &PlanNode,
        inputs: &[PlanNode],
        dest: Site,
        estimator: &Estimator,
        net: &dyn NetworkCost,
    ) -> (Site, f64) {
        let mut candidates: Vec<Site> = vec![dest];
        for input in inputs {
            for p in input.peers() {
                let s = Site::Peer(p);
                if !candidates.contains(&s) {
                    candidates.push(s);
                }
            }
        }
        let out_tuples = estimator.plan_cardinality(join);
        let out_bytes = out_tuples * estimator.params().tuple_bytes;
        let mut best: Option<(Site, f64)> = None;
        for site in candidates {
            let total = inputs_cost(inputs, site, estimator, net)
                + (net.processing(site, out_tuples) + net.transfer(site, dest, out_bytes));
            if best.is_none_or(|(_, c)| total < c) {
                best = Some((site, total));
            }
        }
        best.expect("joins have at least one candidate site")
    }
}

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
        let range = match def.range {
            Range::Class(c) => Some(c),
            Range::Literal(_) => None,
        };
        ActiveProperty {
            property,
            domain: def.domain,
            range,
        }
    });
    ActiveSchema::new(Arc::clone(schema), [], arcs.collect::<Vec<_>>())
}

/// A chain of `lens` patterns over `peers` peers, each pattern held by up to
/// `most` of them, statistics on most holders, and links and loads skewed
/// by up to four orders of magnitude.
struct Chain {
    plan: PlanNode,
    initiator: PeerId,
    stats: Vec<(PeerId, BaseStatistics)>,
    net: UniformCost,
}

impl Chain {
    fn generate(seed: u64, lens: RangeInclusive<usize>, peers: u32, most: usize) -> Chain {
        let rng = &mut StdRng::seed_from_u64(seed);
        let schema = chain_schema();
        let len = rng.gen_range(lens);
        let mut held: Vec<Vec<&str>> = vec![Vec::new(); peers as usize];
        for name in &CHAIN[..len] {
            let mut free: Vec<usize> = (0..peers as usize).collect();
            for _ in 0..rng.gen_range(1..=most.min(free.len())) {
                held[free.swap_remove(rng.gen_range(0..free.len()))].push(name);
            }
        }
        let (mut ads, mut stats) = (Vec::new(), Vec::new());
        for (i, props) in held.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            let peer = PeerId(i as u32 + 1);
            ads.push(Advertisement::new(peer, advertises(&schema, props)));
            if rng.gen_bool(0.8) {
                let per_property = schema.properties().map(|_| {
                    let triples = rng.gen_range(0..=400usize) >> rng.gen_range(0..=8u32);
                    PropertyStats {
                        triples,
                        distinct_subjects: rng.gen_range(0..=triples),
                        distinct_objects: rng.gen_range(0..=triples),
                    }
                });
                let per_property = per_property.collect();
                let per_class = schema.classes().map(|_| ClassStats::default()).collect();
                stats.push((peer, BaseStatistics::new(per_property, per_class, &schema)));
            }
        }
        let skew = |rng: &mut StdRng| 10f64.powi(rng.gen_range(-2..=2));
        let mut net = UniformCost::new(0.01 * skew(rng), 0.1 * skew(rng));
        for _ in 0..rng.gen_range(0..=40usize) {
            let (a, b) = (rng.gen_range(0..=peers), rng.gen_range(0..=peers));
            net.set_link(PeerId(a), PeerId(b), 0.01 * skew(rng));
        }
        for _ in 0..rng.gen_range(0..=4usize) {
            net.set_load(PeerId(rng.gen_range(0..=peers)), skew(rng));
        }
        let vars = ["X", "Y", "Z", "W"];
        let from: Vec<String> = (0..len)
            .map(|i| format!("{{{}}}{}{{{}}}", vars[i], CHAIN[i], vars[i + 1]))
            .collect();
        let query = compile(&format!("SELECT X FROM {}", from.join(", ")), &schema).unwrap();
        Chain {
            plan: flatten_joins(generate_plan(&route(
                &query,
                &ads,
                RoutingPolicy::SubsumedOnly,
            ))),
            initiator: PeerId(rng.gen_range(0..=peers)),
            stats,
            net,
        }
    }

    /// The generated shape and the distributed one (Plan 3).
    fn shapes(&self) -> [PlanNode; 2] {
        let distributed = merge_same_peer(flatten_joins(distribute_joins(self.plan.clone())));
        [self.plan.clone(), distributed]
    }

    fn assert_sited_as_reference(&self) {
        let mut estimator = Estimator::new(CostParams::default());
        for (peer, stats) in &self.stats {
            estimator.borrow_stats(*peer, stats);
        }
        for shape in self.shapes() {
            let want = reference::assign_sites(&shape, self.initiator, &estimator, &self.net);
            let (plan, cost) = assign_sites(shape, self.initiator, &estimator, &self.net);
            assert_eq!(cost.to_bits(), want.1.to_bits(), "{cost} vs {}", want.1);
            assert_eq!(plan, want.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn priced_once_sites_as_the_reference(seed in any::<u64>()) {
        Chain::generate(seed, 1..=3, 14, 12).assert_sited_as_reference();
    }
}

/// Two unions of ≈ 45 holders, the churn workload's cold plans: the
/// candidate sites × fetches product the pricing saves.
#[test]
fn wide_unions_site_as_the_reference() {
    for seed in 0..8 {
        Chain::generate(seed, 2..=2, 100, 45).assert_sited_as_reference();
    }
}
