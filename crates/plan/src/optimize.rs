//! Compile-time plan optimisation (paper §2.5, Figures 4 and 5).

use crate::cost::{Estimator, NetworkCost};
use crate::node::{PlanNode, Site, Subquery};
use sqpeer_routing::PeerId;
use sqpeer_rql::QueryPattern;
use sqpeer_trace::Tracer;
use std::cell::Cell;

/// Flattens nested (unsited) joins: `⋈(⋈(a,b),c)` → `⋈(a,b,c)`.
///
/// Natural joins are associative, and flat joins are what lets the
/// same-peer merge see Transformation Rule 2's nested shape.
pub fn flatten_joins(plan: PlanNode) -> PlanNode {
    match plan {
        PlanNode::Join { inputs, site: None } => {
            let mut flat = Vec::new();
            for input in inputs {
                match flatten_joins(input) {
                    PlanNode::Join {
                        inputs: nested,
                        site: None,
                    } => flat.extend(nested),
                    other => flat.push(other),
                }
            }
            if flat.len() == 1 {
                flat.into_iter().next().expect("non-empty")
            } else {
                PlanNode::join(flat)
            }
        }
        PlanNode::Join { inputs, site } => PlanNode::Join {
            inputs: inputs.into_iter().map(flatten_joins).collect(),
            site,
        },
        PlanNode::Union(inputs) => PlanNode::Union(inputs.into_iter().map(flatten_joins).collect()),
        leaf => leaf,
    }
}

/// Distribution of joins and unions (§2.5): rewrites
/// `⋈(∪(Q11,…,Q1n), ∪(Q21,…,Q2m))` into
/// `∪(⋈(Q11,Q21), ⋈(Q11,Q22), …, ⋈(Q1n,Q2m))`, pushing unions to the top
/// of the plan (Figure 4, Plan 2). "Pushing joins below the unions
/// produces smaller intermediate results" and enables pipelined
/// evaluation.
///
/// The result has one join per combination of union branches — n^k for k
/// unions of n. [`optimize`] decides whether this shape wins without
/// building it; this eager form is what EXPLAIN's stages, experiment E4
/// and the tests render and compare against.
pub fn distribute_joins(plan: PlanNode) -> PlanNode {
    match plan {
        PlanNode::Join { inputs, site } => {
            let combos = cartesian(&choice_lists(inputs));
            if combos.len() == 1 {
                let only = combos.into_iter().next().expect("non-empty");
                return PlanNode::Join { inputs: only, site };
            }
            PlanNode::Union(
                combos
                    .into_iter()
                    .map(|c| PlanNode::Join { inputs: c, site })
                    .collect(),
            )
        }
        PlanNode::Union(inputs) => {
            PlanNode::Union(inputs.into_iter().map(distribute_joins).collect())
        }
        leaf => leaf,
    }
}

/// The alternatives each input of a join contributes to the distributed
/// shape: the branches of a (distributed) union input, or the input
/// itself.
fn choice_lists(inputs: Vec<PlanNode>) -> Vec<Vec<PlanNode>> {
    inputs
        .into_iter()
        .map(|input| match distribute_joins(input) {
            PlanNode::Union(branches) => branches,
            other => vec![other],
        })
        .collect()
}

fn cartesian(lists: &[Vec<PlanNode>]) -> Vec<Vec<PlanNode>> {
    let mut out: Vec<Vec<PlanNode>> = vec![Vec::new()];
    for list in lists {
        let mut next = Vec::with_capacity(out.len() * list.len());
        for prefix in &out {
            for item in list {
                let mut combo = prefix.clone();
                combo.push(item.clone());
                next.push(combo);
            }
        }
        out = next;
    }
    out
}

/// Transformation Rules 1 and 2 (§2.5): within every join, merge the
/// fetch inputs sent to the *same* peer into one composite subquery, so
/// the join between them executes at that peer (Figure 4, Plan 3 "pushes
/// the join on prop1 and prop2 to peer P1 and P4").
pub fn merge_same_peer(plan: PlanNode) -> PlanNode {
    match plan {
        PlanNode::Join { inputs, site } => {
            let inputs: Vec<PlanNode> = inputs.into_iter().map(merge_same_peer).collect();
            let mut merged: Vec<PlanNode> = Vec::new();
            for input in inputs {
                let mergeable = match &input {
                    PlanNode::Fetch {
                        site: Site::Peer(p),
                        ..
                    } => Some(*p),
                    _ => None,
                };
                match mergeable {
                    Some(peer) => {
                        if let Some(PlanNode::Fetch { subquery: existing, .. }) =
                            merged.iter_mut().find(
                                |n| matches!(n, PlanNode::Fetch { site: Site::Peer(q), .. } if *q == peer),
                            )
                        {
                            let PlanNode::Fetch { subquery, .. } = input else { unreachable!() };
                            *existing = compose_subqueries(existing, &subquery);
                        } else {
                            merged.push(input);
                        }
                    }
                    None => merged.push(input),
                }
            }
            if merged.len() == 1 {
                merged.into_iter().next().expect("non-empty")
            } else {
                PlanNode::Join {
                    inputs: merged,
                    site,
                }
            }
        }
        PlanNode::Union(inputs) => {
            PlanNode::Union(inputs.into_iter().map(merge_same_peer).collect())
        }
        leaf => leaf,
    }
}

/// Conjoins two subqueries destined for the same peer.
///
/// The paper's Rule 1 writes the merged query `Q = Q1 ∪ … ∪ Qn`, but the
/// subquery the peer must answer for `⋈(Q1@Pi,…,Qn@Pi)` is the
/// *conjunction* of the fragments (the join is what gets pushed to the
/// peer) — see DESIGN.md §3 for the notation note.
fn compose_subqueries(a: &Subquery, b: &Subquery) -> Subquery {
    let mut covers = a.covers.clone();
    covers.extend(b.covers.iter().copied());
    covers.sort_unstable();
    covers.dedup();

    let mut patterns = a.query.patterns().to_vec();
    patterns.extend(b.query.patterns().iter().cloned());
    let mut projection: Vec<_> = a.query.projection().to_vec();
    for v in b.query.projection() {
        if !projection.contains(v) {
            projection.push(*v);
        }
    }
    let mut filters = a.query.filters().to_vec();
    for f in b.query.filters() {
        if !filters.contains(f) {
            filters.push(f.clone());
        }
    }
    let query = QueryPattern::from_parts(
        a.query.schema().clone(),
        a.query.var_names().to_vec(),
        patterns,
        projection,
        filters,
    );
    Subquery { covers, query }
}

/// Chooses execution sites for every join — the compile-time
/// **data / query / hybrid shipping** decision of §2.5 and Figure 5.
///
/// For each join the candidate sites are the initiator (data shipping)
/// and every peer appearing below it (query shipping); the minimum of
/// `Σ transfer(inputs → site) + processing(site) + transfer(site → dest)`
/// wins. Returns the sited plan and its estimated cost.
pub fn assign_sites(
    plan: PlanNode,
    initiator: PeerId,
    estimator: &Estimator,
    net: &dyn NetworkCost,
) -> (PlanNode, f64) {
    best_for(&plan, Site::Peer(initiator), estimator, net)
}

/// The cheapest siting of `plan` with its result delivered to `dest`, and
/// what it costs. Candidate sites are costed on the unsited plan
/// ([`Priced`]); only the winner of each join is built.
fn best_for(
    plan: &PlanNode,
    dest: Site,
    estimator: &Estimator,
    net: &dyn NetworkCost,
) -> (PlanNode, f64) {
    match plan {
        PlanNode::Fetch { .. } => {
            let cost = Priced::of(plan, estimator).cost(dest, estimator, net);
            (plan.clone(), cost)
        }
        PlanNode::Union(inputs) => {
            // The union is merged at the destination.
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
            let sited = PlanNode::Join {
                inputs: inputs
                    .iter()
                    .map(|input| best_for(input, site, estimator, net).0)
                    .collect(),
                site: match site {
                    Site::Peer(p) => Some(p),
                    Site::Hole => None,
                },
            };
            (sited, total)
        }
    }
}

/// A subtree with each fetch's estimated tuples read once, so that costing
/// it at many destinations reads no statistics; a join stays a join.
enum Priced<'p> {
    Fetch(Site, f64),
    Union(Vec<Priced<'p>>),
    Join(&'p PlanNode, &'p [PlanNode]),
}

impl<'p> Priced<'p> {
    fn of(plan: &'p PlanNode, estimator: &Estimator) -> Self {
        match plan {
            PlanNode::Fetch { subquery, site } => {
                Priced::Fetch(*site, estimator.fetch_cardinality(*site, subquery))
            }
            PlanNode::Union(inputs) => {
                Priced::Union(inputs.iter().map(|i| Self::of(i, estimator)).collect())
            }
            PlanNode::Join { inputs, .. } => Priced::Join(plan, inputs),
        }
    }

    /// The cost [`best_for`] reports for the subtree delivered to `dest`,
    /// without building the plan; inputs are summed in order.
    fn cost(&self, dest: Site, estimator: &Estimator, net: &dyn NetworkCost) -> f64 {
        match self {
            Priced::Fetch(site, tuples) => {
                let bytes = tuples * estimator.params().tuple_bytes;
                net.processing(*site, *tuples) + net.transfer(*site, dest, bytes)
            }
            Priced::Union(inputs) => inputs
                .iter()
                .fold(0.0, |t, p| t + p.cost(dest, estimator, net)),
            Priced::Join(join, inputs) => best_join_site(join, inputs, dest, estimator, net).1,
        }
    }
}

/// The cheapest execution site for `join` (whose inputs are `inputs`)
/// delivering to `dest`: the destination itself or any peer below.
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
    // The join's output size does not depend on where anything runs.
    let out_tuples = estimator.plan_cardinality(join);
    let out_bytes = out_tuples * estimator.params().tuple_bytes;
    // Nor does what a fetch below returns: priced once, not per site.
    let priced: Vec<Priced> = inputs.iter().map(|i| Priced::of(i, estimator)).collect();
    let mut best: Option<(Site, f64)> = None;
    for site in candidates {
        let inputs_cost = priced
            .iter()
            .fold(0.0, |t, p| t + p.cost(site, estimator, net));
        let total =
            inputs_cost + (net.processing(site, out_tuples) + net.transfer(site, dest, out_bytes));
        if best.is_none_or(|(_, c)| total < c) {
            best = Some((site, total));
        }
    }
    best.expect("joins have at least one candidate site")
}

/// A cost model watched for terms that break [`NetworkCost`]'s
/// non-negativity precondition, which the early exit of
/// [`site_distributed`] relies on.
struct Guarded<'n> {
    inner: &'n dyn NetworkCost,
    nonnegative: Cell<bool>,
}

impl Guarded<'_> {
    fn seen(&self, term: f64) -> f64 {
        if term.is_nan() || term < 0.0 {
            self.nonnegative.set(false);
        }
        term
    }
}

impl NetworkCost for Guarded<'_> {
    fn transfer(&self, from: Site, to: Site, bytes: f64) -> f64 {
        self.seen(self.inner.transfer(from, to, bytes))
    }

    fn processing(&self, at: Site, tuples: f64) -> f64 {
        self.seen(self.inner.processing(at, tuples))
    }
}

/// Sites the distributed shape of `plan1` — what
/// `assign_sites(merge_same_peer(flatten_joins(distribute_joins(plan1))))`
/// returns, bit for bit — or gives up with `None` as soon as its cost is
/// known to exceed `bound`.
///
/// A top-level join is never distributed as a whole: its combinations are
/// enumerated one at a time in [`cartesian`]'s order (last input fastest),
/// and each is merged, sited and added to the running cost exactly as the
/// eager pipeline would have. Every term being `>= 0`, a running cost
/// above `bound` can only grow, so the remaining n^k − i combinations need
/// not be looked at; once `net` has seen a term that is not, the sum is
/// finished instead.
fn site_distributed(
    plan1: PlanNode,
    dest: Site,
    estimator: &Estimator,
    net: &Guarded,
    bound: f64,
) -> Option<(PlanNode, f64)> {
    let PlanNode::Join { inputs, site } = plan1 else {
        // The generator puts joins at the top only; any other shape takes
        // the eager pipeline as is.
        let plan3 = merge_same_peer(flatten_joins(distribute_joins(plan1)));
        return Some(best_for(&plan3, dest, estimator, net));
    };
    let lists = choice_lists(inputs);
    let branch = |picks: &[usize]| {
        let combo = lists
            .iter()
            .zip(picks)
            .map(|(l, &i)| l[i].clone())
            .collect();
        let merged = merge_same_peer(flatten_joins(PlanNode::Join {
            inputs: combo,
            site,
        }));
        best_for(&merged, dest, estimator, net)
    };
    let mut picks = vec![0; lists.len()];
    if lists.iter().all(|l| l.len() == 1) {
        return Some(branch(&picks));
    }
    let mut branches = Vec::new();
    let mut total = 0.0;
    let mut more = lists.iter().all(|l| !l.is_empty());
    while more {
        let (sited, cost) = branch(&picks);
        total += cost;
        branches.push(sited);
        if total > bound && net.nonnegative.get() {
            return None;
        }
        more = false;
        for (pick, list) in picks.iter_mut().zip(&lists).rev() {
            *pick += 1;
            if *pick < list.len() {
                more = true;
                break;
            }
            *pick = 0;
        }
    }
    Some((PlanNode::Union(branches), total))
}

/// A per-stage snapshot of the optimisation pipeline, printed by
/// experiment E4.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// `(stage name, rendered plan, fetch count, estimated transfer
    /// bytes)` for each stage. Rendered only on request — by [`optimize`],
    /// and by [`optimize_traced`] on an enabled tracer; empty otherwise.
    pub stages: Vec<(String, String, usize, f64)>,
    /// Final estimated execution cost under the supplied cost model.
    pub final_cost: f64,
    /// Whether the distributed (joins-below-unions) pipeline won the
    /// cost-based comparison against the generated shape.
    pub distributed_won: bool,
}

/// The full §2.5 compile-time pipeline: flatten → distribute joins over
/// unions → merge same-peer subplans (TR1/TR2) → assign shipping sites.
///
/// The paper gates the join/union distribution on a benefit heuristic
/// ("rewriting … is beneficial, if the expected size of the join result is
/// smaller than any of the inputs"); with a cost model in hand we make the
/// gate exact: the fully distributed+merged shape wins when, sited, it
/// costs no more than the sited generated shape. The distributed shape is
/// costed under that bound (`site_distributed`) and only kept when it
/// wins, so declining Fig 4's Plan 2 does not cost its n^k joins.
///
/// This entry point always renders the per-stage report, which *does*
/// build Plans 2 and 3; callers that only want the plan use
/// [`optimize_traced`] with a disabled tracer.
pub fn optimize(
    plan: PlanNode,
    initiator: PeerId,
    estimator: &Estimator,
    net: &dyn NetworkCost,
) -> (PlanNode, OptimizeReport) {
    let mut scratch = Tracer::enabled();
    optimize_traced(
        plan,
        initiator,
        estimator,
        net,
        &mut scratch,
        0,
        sqpeer_trace::NO_QUERY,
    )
}

/// [`optimize`] with every applied rewrite recorded as a trace event.
///
/// Events fire only when a rewrite actually changed the plan:
/// `rewrite:distribute` when joins were pushed below unions,
/// `rewrite:merge-same-peer` when TR1/TR2 collapsed same-peer fetches
/// (detail reports how many), and `rewrite:site` with the winning shape
/// and its estimated cost. On a disabled tracer nothing is rendered — no
/// events, no report stages, no Plans 2 and 3; the returned plan, cost and
/// `distributed_won` are the same either way.
pub fn optimize_traced(
    plan: PlanNode,
    initiator: PeerId,
    estimator: &Estimator,
    net: &dyn NetworkCost,
    tracer: &mut Tracer,
    now_us: u64,
    qid: u64,
) -> (PlanNode, OptimizeReport) {
    let stage = |name: &str, p: &PlanNode| {
        (
            name.to_string(),
            p.to_string(),
            p.fetch_count(),
            estimator.transfer_bytes(p, initiator),
        )
    };
    let plan1 = flatten_joins(plan);
    let mut stages = Vec::new();
    if tracer.is_enabled() {
        stages.push(stage("plan 1 (generated)", &plan1));
        let plan2 = distribute_joins(plan1.clone());
        let snap2 = stage("plan 2 (joins below unions)", &plan2);
        if plan2 != plan1 {
            tracer.event_with(now_us, qid, "rewrite:distribute", || {
                format!("joins pushed below unions: {}", snap2.1)
            });
        }
        stages.push(snap2);
        let flat2 = flatten_joins(plan2);
        let unmerged = flat2.fetch_count();
        let snap3 = stage("plan 3 (same-peer merge, TR1+TR2)", &merge_same_peer(flat2));
        let merged = unmerged.saturating_sub(snap3.2);
        if merged > 0 {
            tracer.event_with(now_us, qid, "rewrite:merge-same-peer", || {
                format!("TR1+TR2 merged {merged} same-peer fetches: {}", snap3.1)
            });
        }
        stages.push(snap3);
    }

    let dest = Site::Peer(initiator);
    let guarded = Guarded {
        inner: net,
        nonnegative: Cell::new(true),
    };
    let (sited_gen, gen_cost) = best_for(&plan1, dest, estimator, &guarded);
    let (best, cost, distributed_won) =
        match site_distributed(plan1, dest, estimator, &guarded, gen_cost) {
            Some((sited_dist, dist_cost)) if dist_cost <= gen_cost => (sited_dist, dist_cost, true),
            _ => (sited_gen, gen_cost, false),
        };
    tracer.event_with(now_us, qid, "rewrite:site", || {
        format!(
            "{} shape won, cost {:.1}",
            if distributed_won {
                "distributed"
            } else {
                "generated"
            },
            cost
        )
    });
    if tracer.is_enabled() {
        stages.push(stage("plan 4 (shipping sites)", &best));
    }
    (
        best,
        OptimizeReport {
            stages,
            final_cost: cost,
            distributed_won,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostParams, UniformCost};
    use crate::generate::generate_plan;
    use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
    use sqpeer_routing::{route, Advertisement, RoutingPolicy};
    use sqpeer_rql::compile;
    use sqpeer_rvl::{ActiveProperty, ActiveSchema};
    use std::sync::Arc;

    fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let _ = b.class("C4").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _ = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn active(schema: &Arc<Schema>, props: &[&str]) -> ActiveSchema {
        let arcs: Vec<ActiveProperty> = props
            .iter()
            .map(|p| {
                let prop = schema.property_by_name(p).unwrap();
                let def = schema.property(prop);
                ActiveProperty {
                    property: prop,
                    domain: def.domain,
                    range: match def.range {
                        Range::Class(c) => Some(c),
                        Range::Literal(_) => None,
                    },
                }
            })
            .collect();
        ActiveSchema::new(Arc::clone(schema), [], arcs)
    }

    /// The Figure 2/3/4 setting: Q over prop1.prop2 with peers P1..P4.
    fn figure_plan(schema: &Arc<Schema>) -> PlanNode {
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", schema).unwrap();
        let ads = vec![
            Advertisement::new(PeerId(1), active(schema, &["prop1", "prop2"])),
            Advertisement::new(PeerId(2), active(schema, &["prop1"])),
            Advertisement::new(PeerId(3), active(schema, &["prop2"])),
            Advertisement::new(PeerId(4), active(schema, &["prop4", "prop2"])),
        ];
        generate_plan(&route(&q, &ads, RoutingPolicy::SubsumedOnly))
    }

    #[test]
    fn figure4_plan2_distribution() {
        let schema = fig1_schema();
        let plan2 = distribute_joins(figure_plan(&schema));
        // 3 × 3 joins under one top union.
        match &plan2 {
            PlanNode::Union(branches) => {
                assert_eq!(branches.len(), 9);
                assert!(branches.iter().all(|b| matches!(b, PlanNode::Join { .. })));
            }
            other => panic!("expected top union, got {other}"),
        }
    }

    #[test]
    fn figure4_plan3_merges_same_peer() {
        let schema = fig1_schema();
        let plan3 = merge_same_peer(distribute_joins(figure_plan(&schema)));
        let text = plan3.to_string();
        // The P1⋈P1 and P4⋈P4 branches collapse into composite fetches.
        assert!(text.contains("Q1.Q2@P1"), "{text}");
        assert!(text.contains("Q1.Q2@P4"), "{text}");
        // 9 branches remain but two became single fetches: 16 fetches.
        assert_eq!(plan3.fetch_count(), 2 + 7 * 2);
    }

    #[test]
    fn optimization_reduces_transfer_bytes() {
        let schema = fig1_schema();
        let plan1 = figure_plan(&schema);
        let est = Estimator::new(CostParams::default());
        let net = UniformCost::default();
        let (plan4, report) = optimize(plan1.clone(), PeerId(1), &est, &net);
        assert!(plan4.is_complete());
        assert_eq!(report.stages.len(), 4);
        assert!(report.final_cost > 0.0);
        // The optimised plan costs no more than naively siting Plan 1.
        let (_, naive_cost) = assign_sites(plan1, PeerId(1), &est, &net);
        assert!(
            report.final_cost <= naive_cost,
            "optimized {} vs naive {naive_cost}",
            report.final_cost
        );
    }

    #[test]
    fn transformation_rule_2_nested_shape() {
        // ⋈(⋈(QP, Q1@P4), Q2@P4) → ⋈(QP, Q1.Q2@P4) after flatten+merge.
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let fetch = |i: usize, peer: u32| PlanNode::Fetch {
            subquery: Subquery {
                covers: vec![i],
                query: crate::generate::single_pattern_subquery(&q, i, &q.patterns()[i]),
            },
            site: Site::Peer(PeerId(peer)),
        };
        let nested = PlanNode::join(vec![
            PlanNode::join(vec![fetch(0, 9), fetch(0, 4)]),
            fetch(1, 4),
        ]);
        let rewritten = merge_same_peer(flatten_joins(nested));
        assert_eq!(rewritten.to_string(), "⋈(Q1@P9, Q1.Q2@P4)");
    }

    #[test]
    fn data_vs_query_shipping_follows_link_costs() {
        // Figure 5: P1 joins Q2@P2 with Q3@P3. When the P1–P3 link is
        // expensive and P2–P3 cheap, the join should ship to P2 (query
        // shipping); with uniform links it stays at P1 (data shipping).
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let fetch = |i: usize, peer: u32| PlanNode::Fetch {
            subquery: Subquery {
                covers: vec![i],
                query: crate::generate::single_pattern_subquery(&q, i, &q.patterns()[i]),
            },
            site: Site::Peer(PeerId(peer)),
        };
        let plan = PlanNode::join(vec![fetch(0, 2), fetch(1, 3)]);
        let est = Estimator::new(CostParams::default());

        let uniform = UniformCost::new(1.0, 0.001);
        let (sited, _) = assign_sites(plan.clone(), PeerId(1), &est, &uniform);
        let PlanNode::Join { site, .. } = &sited else {
            panic!()
        };
        assert_eq!(*site, Some(PeerId(1)), "uniform links → data shipping");

        let mut skewed = UniformCost::new(1.0, 0.001);
        skewed.set_link(PeerId(1), PeerId(3), 10.0);
        skewed.set_link(PeerId(2), PeerId(3), 0.1);
        let (sited, _) = assign_sites(plan, PeerId(1), &est, &skewed);
        let PlanNode::Join { site, .. } = &sited else {
            panic!()
        };
        assert_eq!(
            *site,
            Some(PeerId(2)),
            "expensive P1–P3 link → query shipping at P2"
        );
    }

    #[test]
    fn heavy_load_pushes_join_away() {
        // Figure 5's other axis: "in the case where peer P2 has a heavy
        // processing load, data-shipping should be chosen".
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let fetch = |i: usize, peer: u32| PlanNode::Fetch {
            subquery: Subquery {
                covers: vec![i],
                query: crate::generate::single_pattern_subquery(&q, i, &q.patterns()[i]),
            },
            site: Site::Peer(PeerId(peer)),
        };
        let plan = PlanNode::join(vec![fetch(0, 2), fetch(1, 3)]);
        let est = Estimator::new(CostParams::default());
        // Cheap P2–P3 link would favour query shipping at P2…
        let mut net = UniformCost::new(1.0, 2.0);
        net.set_link(PeerId(1), PeerId(3), 10.0);
        net.set_link(PeerId(2), PeerId(3), 0.1);
        // …but P2 is overloaded badly enough to outweigh the link saving.
        net.set_load(PeerId(2), 10_000.0);
        let (sited, _) = assign_sites(plan, PeerId(1), &est, &net);
        let PlanNode::Join { site, .. } = &sited else {
            panic!()
        };
        assert_ne!(
            *site,
            Some(PeerId(2)),
            "overloaded peer must not host the join"
        );
    }

    #[test]
    fn transformation_rules_fire_and_are_recorded_as_trace_events() {
        let schema = fig1_schema();
        let plan = figure_plan(&schema);
        let est = Estimator::new(CostParams::default());
        let net = UniformCost::default();
        let mut tracer = Tracer::enabled();
        let (_, report) = optimize_traced(plan, PeerId(1), &est, &net, &mut tracer, 42, 7);
        let names: Vec<&str> = tracer.events().iter().map(|e| e.name).collect();
        assert!(
            names.contains(&"rewrite:distribute"),
            "distribution must be recorded: {names:?}"
        );
        assert!(
            names.contains(&"rewrite:merge-same-peer"),
            "TR1+TR2 must be recorded: {names:?}"
        );
        assert!(names.contains(&"rewrite:site"), "{names:?}");
        // The Fig 4 scenario merges the P1⋈P1 and P4⋈P4 branches: 18 → 16.
        let merge = tracer
            .events()
            .iter()
            .find(|e| e.name == "rewrite:merge-same-peer")
            .unwrap();
        assert!(merge.detail.contains("merged 2"), "{}", merge.detail);
        assert!(tracer.events().iter().all(|e| e.qid == 7));
        assert!(report.distributed_won || !report.stages.is_empty());
    }

    #[test]
    fn merge_skips_unsound_shapes_and_records_no_event() {
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let fetch = |i: usize, peer: u32| PlanNode::Fetch {
            subquery: Subquery {
                covers: vec![i],
                query: crate::generate::single_pattern_subquery(&q, i, &q.patterns()[i]),
            },
            site: Site::Peer(PeerId(peer)),
        };
        // Same peer under a *union*: merging Q1@P1 with Q2@P1 would turn
        // the union into a conjunction — unsound, must stay untouched.
        let union = PlanNode::Union(vec![fetch(0, 1), fetch(1, 1)]);
        assert_eq!(merge_same_peer(union.clone()), union);
        // Different peers under a join: nothing to merge either.
        let join = PlanNode::join(vec![fetch(0, 2), fetch(1, 3)]);
        assert_eq!(merge_same_peer(join.clone()), join);
        // And the traced pipeline records no merge event for such a plan.
        let est = Estimator::new(CostParams::default());
        let net = UniformCost::default();
        let mut tracer = Tracer::enabled();
        let _ = optimize_traced(join, PeerId(1), &est, &net, &mut tracer, 0, 1);
        assert!(
            tracer
                .events()
                .iter()
                .all(|e| e.name != "rewrite:merge-same-peer"),
            "no-op merge must not be recorded as fired"
        );
    }

    #[test]
    fn flatten_is_idempotent_and_keeps_sited_joins() {
        let schema = fig1_schema();
        let plan = figure_plan(&schema);
        let once = flatten_joins(plan.clone());
        let twice = flatten_joins(once.clone());
        assert_eq!(once, twice);
        let sited = PlanNode::Join {
            inputs: vec![PlanNode::join(vec![plan])],
            site: Some(PeerId(1)),
        };
        let flat = flatten_joins(sited);
        // The sited join must not be dissolved.
        assert!(matches!(flat, PlanNode::Join { site: Some(_), .. }));
    }
}
