//! The Query-Processing Algorithm (paper §2.4): annotated pattern → plan.

use crate::node::{PlanNode, Site, Subquery};
use sqpeer_routing::AnnotatedQuery;
use sqpeer_rql::{PathPattern, QueryPattern};
use std::hash::{Hash, Hasher};

/// A 64-bit fingerprint of an annotated query, covering the query text and
/// every (pattern, peer, kind, rewritten pattern) annotation. Two
/// annotated queries that fingerprint differently always differ; the plan
/// cache (`sqpeer-cache`) uses this as its key, confirming hits with a
/// full [`AnnotatedQuery`] comparison so hash collisions can never
/// resurrect a wrong plan — which is why the fast Fx hash serves.
pub fn annotated_fingerprint(annotated: &AnnotatedQuery) -> u64 {
    let mut h = sqpeer_rdfs::fxhash::FxHasher::default();
    annotated.query().text().hash(&mut h);
    for i in 0..annotated.query().patterns().len() {
        0xa5a5_a5a5u32.hash(&mut h); // pattern separator
        for ann in annotated.peers_for(i) {
            ann.peer.0.hash(&mut h);
            (ann.kind as u8).hash(&mut h);
            ann.pattern.hash(&mut h);
        }
    }
    h.finish()
}

/// Builds the executable single-pattern subquery for path pattern `index`
/// of `query`, substituting the (possibly peer-rewritten) `pattern`.
///
/// The subquery projects *all* of the pattern's variables so join variables
/// survive for the vertical-distribution joins above; the query's final
/// projection is applied by the executor at the root.
pub fn single_pattern_subquery(
    query: &QueryPattern,
    index: usize,
    pattern: &PathPattern,
) -> QueryPattern {
    let filters = query.filters_bound_by(std::slice::from_ref(&query.patterns()[index]));
    QueryPattern::from_parts(
        query.schema().clone(),
        query.var_names().to_vec(),
        vec![pattern.clone()],
        pattern.vars().collect(),
        filters,
    )
}

/// Runs the Query-Processing Algorithm over an annotated query pattern.
///
/// Walking the join tree from the root path pattern:
///
/// * the peers annotated on a pattern produce `∪(PP@P1, …, PP@Pn)`
///   (**horizontal distribution** — favours completeness),
/// * an unannotated pattern produces the hole `PP@?`,
/// * the pattern's subtree results are combined with
///   `⋈(QP, TP1, …, TPn)` (**vertical distribution** — ensures
///   correctness).
pub fn generate_plan(annotated: &AnnotatedQuery) -> PlanNode {
    let tree = annotated.query().join_tree();
    debug_assert!(!tree.order.is_empty(), "queries have at least one pattern");
    build(annotated, &tree, tree.order[0])
}

fn build(annotated: &AnnotatedQuery, tree: &sqpeer_rql::JoinTree, pattern_idx: usize) -> PlanNode {
    let query = annotated.query();
    let annotations = annotated.peers_for(pattern_idx);

    // Horizontal distribution over the annotated peers.
    let horizontal = if annotations.is_empty() {
        PlanNode::Fetch {
            subquery: Subquery {
                covers: 1 << pattern_idx,
                query: single_pattern_subquery(query, pattern_idx, &query.patterns()[pattern_idx]),
            },
            site: Site::Hole,
        }
    } else {
        let branches: Vec<PlanNode> = annotations
            .iter()
            .map(|ann| PlanNode::Fetch {
                subquery: Subquery {
                    covers: 1 << pattern_idx,
                    query: single_pattern_subquery(query, pattern_idx, &ann.pattern),
                },
                site: Site::Peer(ann.peer),
            })
            .collect();
        if branches.len() == 1 {
            branches.into_iter().next().expect("non-empty")
        } else {
            PlanNode::Union(branches)
        }
    };

    // Vertical distribution with the children's subplans.
    let children = &tree.nodes[pattern_idx].children;
    if children.is_empty() {
        horizontal
    } else {
        let mut inputs = vec![horizontal];
        inputs.extend(children.iter().map(|&c| build(annotated, tree, c)));
        PlanNode::join(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
    use sqpeer_routing::{route, Advertisement, PeerId, RoutingPolicy};
    use sqpeer_rql::compile;
    use sqpeer_rvl::{ActiveProperty, ActiveSchema};
    use std::sync::Arc;

    fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let c4 = b.class("C4").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _ = b.property("prop3", c3, Range::Class(c4)).unwrap();
        let _ = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    pub(crate) fn active(schema: &Arc<Schema>, props: &[&str]) -> ActiveSchema {
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

    fn figure2_ads(schema: &Arc<Schema>) -> Vec<Advertisement> {
        vec![
            Advertisement::new(PeerId(1), active(schema, &["prop1", "prop2"])),
            Advertisement::new(PeerId(2), active(schema, &["prop1"])),
            Advertisement::new(PeerId(3), active(schema, &["prop2"])),
            Advertisement::new(PeerId(4), active(schema, &["prop4", "prop2"])),
        ]
    }

    #[test]
    fn figure3_plan() {
        // The plan of Figure 3: ⋈(∪(Q1@P1,Q1@P2,Q1@P4), ∪(Q2@P1,Q2@P3,Q2@P4)).
        let schema = fig1_schema();
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let annotated = route(&q, &figure2_ads(&schema), RoutingPolicy::SubsumedOnly);
        let plan = generate_plan(&annotated);
        assert_eq!(
            plan.to_string(),
            "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))"
        );
        assert!(plan.is_complete());
        assert_eq!(plan.fetch_count(), 6);
        // Unions appear only at the bottom of the generated plan (§2.5).
        match &plan {
            PlanNode::Join { inputs, .. } => {
                assert!(inputs.iter().all(|i| matches!(i, PlanNode::Union(_))));
            }
            other => panic!("expected top-level join, got {other}"),
        }
    }

    #[test]
    fn missing_annotation_becomes_hole() {
        // Figure 7 situation: nobody known can answer Q2.
        let schema = fig1_schema();
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let ads = vec![
            Advertisement::new(PeerId(2), active(&schema, &["prop1"])),
            Advertisement::new(PeerId(3), active(&schema, &["prop1"])),
        ];
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let plan = generate_plan(&annotated);
        assert_eq!(plan.to_string(), "⋈(∪(Q1@P2, Q1@P3), Q2@?)");
        assert_eq!(plan.hole_count(), 1);
    }

    #[test]
    fn single_pattern_single_peer_has_no_operators() {
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop2{Y}", &schema).unwrap();
        let ads = vec![Advertisement::new(PeerId(3), active(&schema, &["prop2"]))];
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let plan = generate_plan(&annotated);
        assert_eq!(plan.to_string(), "Q1@P3");
    }

    #[test]
    fn three_pattern_chain_nests_joins() {
        let schema = fig1_schema();
        let q = compile(
            "SELECT X FROM {X}prop1{Y}, {Y}prop2{Z}, {Z}prop3{W}",
            &schema,
        )
        .unwrap();
        let ads = vec![Advertisement::new(
            PeerId(1),
            active(&schema, &["prop1", "prop2", "prop3"]),
        )];
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let plan = generate_plan(&annotated);
        assert_eq!(plan.to_string(), "⋈(Q1@P1, ⋈(Q2@P1, Q3@P1))");
    }

    #[test]
    fn subquery_rewrite_reaches_fetch_leaf() {
        // P4's Q1 fetch must carry the prop4-rewritten pattern.
        let schema = fig1_schema();
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let annotated = route(&q, &figure2_ads(&schema), RoutingPolicy::SubsumedOnly);
        let plan = generate_plan(&annotated);
        let mut found = false;
        plan.visit(&mut |n| {
            if let PlanNode::Fetch {
                subquery,
                site: Site::Peer(PeerId(4)),
            } = n
            {
                if subquery.covers == 1 {
                    found = true;
                    assert_eq!(
                        subquery.query.patterns()[0].property,
                        schema.property_by_name("prop4").unwrap()
                    );
                }
            }
        });
        assert!(found, "P4's Q1 fetch not found");
    }

    #[test]
    fn subquery_projects_join_variables() {
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let sub = single_pattern_subquery(&q, 0, &q.patterns()[0]);
        // Even though the query projects only X, the shipped subquery keeps
        // Y so the join above can use it.
        let names: Vec<_> = sub
            .projection()
            .iter()
            .map(|&v| sub.var_name(v).to_string())
            .collect();
        assert_eq!(names, vec!["X", "Y"]);
    }

    #[test]
    fn filters_travel_with_their_pattern() {
        let schema = fig1_schema();
        let q = compile(
            "SELECT X FROM {X}prop1{Y}, {Y}prop2{Z} WHERE Z != &http://r",
            &schema,
        )
        .unwrap();
        let sub0 = single_pattern_subquery(&q, 0, &q.patterns()[0]);
        let sub1 = single_pattern_subquery(&q, 1, &q.patterns()[1]);
        assert!(sub0.filters().is_empty());
        assert_eq!(sub1.filters().len(), 1);
    }
}
