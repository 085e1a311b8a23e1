//! Synchronous local evaluation of the fully-local parts of a plan.
//!
//! One plain recursive evaluator, run inside the simulator event that
//! asked for it. A peer's only concurrency mechanism is its §2.5 *slots*
//! ([`PeerConfig::slots`](crate::PeerConfig::slots)): how many subplans
//! it serves at once, not how one subplan is evaluated. Counted traffic
//! is why nothing fancier lives here: over the four `BENCHMARK.json`
//! workloads 175,480 of 175,480 [`eval_local`] calls are a single
//! `Fetch`; over every experiment fig1–e23, 178,908 are a `Fetch` and
//! one is a two-input join over a toy base.

use crate::peer::BaseKind;
use sqpeer_plan::{PlanNode, Site};
use sqpeer_routing::PeerId;
use sqpeer_rql::{evaluate, ResultSet};

/// Evaluates a plan subtree entirely at `me`, assuming every fetch site is
/// `me` (callers guarantee this; foreign sites evaluate to empty with a
/// debug assertion, which keeps release behaviour total).
pub fn eval_local(plan: &PlanNode, me: PeerId, base: &BaseKind) -> ResultSet {
    match plan {
        PlanNode::Fetch { subquery, site } => {
            debug_assert_eq!(*site, Site::Peer(me), "eval_local on a non-local fetch");
            base.with_materialized(|db| evaluate(&subquery.query, db))
        }
        PlanNode::Union(inputs) => {
            let mut parts = inputs.iter().map(|i| eval_local(i, me, base));
            let Some(mut acc) = parts.next() else {
                return ResultSet::default();
            };
            acc.union_all(&parts.collect::<Vec<_>>());
            acc
        }
        PlanNode::Join { inputs, .. } => {
            let mut parts = inputs.iter().map(|i| eval_local(i, me, base));
            let Some(acc) = parts.next() else {
                return ResultSet::default();
            };
            parts.fold(acc, |acc, part| acc.join(&part))
        }
    }
}

/// Is every fetch of this subtree evaluable at `me` (and free of holes)?
pub fn fully_local(plan: &PlanNode, me: PeerId) -> bool {
    match plan {
        PlanNode::Fetch { site, .. } => *site == Site::Peer(me),
        PlanNode::Union(inputs) => inputs.iter().all(|i| fully_local(i, me)),
        PlanNode::Join { inputs, site } => {
            site.map(|s| s == me).unwrap_or(true) && inputs.iter().all(|i| fully_local(i, me))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_plan::Subquery;
    use sqpeer_rdfs::{Range, Resource, Schema, SchemaBuilder, Triple};
    use sqpeer_rql::compile;
    use sqpeer_store::DescriptionBase;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let _ = b.property("p", c1, Range::Class(c2)).unwrap();
        let _ = b.property("q", c2, Range::Class(c3)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn base(s: &Arc<Schema>) -> BaseKind {
        let p = s.property_by_name("p").unwrap();
        let q = s.property_by_name("q").unwrap();
        let mut db = DescriptionBase::new(Arc::clone(s));
        db.insert_described(Triple::new(Resource::new("a"), p, Resource::new("b")));
        db.insert_described(Triple::new(Resource::new("b"), q, Resource::new("c")));
        BaseKind::Materialized(db)
    }

    fn fetch(s: &Arc<Schema>, src: &str, peer: u32) -> PlanNode {
        PlanNode::Fetch {
            subquery: Subquery {
                covers: 1,
                query: compile(src, s).unwrap(),
            },
            site: Site::Peer(PeerId(peer)),
        }
    }

    #[test]
    fn local_join_and_union() {
        let s = schema();
        let b = base(&s);
        let me = PeerId(1);
        let plan = PlanNode::join(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
            fetch(&s, "SELECT Y, Z FROM {Y}q{Z}", 1),
        ]);
        let rs = eval_local(&plan, me, &b);
        assert_eq!(rs.len(), 1);
        assert_eq!(*rs.columns, ["X", "Y", "Z"]);

        let union = PlanNode::Union(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
        ]);
        let rs = eval_local(&union, me, &b);
        assert_eq!(rs.len(), 1, "union dedups identical branches");
    }

    #[test]
    fn fully_local_detection() {
        let s = schema();
        let me = PeerId(1);
        assert!(fully_local(&fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1), me));
        assert!(!fully_local(&fetch(&s, "SELECT X, Y FROM {X}p{Y}", 2), me));
        let hole = PlanNode::Fetch {
            subquery: Subquery {
                covers: 1,
                query: compile("SELECT X, Y FROM {X}p{Y}", &s).unwrap(),
            },
            site: Site::Hole,
        };
        assert!(!fully_local(&hole, me));
        let mixed = PlanNode::join(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
            fetch(&s, "SELECT Y, Z FROM {Y}q{Z}", 2),
        ]);
        assert!(!fully_local(&mixed, me));
        // A join sited at another peer is not local even with local inputs.
        let foreign_join = PlanNode::Join {
            inputs: vec![fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1)],
            site: Some(PeerId(3)),
        };
        assert!(!fully_local(&foreign_join, me));
    }
}
