//! `EXPLAIN`: human-readable and JSON renderings of a query's routing
//! annotation (Fig 2 style) and its plan pipeline before/after
//! optimisation (Fig 4/5 style).
//!
//! The text rendering is **stable and diffable** — golden snapshots in
//! `tests/figures.rs` pin it — and the JSON export carries per-node
//! cost-model estimates for tooling.

use crate::cost::Estimator;
use crate::node::PlanNode;
use crate::optimize::OptimizeReport;
use sqpeer_routing::AnnotatedQuery;
use sqpeer_trace::json_escape;
use std::fmt::Write as _;

/// A fully-rendered explanation of one query's compilation: annotated
/// pattern, per-stage optimisation snapshots, and the final sited plan
/// with cost estimates. All strings are materialised at construction so
/// the explanation outlives the estimator that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// RQL text of the query pattern.
    pub query: String,
    /// The Fig 2 routing annotation (`Q1: [P1(Equivalent), …]` lines).
    pub annotated: String,
    /// Per-stage optimiser snapshots: `(stage name, rendered plan, fetch
    /// count, estimated transfer bytes)` — Fig 4's Plans 1–3 plus the
    /// sited Fig 5 shape.
    pub stages: Vec<(String, String, usize, f64)>,
    /// The final executable plan.
    pub final_plan: String,
    /// Its estimated cost under the active cost model.
    pub final_cost: f64,
    /// Whether the distributed (joins-below-unions) shape won.
    pub distributed_won: bool,
    /// Nested JSON tree of per-node cardinality/byte estimates.
    pub cost_tree: String,
    /// Run-time adaptation log (§2.5): one line per observation that made
    /// the root alter the running plan — the telemetry window that
    /// flagged a slow channel, the timeout that fired, the delivery
    /// failure that was notified. Empty for queries that ran to plan;
    /// rendered (and exported) only when non-empty, so explanations of
    /// unadapted queries are unchanged.
    pub adaptation: Vec<String>,
}

impl Explain {
    /// Builds an explanation from the optimiser's report and the final
    /// plan, snapshotting per-node estimates from `estimator`.
    pub fn new(
        annotated: &AnnotatedQuery,
        report: &OptimizeReport,
        final_plan: &PlanNode,
        estimator: &Estimator,
    ) -> Explain {
        Explain {
            query: annotated.query().text().to_owned(),
            annotated: annotated.to_string(),
            stages: report.stages.clone(),
            final_plan: final_plan.to_string(),
            final_cost: report.final_cost,
            distributed_won: report.distributed_won,
            cost_tree: node_json(final_plan, estimator),
            adaptation: Vec::new(),
        }
    }

    /// Stable, diffable text rendering (pinned by golden tests).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN {}", self.query);
        let _ = writeln!(out);
        let _ = writeln!(out, "annotated query pattern (Fig 2):");
        for line in self.annotated.lines() {
            let _ = writeln!(out, "  {line}");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "optimisation pipeline (Fig 4):");
        for (name, plan, fetches, bytes) in &self.stages {
            let _ = writeln!(out, "  {name}: {plan}");
            let _ = writeln!(out, "      [{fetches} fetches, {bytes:.0} est. transfer B]");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "final plan (Fig 5): {}", self.final_plan);
        let _ = writeln!(
            out,
            "  estimated cost: {:.1} ({} shape won)",
            self.final_cost,
            if self.distributed_won {
                "distributed"
            } else {
                "generated"
            }
        );
        if !self.adaptation.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "run-time adaptation (§2.5):");
            for line in &self.adaptation {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }

    /// Hand-formatted JSON export with the per-node cost tree.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(name, plan, fetches, bytes)| {
                format!(
                    "{{\"stage\": \"{}\", \"plan\": \"{}\", \"fetches\": {}, \"est_transfer_bytes\": {:.0}}}",
                    json_escape(name),
                    json_escape(plan),
                    fetches,
                    bytes
                )
            })
            .collect();
        let adaptation = if self.adaptation.is_empty() {
            String::new()
        } else {
            let lines: Vec<String> = self
                .adaptation
                .iter()
                .map(|l| format!("\"{}\"", json_escape(l)))
                .collect();
            format!(", \"adaptation\": [{}]", lines.join(", "))
        };
        format!(
            "{{\"query\": \"{}\", \"annotated\": \"{}\", \"stages\": [{}], \
             \"final_plan\": \"{}\", \"final_cost\": {:.1}, \"distributed_won\": {}, \
             \"cost_tree\": {}{}}}",
            json_escape(&self.query),
            json_escape(&self.annotated),
            stages.join(", "),
            json_escape(&self.final_plan),
            self.final_cost,
            self.distributed_won,
            self.cost_tree,
            adaptation
        )
    }
}

/// Recursive per-node estimate tree: every operator carries its estimated
/// output cardinality and wire bytes under the supplied estimator.
fn node_json(plan: &PlanNode, est: &Estimator) -> String {
    let tuples = est.plan_cardinality(plan);
    let bytes = est.plan_bytes(plan);
    match plan {
        PlanNode::Fetch { subquery, site } => format!(
            "{{\"op\": \"fetch\", \"label\": \"{}\", \"site\": \"{}\", \
             \"est_tuples\": {:.0}, \"est_bytes\": {:.0}}}",
            json_escape(&subquery.to_string()),
            site,
            tuples,
            bytes
        ),
        PlanNode::Union(inputs) => format!(
            "{{\"op\": \"union\", \"est_tuples\": {:.0}, \"est_bytes\": {:.0}, \"inputs\": [{}]}}",
            tuples,
            bytes,
            inputs
                .iter()
                .map(|i| node_json(i, est))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        PlanNode::Join { inputs, site } => format!(
            "{{\"op\": \"join\", \"site\": {}, \"est_tuples\": {:.0}, \"est_bytes\": {:.0}, \
             \"inputs\": [{}]}}",
            site.map(|p| format!("\"{p}\""))
                .unwrap_or_else(|| "null".into()),
            tuples,
            bytes,
            inputs
                .iter()
                .map(|i| node_json(i, est))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostParams, UniformCost};
    use crate::generate::generate_plan;
    use crate::optimize::optimize;
    use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
    use sqpeer_routing::{route, Advertisement, PeerId, RoutingPolicy};
    use sqpeer_rql::compile;
    use sqpeer_rvl::{ActiveProperty, ActiveSchema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let _ = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
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

    #[test]
    fn explain_renders_annotation_stages_and_costs() {
        let s = schema();
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &s).unwrap();
        let ads = vec![
            Advertisement::new(PeerId(1), active(&s, &["prop1", "prop2"])),
            Advertisement::new(PeerId(2), active(&s, &["prop1"])),
        ];
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let plan = generate_plan(&annotated);
        let est = Estimator::new(CostParams::default());
        let net = UniformCost::default();
        let (best, report) = optimize(plan, PeerId(1), &est, &net);
        let explain = Explain::new(&annotated, &report, &best, &est);

        let text = explain.render();
        assert!(text.starts_with("EXPLAIN SELECT"), "{text}");
        assert!(text.contains("Q1: ["), "{text}");
        assert!(text.contains("plan 1 (generated):"), "{text}");
        assert!(text.contains("plan 4 (shipping sites):"), "{text}");
        assert!(text.contains("estimated cost:"), "{text}");
        // Stable across repeated renders.
        assert_eq!(text, explain.render());

        let json = explain.to_json();
        assert!(json.contains("\"cost_tree\": {"), "{json}");
        assert!(json.contains("\"est_tuples\":"), "{json}");
        assert!(json.contains("\"distributed_won\":"), "{json}");

        // Adaptation lines appear only once adaptation happened — an
        // unadapted query's EXPLAIN is byte-identical to before.
        assert!(!text.contains("run-time adaptation"), "{text}");
        assert!(!json.contains("\"adaptation\""), "{json}");
        let mut adapted = explain.clone();
        adapted
            .adaptation
            .push("t=1000us slow channel to P2: replanned".into());
        assert!(adapted.render().contains("run-time adaptation (§2.5):"));
        assert!(adapted.to_json().contains("\"adaptation\": [\"t=1000us"));
    }
}
