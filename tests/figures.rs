//! Integration tests pinning every figure of the paper to an exact,
//! executable artefact (the per-figure experiment suite of EXPERIMENTS.md
//! asserts the same facts with measurements on top).

use sqpeer::exec::{node_of, PeerConfig, PeerMode};
use sqpeer::overlay::{oracle_answer, oracle_base};
use sqpeer::plan::{distribute_joins, flatten_joins, generate_plan, merge_same_peer, PlanNode};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingPolicy;
use sqpeer::rvl::ActiveSchema;
use sqpeer_testkit::fixtures::{
    fig1_query_text, fig1_schema, fig2_bases, fig6_network, fig7_network,
};

fn fig2_ads(schema: &std::sync::Arc<Schema>) -> Vec<Advertisement> {
    fig2_bases(schema)
        .iter()
        .enumerate()
        .map(|(i, base)| {
            Advertisement::new(PeerId(i as u32 + 1), ActiveSchema::of_base(base))
                .with_stats(base.statistics())
        })
        .collect()
}

/// Figure 1: query-pattern extraction with declared end-point classes, and
/// the RVL view's active-schema.
#[test]
fn figure1_pattern_and_view() {
    let schema = fig1_schema();
    let query = compile(fig1_query_text(), &schema).unwrap();
    assert_eq!(query.patterns().len(), 2);
    let q1 = &query.patterns()[0];
    assert_eq!(q1.subject.class, schema.class_by_name("C1"));
    assert_eq!(q1.object.class, schema.class_by_name("C2"));
    let q2 = &query.patterns()[1];
    assert_eq!(q2.subject.class, schema.class_by_name("C2"));
    assert_eq!(q2.object.class, schema.class_by_name("C3"));

    let view = ViewDefinition::parse(
        "VIEW n1:C5(X), n1:prop4(X,Y), n1:C6(Y) FROM {X}n1:prop4{Y}",
        &schema,
    )
    .unwrap();
    let active = view.active_schema();
    assert!(active.has_class(schema.class_by_name("C5").unwrap()));
    assert!(active.has_class(schema.class_by_name("C6").unwrap()));
    assert!(active.has_property(schema.property_by_name("prop4").unwrap()));
    assert_eq!(active.active_properties().len(), 1);
}

/// Figure 2: the annotated query pattern — Q1 ← {P1,P2,P4}, Q2 ← {P1,P3,P4}.
#[test]
fn figure2_annotated_pattern() {
    let schema = fig1_schema();
    let query = compile(fig1_query_text(), &schema).unwrap();
    let annotated = route(&query, &fig2_ads(&schema), RoutingPolicy::SubsumedOnly);
    let peers =
        |i: usize| -> Vec<PeerId> { annotated.peers_for(i).iter().map(|a| a.peer).collect() };
    assert_eq!(peers(0), vec![PeerId(1), PeerId(2), PeerId(4)]);
    assert_eq!(peers(1), vec![PeerId(1), PeerId(3), PeerId(4)]);
    // P4 matched through prop4 ⊑ prop1 and its Q1 query is rewritten.
    let p4 = annotated
        .peers_for(0)
        .iter()
        .find(|a| a.peer == PeerId(4))
        .unwrap();
    assert_eq!(
        p4.pattern.property,
        schema.property_by_name("prop4").unwrap()
    );
}

/// Figure 3: the generated plan, with unions at the bottom only.
#[test]
fn figure3_generated_plan() {
    let schema = fig1_schema();
    let query = compile(fig1_query_text(), &schema).unwrap();
    let annotated = route(&query, &fig2_ads(&schema), RoutingPolicy::SubsumedOnly);
    let plan = generate_plan(&annotated);
    assert_eq!(
        plan.to_string(),
        "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))"
    );
}

/// Figure 4: Plan 2 (distribution) and Plan 3 (TR1 + TR2) shapes.
#[test]
fn figure4_optimized_plans() {
    let schema = fig1_schema();
    let query = compile(fig1_query_text(), &schema).unwrap();
    let annotated = route(&query, &fig2_ads(&schema), RoutingPolicy::SubsumedOnly);
    let plan1 = generate_plan(&annotated);

    let plan2 = distribute_joins(flatten_joins(plan1.clone()));
    let PlanNode::Union(branches) = &plan2 else {
        panic!("plan2 must be a top union")
    };
    assert_eq!(branches.len(), 9, "3 Q1-peers × 3 Q2-peers");

    let plan3 = merge_same_peer(flatten_joins(plan2));
    let text = plan3.to_string();
    assert!(
        text.contains("Q1.Q2@P1"),
        "P1 answers both patterns in one subplan: {text}"
    );
    assert!(
        text.contains("Q1.Q2@P4"),
        "P4 answers both patterns in one subplan: {text}"
    );
    // Two of nine branches collapse to a single composite fetch.
    assert_eq!(plan3.fetch_count(), 2 + 7 * 2);
}

/// Figure 4 semantics: all three plan shapes compute the same answer over
/// the Figure 2 bases.
#[test]
fn figure4_plans_are_equivalent() {
    let schema = fig1_schema();
    let query = compile(fig1_query_text(), &schema).unwrap();
    let bases = fig2_bases(&schema);
    let annotated = route(&query, &fig2_ads(&schema), RoutingPolicy::SubsumedOnly);
    let plan1 = generate_plan(&annotated);
    let plan2 = distribute_joins(flatten_joins(plan1.clone()));
    let plan3 = merge_same_peer(flatten_joins(plan2.clone()));

    let eval = |plan: &PlanNode| interpret(plan, &bases).sorted();
    let r1 = eval(&plan1);
    assert_eq!(r1, eval(&plan2), "distribution preserves semantics");
    assert_eq!(r1, eval(&plan3), "same-peer merge preserves semantics");

    // And they agree with the centralised oracle (projected the same way).
    let oracle = oracle_base(&schema, bases.iter());
    let projected = r1.project(
        &query
            .projection()
            .iter()
            .map(|&v| query.var_name(v).to_string())
            .collect::<Vec<_>>(),
    );
    let expected = oracle_answer(&oracle, &query);
    assert_eq!(projected.sorted(), expected);
}

/// A reference interpreter executing a plan against in-process bases
/// (peer ids 1..=n map to `bases[i-1]`).
fn interpret(plan: &PlanNode, bases: &[DescriptionBase]) -> ResultSet {
    match plan {
        PlanNode::Fetch { subquery, site } => match site {
            Site::Peer(p) => evaluate(&subquery.query, &bases[(p.0 - 1) as usize]),
            Site::Hole => ResultSet::default(),
        },
        PlanNode::Union(inputs) => {
            let mut acc = interpret(&inputs[0], bases);
            for i in &inputs[1..] {
                acc.union(&interpret(i, bases));
            }
            acc
        }
        PlanNode::Join { inputs, .. } => {
            let mut acc = interpret(&inputs[0], bases);
            for i in &inputs[1..] {
                acc = acc.join(&interpret(i, bases));
            }
            acc
        }
    }
}

/// Figure 6: the hybrid scenario end to end — complete plan, correct
/// answer, role separation (super-peer routes, simple-peers process).
#[test]
fn figure6_hybrid_scenario() {
    let (mut net, peers) = fig6_network(PeerConfig::default());
    let query = net
        .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
        .unwrap();
    let origin = peers[0];
    let qid = net.query(origin, query.clone());
    net.run();

    let outcome = net.outcome(origin, qid).expect("completed").clone();
    assert!(
        !outcome.partial,
        "super-peer knowledge yields a complete plan"
    );
    let oracle = oracle_base(net.schema(), net.bases());
    assert_eq!(
        outcome.result.clone().sorted(),
        oracle_answer(&oracle, &query)
    );
    assert_eq!(
        outcome.result.len(),
        2,
        "both prop1 rows join the shared prop2 row"
    );

    // Role separation: the super-peer processed no subqueries.
    let sp = net.super_peers()[0];
    assert_eq!(net.sim().node(node_of(sp)).unwrap().queries_processed, 0);
    // Contributing peers did.
    for &p in &[peers[1], peers[2], peers[4]] {
        assert!(net.sim().node(node_of(p)).unwrap().queries_processed >= 1);
    }
}

/// Figure 7: the ad-hoc scenario — P1's plan has a Q2 hole, P2 fills it
/// with P5 through interleaved routing/processing, and the final answer is
/// complete and correct.
#[test]
fn figure7_adhoc_scenario() {
    let config = PeerConfig {
        mode: PeerMode::Adhoc,
        ..PeerConfig::default()
    };
    let (mut net, peers) = fig7_network(config);
    let (p1, p5) = (peers[0], peers[4]);

    // Discovery: P1 knows P2, P3, P4 but not P5.
    let p1_node = net.sim().node(node_of(p1)).unwrap();
    assert!(p1_node.son.registry.get(peers[1]).is_some());
    assert!(p1_node.son.registry.get(p5).is_none());

    let query = net
        .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
        .unwrap();
    let qid = net.query(p1, query.clone());
    net.run();

    let outcome = net.outcome(p1, qid).expect("completed").clone();
    let oracle = oracle_base(net.schema(), net.bases());
    assert_eq!(
        outcome.result.clone().sorted(),
        oracle_answer(&oracle, &query)
    );
    assert_eq!(outcome.result.len(), 2);
    // P5 (unknown to P1!) processed the Q2 subquery.
    assert!(net.sim().node(node_of(p5)).unwrap().queries_processed >= 1);
}

/// §2.4's two halves: vertical distribution ⇒ correctness (no spurious
/// rows), horizontal distribution ⇒ completeness (all rows found).
#[test]
fn correctness_and_completeness_claims() {
    let (mut net, peers) = fig6_network(PeerConfig::default());
    let query = net
        .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
        .unwrap();
    let qid = net.query(peers[3], query.clone());
    net.run();
    let outcome = net.outcome(peers[3], qid).expect("completed").clone();
    let oracle = oracle_base(net.schema(), net.bases());
    let expected = oracle_answer(&oracle, &query);

    // Correctness: every distributed row is an oracle row.
    for row in outcome.result.rows.iter() {
        assert!(
            expected.rows.iter().any(|e| e == row),
            "spurious row {row:?}"
        );
    }
    // Completeness: every oracle row was found.
    assert_eq!(outcome.result.len(), expected.len());
}

// ======================================================================
// Golden EXPLAIN snapshots (query-lifecycle observability)
//
// These pin the rendered annotated pattern (Figure 2) and the pre/post
// optimisation plan pipeline (Figures 3–5) to byte-exact text under
// `tests/golden/`. When an intentional change alters the output,
// regenerate the snapshots with
//
//     BLESS=1 cargo test -p sqpeer --test figures golden_
//
// then review the diff and commit the updated files. A missing snapshot
// fails with the same instruction.
// ======================================================================

use sqpeer::plan::{CostParams, Estimator, Explain, UniformCost};

fn golden_check(name: &str, actual: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let path = dir.join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             `BLESS=1 cargo test -p sqpeer --test figures golden_`",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden snapshot {name} diverged; if intentional, regenerate with \
         `BLESS=1 cargo test -p sqpeer --test figures golden_` and review the diff"
    );
}

/// The Figure 2–5 running example compiled into an [`Explain`]: Fig 2
/// annotation, Fig 3 generated plan, Fig 4 rewrites, Fig 5 sited plan.
fn figure_explain(net_cost: &UniformCost) -> Explain {
    let schema = fig1_schema();
    let query = compile(fig1_query_text(), &schema).unwrap();
    let ads = fig2_ads(&schema);
    let annotated = route(&query, &ads, RoutingPolicy::SubsumedOnly);
    let plan = generate_plan(&annotated);
    let mut estimator = Estimator::new(CostParams::default());
    for ad in &ads {
        if let Some(stats) = &ad.stats {
            estimator.set_stats(ad.peer, stats.clone());
        }
    }
    let (best, report) = optimize(plan, PeerId(0), &estimator, net_cost);
    Explain::new(&annotated, &report, &best, &estimator)
}

/// Figure 2 + Figures 3–4: annotated pattern and optimisation pipeline.
#[test]
fn golden_explain_figures_2_to_4() {
    let explain = figure_explain(&UniformCost::default());
    golden_check("explain_fig2_fig4.txt", &explain.render());
}

/// The JSON export, with per-node cost-model estimates (machine-readable
/// twin of the text snapshot).
#[test]
fn golden_explain_json_export() {
    let explain = figure_explain(&UniformCost::default());
    golden_check("explain_fig2_fig4.json", &explain.to_json());
}

/// Figure 5: under congested links to the initiator, shipping whole join
/// subplans (query shipping) beats data shipping; the EXPLAIN shows the
/// changed siting decision.
#[test]
fn golden_explain_figure5_loaded_links() {
    let mut cost = UniformCost::new(0.5, 0.1);
    // Congested last mile: every link towards the initiator P0 is dear,
    // so moving raw fetches there loses to joining near the data.
    for p in 1..=4 {
        cost.set_link(PeerId(0), PeerId(p), 25.0);
    }
    let explain = figure_explain(&cost);
    golden_check("explain_fig5_loaded.txt", &explain.render());
}

/// End-to-end: the EXPLAIN a traced root records on the Figure 6 hybrid
/// network matches the snapshot, and two consecutive runs agree exactly
/// (the determinism bar for diffable snapshots).
#[test]
fn golden_explain_fig6_end_to_end_deterministic() {
    let run = || {
        let config = PeerConfig {
            trace: true,
            ..PeerConfig::default()
        };
        let (mut net, peers) = fig6_network(config);
        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let qid = net.query(peers[3], query);
        net.run();
        net.outcome(peers[3], qid).expect("completed");
        let explain = net.explain(peers[3], qid).expect("explain recorded");
        let profile = net.profile(peers[3], qid).expect("profile recorded");
        (explain.render(), profile.render())
    };
    let (explain_a, profile_a) = run();
    let (explain_b, profile_b) = run();
    assert_eq!(explain_a, explain_b, "EXPLAIN must be run-deterministic");
    assert_eq!(profile_a, profile_b, "profile must be run-deterministic");
    golden_check("explain_fig6_end_to_end.txt", &explain_a);
}
