//! E1–E7: one experiment per paper figure, over the Figure 1 schema and
//! the Figure 2 peers.

use crate::harness::{answer, execute, oracle_rows};
use crate::scenario::{
    ads_of, fig1_query, fig2_bases_with, fig2_network, link, scaled_fig2_bases, shipping_plans,
    shipping_triangle, unoptimized, CHAIN_QUERY,
};
use crate::table::{ms, Table};
use sqpeer::exec::{node_of, PeerConfig, PeerMode};
use sqpeer::overlay::{AdhocBuilder, HybridBuilder};
use sqpeer::plan::{
    distribute_joins, flatten_joins, generate_plan, merge_same_peer, optimize, CostParams,
    Estimator, PlanNode, Site, UniformCost,
};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingPolicy;
use sqpeer_testkit::fixtures::{fig1_query_text, fig1_schema};
use sqpeer_testkit::DataSpec;
use std::sync::Arc;

// ----------------------------------------------------------------------
// E1 — Figure 1
// ----------------------------------------------------------------------

pub fn fig1() -> String {
    let schema = fig1_schema();
    let mut out = String::from("E1 (Figure 1): query patterns and RVL active-schemas\n\n");

    let query = fig1_query(&schema);
    out.push_str(&format!("RQL query Q:\n  {}\n\n", fig1_query_text().trim()));
    out.push_str(&format!("semantic query pattern:\n  {query}\n\n"));
    out.push_str("path patterns with declared end-point classes:\n");
    for (i, p) in query.patterns().iter().enumerate() {
        out.push_str(&format!(
            "  Q{}: {{{};{}}} {} {{{};{}}}\n",
            i + 1,
            query.var_name(p.subject.term.var().expect("var")),
            p.subject
                .class
                .map(|c| schema.class_qname(c))
                .unwrap_or_default(),
            schema.property_qname(p.property),
            query.var_name(p.object.term.var().expect("var")),
            p.object
                .class
                .map(|c| schema.class_qname(c))
                .unwrap_or_default(),
        ));
    }

    let view_text = "VIEW n1:C5(X), n1:prop4(X,Y), n1:C6(Y) FROM {X}n1:prop4{Y}";
    let view = ViewDefinition::parse(view_text, &schema).expect("figure 1 view parses");
    out.push_str(&format!("\nRVL advertisement:\n  {view_text}\n"));
    out.push_str(&format!(
        "induced active-schema:\n  {}\n",
        view.active_schema()
    ));

    out
}

// ----------------------------------------------------------------------
// E2 — Figure 2
// ----------------------------------------------------------------------

pub fn fig2() -> String {
    let schema = fig1_schema();
    let query = fig1_query(&schema);
    let bases = scaled_fig2_bases(&schema, 8, 42);
    let ads = ads_of(&bases, 4);

    let mut out = String::from("E2 (Figure 2): semantic routing annotation\n\n");
    out.push_str("peer active-schemas:\n");
    for ad in &ads {
        out.push_str(&format!("  {}: {}\n", ad.peer, ad.active));
    }
    let annotated = route(&query, &ads, RoutingPolicy::SubsumedOnly);
    out.push_str(&format!(
        "\nannotated query pattern (isSubsumed matches):\n{annotated}"
    ));
    out.push_str(&format!("complete: {}\n", annotated.is_complete()));

    // Routing scalability: the algorithm matches every advertised arc
    // against every path pattern, so its work is that count of checks.
    out.push_str("\nrouting scalability (synthetic ads, Figure 1 schema):\n");
    let mut t = Table::new("peers, annotations, subsumption checks/route");
    for n in [10usize, 100, 1_000, 10_000] {
        let many = ads_of(&bases, n);
        let a = route(&query, &many, RoutingPolicy::SubsumedOnly);
        let annotations: usize = (0..query.patterns().len())
            .map(|i| a.peers_for(i).len())
            .sum();
        let arcs: usize = many
            .iter()
            .map(|ad| ad.active.active_properties().len())
            .sum();
        let checks = arcs * query.patterns().len();
        t.row(vec![
            n.to_string(),
            annotations.to_string(),
            checks.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ----------------------------------------------------------------------
// E3 — Figure 3
// ----------------------------------------------------------------------

pub fn fig3() -> String {
    let schema = fig1_schema();
    let query = fig1_query(&schema);
    let bases = scaled_fig2_bases(&schema, 8, 42);
    let annotated = route(&query, &ads_of(&bases, 4), RoutingPolicy::SubsumedOnly);
    let plan = generate_plan(&annotated);

    let mut out = String::from("E3 (Figure 3): query-processing algorithm\n\n");
    out.push_str(&format!("generated plan:\n  {plan}\n\n"));
    let mut t = Table::new("metric, value");
    t.row(vec!["fetches".into(), plan.fetch_count().to_string()]);
    t.row(vec!["holes".into(), plan.hole_count().to_string()]);
    t.row(vec![
        "distinct peers (channels to deploy)".into(),
        plan.subplans_shipped().to_string(),
    ]);
    t.row(vec!["plan depth".into(), plan.depth().to_string()]);
    out.push_str(&t.render());

    // Channel deployment measured in the simulator.
    let (mut net, ids) = fig2_network(8, unoptimized());
    let outcome = answer(&mut net, ids[0], query);
    let root = net.sim().node(node_of(ids[0])).expect("P1 exists");
    out.push_str(&format!(
        "\nsimulated execution from P1: channels deployed = {}, answer rows = {}\n",
        root.rooted_channels(),
        outcome.result.len(),
    ));
    out
}

// ----------------------------------------------------------------------
// E4 — Figure 4
// ----------------------------------------------------------------------

pub fn fig4() -> String {
    let schema = fig1_schema();
    let query = fig1_query(&schema);
    let triples = 200;
    let bases = scaled_fig2_bases(&schema, triples, 42);
    let ads = ads_of(&bases, 4);
    let annotated = route(&query, &ads, RoutingPolicy::SubsumedOnly);

    let plan1 = generate_plan(&annotated);
    let plan2 = distribute_joins(flatten_joins(plan1.clone()));
    let plan3 = merge_same_peer(flatten_joins(plan2.clone()));
    let mut estimator = Estimator::new(CostParams::default());
    for ad in &ads {
        if let Some(s) = &ad.stats {
            estimator.set_stats(ad.peer, s.clone());
        }
    }
    let (plan4, report) = optimize(
        plan1.clone(),
        PeerId(1),
        &estimator,
        &UniformCost::default(),
    );

    let mut out = String::from("E4 (Figure 4): optimisation pipeline\n\n");
    out.push_str(&format!(
        "Plan 1 = {plan1}\nPlan 2 = {plan2}\nPlan 3 = {plan3}\nPlan 4 = {plan4}\n\n"
    ));
    let mut t = Table::new("stage, fetches, est. transfer bytes");
    for (name, _, fetches, bytes) in &report.stages {
        t.row(vec![
            name.clone(),
            fetches.to_string(),
            format!("{bytes:.0}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ndistribution pipeline won cost comparison: {}\n",
        report.distributed_won
    ));

    // Measured execution of each plan shape over the simulator.
    out.push_str(&format!(
        "\nmeasured execution A — uniform links, initiator P1 ({triples} triples/property/peer):\n"
    ));
    let mut t = Table::new("plan, rows, sim messages, sim bytes, completion ms");
    for (name, plan) in [
        ("plan 1", &plan1),
        ("plan 2", &plan2),
        ("plan 3", &plan3),
        ("plan 4 (sited)", &plan4),
    ] {
        let (mut net, ids) = fig2_network(triples, unoptimized());
        net.sim_mut().reset_metrics();
        let outcome = execute(&mut net, ids[0], &query, plan);
        t.row(vec![
            name.into(),
            outcome.result.len().to_string(),
            net.sim().metrics().total_messages().to_string(),
            net.sim().metrics().total_bytes().to_string(),
            ms(outcome.latency_us),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nunder uniform links the generated shape already wins (each fetch\n\
         streams once); the optimiser's cost comparison correctly keeps it.\n",
    );

    // Scenario B: the regime the paper's Figure 4 narrative assumes — a
    // poorly-connected initiator querying a well-connected peer cluster
    // with a *selective* join ("beneficial, if the expected size of the
    // join result is smaller than any of the inputs"): prop1 extents are
    // large, prop2 extents sparse.
    out.push_str(
        "\nmeasured execution B — initiator on a slow link (100 B/ms), peers\n\
         interconnected at 10000 B/ms, selective join (sparse prop2),\n\
         joins query-shipped to the peers:\n",
    );
    let selective_bases = |schema: &Arc<Schema>| {
        fig2_bases_with(schema, 4, |name| DataSpec {
            triples_per_property: if name == "prop2" { 8 } else { 400 },
            class_pool: 200,
        })
    };
    let build_b = || {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1).config(unoptimized());
        let mut ids = vec![b.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0)];
        for base in selective_bases(&schema) {
            ids.push(b.add_peer(base, 0));
        }
        let mut net = b.build();
        let origin = ids[0];
        for i in 1..ids.len() {
            net.sim_mut()
                .set_link(node_of(origin), node_of(ids[i]), link(100));
            for j in i + 1..ids.len() {
                net.sim_mut()
                    .set_link(node_of(ids[i]), node_of(ids[j]), link(10_000));
            }
        }
        (net, ids)
    };
    // Plans over the shifted peer ids (origin P1, data peers P2..P5).
    let shift = |plan: &PlanNode| -> PlanNode {
        plan.clone().map_fetches(&mut |sq, site| {
            let site = match site {
                Site::Peer(PeerId(p)) => Site::Peer(PeerId(p + 1)),
                s => s,
            };
            PlanNode::Fetch { subquery: sq, site }
        })
    };
    let plan1_b = shift(&plan1);
    // Cost model mirroring scenario B's links drives the site assignment.
    let mut net_cost = UniformCost::new(1.0 / 100.0, 0.0001);
    for i in 2..=5u32 {
        for j in i + 1..=5u32 {
            net_cost.set_link(PeerId(i), PeerId(j), 1.0 / 10_000.0);
        }
    }
    let mut est_b = Estimator::new(CostParams::default());
    for (i, base) in selective_bases(&fig1_schema()).iter().enumerate() {
        est_b.set_stats(PeerId(i as u32 + 2), base.statistics());
    }
    let (plan_opt_b, _) = optimize(plan1_b.clone(), PeerId(1), &est_b, &net_cost);
    let mut t = Table::new("plan, rows, sim bytes, completion ms");
    for (name, plan) in [
        ("plan 1 (all data to initiator)", &plan1_b),
        ("optimised (joins at peers)", &plan_opt_b),
    ] {
        let (mut net, ids) = build_b();
        net.sim_mut().reset_metrics();
        let outcome = execute(&mut net, ids[0], &query, plan);
        t.row(vec![
            name.into(),
            outcome.result.len().to_string(),
            net.sim().metrics().total_bytes().to_string(),
            ms(outcome.latency_us),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!("\noptimised plan B = {plan_opt_b}\n"));
    out
}

// ----------------------------------------------------------------------
// E5 — Figure 5
// ----------------------------------------------------------------------

pub fn fig5() -> String {
    let query = fig1_query(&fig1_schema());

    // One sweep row: both plan shapes over a freshly built triangle.
    let row = |label: u64, p13_bandwidth: u64, p2_load_us: u64| {
        let times: Vec<u64> = [false, true]
            .iter()
            .map(|&ship_query| {
                let (mut net, ids) = shipping_triangle(300, p13_bandwidth, p2_load_us);
                let (data, qship) = shipping_plans(&query, &ids);
                let plan = if ship_query { qship } else { data };
                execute(&mut net, ids[0], &query, &plan).latency_us
            })
            .collect();
        let winner = if times[0] <= times[1] {
            "data"
        } else {
            "query"
        };
        vec![label.to_string(), ms(times[0]), ms(times[1]), winner.into()]
    };

    let mut out = String::from(
        "E5 (Figure 5): data vs query shipping\n\
         \ntopology: P1 (root) — P2 (Q1 data) — P3 (Q2 data); P2–P3 fast link\n\n",
    );
    out.push_str("sweep A: P1–P3 link bandwidth (bytes/ms), P2 unloaded\n");
    let mut t = Table::new("P1–P3 B/ms, data-ship ms, query-ship ms, winner");
    for bw in [100u64, 300, 1_000, 3_000, 10_000] {
        t.row(row(bw, bw, 0));
    }
    out.push_str(&t.render());

    out.push_str("\nsweep B: P2 processing load (µs/row), P1–P3 slow (100 B/ms,\nwhere query shipping wins when P2 is unloaded)\n");
    let mut t = Table::new("P2 µs/row, data-ship ms, query-ship ms, winner");
    for load in [0u64, 50, 100, 200, 500] {
        t.row(row(load, 100, load));
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: query shipping wins when the P1–P3 link is slow (it\n\
         exploits the fast P2–P3 connection); a heavily loaded P2 flips the\n\
         choice back to data shipping — exactly the Figure 5 discussion.\n",
    );
    out
}

// ----------------------------------------------------------------------
// E6 — Figure 6
// ----------------------------------------------------------------------

pub fn fig6() -> String {
    let (mut net, peers) = sqpeer_testkit::fig6_network(PeerConfig::default());
    let ad_messages = net.sim().metrics().total_messages();
    let ad_bytes = net.sim().metrics().total_bytes();
    net.sim_mut().reset_metrics();

    let query = net.compile(CHAIN_QUERY).expect("compiles");
    let outcome = answer(&mut net, peers[0], query.clone());
    let expected = oracle_rows(&net, &query);

    let mut out = String::from("E6 (Figure 6): hybrid super-peer execution\n\n");
    let mut t = Table::new("metric, value");
    t.row(vec![
        "advertisement push messages (join phase)".into(),
        ad_messages.to_string(),
    ]);
    t.row(vec![
        "advertisement push bytes".into(),
        ad_bytes.to_string(),
    ]);
    t.row(vec![
        "query messages".into(),
        net.sim().metrics().total_messages().to_string(),
    ]);
    t.row(vec![
        "query bytes".into(),
        net.sim().metrics().total_bytes().to_string(),
    ]);
    t.row(vec!["answer rows".into(), outcome.result.len().to_string()]);
    t.row(vec!["oracle rows".into(), expected.len().to_string()]);
    t.row(vec![
        "complete".into(),
        (outcome.result.clone().sorted() == expected && !outcome.partial).to_string(),
    ]);
    t.row(vec!["completion ms".into(), ms(outcome.latency_us)]);
    out.push_str(&t.render());

    out.push_str("\nrole separation (messages received / subqueries processed):\n");
    let mut t = Table::new("node, role, msgs received, subqueries processed");
    let supers = net.super_peers().iter().map(|&sp| (sp, "super"));
    for (p, role) in supers.chain(peers.iter().map(|&p| (p, "simple"))) {
        let m = net.sim().metrics().node(node_of(p));
        let n = net.sim().node(node_of(p)).expect("node");
        t.row(vec![
            p.to_string(),
            role.into(),
            m.messages_received.to_string(),
            n.queries_processed.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ----------------------------------------------------------------------
// E7 — Figure 7
// ----------------------------------------------------------------------

pub fn fig7() -> String {
    let mut out = String::from("E7 (Figure 7): ad-hoc interleaved routing and processing\n\n");
    let config = PeerConfig {
        mode: PeerMode::Adhoc,
        ..PeerConfig::default()
    };

    let (mut net, peers) = sqpeer_testkit::fig7_network(config.clone());
    let discovery_msgs = net.sim().metrics().total_messages();
    net.sim_mut().reset_metrics();
    let p1 = peers[0];
    let query = net.compile(CHAIN_QUERY).expect("compiles");
    let outcome = answer(&mut net, p1, query.clone());
    let expected = oracle_rows(&net, &query);

    let mut t = Table::new("metric, value");
    t.row(vec![
        "discovery messages (1-hop pull)".into(),
        discovery_msgs.to_string(),
    ]);
    t.row(vec![
        "P1 knows P5 before query".into(),
        net.sim()
            .node(node_of(p1))
            .expect("p1")
            .son
            .registry
            .get(peers[4])
            .is_some()
            .to_string(),
    ]);
    t.row(vec![
        "query messages".into(),
        net.sim().metrics().total_messages().to_string(),
    ]);
    t.row(vec!["answer rows".into(), outcome.result.len().to_string()]);
    t.row(vec![
        "complete despite P1's Q2 hole".into(),
        (outcome.result.clone().sorted() == expected).to_string(),
    ]);
    t.row(vec![
        "P5 processed a subquery".into(),
        (net.sim()
            .node(node_of(peers[4]))
            .expect("p5")
            .queries_processed
            >= 1)
            .to_string(),
    ]);
    t.row(vec!["completion ms".into(), ms(outcome.latency_us)]);
    out.push_str(&t.render());

    out.push_str("\ndiscovery-depth sweep (line topology O–P1–P2–P3–P4, query at O):\n");
    let mut t = Table::new("depth, O registry size, query messages, rows, oracle rows, complete");
    for depth in [1u32, 2, 3, 4] {
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), depth).config(config.clone());
        let ids: Vec<PeerId> = sqpeer_testkit::fig2_bases(&schema)
            .into_iter()
            .chain([DescriptionBase::new(Arc::clone(&schema))])
            .map(|base| b.add_peer(base))
            .collect();
        // Line topology: P4(empty) - P0 - P1 - P2 - P3 forces depth to
        // matter.
        b.link(ids[4], ids[0]);
        b.link(ids[0], ids[1]);
        b.link(ids[1], ids[2]);
        b.link(ids[2], ids[3]);
        let mut net = b.build();
        net.sim_mut().reset_metrics();
        let origin = ids[4];
        let q = net.compile(CHAIN_QUERY).expect("compiles");
        let outcome = answer(&mut net, origin, q.clone());
        let expected = oracle_rows(&net, &q);
        t.row(vec![
            depth.to_string(),
            net.sim()
                .node(node_of(origin))
                .expect("origin")
                .son
                .registry
                .len()
                .to_string(),
            net.sim().metrics().total_messages().to_string(),
            outcome.result.len().to_string(),
            expected.len().to_string(),
            (outcome.result.clone().sorted() == expected).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: deeper discovery widens the semantic neighbourhood and\n\
         answer completeness converges to the oracle — \"constructing\n\
         progressively self-adaptive SONs\" (§3.2).\n",
    );
    out
}
