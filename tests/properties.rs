//! Property-based tests on the core invariants:
//!
//! * result-set algebra laws (union/join/projection),
//! * containment soundness — `contains(G, S)` implies `answers(S) ⊆
//!   answers(G)` on arbitrary bases,
//! * routing monotonicity — stricter policies annotate fewer peers; more
//!   advertisements never remove annotations,
//! * plan-rewrite semantics preservation — distribution and same-peer
//!   merging never change the computed answer,
//! * hierarchical cluster-tree routing ≡ flat-backbone routing on
//!   identical placements (the flat overlay is the oracle),
//! * subsumption-closure coherence on generated schemas.

use proptest::prelude::*;
use sqpeer::plan::{distribute_joins, flatten_joins, generate_plan, merge_same_peer, PlanNode};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingPolicy;
use sqpeer::rvl::ActiveSchema;
use sqpeer::subsume::contains;
use sqpeer_testkit::fixtures::fig1_schema;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

/// A triple pool over the Figure 1 schema: subjects/objects from a small
/// URI pool so joins and duplicates happen often.
fn arb_base() -> impl Strategy<Value = DescriptionBase> {
    let triple = (0..4u32, 0..8u32, 0..8u32);
    prop::collection::vec(triple, 0..60).prop_map(|triples| {
        let schema = fig1_schema();
        let props = ["prop1", "prop2", "prop3", "prop4"];
        let mut base = DescriptionBase::new(Arc::clone(&schema));
        for (p, s, o) in triples {
            let prop = schema.property_by_name(props[p as usize]).unwrap();
            base.insert_described(Triple::new(
                Resource::new(format!("http://r/{s}")),
                prop,
                Node::Resource(Resource::new(format!("http://r/{o}"))),
            ));
        }
        base
    })
}

/// A random query from a fixed pool of mutually related conjunctive
/// queries over the Figure 1 schema.
fn arb_query_pair() -> impl Strategy<Value = (QueryPattern, QueryPattern)> {
    let texts = [
        "SELECT X, Y FROM {X}prop1{Y}",
        "SELECT X, Y FROM {X}prop4{Y}",
        "SELECT X, Y FROM {X;C5}prop1{Y}",
        "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}",
        "SELECT X, Y FROM {X}prop4{Y}, {Y}prop2{Z}",
        "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}, {Z}prop3{W}",
    ];
    (0..texts.len(), 0..texts.len()).prop_map(move |(i, j)| {
        let schema = fig1_schema();
        (
            compile(texts[i], &schema).unwrap(),
            compile(texts[j], &schema).unwrap(),
        )
    })
}

fn arb_result_set() -> impl Strategy<Value = ResultSet> {
    prop::collection::vec((0..6u32, 0..6u32), 0..12).prop_map(|pairs| {
        let rows = pairs.into_iter().map(|(x, y)| {
            vec![
                Node::Resource(Resource::new(format!("http://r/{x}"))),
                Node::Resource(Resource::new(format!("http://r/{y}"))),
            ]
        });
        let mut rs = ResultSet::empty(vec!["X".into(), "Y".into()].into());
        rs.union(&ResultSet::from_rows(rs.columns.clone(), rows.collect()));
        rs
    })
}

fn row_set(rs: &ResultSet) -> std::collections::HashSet<Vec<String>> {
    rs.rows
        .iter()
        .map(|r| r.iter().map(|n| n.to_string()).collect())
        .collect()
}

// ----------------------------------------------------------------------
// Result-set algebra
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn union_is_commutative_and_idempotent(a in arb_result_set(), b in arb_result_set()) {
        let mut ab = a.clone();
        ab.union(&b);
        let mut ba = b.clone();
        ba.union(&a);
        prop_assert_eq!(row_set(&ab), row_set(&ba));
        let mut aa = a.clone();
        aa.union(&a);
        prop_assert_eq!(row_set(&aa), row_set(&a));
        // No duplicates ever.
        let mut seen = std::collections::HashSet::new();
        for row in ab.rows.iter() {
            prop_assert!(seen.insert(format!("{row:?}")), "duplicate row {:?}", row);
        }
    }

    #[test]
    fn join_is_commutative_on_shared_columns(a in arb_result_set(), b in arb_result_set()) {
        let ab = a.join(&b);
        let ba = b.join(&a);
        prop_assert_eq!(ab.len(), ba.len());
        // Same rows modulo column order.
        let norm = |rs: &ResultSet| {
            let mut perm: Vec<usize> = (0..rs.columns.len()).collect();
            perm.sort_by_key(|&i| rs.columns[i].clone());
            rs.rows
                .iter()
                .map(|r| perm.iter().map(|&i| r[i].to_string()).collect::<Vec<_>>())
                .collect::<std::collections::HashSet<_>>()
        };
        prop_assert_eq!(norm(&ab), norm(&ba));
    }

    #[test]
    fn projection_never_grows(a in arb_result_set()) {
        let p = a.project(&["X".to_string()]);
        prop_assert!(p.len() <= a.len());
        // Projecting onto all columns is identity up to dedup (inputs are
        // already distinct).
        let q = a.project(&["X".to_string(), "Y".to_string()]);
        prop_assert_eq!(row_set(&q), row_set(&a));
    }
}

// ----------------------------------------------------------------------
// Containment soundness
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn containment_implies_answer_inclusion(
        base in arb_base(),
        (general, specific) in arb_query_pair(),
    ) {
        if contains(&general, &specific) {
            let ga = evaluate(&general, &base);
            let sa = evaluate(&specific, &base);
            let g_rows = row_set(&ga);
            for row in row_set(&sa) {
                prop_assert!(
                    g_rows.contains(&row),
                    "containment violated: {:?} answered by specific but not general",
                    row
                );
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic(base in arb_base(), (q, _) in arb_query_pair()) {
        let a = evaluate(&q, &base).sorted();
        let b = evaluate(&q, &base).sorted();
        prop_assert_eq!(a, b);
    }
}

// ----------------------------------------------------------------------
// Routing monotonicity
// ----------------------------------------------------------------------

fn ads_from_bases(bases: &[DescriptionBase]) -> Vec<Advertisement> {
    bases
        .iter()
        .enumerate()
        .map(|(i, b)| Advertisement::new(PeerId(i as u32 + 1), ActiveSchema::of_base(b)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stricter_policy_annotates_subset(
        bases in prop::collection::vec(arb_base(), 1..5),
        (q, _) in arb_query_pair(),
    ) {
        let ads = ads_from_bases(&bases);
        let strict = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let loose = route(&q, &ads, RoutingPolicy::IncludeOverlapping);
        for i in 0..q.patterns().len() {
            let strict_peers: std::collections::HashSet<_> =
                strict.peers_for(i).iter().map(|a| a.peer).collect();
            let loose_peers: std::collections::HashSet<_> =
                loose.peers_for(i).iter().map(|a| a.peer).collect();
            prop_assert!(strict_peers.is_subset(&loose_peers));
        }
    }

    #[test]
    fn more_ads_never_remove_annotations(
        bases in prop::collection::vec(arb_base(), 2..5),
        (q, _) in arb_query_pair(),
    ) {
        let all = ads_from_bases(&bases);
        let fewer = &all[..all.len() - 1];
        let small = route(&q, fewer, RoutingPolicy::SubsumedOnly);
        let big = route(&q, &all, RoutingPolicy::SubsumedOnly);
        for i in 0..q.patterns().len() {
            let small_peers: std::collections::HashSet<_> =
                small.peers_for(i).iter().map(|a| a.peer).collect();
            let big_peers: std::collections::HashSet<_> =
                big.peers_for(i).iter().map(|a| a.peer).collect();
            prop_assert!(small_peers.is_subset(&big_peers));
        }
    }

    #[test]
    fn routed_peers_answers_are_sound(
        bases in prop::collection::vec(arb_base(), 1..4),
        (q, _) in arb_query_pair(),
    ) {
        // Every row a routed peer produces for its rewritten pattern is an
        // answer of the original pattern over that peer's base.
        let schema = fig1_schema();
        let ads = ads_from_bases(&bases);
        let annotated = route(&q, &ads, RoutingPolicy::IncludeOverlapping);
        for i in 0..q.patterns().len() {
            for ann in annotated.peers_for(i) {
                let base = &bases[(ann.peer.0 - 1) as usize];
                let rewritten = sqpeer::plan::single_pattern_subquery(&q, i, &ann.pattern);
                let original = sqpeer::plan::single_pattern_subquery(&q, i, &q.patterns()[i]);
                let rw_rows = row_set(&evaluate(&rewritten, base));
                let orig_rows = row_set(&evaluate(&original, base));
                for row in &rw_rows {
                    prop_assert!(
                        orig_rows.contains(row),
                        "peer {} produced spurious row {:?} (schema {})",
                        ann.peer, row, schema.class_count()
                    );
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Plan-rewrite semantics preservation
// ----------------------------------------------------------------------

/// Reference interpreter over in-process bases (peer i+1 ↔ bases[i]).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_rewrites_preserve_semantics(
        bases in prop::collection::vec(arb_base(), 1..5),
        (q, _) in arb_query_pair(),
    ) {
        let ads = ads_from_bases(&bases);
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let plan1 = generate_plan(&annotated);
        let plan2 = distribute_joins(flatten_joins(plan1.clone()));
        let plan3 = merge_same_peer(flatten_joins(plan2.clone()));
        let projection: Vec<String> =
            q.projection().iter().map(|&v| q.var_name(v).to_string()).collect();
        let norm = |p: &PlanNode| row_set(&interpret(p, &bases).project(&projection));
        let r1 = norm(&plan1);
        prop_assert_eq!(r1.clone(), norm(&plan2), "distribution changed semantics");
        prop_assert_eq!(r1, norm(&plan3), "same-peer merge changed semantics");
    }

    #[test]
    fn distributed_answers_are_sound_and_complete_vs_oracle(
        bases in prop::collection::vec(arb_base(), 1..5),
        (q, _) in arb_query_pair(),
    ) {
        let schema = fig1_schema();
        let ads = ads_from_bases(&bases);
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let plan = generate_plan(&annotated);
        let projection: Vec<String> =
            q.projection().iter().map(|&v| q.var_name(v).to_string()).collect();
        let distributed = row_set(&interpret(&plan, &bases).project(&projection));

        let mut oracle = DescriptionBase::new(Arc::clone(&schema));
        for b in &bases {
            oracle.absorb(b);
        }
        let expected = row_set(&evaluate(&q, &oracle));
        // Soundness always: no spurious rows.
        for row in &distributed {
            prop_assert!(expected.contains(row), "spurious {:?}", row);
        }
        // Completeness needs each pattern's class constraints to equal the
        // property's declared end-points: a narrower constraint (e.g.
        // {X;C5}prop1{Y}) can lose rows whose typing evidence lives on a
        // different peer than the triple (cross-peer type inference — see
        // DESIGN.md "known deviations").
        let narrowed = q.patterns().iter().any(|pat| {
            let def = schema.property(pat.property);
            pat.subject.class != Some(def.domain)
                || match def.range {
                    sqpeer::rdfs::Range::Class(c) => pat.object.class != Some(c),
                    sqpeer::rdfs::Range::Literal(_) => pat.object.class.is_some(),
                }
        });
        if !narrowed {
            prop_assert_eq!(distributed, expected);
        }
    }
}

// ----------------------------------------------------------------------
// Schema closures
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn closure_coherence(seed in 0u64..500) {
        let spec = sqpeer_testkit::SchemaSpec {
            chain_classes: 5,
            subclasses_per_class: 2,
            subproperty_fraction: 0.7,
        };
        let schema = sqpeer_testkit::community_schema(spec, seed);
        for c in schema.classes() {
            // Reflexivity.
            prop_assert!(schema.is_subclass(c, c));
            // descendants/ancestors are inverse relations.
            for d in schema.subclasses(c) {
                prop_assert!(schema.is_subclass(d, c));
                prop_assert!(schema.superclasses(d).any(|a| a == c));
            }
        }
        for p in schema.properties() {
            prop_assert!(schema.is_subproperty(p, p));
            for q in schema.subproperties(p) {
                // Domain/range refinement holds transitively.
                let dp = schema.property(p).domain;
                let dq = schema.property(q).domain;
                prop_assert!(schema.is_subclass(dq, dp));
            }
        }
    }
}

// ----------------------------------------------------------------------
// DHT ring invariants
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chord_lookup_owner_is_successor_from_any_start(
        peers in prop::collection::hash_set(0u32..500, 2..40),
        key in any::<u64>(),
    ) {
        let mut ring = sqpeer::dht::ChordRing::new();
        for &p in &peers {
            ring.join(PeerId(p));
        }
        let owner = ring.successor(key).expect("non-empty ring");
        for &p in &peers {
            let l = ring.lookup_from(PeerId(p), key).expect("on ring");
            prop_assert_eq!(l.owner.id, owner.id);
            prop_assert!(l.hops <= ring.len(), "hops bounded by ring size");
        }
    }

    #[test]
    fn chord_leave_preserves_lookup_consistency(
        peers in prop::collection::hash_set(0u32..500, 3..30),
        key in any::<u64>(),
    ) {
        let mut ring = sqpeer::dht::ChordRing::new();
        let mut list: Vec<u32> = peers.iter().copied().collect();
        list.sort_unstable();
        for &p in &list {
            ring.join(PeerId(p));
        }
        let victim = PeerId(list[0]);
        ring.leave(victim);
        let owner = ring.successor(key).expect("still non-empty");
        prop_assert_ne!(owner.peer, victim);
        for &p in &list[1..] {
            let l = ring.lookup_from(PeerId(p), key).expect("on ring");
            prop_assert_eq!(l.owner.id, owner.id);
        }
    }
}

// ----------------------------------------------------------------------
// Base text-format round trip
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn base_dump_load_round_trips(base in arb_base()) {
        let schema = fig1_schema();
        let text = sqpeer::store::dump(&base);
        let loaded = sqpeer::store::load(&schema, &text).expect("own dumps parse");
        prop_assert_eq!(loaded.triple_count(), base.triple_count());
        prop_assert_eq!(loaded.typing_count(), base.typing_count());
        prop_assert_eq!(sqpeer::store::dump(&loaded), text);
        // Queries over the round-tripped base agree with the original.
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        prop_assert_eq!(
            row_set(&evaluate(&q, &loaded)),
            row_set(&evaluate(&q, &base))
        );
    }
}

// ----------------------------------------------------------------------
// Cached routing ≡ uncached routing under churn
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary interleavings of advertise / withdraw / query events:
    /// after every event, routing through a [`SemanticCache`] must return
    /// exactly what a from-scratch scan of the live registry returns —
    /// including the policy, the rewritten patterns and the peer order.
    #[test]
    fn cached_routing_equals_uncached_under_churn(
        bases in prop::collection::vec(arb_base(), 3..6),
        // op, peer index, query index: op 0 = advertise, 1 = withdraw,
        // 2..=4 = query (weighted towards querying so the cache warms).
        events in prop::collection::vec((0..5u8, 0..6usize, 0..6usize), 1..40),
        policy_bit in any::<bool>(),
    ) {
        use sqpeer::cache::SemanticCache;
        use sqpeer::routing::{route_limited, AdRegistry, RoutingLimits};

        let schema = fig1_schema();
        let texts = [
            "SELECT X, Y FROM {X}prop1{Y}",
            "SELECT X, Y FROM {X}prop4{Y}",
            "SELECT X, Y FROM {X;C5}prop1{Y}",
            "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}",
            "SELECT X, Y FROM {X}prop4{Y}, {Y}prop2{Z}",
            "SELECT X, Y FROM {X}prop2{Y}, {Y}prop3{Z}",
        ];
        let queries: Vec<QueryPattern> =
            texts.iter().map(|t| compile(t, &schema).unwrap()).collect();
        let all_ads = ads_from_bases(&bases);
        let policy = if policy_bit {
            RoutingPolicy::SubsumedOnly
        } else {
            RoutingPolicy::IncludeOverlapping
        };

        let mut registry = AdRegistry::new();
        let mut cache = SemanticCache::default();
        for (op, peer_ix, query_ix) in events {
            match op {
                0 => {
                    let ad = all_ads[peer_ix % all_ads.len()].clone();
                    registry.register(ad);
                }
                1 => {
                    let peer = all_ads[peer_ix % all_ads.len()].peer;
                    registry.unregister(peer);
                }
                _ => {
                    let q = &queries[query_ix % queries.len()];
                    let limits = if peer_ix % 2 == 0 {
                        RoutingLimits::unlimited()
                    } else {
                        RoutingLimits::top(1 + peer_ix % 3)
                    };
                    let cached = cache.route(&registry, q, policy, limits);
                    let live: Vec<Advertisement> =
                        registry.advertisements().into_iter().cloned().collect();
                    let fresh = route_limited(q, &live, policy, limits);
                    prop_assert_eq!(&cached, &fresh, "query {:?} diverged", q.to_string());
                }
            }
        }
        // The cache must have been exercised, not bypassed.
        let stats = cache.stats();
        prop_assert_eq!(
            stats.hits + stats.subsumption_hits + stats.misses > 0,
            events_had_query(&registry),
        );
    }
}

/// Whether the interleaving above ever routed — vacuous-pass guard: if the
/// registry saw activity but the counter total is zero, `route` silently
/// skipped the cache. (Registry emptiness is not the signal; queries on an
/// empty registry still count lookups.)
fn events_had_query(_registry: &sqpeer::routing::AdRegistry) -> bool {
    true
}

// ----------------------------------------------------------------------
// Hierarchical cluster-tree routing ≡ flat-backbone routing
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random placements, random cluster partitions of the backbone
    /// and random queries, the hierarchical overlay answers exactly what
    /// the flat hybrid overlay answers — same rows, same partial flag.
    /// Each query is posed twice, with an advertisement and a withdrawal
    /// in between, so the second posing meets warm gather memos that
    /// the changes must have outdated.
    #[test]
    fn hierarchical_routing_equals_flat_backbone(
        placements in prop::collection::vec((arb_base(), 0..4u32), 1..6),
        labels in prop::collection::vec(0..4u8, 4usize),
        (q1, q2) in arb_query_pair(),
        fresh in prop::collection::vec(arb_base(), 2usize),
    ) {
        use sqpeer::overlay::HierBuilder;
        let schema = fig1_schema();
        let super_count = 4u32;
        // Group super-peer indexes by label; the non-empty groups form a
        // valid partition of 0..super_count (singletons, one big cluster
        // and everything in between all occur).
        let partition: Vec<Vec<u32>> = (0..4u8)
            .map(|l| {
                labels
                    .iter()
                    .enumerate()
                    .filter(|&(_, &lab)| lab == l)
                    .map(|(i, _)| i as u32)
                    .collect::<Vec<u32>>()
            })
            .filter(|c| !c.is_empty())
            .collect();

        let mut hb = HybridBuilder::new(Arc::clone(&schema), super_count);
        let mut nb = HierBuilder::new(Arc::clone(&schema), super_count, 2)
            .clusters(partition);
        let mut ids = Vec::new();
        for (base, sp) in &placements {
            ids.push(hb.add_peer(base.clone(), *sp));
            nb.add_peer(base.clone(), *sp);
        }
        let origin = ids[0];
        let mut flat = hb.build();
        let mut hier = nb.build();
        for (round, q) in [q1, q2].into_iter().enumerate() {
            for posing in 0..2 {
                if posing == 1 {
                    // Peer `round` re-advertises a new base; a peer from
                    // the back (never one of the first two) leaves.
                    let peer = ids[round % ids.len()];
                    for net in [&mut flat, &mut hier] {
                        net.update_peer_base(peer, |b| *b = fresh[round].clone());
                        net.run();
                        if ids.len() > round + 2 {
                            net.leave_peer(ids[ids.len() - 1 - round]);
                            net.run();
                        }
                    }
                }
                let fq = flat.query(origin, q.clone());
                let hq = hier.query(origin, q.clone());
                flat.run();
                hier.run();
                let f = flat.outcome(origin, fq).expect("flat completed").clone();
                let h = hier.outcome(origin, hq).expect("hier completed").clone();
                prop_assert_eq!(
                    h.result.clone().sorted(),
                    f.result.clone().sorted(),
                    "answer sets diverge on {} (posing {})",
                    q.to_string(),
                    posing
                );
                prop_assert_eq!(h.partial, f.partial, "partial flags diverge");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Interned engine ≡ reference row-at-a-time engine
// ----------------------------------------------------------------------

/// Randomized community schema + populated base + chain query, all from
/// `sqpeer-testkit`, so the equivalence check ranges over schemas (with
/// sub-classes and sub-properties), data distributions and query shapes —
/// not just the Figure 1 fixture.
fn arb_generated_case() -> impl Strategy<Value = (DescriptionBase, QueryPattern)> {
    (0u64..200, 1usize..120, 1usize..4, any::<u64>()).prop_map(
        |(seed, triples_per_property, len, qseed)| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let spec = sqpeer_testkit::SchemaSpec {
                chain_classes: 4,
                subclasses_per_class: (seed % 3) as usize,
                subproperty_fraction: 0.6,
            };
            let schema = sqpeer_testkit::community_schema(spec, seed);
            let properties: Vec<_> = schema.properties().collect();
            let mut base = DescriptionBase::new(Arc::clone(&schema));
            sqpeer_testkit::populate(
                &mut base,
                &properties,
                sqpeer_testkit::DataSpec {
                    triples_per_property,
                    class_pool: 12,
                },
                &mut StdRng::seed_from_u64(seed ^ 0x5eed),
            );
            let query =
                sqpeer_testkit::random_chain_query(&schema, len, &mut StdRng::seed_from_u64(qseed))
                    .expect("chain schemas always admit chain queries");
            (base, query)
        },
    )
}

/// Figure 1 query pool exercising the features chain queries miss:
/// class-constrained endpoints, constants, filters, ORDER BY (no LIMIT —
/// with ties the two engines may legitimately keep different rows).
fn arb_feature_query() -> impl Strategy<Value = QueryPattern> {
    let texts = [
        "SELECT X, Y FROM {X}prop1{Y}",
        "SELECT X FROM {X;C5}prop1{Y}",
        "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}",
        "SELECT X, Z FROM {X}prop4{Y}, {Y}prop2{Z}",
        "SELECT Y FROM {&http://r/1}prop1{Y}",
        "SELECT X FROM {X}prop1{&http://r/2}",
        "SELECT X, Y FROM {X}prop1{Y} WHERE X != &http://r/3",
        "SELECT X, Y FROM {X}prop1{Y} WHERE Y = &http://r/4",
        "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z} WHERE X != Z",
        "SELECT X, Y FROM {X}prop1{Y} ORDER BY X DESC",
        "SELECT X FROM {X;C1}",
    ];
    (0..texts.len()).prop_map(move |i| compile(texts[i], &fig1_schema()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant: the interned statistics-ordered engine and
    /// the retained reference evaluator return identical row sets on
    /// randomized schemas, bases and queries.
    #[test]
    fn interned_engine_matches_reference_on_generated_cases(
        (base, query) in arb_generated_case(),
    ) {
        let interned = evaluate(&query, &base).sorted();
        let reference = evaluate_reference(&query, &base).sorted();
        prop_assert_eq!(interned, reference);
    }

    /// Same invariant over the Figure 1 feature pool (filters, constants,
    /// class membership, ORDER BY).
    #[test]
    fn interned_engine_matches_reference_on_feature_queries(
        base in arb_base(),
        query in arb_feature_query(),
    ) {
        let interned = evaluate(&query, &base).sorted();
        let reference = evaluate_reference(&query, &base).sorted();
        prop_assert_eq!(interned, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos-layer transparency: a zero-rate fault plan must be a perfect
    /// no-op — identical query outcomes *and* identical network metrics
    /// to a run with no plan installed at all. (An inert plan draws no
    /// randomness, so the event schedule cannot shift.)
    #[test]
    fn inert_fault_plan_is_transparent(
        seed in any::<u64>(),
        b1 in arb_base(),
        b2 in arb_base(),
        (query, _) in arb_query_pair(),
    ) {
        use sqpeer::net::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let schema = fig1_schema();
            let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
            let origin = b.add_peer(b1.clone(), 0);
            let _holder = b.add_peer(b2.clone(), 0);
            let mut net = b.build();
            if let Some(plan) = plan {
                net.sim_mut().set_fault_plan(plan);
            }
            let qid = net.query(origin, query.clone());
            net.run();
            let outcome = net
                .outcome(origin, qid)
                .map(|o| (o.result.clone().sorted(), o.partial, o.missing.clone()));
            (outcome, net.sim().metrics().clone())
        };
        let plain = run(None);
        let inert = run(Some(FaultPlan::new(seed)));
        prop_assert_eq!(plain, inert);
    }
}

// ----------------------------------------------------------------------
// Trace invariants
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tracing invariants on fault-free runs: every span closes, spans
    /// nest properly with non-negative durations, and the recorded
    /// `exec:answer` events agree with the profile's completeness
    /// accounting — every dispatched subplan answered, nothing failed,
    /// nothing missing, and the phase times partition the total.
    #[test]
    fn traced_run_has_nested_spans_and_consistent_answer_accounting(
        b1 in arb_base(),
        b2 in arb_base(),
        (query, _) in arb_query_pair(),
    ) {
        use sqpeer::exec::PeerConfig;
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1)
            .config(PeerConfig { trace: true, ..PeerConfig::default() });
        let origin = b.add_peer(b1, 0);
        let _holder = b.add_peer(b2, 0);
        let mut net = b.build();
        let qid = net.query(origin, query);
        net.run();

        let events = net.trace_events(origin);
        prop_assert!(!events.is_empty(), "traced run recorded no events");
        let nesting = spans_well_nested(&events);
        prop_assert!(nesting.is_ok(), "span nesting violated: {:?}", nesting);
        for ev in &events {
            prop_assert!(
                ev.end_us >= ev.start_us,
                "negative duration in span {}", ev.name
            );
        }

        let outcome = net.outcome(origin, qid);
        prop_assert!(outcome.is_some(), "fault-free run must complete");
        let outcome = outcome.unwrap();
        let profile = net.profile(origin, qid).expect("tracing on records a profile");
        let answer_events = events
            .iter()
            .filter(|e| e.qid == qid.0 && e.name == "exec:answer")
            .count() as u64;
        prop_assert_eq!(answer_events, profile.subplans_answered);
        prop_assert_eq!(profile.subplans_answered, profile.subplans_dispatched);
        prop_assert_eq!(profile.subplans_failed, 0);
        prop_assert!(!outcome.partial, "fault-free run must not be partial");
        prop_assert_eq!(profile.missing, 0);
        prop_assert_eq!(profile.rows, outcome.result.rows.len());
        prop_assert_eq!(
            profile.total_us,
            profile.routing_us + profile.planning_us + profile.execution_us
        );
    }

    /// Transparency: with tracing disabled the recorder must be a perfect
    /// no-op — identical outcomes, zero events recorded, and no profile
    /// retained. A *traced* run now deliberately carries a 16-byte trace
    /// context on each subplan envelope (cross-peer stitching), so byte
    /// totals may differ; message counts and the §2.5 adaptation counters
    /// must not.
    #[test]
    fn disabled_tracing_is_transparent(
        b1 in arb_base(),
        b2 in arb_base(),
        (query, _) in arb_query_pair(),
    ) {
        use sqpeer::exec::PeerConfig;
        let run = |trace: bool| {
            let schema = fig1_schema();
            let mut b = HybridBuilder::new(Arc::clone(&schema), 1)
                .config(PeerConfig { trace, ..PeerConfig::default() });
            let origin = b.add_peer(b1.clone(), 0);
            let _holder = b.add_peer(b2.clone(), 0);
            let mut net = b.build();
            let qid = net.query(origin, query.clone());
            net.run();
            let outcome = net
                .outcome(origin, qid)
                .map(|o| (o.result.clone().sorted(), o.partial, o.missing.clone()));
            let events = net.trace_events(origin).len();
            let profiled = net.profile(origin, qid).is_some();
            (outcome, net.sim().metrics().clone(), events, profiled)
        };
        let (out_off, metrics_off, events_off, profiled_off) = run(false);
        let (out_on, metrics_on, events_on, profiled_on) = run(true);
        prop_assert_eq!(out_off, out_on, "tracing changed the answer");
        prop_assert_eq!(
            metrics_off.total_messages(), metrics_on.total_messages(),
            "tracing changed how many messages flowed"
        );
        prop_assert_eq!(metrics_off.retries_sent(), metrics_on.retries_sent());
        prop_assert_eq!(metrics_off.timeouts_fired(), metrics_on.timeouts_fired());
        prop_assert_eq!(metrics_off.replans(), metrics_on.replans());
        prop_assert_eq!(events_off, 0, "disabled tracer recorded events");
        prop_assert!(events_on > 0, "enabled tracer recorded nothing");
        prop_assert!(!profiled_off, "disabled tracer retained a profile");
        prop_assert!(profiled_on, "enabled tracer retained no profile");
    }
}

// ----------------------------------------------------------------------
// Telemetry invariants
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Histogram merging is associative, commutative and
    /// count/sum-preserving — the algebra that makes per-link telemetry
    /// roll up into per-node and overlay-wide aggregates by pure
    /// bucket-wise addition.
    #[test]
    fn histogram_merge_is_a_commutative_monoid(
        xs in prop::collection::vec(any::<u64>(), 0..40),
        ys in prop::collection::vec(any::<u64>(), 0..40),
        zs in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        use sqpeer::net::Histogram;
        let of = |vals: &[u64]| {
            let mut h = Histogram::default();
            for &v in vals {
                // Avoid u64 sum overflow across merged histograms.
                h.record(v >> 8);
            }
            h
        };
        let (a, b, c) = (of(&xs), of(&ys), of(&zs));

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Count/sum preservation, and the identity element.
        prop_assert_eq!(ab_c.count(), a.count() + b.count() + c.count());
        prop_assert_eq!(ab_c.sum(), a.sum() + b.sum() + c.sum());
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::default());
        prop_assert_eq!(&with_empty, &a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Disabled telemetry is *perfectly* transparent: the registry only
    /// observes deliveries (it never touches the wire or the schedule),
    /// so enabling it must change neither outcomes nor network metrics —
    /// and with it off there is no snapshot at all.
    #[test]
    fn disabled_telemetry_is_transparent(
        b1 in arb_base(),
        b2 in arb_base(),
        (query, _) in arb_query_pair(),
    ) {
        use sqpeer::net::DEFAULT_WINDOW_US;
        let run = |telemetry: bool| {
            let schema = fig1_schema();
            let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
            let origin = b.add_peer(b1.clone(), 0);
            let _holder = b.add_peer(b2.clone(), 0);
            let mut net = b.build();
            if telemetry {
                net.enable_telemetry(DEFAULT_WINDOW_US);
            }
            let qid = net.query(origin, query.clone());
            net.run();
            let outcome = net
                .outcome(origin, qid)
                .map(|o| (o.result.clone().sorted(), o.partial, o.missing.clone()));
            let snapshot = net.telemetry_snapshot();
            (outcome, net.sim().metrics().clone(), snapshot)
        };
        let (out_off, metrics_off, snap_off) = run(false);
        let (out_on, metrics_on, snap_on) = run(true);
        prop_assert_eq!(out_off, out_on, "telemetry changed the answer");
        prop_assert_eq!(metrics_off, metrics_on, "telemetry changed the event schedule");
        prop_assert!(snap_off.is_none(), "off means no registry");
        let snap_on = snap_on.expect("enabled run must expose a snapshot");
        // The snapshot saw the query traffic the metrics counted.
        let seen: u64 = snap_on.node_rollup().iter().map(|(_, l)| l.messages).sum();
        prop_assert!(seen > 0, "enabled registry observed nothing");
    }

    /// Cross-peer stitching survives chaos: under seeded faults
    /// (duplication + jitter, which reorder and re-deliver subplan
    /// envelopes), every root's trace plus the matching remote serve
    /// events still forms a well-nested stitched tree.
    #[test]
    fn stitched_traces_well_nested_under_chaos(seed in 0u64..8) {
        use sqpeer::exec::PeerConfig;
        use sqpeer::net::FaultPlan;
        use sqpeer_testkit::fixtures::{base_with, fig1_schema as fixture};
        let schema = fixture();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 2)
            .config(PeerConfig { trace: true, ..PeerConfig::default() });
        let origin = b.add_peer(
            base_with(&schema, &[("http://a", "prop1", "http://b")]), 0);
        let p1 = b.add_peer(
            base_with(&schema, &[("http://b", "prop2", "http://c")]), 0);
        let p2 = b.add_peer(
            base_with(&schema, &[("http://a", "prop1", "http://b")]), 1);
        let p3 = b.add_peer(
            base_with(&schema, &[("http://b", "prop2", "http://c")]), 1);
        let mut net = b.build();
        net.sim_mut().set_fault_plan(
            FaultPlan::new(seed).with_duplication(150).with_jitter(30_000),
        );
        let q1 = net.compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}").unwrap();
        let q2 = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid1 = net.query(origin, q1);
        let qid2 = net.query(origin, q2);
        net.run();
        for qid in [qid1, qid2] {
            prop_assert!(net.outcome(origin, qid).is_some(), "query must complete");
            let root: Vec<_> = net
                .trace_events(origin)
                .into_iter()
                .filter(|e| e.qid == qid.0)
                .collect();
            prop_assert!(!root.is_empty());
            let remotes: Vec<Vec<_>> = [p1, p2, p3]
                .iter()
                .map(|&p| {
                    net.trace_events(p)
                        .into_iter()
                        .filter(|e| e.qid == qid.0)
                        .collect::<Vec<_>>()
                })
                .filter(|evs: &Vec<_>| !evs.is_empty())
                .collect();
            let stitched = stitched_well_nested(&root, &remotes);
            prop_assert!(stitched.is_ok(), "stitching violated: {:?}", stitched);
        }
    }
}

// ----------------------------------------------------------------------
// Replayed regressions
// ----------------------------------------------------------------------
//
// The vendored `proptest` stand-in does not replay
// `properties.proptest-regressions`, so the shrunk cases recorded there
// are reconstructed here as plain tests (CI runs the `regression_`
// filter before the generative suite). Each replays the full pipeline
// check from `plan_rewrites_preserve_semantics` and
// `distributed_answers_are_sound_and_complete_vs_oracle`.

/// A Figure 1 base from `(property, subject, object)` triples, with
/// typing derived from the property signature exactly as `arb_base` does.
fn base_of(triples: &[(&str, u32, u32)]) -> DescriptionBase {
    let schema = fig1_schema();
    let mut base = DescriptionBase::new(Arc::clone(&schema));
    for &(p, s, o) in triples {
        let prop = schema.property_by_name(p).unwrap();
        base.insert_described(Triple::new(
            Resource::new(format!("http://r/{s}")),
            prop,
            Node::Resource(Resource::new(format!("http://r/{o}"))),
        ));
    }
    base
}

/// Replays one shrunk case: the three pipeline stages agree, every
/// distributed row appears in the oracle answer, and (unless the query
/// narrows a pattern below its property signature — the documented
/// cross-peer type-inference deviation) the answer is complete.
fn check_regression_case(bases: &[DescriptionBase], text: &str) {
    let schema = fig1_schema();
    let q = compile(text, &schema).unwrap();
    let ads = ads_from_bases(bases);
    let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
    let plan1 = generate_plan(&annotated);
    let plan2 = distribute_joins(flatten_joins(plan1.clone()));
    let plan3 = merge_same_peer(flatten_joins(plan2.clone()));
    let projection: Vec<String> = q
        .projection()
        .iter()
        .map(|&v| q.var_name(v).to_string())
        .collect();
    let norm = |p: &PlanNode| row_set(&interpret(p, bases).project(&projection));
    let distributed = norm(&plan1);
    assert_eq!(distributed, norm(&plan2), "distribution changed semantics");
    assert_eq!(
        distributed,
        norm(&plan3),
        "same-peer merge changed semantics"
    );

    let mut oracle = DescriptionBase::new(Arc::clone(&schema));
    for b in bases {
        oracle.absorb(b);
    }
    let expected = row_set(&evaluate(&q, &oracle));
    for row in &distributed {
        assert!(expected.contains(row), "spurious row {row:?}");
    }
    let narrowed = q.patterns().iter().any(|pat| {
        let def = schema.property(pat.property);
        pat.subject.class != Some(def.domain)
            || match def.range {
                sqpeer::rdfs::Range::Class(c) => pat.object.class != Some(c),
                sqpeer::rdfs::Range::Literal(_) => pat.object.class.is_some(),
            }
    });
    if !narrowed {
        assert_eq!(distributed, expected, "distributed answer incomplete");
    }
}

/// Shrunk case 1 (cc a1a7336a…): a single base where the only `C5`
/// typing evidence for `r/1` comes from a `prop4` triple, queried with
/// the narrowed pattern `{X;C5}prop1{Y}`. Historically exposed a
/// narrowed-pattern completeness miscount in the pipeline check.
#[test]
fn regression_narrowed_subject_with_subproperty_typing_evidence() {
    let base = base_of(&[("prop4", 1, 2), ("prop1", 1, 0)]);
    check_regression_case(&[base], "SELECT X, Y FROM {X;C5}prop1{Y}");
}

/// Shrunk case 2 (cc ced87359…): a three-pattern chain whose middle hop
/// lives only on peer 1 while the outer hops live only on peer 2, all
/// over the single resource `r/0`. Historically exposed a same-peer
/// merge bug on chains split across peers.
#[test]
fn regression_three_pattern_chain_split_across_two_peers() {
    let b1 = base_of(&[("prop2", 0, 0)]);
    let b2 = base_of(&[("prop1", 0, 0), ("prop3", 0, 0)]);
    check_regression_case(
        &[b1, b2],
        "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}, {Z}prop3{W}",
    );
}
