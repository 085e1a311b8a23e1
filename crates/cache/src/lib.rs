//! Subsumption-aware memoisation for SQPeer's per-query hot path.
//!
//! Routing (paper §2.3) matches every query path pattern against every
//! advertisement on every query, yet advertisements change far more slowly
//! than queries arrive — super-peers in the hybrid architecture (§3.1)
//! repeat identical subsumption scans for their whole SON. This crate
//! memoises that work while staying *semantically* invisible:
//!
//! * [`SemanticCache::route`] caches per-(schema, policy, pattern)
//!   annotation results, validated against the [`AdRegistry`]'s
//!   monotonically increasing epochs — any advertisement add, update or
//!   withdraw lazily invalidates dependent entries, so a stale
//!   `PeerAnnotation` is never returned;
//! * a *subsumption shortcut* answers a pattern `P'` from a cached broader
//!   pattern `P ⊒ P'` by re-classifying only `P`'s admitted arcs with
//!   `sqpeer-subsume` instead of rescanning all advertisements;
//! * [`SemanticCache::plan_for`] / [`SemanticCache::store_plan`] memoise
//!   generated (and optimised) plans keyed by annotated-query fingerprint,
//!   validated against both schema and statistics epochs;
//! * storage is a cost-bounded LRU ([`CostLru`]) with per-entry cost
//!   accounting, and [`SemanticCache::stats`] exposes
//!   hit/miss/eviction/invalidation counters.
//!
//! [`AdRegistry`]: sqpeer_routing::AdRegistry

pub mod lru;
pub mod semantic;

pub use lru::CostLru;
pub use semantic::{pattern_subsumed_by, CacheConfig, CacheStats, SemanticCache};

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_plan::generate_plan;
    use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
    use sqpeer_routing::{
        route_limited, AdRegistry, Advertisement, PeerId, RoutingLimits, RoutingPolicy,
    };
    use sqpeer_rql::compile;
    use sqpeer_rvl::{ActiveProperty, ActiveSchema};
    use std::sync::Arc;

    fn fig1_schema() -> Arc<Schema> {
        Arc::new(fig1_builder().finish().unwrap())
    }

    fn fig1_builder() -> SchemaBuilder {
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
        b
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

    fn figure2_registry(schema: &Arc<Schema>) -> AdRegistry {
        let mut reg = AdRegistry::new();
        reg.register(Advertisement::new(
            PeerId(1),
            active(schema, &["prop1", "prop2"]),
        ));
        reg.register(Advertisement::new(PeerId(2), active(schema, &["prop1"])));
        reg.register(Advertisement::new(PeerId(3), active(schema, &["prop2"])));
        reg.register(Advertisement::new(
            PeerId(4),
            active(schema, &["prop4", "prop2"]),
        ));
        reg
    }

    fn uncached(
        reg: &AdRegistry,
        query: &sqpeer_rql::QueryPattern,
        policy: RoutingPolicy,
        limits: RoutingLimits,
    ) -> sqpeer_routing::AnnotatedQuery {
        let ads: Vec<Advertisement> = reg.advertisements().into_iter().cloned().collect();
        route_limited(query, &ads, policy, limits)
    }

    #[test]
    fn cached_equals_uncached_and_hits_on_repeat() {
        let schema = fig1_schema();
        let reg = figure2_registry(&schema);
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let mut cache = SemanticCache::default();
        for policy in [
            RoutingPolicy::SubsumedOnly,
            RoutingPolicy::IncludeOverlapping,
        ] {
            let cold = cache.route(&reg, &q, policy, RoutingLimits::unlimited());
            assert_eq!(cold, uncached(&reg, &q, policy, RoutingLimits::unlimited()));
            let warm = cache.route(&reg, &q, policy, RoutingLimits::unlimited());
            assert_eq!(warm, cold);
        }
        let stats = cache.stats();
        // 2 policies × 2 patterns: first pass misses, second pass hits.
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.invalidations, 0);
    }

    /// Entries are keyed by the schema's structural fingerprint: a
    /// separately built copy of a schema shares them, while a schema with
    /// the same namespaces plus one class does not. Either way the cache
    /// routes exactly as an uncached scan.
    #[test]
    fn entries_are_keyed_by_schema_fingerprint() {
        let schema = fig1_schema();
        let reg = figure2_registry(&schema);
        let copy = fig1_schema();
        let mut wider = fig1_builder();
        wider.class("C7").unwrap();
        let wider = Arc::new(wider.finish().unwrap());
        assert_eq!(copy.namespaces(), wider.namespaces());
        let policy = RoutingPolicy::SubsumedOnly;
        let mut cache = SemanticCache::default();
        for (schema, misses) in [(&schema, 1), (&copy, 1), (&wider, 2)] {
            let q = compile("SELECT X FROM {X}prop1{Y}", schema).unwrap();
            let got = cache.route(&reg, &q, policy, RoutingLimits::unlimited());
            assert_eq!(got, uncached(&reg, &q, policy, RoutingLimits::unlimited()));
            assert_eq!(cache.stats().misses, misses);
        }
        assert_eq!(cache.stats().hits, 1, "only the copy hits");
    }

    #[test]
    fn churn_invalidates_and_never_serves_stale() {
        let schema = fig1_schema();
        let mut reg = figure2_registry(&schema);
        let q = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        let mut cache = SemanticCache::default();
        let policy = RoutingPolicy::SubsumedOnly;

        let before = cache.route(&reg, &q, policy, RoutingLimits::unlimited());
        assert_eq!(before.peers_for(0).len(), 3);

        // Withdraw P2: the cached entry must not survive.
        reg.unregister(PeerId(2));
        let after = cache.route(&reg, &q, policy, RoutingLimits::unlimited());
        assert_eq!(
            after,
            uncached(&reg, &q, policy, RoutingLimits::unlimited())
        );
        assert!(after.peers_for(0).iter().all(|a| a.peer != PeerId(2)));
        assert_eq!(cache.stats().invalidations, 1);

        // A new advertisement bumps the epoch again; the re-advertised
        // peer must reappear.
        reg.register(Advertisement::new(PeerId(2), active(&schema, &["prop1"])));
        let back = cache.route(&reg, &q, policy, RoutingLimits::unlimited());
        assert!(back.peers_for(0).iter().any(|a| a.peer == PeerId(2)));
    }

    #[test]
    fn stats_only_refresh_keeps_annotations_valid() {
        let schema = fig1_schema();
        let mut reg = figure2_registry(&schema);
        let q = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        let mut cache = SemanticCache::default();
        cache.route(
            &reg,
            &q,
            RoutingPolicy::SubsumedOnly,
            RoutingLimits::unlimited(),
        );

        // Re-registering the same active-schema (a statistics refresh)
        // advances only the stats epoch: annotations stay warm.
        let same = Advertisement::new(PeerId(2), active(&schema, &["prop1"]));
        reg.register(same);
        cache.route(
            &reg,
            &q,
            RoutingPolicy::SubsumedOnly,
            RoutingLimits::unlimited(),
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn subsumption_shortcut_answers_narrower_pattern() {
        let schema = fig1_schema();
        let reg = figure2_registry(&schema);
        let mut cache = SemanticCache::default();
        let policy = RoutingPolicy::IncludeOverlapping;

        // Broad pattern first: prop1 over its declared end-points.
        let broad = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        cache.route(&reg, &broad, policy, RoutingLimits::unlimited());

        // Narrower patterns must be answered from the cached candidates —
        // identically to a full scan.
        for narrow_text in ["SELECT X FROM {X}prop4{Y}", "SELECT X FROM {X;C5}prop1{Y}"] {
            let narrow = compile(narrow_text, &schema).unwrap();
            let got = cache.route(&reg, &narrow, policy, RoutingLimits::unlimited());
            assert_eq!(
                got,
                uncached(&reg, &narrow, policy, RoutingLimits::unlimited())
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "only the broad pattern scanned ads");
        assert_eq!(stats.subsumption_hits, 2);

        // And the derived entries serve exact hits afterwards.
        let narrow = compile("SELECT X FROM {X}prop4{Y}", &schema).unwrap();
        cache.route(&reg, &narrow, policy, RoutingLimits::unlimited());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn subsumption_shortcut_respects_policy() {
        // Under SubsumedOnly, an arc that merely generalises the narrow
        // pattern must be filtered out when deriving from the broad entry.
        let schema = fig1_schema();
        let reg = figure2_registry(&schema);
        let mut cache = SemanticCache::default();
        let policy = RoutingPolicy::SubsumedOnly;

        let broad = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        let broad_res = cache.route(&reg, &broad, policy, RoutingLimits::unlimited());
        assert_eq!(broad_res.peers_for(0).len(), 3); // P1, P2, P4

        let narrow = compile("SELECT X FROM {X}prop4{Y}", &schema).unwrap();
        let got = cache.route(&reg, &narrow, policy, RoutingLimits::unlimited());
        assert_eq!(
            got,
            uncached(&reg, &narrow, policy, RoutingLimits::unlimited())
        );
        // Only P4's prop4 arc is subsumed by prop4; P1/P2's prop1 arcs
        // generalise and are rejected by the policy on re-match.
        let peers: Vec<PeerId> = got.peers_for(0).iter().map(|a| a.peer).collect();
        assert_eq!(peers, vec![PeerId(4)]);
        assert_eq!(cache.stats().subsumption_hits, 1);
    }

    #[test]
    fn limits_are_applied_on_hits() {
        let schema = fig1_schema();
        let reg = figure2_registry(&schema);
        let q = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        let mut cache = SemanticCache::default();
        let limits = RoutingLimits::top(1);
        let cold = cache.route(&reg, &q, RoutingPolicy::SubsumedOnly, limits);
        let warm = cache.route(&reg, &q, RoutingPolicy::SubsumedOnly, limits);
        assert_eq!(
            cold,
            uncached(&reg, &q, RoutingPolicy::SubsumedOnly, limits)
        );
        assert_eq!(warm, cold);
        assert_eq!(warm.peers_for(0).len(), 1);
        // The cached (untrimmed) entry still answers unlimited lookups.
        let full = cache.route(
            &reg,
            &q,
            RoutingPolicy::SubsumedOnly,
            RoutingLimits::unlimited(),
        );
        assert_eq!(full.peers_for(0).len(), 3);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn eviction_under_budget_pressure() {
        let schema = fig1_schema();
        let reg = figure2_registry(&schema);
        // A budget that fits roughly one pattern entry.
        let mut cache = SemanticCache::new(CacheConfig {
            annotation_budget: 600,
            ..CacheConfig::default()
        });
        let queries = [
            "SELECT X FROM {X}prop1{Y}",
            "SELECT X FROM {X}prop2{Y}",
            "SELECT X FROM {X}prop3{Y}",
        ];
        for text in queries {
            let q = compile(text, &schema).unwrap();
            cache.route(
                &reg,
                &q,
                RoutingPolicy::SubsumedOnly,
                RoutingLimits::unlimited(),
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget pressure must evict: {stats:?}");
        assert!(stats.annotation_cost <= 600);
    }

    #[test]
    fn plan_cache_round_trips_and_invalidates() {
        let schema = fig1_schema();
        let mut reg = figure2_registry(&schema);
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let mut cache = SemanticCache::default();

        let annotated = cache.route(
            &reg,
            &q,
            RoutingPolicy::SubsumedOnly,
            RoutingLimits::unlimited(),
        );
        let epochs = reg.epochs();
        assert!(cache.plan_for(epochs, &annotated).is_none());
        let plan = generate_plan(&annotated);
        cache.store_plan(epochs, &annotated, &plan);
        assert_eq!(cache.plan_for(epochs, &annotated), Some(plan.clone()));

        // Re-registering an identical advertisement changes no cost: the
        // plan stays.
        let same = reg.get(PeerId(2)).unwrap().clone();
        reg.register(same);
        assert_eq!(cache.plan_for(reg.epochs(), &annotated), Some(plan));

        // A statistics-only refresh must invalidate plans (ranking and
        // optimiser costs may change) even though annotations survive.
        let class = sqpeer_store::ClassStats { instances: 7 };
        let stats =
            sqpeer_store::BaseStatistics::from_raw_parts(vec![], vec![class], vec![], vec![class]);
        let refreshed = reg.get(PeerId(2)).unwrap().clone().with_stats(stats);
        reg.register(refreshed);
        assert_eq!(reg.epochs().schema, epochs.schema, "annotations survive");
        assert!(cache.plan_for(reg.epochs(), &annotated).is_none());

        let stats = cache.stats();
        assert_eq!(stats.plan_hits, 2);
        assert_eq!(stats.plan_misses, 2);
    }

    #[test]
    fn stats_snapshot_counts_costs() {
        let schema = fig1_schema();
        let reg = figure2_registry(&schema);
        let q = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        let mut cache = SemanticCache::default();
        cache.route(
            &reg,
            &q,
            RoutingPolicy::SubsumedOnly,
            RoutingLimits::unlimited(),
        );
        let stats = cache.stats();
        assert_eq!(stats.annotation_entries, 1);
        assert!(stats.annotation_cost > 0);
        assert_eq!(stats.hit_rate(), 0.0);
        cache.route(
            &reg,
            &q,
            RoutingPolicy::SubsumedOnly,
            RoutingLimits::unlimited(),
        );
        assert!(cache.stats().hit_rate() > 0.49);
        cache.reset_stats();
        assert_eq!(cache.stats().hits, 0);
        cache.clear();
        assert_eq!(cache.stats().annotation_entries, 0);
    }
}
