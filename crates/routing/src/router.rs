//! The Query-Routing Algorithm of §2.3.

use crate::annotated::{AnnotatedQuery, PeerAnnotation};
use crate::PeerId;
use sqpeer_rql::QueryPattern;
use sqpeer_rvl::ActiveSchema;
use sqpeer_store::BaseStatistics;
use sqpeer_subsume::{match_pattern, rewrite_for, PatternMatch};
use std::collections::HashMap;

/// A peer-base advertisement: the peer's active-schema, optionally
/// accompanied by base statistics for cost estimation (§2.5).
#[derive(Debug, Clone)]
pub struct Advertisement {
    /// The advertising peer.
    pub peer: PeerId,
    /// The advertised schema fragment.
    pub active: ActiveSchema,
    /// Statistics snapshot, if the peer shares one.
    pub stats: Option<BaseStatistics>,
}

impl Advertisement {
    /// Creates an advertisement without statistics.
    pub fn new(peer: PeerId, active: ActiveSchema) -> Self {
        Advertisement {
            peer,
            active,
            stats: None,
        }
    }

    /// Attaches a statistics snapshot.
    pub fn with_stats(mut self, stats: BaseStatistics) -> Self {
        self.stats = Some(stats);
        self
    }
}

/// Controls which advertisement/pattern relationships lead to annotation.
///
/// Live peers route under `PeerConfig::ROUTING_POLICY` (`sqpeer-exec`),
/// which is [`RoutingPolicy::SubsumedOnly`]; the `Default` stays
/// [`RoutingPolicy::IncludeOverlapping`] for library callers of the
/// router and the semantic cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// Only `isSubsumed(AS, AQ)` matches (equivalence or specialisation),
    /// exactly the paper's pseudocode.
    SubsumedOnly,
    /// Also annotate peers whose advertisements generalise or overlap the
    /// pattern — they *may* hold answers; the rewritten pattern they
    /// receive keeps the query's constraints so local evaluation stays
    /// sound. This favours answer completeness at the price of contacting
    /// more peers.
    #[default]
    IncludeOverlapping,
}

impl RoutingPolicy {
    /// Does this policy annotate a peer whose advertisement matched with
    /// `kind`?
    pub fn admits(self, kind: PatternMatch) -> bool {
        match self {
            RoutingPolicy::SubsumedOnly => kind.is_subsumed(),
            RoutingPolicy::IncludeOverlapping => true,
        }
    }
}

/// One admitted (peer, advertised arc) pair for a path pattern, in scan
/// order. The routing algorithm derives [`PeerAnnotation`]s from these;
/// the semantic cache stores them so a cached pattern can answer narrower
/// patterns by re-matching only these arcs instead of rescanning every
/// advertisement (`sqpeer-cache`'s subsumption shortcut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternCandidate {
    /// The advertising peer.
    pub peer: PeerId,
    /// The advertised arc that matched.
    pub arc: sqpeer_rvl::ActiveProperty,
    /// How the arc matched the pattern.
    pub kind: PatternMatch,
}

/// The inner loop of the Query-Routing Algorithm for a single path
/// pattern: every advertised arc admitted by `policy`, in deterministic
/// (advertisement order, arc order) scan order. Arcs of advertisements
/// over a different community schema are skipped, as in [`route`].
pub fn pattern_matches<'a>(
    schema: &std::sync::Arc<sqpeer_rdfs::Schema>,
    pattern: &sqpeer_rql::PathPattern,
    ads: impl IntoIterator<Item = &'a Advertisement>,
    policy: RoutingPolicy,
) -> Vec<PatternCandidate> {
    let mut out = Vec::new();
    for ad in ads {
        if !same_schema(ad.active.schema(), schema) {
            continue;
        }
        for as_jk in ad.active.active_properties() {
            let Some(kind) = match_pattern(schema, as_jk, pattern) else {
                continue;
            };
            if policy.admits(kind) {
                out.push(PatternCandidate {
                    peer: ad.peer,
                    arc: *as_jk,
                    kind,
                });
            }
        }
    }
    out
}

/// Runs the Query-Routing Algorithm: matches every query path pattern
/// against every advertised active-schema arc and annotates matching
/// peers.
///
/// ```text
/// 1. AQ' := empty annotations for AQ
/// 2. for all query path patterns AQi ∈ AQ:
///      for all active schemas ASj:
///        for all active schema path patterns ASjk ∈ ASj:
///          if isSubsumed(ASjk, AQi) then annotate AQ'i with peer Pj
/// 3. return AQ'
/// ```
pub fn route(query: &QueryPattern, ads: &[Advertisement], policy: RoutingPolicy) -> AnnotatedQuery {
    let mut off = sqpeer_trace::Tracer::disabled();
    route_traced(query, ads, policy, &mut off, 0, sqpeer_trace::NO_QUERY)
}

/// [`route`] with the annotation work recorded into a tracer: a `route`
/// span wrapping the scan, one `route:subsume` event per admitted
/// (peer, arc) match and a `route:annotate` summary per path pattern.
/// With a disabled tracer this is exactly [`route`] — the detail closures
/// never run.
pub fn route_traced(
    query: &QueryPattern,
    ads: &[Advertisement],
    policy: RoutingPolicy,
    tracer: &mut sqpeer_trace::Tracer,
    now_us: u64,
    qid: u64,
) -> AnnotatedQuery {
    // Advertisements over a *different* community schema cannot be matched
    // directly — their raw class/property ids belong to another id space.
    // Cross-schema queries go through articulation-based reformulation
    // first (§3.1 mediation); `pattern_matches` skips them.
    let schema = query.schema();
    let mut out = AnnotatedQuery::empty(query.clone());
    let span = tracer.begin(now_us, qid, "route");
    for (i, aq_i) in query.patterns().iter().enumerate() {
        let candidates = pattern_matches(schema, aq_i, ads, policy);
        if tracer.is_enabled() {
            for c in &candidates {
                tracer.event_with(now_us, qid, "route:subsume", || {
                    format!("Q{}: {}({:?})", i + 1, c.peer, c.kind)
                });
            }
            tracer.event_with(now_us, qid, "route:annotate", || {
                format!("Q{}: {} candidate peers", i + 1, candidates.len())
            });
        }
        for c in candidates {
            out.annotate(
                i,
                PeerAnnotation {
                    peer: c.peer,
                    kind: c.kind,
                    pattern: rewrite_for(schema, &c.arc, aq_i),
                },
            );
        }
    }
    tracer.end(now_us, span);
    out
}

/// Two schemas are the same SON vocabulary when they share an identity
/// (same allocation) or declare identical namespaces.
pub fn same_schema(
    a: &std::sync::Arc<sqpeer_rdfs::Schema>,
    b: &std::sync::Arc<sqpeer_rdfs::Schema>,
) -> bool {
    std::sync::Arc::ptr_eq(a, b) || a.namespaces() == b.namespaces()
}

/// Monotonically increasing generations of an [`AdRegistry`]'s contents,
/// used by the semantic cache (`sqpeer-cache`) for lazy invalidation.
///
/// `schema` advances whenever the *active-schema* content changes (peer
/// added, removed, or re-advertised with a different fragment) — anything
/// cached about annotation results is stale past it. `stats` additionally
/// advances on statistics-only changes, which leave annotations intact
/// but can change cost-based decisions (routing limits ranking, optimiser
/// choices), so plan-level caches key on both. Re-registering an identical
/// advertisement moves neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegistryEpochs {
    /// Generation of the advertised active-schema set.
    pub schema: u64,
    /// Generation of the advertisement set including statistics.
    pub stats: u64,
}

/// The advertisement registry a super-peer maintains for its SON (§3.1),
/// also used by ad-hoc peers for their semantic neighbourhood (§3.2).
#[derive(Debug, Clone, Default)]
pub struct AdRegistry {
    ads: HashMap<PeerId, Advertisement>,
    epochs: RegistryEpochs,
}

impl AdRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AdRegistry::default()
    }

    /// Current content generations (see [`RegistryEpochs`]).
    pub fn epochs(&self) -> RegistryEpochs {
        self.epochs
    }

    /// Registers (or replaces) a peer's advertisement — the *push* step
    /// when a peer connects to its super-peer. Returns `true` if the peer
    /// was new.
    pub fn register(&mut self, ad: Advertisement) -> bool {
        let peer = ad.peer;
        let (schema_changed, stats_changed) = match self.ads.get(&peer) {
            Some(old) => (old.active != ad.active, old.stats != ad.stats),
            None => (true, true),
        };
        let new = self.ads.insert(peer, ad).is_none();
        if schema_changed {
            self.epochs.schema += 1;
        }
        if schema_changed || stats_changed {
            self.epochs.stats += 1;
        }
        new
    }

    /// Removes a peer (leave/failure). Returns `true` if it was present.
    pub fn unregister(&mut self, peer: PeerId) -> bool {
        let removed = self.ads.remove(&peer).is_some();
        if removed {
            self.epochs.schema += 1;
            self.epochs.stats += 1;
        }
        removed
    }

    /// The registered advertisement of `peer`.
    pub fn get(&self, peer: PeerId) -> Option<&Advertisement> {
        self.ads.get(&peer)
    }

    /// All advertisements, in ascending peer order (deterministic).
    pub fn advertisements(&self) -> Vec<&Advertisement> {
        let mut ads: Vec<&Advertisement> = self.ads.values().collect();
        ads.sort_by_key(|a| a.peer);
        ads
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// Routes a query against every registered advertisement.
    pub fn route(&self, query: &QueryPattern, policy: RoutingPolicy) -> AnnotatedQuery {
        let ads: Vec<Advertisement> = self.advertisements().into_iter().cloned().collect();
        route(query, &ads, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
    use sqpeer_rql::compile;
    use sqpeer_rvl::ActiveProperty;
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

    /// The four advertisements of Figure 2.
    fn figure2_ads(schema: &Arc<Schema>) -> Vec<Advertisement> {
        vec![
            Advertisement::new(PeerId(1), active(schema, &["prop1", "prop2"])),
            Advertisement::new(PeerId(2), active(schema, &["prop1"])),
            Advertisement::new(PeerId(3), active(schema, &["prop2"])),
            Advertisement::new(PeerId(4), active(schema, &["prop4", "prop2"])),
        ]
    }

    #[test]
    fn figure2_annotation() {
        let schema = fig1_schema();
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let ads = figure2_ads(&schema);
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        // Q1 ← {P1, P2, P4}, Q2 ← {P1, P3, P4} (Figure 2's right side).
        let q1: Vec<PeerId> = annotated.peers_for(0).iter().map(|a| a.peer).collect();
        let q2: Vec<PeerId> = annotated.peers_for(1).iter().map(|a| a.peer).collect();
        assert_eq!(q1, vec![PeerId(1), PeerId(2), PeerId(4)]);
        assert_eq!(q2, vec![PeerId(1), PeerId(3), PeerId(4)]);
        assert!(annotated.is_complete());
        // P4's Q1 pattern is rewritten to prop4.
        let p4_ann = annotated
            .peers_for(0)
            .iter()
            .find(|a| a.peer == PeerId(4))
            .unwrap();
        assert_eq!(
            p4_ann.pattern.property,
            schema.property_by_name("prop4").unwrap()
        );
        assert_eq!(p4_ann.kind, PatternMatch::SpecializesQuery);
    }

    #[test]
    fn holes_when_no_peer_matches() {
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop2{Y}, {Y}prop3{Z}", &schema).unwrap();
        let ads = figure2_ads(&schema);
        let annotated = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        assert_eq!(annotated.holes(), vec![1]); // nobody advertises prop3
        assert!(!annotated.is_complete());
    }

    #[test]
    fn policy_controls_generalizing_ads() {
        let schema = fig1_schema();
        // Query over narrow prop4; P2 advertises the broader prop1.
        let q = compile("SELECT X FROM {X}prop4{Y}", &schema).unwrap();
        let ads = figure2_ads(&schema);
        let strict = route(&q, &ads, RoutingPolicy::SubsumedOnly);
        let complete = route(&q, &ads, RoutingPolicy::IncludeOverlapping);
        let strict_peers: Vec<_> = strict.peers_for(0).iter().map(|a| a.peer).collect();
        let complete_peers: Vec<_> = complete.peers_for(0).iter().map(|a| a.peer).collect();
        assert_eq!(strict_peers, vec![PeerId(4)]);
        // P1 and P2 advertise prop1 ⊒ prop4 and may hold prop4 triples.
        assert_eq!(complete_peers, vec![PeerId(1), PeerId(2), PeerId(4)]);
        // The pattern sent to P2 keeps the narrow property.
        let p2 = complete
            .peers_for(0)
            .iter()
            .find(|a| a.peer == PeerId(2))
            .unwrap();
        assert_eq!(
            p2.pattern.property,
            schema.property_by_name("prop4").unwrap()
        );
    }

    #[test]
    fn registry_register_route_unregister() {
        let schema = fig1_schema();
        let q = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        let mut reg = AdRegistry::new();
        assert!(reg.is_empty());
        for ad in figure2_ads(&schema) {
            assert!(reg.register(ad));
        }
        assert_eq!(reg.len(), 4);
        let annotated = reg.route(&q, RoutingPolicy::SubsumedOnly);
        assert_eq!(annotated.peers_for(0).len(), 3);

        assert!(reg.unregister(PeerId(4)));
        assert!(!reg.unregister(PeerId(4)));
        let annotated = reg.route(&q, RoutingPolicy::SubsumedOnly);
        let peers: Vec<_> = annotated.peers_for(0).iter().map(|a| a.peer).collect();
        assert_eq!(peers, vec![PeerId(1), PeerId(2)]);
    }

    #[test]
    fn reregistration_replaces() {
        let schema = fig1_schema();
        let mut reg = AdRegistry::new();
        reg.register(Advertisement::new(PeerId(1), active(&schema, &["prop1"])));
        assert!(!reg.register(Advertisement::new(PeerId(1), active(&schema, &["prop2"]))));
        assert_eq!(reg.len(), 1);
        let q = compile("SELECT X FROM {X}prop1{Y}", &schema).unwrap();
        let annotated = reg.route(&q, RoutingPolicy::SubsumedOnly);
        assert!(annotated.peers_for(0).is_empty());
    }

    /// Statistics of one class of `instances` resources.
    fn stats(instances: usize) -> BaseStatistics {
        let class = sqpeer_store::ClassStats { instances };
        BaseStatistics::from_raw_parts(vec![], vec![class], vec![], vec![class])
    }

    /// Only a change moves an epoch: re-registering an identical
    /// advertisement (a fresh but equal snapshot included) moves neither,
    /// new statistics move `stats` alone, a new fragment moves both.
    #[test]
    fn identical_reregistration_moves_no_epoch() {
        let schema = fig1_schema();
        let ad = |props: &[&str], instances| {
            Advertisement::new(PeerId(1), active(&schema, props)).with_stats(stats(instances))
        };
        let mut reg = AdRegistry::new();
        reg.register(ad(&["prop1"], 1));
        let at = reg.epochs();
        reg.register(ad(&["prop1"], 1));
        assert_eq!(
            reg.epochs(),
            at,
            "an identical advertisement moved an epoch"
        );
        reg.register(ad(&["prop1"], 2));
        assert_eq!(
            (reg.epochs().schema, reg.epochs().stats),
            (at.schema, at.stats + 1)
        );
        reg.register(ad(&["prop2"], 2));
        assert_eq!(
            (reg.epochs().schema, reg.epochs().stats),
            (at.schema + 1, at.stats + 2)
        );
    }

    #[test]
    fn empty_ads_all_holes() {
        let schema = fig1_schema();
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let annotated = route(&q, &[], RoutingPolicy::default());
        assert_eq!(annotated.holes(), vec![0, 1]);
    }
}
