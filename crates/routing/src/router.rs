//! The Query-Routing Algorithm of §2.3.

use crate::annotated::{AnnotatedQuery, PeerAnnotation};
use crate::PeerId;
use sqpeer_rdfs::{FxHashMap, PropertyId, Schema};
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

/// The advertisement registry a super-peer maintains for its SON (§3.1),
/// also used by ad-hoc peers for their semantic neighbourhood (§3.2).
///
/// For lazy invalidation it versions its contents: a `generation` moved
/// by every change (statistics too), and per property the generation its
/// arcs last changed at, which is all a pattern's annotation depends on
/// ([`dependencies`](AdRegistry::dependencies)). An identical
/// re-registration moves nothing.
#[derive(Debug, Clone, Default)]
pub struct AdRegistry {
    ads: HashMap<PeerId, Advertisement>,
    generation: u64,
    versions: FxHashMap<PropertyId, u64>,
}

impl AdRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AdRegistry::default()
    }

    /// The generation of the whole contents, statistics included.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation at which `property`'s advertised arcs last changed.
    pub fn version(&self, property: PropertyId) -> u64 {
        self.versions.get(&property).copied().unwrap_or(0)
    }

    /// The properties whose arcs changed after generation `at`, sorted.
    pub fn changed_since(&self, at: u64) -> Vec<PropertyId> {
        let mut out: Vec<PropertyId> = (self.versions.iter())
            .filter_map(|(&p, &v)| (v > at).then_some(p))
            .collect();
        out.sort();
        out
    }

    /// The properties whose arcs can change [`match_pattern`]'s verdict
    /// on `pattern` under `policy`: its subproperties (itself included),
    /// and with overlaps admitted all sharing one (superproperties too).
    pub fn dependencies<'s>(
        schema: &'s Schema,
        pattern: &sqpeer_rql::PathPattern,
        policy: RoutingPolicy,
    ) -> impl Iterator<Item = PropertyId> + 's {
        let below = schema.property_descendant_set(pattern.property);
        schema.properties().filter(move |&p| match policy {
            RoutingPolicy::SubsumedOnly => below.contains(p.0 as usize),
            RoutingPolicy::IncludeOverlapping => {
                schema.property_descendant_set(p).intersects(below)
            }
        })
    }

    /// Moves the generation when `changed`, and the version of every
    /// property whose arcs differ between `old` and `new`.
    fn touch(&mut self, old: Option<&ActiveSchema>, new: Option<&ActiveSchema>, changed: bool) {
        let same = matches!((old, new), (Some(a), Some(b)) if same_schema(a.schema(), b.schema()));
        let arcs = ActiveSchema::active_properties;
        let (old, new) = (old.map_or(&[][..], arcs), new.map_or(&[][..], arcs));
        let moved = (old.iter().filter(|a| !same || !new.contains(a)))
            .chain(new.iter().filter(|a| !same || !old.contains(a)));
        self.generation += u64::from(changed);
        for arc in moved {
            self.versions.insert(arc.property, self.generation);
        }
    }

    /// Registers (or replaces) a peer's advertisement — the *push* step
    /// when a peer connects to its super-peer. Returns `true` if the peer
    /// was new.
    pub fn register(&mut self, ad: Advertisement) -> bool {
        let old = self.ads.remove(&ad.peer);
        let changed = old
            .as_ref()
            .is_none_or(|o| o.active != ad.active || o.stats != ad.stats);
        self.touch(old.as_ref().map(|o| &o.active), Some(&ad.active), changed);
        self.ads.insert(ad.peer, ad);
        old.is_none()
    }

    /// Removes a peer (leave/failure). Returns `true` if it was present.
    pub fn unregister(&mut self, peer: PeerId) -> bool {
        let old = self.ads.remove(&peer);
        self.touch(old.as_ref().map(|o| &o.active), None, old.is_some());
        old.is_some()
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

    /// Only a change moves a version: re-registering an identical
    /// advertisement (a fresh but equal snapshot included) moves nothing,
    /// new statistics move the generation alone, a new fragment moves the
    /// generation and exactly the versions of the arcs that differ, and a
    /// withdrawal those of every arc it took away.
    #[test]
    fn identical_reregistration_moves_no_epoch() {
        let schema = fig1_schema();
        let p = |name| schema.property_by_name(name).unwrap();
        let ad = |props: &[&str], instances| {
            Advertisement::new(PeerId(1), active(&schema, props)).with_stats(stats(instances))
        };
        let mut reg = AdRegistry::new();
        reg.register(ad(&["prop1", "prop3"], 1));
        let at = reg.generation();
        reg.register(ad(&["prop1", "prop3"], 1));
        assert_eq!(reg.generation(), at, "an identical advertisement moved");
        reg.register(ad(&["prop1", "prop3"], 2));
        assert_eq!(reg.generation(), at + 1);
        assert!(
            reg.changed_since(at).is_empty(),
            "statistics moved a version"
        );
        reg.register(ad(&["prop2", "prop3"], 2));
        assert_eq!(reg.generation(), at + 2);
        assert_eq!(reg.changed_since(at), [p("prop1"), p("prop2")]);
        assert_eq!(reg.version(p("prop3")), at);
        reg.unregister(PeerId(1));
        assert_eq!(reg.changed_since(at + 2), [p("prop2"), p("prop3")]);
    }

    /// A pattern depends on its property's subproperties under the
    /// strict policy, and on its superproperties too once overlaps are
    /// admitted; never on an unrelated property.
    #[test]
    fn dependencies_follow_the_policy() {
        let schema = fig1_schema();
        let p = |name| schema.property_by_name(name).unwrap();
        let deps = |text: &str, policy| {
            let q = compile(text, &schema).unwrap();
            AdRegistry::dependencies(&schema, &q.patterns()[0], policy).collect::<Vec<_>>()
        };
        let (strict, loose) = (
            RoutingPolicy::SubsumedOnly,
            RoutingPolicy::IncludeOverlapping,
        );
        assert_eq!(
            deps("SELECT X FROM {X}prop1{Y}", strict),
            [p("prop1"), p("prop4")]
        );
        assert_eq!(deps("SELECT X FROM {X}prop4{Y}", strict), [p("prop4")]);
        assert_eq!(
            deps("SELECT X FROM {X}prop4{Y}", loose),
            [p("prop1"), p("prop4")]
        );
        assert_eq!(deps("SELECT X FROM {X}prop2{Y}", loose), [p("prop2")]);
    }

    #[test]
    fn empty_ads_all_holes() {
        let schema = fig1_schema();
        let q = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let annotated = route(&q, &[], RoutingPolicy::default());
        assert_eq!(annotated.holes(), vec![0, 1]);
    }
}
