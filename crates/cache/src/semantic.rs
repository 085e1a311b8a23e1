//! The semantic cache: version-validated memoisation of routing annotations
//! and generated plans.
//!
//! # Annotation cache
//!
//! The routing algorithm (paper §2.3) is per-pattern: each query path
//! pattern is matched against every advertised arc independently, so the
//! cache memoises at pattern granularity. A key is (community schema,
//! routing policy, path pattern); the value stores both the finished
//! [`PeerAnnotation`] list (returned verbatim on exact hits) and the raw
//! admitted (peer, arc) candidates, which power the *subsumption
//! shortcut*: a cached pattern `P` can answer a narrower pattern
//! `P' ⊑ P` by re-classifying only `P`'s candidate arcs against `P'` —
//! every arc that can match `P'` necessarily matched `P`, so no full
//! advertisement rescan is needed.
//!
//! # Invalidation
//!
//! Correctness under churn is version-based and lazy: the [`AdRegistry`]
//! moves the version of every property whose advertised arcs an
//! add/update/withdraw changes, and each annotation entry records, at
//! insert, the versions of its pattern's dependency set
//! ([`AdRegistry::dependencies`]) — the only properties whose arcs can
//! change its list. A lookup whose entry finds one of them moved treats
//! it as missing (and drops it), so a stale `PeerAnnotation` can never
//! be returned, while a write to an unrelated property leaves it in
//! place. Plans additionally depend on advertised statistics (limits
//! ranking, optimiser costs), so plan entries validate against the
//! registry's whole-content generation.

use crate::lru::CostLru;
use sqpeer_plan::{annotated_fingerprint, PlanNode};
use sqpeer_rdfs::{ClassId, PropertyId, Schema};
use sqpeer_routing::{
    apply_limits, pattern_matches, AdRegistry, Advertisement, AnnotatedQuery, PatternCandidate,
    PeerAnnotation, RoutingLimits, RoutingPolicy,
};
use sqpeer_rql::{PathPattern, QueryPattern};
use sqpeer_subsume::{match_pattern, rewrite_for};
use std::sync::Arc;

/// Sizing knobs for a [`SemanticCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cost budget (approximate bytes) for annotation entries.
    pub annotation_budget: usize,
    /// Cost budget (approximate bytes) for plan entries.
    pub plan_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            annotation_budget: 256 * 1024,
            plan_budget: 256 * 1024,
        }
    }
}

/// Counter snapshot of a [`SemanticCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Exact annotation hits (pattern found with current versions).
    pub hits: u64,
    /// Annotation hits answered through the subsumption shortcut.
    pub subsumption_hits: u64,
    /// Annotation misses (full advertisement scan performed).
    pub misses: u64,
    /// Entries dropped because a version they depend on moved.
    pub invalidations: u64,
    /// Entries dropped by LRU cost pressure.
    pub evictions: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Live annotation entries.
    pub annotation_entries: usize,
    /// Approximate bytes held by annotation entries.
    pub annotation_cost: usize,
    /// Live plan entries.
    pub plan_entries: usize,
    /// Approximate bytes held by plan entries.
    pub plan_cost: usize,
}

impl CacheStats {
    /// Fraction of annotation lookups answered from cache (exact or via
    /// subsumption).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.subsumption_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.subsumption_hits) as f64 / total as f64
        }
    }

    /// Component-wise delta against an earlier snapshot. Counters subtract
    /// (saturating, in case the cache was replaced between snapshots);
    /// the live-entry gauges report the current values. Used by the
    /// observability layer to attribute cache activity to one query.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            subsumption_hits: self
                .subsumption_hits
                .saturating_sub(earlier.subsumption_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            plan_hits: self.plan_hits.saturating_sub(earlier.plan_hits),
            plan_misses: self.plan_misses.saturating_sub(earlier.plan_misses),
            annotation_entries: self.annotation_entries,
            annotation_cost: self.annotation_cost,
            plan_entries: self.plan_entries,
            plan_cost: self.plan_cost,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AnnKey {
    /// The query schema's [`Schema::fingerprint`]: a pattern's ids mean
    /// something only under its schema, so entries are partitioned by it.
    schema: u64,
    policy: RoutingPolicy,
    pattern: PathPattern,
}

#[derive(Debug, Clone)]
struct AnnEntry {
    /// The registry version of each property the pattern depends on,
    /// when this entry was computed.
    versions: Vec<(PropertyId, u64)>,
    /// Every policy-admitted (peer, arc) pair, in scan order.
    candidates: Vec<PatternCandidate>,
    /// The finished annotation list (candidates deduplicated by peer).
    annotations: Vec<PeerAnnotation>,
}

#[derive(Debug, Clone)]
struct PlanEntry {
    generation: u64,
    /// Full key material: hits must match the annotated query exactly, so
    /// a fingerprint collision can never resurrect a wrong plan.
    annotated: AnnotatedQuery,
    plan: PlanNode,
}

/// The subsumption-aware memoisation layer (see module docs).
#[derive(Debug)]
pub struct SemanticCache {
    annotations: CostLru<AnnKey, AnnEntry>,
    plans: CostLru<u64, PlanEntry>,
    stats: CacheStats,
}

impl Default for SemanticCache {
    fn default() -> Self {
        SemanticCache::new(CacheConfig::default())
    }
}

impl SemanticCache {
    /// An empty cache with the given budgets.
    pub fn new(config: CacheConfig) -> Self {
        SemanticCache {
            annotations: CostLru::new(config.annotation_budget),
            plans: CostLru::new(config.plan_budget),
            stats: CacheStats::default(),
        }
    }

    /// Counter snapshot (entry counts and costs are sampled live).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            annotation_entries: self.annotations.len(),
            annotation_cost: self.annotations.cost(),
            plan_entries: self.plans.len(),
            plan_cost: self.plans.cost(),
            ..self.stats
        }
    }

    /// Zeroes the counters (entries stay).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drops every cached entry.
    pub fn clear(&mut self) {
        self.annotations.clear();
        self.plans.clear();
    }

    /// Routes `query` against `registry`'s advertisements with memoised
    /// per-pattern annotation: behaviourally identical to
    /// `route_limited(query, registry.advertisements(), policy, limits)`,
    /// but pattern scans are skipped on cache hits. Entries one of whose
    /// dependencies moved since are ignored and dropped, so churn can
    /// never produce a stale annotation.
    pub fn route(
        &mut self,
        registry: &AdRegistry,
        query: &QueryPattern,
        policy: RoutingPolicy,
        limits: RoutingLimits,
    ) -> AnnotatedQuery {
        let schema = query.schema();
        // Advertisement list is materialised lazily: a fully warm lookup
        // with no routing limits never touches the registry's ads at all.
        let mut ads: Option<Vec<&Advertisement>> = None;
        let mut out = AnnotatedQuery::empty(query.clone());
        for (i, aq_i) in query.patterns().iter().enumerate() {
            for ann in self.pattern_annotations(schema, aq_i, policy, registry, &mut ads) {
                out.annotate(i, ann);
            }
        }
        if limits.max_peers_per_pattern.is_some() {
            let ads = ads.get_or_insert_with(|| registry.advertisements());
            apply_limits(out, ads.iter().copied(), limits)
        } else {
            out
        }
    }

    /// The annotation list for one path pattern: exact hit, subsumption
    /// shortcut, or full scan (in that order).
    fn pattern_annotations<'r>(
        &mut self,
        schema: &Arc<Schema>,
        pattern: &PathPattern,
        policy: RoutingPolicy,
        registry: &'r AdRegistry,
        ads: &mut Option<Vec<&'r Advertisement>>,
    ) -> Vec<PeerAnnotation> {
        let key = AnnKey {
            schema: schema.fingerprint(),
            policy,
            pattern: pattern.clone(),
        };

        let current = |e: &AnnEntry| e.versions.iter().all(|&(p, v)| registry.version(p) == v);
        match self.annotations.get(&key) {
            Some(e) if current(e) => {
                self.stats.hits += 1;
                return e.annotations.clone();
            }
            Some(_) => {
                self.annotations.remove(&key);
                self.stats.invalidations += 1;
            }
            None => {}
        }

        let versions = AdRegistry::dependencies(schema, pattern, policy)
            .map(|p| (p, registry.version(p)))
            .collect();
        // Subsumption shortcut: a current entry for a broader pattern
        // P ⊒ pattern already scanned every arc that could match (its
        // dependencies include the narrower pattern's) — re-classify just
        // those candidates against the narrower pattern.
        let parent = self
            .annotations
            .iter()
            .find(|(k, e)| {
                k.schema == key.schema
                    && k.policy == policy
                    && current(e)
                    && k.pattern != *pattern
                    && pattern_subsumed_by(schema, pattern, &k.pattern)
            })
            .map(|(k, e)| (k.clone(), e.candidates.clone()));
        if let Some((parent_key, parent_candidates)) = parent {
            self.stats.subsumption_hits += 1;
            self.annotations.get(&parent_key); // promote the provider
            let candidates: Vec<PatternCandidate> = parent_candidates
                .into_iter()
                .filter_map(|c| {
                    let kind = match_pattern(schema, &c.arc, pattern)?;
                    policy
                        .admits(kind)
                        .then_some(PatternCandidate { kind, ..c })
                })
                .collect();
            let annotations = annotations_from(schema, pattern, &candidates);
            self.insert_annotation(key, versions, candidates, annotations.clone());
            return annotations;
        }

        // Full scan, exactly the routing algorithm's inner loop.
        self.stats.misses += 1;
        let ads = ads.get_or_insert_with(|| registry.advertisements());
        let candidates = pattern_matches(schema, pattern, ads.iter().copied(), policy);
        let annotations = annotations_from(schema, pattern, &candidates);
        self.insert_annotation(key, versions, candidates, annotations.clone());
        annotations
    }

    fn insert_annotation(
        &mut self,
        key: AnnKey,
        versions: Vec<(PropertyId, u64)>,
        candidates: Vec<PatternCandidate>,
        annotations: Vec<PeerAnnotation>,
    ) {
        let cost = 96 + 72 * candidates.len() + 120 * annotations.len();
        self.stats.evictions += self.annotations.insert(
            key,
            AnnEntry {
                versions,
                candidates,
                annotations,
            },
            cost,
        );
    }

    /// The cached plan for `annotated`, if one was stored at the registry
    /// `generation` given. Plans depend on statistics (ranking, optimiser
    /// costs), so the whole-content generation must match; the stored
    /// annotated query is compared in full, making fingerprint collisions
    /// harmless.
    pub fn plan_for(&mut self, generation: u64, annotated: &AnnotatedQuery) -> Option<PlanNode> {
        let fp = annotated_fingerprint(annotated);
        match self.plans.get(&fp) {
            Some(e) if e.generation == generation && e.annotated == *annotated => {
                self.stats.plan_hits += 1;
                return Some(e.plan.clone());
            }
            Some(_) => {
                self.plans.remove(&fp);
                self.stats.invalidations += 1;
            }
            None => {}
        }
        self.stats.plan_misses += 1;
        None
    }

    /// Stores the plan produced for `annotated` at registry `generation`.
    pub fn store_plan(&mut self, generation: u64, annotated: &AnnotatedQuery, plan: &PlanNode) {
        let fp = annotated_fingerprint(annotated);
        let mut nodes = 0usize;
        plan.visit(&mut |_| nodes += 1);
        let cost = 256 + 192 * nodes;
        self.stats.evictions += self.plans.insert(
            fp,
            PlanEntry {
                generation,
                annotated: annotated.clone(),
                plan: plan.clone(),
            },
            cost,
        );
    }
}

/// Builds the annotation list from admitted candidates, mirroring the
/// routing algorithm's first-arc-per-peer deduplication order.
fn annotations_from(
    schema: &Schema,
    pattern: &PathPattern,
    candidates: &[PatternCandidate],
) -> Vec<PeerAnnotation> {
    let mut out: Vec<PeerAnnotation> = Vec::new();
    for c in candidates {
        if !out.iter().any(|a| a.peer == c.peer) {
            out.push(PeerAnnotation {
                peer: c.peer,
                kind: c.kind,
                pattern: rewrite_for(schema, &c.arc, pattern),
            });
        }
    }
    out
}

/// Is `narrow` subsumed by `wide` at the schema level (`narrow ⊑ wide`)?
///
/// When this holds, every advertised arc that can share instances with
/// `narrow` also shares instances with `wide` (property and class
/// descendant sets are monotone under subsumption), so `wide`'s candidate
/// list is a superset of `narrow`'s — the premise of the shortcut. Terms
/// are irrelevant: arc matching looks only at properties and classes.
pub fn pattern_subsumed_by(schema: &Schema, narrow: &PathPattern, wide: &PathPattern) -> bool {
    let class_le = |n: Option<ClassId>, w: Option<ClassId>| match (n, w) {
        (Some(n), Some(w)) => n == w || schema.is_subclass(n, w),
        (None, None) => true,
        _ => false,
    };
    (narrow.property == wide.property || schema.is_subproperty(narrow.property, wide.property))
        && class_le(narrow.subject.class, wide.subject.class)
        && class_le(narrow.object.class, wide.object.class)
}
