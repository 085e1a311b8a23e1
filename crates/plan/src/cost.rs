//! Cardinality estimation and network cost models for plan optimisation.
//!
//! §2.5: "statistics about the communication cost between peers (e.g.,
//! measured by the speed of their connection) can be used to decide between
//! different channel deployments. Additionally, the expected size of peers'
//! query results can be considered … The processing load of the peers
//! should also be taken into account."

use crate::node::{PlanNode, Site, Subquery};
use sqpeer_rdfs::FxHashMap;
use sqpeer_routing::PeerId;
use sqpeer_rql::QueryPattern;
use sqpeer_store::BaseStatistics;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Tuning knobs for the estimator.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Cardinality assumed for a property with no statistics (e.g. behind
    /// a hole or an advertisement without stats).
    pub default_property_card: f64,
    /// Serialized bytes per result tuple (matches
    /// `ResultSet::wire_size`'s per-cell estimate times typical arity).
    pub tuple_bytes: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            default_property_card: 100.0,
            tuple_bytes: 48.0,
        }
    }
}

/// Estimates result cardinalities from advertised per-peer statistics.
///
/// Snapshots are either owned ([`Estimator::set_stats`]) or borrowed from
/// whoever holds the advertisements ([`Estimator::borrow_stats`]) — a peer
/// planning a query reads its registry's snapshots in place.
#[derive(Debug, Clone, Default)]
pub struct Estimator<'a> {
    stats: FxHashMap<PeerId, Cow<'a, BaseStatistics>>,
    params: CostParams,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator with the given parameters.
    pub fn new(params: CostParams) -> Self {
        Estimator {
            stats: FxHashMap::default(),
            params,
        }
    }

    /// Registers a peer's statistics snapshot (shipped with its
    /// advertisement or piggybacked on channel packets).
    pub fn set_stats(&mut self, peer: PeerId, stats: BaseStatistics) {
        self.stats.insert(peer, Cow::Owned(stats));
    }

    /// Registers a peer's statistics snapshot without copying it.
    pub fn borrow_stats(&mut self, peer: PeerId, stats: &'a BaseStatistics) {
        self.stats.insert(peer, Cow::Borrowed(stats));
    }

    fn stats_at(&self, site: Site) -> Option<&BaseStatistics> {
        match site {
            Site::Peer(p) => self.stats.get(&p).map(Cow::as_ref),
            Site::Hole => None,
        }
    }

    /// The estimator's parameters.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// Estimated rows returned by `subquery` at `site`.
    ///
    /// Single patterns use the peer's closed property cardinality;
    /// composite subqueries chain pairwise join estimates
    /// `|L ⋈ R| ≈ |L|·|R| / max(distinct keys)`.
    pub fn fetch_cardinality(&self, site: Site, subquery: &Subquery) -> f64 {
        let stats = self.stats_at(site);
        let mut card: Option<f64> = None;
        for pattern in subquery.query.patterns() {
            let (triples, distinct) = match stats {
                Some(s) => {
                    let ps = s.property_closed(pattern.property);
                    (ps.triples as f64, ps.distinct_subjects.max(1) as f64)
                }
                None => (
                    self.params.default_property_card,
                    self.params.default_property_card,
                ),
            };
            card = Some(match card {
                None => triples,
                Some(c) => (c * triples / distinct.max(1.0)).max(0.0),
            });
        }
        card.unwrap_or(0.0)
    }

    /// Estimated local evaluation *work* (index probes + matches scanned)
    /// of running `subquery` at `site` — the "processing load" leg of the
    /// §2.5 cost model, distinct from result cardinality.
    ///
    /// Walks the patterns in the same statistics-driven order the local
    /// engine will actually use ([`sqpeer_rql::stats_join_order`]), so a
    /// plan comparison sees the cost of the ordered evaluation, not of the
    /// textual pattern order.
    pub fn fetch_work(&self, site: Site, subquery: &Subquery) -> f64 {
        use sqpeer_rql::Term;
        let stats = self.stats_at(site);
        let query = &subquery.query;
        let Some(stats) = stats else {
            return self.params.default_property_card * query.patterns().len().max(1) as f64;
        };
        let mut bound = vec![false; query.var_count()];
        let term_bound = |t: &Term, bound: &[bool]| match t {
            Term::Var(v) => bound[v.0 as usize],
            Term::Resource(_) | Term::Literal(_) => true,
        };
        let mut frontier = 1.0_f64;
        let mut work = 0.0_f64;
        for pi in sqpeer_rql::stats_join_order(query, stats) {
            let pattern = &query.patterns()[pi];
            let ps = stats.property_closed(pattern.property);
            let triples = ps.triples as f64;
            let ds = ps.distinct_subjects.max(1) as f64;
            let dobj = ps.distinct_objects.max(1) as f64;
            let per_probe = match (
                term_bound(&pattern.subject.term, &bound),
                term_bound(&pattern.object.term, &bound),
            ) {
                (true, true) => triples / (ds * dobj),
                (true, false) => triples / ds,
                (false, true) => triples / dobj,
                (false, false) => triples,
            };
            // Each frontier row pays at least one index probe.
            work += frontier * per_probe.max(1.0);
            frontier *= per_probe;
            for v in pattern.vars() {
                bound[v.0 as usize] = true;
            }
        }
        work
    }

    /// Estimated total evaluation work of a plan subtree: fetch work plus
    /// per-operator merge cost (tuples flowing through each ∪/⋈).
    pub fn plan_work(&self, plan: &PlanNode) -> f64 {
        match plan {
            PlanNode::Fetch { subquery, site } => self.fetch_work(*site, subquery),
            PlanNode::Union(inputs) | PlanNode::Join { inputs, .. } => {
                let children: f64 = inputs.iter().map(|i| self.plan_work(i)).sum();
                children + self.plan_cardinality(plan)
            }
        }
    }

    /// Estimated rows produced by a whole plan subtree.
    pub fn plan_cardinality(&self, plan: &PlanNode) -> f64 {
        match plan {
            PlanNode::Fetch { subquery, site } => self.fetch_cardinality(*site, subquery),
            PlanNode::Union(inputs) => inputs.iter().map(|i| self.plan_cardinality(i)).sum(),
            PlanNode::Join { inputs, .. } => {
                // A natural join can never exceed the smallest input times
                // the fan-out of the others; the min is the standard
                // conservative estimate and is what makes "push joins below
                // unions" beneficial (§2.5).
                inputs
                    .iter()
                    .map(|i| self.plan_cardinality(i))
                    .fold(f64::INFINITY, f64::min)
                    .max(0.0)
            }
        }
    }

    /// Estimated wire bytes for a subtree's result.
    pub fn plan_bytes(&self, plan: &PlanNode) -> f64 {
        self.plan_cardinality(plan) * self.params.tuple_bytes
    }

    /// Total bytes that cross the network when executing `plan` with its
    /// current sites, with every result ultimately delivered to
    /// `initiator`. Used by experiment E4 to compare Plans 1–3.
    ///
    /// Identical fetch results delivered over the same channel are counted
    /// once: "although each of these peers may contribute in the execution
    /// of the plan by answering to more than one subqueries, only one
    /// channel is of course created" (§2.4).
    pub fn transfer_bytes(&self, plan: &PlanNode, initiator: PeerId) -> f64 {
        let mut seen = HashSet::new();
        self.transfer_bytes_to(plan, Site::Peer(initiator), &mut seen)
    }

    fn transfer_bytes_to<'p>(
        &self,
        plan: &'p PlanNode,
        dest: Site,
        seen: &mut HashSet<FetchKey<'p>>,
    ) -> f64 {
        match plan {
            PlanNode::Fetch { subquery, site } => {
                if *site == dest || !seen.insert(FetchKey(&subquery.query, *site, dest)) {
                    0.0
                } else {
                    self.plan_bytes(plan)
                }
            }
            PlanNode::Union(inputs) => {
                // The union is merged at the destination.
                inputs
                    .iter()
                    .map(|i| self.transfer_bytes_to(i, dest, seen))
                    .sum()
            }
            PlanNode::Join { inputs, site } => {
                let at = site.map(Site::Peer).unwrap_or(dest);
                let inbound: f64 = inputs
                    .iter()
                    .map(|i| self.transfer_bytes_to(i, at, seen))
                    .sum();
                let outbound = if at == dest {
                    0.0
                } else {
                    self.plan_bytes(plan)
                };
                inbound + outbound
            }
        }
    }
}

/// One fetch result on one channel, as [`Estimator::transfer_bytes`]
/// dedups them: the shipped pattern compared structurally, plus the
/// channel's two ends.
struct FetchKey<'p>(&'p QueryPattern, Site, Site);

impl PartialEq for FetchKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.1, self.2) == (other.1, other.2) && self.0 == other.0
    }
}

impl Eq for FetchKey<'_> {}

impl Hash for FetchKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Enough to tell one plan's fetches apart; `eq` decides.
        for pattern in self.0.patterns() {
            pattern.property.hash(state);
        }
        (self.1, self.2).hash(state);
    }
}

/// A network cost model: transfer and processing costs in virtual
/// milliseconds. Implemented over the simulator's link table by the
/// overlay crate; [`UniformCost`] is the table-driven default.
///
/// **Precondition:** every returned cost is `>= 0` (so not NaN either)
/// — moving or processing data never pays back. The optimiser's
/// bounded evaluation of the distributed shape ([`crate::optimize()`])
/// abandons a running sum once it exceeds the bound, which is only sound
/// for non-negative terms; a model that breaks the precondition is still
/// handled correctly (the first negative or NaN term switches the early
/// exit off), it just forfeits the saving.
pub trait NetworkCost {
    /// Cost of moving `bytes` from `from` to `to`.
    fn transfer(&self, from: Site, to: Site, bytes: f64) -> f64;
    /// Cost of processing `tuples` tuples at `at` (includes load factors —
    /// "a peer that processes fewer queries, even if its connection is
    /// slow, may offer a better execution time").
    fn processing(&self, at: Site, tuples: f64) -> f64;
}

/// A table-driven cost model: uniform defaults with per-link and per-peer
/// overrides.
#[derive(Debug, Clone)]
pub struct UniformCost {
    /// Default cost per byte transferred.
    pub per_byte: f64,
    /// Default cost per tuple processed.
    pub per_tuple: f64,
    link_overrides: HashMap<(PeerId, PeerId), f64>,
    load: HashMap<PeerId, f64>,
}

impl Default for UniformCost {
    fn default() -> Self {
        UniformCost::new(0.01, 0.1)
    }
}

impl UniformCost {
    /// Creates a model with uniform per-byte and per-tuple costs.
    pub fn new(per_byte: f64, per_tuple: f64) -> Self {
        UniformCost {
            per_byte,
            per_tuple,
            link_overrides: HashMap::new(),
            load: HashMap::new(),
        }
    }

    /// Overrides the per-byte cost of one (undirected) link.
    pub fn set_link(&mut self, a: PeerId, b: PeerId, per_byte: f64) {
        self.link_overrides.insert((a, b), per_byte);
        self.link_overrides.insert((b, a), per_byte);
    }

    /// Sets a processing-load multiplier for a peer (1.0 = unloaded).
    pub fn set_load(&mut self, peer: PeerId, factor: f64) {
        self.load.insert(peer, factor);
    }
}

impl NetworkCost for UniformCost {
    fn transfer(&self, from: Site, to: Site, bytes: f64) -> f64 {
        if from == to {
            return 0.0;
        }
        let per_byte = match (from, to) {
            (Site::Peer(a), Site::Peer(b)) => self
                .link_overrides
                .get(&(a, b))
                .copied()
                .unwrap_or(self.per_byte),
            // Transfers involving holes are charged at the default rate.
            _ => self.per_byte,
        };
        bytes * per_byte
    }

    fn processing(&self, at: Site, tuples: f64) -> f64 {
        let factor = match at {
            Site::Peer(p) => self.load.get(&p).copied().unwrap_or(1.0),
            Site::Hole => 1.0,
        };
        tuples * self.per_tuple * factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
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

    fn stats_with(schema: &Arc<Schema>, p_triples: usize) -> BaseStatistics {
        let p = schema.property_by_name("p").unwrap();
        let mut base = DescriptionBase::new(Arc::clone(schema));
        for i in 0..p_triples {
            base.insert_described(sqpeer_rdfs::Triple::new(
                sqpeer_rdfs::Resource::new(format!("s{i}")),
                p,
                sqpeer_rdfs::Resource::new(format!("o{i}")),
            ));
        }
        base.statistics()
    }

    fn fetch(schema: &Arc<Schema>, src: &str, site: Site) -> PlanNode {
        PlanNode::Fetch {
            subquery: Subquery {
                covers: 1,
                query: compile(src, schema).unwrap(),
            },
            site,
        }
    }

    #[test]
    fn fetch_cardinality_uses_stats() {
        let s = schema();
        let mut est = Estimator::new(CostParams::default());
        est.set_stats(PeerId(1), stats_with(&s, 42));
        let f = fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(1)));
        assert_eq!(est.plan_cardinality(&f), 42.0);
        // Unknown peer falls back to the default.
        let g = fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(9)));
        assert_eq!(est.plan_cardinality(&g), 100.0);
        let h = fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Hole);
        assert_eq!(est.plan_cardinality(&h), 100.0);
    }

    #[test]
    fn union_sums_join_takes_min() {
        let s = schema();
        let mut est = Estimator::new(CostParams::default());
        est.set_stats(PeerId(1), stats_with(&s, 10));
        est.set_stats(PeerId(2), stats_with(&s, 30));
        let u = PlanNode::Union(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(1))),
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(2))),
        ]);
        assert_eq!(est.plan_cardinality(&u), 40.0);
        let j = PlanNode::join(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(1))),
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(2))),
        ]);
        assert_eq!(est.plan_cardinality(&j), 10.0);
    }

    #[test]
    fn composite_subquery_chains_join_estimate() {
        let s = schema();
        let mut est = Estimator::new(CostParams::default());
        est.set_stats(PeerId(1), stats_with(&s, 20));
        let composite = PlanNode::Fetch {
            subquery: Subquery {
                covers: 0b11,
                query: compile("SELECT X, Z FROM {X}p{Y}, {Y}q{Z}", &s).unwrap(),
            },
            site: Site::Peer(PeerId(1)),
        };
        // p has 20 triples / 20 distinct subjects, q has none recorded →
        // 20 * 0 / 20 = 0.
        assert_eq!(est.plan_cardinality(&composite), 0.0);
    }

    #[test]
    fn fetch_work_reflects_stats_and_bound_endpoints() {
        let s = schema();
        let mut est = Estimator::new(CostParams::default());
        est.set_stats(PeerId(1), stats_with(&s, 10));
        est.set_stats(PeerId(2), stats_with(&s, 1000));
        let at = |p: u32| Site::Peer(PeerId(p));
        let sub = |src: &str| Subquery {
            covers: 1,
            query: compile(src, &s).unwrap(),
        };
        let open = sub("SELECT X, Y FROM {X}p{Y}");
        // More triples, more scan work.
        assert!(est.fetch_work(at(2), &open) > est.fetch_work(at(1), &open));
        // A constant endpoint turns the scan into an index probe.
        let probed = sub("SELECT Y FROM {&s0}p{Y}");
        assert!(est.fetch_work(at(2), &probed) < est.fetch_work(at(2), &open));
        // Unknown sites fall back to the default per-pattern cost.
        assert_eq!(
            est.fetch_work(Site::Hole, &open),
            CostParams::default().default_property_card
        );
        // plan_work adds merge cost on top of the children.
        let u = PlanNode::Union(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", at(1)),
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", at(2)),
        ]);
        let children = est.fetch_work(at(1), &open) + est.fetch_work(at(2), &open);
        assert_eq!(est.plan_work(&u), children + est.plan_cardinality(&u));
    }

    #[test]
    fn transfer_bytes_charges_remote_results_only() {
        let s = schema();
        let mut est = Estimator::new(CostParams::default());
        est.set_stats(PeerId(1), stats_with(&s, 10));
        est.set_stats(PeerId(2), stats_with(&s, 10));
        let local = fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(1)));
        assert_eq!(est.transfer_bytes(&local, PeerId(1)), 0.0);
        assert!(est.transfer_bytes(&local, PeerId(2)) > 0.0);
    }

    #[test]
    fn sited_join_moves_transfer_edges() {
        let s = schema();
        let mut est = Estimator::new(CostParams::default());
        est.set_stats(PeerId(1), stats_with(&s, 10));
        est.set_stats(PeerId(2), stats_with(&s, 10));
        let join_at_2 = PlanNode::Join {
            inputs: vec![
                fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(1))),
                fetch(&s, "SELECT X, Y FROM {X}p{Y}", Site::Peer(PeerId(2))),
            ],
            site: Some(PeerId(2)),
        };
        // Executing at P2: P1's input crosses once, join result crosses to
        // the initiator P0.
        let bytes = est.transfer_bytes(&join_at_2, PeerId(0));
        let tuple = CostParams::default().tuple_bytes;
        assert_eq!(bytes, 10.0 * tuple + 10.0 * tuple);
    }

    #[test]
    fn uniform_cost_overrides() {
        let mut c = UniformCost::new(1.0, 1.0);
        c.set_link(PeerId(1), PeerId(2), 5.0);
        c.set_load(PeerId(3), 4.0);
        assert_eq!(
            c.transfer(Site::Peer(PeerId(1)), Site::Peer(PeerId(2)), 2.0),
            10.0
        );
        assert_eq!(
            c.transfer(Site::Peer(PeerId(2)), Site::Peer(PeerId(1)), 2.0),
            10.0
        );
        assert_eq!(
            c.transfer(Site::Peer(PeerId(1)), Site::Peer(PeerId(3)), 2.0),
            2.0
        );
        assert_eq!(
            c.transfer(Site::Peer(PeerId(1)), Site::Peer(PeerId(1)), 99.0),
            0.0
        );
        assert_eq!(c.processing(Site::Peer(PeerId(3)), 2.0), 8.0);
        assert_eq!(c.processing(Site::Peer(PeerId(1)), 2.0), 2.0);
    }
}
