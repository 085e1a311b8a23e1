//! A query's life at its root (§2.4–§2.5): intake, the routing and
//! planning stamps, the profile, the run-time adaptation decision and the
//! answer. [`Roots`] keeps one record per query this peer rooted, running
//! or answered; it takes no `Ctx` and sends nothing. A transition returns
//! what the peer must still do — [`Roots::lost`] a [`Lost`] verdict,
//! [`Roots::finish`] an [`Answered`] — and `PeerNode` carries it out. An
//! answered query is no longer live: no later transition moves it.

use crate::msg::{QueryId, QueryOutcome};
use crate::obs::{ObsState, SlowQuery};
use crate::peer::{by_key, sorted, PeerConfig};
use crate::{Event, Subject};
use sqpeer_cache::{CacheStats, SemanticCache};
use sqpeer_plan::{generate_plan, optimize_traced, CostParams, Estimator, Explain};
use sqpeer_plan::{OptimizeReport, PlanNode, Site, UniformCost};
use sqpeer_rdfs::{FxHashMap, FxHashSet};
use sqpeer_routing::{AdRegistry, AnnotatedQuery, PeerId};
use sqpeer_rql::{QueryPattern, ResultSet};
use sqpeer_trace::{QueryProfile, Tracer};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Everything a root knows about one query it initiated: the running
/// state and, from [`Roots::finish`] on, the answer.
#[derive(Debug)]
struct RootQuery {
    query: QueryPattern,
    /// Who posed the query, and is mailed the answer — unless that is
    /// this peer itself (a driver that collects outcomes at the root).
    client: PeerId,
    excluded: FxHashSet<PeerId>,
    started_at_us: u64,
    /// When the first answer rows became visible here (a batch draining in
    /// order, or a whole result): the outcome's and profile's `ttfr_us`.
    first_row_at_us: Option<u64>,
    /// Completeness accounting: peers this root gave up on (after failures
    /// or timeouts) or learned had departed (lease-expiry tombstones). Any
    /// entry makes the answer partial: surviving replicas may differ.
    missing: FxHashSet<PeerId>,
    /// Completed subplan results kept across phases (phased adaptation):
    /// `(destination peer, rendered subplan) → result`.
    phase_cache: FxHashMap<(PeerId, String), ResultSet>,
    peers_contacted: FxHashSet<PeerId>,
    /// Phase timestamps: when the routing annotation became available and
    /// when the executable plan was ready.
    annotated_at_us: Option<u64>,
    plan_ready_at_us: Option<u64>,
    /// Counters bumped while the query runs (`replans` bounds adaptation);
    /// with tracing on `finish` adds the times and the answer's shape.
    profile: QueryProfile,
    /// The EXPLAIN capture (populated at planning with tracing on).
    explain: Option<Explain>,
    outcome: Option<QueryOutcome>,
}

/// The root's decision on a lost route request or subplan.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Lost {
    /// ubQL: discard everything of the query and route it again.
    Replan,
    /// The re-plan budget is spent: answer with nothing more, partial.
    GiveUp,
    /// Phased repair (§2.5: "the alteration is done on a subplan"):
    /// re-route the lost fragment around `excluded` into the same slot.
    Repair { excluded: Vec<PeerId> },
    /// Static execution, or a subplan this peer serves for another root:
    /// an empty partial slot, and the rest of the plan continues.
    EmptySlot,
    /// Answered already, or a route request not rooted here: nothing.
    Gone,
}

/// What the peer still does for a query [`Roots::finish`] answered: mail
/// the client its copy (unless this peer posed it), record a slow query.
pub(crate) struct Answered {
    pub(crate) mail: Option<(PeerId, ResultSet)>,
    pub(crate) slow: Option<Event>,
}

/// The queries peer `me` roots (see the module documentation).
#[derive(Debug)]
pub(crate) struct Roots {
    me: PeerId,
    config: PeerConfig,
    rooted: FxHashMap<QueryId, RootQuery>,
}

impl Roots {
    pub(crate) fn new(me: PeerId, config: &PeerConfig) -> Self {
        let (config, rooted) = (config.clone(), FxHashMap::default());
        Roots { me, config, rooted }
    }

    /// Records held, running and answered-but-not-yet-taken.
    pub(crate) fn len(&self) -> usize {
        self.rooted.len()
    }

    /// Query `qid`, running or answered, and the peers it excludes.
    pub(crate) fn query(&self, qid: QueryId) -> Option<(&QueryPattern, &FxHashSet<PeerId>)> {
        let root = self.rooted.get(&qid)?;
        Some((&root.query, &root.excluded))
    }

    /// The still-running query `qid`. `None` once answered, so whatever
    /// arrives late leaves the record as `finish` wrote it.
    fn live(&mut self, qid: QueryId) -> Option<&mut RootQuery> {
        self.rooted.get_mut(&qid).filter(|r| r.outcome.is_none())
    }

    pub(crate) fn outcome(&self, qid: QueryId) -> Option<&QueryOutcome> {
        self.rooted.get(&qid)?.outcome.as_ref()
    }

    /// Takes an answered query's outcome and with it the whole record.
    pub(crate) fn take_outcome(&mut self, qid: QueryId) -> Option<QueryOutcome> {
        self.outcome(qid)?;
        self.rooted.remove(&qid)?.outcome
    }

    pub(crate) fn profile(&self, qid: QueryId) -> Option<QueryProfile> {
        let root = self.rooted.get(&qid)?;
        (self.config.trace && root.outcome.is_some()).then(|| root.profile.clone())
    }

    pub(crate) fn explain(&self, qid: QueryId) -> Option<Explain> {
        self.rooted.get(&qid)?.explain.clone()
    }

    /// Roots query `qid` at `now`, posed by client `from`. False, and
    /// nothing changes, when `qid` is already rooted here.
    pub(crate) fn begin(&mut self, at: (QueryId, u64), query: QueryPattern, from: PeerId) -> bool {
        let (qid, now) = at;
        if self.rooted.contains_key(&qid) {
            return false;
        }
        let root = RootQuery {
            query,
            client: from,
            excluded: FxHashSet::default(),
            started_at_us: now,
            first_row_at_us: None,
            missing: FxHashSet::default(),
            phase_cache: FxHashMap::default(),
            peers_contacted: FxHashSet::default(),
            annotated_at_us: None,
            plan_ready_at_us: None,
            profile: QueryProfile::default(),
            explain: None,
            outcome: None,
        };
        self.rooted.insert(qid, root);
        true
    }

    /// Charges a route request of `bytes` to live query `qid`.
    pub(crate) fn sent(&mut self, qid: QueryId, bytes: usize) {
        if let Some(root) = self.live(qid) {
            root.profile.messages_sent += 1;
            root.profile.bytes_sent += bytes as u64;
        }
    }

    /// Routing answered live query `qid`: what its lookup did to the
    /// routing cache, and the contributors it misses, `gone` (departed).
    pub(crate) fn routed(&mut self, qid: QueryId, lookup: Option<CacheStats>, gone: Vec<PeerId>) {
        if let Some(root) = self.live(qid) {
            if let Some(d) = lookup {
                root.profile.cache_hits += d.hits + d.subsumption_hits;
                root.profile.cache_misses += d.misses;
            }
            root.missing.extend(gone);
        }
    }

    /// Plans live query `qid` from its routing annotation minus the peers
    /// it excludes (§2.5: "not taking into consideration those peers that
    /// became obsolete"), memoised by annotation and registry generation;
    /// with tracing on a memoised plan is re-derived for EXPLAIN (planning
    /// is deterministic). `None`, planning nothing, once `qid` is answered.
    pub(crate) fn plan(
        &mut self,
        (qid, now): (QueryId, u64),
        mut annotated: AnnotatedQuery,
        registry: &AdRegistry,
        cache: Option<&RefCell<SemanticCache>>,
        tracer: &mut Tracer,
    ) -> Option<PlanNode> {
        let root = self.rooted.get_mut(&qid).filter(|r| r.outcome.is_none())?;
        for &peer in &root.excluded {
            annotated.remove_peer(peer);
        }
        root.annotated_at_us.get_or_insert(now);
        tracer.event_with(now, qid.0, "annotate", || annotated.to_string());
        let plan_span = tracer.begin(now, qid.0, "plan");
        let generation = registry.generation();
        let cached = cache.and_then(|c| c.borrow_mut().plan_for(generation, &annotated));
        let hit = cached.is_some();
        if cache.is_some() {
            root.profile.plan_cache_hits += u64::from(hit);
            root.profile.plan_cache_misses += u64::from(!hit);
            let verdict = if hit { "hit" } else { "miss" };
            tracer.event_with(now, qid.0, "cache:plan", || verdict.to_string());
        }
        let (me, config) = (self.me, &self.config);
        let mut build = || build_plan(me, config, &annotated, registry, tracer, (qid, now));
        let (plan, explain) = match cached {
            Some(plan) if config.trace && root.explain.is_none() => (plan, build().1),
            Some(plan) => (plan, None),
            None => {
                let (plan, explain) = build();
                if let Some(cache) = cache {
                    cache.borrow_mut().store_plan(generation, &annotated, &plan);
                }
                (plan, explain)
            }
        };
        // A re-plan's fresh EXPLAIN keeps the adaptation log.
        if let Some(mut explain) = explain {
            explain.adaptation = root.explain.take().map_or_else(Vec::new, |e| e.adaptation);
            root.explain = Some(explain);
        }
        tracer.end(now, plan_span);
        root.plan_ready_at_us.get_or_insert(now);
        Some(plan)
    }

    /// The root's half of recording `event` about `subject`: the profile
    /// of a live query and — for a slow channel or a loss — the EXPLAIN
    /// adaptation log, which a subplan abandoned after a give-up answer
    /// still belongs to.
    pub(crate) fn record(&mut self, now: u64, subject: Subject, event: &Event) {
        let Some(root) = subject.qid().and_then(|qid| self.rooted.get_mut(&qid)) else {
            return;
        };
        let logged = matches!(event, Event::SlowChannel { .. } | Event::Lost { .. });
        if let Some(e) = root.explain.as_mut().filter(|_| logged) {
            e.adaptation.push(format!("t={now}us {subject}{event}"));
        }
        if root.outcome.is_some() {
            return;
        }
        let profile = &mut root.profile;
        if let Event::Dispatched { bytes, .. }
        | Event::Retried { bytes, .. }
        | Event::CreditGranted { bytes } = *event
        {
            profile.messages_sent += 1;
            profile.bytes_sent += bytes;
        }
        match *event {
            Event::Dispatched { .. } => {
                profile.subplans_dispatched += 1;
                if let Subject::Subplan { dest, .. } = subject {
                    root.peers_contacted.insert(dest);
                }
            }
            Event::Retried { .. } => profile.retries += 1,
            Event::TimedOut => profile.timeouts += 1,
            Event::Answered { bytes, .. } => {
                profile.subplans_answered += 1;
                profile.bytes_received += bytes;
            }
            Event::Lost { .. } => profile.subplans_failed += 1,
            _ => {}
        }
    }

    /// Answer rows of live query `qid` became visible at `now`.
    pub(crate) fn first_row(&mut self, qid: QueryId, now: u64) {
        if let Some(root) = self.live(qid) {
            root.first_row_at_us.get_or_insert(now);
        }
    }

    /// Phased execution: what an earlier phase of `qid` fetched from
    /// `dest` for `plan`, to reuse instead of shipping it again.
    pub(crate) fn reuse(&self, qid: QueryId, dest: PeerId, plan: &PlanNode) -> Option<ResultSet> {
        let root = self.rooted.get(&qid).filter(|_| self.config.phased)?;
        root.phase_cache.get(&(dest, plan.to_string())).cloned()
    }

    /// Phased execution: `dest` answered `plan` of live query `qid` in
    /// full with `result`, kept for later phases.
    pub(crate) fn keep(&mut self, qid: QueryId, dest: PeerId, plan: &PlanNode, result: &ResultSet) {
        let phased = self.config.phased;
        if let Some(root) = self.live(qid).filter(|_| phased) {
            root.phase_cache
                .insert((dest, plan.to_string()), result.clone());
        }
    }

    /// The one adaptation decision (§2.5): query `qid` lost a subplan
    /// (`subplan`) or its route request to `culprit`. A lost route request
    /// is always re-routed; a lost subplan is re-routed whole (ubQL),
    /// repaired (`phased`) or left an empty slot (static execution, or
    /// served here for another root). Every verdict but `Gone` names
    /// `culprit` missing from the answer; a re-route also excludes it, and
    /// past [`PeerConfig::MAX_REPLANS`] a whole re-plan gives up instead.
    pub(crate) fn lost(&mut self, qid: QueryId, culprit: PeerId, subplan: bool) -> Lost {
        let (adaptive, phased) = (self.config.adaptive, self.config.phased);
        let Some(root) = self.rooted.get_mut(&qid) else {
            return if subplan { Lost::EmptySlot } else { Lost::Gone };
        };
        if root.outcome.is_some() {
            return Lost::Gone;
        }
        root.missing.insert(culprit);
        if subplan && !adaptive {
            return Lost::EmptySlot;
        }
        root.excluded.insert(culprit);
        if subplan && phased {
            root.profile.replans += 1;
            let excluded = root.excluded.iter().copied().collect();
            return Lost::Repair { excluded };
        }
        if root.profile.replans >= PeerConfig::MAX_REPLANS {
            return Lost::GiveUp;
        }
        root.profile.replans += 1;
        Lost::Replan
    }

    /// Answers live query `qid` with `result` at `now`: projection, top-N,
    /// honest completeness, time to first row, the tracer's last event, the
    /// profile's times (tracing on), the pattern row and slow-query log
    /// (observability on). `None` once answered: a second answer is a no-op.
    pub(crate) fn finish(
        &mut self,
        (qid, now): (QueryId, u64),
        result: ResultSet,
        partial: bool,
        tracer: &mut Tracer,
        obs: Option<&mut ObsState>,
    ) -> Option<Answered> {
        let (me, trace) = (self.me, self.config.trace);
        let root = self.rooted.get_mut(&qid).filter(|r| r.outcome.is_none())?;
        let names = Arc::clone(root.query.columns());
        let missing = sorted(root.missing.iter().copied());
        // Honest completeness: a surviving replica may hold different
        // rows than the lost peer did.
        let partial = partial || !missing.is_empty();
        // The query's final projection (§2.1) — already applied by a last
        // join at this root. An empty result out of a hole has no
        // columns: it gets the projection's, as a well-formed table.
        let mut projected = result.into_projection(&names);
        if projected.rows.is_empty() && projected.columns.len() != names.len() {
            projected = ResultSet::empty(names);
        }
        // Top-N (§5): ORDER BY + LIMIT over the whole distributed answer.
        let order = root.query.order_by();
        let order = order.map(|(v, asc)| (root.query.var_name(v), asc));
        let limit = root.query.limit();
        if order.is_some() || limit.is_some() {
            projected.apply_top(order, limit);
        }
        let rows = projected.rows.len();
        // A monolithic (or fully local) answer's first row arrives with
        // the whole result, now.
        if rows > 0 {
            root.first_row_at_us.get_or_insert(now);
        }
        let started = root.started_at_us;
        let ttfr_us = root.first_row_at_us.map(|at| at.saturating_sub(started));
        let latency_us = now.saturating_sub(started);
        let mail = (root.client != me).then(|| (root.client, projected.clone()));
        let (peers, replans) = (root.peers_contacted.len(), root.profile.replans);
        let shape = if partial { "partial" } else { "complete" };
        tracer.event_with(now, qid.0, "query:done", || format!("{rows} rows, {shape}"));
        if trace {
            // Where the time went, and the answer's shape.
            let annotated_at = root.annotated_at_us.unwrap_or(started);
            let plan_ready = root.plan_ready_at_us.unwrap_or(annotated_at);
            let profile = &mut root.profile;
            profile.qid = qid.0;
            profile.query = root.query.text().to_owned();
            profile.routing_us = annotated_at.saturating_sub(started);
            profile.planning_us = plan_ready.saturating_sub(annotated_at);
            profile.execution_us = now.saturating_sub(plan_ready);
            (profile.total_us, profile.ttfr_us, profile.rows) = (latency_us, ttfr_us, rows);
            (profile.peers_contacted, profile.partial) = (peers, partial);
            profile.missing = missing.len();
        }
        root.outcome = Some(QueryOutcome {
            result: projected,
            completed_at_us: now,
            latency_us,
            ttfr_us,
            replans,
            partial,
            missing,
        });
        let Some((obs, threshold_us)) = obs.zip(self.config.obs.map(|c| c.slow_query_us)) else {
            return Some(Answered { mail, slow: None });
        };
        let row = obs.pattern_row(me, root.query.text());
        row.record(latency_us, ttfr_us, peers as u64, partial, replans.into());
        let slow = latency_us >= threshold_us;
        if slow {
            // Without tracing there is no EXPLAIN or profile to log.
            obs.log_slow_query(SlowQuery {
                query: qid,
                at_us: now,
                latency_us,
                pattern: root.query.text().to_owned(),
                explain_json: root.explain.as_ref().map(Explain::to_json),
                profile_json: trace.then(|| root.profile.to_json()),
            });
        }
        let slow = slow.then_some(Event::SlowQuery {
            latency_us,
            threshold_us,
        });
        Some(Answered { mail, slow })
    }

    /// An ungraceful restart: running queries are lost, answers survive.
    pub(crate) fn restart(&mut self) {
        self.rooted.retain(|_, root| root.outcome.is_some());
    }

    /// Hashes what a later transition reads, for
    /// [`crate::PeerNode::digest`]: per query in id order, its
    /// exclusions, missing peers, re-plans, phase cache and outcome.
    pub(crate) fn digest(&self, h: &mut impl Hasher) {
        for (qid, root) in by_key(&self.rooted) {
            let (excluded, missing) = (sorted(&root.excluded), sorted(&root.missing));
            (qid, excluded, missing, root.profile.replans).hash(h);
            let phases = sorted(root.phase_cache.iter().map(|(k, r)| (k, format!("{r:?}"))));
            let outcome = root.outcome.as_ref();
            let outcome = outcome.map(|o| (&o.result, o.partial, &o.missing, o.replans));
            (phases, format!("{outcome:?}")).hash(h);
        }
    }
}

/// Plan generation + compile-time optimisation (§2.5) at root `me`,
/// uncached. With tracing on, also the [`Explain`] rendering of the
/// annotation and the optimisation pipeline.
fn build_plan(
    me: PeerId,
    config: &PeerConfig,
    annotated: &AnnotatedQuery,
    registry: &AdRegistry,
    tracer: &mut Tracer,
    (qid, now): (QueryId, u64),
) -> (PlanNode, Option<Explain>) {
    let plan = generate_plan(annotated);
    let mut estimator = Estimator::new(CostParams::default());
    for ad in registry.advertisements() {
        if let Some(stats) = &ad.stats {
            estimator.borrow_stats(ad.peer, stats);
        }
    }
    let (est, t) = (&estimator, tracer);
    if config.optimize {
        let net = UniformCost::default();
        let (optimized, report) = optimize_traced(plan, me, est, &net, t, now, qid.0);
        let explain = config
            .trace
            .then(|| Explain::new(annotated, &report, &optimized, est));
        return (optimized, explain);
    }
    let explain = config.trace.then(|| {
        // Optimiser off: a one-stage report (the generated shape).
        let (text, fetches) = (plan.to_string(), plan.fetch_count());
        let stage = (
            "plan 1 (generated)".into(),
            text,
            fetches,
            est.transfer_bytes(&plan, me),
        );
        let (stages, final_cost) = (vec![stage], est.plan_work(&plan));
        let report = OptimizeReport {
            stages,
            final_cost,
            distributed_won: false,
        };
        Explain::new(annotated, &report, &plan, est)
    });
    (plan, explain)
}

/// Replaces every fetch at `peer` with a hole and clears join sites
/// assigned to it: the lost fragment of a phased repair.
pub(crate) fn strip_peer(plan: PlanNode, peer: PeerId) -> PlanNode {
    let strip = |inputs: Vec<PlanNode>| inputs.into_iter().map(|i| strip_peer(i, peer)).collect();
    match plan {
        PlanNode::Fetch { subquery, site: s } => {
            let site = if s == Site::Peer(peer) { Site::Hole } else { s };
            PlanNode::Fetch { subquery, site }
        }
        PlanNode::Union(inputs) => PlanNode::Union(strip(inputs)),
        PlanNode::Join { inputs, site } => PlanNode::Join {
            inputs: strip(inputs),
            site: site.filter(|&s| s != peer),
        },
    }
}

#[cfg(test)]
impl Roots {
    /// The answers held, in no particular order.
    pub(crate) fn outcomes(&self) -> impl Iterator<Item = &QueryOutcome> {
        self.rooted.values().filter_map(|r| r.outcome.as_ref())
    }

    /// When query `qid`'s first answer rows became visible here.
    pub(crate) fn first_row_at(&self, qid: QueryId) -> Option<u64> {
        self.rooted.get(&qid)?.first_row_at_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::ReplanCause;
    use proptest::prelude::*;
    use sqpeer_rdfs::{Node, Range, Resource, SchemaBuilder};
    use std::collections::{BTreeMap, BTreeSet};

    const ME: PeerId = PeerId(1);

    fn query() -> QueryPattern {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let (c1, c2) = (b.class("C1").unwrap(), b.class("C2").unwrap());
        b.property("prop1", c1, Range::Class(c2)).unwrap();
        let schema = Arc::new(b.finish().unwrap());
        sqpeer_rql::compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap()
    }

    /// One transition, on query `qid` where it names one.
    #[derive(Debug, Clone)]
    enum Op {
        /// Posed by this peer itself, or by a client-peer.
        Begin {
            qid: u64,
            own: bool,
        },
        Routed {
            qid: u64,
            gone: Vec<u32>,
        },
        Record {
            qid: u64,
            event: u8,
            dest: u32,
        },
        FirstRow {
            qid: u64,
            at: u64,
        },
        Lost {
            qid: u64,
            culprit: u32,
            subplan: bool,
        },
        Finish {
            qid: u64,
            partial: bool,
            rows: bool,
        },
        Restart,
    }

    fn op() -> impl Strategy<Value = Op> {
        let peers = proptest::collection::vec(10..14u32, 0..2);
        let draws = (
            0..12u8,
            1..4u64,
            10..14u32,
            any::<bool>(),
            any::<bool>(),
            peers,
        );
        // Losses weigh most: the re-plan budget is reached only by a run
        // of them on one live query.
        draws.prop_map(|(kind, qid, peer, a, b, gone)| match kind {
            0 | 1 => Op::Begin { qid, own: a },
            2 => Op::Routed { qid, gone },
            3 => Op::Record {
                qid,
                event: peer as u8 % 6 + u8::from(a),
                dest: peer,
            },
            4 => Op::FirstRow {
                qid,
                at: u64::from(peer),
            },
            5..=8 => Op::Lost {
                qid,
                culprit: peer,
                subplan: a,
            },
            9 | 10 => Op::Finish {
                qid,
                partial: a,
                rows: b,
            },
            _ => Op::Restart,
        })
    }

    fn event(kind: u8) -> Event {
        let cause = ReplanCause::Timeout;
        match kind {
            0 => Event::Dispatched {
                channel: 0,
                bytes: 64,
            },
            1 => Event::Retried {
                attempt: 1,
                bytes: 64,
            },
            2 => Event::TimedOut,
            3 => Event::Answered { rows: 1, bytes: 32 },
            4 => Event::Lost { attempts: 1, cause },
            _ => Event::CreditGranted { bytes: 16 },
        }
    }

    /// Everything the record of query `qid` holds.
    fn shown(roots: &Roots, qid: QueryId) -> String {
        format!("{:?}", roots.rooted.get(&qid))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The root lifecycle over random transitions on up to three
        /// queries, under every adaptation setting: at most one outcome per
        /// query and nothing moves it afterwards; re-plans stay within the
        /// budget and a loss past it gives up; `partial` is exactly the
        /// partial input or a missing contributor, `missing` sorted; every
        /// excluded peer is missing; a restart keeps exactly the answers.
        #[test]
        fn one_outcome_per_query_and_nothing_after_it(
            adaptive in any::<bool>(),
            phased in any::<bool>(),
            ops in proptest::collection::vec(op(), 1..60),
        ) {
            let config = PeerConfig { adaptive, phased, trace: true, ..PeerConfig::default() };
            let mut roots = Roots::new(ME, &config);
            let (query, mut tracer) = (query(), Tracer::disabled());
            // Per query: what it showed when answered, and its re-plans.
            let mut answered: BTreeMap<QueryId, String> = BTreeMap::new();
            let mut replans: BTreeMap<QueryId, u32> = BTreeMap::new();
            for op in ops {
                let live = |roots: &Roots, qid| roots.query(qid).is_some() && roots.outcome(qid).is_none();
                match op {
                    Op::Begin { qid, own } => {
                        let (qid, client) = (QueryId(qid), if own { ME } else { PeerId(99) });
                        let fresh = roots.query(qid).is_none();
                        prop_assert_eq!(roots.begin((qid, 0), query.clone(), client), fresh);
                        if fresh {
                            replans.insert(qid, 0);
                        }
                    }
                    Op::Routed { qid, gone } => {
                        roots.routed(QueryId(qid), None, gone.into_iter().map(PeerId).collect());
                    }
                    Op::Record { qid, event: kind, dest } => {
                        let subject = Subject::Subplan { qid: QueryId(qid), tag: 0, dest: PeerId(dest) };
                        roots.record(5, subject, &event(kind));
                    }
                    Op::FirstRow { qid, at } => roots.first_row(QueryId(qid), at),
                    Op::Lost { qid, culprit, subplan } => {
                        let qid = QueryId(qid);
                        let was_live = live(&roots, qid);
                        let rooted = roots.query(qid).is_some();
                        let verdict = roots.lost(qid, PeerId(culprit), subplan);
                        let spent = replans.get(&qid).copied().unwrap_or(0);
                        match &verdict {
                            Lost::Gone => prop_assert!(!was_live && (rooted || !subplan)),
                            Lost::EmptySlot => prop_assert!(subplan && (!rooted || !adaptive)),
                            Lost::Repair { excluded } => {
                                prop_assert!(was_live && subplan && adaptive && phased);
                                prop_assert!(excluded.contains(&PeerId(culprit)));
                            }
                            Lost::Replan => {
                                prop_assert!(was_live && (!subplan || adaptive && !phased));
                                prop_assert!(spent < PeerConfig::MAX_REPLANS);
                            }
                            Lost::GiveUp => {
                                prop_assert!(was_live && (!subplan || adaptive && !phased));
                                prop_assert!(spent >= PeerConfig::MAX_REPLANS);
                            }
                        }
                        if matches!(verdict, Lost::Replan | Lost::Repair { .. }) {
                            *replans.get_mut(&qid).expect("live") += 1;
                        }
                    }
                    Op::Finish { qid, partial, rows } => {
                        let qid = QueryId(qid);
                        let was_live = live(&roots, qid);
                        let node = Node::Resource(Resource::new("http://r/1"));
                        let rows = if rows { vec![vec![node.clone(), node]] } else { Vec::new() };
                        let result = ResultSet::from_rows(vec!["X".to_string(), "Y".to_string()], rows);
                        let missing = roots.rooted.get(&qid).map(|r| r.missing.len());
                        let done = roots.finish((qid, 7), result, partial, &mut tracer, None);
                        prop_assert_eq!(done.is_some(), was_live);
                        if let Some(done) = done {
                            let own = roots.rooted[&qid].client == ME;
                            prop_assert_eq!(done.mail.is_none(), own);
                            let outcome = roots.outcome(qid).expect("answered");
                            prop_assert_eq!(outcome.partial, partial || missing != Some(0));
                            prop_assert_eq!(outcome.missing.len(), missing.unwrap_or(0));
                            prop_assert!(outcome.missing.windows(2).all(|w| w[0] < w[1]));
                            prop_assert_eq!(outcome.replans, replans[&qid]);
                            answered.insert(qid, shown(&roots, qid));
                        }
                    }
                    Op::Restart => {
                        roots.restart();
                        let kept: BTreeSet<QueryId> = roots.rooted.keys().copied().collect();
                        prop_assert_eq!(kept, answered.keys().copied().collect());
                        replans.retain(|qid, _| answered.contains_key(qid));
                    }
                }
                for (qid, root) in &roots.rooted {
                    prop_assert!(root.excluded.is_subset(&root.missing));
                    prop_assert!(root.profile.replans <= replans[qid]);
                    // Phased repairs count as re-plans but spend no budget.
                    prop_assert!(phased || root.profile.replans <= PeerConfig::MAX_REPLANS);
                }
                for (&qid, was) in &answered {
                    prop_assert_eq!(&shown(&roots, qid), was);
                }
            }
        }
    }
}
