//! `sim_zipf` and `sim_churn`: a hierarchical SON on the virtual-time
//! simulator. No sockets and no codec — wall clock here is what `routing`,
//! `subsume`, `cache`, `plan`, `exec` and the simulator's own queue cost
//! per simulated query, and the virtual counters are the paper's protocol
//! cost (messages, bytes, virtual latency).
//!
//! The two workloads share the overlay and pull the same layers opposite
//! ways: `sim_zipf` repeats a small skewed pool against warm caches;
//! `sim_churn` spreads over every chain and keeps rewriting
//! advertisements, so registry epochs bump and cached work is discarded.

use crate::gen::{balanced_bases, quota_sequence, rng, zipf_weights};
use crate::ladder::{over_draws, shared_rungs, LadderInput};
use crate::metrics::Layers;
use crate::span::Recorder;
use crate::stats::median;
use crate::sys::cpu_seconds;
use crate::workload::{scaled, us_since, OpTime, Progress, Rep, Rung, Workload};
use rand::rngs::StdRng;
use rand::Rng;
use sqpeer::exec::{node_of, CacheStats};
use sqpeer::overlay::{oracle_answer, oracle_base, HierBuilder, HybridNetwork};
use sqpeer::prelude::*;
use sqpeer_testkit::data_gen::pool_resource;
use sqpeer_testkit::{chain_properties, chain_query_text, community_schema, DataSpec, SchemaSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Zipf,
    Churn,
}

/// The overlay: the E23 placement (one property and two triples per peer,
/// class pools of six, 25 peers per super-peer, three clusters) at half
/// E23's size. A cold two-pattern query costs time quadratic in the peers
/// per property; at 1,000 peers the ≥ 200 timed queries a run needs would
/// not fit the benchmark's time cap.
const PEERS: usize = 500;
const SUPERS: u32 = 20;
const CLUSTER: u32 = 7;
const ORIGINS: usize = 4;
const DATA: DataSpec = DataSpec {
    triples_per_property: 2,
    class_pool: 6,
};

/// Queries per repetition at the stated run length, and repetitions. Every
/// operation here is a millisecond or so of pure computing, which a busy
/// neighbour on the host stretches by a third for half a minute at a time;
/// the timings are therefore read per operation from the quietest of many
/// short repetitions (`Rep::uncontended`), and a pause after each
/// repetition spreads them over more than twice the time they take, so
/// that one such spell is less likely to cover them all.
const ZIPF_QUERIES: usize = 115;
const ZIPF_REPETITIONS: usize = 30;
const CHURN_QUERIES: usize = 36;
const CHURN_REPETITIONS: usize = 20;
const PAUSE: Duration = Duration::from_millis(400);
/// `sim_churn` writes an advertisement after every this many queries, and
/// every `LEAVE_EVERY`-th write is a peer leaving and rejoining instead.
/// That leaves an even number of plain writes per repetition: they undo
/// each other in pairs, so every repetition starts from the same overlay.
const QUERIES_PER_WRITE: usize = 2;
const LEAVE_EVERY: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    Query { query: usize, origin: usize },
    Write,
    LeaveRejoin,
}

pub struct Sim {
    kind: SimKind,
    schema: Arc<Schema>,
    net: HybridNetwork,
    origins: Vec<PeerId>,
    texts: Vec<String>,
    queries: Vec<QueryPattern>,
    /// Times one repetition poses each distinct query.
    draws: Vec<usize>,
    ops: Vec<Op>,
    /// The centralised union of every base, rebuilt after each write, and
    /// its answers, dropped whenever a write lands.
    oracle: DescriptionBase,
    expected: Vec<Option<ResultSet>>,
    /// Peers in creation order (peer `i` sits under super-peer
    /// `i % SUPERS`), and where the writes have got to: the repetition
    /// running and the write targets it has used so far.
    ids: Vec<PeerId>,
    repetition: usize,
    targets_used: usize,
    targets_per_rep: usize,
    /// The peer the last write added to, with its base from before.
    modified: Option<(PeerId, DescriptionBase)>,
    write_rng: StdRng,
    boot_s: f64,
    boot_msgs: u64,
    cache_after_setup: CacheStats,
}

impl Sim {
    pub fn setup(kind: SimKind, seed: u64, scale: f64) -> Sim {
        let schema = community_schema(
            SchemaSpec {
                chain_classes: 8,
                subclasses_per_class: 1,
                subproperty_fraction: 0.5,
            },
            31,
        );
        let boot = Instant::now();
        let mut builder =
            HierBuilder::new(Arc::clone(&schema), SUPERS, CLUSTER).config(PeerConfig::default());
        let ids: Vec<PeerId> = balanced_bases(&schema, PEERS, 1, DATA, seed)
            .into_iter()
            .enumerate()
            .map(|(i, base)| builder.add_peer(base, i as u32 % SUPERS))
            .collect();
        let mut net = builder.build();
        net.sim_mut().run_to_quiescence();
        let boot_s = boot.elapsed().as_secs_f64();
        let boot_msgs = net.sim().metrics().total_messages() as u64;
        let origins: Vec<PeerId> = (0..ORIGINS).map(|k| ids[k * 113 % ids.len()]).collect();

        let (one, two) = (chain_properties(&schema, 1), chain_properties(&schema, 2));
        let chains: Vec<Vec<PropertyId>> = match kind {
            // Three one-pattern chains hold the popular ranks, three
            // two-pattern chains the tail: three quarters of the draws are
            // then of one kind, and the median query sits well inside it
            // instead of on the edge between the two.
            SimKind::Zipf => one
                .into_iter()
                .take(3)
                .chain(two.into_iter().take(3))
                .collect(),
            SimKind::Churn => one.into_iter().chain(two).collect(),
        };
        let texts: Vec<String> = chains
            .iter()
            .map(|c| chain_query_text(&schema, c))
            .collect();
        let queries: Vec<QueryPattern> = texts
            .iter()
            .map(|t| compile(t, &schema).expect("generated chains type-check"))
            .collect();

        let (count, weights) = match kind {
            SimKind::Zipf => (scaled(ZIPF_QUERIES, scale, 12), zipf_weights(queries.len())),
            // Every chain, the one-pattern ones three times as often: the
            // median query then sits inside their like-priced group rather
            // than on the step up to whichever joins are cold this time.
            SimKind::Churn => (
                scaled(CHURN_QUERIES, scale, 8),
                queries
                    .iter()
                    .map(|q| if q.patterns().len() == 1 { 3.0 } else { 1.0 })
                    .collect(),
            ),
        };
        // Which queries follow which write decides which of them find their
        // plans stale, so `sim_churn`'s order (like the round its writes
        // make, see `next_target`) is the same for every seed; the seed
        // decides the data and the triples written.
        let order = match kind {
            SimKind::Zipf => seed,
            SimKind::Churn => 0,
        };
        let sequence = quota_sequence(&weights, count, &mut rng(order, 2));
        let mut draws = vec![0; queries.len()];
        let mut ops = Vec::new();
        for (k, &query) in sequence.iter().enumerate() {
            draws[query] += 1;
            ops.push(Op::Query {
                query,
                origin: k % ORIGINS,
            });
            if kind == SimKind::Churn && (k + 1).is_multiple_of(QUERIES_PER_WRITE) {
                let nth = (k + 1) / QUERIES_PER_WRITE;
                ops.push(if nth.is_multiple_of(LEAVE_EVERY) {
                    Op::LeaveRejoin
                } else {
                    Op::Write
                });
            }
        }

        // Every add and every leave takes a target; a revert reuses the
        // add's.
        let writes = ops.iter().filter(|op| matches!(op, Op::Write)).count();
        let leaves = ops
            .iter()
            .filter(|op| matches!(op, Op::LeaveRejoin))
            .count();
        let targets_per_rep = writes / 2 + leaves;

        let oracle = oracle_base(&schema, net.bases());
        let mut sim = Sim {
            expected: vec![None; queries.len()],
            kind,
            schema,
            net,
            origins,
            texts,
            queries,
            draws,
            ops,
            oracle,
            ids,
            repetition: 0,
            targets_used: 0,
            targets_per_rep,
            modified: None,
            write_rng: rng(seed, 4),
            boot_s,
            boot_msgs,
            cache_after_setup: CacheStats::default(),
        };
        // One warm-up pass over every distinct query: at every origin for
        // `sim_zipf` (each origin's super-peer and root cache fills), once
        // each for `sim_churn` (its writes empty the caches anyway).
        for query in 0..sim.queries.len() {
            let origins = match kind {
                SimKind::Zipf => 0..ORIGINS,
                SimKind::Churn => query % ORIGINS..query % ORIGINS + 1,
            };
            for origin in origins {
                sim.net
                    .query(sim.origins[origin], sim.queries[query].clone());
                sim.net.sim_mut().run_to_quiescence();
            }
        }
        sim.cache_after_setup = sim.cache_totals();
        sim
    }

    /// Cache counters summed over the nodes that keep them: annotation
    /// hits at the routing super-peers, plan hits at the query roots.
    fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for &peer in self.net.super_peers().iter().chain(&self.origins) {
            let Some(s) = self.net.cache_stats(peer) else {
                continue;
            };
            total.hits += s.hits;
            total.subsumption_hits += s.subsumption_hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.evictions += s.evictions;
            total.plan_hits += s.plan_hits;
            total.plan_misses += s.plan_misses;
        }
        total
    }

    fn traffic(&self) -> (u64, u64) {
        let m = self.net.sim().metrics();
        (m.total_messages() as u64, m.total_bytes() as u64)
    }

    /// Poses one query and runs the network to quiescence; the wall time
    /// of both and the events processed.
    fn pose(
        &mut self,
        rec: &mut Recorder,
        op: u32,
        query: usize,
        at: PeerId,
    ) -> (sqpeer::exec::QueryId, f64, u64, f64) {
        let span = rec.begin("client.query", None, op);
        let started = Instant::now();
        let inject = rec.begin("sim.inject", Some(span), op);
        let qid = self.net.query(at, self.queries[query].clone());
        rec.end(inject);
        let run = rec.begin("sim.run", Some(span), op);
        let run_started = Instant::now();
        let events = self.net.sim_mut().run_to_quiescence();
        let run_s = run_started.elapsed().as_secs_f64();
        rec.end(run);
        let us = us_since(started);
        rec.end(span);
        (qid, us, events as u64, run_s)
    }

    /// Where the next write lands. Every repetition visits the same
    /// super-peers in the same order and takes, under each, members no
    /// earlier repetition wrote to: a write to a peer not written before
    /// leaves the overlay in a state no cache has seen, so the queries it
    /// touches are planned afresh — and because the round is the same each
    /// time, every repetition costs the same. A write passes the property
    /// it is about to add, and members that hold it already (peer `i`
    /// holds property `i mod n`, see `balanced_bases`) are passed over:
    /// re-advertising what is advertised stales nothing, and a repetition
    /// that landed on such a member was cheaper than the rest. Nothing
    /// here depends on the seed; the seed decides the triples.
    fn next_target(&mut self, adding: Option<usize>) -> PeerId {
        let supers = SUPERS as usize;
        let properties = self.schema.properties().count();
        let under = self.targets_used % supers;
        let members: Vec<usize> = (under..self.ids.len())
            .step_by(supers)
            .filter(|i| adding != Some(i % properties))
            .collect();
        let rounds = self.targets_per_rep.div_ceil(supers);
        let nth = self.repetition * rounds + self.targets_used / supers;
        self.targets_used += 1;
        self.ids[members[nth % members.len()]]
    }

    /// One advertisement write. Writes come in pairs so the overlay does
    /// not drift: the first adds to a fresh peer one triple of a property
    /// it did not hold, the next puts that peer's base back as it was. Both
    /// re-push the peer's advertisement and bump its super-peer's registry
    /// epoch; after the pair the placement — and so the price of every
    /// query — is what it was. Returns whether a write happened.
    fn write(&mut self) -> bool {
        if let Some((peer, original)) = self.modified.take() {
            self.net.update_peer_base(peer, |base| *base = original);
            return true;
        }
        // Properties take turns too: which cached annotations a write
        // stales must not depend on the seed.
        let properties: Vec<PropertyId> = self.schema.properties().collect();
        let turn = self.targets_used % properties.len();
        let property = properties[turn];
        let peer = self.next_target(Some(turn));
        let def = self.schema.property(property);
        let Range::Class(range) = def.range else {
            return false;
        };
        let pool = DATA.class_pool;
        let triple = Triple::new(
            pool_resource(def.domain, self.write_rng.gen_range(0..pool)),
            property,
            Node::Resource(pool_resource(range, self.write_rng.gen_range(0..pool))),
        );
        let mut original = None;
        self.net.update_peer_base(peer, |base| {
            if !base.populated_properties().contains(&property) {
                original = Some(base.clone());
                base.insert_described(triple);
            }
        });
        self.modified = original.map(|base| (peer, base));
        self.modified.is_some()
    }

    /// A peer leaves gracefully and rejoins: its advertisement is
    /// withdrawn, then pushed again.
    fn leave_and_rejoin(&mut self) {
        let peer = self.next_target(None);
        self.net.leave_peer(peer);
        self.net.sim_mut().run_to_quiescence();
        let now = self.net.sim().now_us();
        self.net.sim_mut().schedule_node_up(now, node_of(peer));
    }
}

impl Workload for Sim {
    fn ops_per_rep(&self) -> u64 {
        self.ops.len() as u64
    }

    fn repetitions(&self) -> usize {
        match self.kind {
            SimKind::Zipf => ZIPF_REPETITIONS,
            SimKind::Churn => CHURN_REPETITIONS,
        }
    }

    fn pause(&self) -> Duration {
        PAUSE
    }

    fn repetition(&mut self, rec: &mut Recorder, progress: &Progress) -> Rep {
        let mut rep = Rep::default();
        let mut verify_s = 0.0;
        self.targets_used = 0;
        let (retries0, replans0) = {
            let m = self.net.sim().metrics();
            (m.retries_sent(), m.replans())
        };
        let cpu0 = cpu_seconds();
        let started = Instant::now();
        for (i, op) in self.ops.clone().into_iter().enumerate() {
            let (msgs0, bytes0) = self.traffic();
            match op {
                Op::Query { query, origin } => {
                    let at = self.origins[origin];
                    let op_cpu0 = cpu_seconds();
                    let (qid, us, events, run_s) = self.pose(rec, i as u32, query, at);
                    rep.ops.push(OpTime {
                        wall_us: us,
                        cpu_us: (cpu_seconds() - op_cpu0) * 1e6,
                        query: true,
                    });
                    let (msgs1, bytes1) = self.traffic();
                    rep.msgs += msgs1 - msgs0;
                    rep.bytes += bytes1 - bytes0;
                    rep.events += events;
                    rep.sim_run_s += run_s;

                    let verifying = Instant::now();
                    let span = rec.begin("bench.verify", None, i as u32);
                    let expected = self.expected[query]
                        .get_or_insert_with(|| oracle_answer(&self.oracle, &self.queries[query]));
                    let ok = match self.net.outcome(at, qid) {
                        Some(out) if !out.partial && out.result.clone().sorted() == *expected => {
                            rep.query_us.push(us);
                            rep.served_us.push(out.latency_us as f64);
                            rep.ttfr_us.extend(out.ttfr_us.map(|t| t as f64));
                            rep.rows += out.result.len() as u64;
                            true
                        }
                        _ => false,
                    };
                    rec.end(span);
                    verify_s += verifying.elapsed().as_secs_f64();
                    progress.tick(ok);
                }
                Op::Write | Op::LeaveRejoin => {
                    let span = rec.begin("client.update", None, i as u32);
                    let op_cpu0 = cpu_seconds();
                    let op_started = Instant::now();
                    let ok = match op {
                        Op::Write => self.write(),
                        _ => {
                            self.leave_and_rejoin();
                            true
                        }
                    };
                    rep.events += self.net.sim_mut().run_to_quiescence() as u64;
                    rep.sim_run_s += op_started.elapsed().as_secs_f64();
                    rep.update_us.push(us_since(op_started));
                    rep.ops.push(OpTime {
                        wall_us: us_since(op_started),
                        cpu_us: (cpu_seconds() - op_cpu0) * 1e6,
                        query: false,
                    });
                    rec.end(span);
                    rep.update_msgs += self.traffic().0 - msgs0;

                    // The oracle follows the bases; every cached answer is
                    // stale now.
                    let verifying = Instant::now();
                    self.oracle = oracle_base(&self.schema, self.net.bases());
                    self.expected.iter_mut().for_each(|e| *e = None);
                    verify_s += verifying.elapsed().as_secs_f64();
                    progress.tick(ok);
                }
            }
        }
        self.repetition += 1;
        rep.wall_s = started.elapsed().as_secs_f64() - verify_s;
        rep.cpu_s = cpu_seconds() - cpu0 - verify_s;
        let m = self.net.sim().metrics();
        rep.retries = (m.retries_sent() - retries0) as u64;
        rep.replans = (m.replans() - replans0) as u64;
        rep
    }

    fn layers(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Vec<Rung> {
        let bases: Vec<(PeerId, &DescriptionBase)> = self
            .net
            .peers()
            .iter()
            .copied()
            .zip(self.net.bases())
            .collect();
        let input = LadderInput {
            schema: &self.schema,
            bases,
            queries: &self.texts,
            draws: &self.draws,
            origin: self.origins[0],
            iterations: 3,
        };
        let shared = shared_rungs(&input, rec, layers);

        // Top rung: the same queries through the overlay itself, once from
        // each origin the workload poses them at.
        let top: Vec<f64> = (0..self.queries.len())
            .map(|query| {
                let runs: Vec<f64> = (0..ORIGINS)
                    .map(|origin| self.pose(rec, u32::MAX, query, self.origins[origin]).1)
                    .collect();
                median(&runs)
            })
            .collect();

        let cache = self.cache_totals().since(&self.cache_after_setup);
        let lookups = (cache.hits + cache.subsumption_hits + cache.misses).max(1) as f64;
        layers.set("cache.hit_ratio", cache.hit_rate());
        layers.set(
            "cache.subsume_hit_ratio",
            cache.subsumption_hits as f64 / lookups,
        );
        layers.set(
            "cache.plan_hit_ratio",
            cache.plan_hits as f64 / (cache.plan_hits + cache.plan_misses).max(1) as f64,
        );
        layers.set("cache.invalidations", cache.invalidations as f64);
        layers.set("cache.evictions", cache.evictions as f64);
        layers.set("overlay.boot_msgs", self.boot_msgs as f64);
        layers.set("overlay.boot_s", self.boot_s);

        let d = &self.draws;
        let fold = |f: fn(&crate::ladder::QueryRungs) -> f64| {
            over_draws(&shared.iter().map(f).collect::<Vec<_>>(), d)
        };
        let (route_us, plan_us, eval_us) = (
            fold(|r| r.route_us),
            fold(|r| r.plan_us),
            fold(|r| r.eval_us),
        );
        let top_us = over_draws(&top, d);
        let rung = |name, us, self_us| Rung { name, us, self_us };
        // No compile and no codec on this path: queries are posed compiled
        // and the simulator moves messages as values.
        vec![
            rung("routing.route", route_us, route_us),
            rung("plan.generate+optimize", plan_us, plan_us),
            rung("rql.evaluate+join/union", eval_us, eval_us),
            rung(
                "overlay.query+run (simulator)",
                top_us,
                (top_us - route_us - plan_us - eval_us).max(0.0),
            ),
        ]
    }

    fn shutdown(self: Box<Self>) {}
}
