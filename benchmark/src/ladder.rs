//! The per-layer ladder: each of a workload's distinct queries replayed
//! through successively larger public entry points, one span per call.
//!
//! This file holds the rungs every workload shares — the layers below the
//! transports: `rql::compile`, `routing::route`, `plan::generate_plan` +
//! `plan::optimize`, `rql::evaluate` + `ResultSet::{join,union}` driven by
//! the optimised plan, and the `wire` codec over the query and answer
//! frames. The transport rungs (loopback, host, gateway, simulator) live
//! with the workloads that have them.

use crate::metrics::Layers;
use crate::span::Recorder;
use crate::stats::median;
use sqpeer::cache::{CacheConfig, SemanticCache};
use sqpeer::exec::{Msg, QueryId};
use sqpeer::net::{Channel, ChannelId, ChannelState};
use sqpeer::plan::{CostParams, Estimator, UniformCost};
use sqpeer::prelude::*;
use sqpeer::routing::RoutingLimits;
use sqpeer_testkit::{populate, DataSpec};
use sqpeer_wire::{decode_frame, encode_frame, Envelope, SchemaRegistry};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What the shared rungs replay.
pub struct LadderInput<'a> {
    pub schema: &'a Arc<Schema>,
    /// The workload's bases, each with the peer that advertises it.
    pub bases: Vec<(PeerId, &'a DescriptionBase)>,
    /// Distinct RQL texts, and how often one repetition poses each.
    pub queries: &'a [String],
    pub draws: &'a [usize],
    /// The peer plans are optimised for.
    pub origin: PeerId,
    /// Replays per query per rung; the rung's value is their median.
    pub iterations: usize,
}

/// The rung values of one distinct query, µs.
#[derive(Debug, Clone, Default)]
pub struct QueryRungs {
    pub compile_us: f64,
    pub route_us: f64,
    pub plan_us: f64,
    /// `evaluate` calls plus joins and unions.
    pub eval_us: f64,
    /// Encode + decode of the `ClientQuery` frame.
    pub wire_query_us: f64,
    /// Encode + decode of the `Data` frame carrying the whole answer.
    pub wire_data_us: f64,
}

/// A per-query quantity folded over the workload's mix: the median over
/// one repetition's draws, so it lines up with `query_p50_us`.
pub fn over_draws(values: &[f64], draws: &[usize]) -> f64 {
    let expanded: Vec<f64> = values
        .iter()
        .zip(draws)
        .flat_map(|(&v, &n)| std::iter::repeat_n(v, n))
        .collect();
    median(&expanded)
}

/// Interprets an optimised plan centrally: every `Fetch` evaluates at its
/// site's base, unions and joins combine as the executor would.
struct PlanEval<'a> {
    bases: &'a HashMap<PeerId, &'a DescriptionBase>,
    eval_us: f64,
    combine_us: f64,
    eval_rows: u64,
}

impl PlanEval<'_> {
    fn run(&mut self, plan: &PlanNode) -> ResultSet {
        match plan {
            PlanNode::Fetch { subquery, site } => {
                let columns = || {
                    subquery
                        .query
                        .projection()
                        .iter()
                        .map(|&v| subquery.query.var_name(v).to_string())
                        .collect()
                };
                let Site::Peer(peer) = site else {
                    return ResultSet::empty(columns());
                };
                let Some(base) = self.bases.get(peer) else {
                    return ResultSet::empty(columns());
                };
                let started = Instant::now();
                let result = evaluate(&subquery.query, base);
                self.eval_us += started.elapsed().as_nanos() as f64 / 1e3;
                self.eval_rows += result.len() as u64;
                result
            }
            PlanNode::Union(inputs) => {
                let parts: Vec<ResultSet> = inputs.iter().map(|p| self.run(p)).collect();
                let started = Instant::now();
                let mut parts = parts.into_iter();
                let mut acc = parts.next().unwrap_or_default();
                for part in parts {
                    acc.union(&part);
                }
                self.combine_us += started.elapsed().as_nanos() as f64 / 1e3;
                acc
            }
            PlanNode::Join { inputs, .. } => {
                let parts: Vec<ResultSet> = inputs.iter().map(|p| self.run(p)).collect();
                let started = Instant::now();
                let mut parts = parts.into_iter();
                let mut acc = parts.next().unwrap_or_default();
                for part in parts {
                    acc = acc.join(&part);
                }
                self.combine_us += started.elapsed().as_nanos() as f64 / 1e3;
                acc
            }
        }
    }
}

/// Replays every distinct query through the shared rungs, records one span
/// per call, fills the `rql.*`, `store.*`, `routing.*`, `subsume.*`,
/// `cache.route_*`, `plan.*`, `wire.*` and `exec.subplans_per_query`
/// layers, and returns the per-query rung values.
pub fn shared_rungs(
    input: &LadderInput<'_>,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Vec<QueryRungs> {
    let ads: Vec<Advertisement> = input
        .bases
        .iter()
        .map(|(peer, base)| {
            Advertisement::new(*peer, ActiveSchema::of_base(base)).with_stats(base.statistics())
        })
        .collect();
    let mut estimator = Estimator::new(CostParams::default());
    let mut registry = AdRegistry::new();
    for ad in &ads {
        if let Some(stats) = &ad.stats {
            estimator.set_stats(ad.peer, stats.clone());
        }
        registry.register(ad.clone());
    }
    let net_cost = UniformCost::default();
    let by_peer: HashMap<PeerId, &DescriptionBase> = input.bases.iter().copied().collect();
    let mut schemas = SchemaRegistry::new();
    schemas.register(Arc::clone(input.schema));
    let policy = RoutingPolicy::default();
    let n = input.iterations.max(1);

    let mut rungs = Vec::new();
    // Per-query layer quantities, folded at the end.
    let mut per_query: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut plans: Vec<(f64, f64)> = Vec::new();
    for (qi, text) in input.queries.iter().enumerate() {
        let qi32 = qi as u32;
        let root = rec.begin("ladder.query", None, qi32);

        let compile_us = median(
            &(0..n)
                .map(|_| {
                    rec.timed("rql.compile", Some(root), qi32, || {
                        black_box(compile(black_box(text), input.schema))
                    })
                    .1
                })
                .collect::<Vec<_>>(),
        );
        let query = compile(text, input.schema).expect("workload queries compile");

        let route_us = median(
            &(0..n)
                .map(|_| {
                    rec.timed("routing.route", Some(root), qi32, || {
                        black_box(route(black_box(&query), &ads, policy))
                    })
                    .1
                })
                .collect::<Vec<_>>(),
        );
        let annotated = route(&query, &ads, policy);
        let patterns = query.patterns().len();
        let annotations: usize = (0..patterns).map(|i| annotated.peers_for(i).len()).sum();
        let checks = (ads.len() * patterns) as f64;

        // The cache in front of the same scan: first lookup misses and
        // scans, the second is answered from the memo.
        let mut cache = SemanticCache::new(CacheConfig::default());
        let limits = RoutingLimits::default();
        let ((), miss_us) = rec.timed("cache.route_miss", Some(root), qi32, || {
            black_box(cache.route(&registry, &query, policy, limits));
        });
        let ((), hit_us) = rec.timed("cache.route_hit", Some(root), qi32, || {
            black_box(cache.route(&registry, &query, policy, limits));
        });

        let (mut generate, mut optimise) = (Vec::new(), Vec::new());
        let mut optimised = None;
        for _ in 0..n {
            let plan_span = rec.begin("plan", Some(root), qi32);
            let (plan, gen_us) = rec.timed("plan.generate", Some(plan_span), qi32, || {
                generate_plan(black_box(&annotated))
            });
            let ((plan, _report), opt_us) =
                rec.timed("plan.optimize", Some(plan_span), qi32, || {
                    optimize(plan, input.origin, &estimator, &net_cost)
                });
            rec.end(plan_span);
            generate.push(gen_us);
            optimise.push(opt_us);
            optimised = Some(plan);
        }
        let optimised = optimised.expect("at least one iteration");
        let (generate_us, optimize_us) = (median(&generate), median(&optimise));

        let (mut eval, mut combine, mut eval_rows) = (Vec::new(), Vec::new(), 0);
        let mut answer = ResultSet::default();
        for _ in 0..n {
            let mut interp = PlanEval {
                bases: &by_peer,
                eval_us: 0.0,
                combine_us: 0.0,
                eval_rows: 0,
            };
            let (result, _) = rec.timed("rql.evaluate+combine", Some(root), qi32, || {
                interp.run(&optimised)
            });
            eval.push(interp.eval_us);
            combine.push(interp.combine_us);
            eval_rows = interp.eval_rows;
            answer = result;
        }
        let (eval_us, join_us) = (median(&eval), median(&combine));
        let names: Vec<String> = query
            .projection()
            .iter()
            .map(|&v| query.var_name(v).to_string())
            .collect();
        let answer = answer.project(&names);

        let envelope = |msg| Envelope {
            from: input.origin,
            to: input.origin,
            sent_at_us: 0,
            msg,
        };
        let query_frame = envelope(Msg::ClientQuery {
            qid: QueryId(qi as u64),
            query: query.clone(),
        });
        let data_frame = envelope(Msg::Data {
            channel: Channel {
                id: ChannelId(qi as u64),
                root: input.origin,
                dest: input.origin,
                state: ChannelState::Closed,
            },
            qid: QueryId(qi as u64),
            tag: 0,
            result: answer.clone(),
            partial: false,
            stats: None,
            seq: 0,
            last: true,
        });
        let mut codec = |frame: &Envelope, enc_name, dec_name| {
            let (mut enc, mut dec, mut len) = (Vec::new(), Vec::new(), 0);
            for _ in 0..n {
                let (bytes, enc_us) = rec.timed(enc_name, Some(root), qi32, || {
                    encode_frame(black_box(frame))
                });
                let (decoded, dec_us) = rec.timed(dec_name, Some(root), qi32, || {
                    decode_frame::<Envelope>(black_box(&bytes), &schemas)
                });
                decoded.expect("a frame we just encoded decodes");
                enc.push(enc_us);
                dec.push(dec_us);
                len = bytes.len();
            }
            (median(&enc), median(&dec), len as f64)
        };
        let (query_enc_us, query_dec_us, _) =
            codec(&query_frame, "wire.encode_query", "wire.decode_query");
        let (data_enc_us, data_dec_us, data_bytes) =
            codec(&data_frame, "wire.encode_data", "wire.decode_data");
        rec.end(root);

        let (fetches, subplans) = (
            optimised.fetch_count() as f64,
            optimised.subplans_shipped() as f64,
        );
        for (name, value) in [
            ("rql.compile_us", compile_us),
            ("rql.eval_us", eval_us),
            (
                "rql.eval_rows_per_s",
                eval_rows as f64 / (eval_us / 1e6).max(1e-9),
            ),
            ("rql.join_us", join_us),
            ("routing.route_us", route_us),
            ("routing.checks_per_route", checks),
            (
                "routing.peers_per_pattern",
                annotations as f64 / patterns.max(1) as f64,
            ),
            ("subsume.match_ns", route_us * 1e3 / checks.max(1.0)),
            ("cache.route_hit_us", hit_us),
            ("cache.route_miss_us", miss_us),
            ("plan.generate_us", generate_us),
            ("plan.optimize_us", optimize_us),
            ("exec.subplans_per_query", subplans),
            ("wire.encode_us_per_msg", data_enc_us),
            ("wire.decode_us_per_msg", data_dec_us),
            ("wire.encode_mb_per_s", data_bytes / data_enc_us.max(1e-3)),
            ("wire.decode_mb_per_s", data_bytes / data_dec_us.max(1e-3)),
            (
                "wire.bytes_per_row",
                data_bytes / answer.len().max(1) as f64,
            ),
            ("wire.query_decode_us", query_dec_us),
        ] {
            per_query.entry(name).or_default().push(value);
        }
        plans.push((fetches, subplans));
        rungs.push(QueryRungs {
            compile_us,
            route_us,
            plan_us: generate_us + optimize_us,
            eval_us: eval_us + join_us,
            wire_query_us: query_enc_us + query_dec_us,
            wire_data_us: data_enc_us + data_dec_us,
        });
    }

    // Folded over the mix a repetition poses — except the two that describe
    // plans as such, each distinct query once.
    for (name, values) in &per_query {
        layers.set(name, over_draws(values, input.draws));
    }
    let (fetches, subplans): (Vec<f64>, Vec<f64>) = plans.into_iter().unzip();
    layers.set("plan.fetches", median(&fetches));
    layers.set("plan.subplans", median(&subplans));
    store_layers(input, rec, layers);
    rungs
}

/// `store.*`: insert cost while populating a fresh base, statistics and
/// snapshot-rebuild cost on the workload's largest base.
fn store_layers(input: &LadderInput<'_>, rec: &mut Recorder, layers: &mut Layers) {
    const INSERTS: usize = 2_000;
    let props: Vec<PropertyId> = input.schema.properties().take(1).collect();
    let mut fresh = DescriptionBase::new(Arc::clone(input.schema));
    let spec = DataSpec {
        triples_per_property: INSERTS,
        class_pool: 1_000,
    };
    let (_, populate_us) = rec.timed("store.populate", None, 0, || {
        populate(&mut fresh, &props, spec, &mut crate::gen::rng(0, 99))
    });
    layers.set("store.insert_us", populate_us / INSERTS as f64);

    let Some((_, largest)) = input.bases.iter().max_by_key(|(_, b)| b.triple_count()) else {
        return;
    };
    let (_, stats_us) = rec.timed("store.statistics", None, 0, || {
        black_box(largest.statistics())
    });
    layers.set("store.stats_us", stats_us);

    // First evaluate after a mutation rebuilds the interned snapshot; the
    // second finds it. A clone of a base carries no snapshot, which is the
    // state a mutation leaves behind.
    let Some(text) = input.queries.first() else {
        return;
    };
    let query = compile(text, input.schema).expect("workload queries compile");
    let mutated = (*largest).clone();
    let (_, cold_us) = rec.timed("store.evaluate_cold", None, 0, || {
        black_box(evaluate(&query, &mutated))
    });
    let (_, warm_us) = rec.timed("store.evaluate_warm", None, 0, || {
        black_box(evaluate(&query, &mutated))
    });
    layers.set("store.snapshot_build_us", (cold_us - warm_us).max(0.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_testkit::fixtures::fig1_query_text;
    use sqpeer_testkit::{fig1_schema, fig2_bases};

    #[test]
    fn draws_weigh_the_median() {
        assert_eq!(over_draws(&[1.0, 10.0], &[3, 1]), 1.0);
        assert_eq!(over_draws(&[1.0, 10.0], &[1, 3]), 10.0);
        assert_eq!(over_draws(&[1.0, 10.0], &[1, 1]), 5.5);
    }

    #[test]
    fn shared_rungs_answer_figure_one_like_the_oracle() {
        let schema = fig1_schema();
        let bases = fig2_bases(&schema);
        let queries = vec![fig1_query_text().to_string()];
        let input = LadderInput {
            schema: &schema,
            bases: bases
                .iter()
                .enumerate()
                .map(|(i, b)| (PeerId(i as u32), b))
                .collect(),
            queries: &queries,
            draws: &[1],
            origin: PeerId(0),
            iterations: 2,
        };
        let mut rec = Recorder::new(Instant::now(), true);
        let mut layers = Layers::new();
        let rungs = shared_rungs(&input, &mut rec, &mut layers);
        assert_eq!(rungs.len(), 1);
        assert!(rungs[0].plan_us > 0.0 && rungs[0].eval_us > 0.0);
        // 4 advertisements × 2 patterns.
        assert_eq!(layers.get("routing.checks_per_route"), 8.0);
        assert!(layers.get("plan.fetches") >= 2.0);
        // Three answer rows in the data frame.
        assert!(layers.get("wire.bytes_per_row") > 0.0);
        assert!(rec.spans().iter().any(|s| s.name == "plan.optimize"));
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
