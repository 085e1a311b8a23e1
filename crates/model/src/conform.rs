//! Conformance: replay model traces against the real `PeerNode` logic.
//!
//! The models in this crate are abstractions; the [`Conductor`] closes
//! the loop by driving the *actual* production state machines through
//! the same adversarial schedules. It hosts real
//! [`PeerNode`](sqpeer_exec::PeerNode)s behind the transport-neutral
//! [`Ctx`]/[`NodeLogic`] seam (exactly as the virtual-time simulator and
//! the daemon's loopback transport do), holds every sent message in a
//! visible pool, and executes [`crate::trace`] scripts: each `deliver` /
//! `drop` / `dup` / `timer` / `down` / `up` step picks its target by
//! message-kind selectors, so a trace is a *schedule*, not a transcript.
//!
//! Determinism: the pool preserves send order, selectors resolve to the
//! first match (`nth=` overrides), and virtual time only advances via
//! `advance` steps or when a timer fires. Replaying a trace twice yields
//! identical outcomes.

use crate::trace::{Step, Trace};
use sqpeer_exec::{node_of, Msg, PeerNode, QueryId};
use sqpeer_net::{Counters, Ctx, NodeId, NodeLogic};
use std::collections::{BTreeMap, BTreeSet};

/// One in-flight message.
#[derive(Debug, Clone)]
pub struct Flight {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: Msg,
}

#[derive(Debug, Clone, Copy)]
struct PendingTimer {
    due_us: u64,
    seq: u64,
    node: NodeId,
    id: u64,
}

/// Hosts real peers and replays trace schedules against them.
pub struct Conductor {
    now_us: u64,
    nodes: BTreeMap<NodeId, PeerNode>,
    down: BTreeSet<NodeId>,
    pool: Vec<Flight>,
    timers: Vec<PendingTimer>,
    seq: u64,
    /// The protocol counters the hosted peers reported.
    pub counters: Counters,
}

impl Default for Conductor {
    fn default() -> Self {
        Conductor::new()
    }
}

impl Conductor {
    pub fn new() -> Self {
        Conductor {
            now_us: 0,
            nodes: BTreeMap::new(),
            down: BTreeSet::new(),
            pool: Vec::new(),
            timers: Vec::new(),
            seq: 0,
            counters: Counters::default(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Adds a peer under its own id (`node_of` convention).
    pub fn add_peer(&mut self, peer: PeerNode) -> NodeId {
        let id = node_of(peer.id);
        self.nodes.insert(id, peer);
        id
    }

    pub fn node(&self, id: NodeId) -> Option<&PeerNode> {
        self.nodes.get(&id)
    }

    /// Runs `on_start` for every peer (in id order) — scenario setup.
    pub fn boot(&mut self) {
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in ids {
            let mut ctx = Ctx::detached(self.now_us, id);
            if let Some(node) = self.nodes.get_mut(&id) {
                node.on_start(&mut ctx);
            }
            self.flush(id, ctx);
        }
    }

    /// Places a message in the pool without delivering it — scenario
    /// setup for client injections; the trace decides when it lands.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        self.pool.push(Flight { from, to, msg });
    }

    fn flush(&mut self, node: NodeId, ctx: Ctx<Msg>) {
        let effects = ctx.into_effects();
        for (to, msg, _bytes) in effects.outbox {
            self.pool.push(Flight {
                from: node,
                to,
                msg,
            });
        }
        for (delay, id) in effects.timers {
            let seq = self.seq;
            self.seq += 1;
            self.timers.push(PendingTimer {
                due_us: self.now_us + delay,
                seq,
                node,
                id,
            });
        }
        self.counters += effects.counters;
    }

    fn dispatch(&mut self, flight: Flight) {
        let Flight { from, to, msg } = flight;
        if self.down.contains(&to) || !self.nodes.contains_key(&to) {
            // The destination is gone: the only signal the sender gets is
            // the delivery-failure callback (mirrors the simulator).
            if !self.down.contains(&from) {
                let mut ctx = Ctx::detached(self.now_us, from);
                if let Some(sender) = self.nodes.get_mut(&from) {
                    sender.on_delivery_failure(&mut ctx, to, msg);
                }
                self.flush(from, ctx);
            }
            return;
        }
        let mut ctx = Ctx::detached(self.now_us, to);
        if let Some(node) = self.nodes.get_mut(&to) {
            node.on_message(&mut ctx, from, msg);
        }
        self.flush(to, ctx);
    }

    /// Index of the `nth` pool message matching the step's selectors.
    fn find_flight(&self, step: &Step) -> Result<usize, String> {
        let nth = step.u64_or("nth", 0)? as usize;
        let mut seen = 0usize;
        for (i, flight) in self.pool.iter().enumerate() {
            if !flight_matches(flight, step)? {
                continue;
            }
            if seen == nth {
                return Ok(i);
            }
            seen += 1;
        }
        let pool: Vec<String> = self
            .pool
            .iter()
            .map(|f| format!("{} {}->{}", msg_kind(&f.msg), f.from.0, f.to.0))
            .collect();
        Err(format!(
            "step `{step}`: no matching in-flight message (pool: [{}])",
            pool.join(", ")
        ))
    }

    fn fire_timer(&mut self, at: usize) {
        let timer = self.timers.remove(at);
        self.now_us = self.now_us.max(timer.due_us);
        let mut ctx = Ctx::detached(self.now_us, timer.node);
        if let Some(node) = self.nodes.get_mut(&timer.node) {
            node.on_timer(&mut ctx, timer.id);
        }
        self.flush(timer.node, ctx);
    }

    /// Index (into `self.timers`) of the earliest-due timer matching the
    /// step's `node=` / `kind=` / `nth=` selectors.
    fn find_timer(&self, step: &Step) -> Result<usize, String> {
        let want_node = step.get_u64("node")?.map(|n| NodeId(n as u32));
        let want_kind = step.get("kind");
        let nth = step.u64_or("nth", 0)? as usize;
        let mut candidates: Vec<usize> = (0..self.timers.len())
            .filter(|&i| {
                let t = &self.timers[i];
                if want_node.is_some_and(|n| n != t.node) {
                    return false;
                }
                match want_kind {
                    Some(kind) => self
                        .nodes
                        .get(&t.node)
                        .is_some_and(|node| node.timer_kind(t.id) == kind),
                    None => true,
                }
            })
            .collect();
        candidates.sort_by_key(|&i| (self.timers[i].due_us, self.timers[i].seq));
        candidates.get(nth).copied().ok_or_else(|| {
            let pending: Vec<String> = self
                .timers
                .iter()
                .map(|t| {
                    let kind = self
                        .nodes
                        .get(&t.node)
                        .map_or("?", |node| node.timer_kind(t.id));
                    format!("node={} kind={kind} due={}us", t.node.0, t.due_us)
                })
                .collect();
            format!(
                "step `{step}`: no matching timer (pending: [{}])",
                pending.join(", ")
            )
        })
    }

    /// Fair completion: deliver every pooled message (FIFO), firing due
    /// one-shot timers (completions, productions, retry timeouts) as the
    /// pool runs dry. Periodic maintenance timers (heartbeat, sweep) stay
    /// armed — they never quiesce and the trace fires them explicitly.
    fn drain(&mut self) -> Result<(), String> {
        for _ in 0..100_000 {
            if !self.pool.is_empty() {
                let flight = self.pool.remove(0);
                self.dispatch(flight);
                continue;
            }
            let next = (0..self.timers.len())
                .filter(|&i| {
                    let t = &self.timers[i];
                    self.nodes
                        .get(&t.node)
                        .is_some_and(|n| !matches!(n.timer_kind(t.id), "heartbeat" | "sweep"))
                })
                .min_by_key(|&i| (self.timers[i].due_us, self.timers[i].seq));
            match next {
                Some(i) => self.fire_timer(i),
                None => return Ok(()),
            }
        }
        Err("drain: event budget exceeded (livelock in the real logic?)".to_string())
    }

    fn expect(&self, step: &Step) -> Result<(), String> {
        match step.get("kind") {
            Some("outcome") => {
                let node = NodeId(step.need_u64("node")? as u32);
                let qid = QueryId(step.need_u64("qid")?);
                let peer = self
                    .nodes
                    .get(&node)
                    .ok_or_else(|| format!("step `{step}`: unknown node {}", node.0))?;
                let outcome = peer.outcome(qid).ok_or_else(|| {
                    format!("step `{step}`: node {} has no outcome for {qid}", node.0)
                })?;
                match step.get("status") {
                    Some("complete") if outcome.partial => {
                        return Err(format!(
                            "step `{step}`: expected complete, got partial (missing {:?})",
                            outcome.missing
                        ));
                    }
                    Some("partial") if !outcome.partial => {
                        return Err(format!("step `{step}`: expected partial, got complete"));
                    }
                    Some("complete") | Some("partial") | None => {}
                    Some(other) => {
                        return Err(format!("step `{step}`: unknown status `{other}`"));
                    }
                }
                if let Some(rows) = step.get_u64("rows")? {
                    let got = outcome.result.len() as u64;
                    if got != rows {
                        return Err(format!("step `{step}`: expected {rows} rows, got {got}"));
                    }
                }
                if let Some(missing) = step.get_u64("missing")? {
                    let got = outcome.missing.len() as u64;
                    if got != missing {
                        return Err(format!(
                            "step `{step}`: expected {missing} missing peers, got {:?}",
                            outcome.missing
                        ));
                    }
                }
                Ok(())
            }
            Some("no-outcome") => {
                let node = NodeId(step.need_u64("node")? as u32);
                let qid = QueryId(step.need_u64("qid")?);
                let peer = self
                    .nodes
                    .get(&node)
                    .ok_or_else(|| format!("step `{step}`: unknown node {}", node.0))?;
                if peer.outcome(qid).is_some() {
                    return Err(format!(
                        "step `{step}`: node {} unexpectedly finalised {qid}",
                        node.0
                    ));
                }
                Ok(())
            }
            Some("registered") | Some("departed") => {
                let want_departed = step.get("kind") == Some("departed");
                let node = NodeId(step.need_u64("node")? as u32);
                let peer_id = sqpeer_routing::PeerId(step.need_u64("peer")? as u32);
                let peer = self
                    .nodes
                    .get(&node)
                    .ok_or_else(|| format!("step `{step}`: unknown node {}", node.0))?;
                let registered = peer.son.registry.get(peer_id).is_some();
                let departed = peer.departed_peers().contains(&peer_id);
                if want_departed && !departed {
                    return Err(format!(
                        "step `{step}`: peer {} not departed at node {} (registered: {registered})",
                        peer_id.0, node.0
                    ));
                }
                if !want_departed && !registered {
                    return Err(format!(
                        "step `{step}`: peer {} not registered at node {} (departed: {departed})",
                        peer_id.0, node.0
                    ));
                }
                Ok(())
            }
            Some("dedups") => {
                let min = step.u64_or("min", 1)? as usize;
                let saw = self.counters.stream_dedup_drops;
                if saw < min {
                    return Err(format!(
                        "step `{step}`: expected ≥{min} stream dedup drops, saw {saw}"
                    ));
                }
                Ok(())
            }
            Some("flights") => {
                // Exact in-flight census: `expect flights msg=data count=1`
                // counts pool messages matching the selectors (with `msg=`
                // naming the message kind, since `kind=` names the
                // expectation itself). `count=0` asserts absence — the only
                // way a trace can prove backpressure held a packet back.
                let want = step.need_u64("count")?;
                let probe = Step {
                    verb: "deliver".to_string(),
                    kv: step
                        .kv
                        .iter()
                        .filter(|(k, _)| k != "kind" && k != "count")
                        .map(|(k, v)| {
                            let key = if k == "msg" { "kind" } else { k };
                            (key.to_string(), v.clone())
                        })
                        .collect(),
                };
                let got = self
                    .pool
                    .iter()
                    .map(|f| flight_matches(f, &probe))
                    .collect::<Result<Vec<bool>, String>>()?
                    .into_iter()
                    .filter(|&hit| hit)
                    .count() as u64;
                if got != want {
                    let pool: Vec<String> = self
                        .pool
                        .iter()
                        .map(|f| format!("{} {}->{}", msg_kind(&f.msg), f.from.0, f.to.0))
                        .collect();
                    return Err(format!(
                        "step `{step}`: expected {want} matching in-flight messages, found {got} (pool: [{}])",
                        pool.join(", ")
                    ));
                }
                Ok(())
            }
            Some("quiet") => {
                if !self.pool.is_empty() {
                    return Err(format!(
                        "step `{step}`: {} messages still in flight",
                        self.pool.len()
                    ));
                }
                Ok(())
            }
            other => Err(format!("step `{step}`: unknown expectation {other:?}")),
        }
    }

    /// Executes one step. Unknown verbs are errors — a trace that cannot
    /// run must fail loudly, not silently skip.
    pub fn run_step(&mut self, step: &Step) -> Result<(), String> {
        match step.verb.as_str() {
            "deliver" => {
                let i = self.find_flight(step)?;
                let flight = self.pool.remove(i);
                self.dispatch(flight);
                Ok(())
            }
            "drop" => {
                let i = self.find_flight(step)?;
                self.pool.remove(i);
                Ok(())
            }
            "dup" => {
                let i = self.find_flight(step)?;
                let copy = self.pool[i].clone();
                self.pool.push(copy);
                Ok(())
            }
            "timer" => {
                let i = self.find_timer(step)?;
                self.fire_timer(i);
                Ok(())
            }
            "advance" => {
                self.now_us += step.need_u64("us")?;
                Ok(())
            }
            "down" => {
                let node = NodeId(step.need_u64("node")? as u32);
                self.down.insert(node);
                // A crashed process loses its pending timers.
                self.timers.retain(|t| t.node != node);
                Ok(())
            }
            "up" => {
                let node = NodeId(step.need_u64("node")? as u32);
                if !self.down.remove(&node) {
                    return Err(format!("step `{step}`: node {} was not down", node.0));
                }
                let mut ctx = Ctx::detached(self.now_us, node);
                if let Some(n) = self.nodes.get_mut(&node) {
                    n.on_restart(&mut ctx);
                }
                self.flush(node, ctx);
                Ok(())
            }
            "drain" => self.drain(),
            "expect" => self.expect(step),
            other => Err(format!("step `{step}`: unknown verb `{other}`")),
        }
    }

    /// Replays a whole trace, reporting the failing step by index.
    pub fn run(&mut self, trace: &Trace) -> Result<(), String> {
        for (i, step) in trace.steps.iter().enumerate() {
            self.run_step(step)
                .map_err(|e| format!("{} step {}: {e}", trace.name, i + 1))?;
        }
        Ok(())
    }
}

/// Lower-case message kind, matching the trace grammar's `kind=` values.
pub fn msg_kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::Advertise(_) => "advertise",
        Msg::RequestAds { .. } => "requestads",
        Msg::AdsResponse(_) => "adsresponse",
        Msg::Withdraw => "withdraw",
        Msg::WithdrawPeer(_) => "withdrawpeer",
        Msg::Heartbeat => "heartbeat",
        Msg::HeartbeatPeer(_) => "heartbeatpeer",
        Msg::ExpirePeer(_) => "expirepeer",
        Msg::RouteRequest { .. } => "routerequest",
        Msg::RouteResponse { .. } => "routeresponse",
        Msg::Subplan { .. } => "subplan",
        Msg::Data { .. } => "data",
        Msg::SubplanFailed { .. } => "subplanfailed",
        Msg::Credit { .. } => "credit",
        Msg::ExecutePlan { .. } => "executeplan",
        Msg::ClientQuery { .. } => "clientquery",
        Msg::ClientAnswer { .. } => "clientanswer",
        Msg::SummaryAdvertise { .. } => "summaryadvertise",
        Msg::HierRouteRequest { .. } => "hierrouterequest",
        Msg::HierRouteResponse { .. } => "hierrouteresponse",
        Msg::ObsPush { .. } => "obspush",
    }
}

/// Numeric field of a message addressable from a selector.
fn msg_u64(msg: &Msg, key: &str) -> Option<u64> {
    match (msg, key) {
        (
            Msg::RouteRequest { qid, .. }
            | Msg::RouteResponse { qid, .. }
            | Msg::Subplan { qid, .. }
            | Msg::Data { qid, .. }
            | Msg::SubplanFailed { qid, .. }
            | Msg::Credit { qid, .. }
            | Msg::ExecutePlan { qid, .. }
            | Msg::ClientQuery { qid, .. }
            | Msg::ClientAnswer { qid, .. },
            "qid",
        ) => Some(qid.0),
        (
            Msg::Subplan { tag, .. }
            | Msg::Data { tag, .. }
            | Msg::SubplanFailed { tag, .. }
            | Msg::Credit { tag, .. },
            "tag",
        ) => Some(*tag),
        (Msg::Data { seq, .. }, "seq") => Some(u64::from(*seq)),
        (Msg::Data { last, .. }, "last") => Some(u64::from(*last)),
        (Msg::Subplan { attempt, .. }, "attempt") => Some(u64::from(*attempt)),
        (Msg::Credit { credits, .. }, "credits") => Some(u64::from(*credits)),
        _ => None,
    }
}

/// Does this flight satisfy every selector on the step (except `nth`)?
fn flight_matches(flight: &Flight, step: &Step) -> Result<bool, String> {
    for (key, value) in &step.kv {
        let hit = match key.as_str() {
            "nth" => true,
            "kind" => msg_kind(&flight.msg) == value,
            "to" => {
                let want: u64 = value
                    .parse()
                    .map_err(|_| format!("step `{step}`: to={value} is not a number"))?;
                u64::from(flight.to.0) == want
            }
            "from" => {
                let want: u64 = value
                    .parse()
                    .map_err(|_| format!("step `{step}`: from={value} is not a number"))?;
                u64::from(flight.from.0) == want
            }
            field => {
                let want: u64 = value
                    .parse()
                    .map_err(|_| format!("step `{step}`: {field}={value} is not a number"))?;
                msg_u64(&flight.msg, field) == Some(want)
            }
        };
        if !hit {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Shared scenario builders for the named conformance traces. Each
/// returns a booted [`Conductor`] with the client query already pooled;
/// the trace owns the schedule from the first `deliver` on.
pub mod scenarios {
    use super::*;
    use sqpeer_exec::{PeerConfig, PeerMode};
    use sqpeer_rdfs::{Range, Resource, Schema, SchemaBuilder, Triple};
    use sqpeer_routing::PeerId;
    use sqpeer_rql::compile;
    use sqpeer_store::DescriptionBase;
    use std::sync::Arc;

    /// The paper's Fig. 1 schema fragment used across exec tests.
    pub fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _ = p1;
        Arc::new(b.finish().unwrap())
    }

    fn base_with(schema: &Arc<Schema>, triples: &[(&str, &str, &str)]) -> DescriptionBase {
        let mut db = DescriptionBase::new(Arc::clone(schema));
        for (s, p, o) in triples {
            let prop = schema.property_by_name(p).unwrap();
            db.insert_described(Triple::new(Resource::new(*s), prop, Resource::new(*o)));
        }
        db
    }

    fn adhoc_config() -> PeerConfig {
        PeerConfig {
            mode: PeerMode::Adhoc,
            optimize: false,
            ..PeerConfig::default()
        }
    }

    /// Ad-hoc peers with mutually-registered advertisements and mutual
    /// neighbour links: P1 holds `(a, prop1, b)`, every other peer holds
    /// the given `prop2` triples. A client (node 99) poses the two-hop
    /// chain query `q1` to P1, so P1 roots it and must dispatch the
    /// `prop2` subplan remotely.
    fn build(config: PeerConfig, prop2_bases: &[&[(&str, &str, &str)]]) -> Conductor {
        let schema = fig1_schema();
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let mut peers = vec![PeerNode::simple(PeerId(1), b1, config.clone())];
        for (i, triples) in prop2_bases.iter().enumerate() {
            let base = base_with(&schema, triples);
            peers.push(PeerNode::simple(PeerId(2 + i as u32), base, config.clone()));
        }
        let ads: Vec<_> = peers
            .iter()
            .map(|p| p.own_advertisement().unwrap())
            .collect();
        let ids: Vec<PeerId> = peers.iter().map(|p| p.id).collect();
        for peer in &mut peers {
            for ad in &ads {
                peer.son.registry.register(ad.clone());
            }
            peer.son.neighbours = ids.iter().copied().filter(|&id| id != peer.id).collect();
        }

        let mut conductor = Conductor::new();
        for peer in peers {
            conductor.add_peer(peer);
        }
        conductor.add_peer(PeerNode::client(PeerId(99)));
        conductor.boot();

        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        conductor.inject(
            NodeId(99),
            NodeId(1),
            Msg::ClientQuery {
                qid: QueryId(1),
                query,
            },
        );
        conductor
    }

    /// Two peers, single-row answer: P2 holds `(b, prop2, c)`.
    pub fn chain_pair(tweak: impl Fn(&mut PeerConfig)) -> Conductor {
        let mut config = adhoc_config();
        tweak(&mut config);
        build(config, &[&[("b", "prop2", "c")]])
    }

    /// [`chain_pair`] where P2 holds four `prop2` triples and streams
    /// its answer in `rows`-row batches under a credit window of
    /// `window` — the streaming machine's conformance scenario (the
    /// four-row join arrives as several seq-numbered packets).
    pub fn streaming_pair(rows: usize, window: u32) -> Conductor {
        let mut config = adhoc_config();
        config.stream_batch_rows = Some(rows);
        config.stream_credit_window = window;
        build(
            config,
            &[&[
                ("b", "prop2", "c0"),
                ("b", "prop2", "c1"),
                ("b", "prop2", "c2"),
                ("b", "prop2", "c3"),
            ]],
        )
    }

    /// [`chain_pair`] with the at-least-once ladder armed: a finite
    /// subplan timeout and `retries` re-sends.
    pub fn retry_pair(retries: u32) -> Conductor {
        chain_pair(|config| {
            config.subplan_timeout_us = Some(200_000);
            config.subplan_retries = retries;
        })
    }

    /// [`chain_pair`] with advertisement leases armed at `lease_us`
    /// (heartbeat/sweep period is a quarter of that).
    pub fn lease_pair(lease_us: u64) -> Conductor {
        chain_pair(|config| {
            config.ad_lease_us = Some(lease_us);
        })
    }

    /// Three peers: P2 holds `(b, prop2, c)` and P3 holds `(b, prop2,
    /// d)` — both contribute to the join, so failing the channel to one
    /// of them forces a replan that the other can only partially cover.
    pub fn failover_trio(retries: u32) -> Conductor {
        let mut config = adhoc_config();
        config.subplan_timeout_us = Some(200_000);
        config.subplan_retries = retries;
        build(config, &[&[("b", "prop2", "c")], &[("b", "prop2", "d")]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse;

    #[test]
    fn trace_drives_real_peers_to_a_complete_answer() {
        let mut conductor = scenarios::chain_pair(|_| {});
        let trace = parse(
            "unit-complete",
            "deliver kind=clientquery\ndrain\nexpect outcome node=1 qid=1 status=complete rows=1\nexpect quiet",
        )
        .unwrap();
        conductor.run(&trace).unwrap();
    }

    #[test]
    fn selectors_fail_loudly_when_nothing_matches() {
        let mut conductor = scenarios::chain_pair(|_| {});
        let trace = parse("unit-miss", "deliver kind=credit").unwrap();
        let err = conductor.run(&trace).unwrap_err();
        assert!(err.contains("no matching in-flight message"), "{err}");
        assert!(err.contains("clientquery"), "pool listing absent: {err}");
    }

    #[test]
    fn unknown_verbs_are_rejected() {
        let mut conductor = Conductor::new();
        let trace = parse("unit-verb", "teleport node=1").unwrap();
        assert!(conductor.run(&trace).unwrap_err().contains("unknown verb"));
    }

    /// Why a re-plan fired is noted by the peer and must reach the
    /// conductor like every other counter: one subplan abandoned by its
    /// timeout, one (fresh scenario) by the slow-channel probe.
    #[test]
    fn replan_causes_noted_by_a_peer_arrive() {
        let lose_the_subplan = |timer: &str| {
            format!("deliver kind=clientquery\ndrop kind=subplan\ntimer node=1 kind={timer}\ndrain")
        };
        let mut by_timeout = scenarios::retry_pair(0);
        let trace = parse("unit-timeout-replan", &lose_the_subplan("timeout")).unwrap();
        by_timeout.run(&trace).unwrap();
        assert_eq!(
            by_timeout.counters,
            Counters {
                timeouts_fired: 1,
                replans: 1,
                timeout_replans: 1,
                ..Counters::default()
            }
        );

        let mut by_probe = scenarios::chain_pair(|config| {
            config.slow_channel = Some(sqpeer_exec::SlowChannelPolicy::default());
        });
        let trace = parse("unit-slow-replan", &lose_the_subplan("probe")).unwrap();
        by_probe.run(&trace).unwrap();
        assert_eq!(
            by_probe.counters,
            Counters {
                replans: 1,
                slow_channel_replans: 1,
                ..Counters::default()
            }
        );
    }
}
