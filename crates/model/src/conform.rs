//! Real peers under an adversarial schedule: conformance replay and the
//! peer machine the explorer searches.
//!
//! The [`Conductor`] hosts real [`PeerNode`]s behind the transport-neutral
//! [`Ctx`]/[`NodeLogic`] seam (exactly as the virtual-time simulator and
//! the daemon's loopback transport do), holds every sent message in a
//! visible pool, and executes [`crate::trace`] scripts: each `deliver` /
//! `drop` / `dup` / `timer` / `down` / `up` step picks its target by
//! message-kind selectors, so a trace is a *schedule*, not a transcript.
//!
//! [`PeerMachine`] makes those schedules a [`Machine`]: a state is the
//! shortest schedule found to reach it, replayed on a fresh [`scenarios`]
//! builder and identified by [`Conductor::digest`]; an action is one trace
//! step. The dispatch, retry, dedup, replan and lease code the explorer
//! checks is therefore the code that ships, and every counterexample is a
//! trace [`Conductor::run`] replays.
//!
//! Determinism: the pool preserves send order, selectors resolve to the
//! first match (`nth=` overrides), and virtual time only advances via
//! `advance` steps or when a timer fires — while periodic timers are
//! armed, only when one of them does. Replaying a trace twice yields
//! identical outcomes.

use crate::explore::Machine;
use crate::trace::{Step, Trace};
use sqpeer_exec::{node_of, Msg, PeerConfig, PeerNode, QueryId, Role};
use sqpeer_net::{Counters, Ctx, NodeId, NodeLogic};
use sqpeer_routing::PeerId;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// One in-flight message.
#[derive(Debug, Clone)]
pub struct Flight {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: Msg,
    /// When it was sent (a duplicate keeps its original's).
    pub sent_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingTimer {
    due_us: u64,
    seq: u64,
    node: NodeId,
    id: u64,
}

/// What the adversary may spend on a schedule, or has spent on one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Faults {
    pub drops: u8,
    pub dups: u8,
    pub crashes: u8,
}

/// Hosts real peers and replays trace schedules against them.
#[derive(Default)]
pub struct Conductor {
    now_us: u64,
    nodes: BTreeMap<NodeId, PeerNode>,
    down: BTreeSet<NodeId>,
    pool: Vec<Flight>,
    timers: Vec<PendingTimer>,
    seq: u64,
    /// The `drop`, `dup` and `down` steps run so far.
    spent: Faults,
    /// Every subplan identity `(root, qid, tag, attempt)` delivered to a
    /// live peer, with the peer and the restarts it had had by then.
    handed: BTreeSet<(NodeId, u32, PeerId, QueryId, u64, u32)>,
    restarts: BTreeMap<NodeId, u32>,
    /// When each peer last went down or came back up; a peer missing here
    /// has been up since boot (time 0). A ghost for the down-convergence
    /// invariant — no peer reads it.
    since: BTreeMap<NodeId, u64>,
    /// `D` in heartbeat periods (see `bounds`); a scenario sets it.
    delay_periods: u64,
    /// The protocol counters the hosted peers reported.
    pub counters: Counters,
}

impl Conductor {
    /// The state the explorer tells schedules apart by: every peer's
    /// [`PeerNode::digest`], who is down, the in-flight messages as a
    /// multiset, what the adversary has spent and the subplans handed out.
    /// Pending timers are in the peers' digests. The clock is not; what
    /// reads it is, relative to now: while a periodic timer ticks, each
    /// timer's due, and with leases on, each flight's age and the `since`
    /// ghost, saturated at their bounds.
    pub fn digest(&self) -> u64 {
        let (h, now) = (&mut DefaultHasher::new(), self.now_us);
        for (id, node) in &self.nodes {
            (id, node.digest(now)).hash(h);
        }
        let mut pool: Vec<u64> = self.pool.iter().map(|f| self.flight_digest(f)).collect();
        pool.sort_unstable();
        (&self.down, pool, self.spent, &self.handed, &self.restarts).hash(h);
        let due = |t: &PendingTimer| (t.node, self.kind(t), t.due_us.saturating_sub(now));
        let ticking = self.ticking();
        let mut timers: Vec<_> = self.timers.iter().filter(|_| ticking).map(due).collect();
        timers.sort_unstable();
        (timers, self.quiet()).hash(h);
        h.finish()
    }

    /// For each lease whose member is down and whose holder is up, how
    /// long both have been so: all the down-convergence invariant reads
    /// of the `since` ghost, saturated at its bound.
    fn quiet(&self) -> Vec<(NodeId, NodeId, u64)> {
        let Some((_, _, bound)) = self.bounds() else {
            return Vec::new();
        };
        let pairs = self.leases().into_iter();
        let pairs = pairs.filter(|(h, m)| self.down.contains(m) && !self.down.contains(h));
        let since = |n| self.since.get(&n).copied().unwrap_or(0);
        let quiet = |h, m| (self.now_us - since(h).max(since(m))).min(bound);
        pairs.map(|(h, m)| (h, m, quiet(h, m))).collect()
    }

    /// `(lease, D, down)` in µs, from the first peer running leases. A
    /// heartbeat carries no timestamp, so only `D`, the longest a message
    /// may stay in flight, keeps a stale one from renewing a dead member;
    /// what the code then meets: a member down for `down = D + lease +
    /// period` is tombstoned at every holder up for as long.
    fn bounds(&self) -> Option<(u64, u64, u64)> {
        let mut peers = self.nodes.values();
        let (lease, period) = peers.find_map(|n| n.config.ad_lease_us.zip(n.son.lease_period()))?;
        let delay = self.delay_periods * period;
        Some((lease, delay, delay + lease + period))
    }

    /// Every lease kept, as `(holder, member)`: a data peer and each peer
    /// it advertises to that runs leases.
    fn leases(&self) -> Vec<(NodeId, NodeId)> {
        let members = self.nodes.iter().filter(|(_, n)| n.role == Role::Simple);
        let ads =
            members.flat_map(|(&m, n)| n.son.ad_holders().iter().map(move |&h| (node_of(h), m)));
        let leased =
            |h: &NodeId| (self.nodes.get(h)).is_some_and(|n| n.son.lease_period().is_some());
        ads.filter(|(h, _)| leased(h)).collect()
    }

    /// Member `m`'s advertisement at holder `h`: `Some(true)` tombstoned,
    /// `Some(false)` registered, `None` neither (or both).
    fn lease_at(&self, h: NodeId, m: NodeId) -> Option<bool> {
        let (holder, peer) = (&self.nodes[&h], self.nodes[&m].id);
        let departed = holder.departed_peers().contains(&peer);
        (departed != holder.son.registry.get(peer).is_some()).then_some(departed)
    }

    /// A message in flight as the explorer tells it apart: its ends, its
    /// wire encoding and — with leases on — its age, saturated at `D`.
    fn flight_digest(&self, flight: &Flight) -> u64 {
        let h = &mut DefaultHasher::new();
        let encoded = sqpeer_wire::encode_value(&flight.msg);
        let age = self.bounds().map_or(0, |(_, delay, _)| delay);
        let age = (self.now_us - flight.sent_us).min(age);
        (flight.from, flight.to, encoded, age).hash(h);
        h.finish()
    }

    /// Adds a peer under its own id (`node_of` convention).
    pub fn add_peer(&mut self, peer: PeerNode) -> NodeId {
        let id = node_of(peer.id);
        self.nodes.insert(id, peer);
        id
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
        let sent_us = self.now_us;
        self.pool.push(Flight {
            from,
            to,
            msg,
            sent_us,
        });
    }

    fn flush(&mut self, node: NodeId, ctx: Ctx<Msg>) {
        let effects = ctx.into_effects();
        for (to, msg, _bytes) in effects.outbox {
            self.inject(node, to, msg);
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
        let Flight { from, to, msg, .. } = flight;
        // A message to an id nothing hosts is dropped, as the simulator
        // drops it.
        if !self.nodes.contains_key(&to) {
            return;
        }
        if self.down.contains(&to) {
            // The destination is down: the only signal the sender gets is
            // the delivery-failure callback.
            if !self.down.contains(&from) {
                let mut ctx = Ctx::detached(self.now_us, from);
                if let Some(sender) = self.nodes.get_mut(&from) {
                    sender.on_delivery_failure(&mut ctx, to, msg);
                }
                self.flush(from, ctx);
            }
            return;
        }
        if let Msg::Subplan {
            channel,
            qid,
            tag,
            attempt,
            ..
        } = &msg
        {
            let restarts = self.restarts.get(&to).copied().unwrap_or(0);
            let handed = (to, restarts, channel.root, *qid, *tag, *attempt);
            self.handed.insert(handed);
        }
        let mut ctx = Ctx::detached(self.now_us, to);
        if let Some(node) = self.nodes.get_mut(&to) {
            node.on_message(&mut ctx, from, msg);
        }
        self.flush(to, ctx);
    }

    /// Indices of the pool messages matching the step's selectors.
    fn matching(&self, step: &Step) -> Result<Vec<usize>, String> {
        let mut hits = Vec::new();
        for (i, flight) in self.pool.iter().enumerate() {
            if flight_matches(flight, step)? {
                hits.push(i);
            }
        }
        Ok(hits)
    }

    /// Index of the `nth` pool message matching the step's selectors.
    fn find_flight(&self, step: &Step) -> Result<usize, String> {
        let nth = step.u64_or("nth", 0)? as usize;
        let hit = self.matching(step)?.get(nth).copied();
        hit.ok_or_else(|| {
            format!(
                "step `{step}`: no matching in-flight message ({})",
                self.listing()
            )
        })
    }

    /// The pool, for error messages.
    fn listing(&self) -> String {
        let pool = self.pool.iter();
        let pool: Vec<String> = pool
            .map(|f| format!("{} {}->{}", msg_kind(&f.msg), f.from.0, f.to.0))
            .collect();
        format!("pool: [{}]", pool.join(", "))
    }

    /// The clock once `t` fires: its due — except that while periodic
    /// timers tick, they alone move the clock, and a one-shot timer fires
    /// early, at now.
    fn fire_at(&self, t: &PendingTimer) -> u64 {
        if self.ticking() && !self.periodic(t) {
            return self.now_us;
        }
        self.now_us.max(t.due_us)
    }

    /// Is a periodic timer armed — is the clock state?
    fn ticking(&self) -> bool {
        self.timers.iter().any(|t| self.periodic(t))
    }

    fn fire_timer(&mut self, at: usize) {
        self.now_us = self.fire_at(&self.timers[at]);
        let timer = self.timers.remove(at);
        let mut ctx = Ctx::detached(self.now_us, timer.node);
        if let Some(node) = self.nodes.get_mut(&timer.node) {
            node.on_timer(&mut ctx, timer.id);
        }
        self.flush(timer.node, ctx);
    }

    /// The kind of timer `t` is, as its peer names it.
    fn kind(&self, t: &PendingTimer) -> &'static str {
        self.nodes
            .get(&t.node)
            .map_or("?", |node| node.timer_kind(t.id))
    }

    /// Does pending timer `t` re-arm itself whenever it fires? Such a timer
    /// never quiesces: `drain` never fires it, and the explorer only as
    /// the next tick of the clock.
    fn periodic(&self, t: &PendingTimer) -> bool {
        (self.nodes.get(&t.node)).is_some_and(|node| node.timer_periodic(t.id))
    }

    /// Index (into `self.timers`) of the earliest-due timer matching the
    /// step's `node=` / `kind=` / `nth=` selectors.
    fn find_timer(&self, step: &Step) -> Result<usize, String> {
        let (node, kind) = (step.get_u64("node")?, step.get("kind"));
        let mut hits: Vec<usize> = (0..self.timers.len())
            .filter(|&i| {
                let t = &self.timers[i];
                node.is_none_or(|n| n == u64::from(t.node.0))
                    && kind.is_none_or(|k| k == self.kind(t))
            })
            .collect();
        hits.sort_by_key(|&i| (self.timers[i].due_us, self.timers[i].seq));
        hits.get(step.u64_or("nth", 0)? as usize)
            .copied()
            .ok_or_else(|| {
                let pending = self.timers.iter();
                let pending = pending
                    .map(|t| format!("node={} kind={} due={}us", t.node.0, self.kind(t), t.due_us));
                let pending = pending.collect::<Vec<_>>().join(", ");
                format!("step `{step}`: no matching timer (pending: [{pending}])")
            })
    }

    /// Fair completion: deliver every pooled message (FIFO), firing due
    /// one-shot timers (completions, productions, retry timeouts) as the
    /// pool runs dry. [Periodic](Conductor::periodic) timers stay armed —
    /// a trace fires them explicitly.
    fn drain(&mut self) -> Result<(), String> {
        for _ in 0..100_000 {
            if !self.pool.is_empty() {
                let flight = self.pool.remove(0);
                self.dispatch(flight);
                continue;
            }
            let next = (0..self.timers.len())
                .filter(|&i| !self.periodic(&self.timers[i]))
                .min_by_key(|&i| (self.timers[i].due_us, self.timers[i].seq));
            match next {
                Some(i) => self.fire_timer(i),
                None => return Ok(()),
            }
        }
        Err("drain: event budget exceeded (livelock in the real logic?)".to_string())
    }

    /// The peer a step's `node=` names.
    fn peer(&self, step: &Step) -> Result<&PeerNode, String> {
        let node = NodeId(step.need_u64("node")? as u32);
        let peer = self.nodes.get(&node);
        peer.ok_or_else(|| format!("step `{step}`: unknown node {}", node.0))
    }

    fn expect(&self, step: &Step) -> Result<(), String> {
        let fail = |what: String| Err(format!("step `{step}`: {what}"));
        match step.get("kind") {
            Some("outcome") => {
                let qid = QueryId(step.need_u64("qid")?);
                let Some(o) = self.peer(step)?.outcome(qid) else {
                    return fail(format!("no outcome for {qid}"));
                };
                let (rows, missing) = (o.result.len() as u64, o.missing.len() as u64);
                if let Some(want) = step.get_u64("rows")?.filter(|&want| want != rows) {
                    return fail(format!("expected {want} rows, got {rows}"));
                }
                if let Some(want) = step.get_u64("missing")?.filter(|&want| want != missing) {
                    return fail(format!("expected {want} missing, got {:?}", o.missing));
                }
                match step.get("status") {
                    Some("complete") if o.partial => fail(format!(
                        "expected complete, got partial (missing {:?})",
                        o.missing
                    )),
                    Some("partial") if !o.partial => fail("expected partial, got complete".into()),
                    Some(other) if !matches!(other, "complete" | "partial") => {
                        fail(format!("unknown status `{other}`"))
                    }
                    _ => Ok(()),
                }
            }
            Some(kind @ ("registered" | "departed")) => {
                let (peer, id) = (self.peer(step)?, PeerId(step.need_u64("peer")? as u32));
                let registered = peer.son.registry.get(id).is_some();
                let departed = peer.departed_peers().contains(&id);
                if (kind == "departed" && !departed) || (kind == "registered" && !registered) {
                    let peer = id.0;
                    return fail(format!(
                        "peer {peer} not {kind} (registered: {registered}, departed: {departed})"
                    ));
                }
                Ok(())
            }
            Some("dedups") => {
                let min = step.u64_or("min", 1)? as usize;
                let saw = self.counters.stream_dedup_drops;
                if saw < min {
                    return fail(format!("expected ≥{min} stream dedup drops, saw {saw}"));
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
                let kv = step.kv.iter().filter(|(k, _)| k != "kind" && k != "count");
                let kv: Vec<_> = kv
                    .map(|(k, v)| (if k == "msg" { "kind" } else { k }, v.clone()))
                    .collect();
                let found = self.matching(&line("deliver", &selectors(&kv, 0)))?.len();
                if found as u64 != want {
                    return fail(format!(
                        "expected {want} matching, found {found} ({})",
                        self.listing()
                    ));
                }
                Ok(())
            }
            Some("quiet") if !self.pool.is_empty() => {
                fail(format!("{} messages still in flight", self.pool.len()))
            }
            Some("quiet") => Ok(()),
            other => fail(format!("unknown expectation {other:?}")),
        }
    }

    /// Executes one step. Unknown verbs are errors — a trace that cannot
    /// run must fail loudly, not silently skip.
    pub fn run_step(&mut self, step: &Step) -> Result<(), String> {
        match step.verb.as_str() {
            "deliver" => {
                let flight = self.pool.remove(self.find_flight(step)?);
                self.dispatch(flight);
            }
            "drop" => {
                self.pool.remove(self.find_flight(step)?);
                self.spent.drops += 1;
            }
            "dup" => {
                let copy = self.pool[self.find_flight(step)?].clone();
                self.pool.push(copy);
                self.spent.dups += 1;
            }
            "timer" => {
                let i = self.find_timer(step)?;
                self.fire_timer(i);
            }
            "advance" => self.now_us += step.need_u64("us")?,
            "down" => {
                let node = NodeId(step.need_u64("node")? as u32);
                self.down.insert(node);
                self.since.insert(node, self.now_us);
                self.spent.crashes += 1;
                // A crashed process loses its pending timers.
                self.timers.retain(|t| t.node != node);
            }
            "up" => {
                let node = NodeId(step.need_u64("node")? as u32);
                if !self.down.remove(&node) {
                    return Err(format!("step `{step}`: node {} was not down", node.0));
                }
                *self.restarts.entry(node).or_default() += 1;
                self.since.insert(node, self.now_us);
                let mut ctx = Ctx::detached(self.now_us, node);
                if let Some(n) = self.nodes.get_mut(&node) {
                    n.on_restart(&mut ctx);
                }
                self.flush(node, ctx);
            }
            "drain" => self.drain()?,
            "expect" => self.expect(step)?,
            other => return Err(format!("step `{step}`: unknown verb `{other}`")),
        }
        Ok(())
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

/// Numeric field of a flight addressable from a selector: one of its
/// ends, or a field of its message.
fn field(flight: &Flight, key: &str) -> Option<u64> {
    match (&flight.msg, key) {
        (_, "from") => Some(u64::from(flight.from.0)),
        (_, "to") => Some(u64::from(flight.to.0)),
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
            _ => {
                let number = || format!("step `{step}`: {key}={value} is not a number");
                let want: u64 = value.parse().map_err(|_| number())?;
                field(flight, key) == Some(want)
            }
        };
        if !hit {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A trace line: `verb` and its selectors.
fn line(verb: &str, kv: &[(String, String)]) -> Step {
    let (verb, kv) = (verb.to_string(), kv.to_vec());
    Step { verb, kv }
}

/// Selectors `(key, value)` from pairs, plus `nth=` when `nth` earlier
/// candidates match them too.
fn selectors(pairs: &[(&str, String)], nth: usize) -> Vec<(String, String)> {
    let nth = (nth > 0).then(|| ("nth", nth.to_string()));
    let pairs = pairs.iter().cloned().chain(nth);
    pairs.map(|(k, v)| (k.to_string(), v)).collect()
}

/// One bounded configuration of the [`PeerMachine`]: a scenario and what
/// the adversary may spend on it.
#[derive(Debug, Clone, Copy)]
pub struct PeerCfg {
    pub name: &'static str,
    pub scenario: fn() -> Conductor,
    pub budget: Faults,
}

/// A state of the [`PeerMachine`]: the first — so shortest — schedule the
/// explorer found to it, with the steps enabled, the invariant verdict and
/// the goal test taken where its replay ended. Identified by the
/// [`Conductor::digest`] there, which is what its `Debug` prints.
#[derive(Clone)]
pub struct Reached {
    digest: u64,
    schedule: Vec<Step>,
    next: Vec<Step>,
    verdict: Result<(), String>,
    goal: bool,
}

impl PartialEq for Reached {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
    }
}

impl Eq for Reached {}

impl Hash for Reached {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.digest.hash(h);
    }
}

impl std::fmt::Debug for Reached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let steps = self.schedule.len();
        write!(f, "digest={:016x} after {steps} steps", self.digest)
    }
}

/// The peers of a [`scenarios`] builder under a budgeted adversary, as a
/// [`Machine`]. Its invariants are those of the hand-written dispatch,
/// replan and lease models it replaced, checked on real outcomes against
/// an oracle — the scenario drained with no adversary:
///
/// - honesty: an answer is partial exactly when it names missing peers,
///   and a complete one has the oracle's rows;
/// - soundness: no answer has a row the oracle lacks;
/// - dedup: a peer rooting no query evaluates at most once per distinct
///   `(root, qid, tag, attempt)` delivered to it (per incarnation);
/// - ladder: no subplan in flight carries an attempt beyond its sender's
///   `subplan_retries`;
/// - replans: no answer took more than [`PeerConfig::MAX_REPLANS`];
/// - grant: no lease deadline lies more than a lease past now;
/// - down-convergence: a member down, at a holder up, for the bound the
///   code meets (`Conductor::bounds`) is tombstoned there.
///
/// The goal is every posed query answered at its root, every live member
/// registered and every down one tombstoned at each live holder, and
/// nothing but heartbeats in flight.
pub struct PeerMachine {
    cfg: PeerCfg,
    /// The posed queries, `(root, qid)`, with the oracle's rows.
    oracle: BTreeMap<(NodeId, QueryId), BTreeSet<String>>,
}

/// An answer's rows, as a set of renderings.
fn rows(result: &sqpeer_rql::ResultSet) -> BTreeSet<String> {
    result.rows.iter().map(|row| format!("{row:?}")).collect()
}

impl PeerMachine {
    pub fn new(cfg: PeerCfg) -> Self {
        let mut oracle = (cfg.scenario)();
        let posed: Vec<(NodeId, QueryId)> = (oracle.pool.iter())
            .filter_map(|f| match f.msg {
                Msg::ClientQuery { qid, .. } => Some((f.to, qid)),
                _ => None,
            })
            .collect();
        oracle.drain().expect("the scenario drains");
        let answer = |(root, qid)| {
            let outcome = oracle.nodes[&root].outcome(qid);
            (
                (root, qid),
                rows(&outcome.expect("the oracle answers").result),
            )
        };
        let oracle = posed.into_iter().map(answer).collect();
        PeerMachine { cfg, oracle }
    }

    fn roots(&self, node: NodeId) -> bool {
        self.oracle.keys().any(|&(root, _)| root == node)
    }

    /// Replays `schedule` on a fresh scenario — the one replay a state
    /// costs — and takes there everything the explorer asks of the state.
    fn reach(&self, schedule: Vec<Step>) -> Reached {
        let mut c = (self.cfg.scenario)();
        for step in &schedule {
            let replayed = c.run_step(step);
            replayed.unwrap_or_else(|e| panic!("{}: a schedule does not replay: {e}", self.name()));
        }
        let answered =
            (self.oracle.keys()).all(|&(root, qid)| c.nodes[&root].outcome(qid).is_some());
        let settled = (c.leases().into_iter())
            .filter(|(h, _)| !c.down.contains(h))
            .all(|(h, m)| c.lease_at(h, m) == Some(c.down.contains(&m)));
        Reached {
            digest: c.digest(),
            next: self.next(&c),
            verdict: self.check(&c),
            goal: answered && settled && c.pool.iter().all(|f| matches!(f.msg, Msg::Heartbeat)),
            schedule,
        }
    }

    /// Deliver any message in flight; drop or duplicate one a peer sent
    /// (the client's injection stays reliable) while the budget lasts;
    /// fire any pending one-shot timer, in any order — one fired early
    /// stands for a slow link; fire the earliest-due periodic timer — the
    /// clock's tick — unless it would pass a one-shot's due; never fire a
    /// timer that leaves a message in flight longer than `D`; take a peer
    /// rooting no query down while the budget lasts, or bring it back up.
    fn next(&self, c: &Conductor) -> Vec<Step> {
        let (budget, spent, mut out) = (self.cfg.budget, c.spent, Vec::new());
        let mut seen = BTreeSet::new();
        for (i, f) in c.pool.iter().enumerate() {
            if !seen.insert(c.flight_digest(f)) {
                continue; // the same successors as its twin
            }
            let mut pairs = vec![("kind", msg_kind(&f.msg).to_string())];
            for key in ["from", "to", "qid", "tag", "seq", "attempt"] {
                pairs.extend(field(f, key).map(|n| (key, n.to_string())));
            }
            let probe = line("deliver", &selectors(&pairs, 0));
            let twins = c.pool[..i]
                .iter()
                .filter(|g| flight_matches(g, &probe) == Ok(true));
            let kv = selectors(&pairs, twins.count());
            let injected = matches!(f.msg, Msg::ClientQuery { .. });
            out.push(line("deliver", &kv));
            if !injected && spent.drops < budget.drops {
                out.push(line("drop", &kv));
            }
            if !injected && spent.dups < budget.dups {
                out.push(line("dup", &kv));
            }
        }
        let mut timers: Vec<&PendingTimer> = c.timers.iter().collect();
        timers.sort_by_key(|t| (t.due_us, t.seq));
        let tick = timers.iter().find(|t| c.periodic(t)).map(|t| t.seq);
        let delay = c.bounds().map_or(u64::MAX, |(_, delay, _)| delay);
        for (i, t) in timers.iter().enumerate() {
            let at = c.fire_at(t);
            let stale = c.pool.iter().any(|f| at - f.sent_us > delay);
            let overdue = timers.iter().any(|u| !c.periodic(u) && u.due_us < at);
            if stale || (c.periodic(t) && (overdue || Some(t.seq) != tick)) {
                continue;
            }
            let twins = timers[..i]
                .iter()
                .filter(|u| u.node == t.node && c.kind(u) == c.kind(t));
            let pairs = [
                ("node", t.node.0.to_string()),
                ("kind", c.kind(t).to_string()),
            ];
            out.push(line("timer", &selectors(&pairs, twins.count())));
        }
        for (&id, node) in &c.nodes {
            let kv = selectors(&[("node", id.0.to_string())], 0);
            if node.role == Role::Client || self.roots(id) {
                continue;
            } else if c.down.contains(&id) {
                out.push(line("up", &kv));
            } else if spent.crashes < budget.crashes {
                out.push(line("down", &kv));
            }
        }
        out
    }

    fn check(&self, c: &Conductor) -> Result<(), String> {
        for (&(root, qid), oracle) in &self.oracle {
            let Some(o) = c.nodes[&root].outcome(qid) else {
                continue;
            };
            let (got, partial, missing) = (rows(&o.result), o.partial, &o.missing);
            if partial == missing.is_empty() {
                return Err(format!(
                    "honesty: {qid} partial={partial} missing {missing:?}"
                ));
            }
            if !partial && (got != *oracle || o.result.len() != oracle.len()) {
                return Err(format!(
                    "honesty: {qid} complete: {got:?}, oracle {oracle:?}"
                ));
            }
            if !got.is_subset(oracle) {
                return Err(format!(
                    "soundness: {qid} answered {got:?}, oracle {oracle:?}"
                ));
            }
            if o.replans > PeerConfig::MAX_REPLANS {
                return Err(format!("replans: {qid} re-planned {} times", o.replans));
            }
        }
        for (&id, node) in c.nodes.iter().filter(|(&id, _)| !self.roots(id)) {
            let handed = c.handed.iter().filter(|h| h.0 == id).count();
            let evals = node.queries_processed;
            if evals > handed {
                return Err(format!(
                    "dedup: node {} evaluated {evals}× for {handed} subplans",
                    id.0
                ));
            }
        }
        for f in &c.pool {
            let (from, retries) = (f.from.0, c.nodes[&f.from].config.subplan_retries);
            if let Msg::Subplan { attempt, .. } = f.msg {
                if attempt > retries {
                    return Err(format!(
                        "ladder: node {from} sent attempt {attempt} of {retries}"
                    ));
                }
            }
        }
        let Some((lease, _, down)) = c.bounds() else {
            return Ok(());
        };
        for (id, node) in &c.nodes {
            for (peer, &at) in node.son.lease_deadlines() {
                if at > c.now_us + lease {
                    let (id, peer, now) = (id.0, peer.0, c.now_us);
                    return Err(format!("grant: node {id} holds {peer} to {at} at {now}"));
                }
            }
        }
        for (h, m, quiet) in c.quiet() {
            if quiet >= down && c.lease_at(h, m) != Some(true) {
                let (h, m) = (h.0, m.0);
                return Err(format!("down-convergence: {m} down {down} µs, live at {h}"));
            }
        }
        Ok(())
    }
}

impl Machine for PeerMachine {
    type State = Reached;
    type Action = Step;

    fn name(&self) -> String {
        format!("peer/{}", self.cfg.name)
    }

    fn initial(&self) -> Reached {
        self.reach(Vec::new())
    }

    fn actions(&self, s: &Reached, out: &mut Vec<Step>) {
        out.extend(s.next.iter().cloned());
    }

    fn apply(&self, s: &Reached, a: &Step) -> Reached {
        self.reach(s.schedule.iter().chain([a]).cloned().collect())
    }

    fn invariant(&self, s: &Reached) -> Result<(), String> {
        s.verdict.clone()
    }

    fn is_goal(&self, s: &Reached) -> bool {
        s.goal
    }

    fn is_fair(&self, a: &Step) -> bool {
        matches!(a.verb.as_str(), "deliver" | "timer" | "up")
    }

    fn render_action(&self, a: &Step) -> String {
        a.to_string()
    }
}

/// The bounded configurations CI explores to a fixpoint. Between them: a
/// deep retry ladder, drop plus duplicate, duplicates across rounds, a
/// crashed contributor and the replan it forces, a failover to a second
/// contributor, two concurrent queries, loss inside a streamed answer,
/// and leases under duplication, loss, member and holder crashes, and a
/// crashed streamer.
pub fn configs() -> Vec<PeerCfg> {
    let cfg = |name, scenario, (drops, dups, crashes)| PeerCfg {
        name,
        scenario,
        budget: Faults {
            drops,
            dups,
            crashes,
        },
    };
    use scenarios::{failover_trio, retry_pair, retry_pair_twice};
    use scenarios::{lease_super_pair, streaming_lease_pair, streaming_pair};
    vec![
        cfg("retry2-drop", || retry_pair(2), (1, 0, 0)),
        cfg("retry1-drop-dup", || retry_pair(1), (1, 1, 0)),
        cfg("retry0-drop-2dups", || retry_pair(0), (1, 2, 0)),
        cfg("retry1-crash", || retry_pair(1), (0, 0, 1)),
        cfg("failover-drop", || failover_trio(0), (1, 0, 0)),
        cfg("two-queries-dup", || retry_pair_twice(0), (0, 1, 0)),
        cfg("stream-drop", || streaming_pair(2, 1), (1, 0, 0)),
        cfg("lease-steady-dup", || lease_super_pair(true), (0, 1, 0)),
        cfg("lease-crash-drop", || lease_super_pair(true), (1, 0, 1)),
        cfg("lease-crash-dup", || lease_super_pair(true), (0, 1, 1)),
        cfg("lease-holder-restart", || lease_super_pair(true), (0, 0, 2)),
        cfg("lease-stream-crash", streaming_lease_pair, (0, 0, 1)),
    ]
}

/// Shared scenario builders for the named conformance traces. Each
/// returns a booted [`Conductor`], with the client query already pooled
/// unless it says otherwise; the trace owns the schedule from there on.
pub mod scenarios {
    use super::*;
    use sqpeer_exec::PeerMode;
    use sqpeer_rdfs::{Range, Resource, Schema, SchemaBuilder, Triple};
    use sqpeer_rql::compile;
    use sqpeer_store::DescriptionBase;
    use std::sync::Arc;

    /// The paper's Fig. 1 schema fragment used across exec tests.
    pub fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        b.property("prop1", c1, Range::Class(c2)).unwrap();
        b.property("prop2", c2, Range::Class(c3)).unwrap();
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
        let ads = peers.iter().map(|p| p.own_advertisement().unwrap());
        let ads: Vec<_> = ads.collect();
        let ids: Vec<PeerId> = peers.iter().map(|p| p.id).collect();
        for peer in &mut peers {
            for ad in &ads {
                peer.son.registry.register(ad.clone());
            }
            peer.son.neighbours = ids.iter().copied().filter(|&id| id != peer.id).collect();
        }

        let mut conductor = Conductor::default();
        for peer in peers {
            conductor.add_peer(peer);
        }
        conductor.add_peer(PeerNode::client(PeerId(99)));
        conductor.boot();

        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let qid = QueryId(1);
        conductor.inject(NodeId(99), NodeId(1), Msg::ClientQuery { qid, query });
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
        streaming(rows, window, None)
    }

    /// [`streaming_pair`]`(2, 1)` under [`LEASE_US`] leases, with a subplan
    /// timeout of one heartbeat period and no retries: a lease can run out
    /// while the answer streams.
    pub fn streaming_lease_pair() -> Conductor {
        streaming(2, 1, Some(LEASE_US))
    }

    fn streaming(rows: usize, window: u32, lease_us: Option<u64>) -> Conductor {
        let mut config = adhoc_config();
        config.stream_batch_rows = Some(rows);
        config.stream_credit_window = window;
        if let Some(lease) = lease_us {
            config.ad_lease_us = lease_us;
            config.subplan_timeout_us = Some(lease / 4);
            config.subplan_retries = 0;
        }
        let triples = ["c0", "c1", "c2", "c3"].map(|c| ("b", "prop2", c));
        build(config, &[&triples])
    }

    /// [`chain_pair`] with the at-least-once ladder armed: a finite
    /// subplan timeout and `retries` re-sends.
    pub fn retry_pair(retries: u32) -> Conductor {
        chain_pair(|config| {
            config.subplan_timeout_us = Some(200_000);
            config.subplan_retries = retries;
        })
    }

    /// [`retry_pair`] with a second client query, `qid=2`, pooled beside
    /// the first: two concurrent queries share the root and the holder.
    pub fn retry_pair_twice(retries: u32) -> Conductor {
        let mut conductor = retry_pair(retries);
        let mut second = conductor.pool[0].clone();
        if let Msg::ClientQuery { qid, .. } = &mut second.msg {
            *qid = QueryId(2);
        }
        conductor.pool.push(second);
        conductor
    }

    /// [`chain_pair`] with advertisement leases armed at `lease_us`
    /// (heartbeat/sweep period is a quarter of that).
    pub fn lease_pair(lease_us: u64) -> Conductor {
        chain_pair(|config| {
            config.ad_lease_us = Some(lease_us);
        })
    }

    /// The lease the lease scenarios run: heartbeat and sweep every 1 s.
    pub const LEASE_US: u64 = 4_000_000;

    /// The §3.1 SON at its smallest: super-peer P1 holds the
    /// advertisement of its one hybrid member P2 under a [`LEASE_US`]
    /// lease, `D` one heartbeat period, and no query is posed — P2
    /// heartbeats, P1 sweeps, and either may crash. With `member_leases`
    /// off, P2 never heartbeats.
    pub fn lease_super_pair(member_leases: bool) -> Conductor {
        let config = |on: bool| PeerConfig {
            ad_lease_us: on.then_some(LEASE_US),
            ..PeerConfig::default()
        };
        let base = base_with(&fig1_schema(), &[("b", "prop2", "c")]);
        let mut member = PeerNode::simple(PeerId(2), base, config(member_leases));
        member.son.super_peers = vec![PeerId(1)];
        let mut holder = PeerNode::super_peer(PeerId(1), config(true));
        let ad = member.own_advertisement().unwrap();
        holder.son.registry.register(ad);
        let mut conductor = Conductor {
            delay_periods: 1,
            ..Conductor::default()
        };
        conductor.add_peer(holder);
        conductor.add_peer(member);
        conductor.boot();
        conductor
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

    /// The observability plane's rollup timer re-arms itself forever, like
    /// the lease timers: `drain` must leave it armed rather than chase it
    /// through its event budget.
    #[test]
    fn drain_leaves_the_periodic_obs_timer_armed() {
        let mut conductor = scenarios::chain_pair(|config| {
            config.obs = Some(sqpeer_exec::ObsConfig::default());
        });
        let trace = parse(
            "unit-obs-drain",
            "deliver kind=clientquery\ndrain\nexpect outcome node=1 qid=1 status=complete rows=1",
        )
        .unwrap();
        conductor.run(&trace).unwrap();
        let armed = conductor.timers.iter().filter(|t| conductor.periodic(t));
        assert_eq!(armed.count(), 2, "one rollup timer per serving peer");
    }

    /// A subplan addressed to an id nothing hosts vanishes, as on the
    /// simulator: the root hears no delivery failure, so it neither
    /// re-plans nor gives the peer up, and nothing new is sent.
    #[test]
    fn a_message_to_an_unhosted_id_is_dropped_silently() {
        let mut conductor = scenarios::chain_pair(|_| {});
        let trace = parse("unit-unhosted", "deliver kind=clientquery").unwrap();
        conductor.run(&trace).unwrap();
        let mut flight = conductor.pool.remove(0);
        assert_eq!(msg_kind(&flight.msg), "subplan");
        assert!(conductor.pool.is_empty());
        flight.to = NodeId(9);
        conductor.dispatch(flight);
        assert!(conductor.pool.is_empty(), "{}", conductor.listing());
        assert_eq!(conductor.counters, Counters::default());
    }

    #[test]
    fn unknown_verbs_are_rejected() {
        let mut conductor = Conductor::default();
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
            config.slow_channel = true;
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
