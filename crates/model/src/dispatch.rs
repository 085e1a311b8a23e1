//! Small-state model of the at-least-once dispatch machine
//! (`crates/exec/src/dispatch.rs`: `Dispatcher::dispatch`, `timed_out` —
//! the timeout ladder — and `data`; the destination's `ServedLog` in
//! `crates/exec/src/peer.rs`).
//!
//! A root R dispatches one subplan per query to a destination D over an
//! adversarial network. The subplan may be re-sent up to `retries` times
//! by an adversarially-timed timeout (the model lets the timer race every
//! delivery, covering premature firings); D's `(root,qid,tag)` dedup log
//! accepts each attempt at most once, so duplicated or re-sent subplans
//! never evaluate twice. When the ladder is exhausted the root either
//! fails over to an alternate holder A (recording D in the query's
//! `missing` set — an honest partial) or finalises partial directly.
//!
//! ## Invariants
//! - Dedup: D evaluates at most `retries + 1` times per query, and at
//!   most once per attempt; A evaluates at most once.
//! - Soundness: a recorded answer implies the answering peer actually
//!   evaluated the subplan.
//! - Completeness honesty: an outcome claiming completeness implies no
//!   contributor was excluded and the missing set is empty.
//! - The attempt counter never exceeds the configured ladder depth.
//!
//! ## Liveness
//! Under fair delivery (drops and duplication withheld) every query
//! reaches an outcome — complete via D, or honestly partial via the
//! ladder — in finitely many steps.

use crate::explore::Machine;

/// One bounded dispatch-machine configuration.
#[derive(Debug, Clone)]
pub struct DispatchCfg {
    /// Concurrent queries (1 or 2), each with its own tag at D.
    pub queries: u8,
    /// Subplan re-sends before the root gives up on D.
    pub retries: u8,
    /// Is an alternate holder available for failover?
    pub alternate: bool,
    /// May the adversary drop messages?
    pub drops: bool,
    /// Messages the adversary may duplicate (total).
    pub dup_budget: u8,
    pub name: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DispatchMsg {
    /// Subplan attempt `a` for query `q`, addressed to D.
    Subplan { q: u8, attempt: u8 },
    /// D's answer for query `q`.
    DataD { q: u8 },
    /// Failover subplan attempt for query `q`, addressed to A (the
    /// alternate runs the same at-least-once ladder as D).
    SubplanAlt { q: u8, attempt: u8 },
    /// A's answer for query `q`.
    DataA { q: u8 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QOutcome {
    Pending,
    /// Answered by D, nothing excluded.
    Complete,
    /// Answered by A after excluding D (partial, missing = {D}).
    PartialViaAlt,
    /// Ladder exhausted, no alternate: partial, missing = {D}.
    PartialGaveUp,
}

/// Per-query protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryState {
    /// Attempts dispatched to D so far (0 = initial dispatch only).
    pub attempt: u8,
    /// Highest attempt D has served, or `None` (the dedup log).
    pub served_d: Option<u8>,
    /// Times D actually evaluated the subplan.
    pub evals_d: u8,
    /// Has the failover subplan been dispatched, and how far along is
    /// its own retry ladder?
    pub alt_dispatched: bool,
    pub alt_attempt: u8,
    /// Highest attempt A has served, or `None` (A's dedup log).
    pub served_a: Option<u8>,
    pub evals_a: u8,
    /// Is the D-subplan still outstanding at the root (tag live)?
    pub outstanding_d: bool,
    pub outstanding_a: bool,
    pub outcome: QOutcome,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DispatchState {
    pub queries: Vec<QueryState>,
    pub net: Vec<DispatchMsg>,
    pub dups_left: u8,
}

#[derive(Debug, Clone)]
pub enum DispatchAct {
    Deliver(usize, DispatchMsg),
    Drop(usize, DispatchMsg),
    Dup(usize, DispatchMsg),
    /// The root's subplan timeout for query `q` (towards D) fires.
    Timeout(u8),
    /// The failover subplan's timeout for query `q` (towards A) fires.
    TimeoutAlt(u8),
}

pub struct DispatchMachine {
    pub cfg: DispatchCfg,
}

impl DispatchMachine {
    pub fn new(cfg: DispatchCfg) -> Self {
        DispatchMachine { cfg }
    }
}

impl DispatchMsg {
    fn render(self) -> String {
        match self {
            DispatchMsg::Subplan { q, attempt } => format!("subplan q={q} attempt={attempt}"),
            DispatchMsg::DataD { q } => format!("data q={q} from=dest"),
            DispatchMsg::SubplanAlt { q, attempt } => {
                format!("subplan q={q} to=alt attempt={attempt}")
            }
            DispatchMsg::DataA { q } => format!("data q={q} from=alt"),
        }
    }
}

impl Machine for DispatchMachine {
    type State = DispatchState;
    type Action = DispatchAct;

    fn name(&self) -> String {
        format!("dispatch/{}", self.cfg.name)
    }

    fn initial(&self) -> DispatchState {
        let mut net = Vec::new();
        let mut queries = Vec::new();
        for q in 0..self.cfg.queries {
            net.push(DispatchMsg::Subplan { q, attempt: 0 });
            queries.push(QueryState {
                attempt: 0,
                served_d: None,
                evals_d: 0,
                alt_dispatched: false,
                alt_attempt: 0,
                served_a: None,
                evals_a: 0,
                outstanding_d: true,
                outstanding_a: false,
                outcome: QOutcome::Pending,
            });
        }
        net.sort_unstable();
        DispatchState {
            queries,
            net,
            dups_left: self.cfg.dup_budget,
        }
    }

    fn actions(&self, s: &DispatchState, out: &mut Vec<DispatchAct>) {
        for i in 0..s.net.len() {
            if i > 0 && s.net[i] == s.net[i - 1] {
                continue;
            }
            out.push(DispatchAct::Deliver(i, s.net[i]));
            if self.cfg.drops {
                out.push(DispatchAct::Drop(i, s.net[i]));
            }
            if s.dups_left > 0 {
                out.push(DispatchAct::Dup(i, s.net[i]));
            }
        }
        for (q, qs) in s.queries.iter().enumerate() {
            // A timeout can race any delivery while the D-subplan is
            // outstanding (the real timer is re-armed per attempt).
            if qs.outstanding_d && qs.outcome == QOutcome::Pending {
                out.push(DispatchAct::Timeout(q as u8));
            }
            if qs.outstanding_a && qs.outcome == QOutcome::Pending {
                out.push(DispatchAct::TimeoutAlt(q as u8));
            }
        }
    }

    fn apply(&self, s: &DispatchState, a: &DispatchAct) -> DispatchState {
        let mut next = s.clone();
        match *a {
            DispatchAct::Drop(i, _) => {
                next.net.remove(i);
            }
            DispatchAct::Dup(i, _) => {
                let m = next.net[i];
                next.net.push(m);
                next.dups_left -= 1;
            }
            DispatchAct::Timeout(q) => {
                let qs = &mut next.queries[q as usize];
                if qs.attempt < self.cfg.retries {
                    // Retry: same tag, bumped attempt, backoff elided
                    // (timing is the adversary's choice anyway).
                    qs.attempt += 1;
                    next.net.push(DispatchMsg::Subplan {
                        q,
                        attempt: qs.attempt,
                    });
                } else {
                    // Ladder exhausted: fail towards D, exclude it.
                    qs.outstanding_d = false;
                    if self.cfg.alternate && !qs.alt_dispatched {
                        qs.alt_dispatched = true;
                        qs.outstanding_a = true;
                        next.net.push(DispatchMsg::SubplanAlt { q, attempt: 0 });
                    } else {
                        qs.outcome = QOutcome::PartialGaveUp;
                    }
                }
            }
            DispatchAct::TimeoutAlt(q) => {
                let qs = &mut next.queries[q as usize];
                if qs.alt_attempt < self.cfg.retries {
                    qs.alt_attempt += 1;
                    next.net.push(DispatchMsg::SubplanAlt {
                        q,
                        attempt: qs.alt_attempt,
                    });
                } else {
                    // Both contributors exhausted: honest partial.
                    qs.outstanding_a = false;
                    qs.outcome = QOutcome::PartialGaveUp;
                }
            }
            DispatchAct::Deliver(i, expect) => {
                let msg = next.net.remove(i);
                debug_assert_eq!(msg, expect, "action/state index drift");
                match msg {
                    DispatchMsg::Subplan { q, attempt } => {
                        let qs = &mut next.queries[q as usize];
                        // The `(root,qid,tag)` dedup log: evaluate only a
                        // strictly newer attempt.
                        if qs.served_d.is_none_or(|seen| attempt > seen) {
                            qs.served_d = Some(attempt);
                            qs.evals_d += 1;
                            next.net.push(DispatchMsg::DataD { q });
                        }
                    }
                    DispatchMsg::DataD { q } => {
                        let qs = &mut next.queries[q as usize];
                        // Stray answers (tag retired by exclusion or an
                        // earlier fill) are dropped at the root.
                        if qs.outstanding_d && qs.outcome == QOutcome::Pending {
                            qs.outstanding_d = false;
                            qs.outcome = QOutcome::Complete;
                        }
                    }
                    DispatchMsg::SubplanAlt { q, attempt } => {
                        let qs = &mut next.queries[q as usize];
                        if qs.served_a.is_none_or(|seen| attempt > seen) {
                            qs.served_a = Some(attempt);
                            qs.evals_a += 1;
                            next.net.push(DispatchMsg::DataA { q });
                        }
                    }
                    DispatchMsg::DataA { q } => {
                        let qs = &mut next.queries[q as usize];
                        if qs.outstanding_a && qs.outcome == QOutcome::Pending {
                            qs.outstanding_a = false;
                            // D was excluded on the way here: the answer
                            // is honest-partial with missing = {D}.
                            qs.outcome = QOutcome::PartialViaAlt;
                        }
                    }
                }
            }
        }
        next.net.sort_unstable();
        next
    }

    fn invariant(&self, s: &DispatchState) -> Result<(), String> {
        for (q, qs) in s.queries.iter().enumerate() {
            if qs.attempt > self.cfg.retries {
                return Err(format!(
                    "query {q}: attempt {} exceeds ladder depth {}",
                    qs.attempt, self.cfg.retries
                ));
            }
            if qs.evals_d > self.cfg.retries + 1 {
                return Err(format!(
                    "query {q}: dedup violation — D evaluated {} times for {} attempts",
                    qs.evals_d,
                    self.cfg.retries + 1
                ));
            }
            if qs.evals_a > self.cfg.retries + 1 {
                return Err(format!(
                    "query {q}: dedup violation — alternate evaluated {} times for {} attempts",
                    qs.evals_a,
                    self.cfg.retries + 1
                ));
            }
            if qs.alt_attempt > self.cfg.retries {
                return Err(format!(
                    "query {q}: alternate attempt {} exceeds ladder depth {}",
                    qs.alt_attempt, self.cfg.retries
                ));
            }
            match qs.outcome {
                QOutcome::Complete => {
                    // Soundness + honesty: a complete claim needs a real
                    // evaluation by the non-excluded contributor.
                    if qs.evals_d == 0 {
                        return Err(format!(
                            "query {q}: unsound answer — complete without any D evaluation"
                        ));
                    }
                    if qs.alt_dispatched {
                        return Err(format!(
                            "query {q}: over-claim — complete although D was excluded"
                        ));
                    }
                }
                QOutcome::PartialViaAlt => {
                    if qs.evals_a == 0 {
                        return Err(format!(
                            "query {q}: unsound answer — alt outcome without alt evaluation"
                        ));
                    }
                }
                QOutcome::Pending | QOutcome::PartialGaveUp => {}
            }
        }
        Ok(())
    }

    fn is_goal(&self, s: &DispatchState) -> bool {
        s.queries.iter().all(|q| q.outcome != QOutcome::Pending)
    }

    fn is_fair(&self, a: &DispatchAct) -> bool {
        !matches!(a, DispatchAct::Drop(..) | DispatchAct::Dup(..))
    }

    fn render_action(&self, a: &DispatchAct) -> String {
        match a {
            DispatchAct::Deliver(_, m) => format!("deliver {}", m.render()),
            DispatchAct::Drop(_, m) => format!("drop {}", m.render()),
            DispatchAct::Dup(_, m) => format!("dup {}", m.render()),
            DispatchAct::Timeout(q) => format!("timer q={q}"),
            DispatchAct::TimeoutAlt(q) => format!("timer q={q} to=alt"),
        }
    }
}

/// The bounded configurations CI explores to a fixpoint.
pub fn configs() -> Vec<DispatchCfg> {
    vec![
        DispatchCfg {
            queries: 1,
            retries: 2,
            alternate: false,
            drops: true,
            dup_budget: 1,
            name: "single-deep-ladder",
        },
        DispatchCfg {
            queries: 1,
            retries: 1,
            alternate: true,
            drops: true,
            dup_budget: 2,
            name: "single-failover",
        },
        DispatchCfg {
            queries: 2,
            retries: 0,
            alternate: true,
            drops: true,
            dup_budget: 1,
            name: "two-query-failover",
        },
        DispatchCfg {
            queries: 2,
            retries: 1,
            alternate: false,
            drops: false,
            dup_budget: 2,
            name: "two-query-dup-reorder",
        },
    ]
}
