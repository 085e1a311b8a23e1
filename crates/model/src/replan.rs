//! Small-state model of the channel fail/replan machine with
//! completeness accounting (`crates/exec/src/peer.rs`:
//! `handle_lost_subplan` — the one road every `Lost` verdict of
//! `exec::dispatch` takes — `adapt_or_give_up`, the `missing` set and
//! outcome finalisation).
//!
//! A root unions partial answers from two contributors. The adversary
//! may fail the channel to a contributor (a budgeted `FailChannel`
//! action): the root excludes that peer, records it in the query's
//! `missing` set, bumps the replan round, discards the old round's
//! frames (stale tags are dropped on arrival) and re-dispatches fresh
//! tags to the remaining contributors. When the replan budget is
//! exhausted a further failure finalises an *honest partial* instead.
//! Message loss is out of scope here — the dispatch machine owns the
//! timeout/retry ladder; this machine explores failure, duplication and
//! unbounded reordering of the replan rounds themselves.
//!
//! ## Invariants
//! - Completeness honesty (no over-claim): a `Complete` outcome implies
//!   no contributor was ever excluded, the missing set is empty, and
//!   every contributor actually evaluated its subplan.
//! - A `Partial` outcome implies a non-empty missing set.
//! - Soundness: a contributor counted as answered has evaluated at
//!   least once.
//! - Round-tag dedup: each contributor evaluates at most once per
//!   round, so at most `max_replans + 1` times in total.
//! - The round counter never exceeds the replan budget.
//!
//! ## Liveness
//! With failures and duplication withheld, every in-flight message
//! drains and the outcome finalises: queries terminate even when every
//! replan round is torn down mid-flight.

use crate::explore::Machine;

/// One bounded replan-machine configuration (always 2 contributors).
#[derive(Debug, Clone)]
pub struct ReplanCfg {
    /// Channel failures the adversary may inject.
    pub fail_budget: u8,
    /// Replan rounds the root will attempt before giving up.
    pub max_replans: u8,
    /// Messages the adversary may duplicate (total).
    pub dup_budget: u8,
    pub name: &'static str,
}

pub const CONTRIBUTORS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReplanMsg {
    /// Round-tagged subplan for contributor `c`.
    Sub { c: u8, round: u8 },
    /// Round-tagged answer frame from contributor `c`.
    Data { c: u8, round: u8 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Contrib {
    /// Highest round this contributor has evaluated, if any.
    pub served: Option<u8>,
    /// Total evaluations (must stay 1-per-round).
    pub evals: u8,
    /// Excluded by a channel failure (member of the missing set).
    pub excluded: bool,
    /// Answer for the *current* round received by the root.
    pub answered: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpOutcome {
    Pending,
    /// All contributors answered, nothing excluded.
    Complete,
    /// Finalised with a non-empty missing set.
    Partial,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplanState {
    pub round: u8,
    pub contribs: [Contrib; CONTRIBUTORS],
    pub outcome: RpOutcome,
    pub net: Vec<ReplanMsg>,
    pub fails_left: u8,
    pub dups_left: u8,
}

#[derive(Debug, Clone)]
pub enum ReplanAct {
    Deliver(usize, ReplanMsg),
    Dup(usize, ReplanMsg),
    /// The channel to contributor `c` fails.
    FailChannel(u8),
}

pub struct ReplanMachine {
    pub cfg: ReplanCfg,
}

impl ReplanMachine {
    pub fn new(cfg: ReplanCfg) -> Self {
        ReplanMachine { cfg }
    }

    /// Root-side finalisation check: every non-excluded contributor has
    /// answered the current round (or nobody is left to wait for).
    fn finalize(&self, s: &mut ReplanState) {
        if s.outcome != RpOutcome::Pending {
            return;
        }
        let all_in = s.contribs.iter().all(|c| c.excluded || c.answered);
        if all_in {
            let missing = s.contribs.iter().any(|c| c.excluded);
            s.outcome = if missing {
                RpOutcome::Partial
            } else {
                RpOutcome::Complete
            };
        }
    }
}

impl ReplanMsg {
    fn render(self) -> String {
        match self {
            ReplanMsg::Sub { c, round } => format!("subplan c={c} round={round}"),
            ReplanMsg::Data { c, round } => format!("data c={c} round={round}"),
        }
    }
}

impl Machine for ReplanMachine {
    type State = ReplanState;
    type Action = ReplanAct;

    fn name(&self) -> String {
        format!("replan/{}", self.cfg.name)
    }

    fn initial(&self) -> ReplanState {
        let mut net: Vec<ReplanMsg> = (0..CONTRIBUTORS as u8)
            .map(|c| ReplanMsg::Sub { c, round: 0 })
            .collect();
        net.sort_unstable();
        ReplanState {
            round: 0,
            contribs: [Contrib::default(); CONTRIBUTORS],
            outcome: RpOutcome::Pending,
            net,
            fails_left: self.cfg.fail_budget,
            dups_left: self.cfg.dup_budget,
        }
    }

    fn actions(&self, s: &ReplanState, out: &mut Vec<ReplanAct>) {
        for i in 0..s.net.len() {
            if i > 0 && s.net[i] == s.net[i - 1] {
                continue;
            }
            out.push(ReplanAct::Deliver(i, s.net[i]));
            if s.dups_left > 0 {
                out.push(ReplanAct::Dup(i, s.net[i]));
            }
        }
        if s.fails_left > 0 && s.outcome == RpOutcome::Pending {
            for (c, contrib) in s.contribs.iter().enumerate() {
                if !contrib.excluded {
                    out.push(ReplanAct::FailChannel(c as u8));
                }
            }
        }
    }

    fn apply(&self, s: &ReplanState, a: &ReplanAct) -> ReplanState {
        let mut next = s.clone();
        match *a {
            ReplanAct::Dup(i, _) => {
                let m = next.net[i];
                next.net.push(m);
                next.dups_left -= 1;
            }
            ReplanAct::FailChannel(c) => {
                next.fails_left -= 1;
                next.contribs[c as usize].excluded = true;
                next.contribs[c as usize].answered = false;
                if next.round < self.cfg.max_replans {
                    // Replan: bump the round, discard the old round's
                    // progress and re-dispatch fresh tags to whoever is
                    // left. Stale frames die on arrival by tag mismatch.
                    next.round += 1;
                    for (i, contrib) in next.contribs.iter_mut().enumerate() {
                        if !contrib.excluded {
                            contrib.answered = false;
                            next.net.push(ReplanMsg::Sub {
                                c: i as u8,
                                round: next.round,
                            });
                        }
                    }
                    // Everyone excluded: nothing left to wait for.
                    self.finalize(&mut next);
                } else {
                    // Replan budget exhausted: honest partial.
                    next.outcome = RpOutcome::Partial;
                }
            }
            ReplanAct::Deliver(i, expect) => {
                let msg = next.net.remove(i);
                debug_assert_eq!(msg, expect, "action/state index drift");
                match msg {
                    ReplanMsg::Sub { c, round } => {
                        let contrib = &mut next.contribs[c as usize];
                        // Per-(contributor, round) dedup: evaluate only
                        // a strictly newer round tag.
                        if contrib.served.is_none_or(|seen| round > seen) {
                            contrib.served = Some(round);
                            contrib.evals += 1;
                            next.net.push(ReplanMsg::Data { c, round });
                        }
                    }
                    ReplanMsg::Data { c, round } => {
                        let current = next.round;
                        let contrib = &mut next.contribs[c as usize];
                        // Stale rounds and excluded peers are strays.
                        if round == current
                            && !contrib.excluded
                            && next.outcome == RpOutcome::Pending
                        {
                            contrib.answered = true;
                            self.finalize(&mut next);
                        }
                    }
                }
            }
        }
        next.net.sort_unstable();
        next
    }

    fn invariant(&self, s: &ReplanState) -> Result<(), String> {
        if s.round > self.cfg.max_replans {
            return Err(format!(
                "round {} exceeds replan budget {}",
                s.round, self.cfg.max_replans
            ));
        }
        for (c, contrib) in s.contribs.iter().enumerate() {
            if contrib.evals > self.cfg.max_replans + 1 {
                return Err(format!(
                    "contributor {c}: dedup violation — {} evaluations for {} rounds",
                    contrib.evals,
                    self.cfg.max_replans + 1
                ));
            }
            if contrib.answered && contrib.evals == 0 {
                return Err(format!(
                    "contributor {c}: unsound answer — counted without evaluating"
                ));
            }
        }
        match s.outcome {
            RpOutcome::Complete => {
                for (c, contrib) in s.contribs.iter().enumerate() {
                    if contrib.excluded {
                        return Err(format!(
                            "over-claim — outcome complete but contributor {c} is \
                             in the missing set"
                        ));
                    }
                    if !contrib.answered || contrib.evals == 0 {
                        return Err(format!(
                            "over-claim — outcome complete without an answer from \
                             contributor {c}"
                        ));
                    }
                }
            }
            RpOutcome::Partial => {
                if !s.contribs.iter().any(|c| c.excluded) {
                    return Err(
                        "dishonest partial — finalised partial with an empty missing set"
                            .to_string(),
                    );
                }
            }
            RpOutcome::Pending => {}
        }
        Ok(())
    }

    fn is_goal(&self, s: &ReplanState) -> bool {
        s.outcome != RpOutcome::Pending
    }

    fn is_fair(&self, a: &ReplanAct) -> bool {
        // Fair runs deliver everything; failures and duplication are the
        // adversary's (budgeted) moves.
        matches!(a, ReplanAct::Deliver(..))
    }

    fn render_action(&self, a: &ReplanAct) -> String {
        match a {
            ReplanAct::Deliver(_, m) => format!("deliver {}", m.render()),
            ReplanAct::Dup(_, m) => format!("dup {}", m.render()),
            ReplanAct::FailChannel(c) => format!("fail-channel c={c}"),
        }
    }
}

/// The bounded configurations CI explores to a fixpoint.
pub fn configs() -> Vec<ReplanCfg> {
    vec![
        ReplanCfg {
            fail_budget: 1,
            max_replans: 1,
            dup_budget: 1,
            name: "single-failure-replan",
        },
        ReplanCfg {
            fail_budget: 2,
            max_replans: 2,
            dup_budget: 1,
            name: "cascading-failures",
        },
        ReplanCfg {
            fail_budget: 2,
            max_replans: 0,
            dup_budget: 2,
            name: "give-up-partial",
        },
        ReplanCfg {
            fail_budget: 1,
            max_replans: 1,
            dup_budget: 2,
            name: "dup-heavy-replan",
        },
    ]
}
