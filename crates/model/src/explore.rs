//! Exhaustive explicit-state exploration of protocol machines.
//!
//! A [`Machine`] is a small-state FSM: an initial state, an enabled-action
//! relation, a deterministic `apply`, a safety invariant checked on every
//! reachable state, and a goal predicate naming the states an execution is
//! allowed to stop in. The explorer runs breadth-first search over the
//! full reachable state graph with canonical state hashing (structurally
//! equal states are explored once), so for a bounded configuration the
//! result is a *proof*, not a sample: every interleaving of the modelled
//! adversary — drop, duplicate, reorder, crash, timer races — is covered.
//!
//! Beyond safety, the explorer checks two liveness obligations on the
//! *fair* sub-graph (the transitions that remain when the adversary must
//! eventually deliver — see [`Machine::is_fair`]):
//!
//! 1. **No wedged states** — every reachable non-goal state has at least
//!    one enabled fair action. A state with unfair successors only would
//!    let the adversary starve the protocol forever.
//! 2. **Termination** — the fair sub-graph restricted to non-goal states
//!    is acyclic, so *every* fair execution reaches a goal state in
//!    finitely many steps. The acyclicity witness doubles as a
//!    termination proof for the configuration.
//!
//! Any violation reconstructs the shortest event schedule from the BFS
//! parent pointers and renders it in the shared trace grammar
//! ([`crate::trace`]), so a counterexample is directly a replayable
//! artifact.

use std::collections::HashMap;
use std::hash::Hash;

/// A small-state protocol FSM the explorer can exhaust.
pub trait Machine {
    /// Canonical state: structural equality and hashing define state
    /// identity, so representations must not carry incidental order
    /// (collections are sorted vectors / counters, not hash maps).
    type State: Clone + Eq + Hash + std::fmt::Debug;
    /// One atomic protocol or adversary step.
    type Action: Clone + std::fmt::Debug;

    /// `machine/config` label for reports and artifacts.
    fn name(&self) -> String;
    fn initial(&self) -> Self::State;
    /// Enabled actions in `s`, pushed into `out` (cleared by the caller).
    fn actions(&self, s: &Self::State, out: &mut Vec<Self::Action>);
    /// Successor state — must be deterministic in `(s, a)`.
    fn apply(&self, s: &Self::State, a: &Self::Action) -> Self::State;
    /// Safety invariant; `Err` names the violated property.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;
    /// May an execution stop here? (Query answered, leases converged…)
    fn is_goal(&self, s: &Self::State) -> bool;
    /// Does fair scheduling keep this action? Drops (and anything else a
    /// fair adversary could withhold forever) return false; deliveries,
    /// timers and protocol-internal steps return true.
    fn is_fair(&self, a: &Self::Action) -> bool;
    /// One line in the shared trace grammar.
    fn render_action(&self, a: &Self::Action) -> String;
}

/// Why exploration rejected the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A reachable state failed [`Machine::invariant`].
    Safety(String),
    /// A reachable non-goal state has no enabled action at all.
    Deadlock,
    /// A reachable non-goal state has only unfair actions enabled: fair
    /// scheduling wedges there forever.
    FairWedge,
    /// The fair sub-graph has a cycle through non-goal states: a fair
    /// execution that never terminates.
    FairCycle,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Safety(inv) => write!(f, "safety violation: {inv}"),
            ViolationKind::Deadlock => write!(f, "deadlock: non-goal state with no action"),
            ViolationKind::FairWedge => {
                write!(f, "fair wedge: non-goal state with only unfair actions")
            }
            ViolationKind::FairCycle => {
                write!(f, "fair cycle: non-terminating fair execution")
            }
        }
    }
}

/// A violation plus the schedule that reaches it from the initial state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub kind: ViolationKind,
    /// Action lines (shared trace grammar), initial state first.
    pub schedule: Vec<String>,
    /// `Debug` rendering of the offending state.
    pub state: String,
    /// For [`ViolationKind::FairCycle`]: the looping suffix of actions.
    pub cycle: Vec<String>,
}

/// Witness that every fair execution of the configuration terminates.
#[derive(Debug, Clone, Copy)]
pub struct TerminationProof {
    /// Non-goal states in the fair sub-graph (all acyclic).
    pub nongoal_states: usize,
    /// Fair transitions among them.
    pub fair_transitions: usize,
}

/// Result of one exhaustive exploration.
#[derive(Debug)]
pub struct Report {
    pub name: String,
    /// Distinct reachable states (the fixpoint size).
    pub states: usize,
    /// Explored transitions (all actions, fair and unfair).
    pub transitions: usize,
    /// Reachable states satisfying [`Machine::is_goal`].
    pub goal_states: usize,
    pub violation: Option<Counterexample>,
    /// Present iff exploration completed without violation.
    pub termination: Option<TerminationProof>,
}

impl Report {
    /// Panics unless the exploration reached its fixpoint violation-free
    /// with a termination proof — the standing claim CI re-establishes.
    pub fn assert_verified(&self) -> &Self {
        if let Some(cex) = &self.violation {
            panic!(
                "{}: {}\nschedule:\n  {}\nstate: {}",
                self.name,
                cex.kind,
                cex.schedule.join("\n  "),
                cex.state
            );
        }
        assert!(
            self.termination.is_some(),
            "{}: exploration ended without a termination proof",
            self.name
        );
        self
    }

    /// One summary line (explored-state counts for the CI job summary).
    pub fn summary(&self) -> String {
        match (&self.violation, &self.termination) {
            (Some(cex), _) => format!(
                "{}: VIOLATION ({}) after {} states / {} transitions",
                self.name, cex.kind, self.states, self.transitions
            ),
            (None, Some(proof)) => format!(
                "{}: verified — {} states, {} transitions, {} goal states; \
                 termination: {} non-goal states acyclic under {} fair transitions",
                self.name,
                self.states,
                self.transitions,
                self.goal_states,
                proof.nongoal_states,
                proof.fair_transitions
            ),
            (None, None) => format!(
                "{}: explored {} states / {} transitions (no termination check)",
                self.name, self.states, self.transitions
            ),
        }
    }
}

/// Every state found, by id — ids are handed out in BFS order, so
/// expanding states in id order *is* the BFS queue — with its goal test
/// and its BFS-tree parent (state and rendered action), from which
/// counterexamples read their shortest schedules.
type Found<S> = Vec<(S, bool, Option<(u32, String)>)>;

/// Exhausts `machine`'s reachable states, panicking if the fixpoint
/// exceeds `max_states` (a budget breach means the configuration is not
/// small-state and the "exhaustive" claim would be silently hollow).
pub fn explore<M: Machine>(machine: &M, max_states: usize) -> Report {
    let mut found: Found<M::State> = Vec::new();
    let mut index: HashMap<M::State, u32> = HashMap::new();
    let mut intern = |s: M::State, from: Option<(u32, &M::Action)>, found: &mut Found<_>| {
        if let Some(&id) = index.get(&s) {
            return id;
        }
        let id = u32::try_from(found.len()).expect("state count fits u32");
        let (goal, parent) = (
            machine.is_goal(&s),
            from.map(|(p, a)| (p, machine.render_action(a))),
        );
        index.insert(s.clone(), id);
        found.push((s, goal, parent));
        id
    };
    intern(machine.initial(), None, &mut found);

    // Fair successors per state, for the liveness analysis.
    let mut fair_succ: Vec<Vec<u32>> = Vec::new();
    let mut transitions = 0usize;
    let mut actions: Vec<M::Action> = Vec::new();
    let mut violation: Option<(u32, ViolationKind)> = None;

    'bfs: while let Some((state, goal)) = found.get(fair_succ.len()).map(|f| (f.0.clone(), f.1)) {
        let id = fair_succ.len() as u32;
        fair_succ.push(Vec::new());
        if let Err(inv) = machine.invariant(&state) {
            violation = Some((id, ViolationKind::Safety(inv)));
            break 'bfs;
        }
        actions.clear();
        machine.actions(&state, &mut actions);
        if actions.is_empty() {
            if !goal {
                violation = Some((id, ViolationKind::Deadlock));
                break 'bfs;
            }
            continue;
        }
        let mut any_fair = false;
        for action in &actions {
            transitions += 1;
            let succ = intern(
                machine.apply(&state, action),
                Some((id, action)),
                &mut found,
            );
            if machine.is_fair(action) {
                any_fair = true;
                fair_succ[id as usize].push(succ);
            }
        }
        if !any_fair && !goal {
            violation = Some((id, ViolationKind::FairWedge));
            break 'bfs;
        }
        assert!(
            found.len() <= max_states,
            "{}: exceeded the {max_states}-state budget before the fixpoint — \
             the configuration is not small-state",
            machine.name()
        );
    }

    let n = found.len();
    let goal_states = found.iter().filter(|f| f.1).count();
    let report = |violation, termination| Report {
        name: machine.name(),
        states: n,
        transitions,
        goal_states,
        violation,
        termination,
    };
    let counterexample = |kind, at: usize, cycle| {
        let (state, schedule) = (format!("{:?}", found[at].0), schedule_to(&found, at));
        Some(Counterexample {
            kind,
            schedule,
            state,
            cycle,
        })
    };
    if let Some((id, kind)) = violation {
        return report(counterexample(kind, id as usize, Vec::new()), None);
    }

    // Termination: the fair sub-graph restricted to non-goal states must
    // be acyclic. Iterative DFS with tri-colour marks; a back edge is a
    // fair non-terminating execution.
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    let mut fair_transitions = 0usize;
    for start in 0..n {
        if color[start] != 0 || found[start].1 {
            continue;
        }
        // Stack of (state, next-successor cursor): the grey states, for
        // cycle extraction.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(frame) = stack.last_mut() {
            let v = frame.0;
            if frame.1 < fair_succ[v].len() {
                let w = fair_succ[v][frame.1] as usize;
                frame.1 += 1;
                if found[w].1 {
                    continue; // fair executions may stop here
                }
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => {
                        // Back edge v → w: extract the cycle's states.
                        let pos = stack.iter().position(|&(s, _)| s == w);
                        let pos = pos.expect("grey state is on the stack");
                        let cycle = stack[pos..]
                            .iter()
                            .map(|&(s, _)| format!("{:?}", found[s].0));
                        let cex = counterexample(ViolationKind::FairCycle, w, cycle.collect());
                        return report(cex, None);
                    }
                    _ => {}
                }
            } else {
                color[v] = 2;
                fair_transitions += fair_succ[v].len();
                stack.pop();
            }
        }
    }

    let nongoal_states = n - goal_states;
    report(
        None,
        Some(TerminationProof {
            nongoal_states,
            fair_transitions,
        }),
    )
}

/// Rendered actions from the initial state to `target` along BFS parents.
fn schedule_to<S>(found: &Found<S>, target: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut cursor = target;
    while let Some((p, action)) = &found[cursor].2 {
        lines.push(action.clone());
        cursor = *p as usize;
    }
    lines.reverse();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy machine: a counter stepping 0→N with an optional unfair stall
    /// loop and an optional "skip" bug that overshoots the invariant.
    struct Count {
        n: u8,
        stall: bool,
        skip: bool,
    }

    #[derive(Clone, Debug)]
    enum Act {
        Step,
        Skip,
        Stall,
    }

    impl Machine for Count {
        type State = u8;
        type Action = Act;

        fn name(&self) -> String {
            "count/toy".into()
        }
        fn initial(&self) -> u8 {
            0
        }
        fn actions(&self, s: &u8, out: &mut Vec<Act>) {
            if *s < self.n {
                out.push(Act::Step);
                if self.skip {
                    out.push(Act::Skip);
                }
                if self.stall {
                    out.push(Act::Stall);
                }
            }
        }
        fn apply(&self, s: &u8, a: &Act) -> u8 {
            match a {
                Act::Step => s + 1,
                Act::Skip => s + 2,
                Act::Stall => *s,
            }
        }
        fn invariant(&self, s: &u8) -> Result<(), String> {
            if *s > self.n {
                return Err(format!("counter {s} exceeds bound {}", self.n));
            }
            Ok(())
        }
        fn is_goal(&self, s: &u8) -> bool {
            *s == self.n
        }
        fn is_fair(&self, a: &Act) -> bool {
            !matches!(a, Act::Stall)
        }
        fn render_action(&self, a: &Act) -> String {
            format!("{a:?}").to_lowercase()
        }
    }

    #[test]
    fn verifies_terminating_machine() {
        let report = explore(
            &Count {
                n: 5,
                stall: false,
                skip: false,
            },
            100,
        );
        report.assert_verified();
        assert_eq!(report.states, 6);
        assert_eq!(report.goal_states, 1);
        let proof = report.termination.unwrap();
        assert_eq!(proof.nongoal_states, 5);
        assert_eq!(proof.fair_transitions, 5);
    }

    #[test]
    fn unfair_stalls_do_not_break_termination() {
        // Self-loops exist but are unfair: fair executions still reach N.
        let report = explore(
            &Count {
                n: 3,
                stall: true,
                skip: false,
            },
            100,
        );
        report.assert_verified();
        assert_eq!(report.states, 4);
    }

    #[test]
    fn safety_violation_yields_shortest_schedule() {
        let report = explore(
            &Count {
                n: 3,
                stall: false,
                skip: true,
            },
            100,
        );
        let cex = report.violation.expect("skip overshoots");
        assert!(matches!(cex.kind, ViolationKind::Safety(_)));
        // Shortest path to 4 is step, skip (BFS order) — two actions.
        assert_eq!(cex.schedule.len(), 2);
        assert_eq!(cex.state, "4");
    }

    #[test]
    fn fair_cycle_detected() {
        /// One fair self-loop, never reaching a goal.
        struct Loop;
        impl Machine for Loop {
            type State = u8;
            type Action = ();
            fn name(&self) -> String {
                "loop/toy".into()
            }
            fn initial(&self) -> u8 {
                0
            }
            fn actions(&self, _s: &u8, out: &mut Vec<()>) {
                out.push(());
            }
            fn apply(&self, s: &u8, (): &()) -> u8 {
                *s
            }
            fn invariant(&self, _s: &u8) -> Result<(), String> {
                Ok(())
            }
            fn is_goal(&self, _s: &u8) -> bool {
                false
            }
            fn is_fair(&self, (): &()) -> bool {
                true
            }
            fn render_action(&self, (): &()) -> String {
                "spin".into()
            }
        }
        let report = explore(&Loop, 10);
        let cex = report.violation.expect("fair self-loop never terminates");
        assert_eq!(cex.kind, ViolationKind::FairCycle);
        assert_eq!(cex.cycle.len(), 1);
    }

    #[test]
    #[should_panic(expected = "state budget")]
    fn budget_breach_panics() {
        let _ = explore(
            &Count {
                n: 50,
                stall: false,
                skip: false,
            },
            10,
        );
    }
}
