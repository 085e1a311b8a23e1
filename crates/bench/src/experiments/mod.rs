//! The experiment registry: one row per experiment, read by `--list`,
//! `all` and lookup alike. The modules beneath are cut along the fixtures
//! their experiments share, not by number:
//!
//! * `figures` — the paper's Figures 1–7 over the Figure 1 schema and
//!   the Figure 2 peers;
//! * `claims` — routing and maintenance claims on generated community
//!   schemas (E8, E9, E11, E12, E14);
//! * `failure` — adaptation when peers crash and messages vanish (E10,
//!   E13, E17);
//! * `engine` — the routing cache and local evaluation under Zipf
//!   workloads (E15, E16);
//! * `overhead` — a recorder off, off again and on over one SON, in
//!   allocations (E18, E19);
//! * `substrates` — one group on the simulator, the loopback and a TCP
//!   host, monolithic and streamed (E20, E21);
//! * `scale` — the thousand-peer overlays (E22, E23);
//! * `work` — counted work per query and per answer-path step (E24).

use crate::harness::BenchJson;

mod claims;
mod engine;
mod failure;
mod figures;
mod overhead;
mod scale;
mod substrates;
mod work;

/// One row of the registry.
pub struct Experiment {
    /// What the command line calls it.
    pub id: &'static str,
    /// One line for `--list`.
    pub about: &'static str,
    run: fn(BenchJson) -> String,
}

impl Experiment {
    /// Runs the experiment, returning its report. Every experiment is
    /// handed the writer of its `BENCH_<id>.json`; E16–E24 fill and write
    /// it, the rest leave no record.
    pub fn run(&self) -> String {
        (self.run)(BenchJson::new(self.id))
    }
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

const fn row(id: &'static str, about: &'static str, run: fn(BenchJson) -> String) -> Experiment {
    Experiment { id, about, run }
}

/// Every experiment, in `--list` order. See DESIGN.md §6 for the index
/// and EXPERIMENTS.md for recorded outputs.
pub static EXPERIMENTS: &[Experiment] = &[
    row(
        "fig1",
        "query patterns and RVL active-schemas (Figure 1)",
        |_| figures::fig1(),
    ),
    row(
        "fig2",
        "semantic routing annotation (Figure 2) + routing scalability",
        |_| figures::fig2(),
    ),
    row(
        "fig3",
        "query-processing algorithm plan generation (Figure 3)",
        |_| figures::fig3(),
    ),
    row(
        "fig4",
        "plan optimisation: distribution, TR1/TR2, measured execution (Figure 4)",
        |_| figures::fig4(),
    ),
    row(
        "fig5",
        "data vs query shipping under link cost and load (Figure 5)",
        |_| figures::fig5(),
    ),
    row(
        "fig6",
        "hybrid super-peer architecture end to end (Figure 6)",
        |_| figures::fig6(),
    ),
    row(
        "fig7",
        "ad-hoc interleaved routing/processing end to end (Figure 7)",
        |_| figures::fig7(),
    ),
    row("e8", "SON routing vs Gnutella-style flooding", |_| {
        claims::e8()
    }),
    row(
        "e9",
        "advertisement maintenance vs index maintenance under churn",
        |_| claims::e9(),
    ),
    row(
        "e10",
        "run-time adaptation vs static execution under failures",
        |_| failure::e10(),
    ),
    row(
        "e11",
        "vertical ⇒ correctness / horizontal ⇒ completeness ablation",
        |_| claims::e11(),
    ),
    row(
        "e12",
        "Top-N broadcast bounding: completeness vs processing load (§5)",
        |_| claims::e12(),
    ),
    row(
        "e13",
        "ubQL discard vs phased subplan repair on failure (§2.5/[15])",
        |_| failure::e13(),
    ),
    row(
        "e14",
        "DHT for RDF/S schemas with subsumption: lookup vs publish costs (§5)",
        |_| claims::e14(),
    ),
    row(
        "e15",
        "semantic routing cache: hit rates and scans saved on Zipf workloads",
        |_| engine::e15(),
    ),
    row(
        "e16",
        "interned local evaluation: row-at-a-time vs interned (cold and warm)",
        engine::e16,
    ),
    row(
        "e17",
        "chaos: completeness, retries and traffic vs silent-fault rate and churn",
        failure::e17,
    ),
    row(
        "e18",
        "tracing overhead: span recorder disabled vs enabled on a full workload",
        overhead::e18,
    ),
    row(
        "e19",
        "telemetry: slow-channel detection latency vs timeout, and registry overhead",
        overhead::e19,
    ),
    row(
        "e20",
        "deployment: simulator vs real-clock loopback vs TCP host on one workload",
        substrates::e20,
    ),
    row(
        "e21",
        "streaming: time-to-first-row and credit bounds, streamed vs monolithic",
        substrates::e21,
    ),
    row(
        "e22",
        "hierarchical SONs: cluster-tree vs flat backbone vs flooding at 1k-5k peers",
        scale::e22,
    ),
    row(
        "e23",
        "observability: rollup overhead vs query traffic and hot-pattern attribution at 1k peers",
        scale::e23,
    ),
    row(
        "e24",
        "work per query: allocations, events and messages on the simulator and the answer path",
        work::e24,
    ),
];
