//! Deterministic fixtures and generators for SQPeer tests, examples and
//! benchmarks.
//!
//! * [`fixtures`] — the paper's running example, exactly as drawn: the
//!   Figure 1 schema, the four Figure 2 peer bases, the Figure 6 hybrid
//!   network and the Figure 7 ad-hoc network.
//! * [`schema_gen`] — seeded community-schema generation (class trees,
//!   property chains, subproperty refinements).
//! * [`data_gen`] — seeded base population with per-class resource pools
//!   so chained properties actually join.
//! * [`workload`] — chain-query generation over a schema's property graph.
//! * [`network_gen`] — whole simulated SONs (hybrid or ad-hoc) of N peers
//!   with randomly assigned schema fragments.
//! * [`chaos`] — seeded fault-injection harness checking soundness and
//!   completeness honesty against a fault-free oracle.
//!
//! Everything is driven by explicit `u64` seeds through `StdRng`, so every
//! generated artefact is reproducible.

pub mod chaos;
pub mod data_gen;
pub mod fixtures;
pub mod network_gen;
pub mod schema_gen;
pub mod workload;

pub use chaos::{run_chaos, run_chaos_keeping, ChaosReport, ChaosSpec};
pub use data_gen::{populate, DataSpec};
pub use fixtures::{fig1_schema, fig2_bases, fig6_network, fig7_network};
pub use network_gen::{adhoc_network, hier_network, hybrid_network, NetworkSpec, TopologyKind};
pub use schema_gen::{community_schema, SchemaSpec};
pub use workload::{chain_properties, chain_query_text, random_chain_query, zipf_workload};
