//! # hsa — optimal assignment of tree-structured context reasoning onto host–satellites systems
//!
//! Umbrella crate for the reproduction of Mei, Pawar & Widya,
//! *"Optimal Assignment of a Tree-Structured Context Reasoning Procedure
//! onto a Host-Satellites System"* (IPPS 2007).
//!
//! A context reasoning procedure is a tree of CRUs (Context Reasoning
//! Units) turning raw sensor data into application-level context; the
//! platform is one host plus sensor-box satellites with physically pinned
//! sensors. The library finds the assignment of CRUs to machines that
//! minimises the end-to-end delay `S + B` (host time plus bottleneck
//! satellite time), via the paper's coloured assignment graph and SSB
//! path search.
//!
//! ```
//! use hsa::prelude::*;
//!
//! // The paper's own Figure 2 instance…
//! let scenario = hsa::workloads::paper_scenario();
//! let prep = Prepared::new(&scenario.tree, &scenario.costs).unwrap();
//! // …solved with the paper's adapted SSB algorithm:
//! let solution = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
//! // CRU1–CRU3 are host-forced by the colouring; the rest is optimised.
//! assert!(solution.assignment.host.len() >= 3);
//! // The exact optimum matches brute-force enumeration:
//! let brute = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
//! assert_eq!(solution.objective, brute.objective);
//! ```
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-versus-measured record. The workspace
//! layers are re-exported here as modules:
//!
//! * [`graph`] — doubly weighted graphs, generic SSB/SB path algorithms;
//! * [`tree`] — the CRU tree model, colouring, σ/β labellings, cuts;
//! * [`assign`] — assignment graphs and the solvers (the paper's core);
//! * [`engine`] — the batch service layer: prepared-instance cache,
//!   threaded `(instance, λ)` query fan-out, and the λ-frontier;
//! * [`sim`] — the discrete-event host–satellites simulator;
//! * [`workloads`] — scenarios (epilepsy, SNMP, industrial, random);
//! * [`heuristics`] — the future-work DAG model with B&B / GA / SA.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hsa_assign as assign;
pub use hsa_engine as engine;
pub use hsa_graph as graph;
pub use hsa_heuristics as heuristics;
pub use hsa_sim as sim;
pub use hsa_tree as tree;
pub use hsa_workloads as workloads;

/// The guided API tour (the contents of `docs/API.md`): one runnable,
/// asserted example per layer, tree → DWG → solver → engine →
/// experiments. Every code block below is a doctest, so the tour cannot
/// rot.
#[doc = include_str!("../docs/API.md")]
pub mod api {}

/// The repository README, included so that each of its Rust snippets is a
/// doctest too and cannot drift from the API it shows.
#[doc = include_str!("../README.md")]
pub mod readme {}

/// Commonly used items from every layer.
pub mod prelude {
    pub use hsa_assign::prelude::*;
    pub use hsa_engine::prelude::*;
    pub use hsa_graph::prelude::*;
    pub use hsa_heuristics::prelude::*;
    pub use hsa_sim::prelude::*;
    pub use hsa_tree::prelude::*;
    pub use hsa_workloads::prelude::*;
}
