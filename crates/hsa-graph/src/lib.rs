//! # hsa-graph — doubly weighted graphs and the SSB/SB path algorithms
//!
//! This crate is the graph substrate of the reproduction of *"Optimal
//! Assignment of a Tree-Structured Context Reasoning Procedure onto a
//! Host-Satellites System"* (Mei, Pawar & Widya, IPPS 2007).
//!
//! It provides, from the ground up:
//!
//! * exact integer [`Cost`] arithmetic and the rational weighting
//!   coefficient [`Lambda`] (§4.1's λ);
//! * the doubly weighted multigraph [`Dwg`] with O(1) edge elimination —
//!   every edge carries a *sum* weight σ and a *bottleneck* weight β;
//! * σ-shortest [`dijkstra`] search, [`Path`] measures
//!   (`S`, `B`, `SSB`, `SB`), and reachability;
//! * the paper's **SSB algorithm** ([`ssb_search`], §4.2/Figure 3):
//!   minimise `λ·S(P) + (1−λ)·B(P)`;
//! * **Bokhari's SB algorithm** ([`sb_search`], the 1988 baseline):
//!   minimise `max(S(P), B(P))`;
//! * an exhaustive [`enumerate`] oracle and seeded random [`generate`]-ors
//!   used by the test-suite and benchmarks;
//! * the worked example of the paper's Figure 4 ([`figures::fig4_graph`]),
//!   reproduced trace-for-trace in this crate's tests.
//!
//! The *coloured* variants of these searches — where the B weight becomes a
//! maximum of per-colour β sums — live in the `hsa-assign` crate, which owns
//! the colour semantics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
mod dwg;
mod error;
mod path;
mod scratch;

pub mod connectivity;
pub mod dijkstra;
pub mod enumerate;
pub mod envelope;
pub mod figures;
pub mod generate;
pub mod sb;
pub mod ssb;
pub mod sweep;

pub use cost::{Cost, Lambda, ScaledSsb, SSB_INFINITY};
pub use dwg::{AliveSnapshot, Dwg, Edge, EdgeId, NodeId};
pub use envelope::{lower_envelope, EnvelopeSegment, LambdaEnvelope, LambdaQ};
pub use error::GraphError;
pub use path::Path;
pub use sb::{sb_search, SbOutcome};
pub use scratch::SolveScratch;
pub use ssb::{
    ssb_search, EliminationRule, SsbBest, SsbConfig, SsbIteration, SsbOutcome, Termination,
};
pub use sweep::{sb_search_sweep, ssb_search_sweep, SweepOutcome};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        sb_search, ssb_search, Cost, Dwg, EdgeId, EliminationRule, GraphError, Lambda, LambdaQ,
        NodeId, Path, SolveScratch, SsbConfig, SsbOutcome, Termination,
    };
}
