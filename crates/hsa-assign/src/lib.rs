//! # hsa-assign — the paper's core contribution
//!
//! Optimal assignment of a tree-structured context reasoning procedure onto
//! a host–satellites system (Mei, Pawar & Widya, IPPS 2007), end to end:
//!
//! 1. [`Prepared`] — colour the tree (§5.1), label σ/β (Figure 8, §5.3) and
//!    build the coloured [`AssignmentGraph`] (§5.2 dual construction);
//! 2. solve with one of:
//!    * [`PaperSsb`] — the paper's adapted SSB algorithm (§5.4): min-S path
//!      iteration, elimination, Figure 9 **expansion**, plus joint
//!      branching for multi-band colours (our completion, DESIGN.md §2);
//!    * [`Expanded`] — the full-expansion exact solver (per-colour Pareto
//!      frontiers + threshold sweep), the clean O(|E′| log |E′|) form of
//!      the paper's expanded-graph bound;
//!    * [`BruteForce`] — exhaustive ground truth for tests;
//!    * baselines: [`AllOnHost`], [`MaxOffload`], [`GreedyDescent`],
//!      [`RandomCut`], and Bokhari's objective [`SbObjective`];
//! 3. read the answer: [`Solution`] with its [`Assignment`] and
//!    [`DelayReport`] (end-to-end delay = S + B), all evaluated directly on
//!    the tree — independent of the graph machinery it was found with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod anytime;
mod assignment;
mod baselines;
mod brute;
mod coloured;
mod delta;
mod dual;
mod error;
mod expanded;
mod frontier;
mod paper_ssb;
mod prepared;
mod solver;

pub use anytime::{structural_lower_bound, CancelToken, GapCertificate};
pub use assignment::{
    evaluate_cut, evaluate_cut_in, Assignment, DelayReport, EvalScratch, SatelliteLoad,
};
pub use baselines::{
    all_solvers, sb_optimum, AllOnHost, GreedyDescent, MaxOffload, RandomCut, SbObjective,
};
pub use brute::BruteForce;
pub use coloured::ColouredMeasure;
pub use delta::{dirty_colours, dirty_colours_of_labels, DirtyColours};
pub use dual::{AssignmentGraph, DualEdge};
pub use error::AssignError;
pub use expanded::{
    colour_frontiers, solve_sb_expanded, solve_with_frontiers, ColourFrontier, Expanded,
    ExpandedConfig, Frontier, FrontierPoint, FrontierSet,
};
pub use frontier::{lambda_frontier, lambda_frontier_with, LambdaFrontier};
pub use paper_ssb::{solve_with_trace, PaperSsb, PaperSsbConfig, SsbEvent};
pub use prepared::{ColourTops, EvalIndex, Prepared, ReplacedParts};
pub use solver::{Solution, SolveStats, Solver};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        evaluate_cut, lambda_frontier, AllOnHost, AssignError, Assignment, BruteForce, CancelToken,
        DelayReport, Expanded, GapCertificate, GreedyDescent, LambdaFrontier, MaxOffload, PaperSsb,
        Prepared, SbObjective, Solution, Solver,
    };
}
