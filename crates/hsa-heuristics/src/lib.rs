//! # hsa-heuristics — the paper's future work, implemented
//!
//! Section 6 of the paper announces the general *DAG-tasks-to-star*
//! assignment problem and names Branch-and-Bound and Genetic Algorithms as
//! the intended attack, since no polynomial exact algorithm is expected.
//! This crate builds that future:
//!
//! * [`TaskDag`] — tasks with host/satellite times and sensor pinnings,
//!   arbitrary precedence edges with transfer costs; conversion from the
//!   tree model ([`TaskDag::from_tree`]) and from tree cuts;
//! * [`list_makespan`] — the general objective: event-driven list
//!   scheduling on the star platform; [`barrier_makespan`] ties cut-shaped
//!   assignments back to the paper's `S + B` objective exactly;
//! * [`branch_and_bound`] — exact, with admissible load/critical-path
//!   bounds (validated against [`exhaustive_optimum`]);
//! * [`genetic`] and [`simulated_annealing`] — seeded metaheuristics,
//!   compared against the exact optimum in experiment T7;
//! * [`CutGenetic`], [`CutAnnealing`], [`CutBranchBound`] — the searches
//!   retargeted at the paper's tree-cut problem behind the
//!   [`hsa_assign::Solver`] trait, so they race the exact solvers on one
//!   objective scoreboard (the anytime portfolio's heuristic arms). The
//!   cut GA and annealer run the very generation and annealing loops of
//!   [`genetic`] and [`simulated_annealing`], over cut bits instead of
//!   locations; only the genome, the fitness and the gene move differ.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arms;
mod bnb;
mod dag;
mod evaluator;
mod ga;
mod sa;

pub use arms::{CutAnnealing, CutBranchBound, CutGenetic};
pub use bnb::{branch_and_bound, exhaustive_optimum, BnbConfig, BnbResult};
pub use dag::{DagAssignment, Location, Precedence, Task, TaskDag, TaskId};
pub use evaluator::{barrier_makespan, list_makespan};
pub use ga::{genetic, GaConfig, GaResult};
pub use sa::{simulated_annealing, SaConfig, SaResult};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        branch_and_bound, genetic, list_makespan, simulated_annealing, BnbConfig, CutAnnealing,
        CutBranchBound, CutGenetic, GaConfig, Location, SaConfig, TaskDag,
    };
}
