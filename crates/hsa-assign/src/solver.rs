//! The common solver interface and solution type.

use crate::{
    evaluate_cut, evaluate_cut_in, AssignError, Assignment, CancelToken, DelayReport, EvalScratch,
    Prepared,
};
use hsa_graph::{Cost, Lambda, ScaledSsb};
use hsa_tree::Cut;
use serde::{Deserialize, Serialize};

/// Search statistics, for the complexity experiments (T1/T2/T5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Iterations of the candidate/eliminate loop (0 for non-iterative
    /// solvers).
    pub iterations: u64,
    /// Edges eliminated.
    pub edges_removed: u64,
    /// Expansion steps performed (paper Figure 9/10).
    pub expansions: u64,
    /// Composite edges materialised by expansions — the paper's |E′|.
    pub composites: u64,
    /// Branches explored (multi-band colours; 0 when never needed).
    pub branches: u64,
    /// Cuts/candidates explicitly evaluated (brute force, heuristics).
    pub evaluated: u64,
}

/// A solved assignment with its objective breakdown.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Solution {
    /// The optimal (or heuristic) cut.
    pub cut: Cut,
    /// Placement of every CRU.
    pub assignment: Assignment,
    /// Full delay breakdown.
    pub report: DelayReport,
    /// The λ used.
    pub lambda: Lambda,
    /// The λ-scaled SSB objective value (what was minimised).
    pub objective: ScaledSsb,
    /// Search statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// Builds a solution from a cut by direct evaluation.
    pub fn from_cut(
        prep: &Prepared<'_>,
        cut: Cut,
        lambda: Lambda,
        stats: SolveStats,
    ) -> Result<Solution, AssignError> {
        let (assignment, report) = evaluate_cut(prep, &cut)?;
        let objective = report.ssb_scaled(lambda);
        Ok(Solution {
            cut,
            assignment,
            report,
            lambda,
            objective,
            stats,
        })
    }

    /// Walk-free twin of [`Solution::from_cut`]: evaluates through the
    /// σ/β labels and the pre-order index ([`crate::evaluate_cut_in`]),
    /// reusing this thread's [`EvalScratch`] buffers. Byte-identical to
    /// [`Solution::from_cut`] for any cut the solvers produce — that
    /// identity is what the engine's verify mode and the `proptest_eval`
    /// suite pin down.
    pub fn from_cut_in(
        prep: &Prepared<'_>,
        cut: Cut,
        lambda: Lambda,
        stats: SolveStats,
    ) -> Result<Solution, AssignError> {
        let (assignment, report) =
            EvalScratch::with_thread_local(|es| evaluate_cut_in(prep, &cut, es))?;
        let objective = report.ssb_scaled(lambda);
        Ok(Solution {
            cut,
            assignment,
            report,
            lambda,
            objective,
            stats,
        })
    }

    /// End-to-end delay (S + B) of this solution.
    pub fn delay(&self) -> Cost {
        self.report.end_to_end
    }
}

/// A solver of the coloured assignment problem.
///
/// Implementations provide one method, [`Solver::solve_cancellable`];
/// [`Solver::solve`] calls it with a token that never fires.
pub trait Solver {
    /// Short stable name used in experiment tables and reports.
    fn name(&self) -> &'static str;

    /// Solves the prepared instance for the given λ, observing `cancel`
    /// for racing portfolios. Solvers that can observe the token poll it
    /// at loop boundaries: exact solvers abort with
    /// [`AssignError::Cancelled`], anytime heuristics return their best
    /// incumbent instead. The others ignore it and solve to completion —
    /// correct, just not promptly cancellable.
    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        cancel: &CancelToken,
    ) -> Result<Solution, AssignError>;

    /// Solves the prepared instance for the given λ to completion.
    fn solve(&self, prep: &Prepared<'_>, lambda: Lambda) -> Result<Solution, AssignError> {
        self.solve_cancellable(prep, lambda, &CancelToken::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_tree::figures::fig2_tree;

    #[test]
    fn from_cut_round_trips_objective() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let cut = Cut::all_on_host(&t);
        let sol = Solution::from_cut(&prep, cut, Lambda::HALF, SolveStats::default()).unwrap();
        assert_eq!(
            sol.objective,
            sol.report.host_time.ticks() as u128 + sol.report.bottleneck.ticks() as u128
        );
        assert_eq!(sol.delay(), sol.report.end_to_end);
    }
}
