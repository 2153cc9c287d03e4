//! Brute-force solver: enumerate every coloured cut and take the exact
//! optimum. Exponential — guarded by a cut-count cap — and used as the
//! ground truth the polynomial solvers are property-tested against.

use crate::{AssignError, CancelToken, Prepared, Solution, SolveStats, Solver};
use hsa_graph::Lambda;
use hsa_tree::{bottleneck_of_cut, count_cuts, for_each_cut, host_time_of_cut, Cut, TreeEdge};

/// Exhaustive enumeration solver.
#[derive(Clone, Copy, Debug)]
pub struct BruteForce {
    /// Refuse instances with more cuts than this (default 5,000,000).
    pub max_cuts: u64,
}

impl Default for BruteForce {
    fn default() -> Self {
        BruteForce {
            max_cuts: 5_000_000,
        }
    }
}

impl Solver for BruteForce {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        _cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let cuttable = |e: TreeEdge| prep.colouring.cuttable(e);
        let total = count_cuts(&prep.tree, &cuttable);
        if total > self.max_cuts {
            return Err(AssignError::BruteForceTooLarge { cap: self.max_cuts });
        }
        let colour_of = |e: TreeEdge| prep.colouring.edge_colour(e).satellite();
        let mut best: Option<(Cut, u128)> = None;
        let mut evaluated = 0u64;
        for_each_cut(&prep.tree, &cuttable, &mut |cut| {
            evaluated += 1;
            let s = host_time_of_cut(&prep.tree, &prep.costs, cut.edges());
            let b = bottleneck_of_cut(&prep.tree, &prep.costs, colour_of, cut.edges());
            let obj = lambda.ssb_scaled(s, b);
            // Deterministic tie-break: first (lexicographically smallest
            // edge list, since enumeration order is deterministic) wins.
            let better = match &best {
                None => true,
                Some((_, cur)) => obj < *cur,
            };
            if better {
                best = Some((cut.clone(), obj));
            }
        });
        let (cut, _) = best.ok_or(AssignError::NoFeasibleAssignment)?;
        Solution::from_cut_in(
            prep,
            cut,
            lambda,
            SolveStats {
                evaluated,
                ..SolveStats::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_tree::figures::fig2_tree;

    #[test]
    fn solves_the_paper_instance() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let sol = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
        assert_eq!(sol.stats.evaluated, 300); // 5 × 5 × 3 × 2 × 2 coloured cuts

        // The optimum can never exceed the trivial baselines.
        let all_host = Solution::from_cut(
            &prep,
            Cut::all_on_host(&t),
            Lambda::HALF,
            SolveStats::default(),
        )
        .unwrap();
        let offload = Solution::from_cut(
            &prep,
            Cut::max_offload(&t, &prep.colouring),
            Lambda::HALF,
            SolveStats::default(),
        )
        .unwrap();
        assert!(sol.objective <= all_host.objective);
        assert!(sol.objective <= offload.objective);
    }

    #[test]
    fn cap_is_enforced() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let solver = BruteForce { max_cuts: 10 };
        assert!(matches!(
            solver.solve(&prep, Lambda::HALF),
            Err(AssignError::BruteForceTooLarge { cap: 10 })
        ));
    }

    #[test]
    fn lambda_one_minimises_host_time() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let sol = BruteForce::default().solve(&prep, Lambda::ONE).unwrap();
        // λ=1 ignores satellites entirely: optimal host time = forced set.
        let forced_h: hsa_graph::Cost = prep
            .colouring
            .host_forced
            .iter()
            .map(|&c| prep.costs.h(c))
            .sum();
        assert_eq!(sol.report.host_time, forced_h);
    }
}
