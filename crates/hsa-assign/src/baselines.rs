//! Baseline assignment strategies, used by the experiments to show what the
//! optimal SSB assignment buys (experiment T6) and how the paper's
//! objective differs from Bokhari's (T3).

use crate::{
    evaluate_cut, solve_sb_expanded, AssignError, CancelToken, ExpandedConfig, Prepared, Solution,
    SolveStats, Solver,
};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{Cut, TreeEdge};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything on the host; satellites only forward raw sensor frames.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllOnHost;

impl Solver for AllOnHost {
    fn name(&self) -> &'static str {
        "all-on-host"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        _cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        Solution::from_cut_in(
            prep,
            Cut::all_on_host(&prep.tree),
            lambda,
            SolveStats::default(),
        )
    }
}

/// Offload as much as the colouring allows: cut at the highest
/// non-conflicted edges (the paper's "topmost" partition).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxOffload;

impl Solver for MaxOffload {
    fn name(&self) -> &'static str {
        "max-offload"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        _cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        Solution::from_cut_in(
            prep,
            Cut::max_offload(&prep.tree, &prep.colouring),
            lambda,
            SolveStats::default(),
        )
    }
}

/// Greedy local descent: start from the topmost cut and repeatedly apply
/// the best single *push-down* move (replace a cut edge by the edges one
/// level below) while the objective improves. Polynomial and typically
/// good, but not optimal — the gap to the exact solvers is itself an
/// experiment.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyDescent;

impl Solver for GreedyDescent {
    fn name(&self) -> &'static str {
        "greedy-descent"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        _cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let mut current = Cut::max_offload(&prep.tree, &prep.colouring);
        let (_, rep) = evaluate_cut(prep, &current)?;
        let mut best_obj = rep.ssb_scaled(lambda);
        let mut evaluated = 1u64;
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            let mut improved: Option<(Cut, u128)> = None;
            for (i, &edge) in current.edges().iter().enumerate() {
                let Some(children) = push_down(prep, edge) else {
                    continue;
                };
                let mut edges: Vec<TreeEdge> = current.edges().to_vec();
                edges.remove(i);
                edges.extend(children);
                let cand = Cut::new(&prep.tree, edges)?;
                let (_, rep) = evaluate_cut(prep, &cand)?;
                evaluated += 1;
                let obj = rep.ssb_scaled(lambda);
                if obj < best_obj && improved.as_ref().map(|(_, o)| obj < *o).unwrap_or(true) {
                    improved = Some((cand, obj));
                }
            }
            match improved {
                Some((cut, obj)) => {
                    current = cut;
                    best_obj = obj;
                }
                None => break,
            }
        }
        Solution::from_cut_in(
            prep,
            current,
            lambda,
            SolveStats {
                iterations,
                evaluated,
                ..SolveStats::default()
            },
        )
    }
}

/// The edges one level below `edge`, or `None` when it cannot be pushed
/// further (a sensor edge).
fn push_down(prep: &Prepared<'_>, edge: TreeEdge) -> Option<Vec<TreeEdge>> {
    match edge {
        TreeEdge::Sensor(_) => None,
        TreeEdge::Parent(c) => {
            if prep.tree.is_leaf(c) {
                Some(vec![TreeEdge::Sensor(c)])
            } else {
                Some(
                    prep.tree
                        .children(c)
                        .iter()
                        .map(|&ch| TreeEdge::Parent(ch))
                        .collect(),
                )
            }
        }
    }
}

/// A seeded random valid cut: descend from the root, cutting each cuttable
/// edge with probability `p_cut`.
#[derive(Clone, Copy, Debug)]
pub struct RandomCut {
    /// RNG seed.
    pub seed: u64,
    /// Probability of cutting at each opportunity (per mille).
    pub p_cut_permille: u32,
}

impl Default for RandomCut {
    fn default() -> Self {
        RandomCut {
            seed: 0,
            p_cut_permille: 500,
        }
    }
}

impl Solver for RandomCut {
    fn name(&self) -> &'static str {
        "random-cut"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        _cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut edges = Vec::new();
        let mut stack = vec![prep.tree.root()];
        while let Some(c) = stack.pop() {
            let parent_edge = TreeEdge::Parent(c);
            let may_cut = c != prep.tree.root() && prep.colouring.cuttable(parent_edge);
            let cut_here = may_cut && rng.random_range(0..1000) < self.p_cut_permille;
            if cut_here {
                edges.push(parent_edge);
            } else if prep.tree.is_leaf(c) {
                edges.push(TreeEdge::Sensor(c));
            } else {
                for &ch in prep.tree.children(c) {
                    stack.push(ch);
                }
            }
        }
        Solution::from_cut_in(
            prep,
            Cut::new(&prep.tree, edges)?,
            lambda,
            SolveStats::default(),
        )
    }
}

/// Bokhari's objective as a solver: minimises `max(S, B)` exactly (via the
/// shared colour frontiers), then reports the resulting partition's S + B
/// delay — the comparison the paper motivates in §2.
#[derive(Clone, Copy, Debug, Default)]
pub struct SbObjective {
    /// Frontier configuration.
    pub config: ExpandedConfig,
}

impl Solver for SbObjective {
    fn name(&self) -> &'static str {
        "sb-objective"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        _cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let (mut sol, _sb) = solve_sb_expanded(prep, &self.config)?;
        // Re-report the objective under the requested λ for comparability.
        sol.lambda = lambda;
        sol.objective = sol.report.ssb_scaled(lambda);
        Ok(sol)
    }
}

/// The bottleneck `max(S,B)` value achieved by the SB-objective solver.
pub fn sb_optimum(prep: &Prepared<'_>) -> Result<Cost, AssignError> {
    let (_, sb) = solve_sb_expanded(prep, &ExpandedConfig::default())?;
    Ok(sb)
}

/// All built-in solvers, for experiments and examples.
pub fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(crate::PaperSsb::default()),
        Box::new(crate::Expanded::default()),
        Box::new(crate::BruteForce::default()),
        Box::new(AllOnHost),
        Box::new(MaxOffload),
        Box::new(GreedyDescent),
        Box::new(RandomCut::default()),
        Box::new(SbObjective::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForce;
    use hsa_tree::figures::fig2_tree;

    #[test]
    fn baselines_are_valid_but_not_better_than_optimal() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let optimal = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
        for solver in all_solvers() {
            let sol = solver.solve(&prep, Lambda::HALF).unwrap();
            sol.cut.validate(&t).unwrap();
            assert!(
                sol.objective >= optimal.objective,
                "{} beat the optimum?!",
                solver.name()
            );
        }
    }

    #[test]
    fn greedy_at_least_matches_its_start() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let start = MaxOffload.solve(&prep, Lambda::HALF).unwrap();
        let greedy = GreedyDescent.solve(&prep, Lambda::HALF).unwrap();
        assert!(greedy.objective <= start.objective);
    }

    #[test]
    fn random_cut_is_deterministic_per_seed() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let a = RandomCut {
            seed: 7,
            p_cut_permille: 400,
        }
        .solve(&prep, Lambda::HALF)
        .unwrap();
        let b = RandomCut {
            seed: 7,
            p_cut_permille: 400,
        }
        .solve(&prep, Lambda::HALF)
        .unwrap();
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn sb_objective_minimises_bottleneck_not_delay() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let sb = sb_optimum(&prep).unwrap();
        // No cut can have a smaller max(S, B).
        let optimal_delay = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
        let delay_sb = optimal_delay
            .report
            .host_time
            .max(optimal_delay.report.bottleneck);
        assert!(sb <= delay_sb);
    }

    #[test]
    fn all_on_host_places_everything_on_host() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let sol = AllOnHost.solve(&prep, Lambda::HALF).unwrap();
        assert_eq!(sol.assignment.host.len(), t.len());
    }
}
