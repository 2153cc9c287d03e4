//! Cut-space heuristic arms: the bnb/ga/sa searches retargeted at the
//! paper's *tree-cut* problem behind the [`hsa_assign::Solver`] trait.
//! The GA and the annealer have no loop of their own: they run
//! [`crate::ga`]'s generation loop and [`crate::sa`]'s annealing loop, the
//! same ones [`crate::genetic`] and [`crate::simulated_annealing`] run,
//! supplying only the start, the fitness and the gene move (a bit flip).
//!
//! The DAG-model heuristics in this crate ([`crate::genetic`],
//! [`crate::simulated_annealing`], [`crate::branch_and_bound`]) optimise
//! list-scheduling makespan — a different objective space from the exact
//! solvers, so their answers cannot race the exact arm on one scoreboard.
//! These adapters search the same space the exact solvers do:
//!
//! * **Genotype**: one bit per CRU — "cut my parent edge". A top-down
//!   repair pass turns any bit string into a *valid* cut: walking from the
//!   root, a set bit on a cuttable edge closes its whole subtree, and any
//!   leaf reached uncut contributes its sensor edge. Every genotype is
//!   feasible (the all-zero genome is exactly [`Cut::all_on_host`]).
//! * **Fitness**: the λ-scaled SSB objective `λ·Σσ + (1−λ)·max_s Σβ_s`
//!   computed directly from the σ/β labels — identical, by the expanded
//!   solver's own sweep formula, to the objective an exact solve reports
//!   for the same cut. Heuristic and exact answers are therefore directly
//!   comparable, and a heuristic cost below the exact optimum is a bug.
//! * **Anytime contract**: each arm polls a [`CancelToken`] at loop
//!   boundaries and returns its best incumbent so far instead of erroring —
//!   the racing portfolio's deadline semantics. An uncancelled run is
//!   deterministic per seed.

use crate::ga::evolve;
use crate::sa::anneal;
use crate::{BnbConfig, GaConfig, SaConfig};
use hsa_assign::{AssignError, CancelToken, Prepared, Solution, SolveStats, Solver};
use hsa_graph::{Cost, Lambda, ScaledSsb};
use hsa_tree::{Cut, TreeEdge};
use rand::Rng;

/// The top-down repair walk: hands `take` every edge of the cut `genome`
/// repairs to, in preorder. A set bit on a cuttable parent edge closes the
/// node's subtree, which the subtree-size index skips; a leaf reached uncut
/// contributes its sensor edge. The walk covers every leaf exactly once
/// with non-conflicted edges, so the edges form a valid cut.
fn repair_walk(prep: &Prepared<'_>, genome: &[bool], mut take: impl FnMut(TreeEdge)) {
    let tree = prep.tree.as_ref();
    let root = tree.root();
    let mut i = 0usize;
    while i < prep.eval.preorder.len() {
        let c = prep.eval.preorder[i];
        let e = TreeEdge::Parent(c);
        if c != root && genome[c.index()] && prep.colouring.cuttable(e) {
            take(e);
            i += prep.eval.size[c.index()] as usize;
            continue;
        }
        if tree.is_leaf(c) {
            take(TreeEdge::Sensor(c));
        }
        i += 1;
    }
}

/// Reusable per-run buffers for genome evaluation.
struct GenomeEval {
    /// Per-satellite Σβ accumulator.
    loads: Vec<Cost>,
}

impl GenomeEval {
    fn new(prep: &Prepared<'_>) -> GenomeEval {
        GenomeEval {
            loads: vec![Cost::ZERO; prep.n_satellites() as usize],
        }
    }

    /// The λ-scaled objective of the cut `genome` repairs to, summed over
    /// the repair walk without materialising the cut.
    fn objective(&mut self, prep: &Prepared<'_>, genome: &[bool], lambda: Lambda) -> ScaledSsb {
        self.loads.fill(Cost::ZERO);
        let mut s_acc = Cost::ZERO;
        let loads = &mut self.loads;
        repair_walk(prep, genome, |e| {
            s_acc += prep.sigma.sigma(e);
            if let Some(s) = prep.colouring.edge_colour(e).satellite() {
                loads[s.index()] += prep.beta.beta(e);
            }
        });
        let b = self.loads.iter().copied().fold(Cost::ZERO, Cost::max);
        lambda.ssb_scaled(s_acc, b)
    }
}

/// Materialises the cut a genome repairs to.
fn genome_cut(prep: &Prepared<'_>, genome: &[bool]) -> Cut {
    let mut edges = Vec::new();
    repair_walk(prep, genome, |e| edges.push(e));
    Cut::trusted(&prep.tree, edges)
}

/// Builds the full [`Solution`] for the winning genome.
fn genome_solution(
    prep: &Prepared<'_>,
    genome: &[bool],
    lambda: Lambda,
    stats: SolveStats,
) -> Result<Solution, AssignError> {
    Solution::from_cut_in(prep, genome_cut(prep, genome), lambda, stats)
}

/// Genetic search over cut genomes (the paper's §6 GA, retargeted).
///
/// Reuses [`GaConfig`] unchanged: population / generations / tournament /
/// mutation / elitism / seed all mean the same thing, the chromosome is a
/// bit string instead of a location vector. Cancellation returns the best
/// individual bred so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct CutGenetic {
    /// GA hyper-parameters (the seed makes runs replayable).
    pub config: GaConfig,
}

impl Solver for CutGenetic {
    fn name(&self) -> &'static str {
        "cut-ga"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let n = prep.tree.len();
        let mut eval = GenomeEval::new(prep);
        let mut evaluated = 0u64;
        let (best, _, _) = evolve(
            &self.config,
            // The two trivial feasible extremes, then random genomes.
            |size, rng| {
                let mut population = vec![vec![false; n], vec![true; n]];
                population.resize_with(size, || (0..n).map(|_| rng.random_bool(0.5)).collect());
                population
            },
            |g| {
                evaluated += 1;
                eval.objective(prep, g, lambda)
            },
            |_, bit, _| !bit,
            || cancel.is_cancelled(),
        );
        genome_solution(
            prep,
            &best,
            lambda,
            SolveStats {
                evaluated,
                ..SolveStats::default()
            },
        )
    }
}

/// Simulated annealing over cut genomes: single-bit-flip neighbourhood,
/// Metropolis acceptance, geometric cooling ([`SaConfig`] unchanged).
/// Starts from all-on-host; cancellation returns the best incumbent.
#[derive(Clone, Copy, Debug, Default)]
pub struct CutAnnealing {
    /// SA hyper-parameters (the seed makes runs replayable).
    pub config: SaConfig,
}

impl Solver for CutAnnealing {
    fn name(&self) -> &'static str {
        "cut-sa"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let n = prep.tree.len();
        let mut eval = GenomeEval::new(prep);
        let mut evaluated = 0u64;
        let (best, _, _) = anneal(
            &self.config,
            vec![false; n],
            &(0..n).collect::<Vec<_>>(),
            |g| {
                evaluated += 1;
                eval.objective(prep, g, lambda)
            },
            |_, bit, _| !bit,
            || cancel.is_cancelled(),
        );
        genome_solution(
            prep,
            &best,
            lambda,
            SolveStats {
                evaluated,
                ..SolveStats::default()
            },
        )
    }
}

/// Branch-and-bound over cuts: preorder decision DFS with an admissible
/// partial-objective bound.
///
/// At each node the search either **cuts the parent edge** (when cuttable,
/// closing the subtree) or **descends** (a leaf reached uncut contributes
/// its sensor edge). Partial objectives only grow — σ and β are
/// non-negative — so `λ·S_partial + (1−λ)·B_partial` is an admissible
/// lower bound on every completion and prunes against the incumbent.
/// Unlike the DAG-model [`crate::branch_and_bound`] (which errors on
/// budget exhaustion), this arm is *anytime*: it seeds its incumbent with
/// all-on-host and returns the best cut found when the node budget runs
/// out or the token fires. An exhausted-free run is exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct CutBranchBound {
    /// Node-budget configuration.
    pub config: BnbConfig,
}

struct BnbState<'p, 'a> {
    prep: &'p Prepared<'a>,
    lambda: Lambda,
    genome: Vec<bool>,
    loads: Vec<Cost>,
    best_genome: Vec<bool>,
    best_obj: ScaledSsb,
    nodes: u64,
    budget: u64,
    exhausted: bool,
    cancel: CancelToken,
    evaluated: u64,
}

impl BnbState<'_, '_> {
    /// DFS over preorder position `i` with partial sums `(s_acc, b_max)`.
    fn dfs(&mut self, i: usize, s_acc: Cost, b_max: Cost) {
        if self.exhausted {
            return;
        }
        self.nodes += 1;
        if self.nodes >= self.budget
            || (self.nodes.is_multiple_of(1024) && self.cancel.is_cancelled())
        {
            self.exhausted = true;
            return;
        }
        let prep = self.prep;
        if i >= prep.eval.preorder.len() {
            let obj = self.lambda.ssb_scaled(s_acc, b_max);
            self.evaluated += 1;
            if obj < self.best_obj {
                self.best_obj = obj;
                self.best_genome.copy_from_slice(&self.genome);
            }
            return;
        }
        if self.lambda.ssb_scaled(s_acc, b_max) >= self.best_obj {
            return; // admissible bound: no completion can improve
        }
        let c = prep.eval.preorder[i];
        let tree = prep.tree.as_ref();
        let parent_edge = TreeEdge::Parent(c);
        // Option 1: cut above `c`, closing its subtree.
        if c != tree.root() && prep.colouring.cuttable(parent_edge) {
            let sat = prep
                .colouring
                .edge_colour(parent_edge)
                .satellite()
                .expect("cuttable edges carry a satellite colour");
            let beta = prep.beta.beta(parent_edge);
            self.genome[c.index()] = true;
            self.loads[sat.index()] += beta;
            let b = b_max.max(self.loads[sat.index()]);
            self.dfs(
                i + prep.eval.size[c.index()] as usize,
                s_acc + prep.sigma.sigma(parent_edge),
                b,
            );
            self.loads[sat.index()] = self.loads[sat.index()] - beta;
            self.genome[c.index()] = false;
        }
        // Option 2: descend (sensor edge forced at a leaf).
        if tree.is_leaf(c) {
            let e = TreeEdge::Sensor(c);
            let sat = prep
                .colouring
                .edge_colour(e)
                .satellite()
                .expect("sensor edges carry the leaf's satellite");
            let beta = prep.beta.beta(e);
            self.loads[sat.index()] += beta;
            let b = b_max.max(self.loads[sat.index()]);
            self.dfs(i + 1, s_acc + prep.sigma.sigma(e), b);
            self.loads[sat.index()] = self.loads[sat.index()] - beta;
        } else {
            self.dfs(i + 1, s_acc, b_max);
        }
    }
}

impl Solver for CutBranchBound {
    fn name(&self) -> &'static str {
        "cut-bnb"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let n = prep.tree.len();
        let mut eval = GenomeEval::new(prep);
        let all_host = vec![false; n];
        let seed_obj = eval.objective(prep, &all_host, lambda);
        let mut state = BnbState {
            prep,
            lambda,
            genome: vec![false; n],
            loads: vec![Cost::ZERO; prep.n_satellites() as usize],
            best_genome: all_host,
            // Strictly-better updates still let the DFS rediscover the
            // all-host completion's equal-cost twins without losing it.
            best_obj: seed_obj.saturating_add(1),
            nodes: 0,
            budget: self.config.node_budget.max(1),
            exhausted: false,
            cancel: cancel.clone(),
            evaluated: 1,
        };
        state.dfs(0, Cost::ZERO, Cost::ZERO);
        let stats = SolveStats {
            branches: state.nodes,
            evaluated: state.evaluated,
            ..SolveStats::default()
        };
        genome_solution(prep, &state.best_genome, lambda, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_assign::{BruteForce, Expanded};
    use hsa_tree::figures::fig2_tree;
    use hsa_workloads::{random_instance, Placement, RandomTreeParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prep_fig2() -> (hsa_tree::CruTree, hsa_tree::CostModel) {
        fig2_tree()
    }

    #[test]
    fn all_zero_genome_is_all_on_host() {
        let (t, m) = prep_fig2();
        let prep = Prepared::new(&t, &m).unwrap();
        let genome = vec![false; t.len()];
        let cut = genome_cut(&prep, &genome);
        assert_eq!(cut.edges(), Cut::all_on_host(&t).edges());
    }

    /// Guards the repair walk the fitness and the cut builder share: every
    /// repaired cut is valid (`Cut::trusted` does not check in release),
    /// the fitness equals the objective of that cut under the walking
    /// reference evaluation (`Solution::from_cut`), and the walk-free
    /// answer the arms return matches that reference field for field.
    #[test]
    fn genome_objective_matches_full_evaluation() {
        let (random_tree, random_costs) = random_instance(
            &RandomTreeParams {
                n_crus: 24,
                placement: Placement::Interleaved,
                ..RandomTreeParams::default()
            },
            11,
        );
        let mut rng = StdRng::seed_from_u64(22);
        for (t, m) in [prep_fig2(), (random_tree, random_costs)] {
            let prep = Prepared::new(&t, &m).unwrap();
            let mut eval = GenomeEval::new(&prep);
            let n = t.len();
            // Both extremes, every one-bit genome, then seeded random
            // genomes from sparse to dense.
            let mut genomes = vec![vec![false; n], vec![true; n]];
            for k in 0..n {
                let mut g = vec![false; n];
                g[k] = true;
                genomes.push(g);
            }
            for p in [0.1, 0.3, 0.5, 0.8] {
                for _ in 0..16 {
                    genomes.push((0..n).map(|_| rng.random_bool(p)).collect());
                }
            }
            for g in genomes {
                let cut = genome_cut(&prep, &g);
                assert!(cut.validate(&t).is_ok(), "genome {g:?} repaired invalid");
                for lambda in [Lambda::ZERO, Lambda::HALF, Lambda::ONE] {
                    let fast = eval.objective(&prep, &g, lambda);
                    let want =
                        Solution::from_cut(&prep, cut.clone(), lambda, SolveStats::default())
                            .unwrap();
                    let sol = genome_solution(&prep, &g, lambda, SolveStats::default()).unwrap();
                    assert_eq!(fast, want.objective, "genome {g:?} at λ={lambda:?}");
                    assert_eq!(sol.cut, want.cut, "genome {g:?}");
                    assert_eq!(sol.report, want.report, "genome {g:?} at λ={lambda:?}");
                    assert_eq!(sol.assignment, want.assignment, "genome {g:?}");
                }
            }
        }
    }

    #[test]
    fn cut_bnb_is_exact_within_budget() {
        let (t, m) = prep_fig2();
        let prep = Prepared::new(&t, &m).unwrap();
        for lambda in [Lambda::ZERO, Lambda::HALF, Lambda::ONE] {
            let exact = BruteForce::default().solve(&prep, lambda).unwrap();
            let bnb = CutBranchBound::default().solve(&prep, lambda).unwrap();
            assert_eq!(bnb.objective, exact.objective, "λ={lambda:?}");
        }
    }

    #[test]
    fn heuristic_arms_never_beat_exact() {
        let (t, m) = prep_fig2();
        let prep = Prepared::new(&t, &m).unwrap();
        let exact = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        for arm in [
            &CutGenetic::default() as &dyn Solver,
            &CutAnnealing::default(),
            &CutBranchBound::default(),
        ] {
            let sol = arm.solve(&prep, Lambda::HALF).unwrap();
            assert!(
                sol.objective >= exact.objective,
                "{} reported {} below the optimum {}",
                arm.name(),
                sol.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn cancelled_arms_still_answer_feasibly() {
        let (t, m) = prep_fig2();
        let prep = Prepared::new(&t, &m).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        for arm in [
            &CutGenetic::default() as &dyn Solver,
            &CutAnnealing::default(),
            &CutBranchBound::default(),
        ] {
            let sol = arm.solve_cancellable(&prep, Lambda::HALF, &cancel).unwrap();
            sol.cut.validate(&t).unwrap();
        }
    }

    /// Pins each seeded heuristic's run under the *default* seeds, so a
    /// portfolio race replayed from a report reproduces the same arms
    /// bit-for-bit. An objective alone can survive a reordered RNG draw,
    /// so the pins also cover the cut arms' winning cuts and evaluation
    /// counts, the DAG GA's best makespan per generation and the DAG
    /// annealer's accepted moves. If a deliberate algorithm change moves
    /// these numbers, update them consciously — never delete the pin.
    #[test]
    fn default_seeds_pin_regression_values() {
        let (t, m) = prep_fig2();
        let prep = Prepared::new(&t, &m).unwrap();
        let cut = [3, 4, 6, 7, 12].map(|c| TreeEdge::Parent(hsa_tree::CruId(c)));
        let ga = CutGenetic::default().solve(&prep, Lambda::HALF).unwrap();
        assert_eq!(ga.objective, 242, "cut-ga drifted under the default seed");
        assert_eq!(ga.cut.edges(), cut, "cut-ga drifted");
        assert_eq!(ga.stats.evaluated, 7260, "cut-ga drifted");
        let sa = CutAnnealing::default().solve(&prep, Lambda::HALF).unwrap();
        assert_eq!(sa.objective, 242, "cut-sa drifted under the default seed");
        assert_eq!(sa.cut.edges(), cut, "cut-sa drifted");
        assert_eq!(sa.stats.evaluated, 4001, "cut-sa drifted");
        let dag = crate::TaskDag::from_tree(&t, &m);
        let dga = crate::genetic(&dag, &crate::GaConfig::default()).unwrap();
        assert_eq!(dga.makespan.ticks(), 148, "dag-ga drifted");
        // The whole history, run-length encoded as (makespan, generations).
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for c in &dga.history {
            match runs.last_mut() {
                Some((v, k)) if *v == c.ticks() => *k += 1,
                _ => runs.push((c.ticks(), 1)),
            }
        }
        let want = [
            (259, 1),
            (207, 2),
            (202, 2),
            (189, 1),
            (186, 1),
            (174, 1),
            (167, 4),
            (160, 2),
            (157, 6),
            (148, 101),
        ];
        assert_eq!(runs, want, "dag-ga history drifted");
        let dsa = crate::simulated_annealing(&dag, &crate::SaConfig::default()).unwrap();
        assert_eq!(dsa.makespan.ticks(), 193, "dag-sa drifted");
        assert_eq!(dsa.accepted, 3146, "dag-sa drifted");
    }

    #[test]
    fn arms_are_deterministic_per_seed() {
        let (t, m) = prep_fig2();
        let prep = Prepared::new(&t, &m).unwrap();
        for arm in [
            &CutGenetic::default() as &dyn Solver,
            &CutAnnealing::default(),
            &CutBranchBound::default(),
        ] {
            let a = arm.solve(&prep, Lambda::HALF).unwrap();
            let b = arm.solve(&prep, Lambda::HALF).unwrap();
            assert_eq!(a.objective, b.objective);
            assert_eq!(a.cut.edges(), b.cut.edges());
        }
    }
}
