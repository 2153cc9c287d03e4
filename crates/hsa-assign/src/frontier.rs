//! The **λ-frontier** of the coloured assignment problem: every optimal
//! cut for every λ ∈ [0, 1], from one pass.
//!
//! The full-expansion solver ([`crate::Expanded`]) minimises
//! `λ·S + (1−λ)·B` over a candidate set that is *independent of λ*: for
//! each threshold θ (a frontier β value) it picks, per colour, the
//! cheapest-σ frontier point with β ≤ θ — picks that never consult λ. Only
//! the final argmin over θ does. The optimum as a function of λ is
//! therefore the lower envelope of the candidates' lines
//! `f(λ) = λ·S(θ) + (1−λ)·B(θ)` — computed exactly by
//! [`hsa_graph::envelope::lower_envelope`] with rational breakpoints.
//!
//! One frontier pass costs roughly one [`crate::Expanded`] solve; it then
//! answers *any* λ query in O(#segments), with the segment structure
//! (breakpoints, per-segment cuts) available for inspection. Agreement with
//! independent per-λ solves is property-tested at λ = 0, ½, 1 and at every
//! segment midpoint (`tests/` of the `hsa-engine` crate).

use crate::expanded::{pick_for_threshold, sweep_thresholds};
use crate::{AssignError, ExpandedConfig, FrontierSet, Prepared, SolveStats};
use hsa_graph::envelope::{lower_envelope, EnvelopeSegment, LambdaEnvelope, LambdaQ};
use hsa_graph::{Cost, Lambda, ScaledSsb};
use hsa_tree::Cut;
use serde::{Deserialize, Serialize};

/// The piecewise-linear lower envelope of optimal cuts over λ ∈ [0, 1].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LambdaFrontier {
    envelope: LambdaEnvelope<Cut>,
    /// Work counters of the frontier construction (composites = |E′|,
    /// evaluated = thresholds probed).
    pub stats: SolveStats,
}

impl LambdaFrontier {
    /// The λ-ordered segments; each carries the cut that is optimal on its
    /// interval, with its S and B weights.
    pub fn segments(&self) -> &[EnvelopeSegment<Cut>] {
        self.envelope.segments()
    }

    /// Number of segments (distinct optimal cuts across all λ).
    pub fn num_segments(&self) -> usize {
        self.envelope.len()
    }

    /// The interior breakpoints — the exact rational λ values where the
    /// optimal cut changes.
    pub fn breakpoints(&self) -> Vec<LambdaQ> {
        self.envelope.breakpoints()
    }

    /// Number of interior breakpoints, without materialising them.
    pub fn num_breakpoints(&self) -> usize {
        self.envelope.num_breakpoints()
    }

    /// The exact scaled optimum `λ·S + (1−λ)·B` at `lambda`. Agrees with an
    /// independent [`crate::Solver::solve`] of an exact solver at that λ.
    pub fn objective_at(&self, lambda: Lambda) -> ScaledSsb {
        self.envelope.objective_at(lambda)
    }

    /// The cut that is optimal at `lambda` (at a breakpoint: the cut of the
    /// left segment — both tie on the objective there).
    pub fn cut_at(&self, lambda: Lambda) -> &Cut {
        &self.envelope.segment_at(lambda).payload
    }
}

/// Computes the λ-frontier of an instance (frontier DP + envelope).
pub fn lambda_frontier(
    prep: &Prepared<'_>,
    cfg: &ExpandedConfig,
) -> Result<LambdaFrontier, AssignError> {
    let fs = FrontierSet::prepare(prep, cfg)?;
    lambda_frontier_with(prep, &fs)
}

/// Computes the λ-frontier from an already-prepared [`FrontierSet`] (the
/// batch-engine path: the expensive per-instance DP is cached, the envelope
/// is rebuilt from it in one θ walk, a single pass over the frontier points
/// in the set's merged β order).
pub fn lambda_frontier_with(
    prep: &Prepared<'_>,
    fs: &FrontierSet,
) -> Result<LambdaFrontier, AssignError> {
    // Candidates carry only their threshold: the shared θ walk yields
    // (S, B = θ) per feasible θ, in ascending order, and full cuts are
    // built just for the few hull-surviving segments afterwards, by the
    // full-expansion solver's own pick rule — so both sweeps choose
    // identically by construction.
    let mut candidates: Vec<(Cost, Cost, Cost)> = Vec::new();
    let evaluated = sweep_thresholds(fs, |theta, s| candidates.push((s, theta, theta)));
    // The envelope's stable Pareto keeps the earliest θ among identical
    // (S, B) pairs, so the frontier is fully deterministic.
    let envelope = lower_envelope(candidates).ok_or(AssignError::NoFeasibleAssignment)?;
    let envelope =
        envelope.try_map(|theta| Ok::<_, AssignError>(pick_for_threshold(prep, fs, theta)))?;
    Ok(LambdaFrontier {
        envelope,
        stats: SolveStats {
            composites: fs.composites,
            evaluated,
            ..SolveStats::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForce, Expanded, Solution, Solver};
    use hsa_tree::figures::fig2_tree;

    #[test]
    fn frontier_agrees_with_expanded_on_a_lambda_grid() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let fr = lambda_frontier(&prep, &ExpandedConfig::default()).unwrap();
        assert!(fr.num_segments() >= 1);
        for num in 0..=12u32 {
            let lambda = Lambda::new(num, 12).unwrap();
            let solo = Expanded::default().solve(&prep, lambda).unwrap();
            assert_eq!(fr.objective_at(lambda), solo.objective, "λ={num}/12");
        }
    }

    #[test]
    fn frontier_agrees_with_brute_force_at_breakpoint_midpoints() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let fr = lambda_frontier(&prep, &ExpandedConfig::default()).unwrap();
        for seg in fr.segments() {
            let Some(lambda) = seg.midpoint().as_lambda() else {
                continue;
            };
            let brute = BruteForce::default().solve(&prep, lambda).unwrap();
            assert_eq!(fr.objective_at(lambda), brute.objective);
            // The segment's own cut achieves that objective when evaluated.
            let sol =
                Solution::from_cut(&prep, fr.cut_at(lambda).clone(), lambda, fr.stats).unwrap();
            assert_eq!(sol.objective, brute.objective);
        }
    }

    #[test]
    fn breakpoints_are_sorted_and_interior() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let fr = lambda_frontier(&prep, &ExpandedConfig::default()).unwrap();
        let bps = fr.breakpoints();
        assert_eq!(bps.len(), fr.num_segments() - 1);
        for w in bps.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for bp in &bps {
            assert!(LambdaQ::ZERO < *bp && *bp < LambdaQ::ONE);
        }
    }

    #[test]
    fn extreme_lambdas_pick_extreme_cuts() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let fr = lambda_frontier(&prep, &ExpandedConfig::default()).unwrap();
        // λ=1 minimises S alone, λ=0 minimises B alone.
        let seg1 = fr.segments().last().unwrap();
        let seg0 = fr.segments().first().unwrap();
        assert!(seg1.s <= seg0.s);
        assert!(seg0.b <= seg1.b);
    }
}
