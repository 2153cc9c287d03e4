//! Property: `Engine::frontier` agrees with independent per-λ solves by
//! the full-expansion solver *and* brute force — at λ = 0, ½, 1 and at the
//! midpoint of every frontier segment — on random and on interleaved
//! instances (the DESIGN §2 hard regime, where a colour occupies several
//! disjoint leaf bands).

use hsa_assign::{BruteForce, Expanded, Prepared, Solution, Solver};
use hsa_engine::{Engine, EngineConfig};
use hsa_graph::Lambda;
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Every λ the property probes: the three anchors plus each segment's
/// exact midpoint (skipping midpoints whose reduced rational leaves u32 —
/// impossible at these cost scales, but the API is total).
fn probe_lambdas(frontier: &hsa_assign::LambdaFrontier) -> Vec<Lambda> {
    let mut lambdas = vec![Lambda::ZERO, Lambda::HALF, Lambda::ONE];
    for seg in frontier.segments() {
        if let Some(lambda) = seg.midpoint().as_lambda() {
            lambdas.push(lambda);
        }
    }
    lambdas
}

fn check_instance(
    tree: &hsa_tree::CruTree,
    costs: &hsa_tree::CostModel,
) -> Result<(), TestCaseError> {
    let engine = Engine::new(EngineConfig::default());
    let id = engine.prepare(tree, costs).unwrap();
    let frontier = engine.frontier(id).unwrap();
    let prep = Prepared::new(tree, costs).unwrap();
    for lambda in probe_lambdas(&frontier) {
        let expanded = Expanded::default().solve(&prep, lambda).unwrap();
        prop_assert_eq!(
            frontier.objective_at(lambda),
            expanded.objective,
            "frontier vs expanded at λ={}",
            lambda
        );
        let brute = BruteForce::default().solve(&prep, lambda).unwrap();
        prop_assert_eq!(
            frontier.objective_at(lambda),
            brute.objective,
            "frontier vs brute force at λ={}",
            lambda
        );
        // The frontier's own cut must *achieve* the claimed objective.
        let materialised = Solution::from_cut(
            &prep,
            frontier.cut_at(lambda).clone(),
            lambda,
            frontier.stats,
        )
        .unwrap();
        prop_assert_eq!(materialised.objective, brute.objective);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random placement: general trees, arbitrary sensor pinning.
    #[test]
    fn frontier_is_exact_on_random_instances(seed in 0u64..1000, n in 6usize..16) {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: n,
                n_satellites: 3,
                placement: Placement::Random,
                ..RandomTreeParams::default()
            },
            seed,
        );
        check_instance(&tree, &costs)?;
    }

    /// Interleaved placement: colours split across disjoint bands — the
    /// regime where the paper's contiguous expansion alone is insufficient.
    #[test]
    fn frontier_is_exact_on_interleaved_instances(seed in 0u64..1000, n in 6usize..16) {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: n,
                n_satellites: 2,
                placement: Placement::Interleaved,
                ..RandomTreeParams::default()
            },
            seed,
        );
        check_instance(&tree, &costs)?;
    }
}
