//! Properties of the anytime racing portfolio (DESIGN.md §14):
//!
//! * **Differential**: on every exact-finishable instance (small enough
//!   that the exact arm completes within a generous budget), the
//!   portfolio's answer is cut-for-cut identical to a fresh
//!   [`Expanded`]`::solve` of the same instance, its certificate is
//!   tight, and re-asking answers from the engine cache byte-identically.
//! * **Dominance**: no heuristic arm ever beats the exact optimum — every
//!   cut-space arm's objective is an upper bound on it.
//! * **Certificate soundness**: `structural_lower_bound ≤ optimum ≤ arm
//!   objective` for every arm (the brute-force oracle supplies the
//!   optimum; [`hsa_heuristics::exhaustive_optimum`] is *not* usable here
//!   — it optimises DAG list-scheduling makespan, a different objective
//!   space), and a race's certificate history only ever shrinks the gap.
//!
//! Run under `PROPTEST_SEED=1..3` in CI; every property is seed-stable.

use hsa_assign::{structural_lower_bound, BruteForce, CancelToken, Expanded, Prepared, Solver};
use hsa_engine::{ArmKind, Engine, EngineConfig, Portfolio, PortfolioConfig};
use hsa_graph::Lambda;
use hsa_heuristics::{CutAnnealing, CutBranchBound, CutGenetic};
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;
use std::time::Duration;

/// A budget no small instance can exhaust: the differential property is
/// about *finishable* instances, so the race must always end by the exact
/// arm's report, never by deadline.
const GENEROUS: Duration = Duration::from_secs(120);

fn small_instance(seed: u64, n: usize) -> (hsa_tree::CruTree, hsa_tree::CostModel) {
    random_instance(
        &RandomTreeParams {
            n_crus: n,
            n_satellites: 3,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        seed,
    )
}

fn check_differential(
    tree: &hsa_tree::CruTree,
    costs: &hsa_tree::CostModel,
    lambda: Lambda,
) -> Result<(), TestCaseError> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let portfolio = Portfolio::new(Arc::clone(&engine), PortfolioConfig::default());
    let outcome = portfolio
        .solve_anytime(tree, costs, lambda, GENEROUS)
        .unwrap();
    let answer = &outcome.answer;

    prop_assert!(answer.exact_finished, "a finishable instance must finish");
    prop_assert_eq!(answer.winner, ArmKind::Exact);
    prop_assert!(answer.certificate.is_tight());

    // Cut-for-cut identical to a fresh from-scratch exact solve.
    let prep = Prepared::new(tree, costs).unwrap();
    let want = Expanded::default().solve(&prep, lambda).unwrap();
    prop_assert_eq!(&answer.solution.cut, &want.cut);
    prop_assert_eq!(answer.solution.objective, want.objective);
    prop_assert_eq!(answer.certificate.upper, want.objective);
    prop_assert_eq!(answer.certificate.lower, want.objective);

    // The exact arm donated its frontiers: the instance is now cached and
    // a re-ask answers from the cache, still byte-identical and tight.
    prop_assert_eq!(engine.len(), 1, "exact finish must populate the cache");
    let again = portfolio
        .solve_anytime(tree, costs, lambda, GENEROUS)
        .unwrap();
    prop_assert!(again.answer.exact_finished);
    prop_assert_eq!(&again.answer.solution.cut, &want.cut);
    prop_assert_eq!(again.answer.solution.objective, want.objective);

    // Both answers counted as queries; the race's donation as the one
    // miss and the re-ask as the one hit.
    let stats = engine.stats();
    prop_assert_eq!(stats.queries, 2);
    prop_assert_eq!(stats.failed, 0);
    prop_assert_eq!(stats.cache_misses, 1);
    prop_assert_eq!(stats.cache_hits, 1);
    Ok(())
}

fn check_certificates(
    tree: &hsa_tree::CruTree,
    costs: &hsa_tree::CostModel,
    lambda: Lambda,
) -> Result<(), TestCaseError> {
    let prep = Prepared::new(tree, costs).unwrap();
    let optimum = BruteForce::default()
        .solve(&prep, lambda)
        .unwrap()
        .objective;
    let exact = Expanded::default().solve(&prep, lambda).unwrap().objective;
    prop_assert_eq!(exact, optimum, "expanded solver is the oracle's equal");
    let lower = structural_lower_bound(&prep, lambda);
    prop_assert!(lower <= optimum, "structural bound must be admissible");

    let arms: [(&str, Box<dyn Solver>); 3] = [
        ("cut-ga", Box::new(CutGenetic::default())),
        ("cut-sa", Box::new(CutAnnealing::default())),
        ("cut-bnb", Box::new(CutBranchBound::default())),
    ];
    for (name, arm) in arms {
        let sol = arm.solve(&prep, lambda).unwrap();
        prop_assert!(
            sol.objective >= optimum,
            "{} beat the optimum: {} < {}",
            name,
            sol.objective,
            optimum
        );
        // The certificate this arm's answer would carry is sound.
        prop_assert!(lower <= optimum && optimum <= sol.objective);
    }

    // A cancelled-immediately arm still answers feasibly and soundly (the
    // incumbent it was seeded with), so a tiny budget can never produce an
    // uncertified or infeasible answer.
    let token = CancelToken::new();
    token.cancel();
    let sol = CutGenetic::default()
        .solve_cancellable(&prep, lambda, &token)
        .unwrap();
    prop_assert!(sol.objective >= optimum);
    Ok(())
}

fn check_monotone_history(
    tree: &hsa_tree::CruTree,
    costs: &hsa_tree::CostModel,
    lambda: Lambda,
) -> Result<(), TestCaseError> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let portfolio = Portfolio::new(engine, PortfolioConfig::default());
    let outcome = portfolio
        .solve_anytime(tree, costs, lambda, GENEROUS)
        .unwrap();
    let certs = &outcome.certificates;
    prop_assert!(!certs.is_empty(), "an answered race records a certificate");
    for w in certs.windows(2) {
        prop_assert!(w[1].lower >= w[0].lower, "lower bound must not decrease");
        prop_assert!(w[1].upper <= w[0].upper, "upper bound must not increase");
    }
    prop_assert_eq!(*certs.last().unwrap(), outcome.answer.certificate);
    prop_assert_eq!(
        outcome.answer.certificate.upper,
        outcome.answer.solution.objective,
        "the certified upper bound is the answer's own objective"
    );
    prop_assert_eq!(outcome.upgrades as usize + 1, certs.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential: portfolio ≡ Expanded on every finishable instance.
    #[test]
    fn portfolio_matches_expanded_when_exact_finishes(
        seed in 0u64..500,
        n in 6usize..16,
        num in 0u32..=4,
    ) {
        let (tree, costs) = small_instance(seed, n);
        let lambda = Lambda::new(num, 4).unwrap();
        check_differential(&tree, &costs, lambda)?;
    }

    /// Soundness: structural lower ≤ brute-force optimum ≤ every arm.
    #[test]
    fn certificates_bracket_the_true_optimum(
        seed in 0u64..500,
        n in 6usize..13,
        num in 0u32..=4,
    ) {
        let (tree, costs) = small_instance(seed, n);
        let lambda = Lambda::new(num, 4).unwrap();
        check_certificates(&tree, &costs, lambda)?;
    }

    /// Monotonicity: a race's certificate history only shrinks the gap.
    #[test]
    fn certificate_history_is_monotone(seed in 0u64..500, n in 6usize..20) {
        let (tree, costs) = small_instance(seed, n);
        check_monotone_history(&tree, &costs, Lambda::HALF)?;
    }
}
