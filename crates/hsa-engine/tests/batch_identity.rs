//! Acceptance gate of the batch engine: `Engine::solve_batch` over a large
//! mixed workload must be **byte-identical** — objective and cut — to
//! sequential per-call `Solver::solve` on freshly prepared instances.

use hsa_assign::{Expanded, Prepared, Solver};
use hsa_engine::{Engine, EngineConfig, InstanceId};
use hsa_graph::Lambda;
use hsa_workloads::{catalog, random_instance, Placement, RandomTreeParams, Scenario};

/// The acceptance workload: catalog scenarios plus random instances across
/// every placement regime, crossed with a λ grid — comfortably over 64
/// queries.
fn workload() -> (Vec<Scenario>, Vec<Lambda>) {
    let mut scenarios = catalog();
    for (seed, placement) in [
        (1u64, Placement::Blocked),
        (2, Placement::Interleaved),
        (3, Placement::Random),
        (4, Placement::Interleaved),
    ] {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: 18,
                n_satellites: 3,
                placement,
                ..RandomTreeParams::default()
            },
            seed,
        );
        scenarios.push(Scenario {
            name: format!("random-{seed}-{placement:?}"),
            description: String::new(),
            tree,
            costs,
        });
    }
    let lambdas: Vec<Lambda> = (0..=9).map(|n| Lambda::new(n, 9).unwrap()).collect();
    (scenarios, lambdas)
}

#[test]
fn solve_batch_is_byte_identical_to_sequential_solves() {
    let (scenarios, lambdas) = workload();
    let engine = Engine::new(EngineConfig::default());
    let ids: Vec<InstanceId> = scenarios
        .iter()
        .map(|sc| engine.prepare(&sc.tree, &sc.costs).unwrap())
        .collect();

    let mut queries: Vec<(InstanceId, Lambda)> = Vec::new();
    for &id in &ids {
        for &lambda in &lambdas {
            queries.push((id, lambda));
        }
    }
    assert!(
        queries.len() >= 64,
        "acceptance demands ≥ 64 queries, got {}",
        queries.len()
    );

    let batch = engine.solve_batch(&queries);

    // The naive path: a fresh Prepared and a fresh solve per query.
    let mut q = 0;
    for sc in &scenarios {
        for &lambda in &lambdas {
            let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
            let want = Expanded::default().solve(&prep, lambda).unwrap();
            let got = batch[q].as_ref().unwrap_or_else(|e| {
                panic!("query {q} ({}, λ={lambda}) failed: {e}", sc.name);
            });
            assert_eq!(
                got.objective, want.objective,
                "objective diverged on {} at λ={lambda}",
                sc.name
            );
            assert_eq!(
                got.cut, want.cut,
                "cut diverged on {} at λ={lambda}",
                sc.name
            );
            q += 1;
        }
    }
    assert_eq!(q, queries.len());
    assert_eq!(engine.stats().queries, queries.len() as u64);
}

#[test]
fn repeated_batches_reuse_the_cache_and_stay_stable() {
    let (scenarios, _) = workload();
    let sc = &scenarios[0];
    let engine = Engine::new(EngineConfig::default());
    let id = engine.prepare(&sc.tree, &sc.costs).unwrap();
    let queries = vec![(id, Lambda::HALF); 8];
    let first = engine.solve_batch(&queries);
    // Re-preparing the same instance is a hit, and answers do not drift.
    let id2 = engine.prepare(&sc.tree, &sc.costs).unwrap();
    assert_eq!(id, id2);
    let second = engine.solve_batch(&queries);
    for (a, b) in first.iter().zip(&second) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.cut, b.cut);
    }
    assert_eq!(engine.len(), 1);
    assert_eq!(engine.stats().cache_hits, 1);
}
