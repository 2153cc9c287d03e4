//! Cancellation discipline of the anytime portfolio: losing arms drain,
//! nothing leaks, budgets actually bound the caller's wait.
//!
//! The timing assertions here are deliberately loose (seconds of slack on
//! a millisecond budget) — they catch a *hang* (an arm that never observes
//! cancellation, a race that waits on a dead arm), not scheduler jitter.

use hsa_engine::{
    Engine, EngineConfig, Portfolio, PortfolioConfig, Request, Service, ServiceConfig,
};
use hsa_graph::Lambda;
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An instance big enough that the exact arm cannot finish within a
/// millisecond-scale budget (the frontier DP alone is well past it), while
/// the heuristic arms' deadline polling still answers promptly.
fn big_instance(seed: u64) -> (hsa_tree::CruTree, hsa_tree::CostModel) {
    random_instance(
        &RandomTreeParams {
            n_crus: 3_000,
            n_satellites: 6,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        seed,
    )
}

/// Polls until every arm has drained (or a generous deadline passes).
fn wait_drained(portfolio: &Portfolio) -> usize {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let pending = portfolio.pending_arms();
        if pending == 0 || Instant::now() >= deadline {
            return pending;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn losing_exact_arm_is_cancelled_promptly_and_drains() {
    let (tree, costs) = big_instance(7);
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let portfolio = Portfolio::new(Arc::clone(&engine), PortfolioConfig::default());

    let budget = Duration::from_millis(150);
    let started = Instant::now();
    let outcome = portfolio
        .solve_anytime(&tree, &costs, Lambda::HALF, budget)
        .expect("the heuristic arms answer within any budget");
    let waited = started.elapsed();

    // The caller's wait is bounded by the budget plus drain slack, never
    // by the exact arm's (much longer) full solve.
    assert!(
        waited < budget + Duration::from_secs(20),
        "race took {waited:?} on a {budget:?} budget — an arm failed to cancel"
    );
    // A feasible, certified answer despite the deadline.
    let answer = &outcome.answer;
    assert!(answer.certificate.lower <= answer.certificate.upper);
    assert_eq!(answer.certificate.upper, answer.solution.objective);
    assert!(!outcome.certificates.is_empty());

    // Losers observe the shared flag and drain: the pending gauge falls
    // back to zero and stays there.
    assert_eq!(wait_drained(&portfolio), 0, "arms leaked past cancellation");
}

#[test]
fn repeated_races_reuse_the_pool_and_never_accumulate_arms() {
    let (tree, costs) = big_instance(11);
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let portfolio = Portfolio::new(engine, PortfolioConfig::default());

    for round in 0..5 {
        let outcome = portfolio
            .solve_anytime(&tree, &costs, Lambda::HALF, Duration::from_millis(100))
            .expect("every round answers");
        assert!(
            outcome.answer.certificate.lower <= outcome.answer.solution.objective,
            "round {round} produced an unsound certificate"
        );
        // Each round's losers drain before the gauge can pile up; the
        // portfolio's pool is persistent, so "drained" means idle workers,
        // not dead threads.
        assert_eq!(
            wait_drained(&portfolio),
            0,
            "round {round} leaked arms — repeated races are accumulating work"
        );
    }
}

#[test]
fn service_tickets_balance_across_anytime_races() {
    let (tree, costs) = big_instance(3);
    let small = hsa_workloads::paper_scenario();
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Service::new(
        engine,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );

    // Interleave deadline-bound races (big instance, tiny budget) with
    // exact-finishing ones (the paper scenario, generous budget).
    let tickets: Vec<_> = (0..3)
        .flat_map(|_| {
            [
                service.submit(Request::solve_anytime(&tree, &costs, Lambda::HALF, 100)),
                service.submit(Request::solve_anytime(
                    &small.tree,
                    &small.costs,
                    Lambda::HALF,
                    60_000,
                )),
            ]
        })
        .collect();
    for t in tickets {
        let answer = t.wait().expect("anytime requests succeed");
        let anytime = answer
            .anytime()
            .expect("anytime requests answer anytime replies");
        assert!(anytime.certificate.lower <= anytime.certificate.upper);
    }

    let stats = service.stats();
    assert_eq!(stats.latency.anytime.count, 6);
    assert_eq!(stats.submitted, 6);
    assert_eq!(
        stats.completed + stats.failed,
        stats.submitted,
        "every accepted ticket must resolve exactly once"
    );
    assert_eq!(stats.latency.anytime.count, 6);
    assert_eq!(wait_drained(service.portfolio()), 0);
}
