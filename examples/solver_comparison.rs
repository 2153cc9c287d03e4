//! Runs the solver portfolio through the **batch engine**: every scenario
//! is prepared once into the engine's instance cache, a λ-grid of queries
//! is answered in one `solve_batch` call, and each instance's λ-frontier
//! (every optimal cut for every λ) is printed alongside a per-solver
//! cross-check of the classic one-shot API.
//!
//! ```sh
//! cargo run --example solver_comparison
//! ```

use hsa::assign::all_solvers;
use hsa::engine::{Engine, EngineConfig, InstanceId};
use hsa::prelude::*;

fn main() {
    // Assemble the workload: catalog scenarios plus one random instance per
    // placement regime.
    let mut scenarios = catalog();
    for (seed, placement) in [(7u64, Placement::Blocked), (7, Placement::Interleaved)] {
        scenarios.push(random_scenario(
            &RandomTreeParams {
                n_crus: 18,
                n_satellites: 3,
                placement,
                ..RandomTreeParams::default()
            },
            seed,
        ));
    }

    // Prepare everything once; the engine caches by content hash.
    let engine = Engine::new(EngineConfig::default());
    let ids: Vec<InstanceId> = scenarios
        .iter()
        .map(|sc| engine.prepare(&sc.tree, &sc.costs).expect("valid scenario"))
        .collect();

    // One batch over the whole (instance × λ) grid.
    let lambdas: Vec<Lambda> = (0..=4).map(|n| Lambda::new(n, 4).unwrap()).collect();
    let queries: Vec<(InstanceId, Lambda)> = ids
        .iter()
        .flat_map(|&id| lambdas.iter().map(move |&l| (id, l)))
        .collect();
    let solutions = engine.solve_batch(&queries);

    for (i, (scenario, &id)) in scenarios.iter().zip(&ids).enumerate() {
        println!("── {} ── ({id})", scenario.name);
        println!("   λ-grid batch answers (engine, cached frontiers):");
        println!("   λ        delay µs        S        B");
        for (j, lambda) in lambdas.iter().enumerate() {
            let sol = solutions[i * lambdas.len() + j]
                .as_ref()
                .expect("batch solve succeeds");
            println!(
                "   {:<8} {:>9} {:>8} {:>8}",
                lambda.to_string(),
                sol.delay().ticks(),
                sol.report.host_time.ticks(),
                sol.report.bottleneck.ticks(),
            );
        }

        // The λ-frontier: every optimal cut over λ ∈ [0, 1] in one pass.
        let frontier = engine.frontier(id).expect("frontier");
        let breakpoints: Vec<String> = frontier
            .breakpoints()
            .iter()
            .map(|bp| bp.to_string())
            .collect();
        println!(
            "   λ-frontier: {} optimal cut(s); breakpoints: [{}]",
            frontier.num_segments(),
            breakpoints.join(", ")
        );

        // Cross-check the classic one-shot API at λ = ½: exact solvers must
        // agree with the engine's cached-frontier answer. (Compare S + B
        // delays: `objective` values are scaled by each λ's denominator, so
        // the grid's 2/4 and the constant 1/2 are not directly comparable.)
        let prep = Prepared::new(&scenario.tree, &scenario.costs).expect("valid scenario");
        let engine_half = &solutions[i * lambdas.len() + 2].as_ref().unwrap();
        println!("   one-shot cross-check (λ=1/2):");
        println!("   solver          delay µs   iter  composites");
        for solver in all_solvers() {
            match solver.solve(&prep, Lambda::HALF) {
                Ok(sol) => {
                    println!(
                        "   {:<14} {:>9} {:>6} {:>11}",
                        solver.name(),
                        sol.delay().ticks(),
                        sol.stats.iterations,
                        sol.stats.composites,
                    );
                    if ["paper-ssb", "expanded", "brute-force"].contains(&solver.name()) {
                        assert_eq!(
                            sol.delay(),
                            engine_half.delay(),
                            "exact solver disagrees with the engine!"
                        );
                    }
                }
                Err(e) => println!("   {:<14} failed: {e}", solver.name()),
            }
        }
        println!();
    }

    let stats = engine.stats();
    println!(
        "engine: {} instances cached, {} queries answered",
        engine.len(),
        stats.queries,
    );
}
