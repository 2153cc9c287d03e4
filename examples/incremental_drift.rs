//! Incremental re-solve on a drifting instance: hold a `Session` open,
//! stream a random-walk drift trace through it, and watch the optimal
//! deployment follow the costs — with every answer cross-checked against
//! a from-scratch solve of the drifted instance.
//!
//! ```sh
//! cargo run --release --example incremental_drift
//! ```

use hsa::engine::{Session, SessionConfig};
use hsa::prelude::*;
use hsa::workloads::{drift_trace, DriftConfig};

fn main() {
    // The paper's Figure 2 instance as the deployment…
    let sc = hsa::workloads::paper_scenario();
    // …and a 16-step drift: ±15% random cost walk, occasional subtree
    // surges, a little satellite churn.
    let trace = drift_trace(
        &sc,
        &DriftConfig {
            steps: 16,
            magnitude_permille: 150,
            churn_permille: 120,
            ..DriftConfig::default()
        },
    );

    let mut session =
        Session::new(&sc.tree, &sc.costs, SessionConfig::default()).expect("valid instance");
    let mut mirror = sc.costs.clone();
    println!("step  dirty/total  rebuild  delay_us  host_CRUs  (drifting the Figure 2 instance)");
    for (step, delta) in trace.deltas.iter().enumerate() {
        let outcome = session.apply(delta).expect("drift deltas are valid");
        let sol = session.solve(Lambda::HALF).expect("solvable");

        // The incremental answer is identical to solving the drifted
        // instance from nothing — that is the Session's contract.
        delta.apply(&sc.tree, &mut mirror).unwrap();
        let scratch_prep = Prepared::new(&sc.tree, &mirror).unwrap();
        let scratch = Expanded::default()
            .solve(&scratch_prep, Lambda::HALF)
            .unwrap();
        assert_eq!(sol.objective, scratch.objective);
        assert_eq!(sol.cut, scratch.cut);

        println!(
            "{:>4}  {:>5}/{:<5}  {}  {:>8}  {:>9}",
            step,
            outcome.dirty_colours,
            outcome.total_colours,
            // `full`: the delta dirtied every colour, so none was reused.
            if outcome.full_rebuild {
                "full   "
            } else {
                "partial"
            },
            sol.delay(),
            sol.assignment.host.len(),
        );
    }
    let stats = session.stats();
    println!(
        "\n{} applies: {} partial, {} full (every colour dirty); {:.0}% of colour frontiers reused",
        stats.applies,
        stats.incremental,
        stats.full_rebuilds,
        stats.reuse_rate() * 100.0
    );
    println!("every step above was asserted identical to a from-scratch solve.");
}
