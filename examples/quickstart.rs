//! Quickstart: build a small context-reasoning tree by hand, solve it with
//! the paper's algorithm, and inspect the deployment.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hsa::prelude::*;
use hsa::tree::render::render_tree;

fn main() {
    // A tiny wearable: one fusion CRU on the phone (host), two sensor
    // pipelines on two sensor boxes (satellites).
    let mut b = TreeBuilder::new("fusion");
    let root = b.root();
    let ecg_feat = b.add_child(root, "ecg-features");
    let ecg = b.add_child(ecg_feat, "ecg-filter");
    let act = b.add_child(root, "activity");
    let accel = b.add_child(act, "accel-filter");
    let tree = b.build();

    // Costs in microseconds per one-second frame. `h` = on the phone,
    // `s` = on the sensor box; `c_up` ships a stage's output, `c_raw` the
    // raw signal.
    let mut costs = CostModel::zeroed(&tree, 2);
    let us = Cost::new;
    costs
        .set_host_time(root, us(2_000))
        .set_satellite_time(root, us(8_000));
    costs
        .set_host_time(ecg_feat, us(9_000))
        .set_satellite_time(ecg_feat, us(3_000))
        .set_comm_up(ecg_feat, us(700));
    costs
        .set_host_time(ecg, us(24_000))
        .set_satellite_time(ecg, us(6_000))
        .set_comm_up(ecg, us(2_500));
    costs
        .set_host_time(act, us(4_000))
        .set_satellite_time(act, us(2_000))
        .set_comm_up(act, us(700));
    costs
        .set_host_time(accel, us(10_000))
        .set_satellite_time(accel, us(3_000))
        .set_comm_up(accel, us(1_200));
    costs.pin_leaf(ecg, SatelliteId(0), us(12_000)); // raw ECG is bulky
    costs.pin_leaf(accel, SatelliteId(1), us(7_000));

    // Prepare: colouring and σ/β labels (the paper's solver below builds
    // the coloured assignment graph from them on first use).
    let prep = Prepared::new(&tree, &costs).expect("valid instance");
    println!("The CRU tree (colours propagated from the pinned sensors):\n");
    println!(
        "{}",
        render_tree(&tree, Some(&costs), Some(&prep.colouring))
    );

    // Solve with the paper's adapted SSB algorithm (λ = ½ ⇒ minimise S+B).
    let sol = PaperSsb::default()
        .solve(&prep, Lambda::HALF)
        .expect("solvable");

    println!("Optimal deployment (end-to-end delay {} µs):", sol.delay());
    println!("  host: {:?}", names(&tree, &sol.assignment.host));
    for (i, sat) in sol.assignment.per_satellite.iter().enumerate() {
        println!("  sat{i}: {:?}", names(&tree, sat));
    }
    println!(
        "  S (host time) = {} µs, B (bottleneck satellite) = {} µs",
        sol.report.host_time, sol.report.bottleneck
    );

    // Compare against the naive deployments.
    for solver in [&AllOnHost as &dyn Solver, &MaxOffload] {
        let s = solver.solve(&prep, Lambda::HALF).unwrap();
        println!("  {:<12} would take {} µs", solver.name(), s.delay());
    }

    // And double-check against exhaustive enumeration.
    let brute = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
    assert_eq!(brute.objective, sol.objective);
    println!("\nBrute force agrees: {} µs is optimal.", sol.delay());
}

fn names(tree: &CruTree, ids: &[CruId]) -> Vec<String> {
    ids.iter()
        .map(|&c| tree.node_unchecked(c).name.clone())
        .collect()
}
