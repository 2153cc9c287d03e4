//! Bokhari-style "industrial" chains (the paper's §2 credits Bokhari's
//! industrial cases as a structural ancestor; deep chains are the regime
//! where the assignment graph degenerates into long parallel-edge bundles,
//! stressing the multigraph machinery and the expansion step).
//!
//! `n_lines` production lines hang off the root; each line is a chain of
//! `stages` refinement CRUs ending in one sensor leaf pinned to that line's
//! controller (satellite). Every chain edge shares one leaf interval, so
//! each line contributes `stages + 1` **parallel dual edges** — the paper's
//! |E| grows while |V| stays tiny.

use crate::Scenario;
use hsa_graph::Cost;
use hsa_tree::{CostModel, SatelliteId, TreeBuilder};

/// Parameters of the industrial-chains instance.
#[derive(Clone, Copy, Debug)]
pub struct IndustrialParams {
    /// Number of production lines (satellites).
    pub n_lines: usize,
    /// Chain length per line (CRUs above the sensor leaf).
    pub stages: usize,
    /// Work units per stage; later stages shrink data and cost.
    pub base_work_us: u64,
}

impl Default for IndustrialParams {
    fn default() -> Self {
        IndustrialParams {
            n_lines: 3,
            stages: 5,
            base_work_us: 2_000,
        }
    }
}

/// Builds the industrial-chains scenario.
pub fn industrial_scenario(p: &IndustrialParams) -> Scenario {
    let lines = p.n_lines.max(1);
    let stages = p.stages.max(1);
    let mut b = TreeBuilder::new("plant-overview");
    let root = b.root();
    let mut all = Vec::new();
    for l in 0..lines {
        let mut at = root;
        let mut chain = Vec::new();
        for s in 0..stages {
            at = b.add_child(at, format!("line{l}-stage{s}"));
            chain.push(at);
        }
        all.push(chain);
    }
    let tree = b.build();

    let mut m = CostModel::zeroed(&tree, lines as u32);
    m.set_host_time(root, Cost::new(p.base_work_us * lines as u64));
    m.set_satellite_time(root, Cost::new(3 * p.base_work_us * lines as u64));
    for (l, chain) in all.iter().enumerate() {
        // Lines are asymmetric: line l carries (l+1)× the work. The heavy
        // line dominates the bottleneck, so the optimum offloads light
        // lines whole and splits the heavy one — a genuine mid-chain cut.
        let line_weight = l as u64 + 1;
        for (s, &c) in chain.iter().enumerate() {
            // Deeper stages (closer to the sensor) are heavier: raw signal
            // processing shrinks data volume stage by stage.
            let depth_factor = s as u64 + 1;
            let work = Cost::new(p.base_work_us * depth_factor * line_weight);
            // Line controllers are slow embedded DSPs: 2× slower than the
            // plant server (host) on stage work — offloading buys
            // parallelism and smaller messages, not faster cores.
            m.set_satellite_time(c, work.saturating_mul(2));
            m.set_host_time(c, work);
            // Output volume shrinks with height: comm cost ∝ depth factor.
            m.set_comm_up(c, Cost::new(500 * depth_factor));
        }
        let leaf = *chain.last().expect("stages >= 1");
        m.pin_leaf(
            leaf,
            SatelliteId(l as u32),
            Cost::new(500 * (stages as u64 + 2) * line_weight),
        );
    }

    let sc = Scenario {
        name: "industrial-chains".into(),
        description: format!(
            "Bokhari-style industrial monitoring: {} production lines, {}-stage \
             refinement chains; chains yield bundles of parallel assignment-graph \
             edges.",
            lines, stages
        ),
        tree,
        costs: m,
    };
    debug_assert!(sc.validate().is_ok());
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_assign::{BruteForce, Expanded, PaperSsb, Prepared, Solver};
    use hsa_graph::Lambda;

    #[test]
    fn chains_create_parallel_dual_edges() {
        let p = IndustrialParams {
            n_lines: 2,
            stages: 4,
            ..IndustrialParams::default()
        };
        let sc = industrial_scenario(&p);
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        // Each line: 4 chain edges + 1 sensor edge between the same gaps.
        assert_eq!(prep.graph().n_leaves, 2);
        assert_eq!(prep.graph().n_edges(), 2 * 5);
        // All 5 edges of line 0 connect gap 0 to gap 1.
        let between_0_1 = prep
            .graph()
            .edges
            .iter()
            .filter(|e| e.from_gap == 0 && e.to_gap == 1)
            .count();
        assert_eq!(between_0_1, 5);
    }

    #[test]
    fn solvers_agree_on_chain_instances() {
        for (lines, stages) in [(1, 6), (2, 4), (3, 3)] {
            let sc = industrial_scenario(&IndustrialParams {
                n_lines: lines,
                stages,
                ..IndustrialParams::default()
            });
            let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
            let brute = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
            let exp = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
            let paper = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
            assert_eq!(brute.objective, exp.objective);
            assert_eq!(brute.objective, paper.objective);
        }
    }

    #[test]
    fn optimal_cut_is_mid_chain() {
        // Heavier deep stages on fast controllers, light shallow stages on
        // the host: the optimum should cut somewhere strictly inside the
        // chains with the default numbers.
        let sc = industrial_scenario(&IndustrialParams::default());
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        let sol = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        let n_host = sol.assignment.host.len();
        assert!(n_host > 1, "nothing offloaded");
        assert!(n_host < sc.tree.len(), "nothing on host");
    }
}
