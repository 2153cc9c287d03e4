//! The central correctness property of the reproduction: on random costed
//! trees, the paper's adapted SSB algorithm, the full-expansion solver and
//! exhaustive brute force all find the same optimum, for arbitrary λ —
//! including instances with interleaved colours, where the branch-completed
//! expansion is required (DESIGN.md §2).

use hsa_assign::{
    all_solvers, BruteForce, Expanded, PaperSsb, Prepared, SbObjective, Solution, Solver,
};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CostModel, CruId, CruNode, CruTree, SatelliteId};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Instance {
    tree: CruTree,
    costs: CostModel,
}

fn arb_instance(max_nodes: usize, max_sats: u32) -> impl Strategy<Value = Instance> {
    (2usize..=max_nodes, 1u32..=max_sats).prop_flat_map(move |(n, k)| {
        let parents = proptest::collection::vec(0usize..n, n - 1);
        let costs = proptest::collection::vec((0u64..50, 0u64..50, 0u64..25, 0u64..25), n);
        let sats = proptest::collection::vec(0u32..k, n);
        (parents, costs, sats).prop_map(move |(parents, costvec, sats)| {
            let mut nodes: Vec<CruNode> = (0..n)
                .map(|i| CruNode {
                    parent: None,
                    children: Vec::new(),
                    name: format!("n{i}"),
                })
                .collect();
            for i in 1..n {
                let p = parents[i - 1] % i;
                nodes[i].parent = Some(CruId(p as u32));
                nodes[p].children.push(CruId(i as u32));
            }
            let tree = CruTree::from_parts(nodes, CruId(0)).unwrap();
            let mut m = CostModel::zeroed(&tree, k);
            for i in 0..n {
                let id = CruId(i as u32);
                let (h, s, cu, cr) = costvec[i];
                m.set_host_time(id, Cost::new(h));
                m.set_satellite_time(id, Cost::new(s));
                if i != 0 {
                    m.set_comm_up(id, Cost::new(cu));
                }
                if tree.is_leaf(id) {
                    m.pin_leaf(id, SatelliteId(sats[i] % k), Cost::new(cr));
                }
            }
            Instance { tree, costs: m }
        })
    })
}

fn arb_lambda() -> impl Strategy<Value = Lambda> {
    (0u32..=5, 1u32..=5).prop_map(|(a, b)| {
        let den = b.max(1);
        Lambda::new(a.min(den), den).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// paper-ssb ≡ expanded ≡ brute force, any λ, any instance.
    #[test]
    fn all_exact_solvers_agree(inst in arb_instance(11, 4), lambda in arb_lambda()) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let brute = BruteForce::default().solve(&prep, lambda).unwrap();
        let expanded = Expanded::default().solve(&prep, lambda).unwrap();
        let paper = PaperSsb::default().solve(&prep, lambda).unwrap();
        prop_assert_eq!(brute.objective, expanded.objective,
            "expanded disagrees with brute force (λ={})", lambda);
        prop_assert_eq!(brute.objective, paper.objective,
            "paper-ssb disagrees with brute force (λ={})", lambda);
    }

    /// Exactness specifically on *interleaved* instances (colour appears in
    /// ≥2 bands) — the regime the paper's contiguous expansion alone cannot
    /// handle.
    #[test]
    fn exact_on_interleaved_instances(inst in arb_instance(11, 3), lambda in arb_lambda()) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        prop_assume!(!prep.colouring.is_contiguous());
        let brute = BruteForce::default().solve(&prep, lambda).unwrap();
        let paper = PaperSsb::default().solve(&prep, lambda).unwrap();
        prop_assert_eq!(brute.objective, paper.objective);
    }

    /// Every solver returns a *valid* solution whose reported numbers match
    /// an independent re-evaluation.
    #[test]
    fn solutions_are_internally_consistent(inst in arb_instance(10, 3)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        for solver in all_solvers() {
            let sol = solver.solve(&prep, Lambda::HALF).unwrap();
            sol.cut.validate(&inst.tree).unwrap();
            let re = Solution::from_cut(&prep, sol.cut.clone(), Lambda::HALF,
                hsa_assign::SolveStats::default()).unwrap();
            prop_assert_eq!(re.objective, sol.objective, "{} mis-reports", solver.name());
            prop_assert_eq!(re.report, sol.report.clone());
        }
    }

    /// Baselines never beat the optimum; the optimum never exceeds either
    /// extreme cut.
    #[test]
    fn optimum_dominates_baselines(inst in arb_instance(10, 3), lambda in arb_lambda()) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let opt = Expanded::default().solve(&prep, lambda).unwrap();
        for solver in all_solvers() {
            let sol = solver.solve(&prep, lambda).unwrap();
            prop_assert!(sol.objective >= opt.objective, "{} beat the optimum", solver.name());
        }
    }

    /// Bokhari's SB optimum is a true lower bound on max(S,B) over all cuts,
    /// and the delay-optimal cut's max(S,B) is an upper bound witness.
    #[test]
    fn sb_optimum_is_bottleneck_minimal(inst in arb_instance(10, 3)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let sb = hsa_assign::sb_optimum(&prep).unwrap();
        // Brute-force the SB objective.
        let mut best = Cost::MAX;
        hsa_tree::for_each_cut(&inst.tree, &|e| prep.colouring.cuttable(e), &mut |cut| {
            let s = hsa_tree::host_time_of_cut(&inst.tree, &inst.costs, cut.edges());
            let b = hsa_tree::bottleneck_of_cut(&inst.tree, &inst.costs,
                |e| prep.colouring.edge_colour(e).satellite(), cut.edges());
            best = best.min(s.max(b));
        });
        prop_assert_eq!(sb, best);
        // And the SB-objective solver's reported partition achieves it.
        let sol = SbObjective::default().solve(&prep, Lambda::HALF).unwrap();
        prop_assert!(sol.report.host_time.max(sol.report.bottleneck) >= sb);
    }

    /// Path↔cut bijection on the assignment graph.
    #[test]
    fn path_cut_bijection(inst in arb_instance(10, 3)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let graph = prep.graph();
        hsa_tree::for_each_cut(&inst.tree, &|e| prep.colouring.cuttable(e), &mut |cut| {
            let path = graph.cut_to_path(cut).unwrap();
            path.validate(&graph.dwg, graph.source, graph.target).unwrap();
            let back = graph.path_to_cut(&inst.tree, &path).unwrap();
            assert_eq!(&back, cut);
            // The coloured measure of the path equals the direct evaluation.
            let mea = hsa_assign::ColouredMeasure::of_edges(
                graph, &path.edges, inst.costs.n_satellites());
            let (_a, rep) = hsa_assign::evaluate_cut(&prep, cut).unwrap();
            assert_eq!(mea.s, rep.host_time);
            assert_eq!(mea.b, rep.bottleneck);
        });
    }

    /// λ monotonicity sanity: as λ grows, the optimal S weight can only
    /// shrink or stay (host time is weighted more heavily).
    #[test]
    fn lambda_monotonicity(inst in arb_instance(10, 3)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let lambdas = [Lambda::new(0,1).unwrap(), Lambda::new(1,4).unwrap(),
                       Lambda::new(1,2).unwrap(), Lambda::new(3,4).unwrap(),
                       Lambda::new(1,1).unwrap()];
        let mut prev_s: Option<Cost> = None;
        for l in lambdas {
            let sol = Expanded::default().solve(&prep, l).unwrap();
            if let Some(p) = prev_s {
                prop_assert!(sol.report.host_time <= p,
                    "S must be non-increasing in λ: {} then {}", p, sol.report.host_time);
            }
            prev_s = Some(sol.report.host_time);
        }
    }
}
