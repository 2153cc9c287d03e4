//! Top-level acceptance tests for every paper artefact (the same
//! assertions the `repro` binary makes, kept under `cargo test` so a
//! regression in any figure fails CI).

use hsa::graph::figures::fig4_graph;
use hsa::prelude::*;
use hsa::tree::figures::{cru, fig2_tree};
use hsa::tree::TreeEdge;

/// Figure 4: the exact three-iteration SSB trace.
#[test]
fn figure4_trace() {
    let (mut g, s, t) = fig4_graph();
    let cfg = SsbConfig {
        record_trace: true,
        ..SsbConfig::default()
    };
    let out = ssb_search(&mut g, s, t, &cfg);
    assert_eq!(out.iterations, 3);
    assert_eq!(out.termination, Termination::SBound);
    let ssbs: Vec<u128> = out.trace.iter().map(|it| it.ssb).collect();
    assert_eq!(ssbs, vec![29, 20, 41]);
    let final_s = out.trace.last().unwrap().s;
    assert_eq!(final_s, Cost::new(33));
    assert_eq!(out.best.unwrap().ssb, 20);
}

/// Figure 5: colouring forces exactly {CRU1, CRU2, CRU3} onto the host.
#[test]
fn figure5_host_forced() {
    let (tree, costs) = fig2_tree();
    let col = Colouring::compute(&tree, &costs).unwrap();
    let forced: Vec<u32> = col.host_forced.iter().map(|c| c.0 + 1).collect();
    assert_eq!(forced, vec![1, 2, 3]);
}

/// Figure 6: dual-graph shape (8 nodes, 17 coloured edges, conflicted
/// edges absent, DAG on gaps).
#[test]
fn figure6_assignment_graph() {
    let (tree, costs) = fig2_tree();
    let prep = Prepared::new(&tree, &costs).unwrap();
    assert_eq!(prep.graph().dwg.num_nodes(), 8);
    assert_eq!(prep.graph().n_edges(), 17);
    assert!(!prep.graph().edges.iter().any(
        |m| m.tree_edge == TreeEdge::Parent(cru(2)) || m.tree_edge == TreeEdge::Parent(cru(3))
    ));
}

/// Figure 8: the σ labels the paper prints, symbolically.
#[test]
fn figure8_sigma_labels() {
    let (tree, costs) = fig2_tree();
    let prep = Prepared::new(&tree, &costs).unwrap();
    let h = |k: u32| costs.h(cru(k));
    let sig = |e| prep.sigma.sigma(e);
    assert_eq!(sig(TreeEdge::Parent(cru(4))), h(1) + h(2));
    assert_eq!(sig(TreeEdge::Sensor(cru(9))), h(1) + h(2) + h(4) + h(9));
    assert_eq!(sig(TreeEdge::Sensor(cru(10))), h(10));
    assert_eq!(sig(TreeEdge::Sensor(cru(13))), h(3) + h(6) + h(13));
    assert_eq!(sig(TreeEdge::Sensor(cru(7))), h(7));
    assert_eq!(sig(TreeEdge::Sensor(cru(8))), h(8));
}

/// §5.3's β examples: β(⟨CRU3,CRU6⟩) = s6+s13+c63; β(⟨A,CRU10⟩) = c_{s,10}.
#[test]
fn section53_beta_examples() {
    let (tree, costs) = fig2_tree();
    let prep = Prepared::new(&tree, &costs).unwrap();
    assert_eq!(
        prep.beta.beta(TreeEdge::Parent(cru(6))),
        costs.s(cru(6)) + costs.s(cru(13)) + costs.c_up(cru(6))
    );
    assert_eq!(
        prep.beta.beta(TreeEdge::Sensor(cru(10))),
        costs.c_raw(cru(10))
    );
}

/// The paper instance solves identically under all three exact solvers,
/// and the coloured B weight really sums same-colour contributions.
#[test]
fn paper_instance_end_to_end() {
    let (tree, costs) = fig2_tree();
    let prep = Prepared::new(&tree, &costs).unwrap();
    let paper = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
    let expanded = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
    let brute = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
    assert_eq!(paper.objective, brute.objective);
    assert_eq!(expanded.objective, brute.objective);
    // Satellite B (Sat2) serves two subtrees in the max-offload cut.
    let cut = Cut::max_offload(&tree, &prep.colouring);
    let (_a, rep) = hsa::assign::evaluate_cut(&prep, &cut).unwrap();
    let b_load = rep.satellite_loads[2].total;
    let direct = costs.s(cru(5))
        + costs.s(cru(11))
        + costs.s(cru(12))
        + costs.c_up(cru(5))
        + costs.s(cru(6))
        + costs.s(cru(13))
        + costs.c_up(cru(6));
    assert_eq!(b_load, direct);
}

/// Figure 9/10: a stalling coloured instance triggers expansion, an
/// interleaved one triggers joint branching; both stay exact.
#[test]
fn figure9_expansion_fires() {
    let (tree, costs) = random_scenario(
        &RandomTreeParams {
            n_crus: 14,
            n_satellites: 2,
            placement: Placement::Interleaved,
            ..RandomTreeParams::default()
        },
        5,
    )
    .into_parts();
    let prep = Prepared::new(&tree, &costs).unwrap();
    let sol = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
    let brute = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
    assert_eq!(sol.objective, brute.objective);
    assert!(
        sol.stats.expansions > 0,
        "interleaved instance must need expansion"
    );
}

trait IntoParts {
    fn into_parts(self) -> (CruTree, CostModel);
}
impl IntoParts for Scenario {
    fn into_parts(self) -> (CruTree, CostModel) {
        (self.tree, self.costs)
    }
}
