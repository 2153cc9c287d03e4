//! Property tests: the σ/β labellings must agree with the direct oracles on
//! *every* cut of random costed trees — this is the load-bearing invariant
//! behind the paper's assignment-graph construction (§5.3).

use hsa_graph::Cost;
use hsa_tree::Colour;
use hsa_tree::{
    for_each_cut, host_time_of_cut, satellite_loads_of_cut, BetaLabels, Colouring, CostModel,
    CruId, CruNode, CruTree, SatelliteId, SigmaLabels, TreeEdge,
};
use proptest::prelude::*;

/// A reproducible random instance description.
#[derive(Clone, Debug)]
struct Instance {
    tree: CruTree,
    costs: CostModel,
}

/// Strategy: random ordered tree of `n` nodes (parent of node i is a random
/// j < i, children ordered by id), `k` satellites, random small costs.
fn arb_instance(max_nodes: usize, max_sats: u32) -> impl Strategy<Value = Instance> {
    (2usize..=max_nodes, 1u32..=max_sats).prop_flat_map(move |(n, k)| {
        let parents = proptest::collection::vec(0usize..n, n - 1);
        let costs = proptest::collection::vec((0u64..40, 0u64..40, 0u64..20, 0u64..20), n);
        let sats = proptest::collection::vec(0u32..k, n);
        (parents, costs, sats).prop_map(move |(parents, costvec, sats)| {
            // parent of node i (1-based) = parents[i-1] % i  → valid DAG-tree.
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
                let child = CruId(i as u32);
                nodes[p].children.push(child);
            }
            let tree = CruTree::from_parts(nodes, CruId(0)).expect("construction is valid");
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

/// Strategy: random ordered trees of up to `max_nodes` nodes with shuffled
/// ids (a node's id may be above its descendants'), on up to `max_sats`
/// satellites. Leaves are pinned at random (mode 0) or interleaved (mode
/// 1): leaf `i` in planar order goes to satellite `i % k`, so colours alternate
/// along the leaves and conflicts reach deep into the tree.
fn arb_pinned_instance(max_nodes: usize, max_sats: u32) -> impl Strategy<Value = Instance> {
    (2usize..=max_nodes, 1u32..=max_sats).prop_flat_map(|(n, k)| {
        let parents = proptest::collection::vec(0usize..n, n - 1);
        let keys = proptest::collection::vec(0u32..u32::MAX, n);
        let sats = proptest::collection::vec(0u32..k, n);
        (parents, keys, sats, 0u8..2).prop_map(move |(parents, keys, sats, mode)| {
            // Generated node `i` gets id `id_of[i]`, the rank of its key.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| keys[i]);
            let mut id_of = vec![CruId(0); n];
            for (id, &i) in order.iter().enumerate() {
                id_of[i] = CruId(id as u32);
            }
            let mut nodes: Vec<CruNode> = (0..n)
                .map(|i| CruNode {
                    parent: None,
                    children: Vec::new(),
                    name: format!("n{i}"),
                })
                .collect();
            for i in 1..n {
                let p = parents[i - 1] % i;
                nodes[id_of[i].index()].parent = Some(id_of[p]);
                nodes[id_of[p].index()].children.push(id_of[i]);
            }
            let tree = CruTree::from_parts(nodes, id_of[0]).expect("construction is valid");
            let mut m = CostModel::zeroed(&tree, k);
            for (pos, leaf) in tree.leaves_in_order().into_iter().enumerate() {
                let sat = if mode == 1 {
                    pos as u32 % k
                } else {
                    sats[leaf.index()]
                };
                m.pin_leaf(leaf, SatelliteId(sat), Cost::ZERO);
            }
            Instance { tree, costs: m }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The colouring equals a direct reading of the pinning: a node's
    /// colour is the one satellite every leaf of its subtree is pinned to,
    /// or `Conflict` when they differ; the host-forced nodes are the root
    /// plus the conflicted nodes, in pre-order; the leaf colours follow
    /// the planar leaf order.
    #[test]
    fn colouring_equals_subtree_pinning_oracle(inst in arb_pinned_instance(16, 4)) {
        let (tree, costs) = (&inst.tree, &inst.costs);
        let col = Colouring::compute(tree, costs).unwrap();
        let oracle: Vec<Colour> = (0..tree.len() as u32)
            .map(|i| {
                let mut sats = tree
                    .subtree(CruId(i))
                    .into_iter()
                    .filter(|&x| tree.is_leaf(x))
                    .map(|leaf| costs.pinned_satellite(leaf).unwrap());
                let first = sats.next().expect("every subtree has a leaf");
                if sats.all(|s| s == first) {
                    Colour::Satellite(first)
                } else {
                    Colour::Conflict
                }
            })
            .collect();
        prop_assert_eq!(&col.node_colour, &oracle);
        let host_forced: Vec<CruId> = tree
            .preorder()
            .into_iter()
            .filter(|&c| c == tree.root() || oracle[c.index()] == Colour::Conflict)
            .collect();
        prop_assert_eq!(&col.host_forced, &host_forced);
        let leaf_colours: Vec<SatelliteId> = tree
            .leaves_in_order()
            .into_iter()
            .map(|leaf| costs.pinned_satellite(leaf).unwrap())
            .collect();
        prop_assert_eq!(&col.leaf_colours, &leaf_colours);
    }

    /// Σ σ over any valid cut == direct host-side h sum.
    #[test]
    fn sigma_labelling_equals_host_oracle(inst in arb_instance(10, 4)) {
        let sig = SigmaLabels::compute(&inst.tree, &inst.costs).unwrap();
        let mut checked = 0u32;
        for_each_cut(&inst.tree, &|_| true, &mut |cut| {
            let labelled: Cost = cut.edges().iter().map(|&e| sig.sigma(e)).sum();
            let oracle = host_time_of_cut(&inst.tree, &inst.costs, cut.edges());
            assert_eq!(labelled, oracle, "cut {:?}", cut.edges());
            checked += 1;
        });
        prop_assert!(checked >= 1);
    }

    /// Per-colour Σ β over any valid *coloured* cut == direct satellite loads.
    #[test]
    fn beta_labelling_equals_satellite_oracle(inst in arb_instance(10, 4)) {
        let col = Colouring::compute(&inst.tree, &inst.costs).unwrap();
        let bet = BetaLabels::compute(&inst.tree, &inst.costs).unwrap();
        let colour_of = |e: TreeEdge| col.edge_colour(e).satellite();
        for_each_cut(&inst.tree, &|e| col.cuttable(e), &mut |cut| {
            // Labelled per-colour sums.
            let mut labelled = vec![Cost::ZERO; inst.costs.n_satellites() as usize];
            for &e in cut.edges() {
                let sat = colour_of(e).expect("cuttable edges have a colour");
                labelled[sat.index()] += bet.beta(e);
            }
            let oracle = satellite_loads_of_cut(&inst.tree, &inst.costs, colour_of, cut.edges());
            assert_eq!(labelled, oracle, "cut {:?}", cut.edges());
        });
    }

    /// Cut enumeration produces exactly the cuts that validate.
    #[test]
    fn enumerated_cuts_validate_and_are_unique(inst in arb_instance(9, 3)) {
        let mut seen = std::collections::BTreeSet::new();
        for_each_cut(&inst.tree, &|_| true, &mut |cut| {
            cut.validate(&inst.tree).unwrap();
            assert!(seen.insert(cut.clone()));
        });
        // At least the all-on-host cut exists.
        prop_assert!(!seen.is_empty());
    }

    /// The max-offload cut is valid, uses only cuttable edges, and its host
    /// side is exactly the forced set.
    #[test]
    fn max_offload_cut_is_minimal_host(inst in arb_instance(12, 4)) {
        let col = Colouring::compute(&inst.tree, &inst.costs).unwrap();
        let cut = hsa_tree::Cut::max_offload(&inst.tree, &col);
        cut.validate(&inst.tree).unwrap();
        prop_assert!(cut.edges().iter().all(|&e| col.cuttable(e)));
        let host = cut.host_side(&inst.tree);
        prop_assert_eq!(host, col.host_forced.clone());
    }

    /// Colour bands partition the leaves and preserve order.
    #[test]
    fn bands_partition_leaves(inst in arb_instance(12, 4)) {
        let col = Colouring::compute(&inst.tree, &inst.costs).unwrap();
        let mut at = 0u32;
        for b in &col.bands {
            prop_assert_eq!(b.lo, at);
            prop_assert!(b.hi > b.lo);
            for i in b.lo..b.hi {
                prop_assert_eq!(col.leaf_colours[i as usize], b.satellite);
            }
            at = b.hi;
        }
        prop_assert_eq!(at as usize, col.leaf_colours.len());
    }

    /// serde round-trip of tree + costs.
    #[test]
    fn serde_round_trip(inst in arb_instance(10, 3)) {
        let json = serde_json::to_string(&(&inst.tree, &inst.costs)).unwrap();
        let (t2, m2): (CruTree, CostModel) = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&inst.tree, &t2);
        prop_assert_eq!(&inst.costs, &m2);
        t2.validate().unwrap();
        m2.validate(&t2).unwrap();
    }
}
