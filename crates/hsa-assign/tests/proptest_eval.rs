//! Byte-identity of the allocation-free answer path: [`evaluate_cut_in`]
//! (σ/β labels + pre-order index, reused scratch) must reproduce
//! [`evaluate_cut`] (the walking oracle) *exactly* — same `Assignment`
//! vectors in the same order, same `DelayReport` down to every tick — on
//! every valid cut of random instances. This identity is what lets the
//! service hand out fast-path answers under verify mode without a
//! re-derivation.
//!
//! Green under `PROPTEST_SEED` 1–3 (and the default stream).

use hsa_assign::{evaluate_cut, evaluate_cut_in, EvalScratch, Prepared, Solution, SolveStats};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{for_each_cut, CostModel, CruId, CruNode, CruTree, SatelliteId};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Walk-free == walking oracle on *every* valid coloured cut, with one
    /// scratch reused across the whole enumeration (steady-state shape).
    #[test]
    fn eval_in_is_byte_identical_on_every_cut(inst in arb_instance(10, 4)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let mut scratch = EvalScratch::new();
        let mut checked = 0u32;
        for_each_cut(&inst.tree, &|e| prep.colouring.cuttable(e), &mut |cut| {
            let oracle = evaluate_cut(&prep, cut).unwrap();
            let fast = evaluate_cut_in(&prep, cut, &mut scratch).unwrap();
            assert_eq!(fast.0, oracle.0, "assignment diverges on cut {:?}", cut.edges());
            assert_eq!(fast.1, oracle.1, "report diverges on cut {:?}", cut.edges());
            checked += 1;
        });
        prop_assert!(checked >= 1);
    }

    /// `Solution::from_cut_in` carries the identity through to the objective
    /// and stats for the extreme cuts at arbitrary λ.
    #[test]
    fn from_cut_in_matches_from_cut(
        inst in arb_instance(10, 4),
        num in 0u32..=4,
    ) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let lambda = Lambda::new(num, 4).unwrap();
        for cut in [
            hsa_tree::Cut::all_on_host(&inst.tree),
            hsa_tree::Cut::max_offload(&inst.tree, &prep.colouring),
        ] {
            let a = Solution::from_cut(&prep, cut.clone(), lambda, SolveStats::default()).unwrap();
            let b = Solution::from_cut_in(&prep, cut, lambda, SolveStats::default()).unwrap();
            prop_assert_eq!(a.objective, b.objective);
            prop_assert_eq!(a.report, b.report);
            prop_assert_eq!(a.assignment, b.assignment);
            prop_assert_eq!(&a.cut, &b.cut);
        }
    }

    /// The identity survives a costs swap + restore on the same `Prepared`
    /// (the incremental re-solve path): after `restore`, the walk-free
    /// evaluation still matches the oracle on the rolled-back instance.
    #[test]
    fn eval_in_survives_update_and_restore(
        inst in arb_instance(9, 3),
        scale in 2u64..5,
    ) {
        let mut prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let mut bumped = inst.costs.clone();
        for i in 0..inst.tree.len() {
            let c = CruId(i as u32);
            let h = bumped.h(c);
            bumped.set_host_time(c, h.saturating_mul(scale));
        }
        let (parts, _dirty) = prep.update_costs(bumped).unwrap();
        let cut = hsa_tree::Cut::max_offload(&prep.tree, &prep.colouring);
        let mut scratch = EvalScratch::new();
        let (a1, r1) = evaluate_cut_in(&prep, &cut, &mut scratch).unwrap();
        let (a2, r2) = evaluate_cut(&prep, &cut).unwrap();
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(r1, r2);
        prep.restore(parts);
        let cut = hsa_tree::Cut::max_offload(&prep.tree, &prep.colouring);
        let (b1, s1) = evaluate_cut_in(&prep, &cut, &mut scratch).unwrap();
        let (b2, s2) = evaluate_cut(&prep, &cut).unwrap();
        prop_assert_eq!(b1, b2);
        prop_assert_eq!(s1, s2);
    }

    /// Error parity: a cut that the oracle rejects (host-forced node below
    /// the cut) is rejected identically by the walk-free path.
    #[test]
    fn eval_in_matches_oracle_errors(inst in arb_instance(10, 4)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let mut scratch = EvalScratch::new();
        for_each_cut(&inst.tree, &|_| true, &mut |cut| {
            let oracle = evaluate_cut(&prep, cut);
            let fast = evaluate_cut_in(&prep, cut, &mut scratch);
            match (oracle, fast) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(ea), Err(eb)) => assert_eq!(format!("{ea}"), format!("{eb}")),
                (a, b) => panic!("divergent outcomes: {a:?} vs {b:?}"),
            }
        });
    }
}
