//! Oracles for the flat cover DP and the threshold sweep over a
//! [`FrontierSet`].
//!
//! The arena encoding (CSR point/edge arrays, DESIGN.md §11) and the flat
//! cover-DP kernel that fills it must hold *bit-identical* frontiers to
//! the nested `Vec<Frontier>` DP — same points, same order, same edges,
//! same derived thetas — on every instance, including interleaved
//! colourings, tie-heavy costs (where the edge-list rule picks each
//! witness) and along incremental `refresh_in_place` trajectories. The
//! reference is [`colour_frontiers`], an independent nested
//! `minkowski`/`pareto_prune` DP; these properties pin every prepare path
//! to it. The sweep properties pin the one-cursor θ walk behind
//! `solve_with_frontiers` and `lambda_frontier_with` to a test-local
//! per-θ binary-search scan.

use hsa_assign::{
    colour_frontiers, dirty_colours, lambda_frontier_with, solve_with_frontiers, AssignError,
    CancelToken, ExpandedConfig, Frontier, FrontierSet, Prepared, Solution, SolveStats,
};
use hsa_graph::envelope::lower_envelope;
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CostModel, CruId, CruNode, CruTree, Cut, SatelliteId, TreeBuilder};
use hsa_workloads::{drift_trace, random_scenario, DriftConfig, RandomTreeParams};
use proptest::prelude::*;
use proptest::TestCaseError;

#[derive(Clone, Debug)]
struct Instance {
    tree: CruTree,
    costs: CostModel,
}

fn arb_instance(max_nodes: usize, max_sats: u32) -> impl Strategy<Value = Instance> {
    arb_instance_with(max_nodes, max_sats, [50, 50, 25, 25], false)
}

/// Every cost drawn from `0..3`, so many Minkowski candidates tie on
/// (β, σ) and the edge-list tie-break decides which witness survives; node
/// ids are shuffled, so a node's id may be above its descendants' and the
/// tie-break meets edge lists in every relative order.
fn arb_tie_instance(max_nodes: usize, max_sats: u32) -> impl Strategy<Value = Instance> {
    arb_instance_with(max_nodes, max_sats, [3; 4], true)
}

/// Random trees with host, satellite, up-link and raw-transfer costs drawn
/// from `0..bound` per field. Without `shuffle_ids`, ids follow generation
/// order (every parent's id is below its children's).
fn arb_instance_with(
    max_nodes: usize,
    max_sats: u32,
    [h, s, up, raw]: [u64; 4],
    shuffle_ids: bool,
) -> impl Strategy<Value = Instance> {
    (2usize..=max_nodes, 1u32..=max_sats).prop_flat_map(move |(n, k)| {
        let parents = proptest::collection::vec(0usize..n, n - 1);
        let costs = proptest::collection::vec((0u64..h, 0u64..s, 0u64..up, 0u64..raw), n);
        let sats = proptest::collection::vec(0u32..k, n);
        let keys = proptest::collection::vec(0u32..u32::MAX, if shuffle_ids { n } else { 0 });
        (parents, costs, sats, keys).prop_map(move |(parents, costvec, sats, keys)| {
            // Generated node `i` gets id `id_of[i]`: the rank of its key
            // (the identity when there are no keys; the sort is stable).
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| keys.get(i).copied().unwrap_or(0));
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
            let tree = CruTree::from_parts(nodes, id_of[0]).unwrap();
            let mut m = CostModel::zeroed(&tree, k);
            for i in 0..n {
                let id = id_of[i];
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

/// Asserts `fs` is byte-for-byte the arena form of `nested`: every point
/// field, every edge list, the derived θ ladder and the composite count.
fn assert_arena_matches(fs: &FrontierSet, nested: &[Frontier]) -> Result<(), TestCaseError> {
    prop_assert_eq!(fs.n_colours(), nested.len());
    prop_assert_eq!(
        &fs.to_nested(),
        nested,
        "to_nested must reproduce the reference"
    );
    let mut composites = 0u64;
    let mut thetas: Vec<Cost> = Vec::new();
    for (s, reference) in nested.iter().enumerate() {
        let f = fs.colour(s);
        prop_assert_eq!(f.len(), reference.len(), "colour {} point count", s);
        for (i, p) in reference.iter().enumerate() {
            prop_assert_eq!(f.sigma[i], p.sigma, "colour {} point {} sigma", s, i);
            prop_assert_eq!(f.beta[i], p.beta, "colour {} point {} beta", s, i);
            prop_assert_eq!(
                f.point_edges(i),
                &p.edges[..],
                "colour {} point {} edges",
                s,
                i
            );
            prop_assert_eq!(f.point(i), p.clone(), "colour {} point {} view", s, i);
            if i > 0 {
                // The invariant the threshold binary search leans on.
                prop_assert!(f.beta[i] > f.beta[i - 1], "betas strictly ascend");
                prop_assert!(f.sigma[i] < f.sigma[i - 1], "sigmas strictly descend");
            }
        }
        composites += reference.len() as u64;
        thetas.extend(reference.iter().map(|p| p.beta));
    }
    thetas.sort();
    thetas.dedup();
    prop_assert_eq!(&fs.thetas(), &thetas, "theta ladder");
    prop_assert_eq!(fs.composites, composites, "composite count");
    Ok(())
}

/// Asserts every prepare path builds the reference frontiers: `prepare`,
/// an uncancelled `prepare_cancellable`, and a pre-cancelled one fails
/// with `Cancelled`.
fn assert_prepare_paths_match(prep: &Prepared<'_>) -> Result<(), TestCaseError> {
    let cfg = ExpandedConfig::default();
    let nested = colour_frontiers(prep, &cfg).unwrap();
    let fs = FrontierSet::prepare(prep, &cfg).unwrap();
    assert_arena_matches(&fs, &nested)?;
    let token = CancelToken::new();
    let uncancelled = FrontierSet::prepare_cancellable(prep, &cfg, &token).unwrap();
    prop_assert_eq!(&uncancelled, &fs, "uncancelled prepare_cancellable");
    token.cancel();
    prop_assert!(matches!(
        FrontierSet::prepare_cancellable(prep, &cfg, &token),
        Err(AssignError::Cancelled)
    ));
    Ok(())
}

/// Re-costs `prep` in place and asserts the result equals a fresh
/// preparation of the drifted model: colouring, σ, β and colour regions,
/// and the returned dirty flags equal `dirty_colours` of the old and the
/// fresh preparation. A label pass that read a stale index, or a diff
/// taken against the wrong labels, fails here.
fn assert_recost_matches_fresh(
    prep: &mut Prepared<'static>,
    costs: &CostModel,
) -> Result<(), TestCaseError> {
    let old = prep.clone();
    let (_, diff) = prep.update_costs(costs.clone()).unwrap();
    let fresh = Prepared::new_owned(prep.tree.clone().into_owned(), costs.clone()).unwrap();
    prop_assert_eq!(&prep.colouring, &fresh.colouring, "colouring");
    prop_assert_eq!(&prep.sigma, &fresh.sigma, "sigma labels");
    prop_assert_eq!(&prep.beta, &fresh.beta, "beta labels");
    prop_assert_eq!(&prep.tops, &fresh.tops, "colour regions");
    prop_assert_eq!(&prep.eval, &fresh.eval, "pre-order index");
    prop_assert_eq!(diff, dirty_colours(&old, &fresh), "dirty colours");
    Ok(())
}

/// The per-θ scan the sweep replaced: for each colour, a binary search for
/// the last point with β ≤ θ.
fn reference_picks(fs: &FrontierSet, theta: Cost) -> Option<Vec<usize>> {
    fs.colours()
        .map(|f| f.beta.partition_point(|&b| b <= theta).checked_sub(1))
        .collect()
}

/// One `(S, B, picks)` candidate per feasible θ, in θ order, with S the
/// saturating Σσ and B the largest picked β.
fn reference_candidates(fs: &FrontierSet) -> Vec<(Cost, Cost, Vec<usize>)> {
    fs.thetas()
        .iter()
        .filter_map(|&theta| {
            let picks = reference_picks(fs, theta)?;
            let (mut s, mut b) = (Cost::ZERO, Cost::ZERO);
            for (f, &i) in fs.colours().zip(&picks) {
                s += f.sigma[i];
                b = b.max(f.beta[i]);
            }
            Some((s, b, picks))
        })
        .collect()
}

fn reference_cut(prep: &Prepared<'_>, fs: &FrontierSet, picks: &[usize]) -> Cut {
    let mut edges = Vec::new();
    for (f, &i) in fs.colours().zip(picks) {
        edges.extend_from_slice(f.point_edges(i));
    }
    Cut::new(&prep.tree, edges).unwrap()
}

/// Asserts `solve_with_frontiers` at λ = k/8 and `lambda_frontier_with`
/// agree with the reference scan: objective, cut and `evaluated` per λ;
/// breakpoints, segment weights and cuts for the envelope.
fn assert_sweep_matches(prep: &Prepared<'_>) -> Result<(), TestCaseError> {
    let fs = FrontierSet::prepare(prep, &ExpandedConfig::default()).unwrap();
    let candidates = reference_candidates(&fs);
    for k in 0..=8 {
        let lambda = Lambda::new(k, 8).unwrap();
        let sol = solve_with_frontiers(prep, &fs, lambda).unwrap();
        let mut best: Option<(u128, &[usize])> = None;
        for (s, b, picks) in &candidates {
            let obj = lambda.ssb_scaled(*s, *b);
            if best.map(|(o, _)| obj < o).unwrap_or(true) {
                best = Some((obj, picks));
            }
        }
        let (_, picks) = best.expect("every generated instance is feasible");
        let expected = Solution::from_cut(
            prep,
            reference_cut(prep, &fs, picks),
            lambda,
            SolveStats::default(),
        )
        .unwrap();
        prop_assert_eq!(sol.objective, expected.objective, "λ = {}/8 objective", k);
        prop_assert_eq!(&sol.cut, &expected.cut, "λ = {}/8 cut", k);
        prop_assert_eq!(sol.stats.evaluated, candidates.len() as u64, "λ = {}/8", k);
    }
    let fr = lambda_frontier_with(prep, &fs).unwrap();
    let envelope = lower_envelope(candidates.clone()).unwrap();
    prop_assert_eq!(fr.breakpoints(), envelope.breakpoints());
    prop_assert_eq!(fr.stats.evaluated, candidates.len() as u64);
    for (seg, want) in fr.segments().iter().zip(envelope.segments()) {
        prop_assert_eq!((seg.s, seg.b), (want.s, want.b));
        prop_assert_eq!(&seg.payload, &reference_cut(prep, &fs, &want.payload));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Freshly prepared arenas hold exactly the nested reference frontiers.
    #[test]
    fn arena_prepare_matches_nested_reference(inst in arb_instance(14, 4)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        let cfg = ExpandedConfig::default();
        let fs = FrontierSet::prepare(&prep, &cfg).unwrap();
        let nested = colour_frontiers(&prep, &cfg).unwrap();
        assert_arena_matches(&fs, &nested)?;
    }

    /// Same oracle restricted to *interleaved* colourings, where a colour's
    /// top nodes come from several bands and the CSR grouping in
    /// `ColourTops` actually reorders work relative to a preorder scan.
    #[test]
    fn arena_matches_reference_on_interleaved_instances(inst in arb_instance(14, 3)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        prop_assume!(!prep.colouring.is_contiguous());
        let cfg = ExpandedConfig::default();
        let fs = FrontierSet::prepare(&prep, &cfg).unwrap();
        let nested = colour_frontiers(&prep, &cfg).unwrap();
        assert_arena_matches(&fs, &nested)?;
    }

    /// Along a drift trace, `refresh_in_place` (dirty-colour splice into the
    /// live arenas) stays bit-identical to a from-scratch prepare *and* to
    /// the nested reference at every step.
    #[test]
    fn refresh_in_place_matches_reference_along_drift(
        seed in 0u64..1024,
        drift_seed in 0u64..1024,
        n_crus in 6usize..24,
        n_satellites in 2u32..5,
        magnitude_permille in 50u32..400,
        churn_permille in 0u32..500,
    ) {
        let params = RandomTreeParams {
            n_crus,
            n_satellites,
            ..RandomTreeParams::default()
        };
        let base = random_scenario(&params, seed);
        let drift = drift_trace(&base, &DriftConfig {
            steps: 8,
            magnitude_permille,
            touched_per_step: 2,
            subtree_permille: 200,
            churn_permille,
            seed: drift_seed,
        });
        let cfg = ExpandedConfig::default();
        let mut costs = base.costs.clone();
        let mut prep = Prepared::new_owned(base.tree.clone(), costs.clone()).unwrap();
        let mut fs = FrontierSet::prepare(&prep, &cfg).unwrap();
        for (i, delta) in drift.deltas.iter().enumerate() {
            delta.apply(&base.tree, &mut costs).unwrap();
            let next = Prepared::new_owned(base.tree.clone(), costs.clone()).unwrap();
            let dirty = dirty_colours(&prep, &next);
            fs.refresh_in_place(&next, &cfg, &dirty.dirty).unwrap();
            let scratch = FrontierSet::prepare(&next, &cfg).unwrap();
            prop_assert_eq!(&fs, &scratch, "step {}: refreshed arenas must equal scratch", i);
            let nested = colour_frontiers(&next, &cfg).unwrap();
            assert_arena_matches(&fs, &nested)?;
            prep = next;
        }
        prop_assert_eq!(&costs, &drift.final_costs, "trace replay must land on final_costs");
    }
    /// Tie-heavy costs: every prepare path still builds the reference
    /// frontiers, witness edges included.
    #[test]
    fn prepare_paths_match_reference_on_tie_heavy_instances(inst in arb_tie_instance(14, 4)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        assert_prepare_paths_match(&prep)?;
    }

    /// The cancellable prepare builds the reference frontiers when not
    /// cancelled, and stops when it is.
    #[test]
    fn cancellable_prepare_matches_reference(inst in arb_instance(14, 4)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        assert_prepare_paths_match(&prep)?;
    }

    /// A tie-heavy drift trace — costs redrawn from `0..3`, leaves re-pinned
    /// across satellites — applied through `update_costs`: the patched
    /// arenas match the reference and a scratch prepare at every step.
    #[test]
    fn refresh_in_place_matches_reference_along_tie_heavy_drift(
        inst in arb_tie_instance(14, 3),
        edits in proptest::collection::vec((0usize..14, 0u8..5, 0u64..3), 16),
    ) {
        let cfg = ExpandedConfig::default();
        let n = inst.tree.len();
        let k = inst.costs.n_satellites();
        let mut costs = inst.costs.clone();
        let mut prep = Prepared::new_owned(inst.tree.clone(), costs.clone()).unwrap();
        let mut fs = FrontierSet::prepare(&prep, &cfg).unwrap();
        for (step, chunk) in edits.chunks(2).enumerate() {
            for &(i, field, v) in chunk {
                let id = CruId((i % n) as u32);
                let v = Cost::new(v);
                match field {
                    0 => { costs.set_host_time(id, v); }
                    1 => { costs.set_satellite_time(id, v); }
                    2 if id != inst.tree.root() => { costs.set_comm_up(id, v); }
                    3 if inst.tree.is_leaf(id) => { costs.set_comm_raw(id, v); }
                    4 if inst.tree.is_leaf(id) => {
                        costs.set_pinning(id, Some(SatelliteId(v.ticks() as u32 % k)));
                    }
                    _ => {}
                }
            }
            let (_, dirty) = prep.update_costs(costs.clone()).unwrap();
            fs.refresh_in_place(&prep, &cfg, &dirty.dirty).unwrap();
            let scratch = FrontierSet::prepare(&prep, &cfg).unwrap();
            prop_assert_eq!(&fs, &scratch, "step {}: refreshed arenas must equal scratch", step);
            assert_arena_matches(&fs, &colour_frontiers(&prep, &cfg).unwrap())?;
        }
    }

    /// Along a drift trace (re-pins included), every `update_costs` equals
    /// a fresh preparation of the drifted model.
    #[test]
    fn recost_matches_fresh_preparation_along_drift(
        seed in 0u64..1024,
        drift_seed in 0u64..1024,
        n_crus in 6usize..40,
        n_satellites in 2u32..6,
        magnitude_permille in 50u32..400,
        churn_permille in 0u32..500,
    ) {
        let params = RandomTreeParams {
            n_crus,
            n_satellites,
            ..RandomTreeParams::default()
        };
        let base = random_scenario(&params, seed);
        let drift = drift_trace(&base, &DriftConfig {
            steps: 8,
            magnitude_permille,
            touched_per_step: 2,
            subtree_permille: 200,
            churn_permille,
            seed: drift_seed,
        });
        let mut costs = base.costs.clone();
        let mut prep = Prepared::new_owned(base.tree.clone(), costs.clone()).unwrap();
        for delta in &drift.deltas {
            delta.apply(&base.tree, &mut costs).unwrap();
            assert_recost_matches_fresh(&mut prep, &costs)?;
        }
    }

    /// The same on tie-heavy instances with shuffled ids, where single
    /// edits (re-pins included) often leave labels or whole colours
    /// unchanged.
    #[test]
    fn recost_matches_fresh_preparation_along_tie_heavy_drift(
        inst in arb_tie_instance(14, 3),
        edits in proptest::collection::vec((0usize..14, 0u8..5, 0u64..3), 16),
    ) {
        let n = inst.tree.len();
        let k = inst.costs.n_satellites();
        let mut costs = inst.costs.clone();
        let mut prep = Prepared::new_owned(inst.tree.clone(), costs.clone()).unwrap();
        for &(i, field, v) in &edits {
            let id = CruId((i % n) as u32);
            let v = Cost::new(v);
            match field {
                0 => { costs.set_host_time(id, v); }
                1 => { costs.set_satellite_time(id, v); }
                2 if id != inst.tree.root() => { costs.set_comm_up(id, v); }
                3 if inst.tree.is_leaf(id) => { costs.set_comm_raw(id, v); }
                4 if inst.tree.is_leaf(id) => {
                    costs.set_pinning(id, Some(SatelliteId(v.ticks() as u32 % k)));
                }
                _ => {}
            }
            assert_recost_matches_fresh(&mut prep, &costs)?;
        }
    }

    /// The one-cursor θ walk answers every λ = k/8 and the λ-frontier
    /// exactly as the per-θ scan does.
    #[test]
    fn sweep_matches_per_threshold_reference(inst in arb_instance(14, 4)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        assert_sweep_matches(&prep)?;
    }

    /// Same sweep oracle on interleaved colourings (several regions per
    /// colour, so a colour's frontier is itself a Minkowski fold).
    #[test]
    fn sweep_matches_reference_on_interleaved_instances(inst in arb_instance(14, 3)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        prop_assume!(!prep.colouring.is_contiguous());
        assert_sweep_matches(&prep)?;
    }

    /// Same sweep oracle with tie-heavy costs: many thresholds give equal
    /// objectives, so the first-θ-wins rule decides the cut.
    #[test]
    fn sweep_matches_reference_on_tie_heavy_instances(inst in arb_tie_instance(14, 4)) {
        let prep = Prepared::new(&inst.tree, &inst.costs).unwrap();
        assert_sweep_matches(&prep)?;
    }
}

/// Two sensors on two satellites whose host times sum past `u64::MAX`:
/// at the lowest threshold both colours pick their sensor edge, so the
/// reference's saturating Σσ reads `Cost::MAX`, which the sweep's exact
/// `u128` sum must reproduce by clamping.
#[test]
fn sweep_matches_reference_when_sigma_saturates() {
    let mut b = TreeBuilder::new("root");
    let root = b.root();
    let left = b.add_child(root, "left");
    let right = b.add_child(root, "right");
    let tree = b.build();
    let mut costs = CostModel::zeroed(&tree, 2);
    costs.set_host_time(left, Cost::new(u64::MAX - 5));
    costs.set_host_time(right, Cost::new(u64::MAX - 7));
    for (leaf, sat) in [(left, 0), (right, 1)] {
        costs.set_satellite_time(leaf, Cost::new(10));
        costs.set_comm_up(leaf, Cost::new(10));
        costs.pin_leaf(leaf, SatelliteId(sat), Cost::new(1));
    }
    let prep = Prepared::new(&tree, &costs).unwrap();
    let fs = FrontierSet::prepare(&prep, &ExpandedConfig::default()).unwrap();
    assert!(
        reference_candidates(&fs)
            .iter()
            .any(|(s, _, _)| *s == Cost::MAX),
        "the instance must saturate Σσ"
    );
    assert_sweep_matches(&prep).unwrap();
}

/// Sums that saturate `Cost::MAX` inside the cover DP. Colour 0 has two
/// regions, the leaves `x` and `y`. `x`'s frontier has two points, and
/// `y`'s single point carries a β so large that both sums saturate to the
/// same β, so one of them prunes the other. A sort-free shift would keep
/// both; the flat kernel must build the reference's single point.
#[test]
fn flat_dp_matches_reference_when_sums_saturate() {
    let mut b = TreeBuilder::new("root");
    let root = b.root();
    let x = b.add_child(root, "x");
    let z = b.add_child(root, "z");
    let y = b.add_child(root, "y");
    let tree = b.build();
    let mut costs = CostModel::zeroed(&tree, 2);
    costs.set_host_time(x, Cost::new(7));
    costs.set_satellite_time(x, Cost::new(4));
    costs.set_comm_up(x, Cost::new(4));
    costs.pin_leaf(x, SatelliteId(0), Cost::new(5));
    costs.pin_leaf(z, SatelliteId(1), Cost::new(1));
    costs.set_satellite_time(y, Cost::new(u64::MAX - 1));
    costs.pin_leaf(y, SatelliteId(0), Cost::new(u64::MAX - 3));
    let prep = Prepared::new(&tree, &costs).unwrap();
    let nested = colour_frontiers(&prep, &ExpandedConfig::default()).unwrap();
    let betas: Vec<Cost> = nested[0].iter().map(|p| p.beta).collect();
    assert_eq!(
        betas,
        [Cost::MAX],
        "both sums saturate and one prunes the other"
    );
    assert_prepare_paths_match(&prep).unwrap();
    assert_sweep_matches(&prep).unwrap();
}
