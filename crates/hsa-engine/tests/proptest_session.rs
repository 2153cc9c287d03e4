//! Property: a random sequence of [`Delta`]s applied through the
//! incremental [`Session`] agrees with **from-scratch**
//! [`Expanded`]`::solve`s of the independently drifted cost model — at
//! λ = 0, ½, 1 and at the midpoint of every frontier segment — after
//! *every* step, on random and on interleaved instances. Green under
//! `PROPTEST_SEED` 1–3 (and the default stream).
//!
//! This is the end-to-end correctness contract of DESIGN.md §9: the
//! partial frontier rebuild may only ever reuse state that is provably
//! unchanged, so no drift trajectory — cost walks, subtree scalings,
//! satellite capacity changes, sensor churn — may produce an answer that
//! differs from solving the drifted instance from nothing. Every step also
//! checks what the session reports: an apply is a full rebuild exactly
//! when it dirtied every colour, and the colour counters add up each
//! apply's dirty and clean colours.

use hsa_engine::{Session, SessionConfig};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CostModel, CruTree, Delta, SatelliteId};
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use proptest::prelude::*;
use proptest::TestCaseError;

use hsa_assign::{Expanded, Prepared, Solver};

/// One raw perturbation draw; mapped onto a valid [`Delta`] against the
/// concrete tree (indices taken modulo the instance's shape).
#[derive(Clone, Debug)]
struct RawOp {
    kind: u8,
    node: u16,
    value: u16,
    sat: u8,
    num: u8,
    den: u8,
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        0u8..7,
        0u16..u16::MAX,
        1u16..5_000,
        0u8..255,
        1u8..8,
        1u8..8,
    )
        .prop_map(|(kind, node, value, sat, num, den)| RawOp {
            kind,
            node,
            value,
            sat,
            num,
            den,
        })
}

fn materialise(op: &RawOp, tree: &CruTree, costs: &CostModel) -> Delta {
    let n = tree.len();
    let node = hsa_tree::CruId((op.node as usize % n) as u32);
    let leaves = tree.leaves_in_order();
    let leaf = leaves[op.node as usize % leaves.len()];
    let sat = SatelliteId(op.sat as u32 % costs.n_satellites().max(1));
    let value = Cost::new(op.value as u64);
    match op.kind {
        0 => Delta::new().set_host_time(node, value),
        1 => Delta::new().set_satellite_time(node, value),
        2 if node != tree.root() => Delta::new().set_comm_up(node, value),
        2 => Delta::new().set_host_time(node, value),
        3 => Delta::new().set_comm_raw(leaf, value),
        4 => Delta::new().scale_subtree(node, op.num as u32, op.den as u32),
        5 => Delta::new().scale_satellite(sat, op.num as u32, op.den as u32),
        _ => Delta::new().repin(leaf, sat),
    }
}

/// λ probes: the three anchors plus every frontier-segment midpoint.
fn probe_lambdas(frontier: &hsa_assign::LambdaFrontier) -> Vec<Lambda> {
    let mut lambdas = vec![Lambda::ZERO, Lambda::HALF, Lambda::ONE];
    for seg in frontier.segments() {
        if let Some(lambda) = seg.midpoint().as_lambda() {
            lambdas.push(lambda);
        }
    }
    lambdas
}

fn check_drift(tree: &CruTree, costs: &CostModel, ops: &[RawOp]) -> Result<(), TestCaseError> {
    let mut session = Session::new(tree, costs, SessionConfig::default()).unwrap();
    // The independent mirror: the same drift applied to a bare cost model,
    // solved from scratch at every probe.
    let mut mirror = costs.clone();
    let (mut dirty_sum, mut clean_sum) = (0u64, 0u64);
    for (step, op) in ops.iter().enumerate() {
        let delta = materialise(op, tree, &mirror);
        delta.apply(tree, &mut mirror).unwrap();
        let outcome = session.apply(&delta).unwrap();
        prop_assert_eq!(
            outcome.full_rebuild,
            outcome.dirty_colours == outcome.total_colours && outcome.total_colours > 0,
            "step {}: full_rebuild must mean every colour was dirty ({:?})",
            step,
            outcome
        );
        dirty_sum += outcome.dirty_colours as u64;
        clean_sum += (outcome.total_colours - outcome.dirty_colours) as u64;
        prop_assert_eq!(
            session.costs(),
            &mirror,
            "step {}: session cost model diverged from the mirror",
            step
        );
        let scratch = Prepared::new(tree, &mirror).unwrap();
        let frontier = session.frontier().unwrap();
        for lambda in probe_lambdas(&frontier) {
            let want = Expanded::default().solve(&scratch, lambda).unwrap();
            let got = session.solve(lambda).unwrap();
            prop_assert_eq!(
                got.objective,
                want.objective,
                "step {}: objective diverged at λ={}",
                step,
                lambda
            );
            prop_assert_eq!(
                &got.cut,
                &want.cut,
                "step {}: cut diverged at λ={}",
                step,
                lambda
            );
            prop_assert_eq!(
                frontier.objective_at(lambda),
                want.objective,
                "step {}: frontier diverged at λ={}",
                step,
                lambda
            );
        }
    }
    // The session's bookkeeping adds up.
    let stats = session.stats();
    prop_assert_eq!(stats.applies, ops.len() as u64);
    prop_assert_eq!(stats.incremental + stats.full_rebuilds, stats.applies);
    prop_assert_eq!(stats.colours_rebuilt, dirty_sum);
    prop_assert_eq!(stats.colours_reused, clean_sum);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random placement.
    #[test]
    fn random_drift_matches_scratch(
        seed in 0u64..400,
        ops in proptest::collection::vec(raw_op(), 7),
        take in 1usize..=7,
    ) {
        let ops = &ops[..take];
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: 18,
                n_satellites: 3,
                placement: Placement::Random,
                ..RandomTreeParams::default()
            },
            seed,
        );
        check_drift(&tree, &costs, ops)?;
    }

    /// Interleaved placement (multi-band colours, the DESIGN §2 hard
    /// regime).
    #[test]
    fn interleaved_drift_matches_scratch(
        seed in 0u64..400,
        ops in proptest::collection::vec(raw_op(), 5),
        take in 1usize..=5,
    ) {
        let ops = &ops[..take];
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: 16,
                n_satellites: 3,
                placement: Placement::Interleaved,
                ..RandomTreeParams::default()
            },
            seed,
        );
        check_drift(&tree, &costs, ops)?;
    }

    /// Blocked placement on two satellites, where one delta often dirties
    /// both colours: a full rebuild runs through the same path and must
    /// agree too.
    #[test]
    fn blocked_drift_matches_scratch(
        seed in 0u64..200,
        ops in proptest::collection::vec(raw_op(), 3),
        take in 1usize..=3,
    ) {
        let ops = &ops[..take];
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: 14,
                n_satellites: 2,
                placement: Placement::Blocked,
                ..RandomTreeParams::default()
            },
            seed,
        );
        check_drift(&tree, &costs, ops)?;
    }
}
