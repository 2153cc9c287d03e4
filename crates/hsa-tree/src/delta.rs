//! Instance **deltas** — structured perturbations of a [`CostModel`].
//!
//! A deployed host–satellites system never solves one frozen instance:
//! sensor rates fluctuate (per-CRU processing and communication times
//! drift), satellites speed up, slow down, join or drop out (leaves are
//! re-pinned). A [`Delta`] captures one such perturbation step as data —
//! an ordered list of [`DeltaOp`]s over an existing tree's cost model —
//! so that the same step can be (a) applied to a concrete [`CostModel`],
//! (b) replayed deterministically by benchmarks, and (c) exploited by the
//! incremental re-solver (`hsa-engine::Session`), which re-derives only
//! the state a delta actually touched.
//!
//! Deltas never change the *topology* of the CRU tree — the reasoning
//! procedure is fixed; what drifts is how expensive its parts are and
//! where sensors live. That invariant is what makes incremental
//! invalidation tractable (DESIGN.md §9).

use crate::{CostModel, CruId, CruTree, SatelliteId, TreeError};
use hsa_graph::Cost;
use serde::{Deserialize, Serialize};

/// One primitive perturbation of a cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// Set `h_i` (host processing time) of one CRU.
    SetHostTime {
        /// The CRU.
        node: CruId,
        /// The new value.
        value: Cost,
    },
    /// Set `s_i` (satellite processing time) of one CRU.
    SetSatelliteTime {
        /// The CRU.
        node: CruId,
        /// The new value.
        value: Cost,
    },
    /// Set `c_up(i)` (uplink time) of one non-root CRU.
    SetCommUp {
        /// The CRU (must not be the root — the root has no uplink).
        node: CruId,
        /// The new value.
        value: Cost,
    },
    /// Set `c_raw(l)` (raw sensor transfer time) of one leaf.
    SetCommRaw {
        /// The leaf.
        leaf: CruId,
        /// The new value.
        value: Cost,
    },
    /// Scale every cost entry (`h`, `s`, `c_up`, `c_raw`) of every CRU in
    /// the subtree of `root` by the rational factor `num/den` (integer
    /// arithmetic, rounding towards zero). Models a whole sensor branch
    /// becoming busier or quieter.
    ScaleSubtree {
        /// Root of the scaled subtree.
        root: CruId,
        /// Scale numerator.
        num: u32,
        /// Scale denominator (must be non-zero).
        den: u32,
    },
    /// Scale `s_i` of every CRU whose subtree is uniformly pinned to
    /// `satellite` by `num/den` — a **capacity change** of that satellite
    /// (a slower box raises every processing time it could ever host).
    ScaleSatellite {
        /// The satellite whose capacity changed.
        satellite: SatelliteId,
        /// Scale numerator.
        num: u32,
        /// Scale denominator (must be non-zero).
        den: u32,
    },
    /// Re-pin a leaf's sensors to a different satellite (**churn**: the
    /// previous box dropped out, a new one serves the sensor). The raw
    /// transfer cost `c_raw` is kept; chain a [`DeltaOp::SetCommRaw`] when
    /// the new link differs.
    Repin {
        /// The leaf being re-pinned.
        leaf: CruId,
        /// Its new satellite.
        satellite: SatelliteId,
    },
}

/// An ordered batch of [`DeltaOp`]s: one perturbation step of a drifting
/// instance. Ops apply in order, so later ops observe earlier ones.
///
/// ```
/// use hsa_tree::{Delta, figures::fig2_tree};
/// use hsa_graph::Cost;
///
/// let (tree, mut costs) = fig2_tree();
/// let root = tree.root();
/// let delta = Delta::new()
///     .set_host_time(root, Cost::new(9))
///     .scale_subtree(tree.children(root)[0], 3, 2);
/// delta.apply(&tree, &mut costs).unwrap();
/// assert_eq!(costs.h(root), Cost::new(9));
/// costs.validate(&tree).unwrap();
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

fn scale(c: Cost, num: u32, den: u32) -> Cost {
    let scaled = c.ticks() as u128 * num as u128 / den as u128;
    Cost::new(scaled.min(u64::MAX as u128) as u64)
}

impl Delta {
    /// An empty delta (applies as a no-op).
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Appends an op.
    pub fn push(&mut self, op: DeltaOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when applying changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Chainable [`DeltaOp::SetHostTime`].
    pub fn set_host_time(mut self, node: CruId, value: Cost) -> Self {
        self.ops.push(DeltaOp::SetHostTime { node, value });
        self
    }

    /// Chainable [`DeltaOp::SetSatelliteTime`].
    pub fn set_satellite_time(mut self, node: CruId, value: Cost) -> Self {
        self.ops.push(DeltaOp::SetSatelliteTime { node, value });
        self
    }

    /// Chainable [`DeltaOp::SetCommUp`].
    pub fn set_comm_up(mut self, node: CruId, value: Cost) -> Self {
        self.ops.push(DeltaOp::SetCommUp { node, value });
        self
    }

    /// Chainable [`DeltaOp::SetCommRaw`].
    pub fn set_comm_raw(mut self, leaf: CruId, value: Cost) -> Self {
        self.ops.push(DeltaOp::SetCommRaw { leaf, value });
        self
    }

    /// Chainable [`DeltaOp::ScaleSubtree`].
    pub fn scale_subtree(mut self, root: CruId, num: u32, den: u32) -> Self {
        self.ops.push(DeltaOp::ScaleSubtree { root, num, den });
        self
    }

    /// Chainable [`DeltaOp::ScaleSatellite`].
    pub fn scale_satellite(mut self, satellite: SatelliteId, num: u32, den: u32) -> Self {
        self.ops.push(DeltaOp::ScaleSatellite {
            satellite,
            num,
            den,
        });
        self
    }

    /// Chainable [`DeltaOp::Repin`].
    pub fn repin(mut self, leaf: CruId, satellite: SatelliteId) -> Self {
        self.ops.push(DeltaOp::Repin { leaf, satellite });
        self
    }

    /// Applies every op to `costs`, in order.
    ///
    /// Each op is validated against the tree before it mutates anything
    /// (unknown CRU, uplink on the root, re-pinning an internal node, a
    /// zero scale denominator, a satellite id outside the platform). On
    /// error, ops preceding the offending one **have already been
    /// applied** — apply to a clone when atomicity matters (the engine's
    /// `Session` does exactly that).
    pub fn apply(&self, tree: &CruTree, costs: &mut CostModel) -> Result<(), TreeError> {
        for op in &self.ops {
            apply_op(op, tree, costs)?;
        }
        Ok(())
    }
}

fn check_node(tree: &CruTree, c: CruId) -> Result<(), TreeError> {
    if c.index() >= tree.len() {
        return Err(TreeError::CruOutOfRange {
            cru: c.0,
            len: tree.len() as u32,
        });
    }
    Ok(())
}

fn check_satellite(costs: &CostModel, s: SatelliteId) -> Result<(), TreeError> {
    if s.0 >= costs.n_satellites() {
        return Err(TreeError::CostModelMismatch(format!(
            "{s} outside the platform (only {} satellites exist)",
            costs.n_satellites()
        )));
    }
    Ok(())
}

fn check_den(den: u32) -> Result<(), TreeError> {
    if den == 0 {
        return Err(TreeError::CostModelMismatch(
            "scale denominator must be non-zero".into(),
        ));
    }
    Ok(())
}

/// For every CRU: the satellite its whole subtree is uniformly pinned to,
/// or `None` where subtrees mix satellites (one local post-order pass —
/// the same propagation the §5.1 colouring performs, minus validation).
fn uniform_satellites(tree: &CruTree, costs: &CostModel) -> Vec<(CruId, Option<SatelliteId>)> {
    let mut uniform: Vec<Option<SatelliteId>> = vec![None; tree.len()];
    for c in tree.postorder() {
        uniform[c.index()] = if tree.is_leaf(c) {
            costs.pinned_satellite(c)
        } else {
            let mut it = tree.children(c).iter();
            let first = uniform[it.next().expect("internal node has children").index()];
            if first.is_some() && it.all(|&ch| uniform[ch.index()] == first) {
                first
            } else {
                None
            }
        };
    }
    tree.postorder()
        .into_iter()
        .map(|c| (c, uniform[c.index()]))
        .collect()
}

fn apply_op(op: &DeltaOp, tree: &CruTree, costs: &mut CostModel) -> Result<(), TreeError> {
    match *op {
        DeltaOp::SetHostTime { node, value } => {
            check_node(tree, node)?;
            costs.set_host_time(node, value);
        }
        DeltaOp::SetSatelliteTime { node, value } => {
            check_node(tree, node)?;
            costs.set_satellite_time(node, value);
        }
        DeltaOp::SetCommUp { node, value } => {
            check_node(tree, node)?;
            if node == tree.root() {
                return Err(TreeError::CostModelMismatch(
                    "root has no parent, its comm_up must stay zero".into(),
                ));
            }
            costs.set_comm_up(node, value);
        }
        DeltaOp::SetCommRaw { leaf, value } => {
            check_node(tree, leaf)?;
            if !tree.is_leaf(leaf) {
                return Err(TreeError::NotALeaf(leaf));
            }
            costs.set_comm_raw(leaf, value);
        }
        DeltaOp::ScaleSubtree { root, num, den } => {
            check_node(tree, root)?;
            check_den(den)?;
            for c in tree.subtree(root) {
                costs.set_host_time(c, scale(costs.h(c), num, den));
                costs.set_satellite_time(c, scale(costs.s(c), num, den));
                // The tree root's uplink is zero and scaling keeps it zero,
                // so the validation invariant survives unconditionally.
                costs.set_comm_up(c, scale(costs.c_up(c), num, den));
                costs.set_comm_raw(c, scale(costs.c_raw(c), num, den));
            }
        }
        DeltaOp::ScaleSatellite {
            satellite,
            num,
            den,
        } => {
            check_satellite(costs, satellite)?;
            check_den(den)?;
            for (c, sat) in uniform_satellites(tree, costs) {
                if sat == Some(satellite) {
                    costs.set_satellite_time(c, scale(costs.s(c), num, den));
                }
            }
        }
        DeltaOp::Repin { leaf, satellite } => {
            check_node(tree, leaf)?;
            if !tree.is_leaf(leaf) {
                return Err(TreeError::NotALeaf(leaf));
            }
            check_satellite(costs, satellite)?;
            costs.set_pinning(leaf, Some(satellite));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig2_tree;
    use crate::TreeBuilder;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    #[test]
    fn set_ops_mutate_and_validate() {
        let (t, mut m) = fig2_tree();
        let leaf = *t.leaves_in_order().first().unwrap();
        let d = Delta::new()
            .set_host_time(t.root(), c(123))
            .set_satellite_time(leaf, c(45))
            .set_comm_up(leaf, c(6))
            .set_comm_raw(leaf, c(7));
        d.apply(&t, &mut m).unwrap();
        assert_eq!(m.h(t.root()), c(123));
        assert_eq!(m.s(leaf), c(45));
        assert_eq!(m.c_up(leaf), c(6));
        assert_eq!(m.c_raw(leaf), c(7));
        m.validate(&t).unwrap();
    }

    #[test]
    fn scale_subtree_scales_every_entry_in_range() {
        let (t, mut m) = fig2_tree();
        let child = t.children(t.root())[0];
        let before_in = m.h(child);
        let outside = t.children(t.root())[1];
        let before_out = m.h(outside);
        Delta::new()
            .scale_subtree(child, 3, 2)
            .apply(&t, &mut m)
            .unwrap();
        assert_eq!(m.h(child), scale(before_in, 3, 2));
        assert_eq!(m.h(outside), before_out, "outside the subtree: untouched");
        m.validate(&t).unwrap();
    }

    #[test]
    fn scale_whole_tree_keeps_root_uplink_zero() {
        let (t, mut m) = fig2_tree();
        Delta::new()
            .scale_subtree(t.root(), 7, 3)
            .apply(&t, &mut m)
            .unwrap();
        assert_eq!(m.c_up(t.root()), Cost::ZERO);
        m.validate(&t).unwrap();
    }

    #[test]
    fn scale_satellite_touches_only_uniform_subtrees() {
        // root ── a ── (l1→Sat0, l2→Sat0)
        //      └─ l3→Sat1
        let mut b = TreeBuilder::new("root");
        let root = b.root();
        let a = b.add_child(root, "a");
        let l1 = b.add_child(a, "l1");
        let l2 = b.add_child(a, "l2");
        let l3 = b.add_child(root, "l3");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 2);
        for n in t.preorder() {
            m.set_satellite_time(n, c(10));
        }
        m.pin_leaf(l1, SatelliteId(0), c(1));
        m.pin_leaf(l2, SatelliteId(0), c(1));
        m.pin_leaf(l3, SatelliteId(1), c(1));
        Delta::new()
            .scale_satellite(SatelliteId(0), 2, 1)
            .apply(&t, &mut m)
            .unwrap();
        // a, l1, l2 are uniformly Sat0 → doubled; root mixes, l3 is Sat1.
        assert_eq!(m.s(a), c(20));
        assert_eq!(m.s(l1), c(20));
        assert_eq!(m.s(l2), c(20));
        assert_eq!(m.s(root), c(10));
        assert_eq!(m.s(l3), c(10));
        // A scale sees a repin earlier in the same delta: with l3 moved to
        // Sat0 the whole tree is uniform, so the root is scaled too.
        Delta::new()
            .repin(l3, SatelliteId(0))
            .scale_satellite(SatelliteId(0), 2, 1)
            .apply(&t, &mut m)
            .unwrap();
        assert_eq!(m.s(root), c(20));
        assert_eq!(m.s(l3), c(20));
        assert_eq!(m.s(a), c(40));
    }

    #[test]
    fn repin_moves_a_leaf_and_keeps_c_raw() {
        let (t, mut m) = fig2_tree();
        let leaf = *t.leaves_in_order().first().unwrap();
        let old_raw = m.c_raw(leaf);
        let new_sat = SatelliteId((m.pinned_satellite(leaf).unwrap().0 + 1) % m.n_satellites());
        Delta::new().repin(leaf, new_sat).apply(&t, &mut m).unwrap();
        assert_eq!(m.pinned_satellite(leaf), Some(new_sat));
        assert_eq!(m.c_raw(leaf), old_raw);
        m.validate(&t).unwrap();
    }

    #[test]
    fn invalid_ops_are_rejected() {
        let (t, mut m) = fig2_tree();
        let leaf = *t.leaves_in_order().first().unwrap();
        let internal = t.root();
        assert!(matches!(
            Delta::new()
                .set_host_time(CruId(999), c(1))
                .apply(&t, &mut m),
            Err(TreeError::CruOutOfRange { .. })
        ));
        assert!(Delta::new()
            .set_comm_up(t.root(), c(1))
            .apply(&t, &mut m)
            .is_err());
        assert!(matches!(
            Delta::new().set_comm_raw(internal, c(1)).apply(&t, &mut m),
            Err(TreeError::NotALeaf(_))
        ));
        assert!(matches!(
            Delta::new()
                .repin(internal, SatelliteId(0))
                .apply(&t, &mut m),
            Err(TreeError::NotALeaf(_))
        ));
        assert!(Delta::new()
            .repin(leaf, SatelliteId(99))
            .apply(&t, &mut m)
            .is_err());
        assert!(Delta::new()
            .scale_subtree(t.root(), 1, 0)
            .apply(&t, &mut m)
            .is_err());
        assert!(Delta::new()
            .scale_satellite(SatelliteId(0), 1, 0)
            .apply(&t, &mut m)
            .is_err());
        // Nothing above invalidated the model.
        m.validate(&t).unwrap();
    }

    #[test]
    fn delta_round_trips_through_json() {
        let d = Delta::new()
            .set_host_time(CruId(3), c(17))
            .scale_satellite(SatelliteId(1), 11, 10)
            .repin(CruId(5), SatelliteId(0));
        let json = serde_json::to_string(&d).unwrap();
        let back: Delta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.len(), 3);
        assert!(!back.is_empty());
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let (t, mut m) = fig2_tree();
        let before = m.clone();
        Delta::new().apply(&t, &mut m).unwrap();
        assert_eq!(m, before);
    }
}
