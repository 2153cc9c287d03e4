//! Cuts of the closed CRU tree.
//!
//! A **cut** is the tree-side image of an S→T path in the assignment graph
//! (paper §5.2): a set of closed-tree edges forming an *antichain that
//! covers every leaf exactly once*. Equivalently, walking any leaf's path
//! from the dummy sensor node A up to the root crosses exactly one cut
//! edge. Everything strictly below a cut `Parent` edge runs on that
//! subtree's satellite; everything else runs on the host.
//!
//! This module provides validation, enumeration (the brute-force oracle),
//! and the canonical extreme cuts (all-on-host, maximal offload).

use crate::{Colouring, CruId, CruTree, TreeEdge, TreeError};
use serde::{DeError, Deserialize, Deserializer, Serialize};

/// A validated cut, normalised to sorted edge order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct Cut {
    edges: Vec<TreeEdge>,
}

// Deserialisation re-normalises (sort + dedup) but cannot re-validate the
// antichain property without the tree in hand; wire consumers that need the
// guarantee call [`Cut::validate`] against their copy of the tree.
impl Deserialize for Cut {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let mut edges = Vec::<TreeEdge>::deserialize(d)?;
        edges.sort();
        edges.dedup();
        Ok(Cut { edges })
    }
}

impl Cut {
    /// Builds a cut after validating it against `tree`.
    pub fn new(tree: &CruTree, mut edges: Vec<TreeEdge>) -> Result<Cut, TreeError> {
        edges.sort();
        edges.dedup();
        let cut = Cut { edges };
        cut.validate(tree)?;
        Ok(cut)
    }

    /// Builds a cut that is known-valid by construction — frontier
    /// assembly, enumeration and the other walk-free producers whose edge
    /// sets satisfy the antichain property structurally. Skips the O(n)
    /// validation of [`Cut::new`] (debug builds still assert it), which is
    /// what keeps the steady-state answer path free of tree walks.
    pub fn trusted(tree: &CruTree, mut edges: Vec<TreeEdge>) -> Cut {
        edges.sort();
        let cut = Cut { edges };
        debug_assert!(cut.validate(tree).is_ok());
        cut
    }

    /// The cut edges, sorted.
    pub fn edges(&self) -> &[TreeEdge] {
        &self.edges
    }

    /// Checks the antichain-covering-every-leaf-once property.
    pub fn validate(&self, tree: &CruTree) -> Result<(), TreeError> {
        // Existence checks.
        for &e in &self.edges {
            match e {
                TreeEdge::Parent(c) => {
                    tree.node(c)?;
                    if c == tree.root() {
                        return Err(TreeError::NoSuchEdge(e));
                    }
                }
                TreeEdge::Sensor(l) => {
                    tree.node(l)?;
                    if !tree.is_leaf(l) {
                        return Err(TreeError::NoSuchEdge(e));
                    }
                }
            }
        }
        // Count crossings per leaf: leaf l's A→root path consists of
        // Sensor(l) then Parent(x) for every x on l's path to the root.
        let spans = tree.leaf_spans();
        let leaves = tree.leaves_in_order();
        let mut crossings = vec![0u32; tree.len()];
        for &e in &self.edges {
            match e {
                TreeEdge::Parent(c) => {
                    let (lo, hi) = spans[c.index()];
                    for &l in &leaves[lo as usize..hi as usize] {
                        crossings[l.index()] += 1;
                    }
                }
                TreeEdge::Sensor(l) => crossings[l.index()] += 1,
            }
        }
        for l in tree.leaves_in_order() {
            match crossings[l.index()] {
                1 => {}
                0 => {
                    return Err(TreeError::InvalidCut(format!("leaf {l} is uncovered")));
                }
                k => {
                    return Err(TreeError::InvalidCut(format!(
                        "leaf {l} is covered {k} times (not an antichain)"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The CRUs on the host side (everything not strictly below a cut
    /// `Parent` edge), in pre-order.
    pub fn host_side(&self, tree: &CruTree) -> Vec<CruId> {
        let below = self.below_mask(tree);
        tree.preorder()
            .into_iter()
            .filter(|c| !below[c.index()])
            .collect()
    }

    /// Mask of CRUs strictly below the cut (assigned to satellites).
    pub fn below_mask(&self, tree: &CruTree) -> Vec<bool> {
        let mut below = vec![false; tree.len()];
        for &e in &self.edges {
            if let TreeEdge::Parent(c) = e {
                for x in tree.subtree(c) {
                    below[x.index()] = true;
                }
            }
        }
        below
    }

    /// The all-on-host cut: every leaf covered by its sensor edge.
    pub fn all_on_host(tree: &CruTree) -> Cut {
        Cut::trusted(
            tree,
            tree.leaves_in_order()
                .into_iter()
                .map(TreeEdge::Sensor)
                .collect(),
        )
    }

    /// The *maximal offload* cut under a colouring: cut as high as the
    /// conflicts allow, i.e. every highest non-conflicted edge. This is the
    /// "topmost path" of the paper's §5.4 (fewest CRUs on the host).
    pub fn max_offload(tree: &CruTree, colouring: &Colouring) -> Cut {
        let mut edges = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(c) = stack.pop() {
            if c != tree.root() && colouring.cuttable(TreeEdge::Parent(c)) {
                edges.push(TreeEdge::Parent(c));
            } else if tree.is_leaf(c) {
                // Conflicted leaf cannot happen (a leaf always has one
                // colour); reaching here means c is the root-leaf.
                edges.push(TreeEdge::Sensor(c));
            } else {
                for &ch in tree.children(c) {
                    stack.push(ch);
                }
            }
        }
        Cut::trusted(tree, edges)
    }
}

/// Enumerates every valid cut for which all edges satisfy `cuttable`,
/// invoking `visit` on each. The number of cuts is exponential in general —
/// intended for the brute-force oracle on small trees.
pub fn for_each_cut(
    tree: &CruTree,
    cuttable: &dyn Fn(TreeEdge) -> bool,
    visit: &mut dyn FnMut(&Cut),
) {
    // Recursive generation: cover(node) chooses either to cut node's parent
    // edge (if allowed) or to descend; leaves may alternatively cut their
    // sensor edge. The root has no parent edge and always descends.
    let mut chosen: Vec<TreeEdge> = Vec::new();
    cover_children(tree, cuttable, tree.root(), &mut chosen, visit);
}

/// Enumerate coverings of all children of `c` (plus finish when done).
fn cover_children(
    tree: &CruTree,
    cuttable: &dyn Fn(TreeEdge) -> bool,
    c: CruId,
    chosen: &mut Vec<TreeEdge>,
    visit: &mut dyn FnMut(&Cut),
) {
    // Treat the root specially: it behaves like an internal node whose
    // children must all be covered; a leaf-root is covered by its sensor
    // edge only.
    if tree.is_leaf(c) {
        let e = TreeEdge::Sensor(c);
        if cuttable(e) {
            chosen.push(e);
            visit(&Cut::trusted(tree, chosen.clone()));
            chosen.pop();
        }
        return;
    }
    let children: Vec<CruId> = tree.children(c).to_vec();
    cover_list(tree, cuttable, &children, 0, chosen, visit);
}

fn cover_list(
    tree: &CruTree,
    cuttable: &dyn Fn(TreeEdge) -> bool,
    list: &[CruId],
    idx: usize,
    chosen: &mut Vec<TreeEdge>,
    visit: &mut dyn FnMut(&Cut),
) {
    if idx == list.len() {
        visit(&Cut::trusted(tree, chosen.clone()));
        return;
    }
    let node = list[idx];
    // Option 1: cut the parent edge of `node`.
    let pe = TreeEdge::Parent(node);
    if cuttable(pe) {
        chosen.push(pe);
        cover_list(tree, cuttable, list, idx + 1, chosen, visit);
        chosen.pop();
    }
    // Option 2: descend into `node`.
    if tree.is_leaf(node) {
        let se = TreeEdge::Sensor(node);
        if cuttable(se) {
            chosen.push(se);
            cover_list(tree, cuttable, list, idx + 1, chosen, visit);
            chosen.pop();
        }
    } else {
        // Cover all of node's children, then continue with the rest of the
        // list: splice the child list in.
        let mut extended: Vec<CruId> = tree.children(node).to_vec();
        extended.extend_from_slice(&list[idx + 1..]);
        cover_list(tree, cuttable, &extended, 0, chosen, visit);
    }
}

/// Counts valid cuts (all edges cuttable).
pub fn count_cuts(tree: &CruTree, cuttable: &dyn Fn(TreeEdge) -> bool) -> u64 {
    let mut n = 0u64;
    for_each_cut(tree, cuttable, &mut |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{cru, fig2_tree};
    use crate::{Colouring, CostModel, SatelliteId, TreeBuilder};
    use hsa_graph::Cost;

    #[test]
    fn validate_accepts_and_rejects() {
        let (t, _m) = fig2_tree();
        // Valid: all sensors.
        Cut::all_on_host(&t).validate(&t).unwrap();
        // Invalid: leaf covered twice.
        let bad = Cut {
            edges: vec![TreeEdge::Parent(cru(4)), TreeEdge::Sensor(cru(9))],
        };
        assert!(bad.validate(&t).is_err());
        // Invalid: uncovered leaves.
        let bad = Cut {
            edges: vec![TreeEdge::Parent(cru(4))],
        };
        assert!(bad.validate(&t).is_err());
        // Invalid: Parent(root).
        let bad = Cut {
            edges: vec![TreeEdge::Parent(t.root())],
        };
        assert!(bad.validate(&t).is_err());
        // Invalid: Sensor(internal).
        let bad = Cut {
            edges: vec![TreeEdge::Sensor(cru(2))],
        };
        assert!(bad.validate(&t).is_err());
    }

    #[test]
    fn host_side_of_extremes() {
        let (t, m) = fig2_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        let all_host = Cut::all_on_host(&t);
        assert_eq!(all_host.host_side(&t).len(), t.len());
        let offload = Cut::max_offload(&t, &col);
        // Host keeps exactly the forced set {CRU1, CRU2, CRU3}.
        let host: Vec<u32> = offload.host_side(&t).iter().map(|c| c.0 + 1).collect();
        assert_eq!(host, vec![1, 2, 3]);
    }

    #[test]
    fn enumeration_counts_chain() {
        // Chain root→a→leaf with one satellite: cuts are {Parent(a)},
        // {Parent(leaf)}, {Sensor(leaf)} → 3.
        let mut b = TreeBuilder::new("r");
        let root = b.root();
        let a = b.add_child(root, "a");
        let leaf = b.add_child(a, "leaf");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 1);
        m.pin_leaf(leaf, SatelliteId(0), Cost::ZERO);
        assert_eq!(count_cuts(&t, &|_| true), 3);
    }

    #[test]
    fn enumeration_counts_star() {
        // Root with k leaf children: each leaf independently Parent|Sensor
        // → 2^k cuts.
        for k in 1..=4u32 {
            let mut b = TreeBuilder::new("r");
            let root = b.root();
            for i in 0..k {
                b.add_child(root, format!("l{i}"));
            }
            let t = b.build();
            assert_eq!(count_cuts(&t, &|_| true), 1 << k, "k={k}");
        }
    }

    #[test]
    fn enumeration_respects_cuttable_predicate() {
        let (t, m) = fig2_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        let unrestricted = count_cuts(&t, &|_| true);
        let coloured = count_cuts(&t, &|e| col.cuttable(e));
        assert!(coloured < unrestricted);
        // Every enumerated coloured cut validates and uses no conflicted edge.
        for_each_cut(&t, &|e| col.cuttable(e), &mut |cut| {
            cut.validate(&t).unwrap();
            assert!(cut.edges().iter().all(|&e| col.cuttable(e)));
        });
    }

    #[test]
    fn enumerated_cuts_are_unique() {
        let (t, _m) = fig2_tree();
        let mut seen = std::collections::BTreeSet::new();
        for_each_cut(&t, &|_| true, &mut |cut| {
            assert!(seen.insert(cut.clone()), "duplicate {cut:?}");
        });
        assert!(seen.len() > 10);
    }

    #[test]
    fn single_node_tree_has_one_cut() {
        let t = TreeBuilder::new("only").build();
        assert_eq!(count_cuts(&t, &|_| true), 1);
        let mut cuts = Vec::new();
        for_each_cut(&t, &|_| true, &mut |c| cuts.push(c.clone()));
        assert_eq!(cuts[0].edges(), &[TreeEdge::Sensor(CruId(0))]);
    }
}
