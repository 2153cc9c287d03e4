//! The σ (host execution time) labelling of the closed CRU tree — the
//! paper's Figure 8 / §5.3 "sum weight" construction.
//!
//! Rule (quoted from the paper, de-garbled): give every edge an initial
//! weight 0; traverse the tree in pre-order; when visiting node `j` with
//! incoming edge weight `w_in`, give the edge towards `j`'s **leftmost
//! child** the weight `w_in + h_j`. The leftmost edge leaving the root gets
//! `h_root` (the root has no incoming edge, `w_in = 0`). A leaf's only
//! downward edge is its virtual sensor edge, which therefore receives
//! `w_in + h_leaf`.
//!
//! **Why it works.** `h_j` is charged on every edge of the maximal
//! *leftmost-descendant chain* starting at `j`. A valid cut (an antichain
//! covering every leaf exactly once) crosses that chain exactly once iff
//! `j` ends up on the host side, so summing σ over any valid cut counts
//! exactly the host-side `h` values — the S weight of the partition. The
//! property test in this module checks that equality against the direct
//! oracle for every cut of random trees.

use crate::{CostModel, CruId, CruTree, TreeEdge, TreeError};
use hsa_graph::Cost;

/// The σ label of every closed-tree edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigmaLabels {
    /// σ of `Parent(c)`, indexed by `c` (root entry unused, zero).
    pub parent_edge: Vec<Cost>,
    /// σ of `Sensor(l)`, indexed by `l` (zero for internal nodes).
    pub sensor_edge: Vec<Cost>,
}

impl SigmaLabels {
    /// Computes the Figure 8 labelling after validating `costs` against
    /// `tree`: the entry point for a caller without a pre-order index
    /// ([`SigmaLabels::from_preorder`] does the work).
    pub fn compute(tree: &CruTree, costs: &CostModel) -> Result<SigmaLabels, TreeError> {
        costs.validate(tree)?;
        let preorder = tree.preorder();
        let size = tree.subtree_sizes(&preorder);
        Ok(SigmaLabels::from_preorder(costs, &preorder, &size))
    }

    /// The Figure 8 labelling in one pass over a tree's pre-order index
    /// (`preorder` is [`CruTree::preorder`], `size` its
    /// [`CruTree::subtree_sizes`]; `costs` already validated against the
    /// tree).
    ///
    /// The weight entering node `j` is the σ of its parent edge, which is
    /// final when `j` is visited and 0 at the root and at every
    /// non-leftmost child. `w_in + h_j` goes to the sensor edge of a leaf
    /// (`size == 1`) and otherwise to the parent edge of the leftmost
    /// child, the next node in pre-order.
    pub fn from_preorder(costs: &CostModel, preorder: &[CruId], size: &[u32]) -> SigmaLabels {
        let h = costs.host_times();
        let n = preorder.len();
        let mut parent_edge = vec![Cost::ZERO; n];
        let mut sensor_edge = vec![Cost::ZERO; n];
        for (pos, &j) in preorder.iter().enumerate() {
            let down = parent_edge[j.index()] + h[j.index()];
            if size[j.index()] == 1 {
                sensor_edge[j.index()] = down;
            } else {
                parent_edge[preorder[pos + 1].index()] = down;
            }
        }
        SigmaLabels {
            parent_edge,
            sensor_edge,
        }
    }

    /// σ of a closed-tree edge.
    pub fn sigma(&self, e: TreeEdge) -> Cost {
        match e {
            TreeEdge::Parent(c) => self.parent_edge[c.index()],
            TreeEdge::Sensor(l) => self.sensor_edge[l.index()],
        }
    }
}

/// The *oracle* the labelling must agree with: the host-side processing
/// time of a cut, computed directly from the tree.
///
/// Host side = every CRU **not** strictly below a cut edge. `Sensor(l)` cuts
/// keep `l` itself on the host.
pub fn host_time_of_cut(tree: &CruTree, costs: &CostModel, cut: &[TreeEdge]) -> Cost {
    let mut below = vec![false; tree.len()];
    for e in cut {
        if let TreeEdge::Parent(c) = e {
            for x in tree.subtree(*c) {
                below[x.index()] = true;
            }
        }
    }
    (0..tree.len() as u32)
        .map(CruId)
        .filter(|c| !below[c.index()])
        .map(|c| costs.h(c))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SatelliteId, TreeBuilder};

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    /// The canonical reconstruction of the paper's Figure 2/8 tree (see
    /// `figures.rs` for the full story). Node ids follow the paper.
    fn paperish() -> (CruTree, CostModel) {
        crate::figures::fig2_tree()
    }

    #[test]
    fn figure8_labels() {
        // The labels the paper prints in Figure 8: h1+h2 on <CRU2,CRU4>,
        // h1+h2+h4+h9 on CRU9's sensor edge, h10 on CRU10's, h3+h6+h13 on
        // CRU13's, h7/h8 on CRU7/CRU8's.
        let (t, m) = paperish();
        let sig = SigmaLabels::compute(&t, &m).unwrap();
        use crate::figures::cru;
        let h = |i: u32| m.h(cru(i));

        // Root's leftmost edge <CRU1,CRU2> = h1.
        assert_eq!(sig.sigma(TreeEdge::Parent(cru(2))), h(1));
        // <CRU2,CRU4> = h1 + h2.
        assert_eq!(sig.sigma(TreeEdge::Parent(cru(4))), h(1) + h(2));
        // <CRU1,CRU3> is not leftmost → 0.
        assert_eq!(sig.sigma(TreeEdge::Parent(cru(3))), Cost::ZERO);
        // <CRU3,CRU6> = h3 (leftmost under CRU3, whose incoming σ is 0).
        assert_eq!(sig.sigma(TreeEdge::Parent(cru(6))), h(3));
        // CRU9 sensor edge = h1+h2+h4+h9.
        assert_eq!(
            sig.sigma(TreeEdge::Sensor(cru(9))),
            h(1) + h(2) + h(4) + h(9)
        );
        // CRU10 sensor edge = h10 (non-leftmost child of CRU4).
        assert_eq!(sig.sigma(TreeEdge::Sensor(cru(10))), h(10));
        // CRU13 sensor edge = h3+h6+h13.
        assert_eq!(sig.sigma(TreeEdge::Sensor(cru(13))), h(3) + h(6) + h(13));
        // CRU7, CRU8 sensor edges = h7, h8.
        assert_eq!(sig.sigma(TreeEdge::Sensor(cru(7))), h(7));
        assert_eq!(sig.sigma(TreeEdge::Sensor(cru(8))), h(8));
    }

    #[test]
    fn topmost_cut_counts_only_the_root() {
        // Cut both edges under the root: host = {root}.
        let mut b = TreeBuilder::new("r");
        let root = b.root();
        let a = b.add_child(root, "a");
        let d = b.add_child(root, "d");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 2);
        m.set_host_time(root, c(11))
            .set_host_time(a, c(5))
            .set_host_time(d, c(7));
        m.pin_leaf(a, SatelliteId(0), Cost::ZERO);
        m.pin_leaf(d, SatelliteId(1), Cost::ZERO);
        let sig = SigmaLabels::compute(&t, &m).unwrap();
        let cut = [TreeEdge::Parent(a), TreeEdge::Parent(d)];
        let sum: Cost = cut.iter().map(|&e| sig.sigma(e)).sum();
        assert_eq!(sum, c(11));
        assert_eq!(host_time_of_cut(&t, &m, &cut), c(11));
    }

    #[test]
    fn bottom_cut_counts_everything() {
        // Cut at the sensor edges: every CRU on the host.
        let mut b = TreeBuilder::new("r");
        let root = b.root();
        let a = b.add_child(root, "a");
        let d = b.add_child(root, "d");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 2);
        m.set_host_time(root, c(11))
            .set_host_time(a, c(5))
            .set_host_time(d, c(7));
        m.pin_leaf(a, SatelliteId(0), Cost::ZERO);
        m.pin_leaf(d, SatelliteId(1), Cost::ZERO);
        let sig = SigmaLabels::compute(&t, &m).unwrap();
        let cut = [TreeEdge::Sensor(a), TreeEdge::Sensor(d)];
        let sum: Cost = cut.iter().map(|&e| sig.sigma(e)).sum();
        assert_eq!(sum, c(11 + 5 + 7));
        assert_eq!(host_time_of_cut(&t, &m, &cut), c(23));
    }

    #[test]
    fn mixed_cut_matches_oracle() {
        let (t, m) = paperish();
        let sig = SigmaLabels::compute(&t, &m).unwrap();
        use crate::figures::cru;
        // Cut: subtree(CRU4) to a satellite; CRU5's and CRU6's subtrees to
        // satellites; CRU7 offloaded; CRU8 kept on host.
        let cut = [
            TreeEdge::Parent(cru(4)),
            TreeEdge::Parent(cru(5)),
            TreeEdge::Parent(cru(6)),
            TreeEdge::Parent(cru(7)),
            TreeEdge::Sensor(cru(8)),
        ];
        let sum: Cost = cut.iter().map(|&e| sig.sigma(e)).sum();
        assert_eq!(sum, host_time_of_cut(&t, &m, &cut));
    }

    #[test]
    fn single_node_tree_sensor_cut() {
        let t = TreeBuilder::new("only").build();
        let mut m = CostModel::zeroed(&t, 1);
        m.set_host_time(CruId(0), c(9));
        m.pin_leaf(CruId(0), SatelliteId(0), Cost::ZERO);
        let sig = SigmaLabels::compute(&t, &m).unwrap();
        assert_eq!(sig.sigma(TreeEdge::Sensor(CruId(0))), c(9));
        assert_eq!(
            host_time_of_cut(&t, &m, &[TreeEdge::Sensor(CruId(0))]),
            c(9)
        );
    }
}
