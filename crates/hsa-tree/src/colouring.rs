//! The colouring scheme of paper §5.1.
//!
//! Each satellite is painted a distinguishable colour. Each edge of the CRU
//! tree is painted by *propagating* the colour of the satellites its
//! subtree's sensors are pinned to, towards the root. Where the propagated
//! colours conflict (a subtree touches ≥ 2 satellites), the edge is
//! **conflicted**: it can never be cut, which is exactly the paper's
//! statement that the CRUs above it "have to be deployed on the host"
//! (CRU1–CRU3 in the paper's Figure 5).
//!
//! Beyond the paper, this module computes the **band structure** of the
//! leaf colour sequence — the maximal runs of equal colour in planar leaf
//! order. Bands drive the expansion step of the adapted SSB algorithm
//! (paper Figure 9) and the detection of *interleaved* colours, where the
//! paper's contiguous expansion alone is insufficient (see DESIGN.md §2).

use crate::{CostModel, CruId, CruTree, SatelliteId, TreeEdge, TreeError};
use serde::{Deserialize, Serialize};

/// Colour of a node/edge after propagation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Colour {
    /// Subtree's sensors all live on one satellite.
    Satellite(SatelliteId),
    /// Subtree touches two or more satellites: host-forced.
    Conflict,
}

impl Colour {
    /// The satellite, if uniquely coloured.
    pub fn satellite(self) -> Option<SatelliteId> {
        match self {
            Colour::Satellite(s) => Some(s),
            Colour::Conflict => None,
        }
    }
}

/// A maximal run of consecutive equally-coloured leaves (in planar order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Band {
    /// The satellite colouring this band.
    pub satellite: SatelliteId,
    /// First leaf position (inclusive).
    pub lo: u32,
    /// Last leaf position (exclusive).
    pub hi: u32,
}

/// Result of colouring a costed CRU tree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Colouring {
    /// Colour per node (indexed by CRU id): the colour of its subtree, i.e.
    /// of its *parent* edge in the paper's edge-painting.
    pub node_colour: Vec<Colour>,
    /// CRUs that must run on the host (conflicted nodes plus the root).
    pub host_forced: Vec<CruId>,
    /// Satellite of each leaf position, in planar leaf order.
    pub leaf_colours: Vec<SatelliteId>,
    /// Maximal same-colour runs of `leaf_colours`.
    pub bands: Vec<Band>,
    /// Satellites that occupy ≥ 2 disjoint bands: for these the contiguous
    /// expansion of the paper's Figure 9 cannot couple all their cut edges.
    pub interleaved: Vec<SatelliteId>,
}

impl Colouring {
    /// Computes the colouring of `tree` under `costs`' sensor pinning,
    /// after validating `costs` against `tree`: the entry point for a
    /// caller without a pre-order index ([`Colouring::from_preorder`] does
    /// the work).
    pub fn compute(tree: &CruTree, costs: &CostModel) -> Result<Colouring, TreeError> {
        costs.validate(tree)?;
        let preorder = tree.preorder();
        let size = tree.subtree_sizes(&preorder);
        Ok(Colouring::from_preorder(costs, &preorder, &size))
    }

    /// The colouring from flat passes over a tree's pre-order index:
    /// `preorder` is [`CruTree::preorder`] and `size` its
    /// [`CruTree::subtree_sizes`]. `costs` must already be validated
    /// against that tree ([`CostModel::validate`]); this pass does not
    /// check it again.
    ///
    /// In reverse pre-order a node comes after its whole subtree, so one
    /// pass colours bottom-up: a leaf (`size == 1`) takes its pinned
    /// satellite, an internal node its children's common colour or
    /// `Conflict` (its children sit at `pos + 1`, then one subtree size
    /// apart). The same pass meets the leaves right to left. A pre-order
    /// pass then lists the host-forced nodes: the root (`preorder[0]`) and
    /// every conflicted node.
    pub fn from_preorder(costs: &CostModel, preorder: &[CruId], size: &[u32]) -> Colouring {
        let pin = costs.pinnings();
        let mut node_colour = vec![Colour::Conflict; preorder.len()];
        let mut leaf_colours: Vec<SatelliteId> = Vec::new();
        for (i, &c) in preorder.iter().enumerate().rev() {
            let end = i + size[c.index()] as usize;
            node_colour[c.index()] = if end == i + 1 {
                let s = pin[c.index()].expect("a validated cost model pins every leaf");
                leaf_colours.push(s);
                Colour::Satellite(s)
            } else {
                let first = node_colour[preorder[i + 1].index()];
                let mut j = i + 1;
                while j < end && node_colour[preorder[j].index()] == first {
                    j += size[preorder[j].index()] as usize;
                }
                if j == end {
                    first
                } else {
                    Colour::Conflict
                }
            };
        }
        leaf_colours.reverse();

        let host_forced: Vec<CruId> = preorder
            .iter()
            .copied()
            .filter(|&c| c == preorder[0] || node_colour[c.index()] == Colour::Conflict)
            .collect();

        let bands = bands_of(&leaf_colours);
        let mut band_count = vec![0u32; costs.n_satellites() as usize];
        for b in &bands {
            band_count[b.satellite.index()] += 1;
        }
        let interleaved = band_count
            .iter()
            .enumerate()
            .filter(|(_, &n)| n >= 2)
            .map(|(i, _)| SatelliteId(i as u32))
            .collect();

        Colouring {
            node_colour,
            host_forced,
            leaf_colours,
            bands,
            interleaved,
        }
    }

    /// Colour of a closed-tree edge: both `Parent(c)` and `Sensor(c)` carry
    /// the colour propagated through `c` (a sensor edge's "subtree" is the
    /// leaf's own sensors). Conflicted edges may never be cut.
    pub fn edge_colour(&self, e: TreeEdge) -> Colour {
        match e {
            TreeEdge::Parent(c) => self.node_colour[c.index()],
            // A leaf's own colour is always a concrete satellite.
            TreeEdge::Sensor(l) => self.node_colour[l.index()],
        }
    }

    /// Whether an edge may appear in a cut (non-conflicted).
    pub fn cuttable(&self, e: TreeEdge) -> bool {
        self.edge_colour(e) != Colour::Conflict
    }

    /// True when every satellite occupies a single contiguous band — the
    /// regime where the paper's contiguous expansion is complete.
    pub fn is_contiguous(&self) -> bool {
        self.interleaved.is_empty()
    }
}

fn bands_of(leaf_colours: &[SatelliteId]) -> Vec<Band> {
    let mut bands: Vec<Band> = Vec::new();
    for (i, &s) in leaf_colours.iter().enumerate() {
        match bands.last_mut() {
            Some(b) if b.satellite == s && b.hi == i as u32 => b.hi += 1,
            _ => bands.push(Band {
                satellite: s,
                lo: i as u32,
                hi: i as u32 + 1,
            }),
        }
    }
    bands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;
    use hsa_graph::Cost;

    /// root ── a ── (l1→Sat0, l2→Sat0)
    ///      └─ b ── (l3→Sat1)
    fn two_sat_tree() -> (CruTree, CostModel) {
        let mut b = TreeBuilder::new("root");
        let root = b.root();
        let a = b.add_child(root, "a");
        let l1 = b.add_child(a, "l1");
        let l2 = b.add_child(a, "l2");
        let bb = b.add_child(root, "b");
        let l3 = b.add_child(bb, "l3");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 2);
        m.pin_leaf(l1, SatelliteId(0), Cost::ZERO);
        m.pin_leaf(l2, SatelliteId(0), Cost::ZERO);
        m.pin_leaf(l3, SatelliteId(1), Cost::ZERO);
        (t, m)
    }

    #[test]
    fn propagation_and_conflicts() {
        let (t, m) = two_sat_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        // a's subtree is pure Sat0; b's is pure Sat1; root conflicts.
        assert_eq!(col.node_colour[1], Colour::Satellite(SatelliteId(0)));
        assert_eq!(col.node_colour[4], Colour::Satellite(SatelliteId(1)));
        assert_eq!(col.node_colour[0], Colour::Conflict);
        assert_eq!(col.host_forced, vec![CruId(0)]);
        assert!(col.cuttable(TreeEdge::Parent(CruId(1))));
        assert!(!col.cuttable(TreeEdge::Parent(CruId(0)))); // root edge is conflicted by id 0
    }

    #[test]
    fn single_satellite_never_conflicts() {
        let mut b = TreeBuilder::new("root");
        let root = b.root();
        let a = b.add_child(root, "a");
        let l1 = b.add_child(a, "l1");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 1);
        m.pin_leaf(l1, SatelliteId(0), Cost::ZERO);
        let col = Colouring::compute(&t, &m).unwrap();
        // Whole tree colourable: only the root is host-forced (by policy).
        assert_eq!(col.host_forced, vec![CruId(0)]);
        assert_eq!(col.node_colour[0], Colour::Satellite(SatelliteId(0)));
        assert!(col.is_contiguous());
    }

    #[test]
    fn bands_contiguous_case() {
        let (t, m) = two_sat_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        assert_eq!(col.bands.len(), 2);
        assert_eq!(
            col.bands[0],
            Band {
                satellite: SatelliteId(0),
                lo: 0,
                hi: 2
            }
        );
        assert_eq!(
            col.bands[1],
            Band {
                satellite: SatelliteId(1),
                lo: 2,
                hi: 3
            }
        );
        assert!(col.is_contiguous());
        assert!(col.interleaved.is_empty());
    }

    /// Leaves pinned 0,1,0 — satellite 0 occupies two bands.
    #[test]
    fn interleaving_is_detected() {
        let mut b = TreeBuilder::new("root");
        let root = b.root();
        let l1 = b.add_child(root, "l1");
        let l2 = b.add_child(root, "l2");
        let l3 = b.add_child(root, "l3");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 2);
        m.pin_leaf(l1, SatelliteId(0), Cost::ZERO);
        m.pin_leaf(l2, SatelliteId(1), Cost::ZERO);
        m.pin_leaf(l3, SatelliteId(0), Cost::ZERO);
        let col = Colouring::compute(&t, &m).unwrap();
        assert_eq!(col.bands.len(), 3);
        assert_eq!(col.interleaved, vec![SatelliteId(0)]);
        assert!(!col.is_contiguous());
    }

    #[test]
    fn conflict_propagates_to_ancestors_only() {
        // root ── x ── (a: Sat0, b: Sat1)   → x and root conflicted
        //      └─ c: Sat0                    → c clean
        let mut b = TreeBuilder::new("root");
        let root = b.root();
        let x = b.add_child(root, "x");
        let a = b.add_child(x, "a");
        let bb = b.add_child(x, "b");
        let c = b.add_child(root, "c");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 2);
        m.pin_leaf(a, SatelliteId(0), Cost::ZERO);
        m.pin_leaf(bb, SatelliteId(1), Cost::ZERO);
        m.pin_leaf(c, SatelliteId(0), Cost::ZERO);
        let col = Colouring::compute(&t, &m).unwrap();
        assert_eq!(col.node_colour[x.index()], Colour::Conflict);
        assert_eq!(col.node_colour[root.index()], Colour::Conflict);
        assert_eq!(
            col.node_colour[c.index()],
            Colour::Satellite(SatelliteId(0))
        );
        assert_eq!(col.host_forced, vec![CruId(0), x]);
    }

    #[test]
    fn sensor_edges_carry_leaf_colour() {
        let (t, m) = two_sat_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        assert_eq!(
            col.edge_colour(TreeEdge::Sensor(CruId(2))),
            Colour::Satellite(SatelliteId(0))
        );
        assert_eq!(
            col.edge_colour(TreeEdge::Sensor(CruId(5))),
            Colour::Satellite(SatelliteId(1))
        );
    }

    #[test]
    fn unpinned_leaf_fails() {
        let (t, mut m) = two_sat_tree();
        m.set_pinning(CruId(2), None);
        assert!(Colouring::compute(&t, &m).is_err());
    }
}
