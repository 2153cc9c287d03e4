//! Canonical reconstruction of the paper's worked example (Figures 2, 5, 8).
//!
//! The 2007 scan is OCR-damaged, so the exact Figure 2 topology is partly
//! unrecoverable; this module reconstructs a 13-CRU tree that satisfies
//! **every** constraint the surviving text states:
//!
//! * CRU1 is the root with children CRU2 and CRU3, and the colour
//!   propagation conflicts exactly on ⟨CRU1,CRU2⟩ and ⟨CRU1,CRU3⟩, forcing
//!   {CRU1, CRU2, CRU3} onto the host (Figure 5);
//! * ⟨CRU3,CRU6⟩ separates the subtree {CRU6, CRU13}, so its β weight is
//!   `s6 + s13 + c_{6,3}` (§5.3's first example);
//! * CRU10's raw-data edge ⟨A,CRU10⟩ has β = `c_{s,10}` (§5.3's second
//!   example);
//! * the σ labels of Figure 8 appear verbatim: `h1+h2` on ⟨CRU2,CRU4⟩,
//!   `h1+h2+h4+h9` on CRU9's sensor edge, `h10` on CRU10's, `h3+h6+h13` on
//!   CRU13's, `h7`/`h8` on CRU7/CRU8's;
//! * one satellite (B) serves sensors from two different subtrees — the
//!   paper's "some sensors are physically linked to the same satellite"
//!   (we read "the sensors connected to CRU5" as the sensors feeding
//!   CRU5's subtree, since Figure 8 gives CRU5 children CRU11/CRU12).
//!
//! Topology (paper ids; arena id = paper id − 1, see [`cru`]):
//!
//! ```text
//!                         CRU1
//!                 ┌────────┴────────┐
//!               CRU2              CRU3
//!             ┌───┴───┐       ┌────┼─────┐
//!           CRU4    CRU5    CRU6  CRU7  CRU8
//!          ┌─┴─┐   ┌─┴─┐      │
//!        CRU9 CRU10 CRU11 CRU12 CRU13
//!         (R)  (R)  (B)  (B)   (B)  (Y)  (G)
//! ```
//!
//! Satellites: R = `Sat0`, Y = `Sat1`, B = `Sat2`, G = `Sat3`. Leaf order is
//! [9, 10, 11, 12, 13, 7, 8]; colour bands are R·R | B·B·B | Y | G (all
//! contiguous — the interleaved regime is exercised by dedicated instances
//! elsewhere in the test-suite).

use crate::{CostModel, CruId, CruTree, SatelliteId, TreeBuilder};
use hsa_graph::Cost;

/// Maps a paper CRU number (1-based) to the arena id used by
/// [`fig2_tree`].
pub const fn cru(paper_id: u32) -> CruId {
    CruId(paper_id - 1)
}

/// Satellite "R" (Red).
pub const SAT_R: SatelliteId = SatelliteId(0);
/// Satellite "Y" (Yellow).
pub const SAT_Y: SatelliteId = SatelliteId(1);
/// Satellite "B" (Blue).
pub const SAT_B: SatelliteId = SatelliteId(2);
/// Satellite "G" (Green).
pub const SAT_G: SatelliteId = SatelliteId(3);

/// Builds the canonical Figure 2 tree with a deterministic cost model.
///
/// Costs are small distinct integers chosen so that every labelling test
/// can assert exact values: `h_k = 10 + k`, `s_k = 20 + 2k`,
/// `c_up(k) = 5 + k`, `c_raw(leaf) = 30 + leaf`.
pub fn fig2_tree() -> (CruTree, CostModel) {
    let mut b = TreeBuilder::new("CRU1");
    let c1 = b.root();
    // Breadth-first additions keep arena id = paper id − 1.
    let c2 = b.add_child(c1, "CRU2");
    let c3 = b.add_child(c1, "CRU3");
    let c4 = b.add_child(c2, "CRU4");
    let c5 = b.add_child(c2, "CRU5");
    let c6 = b.add_child(c3, "CRU6");
    let c7 = b.add_child(c3, "CRU7");
    let c8 = b.add_child(c3, "CRU8");
    let c9 = b.add_child(c4, "CRU9");
    let c10 = b.add_child(c4, "CRU10");
    let c11 = b.add_child(c5, "CRU11");
    let c12 = b.add_child(c5, "CRU12");
    let c13 = b.add_child(c6, "CRU13");
    let tree = b.build();

    debug_assert_eq!(c9, cru(9));
    debug_assert_eq!(c13, cru(13));

    let mut m = CostModel::zeroed(&tree, 4);
    for k in 1..=13u32 {
        let id = cru(k);
        m.set_host_time(id, Cost::new(10 + k as u64));
        m.set_satellite_time(id, Cost::new(20 + 2 * k as u64));
        if k != 1 {
            m.set_comm_up(id, Cost::new(5 + k as u64));
        }
    }
    for (leaf, sat) in [
        (c9, SAT_R),
        (c10, SAT_R),
        (c11, SAT_B),
        (c12, SAT_B),
        (c13, SAT_B),
        (c7, SAT_Y),
        (c8, SAT_G),
    ] {
        let raw = Cost::new(30 + leaf.0 as u64 + 1);
        m.pin_leaf(leaf, sat, raw);
    }
    debug_assert!(m.validate(&tree).is_ok());
    (tree, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Colour, Colouring, TreeEdge};

    #[test]
    fn topology_matches_the_paper() {
        let (t, _) = fig2_tree();
        assert_eq!(t.len(), 13);
        assert_eq!(t.root(), cru(1));
        assert_eq!(t.children(cru(1)), &[cru(2), cru(3)]);
        assert_eq!(t.children(cru(2)), &[cru(4), cru(5)]);
        assert_eq!(t.children(cru(3)), &[cru(6), cru(7), cru(8)]);
        assert_eq!(t.children(cru(6)), &[cru(13)]);
        let leaves: Vec<u32> = t.leaves_in_order().iter().map(|c| c.0 + 1).collect();
        assert_eq!(leaves, vec![9, 10, 11, 12, 13, 7, 8]);
    }

    #[test]
    fn figure5_colouring_forces_cru1_2_3_onto_the_host() {
        let (t, m) = fig2_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        let forced: Vec<u32> = col.host_forced.iter().map(|c| c.0 + 1).collect();
        assert_eq!(forced, vec![1, 2, 3]);
        // Subtree colours named in the figure.
        assert_eq!(col.node_colour[cru(4).index()], Colour::Satellite(SAT_R));
        assert_eq!(col.node_colour[cru(5).index()], Colour::Satellite(SAT_B));
        assert_eq!(col.node_colour[cru(6).index()], Colour::Satellite(SAT_B));
        assert_eq!(col.node_colour[cru(7).index()], Colour::Satellite(SAT_Y));
        assert_eq!(col.node_colour[cru(8).index()], Colour::Satellite(SAT_G));
        assert_eq!(col.node_colour[cru(2).index()], Colour::Conflict);
        assert_eq!(col.node_colour[cru(3).index()], Colour::Conflict);
    }

    #[test]
    fn satellite_b_serves_two_subtrees() {
        let (t, m) = fig2_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        // B colours ⟨CRU2,CRU5⟩ (under CRU2) and ⟨CRU3,CRU6⟩ (under CRU3).
        assert_eq!(
            col.edge_colour(TreeEdge::Parent(cru(5))),
            Colour::Satellite(SAT_B)
        );
        assert_eq!(
            col.edge_colour(TreeEdge::Parent(cru(6))),
            Colour::Satellite(SAT_B)
        );
        // …in two different subtrees, but contiguous in leaf order:
        assert_ne!(t.parent(cru(5)), t.parent(cru(6)));
        assert!(col.is_contiguous());
    }

    #[test]
    fn costs_are_fully_populated() {
        let (t, m) = fig2_tree();
        m.validate(&t).unwrap();
        assert_eq!(m.h(cru(1)), Cost::new(11));
        assert_eq!(m.s(cru(13)), Cost::new(46));
        assert_eq!(m.c_up(cru(6)), Cost::new(11));
        assert_eq!(m.c_up(cru(1)), Cost::ZERO);
    }
}
