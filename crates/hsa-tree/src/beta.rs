//! The β (satellite execution + communication time) labelling — paper §5.3.
//!
//! An assignment-graph edge crossing tree edge `⟨i,j⟩` cuts the subtree of
//! `j` off to `j`'s correspondent satellite. Its β weight is
//!
//! ```text
//! β(⟨i,j⟩) = Σ_{m ∈ subtree(j)} s_m  +  c_{j,i}
//! ```
//!
//! — the paper's example: β(⟨CRU3,CRU6⟩) = `s6 + s13 + c_{6,3}`. A virtual
//! sensor edge `⟨A,l⟩` cuts nothing off; only the raw sensor frames cross
//! the link: β(⟨A,l⟩) = `c_{s,l}` (the paper's ⟨A,CRU10⟩ example).

use crate::{CostModel, CruId, CruTree, SatelliteId, TreeEdge, TreeError};
use hsa_graph::Cost;

/// The β label of every closed-tree edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BetaLabels {
    /// β of `Parent(c)`, indexed by `c` (root entry unused, zero).
    pub parent_edge: Vec<Cost>,
    /// β of `Sensor(l)`, indexed by `l` (zero for internal nodes).
    pub sensor_edge: Vec<Cost>,
}

impl BetaLabels {
    /// Computes the labelling after validating `costs` against `tree`:
    /// the entry point for a caller without a pre-order index
    /// ([`BetaLabels::from_preorder`] does the work).
    pub fn compute(tree: &CruTree, costs: &CostModel) -> Result<BetaLabels, TreeError> {
        costs.validate(tree)?;
        let preorder = tree.preorder();
        let size = tree.subtree_sizes(&preorder);
        Ok(BetaLabels::from_preorder(costs, &preorder, &size))
    }

    /// The labelling in one pass over a tree's pre-order index
    /// (`preorder` is [`CruTree::preorder`], `size` its
    /// [`CruTree::subtree_sizes`]; `costs` already validated against the
    /// tree). In reverse pre-order a node comes after its whole subtree,
    /// so its subtree `s` sum is its own `s` plus its children's sums (the
    /// children sit at `pos + 1`, then one subtree size apart): O(n) in
    /// all.
    pub fn from_preorder(costs: &CostModel, preorder: &[CruId], size: &[u32]) -> BetaLabels {
        let (s, up, raw) = (costs.satellite_times(), costs.comm_ups(), costs.comm_raws());
        let n = preorder.len();
        let mut subtree_s = vec![Cost::ZERO; n];
        let mut parent_edge = vec![Cost::ZERO; n];
        let mut sensor_edge = vec![Cost::ZERO; n];
        for (i, &c) in preorder.iter().enumerate().rev() {
            let x = c.index();
            let end = i + size[x] as usize;
            let mut sum = s[x];
            if end == i + 1 {
                sensor_edge[x] = raw[x];
            }
            let mut j = i + 1;
            while j < end {
                let ch = preorder[j].index();
                sum += subtree_s[ch];
                j += size[ch] as usize;
            }
            subtree_s[x] = sum;
            // Position 0 is the root, which has no parent edge.
            if i > 0 {
                parent_edge[x] = sum + up[x];
            }
        }
        BetaLabels {
            parent_edge,
            sensor_edge,
        }
    }

    /// β of a closed-tree edge.
    pub fn beta(&self, e: TreeEdge) -> Cost {
        match e {
            TreeEdge::Parent(c) => self.parent_edge[c.index()],
            TreeEdge::Sensor(l) => self.sensor_edge[l.index()],
        }
    }
}

/// The *oracle*: per-satellite load of a cut, computed directly.
///
/// Satellite σ's load = Σ s over CRUs assigned to it (subtrees below cut
/// `Parent` edges of its colour) + the communication cost of every cut edge
/// of its colour (`c_up` for parent edges, `c_raw` for sensor edges).
/// Returns a vector indexed by satellite id.
pub fn satellite_loads_of_cut(
    tree: &CruTree,
    costs: &CostModel,
    colour_of: impl Fn(TreeEdge) -> Option<SatelliteId>,
    cut: &[TreeEdge],
) -> Vec<Cost> {
    let mut loads = vec![Cost::ZERO; costs.n_satellites() as usize];
    for &e in cut {
        let Some(sat) = colour_of(e) else { continue };
        let slot = &mut loads[sat.index()];
        match e {
            TreeEdge::Parent(c) => {
                for x in tree.subtree(c) {
                    *slot += costs.s(x);
                }
                *slot += costs.c_up(c);
            }
            TreeEdge::Sensor(l) => {
                *slot += costs.c_raw(l);
            }
        }
    }
    loads
}

/// The bottleneck `B` of a cut: the maximum satellite load.
pub fn bottleneck_of_cut(
    tree: &CruTree,
    costs: &CostModel,
    colour_of: impl Fn(TreeEdge) -> Option<SatelliteId>,
    cut: &[TreeEdge],
) -> Cost {
    satellite_loads_of_cut(tree, costs, colour_of, cut)
        .into_iter()
        .fold(Cost::ZERO, Cost::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{cru, fig2_tree, SAT_B, SAT_R};
    use crate::Colouring;

    #[test]
    fn paper_examples() {
        let (t, m) = fig2_tree();
        let b = BetaLabels::compute(&t, &m).unwrap();
        // β(⟨CRU3,CRU6⟩) = s6 + s13 + c_{6,3}
        assert_eq!(
            b.beta(TreeEdge::Parent(cru(6))),
            m.s(cru(6)) + m.s(cru(13)) + m.c_up(cru(6))
        );
        // β(⟨A,CRU10⟩) = c_{s,10}
        assert_eq!(b.beta(TreeEdge::Sensor(cru(10))), m.c_raw(cru(10)));
    }

    #[test]
    fn subtree_sums_accumulate() {
        let (t, m) = fig2_tree();
        let b = BetaLabels::compute(&t, &m).unwrap();
        // β(⟨CRU2,CRU4⟩) = s4 + s9 + s10 + c_up(4).
        assert_eq!(
            b.beta(TreeEdge::Parent(cru(4))),
            m.s(cru(4)) + m.s(cru(9)) + m.s(cru(10)) + m.c_up(cru(4))
        );
        // β of a leaf's parent edge = its own s + c_up.
        assert_eq!(
            b.beta(TreeEdge::Parent(cru(9))),
            m.s(cru(9)) + m.c_up(cru(9))
        );
    }

    #[test]
    fn satellite_loads_direct_oracle() {
        let (t, m) = fig2_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        let colour_of = |e: TreeEdge| col.edge_colour(e).satellite();
        // Cut subtree(CRU4) → R and subtree(CRU6) → B; CRU5's leaves raw;
        // CRU7, CRU8 raw.
        let cut = [
            TreeEdge::Parent(cru(4)),
            TreeEdge::Sensor(cru(11)),
            TreeEdge::Sensor(cru(12)),
            TreeEdge::Parent(cru(6)),
            TreeEdge::Sensor(cru(7)),
            TreeEdge::Sensor(cru(8)),
        ];
        let loads = satellite_loads_of_cut(&t, &m, colour_of, &cut);
        // R: s4+s9+s10 + c_up(4)
        assert_eq!(
            loads[SAT_R.index()],
            m.s(cru(4)) + m.s(cru(9)) + m.s(cru(10)) + m.c_up(cru(4))
        );
        // B: raw(11) + raw(12) + (s6+s13+c_up(6))
        assert_eq!(
            loads[SAT_B.index()],
            m.c_raw(cru(11)) + m.c_raw(cru(12)) + m.s(cru(6)) + m.s(cru(13)) + m.c_up(cru(6))
        );
        let bott = bottleneck_of_cut(&t, &m, colour_of, &cut);
        assert_eq!(bott, loads.iter().copied().fold(Cost::ZERO, Cost::max));
    }

    #[test]
    fn beta_labels_match_oracle_on_singleton_cuts() {
        let (t, m) = fig2_tree();
        let col = Colouring::compute(&t, &m).unwrap();
        let b = BetaLabels::compute(&t, &m).unwrap();
        let colour_of = |e: TreeEdge| col.edge_colour(e).satellite();
        // For any single cuttable parent edge, β(edge) equals the load it
        // induces on its own satellite.
        for k in [4u32, 5, 6, 7, 8, 9, 13] {
            let e = TreeEdge::Parent(cru(k));
            if let Some(sat) = colour_of(e) {
                let loads = satellite_loads_of_cut(&t, &m, colour_of, &[e]);
                assert_eq!(loads[sat.index()], b.beta(e), "edge {e}");
            }
        }
    }

    #[test]
    fn root_parent_edge_is_zero() {
        let (t, m) = fig2_tree();
        let b = BetaLabels::compute(&t, &m).unwrap();
        assert_eq!(b.beta(TreeEdge::Parent(t.root())), Cost::ZERO);
        assert_eq!(b.beta(TreeEdge::Sensor(cru(2))), Cost::ZERO); // internal
    }
}
