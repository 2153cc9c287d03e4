//! Incremental invalidation: which per-colour frontiers does a cost-model
//! perturbation actually dirty?
//!
//! The λ-independent preparation of the full-expansion solver
//! ([`crate::FrontierSet`]) decomposes by colour: satellite `s`'s Pareto
//! frontier is a function of **only**
//!
//! 1. the set of `s`-coloured *top nodes* (uniformly coloured nodes whose
//!    parent edge is conflicted or absent — their subtrees are `s`'s
//!    regions), and
//! 2. the σ/β labels of the closed-tree edges *inside* those regions
//!    (`Parent(x)` for every region node `x`, `Sensor(l)` for every region
//!    leaf `l`).
//!
//! So after a [`hsa_tree::Delta`] is applied and the (cheap, O(n)) labels
//! are re-derived, comparing those two ingredients per colour yields the
//! exact set of frontiers that must be rebuilt; everything else can be
//! reused verbatim ([`crate::FrontierSet::refresh_in_place`]). This module
//! computes that diff. It deliberately diffs *observed labels* rather than
//! interpreting delta ops: a σ change propagates down leftmost-descendant
//! chains and a β change up ancestor chains, and chasing either by hand is
//! exactly the kind of cleverness that rots — the label diff is O(n),
//! total, and correct for any perturbation, including ones that turn out
//! to be no-ops (which dirty nothing).
//!
//! See DESIGN.md §9 for the full invalidation model and for
//! `hsa-engine::Session`, which rebuilds exactly the colours this diff
//! flags.

use crate::Prepared;
use hsa_tree::{BetaLabels, Colour, Colouring, SigmaLabels};

/// The per-colour dirtiness verdict for an instance update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtyColours {
    /// One flag per satellite: `true` when its frontier must be rebuilt.
    pub dirty: Vec<bool>,
}

impl DirtyColours {
    /// Number of dirty colours.
    pub fn count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }
}

/// Compares two label sets over the **same tree** and returns, per colour,
/// whether its frontier regions changed.
///
/// Single allocation-free pass over the nodes (this sits on the hot path
/// of every `Session::apply`):
///
/// * a node whose **colour changed** dirties both its old and its new
///   colour — this covers every top-node (region-shape) change, because a
///   region can only appear, vanish or move when some node's colour (or
///   its parent's conflict status, itself a colour) flips;
/// * a node whose colour is `Satellite(s)` — i.e. a node inside one of
///   `s`'s regions — dirties `s` when the σ or β label of its parent edge
///   (or sensor edge, for leaves) changed, since exactly those edges feed
///   `s`'s cover DP.
pub fn dirty_colours_of_labels(
    tree: &hsa_tree::CruTree,
    n_satellites: u32,
    old: (&Colouring, &SigmaLabels, &BetaLabels),
    new: (&Colouring, &SigmaLabels, &BetaLabels),
) -> DirtyColours {
    let (old_col, old_sigma, old_beta) = old;
    let (new_col, new_sigma, new_beta) = new;
    let mut dirty = vec![false; n_satellites as usize];
    let mark = |c: Colour, dirty: &mut Vec<bool>| {
        if let Colour::Satellite(s) = c {
            if let Some(slot) = dirty.get_mut(s.index()) {
                *slot = true;
            }
        }
    };
    for i in 0..tree.len() {
        let (oc, nc) = (old_col.node_colour[i], new_col.node_colour[i]);
        if oc != nc {
            mark(oc, &mut dirty);
            mark(nc, &mut dirty);
            continue;
        }
        let Colour::Satellite(s) = nc else { continue };
        if let Some(slot) = dirty.get_mut(s.index()) {
            // An internal node's sensor labels and the root's parent
            // labels are zero on both sides, so comparing both edges of
            // every node compares exactly the edges that exist.
            *slot = *slot
                || old_sigma.parent_edge[i] != new_sigma.parent_edge[i]
                || old_beta.parent_edge[i] != new_beta.parent_edge[i]
                || old_sigma.sensor_edge[i] != new_sigma.sensor_edge[i]
                || old_beta.sensor_edge[i] != new_beta.sensor_edge[i];
        }
    }
    DirtyColours { dirty }
}

/// Compares two preparations of the **same tree** and returns, per colour,
/// whether its frontier regions changed (top-node set, or any σ/β label on
/// an edge inside a region). See [`dirty_colours_of_labels`].
///
/// `old` and `new` must share the tree topology; when the satellite count
/// or tree size differs, every colour of `new` is conservatively dirty.
pub fn dirty_colours(old: &Prepared<'_>, new: &Prepared<'_>) -> DirtyColours {
    let n = new.n_satellites() as usize;
    if old.n_satellites() != new.n_satellites() || old.tree.len() != new.tree.len() {
        return DirtyColours {
            dirty: vec![true; n],
        };
    }
    dirty_colours_of_labels(
        &new.tree,
        new.n_satellites(),
        (&old.colouring, &old.sigma, &old.beta),
        (&new.colouring, &new.sigma, &new.beta),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_with_frontiers, ExpandedConfig, FrontierSet};
    use hsa_graph::{Cost, Lambda};
    use hsa_tree::figures::fig2_tree;
    use hsa_tree::{Colour, Delta};

    fn prepare_pair(delta: &Delta) -> (Prepared<'static>, Prepared<'static>) {
        let (tree, costs) = fig2_tree();
        let mut drifted = costs.clone();
        delta.apply(&tree, &mut drifted).unwrap();
        (
            Prepared::new_owned(tree.clone(), costs).unwrap(),
            Prepared::new_owned(tree, drifted).unwrap(),
        )
    }

    #[test]
    fn identical_instances_are_clean() {
        let (old, new) = prepare_pair(&Delta::new());
        let d = dirty_colours(&old, &new);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn leaf_satellite_time_dirties_its_own_colour_chain() {
        let (tree, costs) = fig2_tree();
        let leaf = *tree.leaves_in_order().first().unwrap();
        let sat = costs.pinned_satellite(leaf).unwrap();
        let bumped = Delta::new().set_satellite_time(leaf, costs.s(leaf) + Cost::new(50));
        let (old, new) = prepare_pair(&bumped);
        let d = dirty_colours(&old, &new);
        assert!(d.dirty[sat.index()], "the leaf's own colour must be dirty");
        assert!(d.count() < d.dirty.len(), "not everything is dirty");
    }

    #[test]
    fn host_forced_host_time_change_can_leave_all_colours_clean() {
        // Bumping h of a *conflicted* node changes σ only on edges of the
        // leftmost-descendant chain below it; if that chain stays within
        // conflicted nodes until it enters a region, the entered colour is
        // dirty — assert the diff matches a brute-force frontier compare.
        let (tree, costs) = fig2_tree();
        let root = tree.root();
        let bump = Delta::new().set_host_time(root, costs.h(root) + Cost::new(7));
        let (old, new) = prepare_pair(&bump);
        let d = dirty_colours(&old, &new);
        let cfg = ExpandedConfig::default();
        let old_fs = FrontierSet::prepare(&old, &cfg).unwrap();
        let new_fs = FrontierSet::prepare(&new, &cfg).unwrap();
        for s in 0..d.dirty.len() {
            if !d.dirty[s] {
                assert_eq!(
                    old_fs.colour(s),
                    new_fs.colour(s),
                    "colour {s} marked clean but its frontier changed"
                );
            }
        }
    }

    #[test]
    fn repin_dirties_both_source_and_target_colours() {
        let (tree, costs) = fig2_tree();
        let leaf = *tree.leaves_in_order().first().unwrap();
        let from = costs.pinned_satellite(leaf).unwrap();
        let to = hsa_tree::SatelliteId((from.0 + 1) % costs.n_satellites());
        let (old, new) = prepare_pair(&Delta::new().repin(leaf, to));
        let d = dirty_colours(&old, &new);
        assert!(d.dirty[from.index()], "losing colour must be dirty");
        assert!(d.dirty[to.index()], "gaining colour must be dirty");
    }

    #[test]
    fn refresh_equals_scratch_on_drifted_instances() {
        // The end-to-end contract at this layer: refresh(dirty diff) must
        // be indistinguishable from a from-scratch prepare — frontiers,
        // thetas, composites, and the solutions they produce.
        let (tree, costs) = fig2_tree();
        let cfg = ExpandedConfig::default();
        let leaves = tree.leaves_in_order();
        let deltas = [
            Delta::new(),
            Delta::new().set_satellite_time(leaves[0], Cost::new(400)),
            Delta::new().scale_subtree(tree.children(tree.root())[0], 5, 4),
            Delta::new().repin(leaves[1], hsa_tree::SatelliteId(0)),
            Delta::new().scale_satellite(hsa_tree::SatelliteId(2), 3, 1),
            Delta::new().set_comm_raw(leaves[2], Cost::new(999)),
        ];
        let mut current = costs;
        let mut prep = Prepared::new_owned(tree.clone(), current.clone()).unwrap();
        let mut fs = FrontierSet::prepare(&prep, &cfg).unwrap();
        for (i, delta) in deltas.iter().enumerate() {
            delta.apply(&tree, &mut current).unwrap();
            let next = Prepared::new_owned(tree.clone(), current.clone()).unwrap();
            let d = dirty_colours(&prep, &next);
            fs.refresh_in_place(&next, &cfg, &d.dirty).unwrap();
            let scratch = FrontierSet::prepare(&next, &cfg).unwrap();
            assert_eq!(fs.to_nested(), scratch.to_nested(), "step {i}");
            assert_eq!(fs.thetas(), scratch.thetas(), "step {i}");
            assert_eq!(fs.composites, scratch.composites, "step {i}");
            assert_eq!(fs, scratch, "step {i}: arenas must match exactly");
            let a = solve_with_frontiers(&next, &fs, Lambda::HALF).unwrap();
            let b = solve_with_frontiers(&next, &scratch, Lambda::HALF).unwrap();
            assert_eq!(a.objective, b.objective, "step {i}");
            assert_eq!(a.cut, b.cut, "step {i}");
            prep = next;
        }
    }

    #[test]
    fn platform_shape_changes_are_conservatively_all_dirty() {
        let (tree, costs) = fig2_tree();
        let mut fewer = costs.clone();
        fewer.set_n_satellites(fewer.n_satellites() + 1); // platform grew: ids shifted semantics
        let old = Prepared::new_owned(tree.clone(), costs).unwrap();
        let new = Prepared::new_owned(tree, fewer).unwrap();
        let d = dirty_colours(&old, &new);
        assert_eq!(d.count(), d.dirty.len());
    }

    #[test]
    fn fig2_has_multiple_colours_so_partial_dirt_is_meaningful() {
        let (tree, costs) = fig2_tree();
        let prep = Prepared::new_owned(tree, costs).unwrap();
        let used = prep
            .colouring
            .node_colour
            .iter()
            .filter_map(|c| match c {
                Colour::Satellite(s) => Some(*s),
                Colour::Conflict => None,
            })
            .collect::<std::collections::BTreeSet<_>>();
        assert!(used.len() >= 3, "paper instance uses several satellites");
    }
}
