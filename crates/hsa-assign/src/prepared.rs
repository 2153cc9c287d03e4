//! A fully labelled, coloured problem instance shared by all solvers.

use crate::{AssignError, AssignmentGraph};
use hsa_tree::{BetaLabels, Colour, Colouring, CostModel, CruId, CruTree, SigmaLabels};
use std::borrow::Cow;
use std::sync::OnceLock;

/// The **top nodes** of every colour in CSR form: uniformly coloured nodes
/// whose parent is conflicted (or absent), colour-major, pre-order within
/// each colour. Their subtrees partition all satellite-bound work — the
/// per-colour frontiers of the full-expansion solver are Minkowski sums
/// over exactly these regions, and the incremental re-solver's
/// invalidation unit ([`crate::dirty_colours`]) is defined over the same
/// regions. Computed once per preparation so every frontier (re)build
/// starts from the cached region roots instead of re-scanning the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColourTops {
    /// Region roots, colour-major (colour `s`'s tops are contiguous).
    tops: Vec<CruId>,
    /// Colour `s`'s tops occupy `tops[starts[s]..starts[s+1]]`.
    starts: Vec<u32>,
}

impl ColourTops {
    /// One pre-order walk over the index: a uniformly coloured node met on
    /// the walk is a top (its parent, if any, is conflicted, or the walk
    /// would have jumped past it), and the walk then jumps over its
    /// subtree, whose nodes all share its colour. A counting sort by colour
    /// keeps pre-order within each colour.
    fn compute(colouring: &Colouring, eval: &EvalIndex, n_satellites: u32) -> ColourTops {
        let n = n_satellites as usize;
        let mut pairs: Vec<(u32, CruId)> = Vec::new();
        let mut i = 0;
        while i < eval.preorder.len() {
            let c = eval.preorder[i];
            match colouring.node_colour[c.index()] {
                Colour::Satellite(s) => {
                    pairs.push((s.index() as u32, c));
                    i += eval.size[c.index()] as usize;
                }
                Colour::Conflict => i += 1,
            }
        }
        let mut starts = vec![0u32; n + 1];
        for &(s, _) in &pairs {
            starts[s as usize + 1] += 1;
        }
        for s in 0..n {
            let carry = starts[s];
            starts[s + 1] += carry;
        }
        let mut cursor = starts.clone();
        let mut tops = vec![CruId(0); pairs.len()];
        for (s, c) in pairs {
            tops[cursor[s as usize] as usize] = c;
            cursor[s as usize] += 1;
        }
        ColourTops { tops, starts }
    }

    /// Number of colours covered.
    pub fn n_colours(&self) -> usize {
        self.starts.len() - 1
    }

    /// Colour `s`'s region roots, in pre-order.
    pub fn of(&self, s: usize) -> &[CruId] {
        &self.tops[self.starts[s] as usize..self.starts[s + 1] as usize]
    }
}

/// The pre-order index of the tree, computed once per preparation so the
/// per-answer evaluation ([`crate::evaluate_cut_in`]) can turn a cut edge
/// into the contiguous pre-order *range* of its below-subtree instead of
/// re-walking the tree: in a pre-order traversal the subtree of `c`
/// occupies exactly `preorder[pos[c] .. pos[c] + size[c]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalIndex {
    /// All CRUs in pre-order (root first, subtrees left to right).
    pub preorder: Vec<CruId>,
    /// `pos[c]` — position of `c` in [`EvalIndex::preorder`].
    pub pos: Vec<u32>,
    /// `size[c]` — number of nodes in the subtree of `c` (incl. `c`).
    pub size: Vec<u32>,
}

impl EvalIndex {
    fn compute(tree: &CruTree) -> EvalIndex {
        let preorder = tree.preorder();
        let mut pos = vec![0u32; tree.len()];
        for (i, &c) in preorder.iter().enumerate() {
            pos[c.index()] = i as u32;
        }
        let size = tree.subtree_sizes(&preorder);
        EvalIndex {
            preorder,
            pos,
            size,
        }
    }
}

/// Everything the solvers need, computed once per instance:
/// colouring (§5.1), σ/β labels (§5.3), the colour regions and the
/// pre-order index — plus the coloured assignment graph (§5.2), which is
/// built on the first [`Prepared::graph`] call: only the paper's own
/// solver ([`crate::PaperSsb`]) and the graph figures walk it, so the
/// frontier solvers, the batch engine and drifting sessions never pay
/// for it.
///
/// The tree and cost model are held as [`Cow`]s: [`Prepared::new`] borrows
/// the caller's instance (zero-copy, the common one-shot case), while
/// [`Prepared::new_owned`] produces a self-contained `Prepared<'static>`
/// that batch services (the `hsa-engine` crate) can cache and share across
/// queries without rebuilding or re-labelling anything.
#[derive(Clone, Debug)]
pub struct Prepared<'a> {
    /// The CRU tree.
    pub tree: Cow<'a, CruTree>,
    /// Its cost model.
    pub costs: Cow<'a, CostModel>,
    /// The §5.1 colouring.
    pub colouring: Colouring,
    /// The Figure 8 σ labelling.
    pub sigma: SigmaLabels,
    /// The §5.3 β labelling.
    pub beta: BetaLabels,
    /// The per-colour region roots (CSR), fed to every frontier build.
    pub tops: ColourTops,
    /// The pre-order index powering the walk-free answer path.
    pub eval: EvalIndex,
    /// The coloured assignment graph, once [`Prepared::graph`] built it for
    /// the current labels.
    graph: OnceLock<AssignmentGraph>,
}

/// The cost-dependent derived parts of an instance (everything but the
/// tree-only [`EvalIndex`] and the on-demand graph).
type Labels = (Colouring, SigmaLabels, BetaLabels, ColourTops);

/// Derives the labels of a cost model already validated against the tree
/// `eval` indexes: flat passes over the pre-order index, with no tree walk
/// and no second validation.
fn derive_labels(costs: &CostModel, eval: &EvalIndex) -> Labels {
    let (preorder, size) = (&eval.preorder[..], &eval.size[..]);
    let colouring = Colouring::from_preorder(costs, preorder, size);
    let sigma = SigmaLabels::from_preorder(costs, preorder, size);
    let beta = BetaLabels::from_preorder(costs, preorder, size);
    let tops = ColourTops::compute(&colouring, eval, costs.n_satellites());
    (colouring, sigma, beta, tops)
}

impl<'a> Prepared<'a> {
    /// Prepares an instance borrowed from the caller: validates the tree
    /// and the cost model once each, builds the pre-order index, and
    /// colours the tree and labels its edges in flat passes over that
    /// index.
    pub fn new(tree: &'a CruTree, costs: &'a CostModel) -> Result<Self, AssignError> {
        Prepared::from_cows(Cow::Borrowed(tree), Cow::Borrowed(costs))
    }

    /// Prepares an instance that *owns* its tree and cost model, severing
    /// every borrow: the result can be stored, cached, and shared across
    /// threads for repeated solving.
    pub fn new_owned(tree: CruTree, costs: CostModel) -> Result<Prepared<'static>, AssignError> {
        Prepared::from_cows(Cow::Owned(tree), Cow::Owned(costs))
    }

    fn from_cows(tree: Cow<'a, CruTree>, costs: Cow<'a, CostModel>) -> Result<Self, AssignError> {
        tree.validate()?;
        let eval = EvalIndex::compute(&tree);
        costs.validate_over(&tree, &eval.preorder)?;
        let (colouring, sigma, beta, tops) = derive_labels(&costs, &eval);
        Ok(Prepared {
            tree,
            costs,
            colouring,
            sigma,
            beta,
            tops,
            eval,
            graph: OnceLock::new(),
        })
    }

    /// Converts into a self-contained instance, cloning the tree and cost
    /// model if they were borrowed. Derived data is moved, never recomputed.
    pub fn into_owned(self) -> Prepared<'static> {
        Prepared {
            tree: Cow::Owned(self.tree.into_owned()),
            costs: Cow::Owned(self.costs.into_owned()),
            colouring: self.colouring,
            sigma: self.sigma,
            beta: self.beta,
            tops: self.tops,
            eval: self.eval,
            graph: self.graph,
        }
    }

    /// The coloured assignment graph (dual of the closed tree) for the
    /// current labels, built on the first call and kept until
    /// [`Prepared::update_costs`] re-labels the instance.
    pub fn graph(&self) -> &AssignmentGraph {
        self.graph.get_or_init(|| {
            AssignmentGraph::build(&self.tree, &self.colouring, &self.sigma, &self.beta)
                .expect("the labels of a prepared instance always span its tree")
        })
    }

    /// Number of satellites in the platform.
    pub fn n_satellites(&self) -> u32 {
        self.costs.n_satellites()
    }

    /// Re-costs this prepared instance **in place**: validates `costs`
    /// once, re-derives colouring, σ/β labels and colour regions for it in
    /// flat passes over the kept pre-order index (the tree is reused, not
    /// cloned or re-validated — this is the incremental re-solve hot
    /// path), drops any dual graph built for the old labels
    /// (the next [`Prepared::graph`] call builds it afresh) and reports
    /// which colours' frontier regions the change dirtied
    /// ([`crate::dirty_colours_of_labels`]).
    ///
    /// On error nothing is mutated. On success the displaced cost model
    /// and labels are returned as a [`ReplacedParts`] so a caller keeping
    /// derived caches (e.g. the engine's `Session` with its frontier set)
    /// can roll back via [`Prepared::restore`] when *its* dependent
    /// rebuild fails mid-way.
    pub fn update_costs(
        &mut self,
        costs: CostModel,
    ) -> Result<(ReplacedParts<'a>, crate::DirtyColours), AssignError> {
        // The tree cannot change (it is never handed out mutably), so only
        // the cost model is validated, and the pre-order index is reused.
        costs.validate_over(&self.tree, &self.eval.preorder)?;
        let (colouring, sigma, beta, tops) = derive_labels(&costs, &self.eval);
        // A platform-size change invalidates every colour of the new
        // platform; otherwise the single-pass label diff decides.
        let dirty = if costs.n_satellites() != self.costs.n_satellites() {
            crate::DirtyColours {
                dirty: vec![true; costs.n_satellites() as usize],
            }
        } else {
            crate::dirty_colours_of_labels(
                &self.tree,
                costs.n_satellites(),
                (&self.colouring, &self.sigma, &self.beta),
                (&colouring, &sigma, &beta),
            )
        };
        let replaced = ReplacedParts {
            costs: std::mem::replace(&mut self.costs, Cow::Owned(costs)),
            colouring: std::mem::replace(&mut self.colouring, colouring),
            sigma: std::mem::replace(&mut self.sigma, sigma),
            beta: std::mem::replace(&mut self.beta, beta),
            tops: std::mem::replace(&mut self.tops, tops),
            graph: std::mem::take(&mut self.graph),
        };
        Ok((replaced, dirty))
    }

    /// Undoes an [`Prepared::update_costs`], restoring the displaced cost
    /// model and derived labels (and the graph, if one was built for them).
    pub fn restore(&mut self, parts: ReplacedParts<'a>) {
        self.costs = parts.costs;
        self.colouring = parts.colouring;
        self.sigma = parts.sigma;
        self.beta = parts.beta;
        self.tops = parts.tops;
        self.graph = parts.graph;
    }
}

/// The state an [`Prepared::update_costs`] displaced — an opaque rollback
/// token for [`Prepared::restore`].
pub struct ReplacedParts<'a> {
    costs: Cow<'a, CostModel>,
    colouring: Colouring,
    sigma: SigmaLabels,
    beta: BetaLabels,
    tops: ColourTops,
    graph: OnceLock<AssignmentGraph>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_tree::figures::fig2_tree;

    #[test]
    fn prepares_the_paper_instance() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        assert_eq!(prep.n_satellites(), 4);
        assert_eq!(prep.colouring.host_forced.len(), 3);
        assert!(prep.graph().dwg.num_edges() > 0);
    }

    #[test]
    fn owned_instance_matches_borrowed_preparation() {
        let (t, m) = fig2_tree();
        let borrowed = Prepared::new(&t, &m).unwrap();
        let owned: Prepared<'static> = Prepared::new_owned(t.clone(), m.clone()).unwrap();
        assert_eq!(owned.n_satellites(), borrowed.n_satellites());
        assert_eq!(
            owned.colouring.host_forced, borrowed.colouring.host_forced,
            "derived data must be identical"
        );
        assert_eq!(owned.graph().n_edges(), borrowed.graph().n_edges());
        // into_owned moves derived data without recomputation.
        let converted = borrowed.into_owned();
        assert_eq!(converted.graph().n_edges(), owned.graph().n_edges());
        assert_eq!(&*converted.tree, &t);
    }

    /// The dual graph's leaf count and labelled edges (the σ/β a re-cost
    /// changes); the DWG is built from exactly these.
    fn graph_parts(g: &AssignmentGraph) -> (usize, Vec<crate::DualEdge>) {
        (g.n_leaves, g.edges.clone())
    }

    fn graph_of_labels(p: &Prepared<'_>) -> (usize, Vec<crate::DualEdge>) {
        graph_parts(&AssignmentGraph::build(&p.tree, &p.colouring, &p.sigma, &p.beta).unwrap())
    }

    #[test]
    fn graph_built_before_a_recost_does_not_survive_it() {
        let (t, m) = fig2_tree();
        let mut prep = Prepared::new_owned(t.clone(), m.clone()).unwrap();
        let before = graph_parts(prep.graph());
        // The root's host time reaches the leftmost leaf's sensor σ; a raw
        // transfer cost is a sensor β.
        let mut recost = m.clone();
        let leaf = t.leaves_in_order()[0];
        recost.set_host_time(t.root(), m.h(t.root()) + hsa_graph::Cost::new(5));
        recost.set_comm_raw(leaf, m.c_raw(leaf) + hsa_graph::Cost::new(3));
        let (parts, _dirty) = prep.update_costs(recost).unwrap();
        assert_ne!(
            graph_of_labels(&prep),
            before,
            "the re-cost changes dual labels"
        );
        assert_eq!(graph_parts(prep.graph()), graph_of_labels(&prep));
        prep.restore(parts);
        assert_eq!(graph_parts(prep.graph()), graph_of_labels(&prep));
        assert_eq!(graph_parts(prep.graph()), before);
    }
}
