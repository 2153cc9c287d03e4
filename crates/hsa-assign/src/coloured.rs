//! Coloured path measures (paper §5.3–5.4).
//!
//! On the coloured assignment graph the S weight stays `Σ σ`, but the B
//! weight becomes *the maximum over colours of the per-colour β sums*:
//! several cut edges of one colour land on the **same** satellite, so their
//! satellite times accumulate:
//!
//! ```text
//! B(P) = max[ Σ_{e red} β(e), Σ_{e yellow} β(e), Σ_{e blue} β(e), … ]
//! ```

use crate::AssignmentGraph;
use hsa_graph::{Cost, EdgeId, Lambda, ScaledSsb};
use hsa_tree::SatelliteId;

/// S, B and the per-colour decomposition of a coloured path (or any edge
/// multiset — the measures do not depend on edge order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColouredMeasure {
    /// S = Σ σ.
    pub s: Cost,
    /// B = max per-colour Σ β.
    pub b: Cost,
    /// Per-colour Σ β, indexed by satellite id.
    pub per_colour: Vec<Cost>,
    /// The colour achieving B (smallest id on ties; None when all zero).
    pub argmax_colour: Option<SatelliteId>,
}

impl ColouredMeasure {
    /// Measures a set of dual edges.
    pub fn of_edges(graph: &AssignmentGraph, edges: &[EdgeId], n_satellites: u32) -> Self {
        let mut s = Cost::ZERO;
        let mut per_colour = vec![Cost::ZERO; n_satellites as usize];
        for &e in edges {
            let meta = graph.meta(e);
            s += meta.sigma;
            per_colour[meta.colour.index()] += meta.beta;
        }
        let (b, argmax_colour) =
            per_colour
                .iter()
                .enumerate()
                .fold((Cost::ZERO, None), |(best, who), (i, &l)| {
                    if l > best {
                        (l, Some(SatelliteId(i as u32)))
                    } else {
                        (best, who)
                    }
                });
        ColouredMeasure {
            s,
            b,
            per_colour,
            argmax_colour,
        }
    }

    /// The λ-scaled coloured SSB weight.
    pub fn ssb_scaled(&self, lambda: Lambda) -> ScaledSsb {
        lambda.ssb_scaled(self.s, self.b)
    }

    /// End-to-end delay (S + B, the paper's λ = ½ objective).
    pub fn delay(&self) -> Cost {
        self.s + self.b
    }

    /// Bokhari's objective on the same partition: `max(S, B)`.
    pub fn sb_weight(&self) -> Cost {
        self.s.max(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prepared;
    use hsa_tree::figures::fig2_tree;
    use hsa_tree::{Cut, TreeEdge};

    #[test]
    fn same_colour_edges_accumulate() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        // Max-offload cut: B colour covers both ⟨CRU2,CRU5⟩ and ⟨CRU3,CRU6⟩.
        let cut = Cut::max_offload(&t, &prep.colouring);
        let path = prep.graph().cut_to_path(&cut).unwrap();
        let mea = ColouredMeasure::of_edges(prep.graph(), &path.edges, prep.n_satellites());
        // Cross-check against the direct oracle.
        let (_, rep) = crate::evaluate_cut(&prep, &cut).unwrap();
        assert_eq!(mea.s, rep.host_time);
        assert_eq!(mea.b, rep.bottleneck);
        for (i, load) in rep.satellite_loads.iter().enumerate() {
            assert_eq!(mea.per_colour[i], load.total);
        }
        assert_eq!(mea.delay(), rep.end_to_end);
        // The B satellite really is the sum of two subtree betas.
        let b5 = prep.beta.beta(TreeEdge::Parent(hsa_tree::figures::cru(5)));
        let b6 = prep.beta.beta(TreeEdge::Parent(hsa_tree::figures::cru(6)));
        assert_eq!(mea.per_colour[hsa_tree::figures::SAT_B.index()], b5 + b6);
    }

    #[test]
    fn empty_measure_is_zero() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let mea = ColouredMeasure::of_edges(prep.graph(), &[], 4);
        assert_eq!(mea.s, Cost::ZERO);
        assert_eq!(mea.b, Cost::ZERO);
        assert_eq!(mea.argmax_colour, None);
        assert_eq!(mea.sb_weight(), Cost::ZERO);
    }

    #[test]
    fn argmax_ties_prefer_smallest_id() {
        // Craft a measure by hand: loads [5,5] → argmax Sat0.
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let mut mea = ColouredMeasure::of_edges(prep.graph(), &[], 2);
        mea.per_colour = vec![Cost::new(5), Cost::new(5)];
        let (b, who) =
            mea.per_colour
                .iter()
                .enumerate()
                .fold((Cost::ZERO, None), |(best, w), (i, &l)| {
                    if l > best {
                        (l, Some(SatelliteId(i as u32)))
                    } else {
                        (best, w)
                    }
                });
        assert_eq!(b, Cost::new(5));
        assert_eq!(who, Some(SatelliteId(0)));
    }
}
