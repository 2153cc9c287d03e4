//! Assignments (the deliverable of the optimisation) and their delay
//! evaluation, computed **directly from the tree** — independent of the
//! assignment-graph labellings, so it doubles as the oracle the graph-side
//! algorithms are tested against.

use crate::{AssignError, Prepared};
use hsa_graph::{Cost, Lambda, ScaledSsb};
use hsa_tree::{host_time_of_cut, satellite_loads_of_cut, CruId, Cut, SatelliteId, TreeEdge};
use serde::{Deserialize, Serialize};

/// Where each CRU runs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// CRUs on the host, in pre-order.
    pub host: Vec<CruId>,
    /// CRUs per satellite (indexed by satellite id), each in pre-order.
    pub per_satellite: Vec<Vec<CruId>>,
}

/// Per-satellite share of the bottleneck weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SatelliteLoad {
    /// The satellite.
    pub satellite: SatelliteId,
    /// Processing + transmission time (the per-colour Σβ).
    pub total: Cost,
}

/// Full delay breakdown of an assignment (paper §3's objective).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayReport {
    /// S — host processing time (Σ h over host CRUs).
    pub host_time: Cost,
    /// Per-satellite loads (Σ s + Σ comm per satellite).
    pub satellite_loads: Vec<SatelliteLoad>,
    /// B — the bottleneck satellite's load.
    pub bottleneck: Cost,
    /// The satellite achieving B (None when every load is zero).
    pub bottleneck_satellite: Option<SatelliteId>,
    /// End-to-end delay = S + B (the paper's objective at λ = ½).
    pub end_to_end: Cost,
}

impl DelayReport {
    /// The λ-scaled SSB objective of this partition.
    pub fn ssb_scaled(&self, lambda: Lambda) -> ScaledSsb {
        lambda.ssb_scaled(self.host_time, self.bottleneck)
    }
}

/// Evaluates a cut into its assignment + delay report, straight from the
/// tree and the cost model.
pub fn evaluate_cut(
    prep: &Prepared<'_>,
    cut: &Cut,
) -> Result<(Assignment, DelayReport), AssignError> {
    cut.validate(&prep.tree)?;
    // Where does each CRU go?
    let below = cut.below_mask(&prep.tree);
    let mut host = Vec::new();
    let mut per_satellite: Vec<Vec<CruId>> = vec![Vec::new(); prep.n_satellites() as usize];
    for c in prep.tree.preorder() {
        if below[c.index()] {
            let sat = prep.colouring.node_colour[c.index()]
                .satellite()
                .ok_or_else(|| {
                    AssignError::Internal(format!("{c} below the cut but conflicted"))
                })?;
            per_satellite[sat.index()].push(c);
        } else {
            host.push(c);
        }
    }

    let host_time = host_time_of_cut(&prep.tree, &prep.costs, cut.edges());
    let colour_of = |e: TreeEdge| prep.colouring.edge_colour(e).satellite();
    let loads = satellite_loads_of_cut(&prep.tree, &prep.costs, colour_of, cut.edges());
    let satellite_loads: Vec<SatelliteLoad> = loads
        .iter()
        .enumerate()
        .map(|(i, &total)| SatelliteLoad {
            satellite: SatelliteId(i as u32),
            total,
        })
        .collect();
    let (bottleneck, bottleneck_satellite) =
        loads
            .iter()
            .enumerate()
            .fold((Cost::ZERO, None), |(best, who), (i, &l)| {
                if l > best {
                    (l, Some(SatelliteId(i as u32)))
                } else {
                    (best, who)
                }
            });

    Ok((
        Assignment {
            host,
            per_satellite,
        },
        DelayReport {
            host_time,
            satellite_loads,
            bottleneck,
            bottleneck_satellite,
            end_to_end: host_time + bottleneck,
        },
    ))
}

/// Reusable buffers for the walk-free cut evaluation
/// ([`evaluate_cut_in`]). One per worker thread; steady-state answers then
/// reuse the range and load buffers instead of reallocating them, and only
/// the `Solution`-owned output vectors are freshly built.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Per cut edge with a below-subtree: `(preorder pos, size, colour)`.
    ranges: Vec<(u32, u32, u32)>,
    /// Per-satellite load accumulator (`Σ β` per colour).
    loads: Vec<Cost>,
}

impl EvalScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Runs `f` with this thread's shared scratch — the one
    /// [`crate::Solution::from_cut_in`] evaluates in. Every thread keeps
    /// its own warm instance.
    pub(crate) fn with_thread_local<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
        thread_local! {
            static SCRATCH: std::cell::RefCell<EvalScratch> =
                std::cell::RefCell::new(EvalScratch::new());
        }
        SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }
}

/// Walk-free twin of [`evaluate_cut`]: evaluates a cut using the σ/β edge
/// labels and the pre-order index instead of re-walking the tree.
///
/// Byte-identity with the oracle holds by construction:
///
/// * **S** — `Σ σ(e)` over the cut equals the host-side `Σ h` (the Figure 8
///   σ identity, property-tested in `hsa-tree::sigma`); [`Cost`] addition
///   saturates, and saturating addition of non-negatives is associative
///   and commutative (both groupings equal `min(true sum, MAX)`), so the
///   per-edge grouping reproduces the oracle's node-by-node sum exactly.
/// * **loads** — `β(Parent(c)) = Σ s(subtree c) + c_up(c)` and
///   `β(Sensor(l)) = c_raw(l)`; summing β per edge colour is the
///   `satellite_loads_of_cut` oracle under the same associativity.
/// * **assignment** — subtrees are contiguous pre-order ranges
///   ([`crate::EvalIndex`]); concatenating the colour-`s` ranges in
///   pre-order position order reproduces the oracle's pre-order
///   per-satellite lists, and the gaps between ranges are exactly the
///   host-side nodes, in pre-order.
///
/// Cuts whose below-nodes are not uniformly satellite-coloured (only
/// possible for hand-built cuts, never for frontier-assembled ones) fall
/// back to [`evaluate_cut`] so error behaviour is identical too. The cut
/// is **trusted** (frontier assembly builds valid cuts by construction);
/// debug builds assert validity.
pub fn evaluate_cut_in(
    prep: &Prepared<'_>,
    cut: &Cut,
    scratch: &mut EvalScratch,
) -> Result<(Assignment, DelayReport), AssignError> {
    debug_assert!(cut.validate(&prep.tree).is_ok(), "trusted cut invalid");
    let n_sat = prep.n_satellites() as usize;
    scratch.loads.clear();
    scratch.loads.resize(n_sat, Cost::ZERO);
    scratch.ranges.clear();

    let mut host_time = Cost::ZERO;
    for &e in cut.edges() {
        host_time += prep.sigma.sigma(e);
        if let Some(s) = prep.colouring.edge_colour(e).satellite() {
            scratch.loads[s.index()] += prep.beta.beta(e);
        }
        if let TreeEdge::Parent(c) = e {
            let Some(s) = prep.colouring.node_colour[c.index()].satellite() else {
                // Conflicted below-subtree: delegate to the oracle for its
                // exact error (which names the first conflicted node).
                return evaluate_cut(prep, cut);
            };
            scratch.ranges.push((
                prep.eval.pos[c.index()],
                prep.eval.size[c.index()],
                s.index() as u32,
            ));
        }
    }

    // Assemble placement lists from pre-order ranges: colour ranges in
    // position order, host nodes from the gaps between them.
    scratch.ranges.sort_unstable_by_key(|r| r.0);
    let offloaded: u32 = scratch.ranges.iter().map(|r| r.1).sum();
    let mut host = Vec::with_capacity(prep.tree.len() - offloaded as usize);
    let mut per_satellite: Vec<Vec<CruId>> = vec![Vec::new(); n_sat];
    let mut cursor = 0usize;
    for &(pos, size, s) in &scratch.ranges {
        let (pos, size) = (pos as usize, size as usize);
        host.extend_from_slice(&prep.eval.preorder[cursor..pos]);
        per_satellite[s as usize].extend_from_slice(&prep.eval.preorder[pos..pos + size]);
        cursor = pos + size;
    }
    host.extend_from_slice(&prep.eval.preorder[cursor..]);

    let satellite_loads: Vec<SatelliteLoad> = scratch
        .loads
        .iter()
        .enumerate()
        .map(|(i, &total)| SatelliteLoad {
            satellite: SatelliteId(i as u32),
            total,
        })
        .collect();
    let (bottleneck, bottleneck_satellite) =
        scratch
            .loads
            .iter()
            .enumerate()
            .fold((Cost::ZERO, None), |(best, who), (i, &l)| {
                if l > best {
                    (l, Some(SatelliteId(i as u32)))
                } else {
                    (best, who)
                }
            });

    Ok((
        Assignment {
            host,
            per_satellite,
        },
        DelayReport {
            host_time,
            satellite_loads,
            bottleneck,
            bottleneck_satellite,
            end_to_end: host_time + bottleneck,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_tree::figures::{cru, fig2_tree, SAT_B, SAT_R};

    #[test]
    fn all_on_host_has_raw_transfer_bottleneck() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let cut = Cut::all_on_host(&t);
        let (asg, rep) = evaluate_cut(&prep, &cut).unwrap();
        assert_eq!(asg.host.len(), t.len());
        assert!(asg.per_satellite.iter().all(|v| v.is_empty()));
        assert_eq!(rep.host_time, m.total_host_time());
        // B satellite forwards raw frames of leaves 11, 12, 13.
        let raw_b = m.c_raw(cru(11)) + m.c_raw(cru(12)) + m.c_raw(cru(13));
        assert_eq!(rep.satellite_loads[SAT_B.index()].total, raw_b);
        assert_eq!(rep.end_to_end, rep.host_time + rep.bottleneck);
    }

    #[test]
    fn max_offload_keeps_only_forced_on_host() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let cut = Cut::max_offload(&t, &prep.colouring);
        let (asg, rep) = evaluate_cut(&prep, &cut).unwrap();
        assert_eq!(asg.host, vec![cru(1), cru(2), cru(3)]);
        // R gets subtree(CRU4) whole.
        assert!(asg.per_satellite[SAT_R.index()].contains(&cru(4)));
        assert!(asg.per_satellite[SAT_R.index()].contains(&cru(9)));
        // B gets both subtree(CRU5) and subtree(CRU6).
        let b = &asg.per_satellite[SAT_B.index()];
        assert!(b.contains(&cru(5)) && b.contains(&cru(6)) && b.contains(&cru(13)));
        assert_eq!(rep.host_time, m.h(cru(1)) + m.h(cru(2)) + m.h(cru(3)));
        // Bottleneck is whichever satellite load is max; consistency checks:
        let max = rep
            .satellite_loads
            .iter()
            .map(|l| l.total)
            .fold(Cost::ZERO, Cost::max);
        assert_eq!(rep.bottleneck, max);
        assert!(rep.bottleneck_satellite.is_some());
    }

    #[test]
    fn ssb_scaled_matches_lambda() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let (_a, rep) = evaluate_cut(&prep, &Cut::all_on_host(&t)).unwrap();
        assert_eq!(
            rep.ssb_scaled(Lambda::HALF),
            rep.host_time.ticks() as u128 + rep.bottleneck.ticks() as u128
        );
        assert_eq!(rep.ssb_scaled(Lambda::ONE), rep.host_time.ticks() as u128);
    }

    #[test]
    fn every_cru_is_placed_exactly_once() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let cut = Cut::max_offload(&t, &prep.colouring);
        let (asg, _rep) = evaluate_cut(&prep, &cut).unwrap();
        let mut seen = vec![false; t.len()];
        for &c in asg.host.iter().chain(asg.per_satellite.iter().flatten()) {
            assert!(!seen[c.index()], "{c} placed twice");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
