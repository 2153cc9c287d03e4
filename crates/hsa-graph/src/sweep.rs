//! Threshold-sweep variants of the SSB and SB searches.
//!
//! The paper's §2 surveys follow-up work on Bokhari's algorithms that
//! replaces the iterate-and-eliminate loop by *parametric* searches
//! (Hansen & Lih 1992; Iqbal & Bokhari 1995). The same idea applies
//! directly to both objectives on a DWG: the optimal path's B weight
//! equals some edge's β, so sweeping a threshold θ over the distinct β
//! values, restricting the graph to edges with `β ≤ θ` and taking the
//! σ-shortest path gives the exact optimum in |distinct β| × O(Dijkstra):
//!
//! * for SSB: minimise `λ·S(θ) + (1−λ)·B(θ)` over feasible θ (where `B(θ)`
//!   is the *actual* max β of the found path, not θ itself);
//! * for SB: minimise `max(S(θ), B(θ))`.
//!
//! Correctness: let `P*` be optimal with bottleneck `B* = β(e*)`. At
//! `θ = B*` the whole of `P*` survives the restriction, so the σ-shortest
//! path `P(θ)` has `S(P(θ)) ≤ S(P*)` and `B(P(θ)) ≤ B*` — its objective is
//! ≤ the optimum, and every swept value is achievable, so the minimum over
//! θ is exactly the optimum. These are used as *independent second
//! implementations* in the property-test suite and as an ablation in the
//! benchmarks (iterate-eliminate vs parametric sweep).

use crate::{dijkstra::shortest_path_in, Cost, Dwg, Lambda, NodeId, Path, ScaledSsb, SolveScratch};

/// Result of a sweep search.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The optimal path with its S, B and objective value.
    pub best: Option<(Path, Cost, Cost, ScaledSsb)>,
    /// Number of thresholds probed (= number of Dijkstra runs).
    pub probes: usize,
}

/// Exact SSB optimum by threshold sweep. Leaves edge liveness untouched.
pub fn ssb_search_sweep(
    g: &mut Dwg,
    source: NodeId,
    target: NodeId,
    lambda: Lambda,
) -> SweepOutcome {
    let mut best: Option<(Path, Cost, Cost, ScaledSsb)> = None;
    let probes = sweep_thresholds(g, source, target, |path, s, b| {
        let obj = lambda.ssb_scaled(s, b);
        if best.as_ref().map(|(_, _, _, o)| obj < *o).unwrap_or(true) {
            best = Some((path, s, b, obj));
        }
    });
    SweepOutcome { best, probes }
}

/// Runs the β-threshold sweep shared by every parametric search: for each
/// distinct alive β value θ (ascending), restricts the graph to `β ≤ θ`,
/// finds the σ-shortest path, and hands `(path, S, B)` to `visit`. Edge
/// liveness is left untouched; returns the number of probes.
fn sweep_thresholds<F: FnMut(Path, Cost, Cost)>(
    g: &mut Dwg,
    source: NodeId,
    target: NodeId,
    mut visit: F,
) -> usize {
    let ws = &mut SolveScratch::new();
    let snapshot = g.snapshot();
    // One β-sorted (β, edge) table, built once. Scanning θ in ascending
    // order, the edges to kill (β > θ) are exactly a suffix of this table,
    // so each probe is a binary search plus a branch-free suffix walk over
    // two parallel columns — no per-θ full rescan of the edge list.
    let mut by_beta: Vec<(Cost, u32)> = g.alive_edges().map(|(id, e)| (e.beta, id.0)).collect();
    by_beta.sort();

    let mut probes = 0;
    let mut i = 0;
    while i < by_beta.len() {
        let theta = by_beta[i].0;
        while i < by_beta.len() && by_beta[i].0 == theta {
            i += 1; // advance past the run of equal β: victims start at i
        }
        g.restore(&snapshot);
        for &(_, e) in &by_beta[i..] {
            g.kill_edge(crate::EdgeId(e));
        }
        probes += 1;
        if let Some(sp) = shortest_path_in(g, source, target, ws) {
            let b = sp.path.b_weight(g);
            visit(sp.path, sp.s_weight, b);
        }
    }
    g.restore(&snapshot);
    probes
}

/// Exact SB (`max(S,B)`) optimum by threshold sweep. Leaves edge liveness
/// untouched. (No pruning over θ: S(θ) shrinks as θ grows, so every probe
/// can still improve; |thetas| ≤ |E| anyway.)
pub fn sb_search_sweep(g: &mut Dwg, source: NodeId, target: NodeId) -> SweepOutcome {
    let mut best: Option<(Path, Cost, Cost, ScaledSsb)> = None;
    let probes = sweep_thresholds(g, source, target, |path, s, b| {
        let obj = s.max(b).ticks() as ScaledSsb;
        if best.as_ref().map(|(_, _, _, o)| obj < *o).unwrap_or(true) {
            best = Some((path, s, b, obj));
        }
    });
    SweepOutcome { best, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig4_graph;
    use crate::{sb_search, ssb_search, SsbConfig};

    #[test]
    fn sweep_matches_iterative_on_figure4() {
        let (g, s, t) = fig4_graph();
        let mut g1 = g.clone();
        let sweep = ssb_search_sweep(&mut g1, s, t, Lambda::HALF);
        let (_, sw_s, sw_b, sw_obj) = sweep.best.unwrap();
        assert_eq!(sw_obj, 20);
        assert_eq!(sw_s, Cost::new(10));
        assert_eq!(sw_b, Cost::new(10));
        // Liveness untouched.
        assert_eq!(g1.num_alive(), g.num_edges());
        // Iterative agrees.
        let mut g2 = g.clone();
        let it = ssb_search(&mut g2, s, t, &SsbConfig::default());
        assert_eq!(it.best.unwrap().ssb, sw_obj);
    }

    #[test]
    fn sb_sweep_matches_iterative_on_figure4() {
        let (g, s, t) = fig4_graph();
        let mut g1 = g.clone();
        let sweep = sb_search_sweep(&mut g1, s, t);
        let mut g2 = g.clone();
        let it = sb_search(&mut g2, s, t);
        assert_eq!(
            sweep.best.unwrap().3,
            it.best.unwrap().1.ticks() as ScaledSsb
        );
    }

    #[test]
    fn disconnected_graph() {
        let mut g = Dwg::with_nodes(2);
        let out = ssb_search_sweep(&mut g, NodeId(0), NodeId(1), Lambda::HALF);
        assert!(out.best.is_none());
        assert_eq!(out.probes, 0);
    }

    #[test]
    fn probes_bounded_by_distinct_betas() {
        let (g, s, t) = fig4_graph();
        let mut g1 = g.clone();
        let out = ssb_search_sweep(&mut g1, s, t, Lambda::HALF);
        // Figure 4 has β values {10,8,9,20,12}: 5 distinct.
        assert_eq!(out.probes, 5);
    }
}
