//! Bokhari's SB algorithm (IEEE ToC 1988), the baseline the paper modifies.
//!
//! Finds the S→T path minimising the *SB weight* `max(S(P), B(P))` — the
//! bottleneck processing time of Bokhari's host–satellite partitioning. The
//! structure is the same candidate/eliminate loop as the SSB algorithm, with
//! the elimination threshold taken against the *candidate* SB weight: any
//! path through an edge with `β(e) ≥ SB_can` weighs at least `SB_can` and
//! cannot strictly improve.

use crate::{dijkstra::shortest_path_in, Cost, Dwg, EdgeId, NodeId, Path, SolveScratch};

/// Outcome of an SB search.
#[derive(Clone, Debug)]
pub struct SbOutcome {
    /// The optimal path and its `max(S, B)` weight, unless disconnected.
    pub best: Option<(Path, Cost)>,
    /// Iterations executed.
    pub iterations: usize,
    /// Total edges eliminated.
    pub edges_removed: usize,
}

/// Runs Bokhari's SB algorithm between `source` and `target`.
///
/// Like [`crate::ssb_search`], the search consumes edge liveness. Its
/// Dijkstra runs and elimination sweeps share one workspace.
pub fn sb_search(g: &mut Dwg, source: NodeId, target: NodeId) -> SbOutcome {
    let ws = &mut SolveScratch::new();
    let mut best: Option<(Path, Cost)> = None;
    let mut best_sb = Cost::MAX;
    let mut iterations = 0usize;
    let mut edges_removed = 0usize;

    while let Some(sp) = shortest_path_in(g, source, target, ws) {
        iterations += 1;
        let s = sp.s_weight;
        let b = sp.path.b_weight(g);
        let sb = s.max(b);
        if sb < best_sb {
            best_sb = sb;
            best = Some((sp.path, sb));
        }
        // Remaining paths have S ≥ S(Pᵢ); once that alone reaches the
        // candidate, stop.
        if s >= best_sb {
            break;
        }
        // Eliminate edges that can no longer be on a strictly better path.
        let mut buf = std::mem::take(&mut ws.edge_buf);
        buf.clear();
        buf.extend(
            g.alive_edges()
                .filter(|(_, e)| e.beta >= best_sb)
                .map(|(id, _)| id.0),
        );
        if buf.is_empty() {
            // S < best_sb and every alive β < best_sb: the current path
            // already weighs max(S,B) < best_sb — impossible, since the
            // candidate would have been updated to it. Defensive stop.
            debug_assert!(false, "SB loop stalled");
            ws.edge_buf = buf;
            break;
        }
        edges_removed += buf.len();
        for &e in &buf {
            g.kill_edge(EdgeId(e));
        }
        ws.edge_buf = buf;
    }

    SbOutcome {
        best,
        iterations,
        edges_removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::optimal_sb_by_enumeration;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    fn diamond() -> Dwg {
        let mut g = Dwg::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), c(1), c(9));
        g.add_edge(NodeId(1), NodeId(3), c(1), c(1));
        g.add_edge(NodeId(0), NodeId(2), c(2), c(2));
        g.add_edge(NodeId(2), NodeId(3), c(2), c(2));
        g.add_edge(NodeId(0), NodeId(3), c(10), c(1));
        g
    }

    #[test]
    fn diamond_matches_oracle() {
        let mut g = diamond();
        let oracle = optimal_sb_by_enumeration(&g, NodeId(0), NodeId(3), 100)
            .unwrap()
            .unwrap();
        let out = sb_search(&mut g, NodeId(0), NodeId(3));
        assert_eq!(out.best.unwrap().1, oracle.1);
    }

    #[test]
    fn sb_and_ssb_optima_differ_on_crafted_graph() {
        // Two parallel edges: (S=2, B=10) and (S=9, B=9).
        //   SB weights:  max(2,10)=10  vs max(9,9)=9  → SB prefers the second.
        //   S+B weights: 12 vs 18                     → SSB prefers the first.
        // This is the paper's §2 point: the objectives pick different paths.
        let mut g = Dwg::with_nodes(2);
        let first = g.add_edge(NodeId(0), NodeId(1), c(2), c(10));
        let second = g.add_edge(NodeId(0), NodeId(1), c(9), c(9));
        let sb = sb_search(&mut g.clone(), NodeId(0), NodeId(1));
        assert_eq!(sb.best.as_ref().unwrap().0.edges, vec![second]);
        let ssb = crate::ssb_search(&mut g, NodeId(0), NodeId(1), &crate::SsbConfig::default());
        assert_eq!(ssb.best.as_ref().unwrap().path.edges, vec![first]);
    }

    #[test]
    fn disconnected_yields_none() {
        let mut g = Dwg::with_nodes(2);
        let out = sb_search(&mut g, NodeId(0), NodeId(1));
        assert!(out.best.is_none());
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn single_edge() {
        let mut g = Dwg::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), c(3), c(7));
        let out = sb_search(&mut g, NodeId(0), NodeId(1));
        assert_eq!(out.best.unwrap().1, c(7));
    }

    #[test]
    fn prefers_balanced_path() {
        // Path A: S=1, B=100 → 100. Path B: S=60, B=50 → 60.
        let mut g = Dwg::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), c(1), c(100));
        g.add_edge(NodeId(1), NodeId(2), c(0), c(0));
        g.add_edge(NodeId(0), NodeId(2), c(60), c(50));
        let out = sb_search(&mut g, NodeId(0), NodeId(2));
        assert_eq!(out.best.unwrap().1, c(60));
    }
}
