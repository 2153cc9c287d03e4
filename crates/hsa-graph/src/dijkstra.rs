//! Dijkstra shortest path over the σ (sum) weights.
//!
//! This is the "shortest path-searching algorithm" invoked once per
//! iteration of the SSB algorithm (paper §4.2, which cites Dijkstra as the
//! canonical choice). Only *alive* edges participate, so the elimination
//! loop never rebuilds the graph.
//!
//! [`shortest_path_in`] runs inside a caller-provided [`SolveScratch`], so
//! the repeated searches of one SSB/SB search or sweep share one workspace.
//!
//! Determinism: ties are broken first on distance, then on node id, and the
//! predecessor of a node is only replaced by a *strictly* shorter distance,
//! so repeated runs return identical paths — important for reproducing the
//! paper's iteration traces exactly.

use crate::{Cost, Dwg, EdgeId, NodeId, Path, SolveScratch};

/// The result of a single-source, single-target run.
#[derive(Clone, Debug)]
pub struct ShortestPath {
    /// The σ-shortest path found.
    pub path: Path,
    /// Its total σ weight.
    pub s_weight: Cost,
}

/// Finds the σ-shortest alive path from `source` to `target` in a
/// reusable workspace: no per-call allocation beyond the returned path
/// itself.
///
/// Returns `None` when `target` is unreachable through alive edges.
pub fn shortest_path_in(
    g: &Dwg,
    source: NodeId,
    target: NodeId,
    ws: &mut SolveScratch,
) -> Option<ShortestPath> {
    let n = g.num_nodes();
    debug_assert!(source.index() < n && target.index() < n);
    ws.begin(n);
    ws.seed(source.index(), Cost::ZERO);
    ws.push(Cost::ZERO, source.0);

    while let Some((d, u)) = ws.pop() {
        let u = NodeId(u);
        if ws.is_done(u.index()) {
            continue;
        }
        ws.mark_done(u.index());
        if u == target {
            break;
        }
        for (eid, edge) in g.out_edges(u) {
            let v = edge.to;
            if ws.is_done(v.index()) {
                continue;
            }
            let nd = d + edge.sigma;
            if ws.improve(v.index(), nd, eid.0) {
                ws.push(nd, v.0);
            }
        }
    }

    if ws.dist(target.index()) == Cost::MAX && source != target {
        return None;
    }

    // Reconstruct by walking predecessors back to the source.
    let mut edges = Vec::new();
    let mut at = target;
    while at != source {
        let e = EdgeId(ws.pred(at.index())?);
        edges.push(e);
        at = g.edge_unchecked(e).from;
    }
    edges.reverse();
    Some(ShortestPath {
        s_weight: ws.dist(target.index()),
        path: Path::new(edges),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    #[test]
    fn straight_line() {
        let mut g = Dwg::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), c(2), c(0));
        g.add_edge(NodeId(1), NodeId(2), c(3), c(0));
        let sp = shortest_path_in(&g, NodeId(0), NodeId(2), &mut SolveScratch::new()).unwrap();
        assert_eq!(sp.s_weight, c(5));
        assert_eq!(sp.path.len(), 2);
        sp.path.validate(&g, NodeId(0), NodeId(2)).unwrap();
    }

    #[test]
    fn prefers_cheaper_parallel_edge() {
        let mut g = Dwg::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), c(9), c(0));
        let cheap = g.add_edge(NodeId(0), NodeId(1), c(4), c(0));
        let sp = shortest_path_in(&g, NodeId(0), NodeId(1), &mut SolveScratch::new()).unwrap();
        assert_eq!(sp.s_weight, c(4));
        assert_eq!(sp.path.edges, vec![cheap]);
    }

    #[test]
    fn takes_detour_when_cheaper() {
        let mut g = Dwg::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(3), c(10), c(0));
        g.add_edge(NodeId(0), NodeId(1), c(1), c(0));
        g.add_edge(NodeId(1), NodeId(2), c(1), c(0));
        g.add_edge(NodeId(2), NodeId(3), c(1), c(0));
        let sp = shortest_path_in(&g, NodeId(0), NodeId(3), &mut SolveScratch::new()).unwrap();
        assert_eq!(sp.s_weight, c(3));
        assert_eq!(sp.path.len(), 3);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Dwg::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), c(1), c(0));
        assert!(shortest_path_in(&g, NodeId(0), NodeId(2), &mut SolveScratch::new()).is_none());
    }

    #[test]
    fn dead_edges_are_ignored() {
        let mut g = Dwg::with_nodes(2);
        let e = g.add_edge(NodeId(0), NodeId(1), c(1), c(0));
        g.kill_edge(e);
        assert!(shortest_path_in(&g, NodeId(0), NodeId(1), &mut SolveScratch::new()).is_none());
        g.revive_all();
        assert!(shortest_path_in(&g, NodeId(0), NodeId(1), &mut SolveScratch::new()).is_some());
    }

    #[test]
    fn source_equals_target() {
        let g = Dwg::with_nodes(1);
        let sp = shortest_path_in(&g, NodeId(0), NodeId(0), &mut SolveScratch::new()).unwrap();
        assert_eq!(sp.s_weight, Cost::ZERO);
        assert!(sp.path.is_empty());
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let mut g = Dwg::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), c(0), c(5));
        g.add_edge(NodeId(1), NodeId(2), c(0), c(7));
        let sp = shortest_path_in(&g, NodeId(0), NodeId(2), &mut SolveScratch::new()).unwrap();
        assert_eq!(sp.s_weight, Cost::ZERO);
        assert_eq!(sp.path.len(), 2);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One workspace across different graphs and sizes must behave as if
        // freshly allocated each time.
        let mut ws = SolveScratch::new();
        let mut big = Dwg::with_nodes(6);
        for i in 0..5u32 {
            big.add_edge(NodeId(i), NodeId(i + 1), c(i as u64 + 1), c(0));
        }
        let mut small = Dwg::with_nodes(2);
        small.add_edge(NodeId(0), NodeId(1), c(4), c(0));
        for _ in 0..3 {
            let a = shortest_path_in(&big, NodeId(0), NodeId(5), &mut ws).unwrap();
            assert_eq!(a.s_weight, c(15));
            let b = shortest_path_in(&small, NodeId(0), NodeId(1), &mut ws).unwrap();
            assert_eq!(b.s_weight, c(4));
            assert_eq!(b.path.len(), 1);
            // Stale state from the 6-node run must not leak into this one.
            assert!(shortest_path_in(&small, NodeId(1), NodeId(0), &mut ws).is_none());
        }
    }
}
