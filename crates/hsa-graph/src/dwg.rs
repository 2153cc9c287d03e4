//! The doubly weighted multigraph (DWG) of the paper's Section 4.1.
//!
//! A DWG carries two ordered non-negative weights on every edge: a *sum*
//! weight σ (accumulated along a path into the S weight) and a *bottleneck*
//! weight β (combined along a path into the B weight). Both the paper's SSB
//! algorithm and Bokhari's SB algorithm work by repeatedly searching paths
//! and *eliminating* edges, so the graph supports O(1) edge disabling with
//! snapshot/restore instead of physically mutating adjacency.
//!
//! Parallel edges are first-class: Bokhari-style assignment graphs are
//! multigraphs (a chain of tree edges with the same leaf span yields several
//! parallel edges between the same pair of faces).

use crate::{Cost, GraphError};
use serde::{Deserialize, Serialize};

/// Identifier of a node in a [`Dwg`]; indexes are dense and start at zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of an edge in a [`Dwg`]; indexes are dense and start at zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Edge payload: endpoints, the two weights, and a caller-defined tag.
///
/// The tag is opaque to the search algorithms; the assignment layer uses it
/// to point back at the CRU-tree edge a dual edge crosses, and to carry the
/// satellite colour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Sum weight σ(e).
    pub sigma: Cost,
    /// Bottleneck weight β(e).
    pub beta: Cost,
    /// Caller-defined payload (e.g. colour, tree-edge id).
    pub tag: u64,
}

/// A directed doubly weighted multigraph with O(1) edge disabling.
///
/// Every edge is a directed arc: the assignment graph is the directed s–t
/// dual of the CRU tree, so no search needs undirected edges.
///
/// ## Generation-stamped liveness
///
/// Liveness is tracked by *generation stamps* rather than booleans: killing
/// an edge stamps it with the current generation, and an edge is alive iff
/// its stamp differs from the generation. [`Dwg::revive_all`] therefore
/// runs in O(1) — it just bumps the generation — so one prepared graph can
/// be solved by the destructive SSB/SB elimination loops repeatedly without
/// rebuilding or O(|E|) clearing between solves.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dwg {
    edges: Vec<Edge>,
    /// Out-adjacency: for each node, the edge ids leaving it.
    adj: Vec<Vec<EdgeId>>,
    /// Generation in which each edge was eliminated; an edge is alive iff
    /// `killed_in[e] != generation` (0 = never, generations start at 1).
    killed_in: Vec<u32>,
    /// Current liveness generation (≥ 1).
    generation: u32,
    alive_count: usize,
}

/// A saved liveness state, restorable with [`Dwg::restore`].
#[derive(Clone, Debug)]
pub struct AliveSnapshot {
    alive: Vec<bool>,
    alive_count: usize,
}

impl Dwg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Dwg {
            edges: Vec::new(),
            adj: Vec::new(),
            killed_in: Vec::new(),
            generation: 1,
            alive_count: 0,
        }
    }

    /// Creates an empty graph with `n` pre-allocated nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Dwg::new();
        g.add_nodes(n);
        g
    }

    /// Adds one node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push(Vec::new());
        id
    }

    /// Adds `n` nodes; returns the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.adj.len() as u32);
        for _ in 0..n {
            self.adj.push(Vec::new());
        }
        first
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges ever added (dead or alive).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of edges currently alive.
    #[inline]
    pub fn num_alive(&self) -> usize {
        self.alive_count
    }

    /// Adds a directed edge with tag 0.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, sigma: Cost, beta: Cost) -> EdgeId {
        self.add_edge_tagged(from, to, sigma, beta, 0)
    }

    /// Adds a directed edge carrying a caller-defined tag.
    ///
    /// # Panics
    /// Panics if an endpoint does not exist (construction-time programming
    /// error, unlike search-time lookups which return [`GraphError`]).
    pub fn add_edge_tagged(
        &mut self,
        from: NodeId,
        to: NodeId,
        sigma: Cost,
        beta: Cost,
        tag: u64,
    ) -> EdgeId {
        assert!(
            from.index() < self.adj.len() && to.index() < self.adj.len(),
            "edge endpoint out of range"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            from,
            to,
            sigma,
            beta,
            tag,
        });
        self.adj[from.index()].push(id);
        self.killed_in.push(0);
        self.alive_count += 1;
        id
    }

    /// Looks up an edge payload.
    pub fn edge(&self, e: EdgeId) -> Result<&Edge, GraphError> {
        self.edges.get(e.index()).ok_or(GraphError::EdgeOutOfRange {
            edge: e.0,
            len: self.edges.len() as u32,
        })
    }

    /// Unchecked edge lookup for hot loops; panics on a bad id.
    #[inline]
    pub fn edge_unchecked(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Whether the edge is currently alive.
    #[inline]
    pub fn is_alive(&self, e: EdgeId) -> bool {
        self.killed_in[e.index()] != self.generation
    }

    /// The current liveness generation (bumped by [`Dwg::revive_all`]).
    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Disables an edge. Idempotent.
    pub fn kill_edge(&mut self, e: EdgeId) {
        if self.is_alive(e) {
            self.killed_in[e.index()] = self.generation;
            self.alive_count -= 1;
        }
    }

    /// Re-enables every edge in O(1) by starting a new liveness generation.
    pub fn revive_all(&mut self) {
        if self.generation == u32::MAX {
            // Stamp wrap: reset once every 2³²−1 generations.
            self.killed_in.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.alive_count = self.killed_in.len();
    }

    /// Captures the current liveness state.
    pub fn snapshot(&self) -> AliveSnapshot {
        AliveSnapshot {
            alive: (0..self.edges.len())
                .map(|i| self.is_alive(EdgeId(i as u32)))
                .collect(),
            alive_count: self.alive_count,
        }
    }

    /// Restores a liveness state captured by [`Dwg::snapshot`].
    ///
    /// # Panics
    /// Panics if edges were added after the snapshot was taken.
    pub fn restore(&mut self, snap: &AliveSnapshot) {
        assert_eq!(
            snap.alive.len(),
            self.killed_in.len(),
            "snapshot taken on a graph with a different edge count"
        );
        self.revive_all();
        for (i, &alive) in snap.alive.iter().enumerate() {
            if !alive {
                self.killed_in[i] = self.generation;
                self.alive_count -= 1;
            }
        }
        debug_assert_eq!(self.alive_count, snap.alive_count);
    }

    /// Iterates the *alive* out-edges of a node.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.adj[n.index()]
            .iter()
            .copied()
            .filter(|e| self.is_alive(*e))
            .map(move |e| (e, &self.edges[e.index()]))
    }

    /// Iterates every alive edge in id order.
    pub fn alive_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(i, _)| self.killed_in[*i] != self.generation)
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Iterates every edge in id order, dead or alive.
    pub fn all_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Validates a node id.
    pub fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n.index() < self.adj.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: n.0,
                len: self.adj.len() as u32,
            })
        }
    }
}

impl Default for Dwg {
    fn default() -> Self {
        Dwg::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    #[test]
    fn build_and_query() {
        let mut g = Dwg::with_nodes(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), c(5), c(10));
        let e1 = g.add_edge_tagged(NodeId(1), NodeId(2), c(4), c(20), 7);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_alive(), 2);
        assert_eq!(g.edge(e1).unwrap().tag, 7);
        assert_eq!(g.edge(e0).unwrap().sigma, c(5));
        let outs: Vec<_> = g.out_edges(NodeId(0)).map(|(id, _)| id).collect();
        assert_eq!(outs, vec![e0]);
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Dwg::with_nodes(2);
        let e0 = g.add_edge(NodeId(0), NodeId(1), c(1), c(1));
        let e1 = g.add_edge(NodeId(0), NodeId(1), c(1), c(1));
        assert_ne!(e0, e1);
        assert_eq!(g.out_edges(NodeId(0)).count(), 2);
    }

    #[test]
    fn kill_and_revive() {
        let mut g = Dwg::with_nodes(2);
        let e = g.add_edge(NodeId(0), NodeId(1), c(1), c(2));
        assert!(g.is_alive(e));
        g.kill_edge(e);
        assert!(!g.is_alive(e));
        assert_eq!(g.num_alive(), 0);
        assert_eq!(g.out_edges(NodeId(0)).count(), 0);
        g.kill_edge(e); // idempotent
        assert_eq!(g.num_alive(), 0);
        g.revive_all();
        assert!(g.is_alive(e));
        assert_eq!(g.num_alive(), 1);
        // Of two antiparallel arcs, killing one leaves the other alive.
        let back = g.add_edge(NodeId(1), NodeId(0), c(1), c(2));
        g.kill_edge(back);
        assert!(g.is_alive(e) && !g.is_alive(back));
        assert_eq!(g.num_alive(), 1);
        assert_eq!(g.out_edges(NodeId(0)).count(), 1);
        assert_eq!(g.out_edges(NodeId(1)).count(), 0);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut g = Dwg::with_nodes(2);
        let e0 = g.add_edge(NodeId(0), NodeId(1), c(1), c(1));
        let e1 = g.add_edge(NodeId(0), NodeId(1), c(2), c(2));
        let snap = g.snapshot();
        g.kill_edge(e0);
        g.kill_edge(e1);
        assert_eq!(g.num_alive(), 0);
        g.restore(&snap);
        assert_eq!(g.num_alive(), 2);
        assert!(g.is_alive(e0) && g.is_alive(e1));
    }

    #[test]
    fn out_of_range_lookups_error() {
        let g = Dwg::with_nodes(1);
        assert!(matches!(
            g.edge(EdgeId(0)),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
        assert!(matches!(
            g.check_node(NodeId(5)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(g.check_node(NodeId(0)).is_ok());
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn bad_endpoint_panics_at_construction() {
        let mut g = Dwg::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(3), c(1), c(1));
    }

    #[test]
    fn revive_all_bumps_generation_without_touching_stamps() {
        let mut g = Dwg::with_nodes(2);
        let e0 = g.add_edge(NodeId(0), NodeId(1), c(1), c(1));
        let e1 = g.add_edge(NodeId(0), NodeId(1), c(2), c(2));
        let gen0 = g.generation();
        g.kill_edge(e0);
        assert!(!g.is_alive(e0) && g.is_alive(e1));
        g.revive_all();
        assert_eq!(g.generation(), gen0 + 1);
        assert!(g.is_alive(e0) && g.is_alive(e1));
        assert_eq!(g.num_alive(), 2);
        // Edges added after a revive are alive in the new generation.
        let e2 = g.add_edge(NodeId(1), NodeId(0), c(3), c(3));
        assert!(g.is_alive(e2));
        assert_eq!(g.num_alive(), 3);
    }

    #[test]
    fn snapshot_survives_generation_bumps() {
        let mut g = Dwg::with_nodes(2);
        let e0 = g.add_edge(NodeId(0), NodeId(1), c(1), c(1));
        let e1 = g.add_edge(NodeId(0), NodeId(1), c(2), c(2));
        g.kill_edge(e0);
        let snap = g.snapshot(); // e0 dead, e1 alive
        g.revive_all();
        g.kill_edge(e1);
        g.restore(&snap);
        assert!(!g.is_alive(e0));
        assert!(g.is_alive(e1));
        assert_eq!(g.num_alive(), 1);
    }
}
