//! The SSB algorithm (paper §4.2, Figure 3).
//!
//! Finds the S→T path minimising `SSB(P) = λ·S(P) + (1−λ)·B(P)` on a doubly
//! weighted graph, by iterating:
//!
//! 1. find the σ-shortest alive path `Pᵢ` (Dijkstra);
//! 2. if `SSB(Pᵢ)` beats the candidate, record it;
//! 3. stop if `λ·S(Pᵢ)` already reaches the candidate weight — every
//!    remaining path is at least as expensive — or if S and T got
//!    disconnected;
//! 4. otherwise eliminate all edges whose β is at/above `B(Pᵢ)` and repeat.
//!
//! ## Elimination rule
//!
//! The paper's prose removes edges with `β(e) > B(Pᵢ)` while its worked
//! example (Figure 4) behaves like `β(e) ≥ B(Pᵢ)`. Both are *safe*: a path
//! through such an edge has `B ≥ B(Pᵢ)` and (being compared against the
//! σ-shortest path) `S ≥ S(Pᵢ)`, so its SSB cannot beat the recorded
//! candidate. Only `≥` guarantees progress on its own — with `>` the loop
//! stalls whenever the max-β edge of `Pᵢ` ties `B(Pᵢ)` — so under
//! [`EliminationRule::Strict`] a stalled iteration falls back to `≥` (the
//! fallback count is reported). The default is [`EliminationRule::GreaterEqual`],
//! which reproduces Figure 4 exactly.

use crate::{
    dijkstra::shortest_path_in, Cost, Dwg, EdgeId, Lambda, NodeId, Path, ScaledSsb, SolveScratch,
    SSB_INFINITY,
};

/// How edges are eliminated relative to the current path's B weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EliminationRule {
    /// Remove edges with `β(e) ≥ B(Pᵢ)` (matches the paper's Figure 4 trace;
    /// guarantees progress every iteration).
    #[default]
    GreaterEqual,
    /// Remove edges with `β(e) > B(Pᵢ)` (the paper's prose); falls back to
    /// `≥` on stalled iterations to preserve termination.
    Strict,
}

/// Configuration of the SSB search.
#[derive(Clone, Copy, Debug)]
pub struct SsbConfig {
    /// The weighting coefficient λ.
    pub lambda: Lambda,
    /// The elimination rule (see module docs).
    pub rule: EliminationRule,
    /// Hard iteration cap (defence in depth; the algorithm provably
    /// terminates within `|E| + 1` iterations under either rule).
    pub max_iterations: usize,
    /// Record a full per-iteration trace (used by the Figure 4 repro).
    pub record_trace: bool,
}

impl Default for SsbConfig {
    fn default() -> Self {
        SsbConfig {
            lambda: Lambda::HALF,
            rule: EliminationRule::GreaterEqual,
            max_iterations: usize::MAX,
            record_trace: false,
        }
    }
}

/// Why the iteration stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// S and T are no longer connected by alive edges.
    Disconnected,
    /// The σ-shortest path's scaled `λ·S` reached the candidate SSB weight.
    SBound,
    /// The `max_iterations` guard fired.
    IterationCap,
}

/// One recorded iteration of the search.
#[derive(Clone, Debug)]
pub struct SsbIteration {
    /// The σ-shortest path of this iteration.
    pub path: Path,
    /// Its S weight.
    pub s: Cost,
    /// Its B weight.
    pub b: Cost,
    /// Its scaled SSB weight.
    pub ssb: ScaledSsb,
    /// Whether it replaced the candidate.
    pub improved: bool,
    /// Edges eliminated at the end of this iteration.
    pub removed: Vec<EdgeId>,
    /// Whether a Strict-rule stall forced the `≥` fallback.
    pub stall_fallback: bool,
}

/// The best path found, with its weights.
#[derive(Clone, Debug)]
pub struct SsbBest {
    /// The optimal path.
    pub path: Path,
    /// Its S weight.
    pub s: Cost,
    /// Its B weight.
    pub b: Cost,
    /// Its scaled SSB weight.
    pub ssb: ScaledSsb,
}

/// Outcome of an SSB search.
#[derive(Clone, Debug)]
pub struct SsbOutcome {
    /// The optimal SSB path, unless S and T were never connected.
    pub best: Option<SsbBest>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Total number of edges eliminated.
    pub edges_removed: usize,
    /// Why the loop stopped.
    pub termination: Termination,
    /// Per-iteration trace (only when `record_trace` is set).
    pub trace: Vec<SsbIteration>,
}

/// Runs the SSB algorithm between `source` and `target`.
///
/// The search *consumes* edge liveness (eliminated edges stay eliminated);
/// callers who need the graph back take a [`Dwg::snapshot`] first, or call
/// [`Dwg::revive_all`] afterwards (O(1)) when the graph started fully
/// alive. This mirrors the paper's formulation, where each iteration works
/// on the reduced graph `Gᵢ`. The per-iteration Dijkstra runs and the
/// elimination sweeps share one workspace.
pub fn ssb_search(g: &mut Dwg, source: NodeId, target: NodeId, cfg: &SsbConfig) -> SsbOutcome {
    let ws = &mut SolveScratch::new();
    let mut best: Option<SsbBest> = None;
    let mut best_ssb: ScaledSsb = SSB_INFINITY;
    let mut iterations = 0usize;
    let mut edges_removed = 0usize;
    let mut trace = Vec::new();

    let termination = loop {
        if iterations >= cfg.max_iterations {
            break Termination::IterationCap;
        }
        let Some(sp) = shortest_path_in(g, source, target, ws) else {
            break Termination::Disconnected;
        };
        iterations += 1;
        let s = sp.s_weight;
        let b = sp.path.b_weight(g);
        let ssb = cfg.lambda.ssb_scaled(s, b);
        let improved = ssb < best_ssb;
        if improved {
            best_ssb = ssb;
            best = Some(SsbBest {
                path: sp.path.clone(),
                s,
                b,
                ssb,
            });
        }

        // Paper termination: "the S weight of Pᵢ is greater than the current
        // SSB_can" — once λ·S alone reaches the candidate, no remaining path
        // can strictly improve (their S weights only grow).
        if cfg.lambda.s_scaled(s) >= best_ssb {
            if cfg.record_trace {
                trace.push(SsbIteration {
                    path: sp.path,
                    s,
                    b,
                    ssb,
                    improved,
                    removed: Vec::new(),
                    stall_fallback: false,
                });
            }
            break Termination::SBound;
        }

        // Elimination step (edge ids collected into the reusable buffer).
        let strict_first = cfg.rule == EliminationRule::Strict;
        let mut buf = std::mem::take(&mut ws.edge_buf);
        collect_removable_into(g, b, /*strict=*/ strict_first, &mut buf);
        let mut stall_fallback = false;
        if buf.is_empty() && strict_first {
            stall_fallback = true;
            collect_removable_into(g, b, /*strict=*/ false, &mut buf);
        }
        debug_assert!(
            !buf.is_empty(),
            "elimination must make progress (β≥B(P) holds for P's max-β edge)"
        );
        for &e in &buf {
            g.kill_edge(EdgeId(e));
        }
        edges_removed += buf.len();
        if cfg.record_trace {
            trace.push(SsbIteration {
                path: sp.path,
                s,
                b,
                ssb,
                improved,
                removed: buf.iter().copied().map(EdgeId).collect(),
                stall_fallback,
            });
        }
        ws.edge_buf = buf;
    };

    SsbOutcome {
        best,
        iterations,
        edges_removed,
        termination,
        trace,
    }
}

fn collect_removable_into(g: &Dwg, b: Cost, strict: bool, out: &mut Vec<u32>) {
    out.clear();
    out.extend(
        g.alive_edges()
            .filter(|(_, e)| if strict { e.beta > b } else { e.beta >= b })
            .map(|(id, _)| id.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::optimal_ssb_by_enumeration;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    /// The diamond from the enumerate tests.
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
        let oracle = optimal_ssb_by_enumeration(&g, NodeId(0), NodeId(3), Lambda::HALF, 100)
            .unwrap()
            .unwrap();
        let out = ssb_search(&mut g, NodeId(0), NodeId(3), &SsbConfig::default());
        let best = out.best.unwrap();
        assert_eq!(best.ssb, oracle.1);
        assert_eq!(best.ssb, 6);
    }

    #[test]
    fn strict_rule_also_matches_oracle() {
        let mut g = diamond();
        let cfg = SsbConfig {
            rule: EliminationRule::Strict,
            ..SsbConfig::default()
        };
        let out = ssb_search(&mut g, NodeId(0), NodeId(3), &cfg);
        assert_eq!(out.best.unwrap().ssb, 6);
    }

    #[test]
    fn disconnected_yields_no_best() {
        let mut g = Dwg::with_nodes(2);
        let out = ssb_search(&mut g, NodeId(0), NodeId(1), &SsbConfig::default());
        assert!(out.best.is_none());
        assert_eq!(out.termination, Termination::Disconnected);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn single_edge_graph() {
        let mut g = Dwg::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), c(3), c(7));
        let out = ssb_search(&mut g, NodeId(0), NodeId(1), &SsbConfig::default());
        let best = out.best.unwrap();
        assert_eq!(best.s, c(3));
        assert_eq!(best.b, c(7));
        assert_eq!(best.ssb, 10);
    }

    #[test]
    fn lambda_one_reduces_to_shortest_path() {
        let mut g = diamond();
        let cfg = SsbConfig {
            lambda: Lambda::ONE,
            ..SsbConfig::default()
        };
        let out = ssb_search(&mut g, NodeId(0), NodeId(3), &cfg);
        let best = out.best.unwrap();
        // min S = 2 via 0→1→3 regardless of the β=9 edge.
        assert_eq!(best.s, c(2));
        assert_eq!(best.ssb, 2);
        // λ=1 terminates immediately on the S bound.
        assert_eq!(out.iterations, 1);
        assert_eq!(out.termination, Termination::SBound);
    }

    #[test]
    fn lambda_zero_minimises_pure_bottleneck() {
        let mut g = diamond();
        let cfg = SsbConfig {
            lambda: Lambda::ZERO,
            ..SsbConfig::default()
        };
        let out = ssb_search(&mut g, NodeId(0), NodeId(3), &cfg);
        // Best achievable max-β: the direct edge with β=1.
        assert_eq!(out.best.unwrap().ssb, 1);
    }

    #[test]
    fn zero_beta_graph_terminates() {
        let mut g = Dwg::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), c(1), c(0));
        g.add_edge(NodeId(1), NodeId(2), c(1), c(0));
        let out = ssb_search(&mut g, NodeId(0), NodeId(2), &SsbConfig::default());
        let best = out.best.unwrap();
        assert_eq!(best.b, c(0));
        assert_eq!(best.ssb, 2);
    }

    #[test]
    fn iteration_cap_is_honoured() {
        let mut g = diamond();
        let cfg = SsbConfig {
            max_iterations: 0,
            ..SsbConfig::default()
        };
        let out = ssb_search(&mut g, NodeId(0), NodeId(3), &cfg);
        assert_eq!(out.termination, Termination::IterationCap);
        assert!(out.best.is_none());
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let mut g = diamond();
        let cfg = SsbConfig {
            record_trace: true,
            ..SsbConfig::default()
        };
        let out = ssb_search(&mut g, NodeId(0), NodeId(3), &cfg);
        assert_eq!(out.trace.len(), out.iterations);
        assert!(out.trace.iter().any(|it| it.improved));
    }

    #[test]
    fn repeated_solves_with_revive_and_scratch_are_identical() {
        // One graph, many solves: revive_all() (O(1)) between runs must
        // reproduce the fresh-graph answer bit for bit.
        let mut g = diamond();
        let fresh = ssb_search(&mut diamond(), NodeId(0), NodeId(3), &SsbConfig::default());
        let expect = fresh.best.unwrap();
        for _ in 0..5 {
            let out = ssb_search(&mut g, NodeId(0), NodeId(3), &SsbConfig::default());
            let best = out.best.unwrap();
            assert_eq!(best.ssb, expect.ssb);
            assert_eq!(best.path.edges, expect.path.edges);
            assert_eq!(out.iterations, fresh.iterations);
            g.revive_all();
        }
    }

    #[test]
    fn parallel_edge_multigraph() {
        let mut g = Dwg::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), c(1), c(100));
        g.add_edge(NodeId(0), NodeId(1), c(50), c(1));
        let out = ssb_search(&mut g, NodeId(0), NodeId(1), &SsbConfig::default());
        // SSB options: 1+100=101 vs 50+1=51.
        assert_eq!(out.best.unwrap().ssb, 51);
    }
}
