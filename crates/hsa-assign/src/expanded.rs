//! The **full-expansion** exact solver.
//!
//! The paper's adapted SSB algorithm (§5.4) works on an *expanded*
//! assignment graph E′ in which same-coloured subgraphs have been replaced
//! by composite parallel edges, and states its running time as O(|E′|).
//! This module implements the clean closed form of that idea:
//!
//! 1. **Per-colour frontiers.** The coloured cut problem decomposes by
//!    colour: a colour's cut edges live in its own uniformly-coloured
//!    subtrees, so the choices for different satellites are independent —
//!    they interact *only* through `B = max_colour Σβ`. For every satellite
//!    we enumerate the Pareto frontier of `(Σσ, Σβ)` over all ways to cover
//!    its leaves (a post-order dynamic program with Minkowski sums and
//!    dominance pruning). Each frontier point is precisely one composite
//!    edge of the paper's expanded graph — our `composites` statistic *is*
//!    |E′|.
//! 2. **Threshold sweep.** The optimum's B equals some frontier β value, so
//!    sweeping candidate thresholds θ over the union of frontier β values
//!    and, for each θ, picking per colour the cheapest point with β ≤ θ
//!    yields the exact optimum of `λ·S + (1−λ)·B`. The colours' β runs are
//!    merged once per preparation, in O(|E′| log k) for k colours, and each
//!    sweep is then one pass over the |E′| points.
//!
//! The same frontiers also answer Bokhari's objective `max(S, B)`
//! ([`solve_sb_expanded`]), which the objective-comparison experiment (T3)
//! uses.
//!
//! Dominance pruning never approximates: a dominated point (σ and β both no
//! better) can be substituted by its dominator in any solution without
//! increasing either objective component. A configurable cap guards the
//! frontier size and fails loudly ([`AssignError::FrontierOverflow`])
//! rather than degrade silently.

use crate::{AssignError, CancelToken, Prepared, Solution, SolveStats, Solver};
use hsa_graph::{Cost, Lambda};
#[cfg(test)]
use hsa_tree::SatelliteId;
use hsa_tree::{CruId, Cut, TreeEdge};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;

/// One Pareto-optimal way to cover a colour's leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierPoint {
    /// Σ σ of the chosen cut edges (host-time contribution).
    pub sigma: Cost,
    /// Σ β of the chosen cut edges (this satellite's load).
    pub beta: Cost,
    /// The chosen closed-tree edges.
    pub edges: Vec<TreeEdge>,
}

/// A Pareto frontier: sorted by β ascending with σ strictly descending.
pub type Frontier = Vec<FrontierPoint>;

/// Configuration of the full-expansion solver.
#[derive(Clone, Copy, Debug)]
pub struct ExpandedConfig {
    /// Maximum allowed size of any intermediate frontier.
    pub frontier_cap: usize,
}

impl Default for ExpandedConfig {
    fn default() -> Self {
        ExpandedConfig {
            frontier_cap: 1_000_000,
        }
    }
}

/// Sorts + prunes to the Pareto frontier (min σ for each β, then strictly
/// decreasing σ). Deterministic: ties keep the lexicographically smallest
/// edge list.
fn pareto_prune(mut pts: Vec<FrontierPoint>, cap: usize) -> Result<Frontier, AssignError> {
    pts.sort_by(|a, b| {
        a.beta
            .cmp(&b.beta)
            .then(a.sigma.cmp(&b.sigma))
            .then_with(|| a.edges.cmp(&b.edges))
    });
    let mut out: Frontier = Vec::new();
    for p in pts {
        match out.last() {
            Some(last) if p.sigma >= last.sigma => {} // dominated (β ≥, σ ≥)
            _ => out.push(p),
        }
    }
    if out.len() > cap {
        return Err(AssignError::FrontierOverflow { cap });
    }
    Ok(out)
}

/// Minkowski sum of two frontiers (σ and β add, edge lists concatenate),
/// pruned.
fn minkowski(a: &Frontier, b: &Frontier, cap: usize) -> Result<Frontier, AssignError> {
    if a.len().saturating_mul(b.len()) > cap.saturating_mul(4) {
        return Err(AssignError::FrontierOverflow { cap });
    }
    let mut pts = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            let mut edges = x.edges.clone();
            edges.extend_from_slice(&y.edges);
            pts.push(FrontierPoint {
                sigma: x.sigma + y.sigma,
                beta: x.beta + y.beta,
                edges,
            });
        }
    }
    pareto_prune(pts, cap)
}

/// All ways to cover the leaves of `c`'s subtree with cuts *at or below*
/// the edge ⟨parent(c), c⟩.
fn cover_at_or_below(
    prep: &Prepared<'_>,
    c: CruId,
    cfg: &ExpandedConfig,
) -> Result<Frontier, AssignError> {
    let mut pts_below = cover_below(prep, c, cfg)?;
    if c != prep.tree.root() {
        let e = TreeEdge::Parent(c);
        pts_below.push(FrontierPoint {
            sigma: prep.sigma.sigma(e),
            beta: prep.beta.beta(e),
            edges: vec![e],
        });
    }
    pareto_prune(pts_below, cfg.frontier_cap)
}

/// All ways to cover the leaves of `c`'s subtree with cuts strictly below
/// `c` (sensor edge for leaves; child combinations otherwise).
fn cover_below(
    prep: &Prepared<'_>,
    c: CruId,
    cfg: &ExpandedConfig,
) -> Result<Frontier, AssignError> {
    if prep.tree.is_leaf(c) {
        let e = TreeEdge::Sensor(c);
        return Ok(vec![FrontierPoint {
            sigma: prep.sigma.sigma(e),
            beta: prep.beta.beta(e),
            edges: vec![e],
        }]);
    }
    let mut acc: Frontier = seed_frontier();
    for &ch in prep.tree.children(c) {
        let child_frontier = cover_at_or_below(prep, ch, cfg)?;
        acc = minkowski(&acc, &child_frontier, cfg.frontier_cap)?;
    }
    Ok(acc)
}

/// The zero-point frontier every colour accumulation starts from.
fn seed_frontier() -> Frontier {
    vec![FrontierPoint {
        sigma: Cost::ZERO,
        beta: Cost::ZERO,
        edges: Vec::new(),
    }]
}

/// Per-colour Pareto frontiers for an instance, built by the *nested*
/// cover DP (every point owns its edge list, every frontier is a `Vec`).
/// Unused satellites get an empty-edge zero point.
///
/// This is the reference the flat kernel behind [`FrontierSet::prepare`]
/// is property-tested against (`tests/proptest_layout.rs`); no solver
/// calls it.
pub fn colour_frontiers(
    prep: &Prepared<'_>,
    cfg: &ExpandedConfig,
) -> Result<Vec<Frontier>, AssignError> {
    (0..prep.n_satellites() as usize)
        .map(|s| {
            let mut acc = seed_frontier();
            for &c in prep.tops.of(s) {
                let f = if c == prep.tree.root() {
                    cover_below(prep, c, cfg)?
                } else {
                    cover_at_or_below(prep, c, cfg)?
                };
                acc = minkowski(&acc, &f, cfg.frontier_cap)?;
            }
            Ok(acc)
        })
        .collect()
}

/// The flat cover DP's working memory: a stack of Pareto frontiers in a
/// [`FrontierSet`]'s own CSR layout (σ, β, edge offsets, edges), plus the
/// Minkowski candidate buffer. One stack serves one whole preparation, so
/// the DP allocates a handful of growing vectors instead of one `Vec` per
/// candidate point and per intermediate frontier.
///
/// It computes exactly what the nested reference ([`colour_frontiers`])
/// computes, point for point and edge for edge:
///
/// * every frontier on the stack is pruned (β strictly ascending, σ
///   strictly descending), as every operand of the nested DP is;
/// * a Minkowski candidate is a `(β, σ, i, j)` index tuple, and its edges
///   (point `i`'s, then point `j`'s) are copied only if it survives;
/// * ties on (β, σ) compare `i`'s edge run and then `j`'s, which orders
///   them as the nested DP's comparison of the concatenations does: two
///   covers of one leaf set are never proper prefixes of each other, so
///   the concatenations differ inside the first run unless it is equal;
/// * a one-point operand shifts the other frontier without a sort when no
///   sum saturates, since the shift keeps both strict orders and prunes
///   nothing;
/// * the frontier cap is checked where the nested DP checks it.
///
/// Once every colour is folded, the stack holds one frontier per colour
/// in colour order — the finished arenas ([`FrontierStack::finish`]).
struct FrontierStack<'p> {
    prep: &'p Prepared<'p>,
    /// The frontier cap ([`ExpandedConfig::frontier_cap`]).
    cap: usize,
    /// Polled once per visited node.
    cancel: Option<&'p CancelToken>,
    sigma: Vec<Cost>,
    beta: Vec<Cost>,
    /// Point `p` owns `edges[edge_starts[p]..edge_starts[p+1]]`.
    edge_starts: Vec<u32>,
    edges: Vec<TreeEdge>,
    /// The first point of each frontier on the stack, bottom to top.
    frames: Vec<u32>,
    /// Minkowski candidates `(β, σ, i, j)`, reused across sums.
    cands: Vec<(Cost, Cost, u32, u32)>,
}

impl<'p> FrontierStack<'p> {
    /// An empty stack with room for a typical DP over the instance's tree,
    /// so the fold rarely regrows a vector.
    fn new(
        prep: &'p Prepared<'p>,
        cfg: &ExpandedConfig,
        cancel: Option<&'p CancelToken>,
    ) -> FrontierStack<'p> {
        let nodes = prep.tree.len();
        let mut edge_starts = Vec::with_capacity(2 * nodes + 1);
        edge_starts.push(0);
        FrontierStack {
            prep,
            cap: cfg.frontier_cap,
            cancel,
            sigma: Vec::with_capacity(2 * nodes),
            beta: Vec::with_capacity(2 * nodes),
            edge_starts,
            edges: Vec::with_capacity(8 * nodes),
            frames: Vec::new(),
            cands: Vec::with_capacity(64),
        }
    }

    fn len(&self) -> usize {
        self.sigma.len()
    }

    fn edges_of(&self, p: usize) -> &[TreeEdge] {
        &self.edges[self.edge_starts[p] as usize..self.edge_starts[p + 1] as usize]
    }

    fn top_start(&self) -> usize {
        *self.frames.last().expect("a frontier on the stack") as usize
    }

    /// Fails when the frontier from `lo` to the top exceeds the cap.
    fn check_cap(&self, lo: usize) -> Result<(), AssignError> {
        if self.len() - lo > self.cap {
            return Err(AssignError::FrontierOverflow { cap: self.cap });
        }
        Ok(())
    }

    /// Pushes a one-point frontier (a sensor edge, or the zero seed).
    fn push_point(&mut self, sigma: Cost, beta: Cost, edges: &[TreeEdge]) {
        self.frames.push(self.len() as u32);
        self.sigma.push(sigma);
        self.beta.push(beta);
        self.edges.extend_from_slice(edges);
        self.edge_starts.push(self.edges.len() as u32);
    }

    /// Pushes a copy of an already-built colour frontier, rebasing its
    /// edge offsets (the clean colours of an incremental refresh).
    fn push_copy(&mut self, f: ColourFrontier<'_>) {
        self.frames.push(self.len() as u32);
        self.sigma.extend_from_slice(f.sigma);
        self.beta.extend_from_slice(f.beta);
        let (lo, hi) = (f.edge_starts[0], f.edge_starts[f.len()]);
        let base = self.edges.len() as u32;
        self.edges
            .extend_from_slice(&f.edges[lo as usize..hi as usize]);
        // Rebase before subtracting: the new base may be below `lo`.
        self.edge_starts
            .extend(f.edge_starts[1..].iter().map(|&e| e - lo + base));
    }

    /// Appends the point `i + j` past the top of the stack.
    fn emit_sum(&mut self, i: usize, j: usize) {
        self.sigma.push(self.sigma[i] + self.sigma[j]);
        self.beta.push(self.beta[i] + self.beta[j]);
        for p in [i, j] {
            let (lo, hi) = (self.edge_starts[p], self.edge_starts[p + 1]);
            self.edges.extend_from_within(lo as usize..hi as usize);
        }
        self.edge_starts.push(self.edges.len() as u32);
    }

    /// True when point `p` is the zero seed (no edges, σ = β = 0).
    fn is_zero_seed(&self, p: usize) -> bool {
        self.sigma[p] == Cost::ZERO
            && self.beta[p] == Cost::ZERO
            && self.edge_starts[p] == self.edge_starts[p + 1]
    }

    /// True when adding point `p` to every point of the frontier `f` can
    /// saturate neither σ (largest at `f.start`) nor β (largest at the end).
    fn shift_is_exact(&self, p: usize, f: Range<usize>) -> bool {
        let fits = |a: Cost, b: Cost| a.ticks().checked_add(b.ticks()).is_some();
        fits(self.sigma[p], self.sigma[f.start]) && fits(self.beta[p], self.beta[f.end - 1])
    }

    /// Replaces the top two frontiers by their pruned Minkowski sum.
    fn minkowski_top(&mut self) -> Result<(), AssignError> {
        let b_lo = self.frames.pop().expect("two frontiers on the stack") as usize;
        let a_lo = self.top_start();
        let tail = self.len();
        if (b_lo - a_lo).saturating_mul(tail - b_lo) > self.cap.saturating_mul(4) {
            return Err(AssignError::FrontierOverflow { cap: self.cap });
        }
        if b_lo - a_lo == 1 && self.is_zero_seed(a_lo) {
            // Adding the zero seed changes nothing: drop it and keep B.
            self.settle(a_lo, b_lo);
        } else {
            self.emit_minkowski(a_lo..b_lo, b_lo..tail);
            self.settle(a_lo, tail);
        }
        self.check_cap(a_lo)
    }

    /// Appends the pruned Minkowski sum of the frontiers `a` and `b` past
    /// the top of the stack.
    fn emit_minkowski(&mut self, a: Range<usize>, b: Range<usize>) {
        if a.len() == 1 && self.shift_is_exact(a.start, b.clone()) {
            for j in b {
                self.emit_sum(a.start, j);
            }
            return;
        }
        if b.len() == 1 && self.shift_is_exact(b.start, a.clone()) {
            for i in a {
                self.emit_sum(i, b.start);
            }
            return;
        }
        let mut cands = std::mem::take(&mut self.cands);
        cands.clear();
        for i in a {
            for j in b.clone() {
                let (sigma, beta) = (self.sigma[i] + self.sigma[j], self.beta[i] + self.beta[j]);
                cands.push((beta, sigma, i as u32, j as u32));
            }
        }
        cands.sort_unstable_by(|x, y| {
            (x.0, x.1)
                .cmp(&(y.0, y.1))
                .then_with(|| self.edges_of(x.2 as usize).cmp(self.edges_of(y.2 as usize)))
                .then_with(|| self.edges_of(x.3 as usize).cmp(self.edges_of(y.3 as usize)))
        });
        let mut last: Option<Cost> = None;
        for &(_, sigma, i, j) in &cands {
            if last.is_some_and(|l| sigma >= l) {
                continue; // dominated (β ≥, σ ≥)
            }
            last = Some(sigma);
            self.emit_sum(i as usize, j as usize);
        }
        self.cands = cands;
    }

    /// Moves the points from `tail` on down to `base`, dropping the ones in
    /// between (the operands a sum has consumed).
    fn settle(&mut self, base: usize, tail: usize) {
        let (e_base, e_tail) = (self.edge_starts[base], self.edge_starts[tail]);
        self.sigma.drain(base..tail);
        self.beta.drain(base..tail);
        self.edges.drain(e_base as usize..e_tail as usize);
        self.edge_starts.drain(base + 1..tail + 1);
        for e in &mut self.edge_starts[base + 1..] {
            *e = *e - e_tail + e_base;
        }
    }

    /// Adds the one-edge cover ⟨parent(c), c⟩ to the top frontier and
    /// prunes: the nested DP's sort-and-prune of "the frontier plus one
    /// point", done as an insertion. Points before the new one's sorted
    /// position keep their place; it survives unless its predecessor has
    /// σ ≤ its own, and then evicts the run of successors with σ ≥ its own.
    fn add_parent_edge(&mut self, c: CruId) -> Result<(), AssignError> {
        let e = TreeEdge::Parent(c);
        let (sigma, beta) = (self.prep.sigma.sigma(e), self.prep.beta.beta(e));
        let (lo, hi) = (self.top_start(), self.len());
        // β strictly ascends, so at most one point ties on β and only it
        // needs the (σ, edges) comparison; a full tie sorts the new point
        // last, as the nested DP's stable sort of "frontier, then point"
        // does.
        let mut k = lo + self.beta[lo..hi].partition_point(|&b| b < beta);
        if k < hi
            && self.beta[k] == beta
            && (self.sigma[k], self.edges_of(k)) <= (sigma, std::slice::from_ref(&e))
        {
            k += 1;
        }
        if k == lo || self.sigma[k - 1] > sigma {
            let m = k + self.sigma[k..hi].partition_point(|&s| s >= sigma);
            let (e_k, e_m) = (self.edge_starts[k], self.edge_starts[m]);
            self.sigma.splice(k..m, [sigma]);
            self.beta.splice(k..m, [beta]);
            self.edges.splice(e_k as usize..e_m as usize, [e]);
            self.edge_starts.splice(k + 1..m + 1, [e_k + 1]);
            for s in &mut self.edge_starts[k + 2..] {
                *s = *s - e_m + e_k + 1;
            }
        }
        self.check_cap(lo)
    }

    /// Pushes every cover of `c`'s leaves by cuts *at or below* the edge
    /// ⟨parent(c), c⟩; `c` is never the root (callers cover the root
    /// strictly below).
    fn cover_at_or_below(&mut self, c: CruId) -> Result<(), AssignError> {
        self.cover_below(c)?;
        self.add_parent_edge(c)
    }

    /// Pushes every cover of `c`'s leaves by cuts strictly below `c`
    /// (sensor edge for leaves; child combinations otherwise).
    ///
    /// Polls `cancel` once per visited node — the Minkowski fold between
    /// two polls is bounded by the frontier cap, so a cancelled prepare
    /// unwinds promptly instead of finishing a colour.
    fn cover_below(&mut self, c: CruId) -> Result<(), AssignError> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(AssignError::Cancelled);
        }
        let prep = self.prep;
        if prep.tree.is_leaf(c) {
            let e = TreeEdge::Sensor(c);
            self.push_point(prep.sigma.sigma(e), prep.beta.beta(e), &[e]);
            return Ok(());
        }
        self.push_point(Cost::ZERO, Cost::ZERO, &[]);
        for &ch in prep.tree.children(c) {
            self.cover_at_or_below(ch)?;
            self.minkowski_top()?;
        }
        Ok(())
    }

    /// Pushes colour `s`'s frontier: the zero seed folded with the cover
    /// of each of its regions, in pre-order.
    fn push_colour(&mut self, s: usize) -> Result<(), AssignError> {
        let prep = self.prep;
        self.push_point(Cost::ZERO, Cost::ZERO, &[]);
        for &c in prep.tops.of(s) {
            if c == prep.tree.root() {
                // Root cannot be cut above; cover strictly below.
                self.cover_below(c)?;
            } else {
                self.cover_at_or_below(c)?;
            }
            self.minkowski_top()?;
        }
        Ok(())
    }

    /// Turns a stack holding one frontier per colour into the set, trimming
    /// the arenas to their final size (a cached set should not keep the
    /// DP's peak capacity), and merges the colours' β runs into the θ
    /// ladder ([`merge_by_beta`]).
    fn finish(self) -> FrontierSet {
        let mut point_starts = self.frames;
        point_starts.push(self.sigma.len() as u32);
        let mut fs = FrontierSet {
            merged: merge_by_beta(&point_starts, &self.beta),
            point_starts,
            composites: self.beta.len() as u64,
            sigma: self.sigma,
            beta: self.beta,
            edge_starts: self.edge_starts,
            edges: self.edges,
        };
        fs.sigma.shrink_to_fit();
        fs.beta.shrink_to_fit();
        fs.edge_starts.shrink_to_fit();
        fs.edges.shrink_to_fit();
        fs
    }
}

/// Materialises the picks at a threshold the sweep found feasible, as a
/// cut: per colour, the cheapest-σ point with β ≤ θ, which is the last
/// point with β ≤ θ (β strictly ascends, σ strictly descends), found by a
/// binary search over the colour's `beta` run. The sweeps call it only
/// for the thresholds they pick.
pub(crate) fn pick_for_threshold(prep: &Prepared<'_>, fs: &FrontierSet, theta: Cost) -> Cut {
    let mut edges: Vec<TreeEdge> = Vec::new();
    for f in fs.colours() {
        let picked = f.beta.partition_point(|&b| b <= theta).checked_sub(1);
        edges.extend_from_slice(
            f.point_edges(picked.expect("the sweep found this threshold feasible")),
        );
    }
    // Frontier points are valid per-colour partial cuts and colours'
    // regions are disjoint, so their union is a valid cut by construction:
    // take the walk-free path (`trusted`, no re-validation).
    Cut::trusted(&prep.tree, edges)
}

/// Each point's colour, for all points in ascending β order, with equal
/// β values in colour order: a k-way merge of the colours' β runs, which
/// already ascend strictly, through a heap of the k run heads. The
/// `m`-th entry naming colour `c` stands for `c`'s `m`-th point, so four
/// bytes per point encode the whole θ ladder.
fn merge_by_beta(point_starts: &[u32], beta: &[Cost]) -> Vec<u32> {
    let mut next = point_starts.to_vec();
    let mut heads: BinaryHeap<Reverse<(Cost, u32)>> = (0..point_starts.len() - 1)
        .filter(|&s| point_starts[s] < point_starts[s + 1])
        .map(|s| Reverse((beta[point_starts[s] as usize], s as u32)))
        .collect();
    let mut merged = Vec::with_capacity(beta.len());
    while let Some(mut head) = heads.peek_mut() {
        let s = head.0 .1 as usize;
        merged.push(s as u32);
        next[s] += 1;
        if next[s] < point_starts[s + 1] {
            head.0 .0 = beta[next[s] as usize];
        } else {
            PeekMut::pop(head);
        }
    }
    merged
}

/// The one θ walk behind every sweep ([`solve_with_frontiers`],
/// [`crate::lambda_frontier_with`], [`solve_sb_expanded`]): calls
/// `visit(θ, S)` for every feasible threshold in ascending order and
/// returns how many it visited (`SolveStats::evaluated`).
///
/// The thresholds are the distinct frontier β values. The walk takes the
/// points once each, in the set's merged β order, and advances only the
/// colour that owns the point, so it costs one step per point however
/// many colours there are. A threshold is visited after its last point,
/// once every colour has a point with β ≤ θ. `S` is the Σσ of each
/// colour's cheapest such point, its last one (β strictly ascends, σ
/// strictly descends); it is kept exact in `u128` as picks advance and
/// clamped to [`Cost::MAX`] when read, which is the saturating sum of the
/// picks (every term is non-negative). The matching B is θ itself: θ is
/// some colour's β, that colour picks that very point, and every other
/// pick has β ≤ θ.
pub(crate) fn sweep_thresholds(fs: &FrontierSet, mut visit: impl FnMut(Cost, Cost)) -> u64 {
    let mut unmet = fs.n_colours();
    let mut sum = 0u128;
    let mut evaluated = 0u64;
    let mut points = fs.points_by_beta().peekable();
    while let Some((c, p)) = points.next() {
        // Point `p` replaces colour `c`'s previous pick, if it had one.
        if p == fs.point_starts[c] as usize {
            unmet -= 1;
        } else {
            sum -= u128::from(fs.sigma[p - 1].ticks());
        }
        sum += u128::from(fs.sigma[p].ticks());
        let theta = fs.beta[p];
        if unmet == 0 && points.peek().is_none_or(|&(_, q)| fs.beta[q] != theta) {
            evaluated += 1;
            visit(theta, Cost::new(u64::try_from(sum).unwrap_or(u64::MAX)));
        }
    }
    evaluated
}

/// A borrowed view of one colour's Pareto frontier inside a
/// [`FrontierSet`]'s flat arenas.
///
/// The per-point fields live in parallel arrays (`sigma[i]`/`beta[i]` are
/// point `i`'s coordinates; β strictly ascending, σ strictly descending),
/// so threshold scans touch one contiguous `beta` run per colour instead
/// of striding over boxed points.
#[derive(Clone, Copy, Debug)]
pub struct ColourFrontier<'a> {
    /// Σσ of each point (strictly descending).
    pub sigma: &'a [Cost],
    /// Σβ of each point (strictly ascending).
    pub beta: &'a [Cost],
    /// Absolute offsets into `edges`; point `i` owns
    /// `edges[edge_starts[i]..edge_starts[i+1]]`. Length `len() + 1`.
    edge_starts: &'a [u32],
    /// The whole edge arena (shared across colours).
    edges: &'a [TreeEdge],
}

impl<'a> ColourFrontier<'a> {
    /// Number of Pareto points.
    pub fn len(&self) -> usize {
        self.sigma.len()
    }

    /// True when the colour has no feasible cover at all.
    pub fn is_empty(&self) -> bool {
        self.sigma.is_empty()
    }

    /// The closed-tree edges of point `i`.
    pub fn point_edges(&self, i: usize) -> &'a [TreeEdge] {
        &self.edges[self.edge_starts[i] as usize..self.edge_starts[i + 1] as usize]
    }

    /// Materialises point `i` in the nested representation.
    pub fn point(&self, i: usize) -> FrontierPoint {
        FrontierPoint {
            sigma: self.sigma[i],
            beta: self.beta[i],
            edges: self.point_edges(i).to_vec(),
        }
    }
}

impl PartialEq for ColourFrontier<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.sigma == other.sigma
            && self.beta == other.beta
            && (0..self.len()).all(|i| self.point_edges(i) == other.point_edges(i))
    }
}

impl Eq for ColourFrontier<'_> {}

/// The λ-independent half of the full-expansion solver: per-colour Pareto
/// frontiers plus the sorted candidate thresholds.
///
/// Preparing a `FrontierSet` is the expensive part of every
/// [`Expanded`] solve (the post-order Minkowski DP); the per-λ remainder
/// ([`solve_with_frontiers`]) is a single sweep over the thresholds. Batch
/// services cache one `FrontierSet` per instance and answer each λ query
/// from it — byte-identically to a fresh [`Expanded::solve`], at a fraction
/// of the cost.
///
/// Internally the points of all colours live in **flat CSR-style arenas**:
/// one contiguous `sigma`/`beta` pair of arrays plus one edge arena, with
/// per-colour offset ranges (`point_starts`) — not a `Vec` of per-colour
/// `Vec`s of boxed points. The cover DP builds them in that same layout
/// (a stack of frontiers whose bottom entries become the colours), the
/// threshold sweep scans two dense arrays, and the per-query cache
/// footprint is three allocations instead of O(points). Access goes
/// through [`FrontierSet::colour`] views; the nested representation is only
/// materialised on demand ([`FrontierSet::to_nested`], the equivalence
/// oracle of the test suite).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierSet {
    /// Colour `s`'s points occupy `point_starts[s]..point_starts[s+1]` in
    /// the point arenas. Length `n_colours + 1`.
    point_starts: Vec<u32>,
    /// Σσ per point, colour-major.
    sigma: Vec<Cost>,
    /// Σβ per point, colour-major (strictly ascending within a colour).
    beta: Vec<Cost>,
    /// Absolute offsets into `edges`; point `p` owns
    /// `edges[edge_starts[p]..edge_starts[p+1]]`. Length `points + 1`.
    edge_starts: Vec<u32>,
    /// Every point's closed-tree edges, concatenated.
    edges: Vec<TreeEdge>,
    /// Each point's colour, for all points in ascending β order
    /// ([`merge_by_beta`]): the θ ladder the sweep walks.
    merged: Vec<u32>,
    /// Total frontier points — the paper's |E′|.
    pub composites: u64,
}

impl FrontierSet {
    /// Number of colours (satellites) the set covers.
    pub fn n_colours(&self) -> usize {
        self.point_starts.len() - 1
    }

    /// Colour `s`'s frontier as a borrowed arena view.
    pub fn colour(&self, s: usize) -> ColourFrontier<'_> {
        let (lo, hi) = (
            self.point_starts[s] as usize,
            self.point_starts[s + 1] as usize,
        );
        ColourFrontier {
            sigma: &self.sigma[lo..hi],
            beta: &self.beta[lo..hi],
            edge_starts: &self.edge_starts[lo..=hi],
            edges: &self.edges,
        }
    }

    /// All colours' frontiers, in colour order.
    pub fn colours(&self) -> impl Iterator<Item = ColourFrontier<'_>> {
        (0..self.n_colours()).map(move |s| self.colour(s))
    }

    /// The candidate thresholds, ascending and distinct: every frontier β
    /// value, read off the merged order the sweep walks (tests and
    /// diagnostics; the sweep never builds it).
    pub fn thetas(&self) -> Vec<Cost> {
        let mut thetas: Vec<Cost> = self.points_by_beta().map(|(_, p)| self.beta[p]).collect();
        thetas.dedup();
        thetas
    }

    /// Every point as `(colour, arena index)` in ascending β order, equal
    /// β values in colour order: the walk over `merged`, where the `m`-th
    /// entry naming a colour is that colour's `m`-th point.
    fn points_by_beta(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut next = self.point_starts.clone();
        self.merged.iter().map(move |&c| {
            let c = c as usize;
            next[c] += 1;
            (c, next[c] as usize - 1)
        })
    }

    /// Materialises the nested `Vec<Frontier>` representation (tests and
    /// the layout-equivalence oracle; the hot paths never do this).
    pub fn to_nested(&self) -> Vec<Frontier> {
        self.colours()
            .map(|f| (0..f.len()).map(|i| f.point(i)).collect())
            .collect()
    }

    /// Computes the frontiers and thresholds for an instance.
    pub fn prepare(prep: &Prepared<'_>, cfg: &ExpandedConfig) -> Result<FrontierSet, AssignError> {
        FrontierSet::build(prep, cfg, None, None)
    }

    /// Like [`FrontierSet::prepare`], but polls `cancel` once per visited
    /// tree node inside the cover DP and aborts with
    /// [`AssignError::Cancelled`] when it fires. An uncancelled run is
    /// byte-identical to [`FrontierSet::prepare`] — the polls change no
    /// fold order. This is the exact arm of the racing portfolio.
    pub fn prepare_cancellable(
        prep: &Prepared<'_>,
        cfg: &ExpandedConfig,
        cancel: &CancelToken,
    ) -> Result<FrontierSet, AssignError> {
        FrontierSet::build(prep, cfg, None, Some(cancel))
    }

    /// Recomputes only the colours flagged `dirty`, reusing every clean
    /// colour's frontier in `self` verbatim; thresholds and the composite
    /// count are re-derived from the merged set.
    ///
    /// Correctness contract (established by [`crate::dirty_colours`], and
    /// property-tested end to end in the `hsa-engine` crate): a colour's
    /// frontier depends only on its own top-node regions and the σ/β labels
    /// of the edges inside them, so a colour whose regions and labels are
    /// unchanged has, by construction, an unchanged frontier. `prep` must
    /// be the *updated* instance and `dirty.len()` its satellite count;
    /// `self` must come from the same tree with the same satellite count.
    ///
    /// The cover DP re-runs **only** for the dirty colours (clean colours'
    /// arena slices are block-copied, never re-enumerated point by point —
    /// this is the `Session` apply hot path). On error, `self` is
    /// unchanged: the merged set is built to the side and swapped in only
    /// once every dirty colour has been rebuilt.
    pub fn refresh_in_place(
        &mut self,
        prep: &Prepared<'_>,
        cfg: &ExpandedConfig,
        dirty: &[bool],
    ) -> Result<(), AssignError> {
        let n = prep.n_satellites() as usize;
        assert_eq!(dirty.len(), n, "dirty flags must cover every satellite");
        assert_eq!(
            self.n_colours(),
            n,
            "frontier set is for a different platform"
        );
        if !dirty.contains(&true) {
            return Ok(()); // observed-clean apply: nothing to rebuild
        }
        *self = FrontierSet::build(prep, cfg, Some((self, dirty)), None)?;
        Ok(())
    }

    /// Runs the flat cover DP ([`FrontierStack`]) for every colour, or,
    /// given `reuse`, only for the colours it flags dirty, copying the
    /// others from its set. The one implementation behind the from-scratch
    /// and incremental paths, so both produce identical frontiers per
    /// colour by construction.
    fn build(
        prep: &Prepared<'_>,
        cfg: &ExpandedConfig,
        reuse: Option<(&FrontierSet, &[bool])>,
        cancel: Option<&CancelToken>,
    ) -> Result<FrontierSet, AssignError> {
        let mut stack = FrontierStack::new(prep, cfg, cancel);
        for s in 0..prep.n_satellites() as usize {
            match reuse {
                Some((old, dirty)) if !dirty[s] => stack.push_copy(old.colour(s)),
                _ => stack.push_colour(s)?,
            }
        }
        Ok(stack.finish())
    }
}

/// Solves one λ query from a prepared [`FrontierSet`]: the threshold sweep
/// half of the full-expansion solver. Produces exactly the answer (cut,
/// objective, stats) that [`Expanded::solve`] computes from scratch.
pub fn solve_with_frontiers(
    prep: &Prepared<'_>,
    fs: &FrontierSet,
    lambda: Lambda,
) -> Result<Solution, AssignError> {
    // The first θ with the smallest objective wins (strict `<`); only its
    // picks are materialised.
    let mut best: Option<(u128, Cost)> = None;
    let evaluated = sweep_thresholds(fs, |theta, s| {
        let obj = lambda.ssb_scaled(s, theta);
        if best.is_none_or(|(o, _)| obj < o) {
            best = Some((obj, theta));
        }
    });
    let (_, theta) = best.ok_or(AssignError::NoFeasibleAssignment)?;
    Solution::from_cut_in(
        prep,
        pick_for_threshold(prep, fs, theta),
        lambda,
        SolveStats {
            composites: fs.composites,
            evaluated,
            ..SolveStats::default()
        },
    )
}

/// The full-expansion exact solver for the SSB objective.
#[derive(Clone, Copy, Debug, Default)]
pub struct Expanded {
    /// Frontier configuration.
    pub config: ExpandedConfig,
}

impl Solver for Expanded {
    fn name(&self) -> &'static str {
        "expanded"
    }

    fn solve_cancellable(
        &self,
        prep: &Prepared<'_>,
        lambda: Lambda,
        cancel: &CancelToken,
    ) -> Result<Solution, AssignError> {
        let fs = FrontierSet::prepare_cancellable(prep, &self.config, cancel)?;
        solve_with_frontiers(prep, &fs, lambda)
    }
}

/// Exact solver for Bokhari's `max(S, B)` objective on the coloured
/// problem, reusing the same frontiers (used by the T3 experiment).
pub fn solve_sb_expanded(
    prep: &Prepared<'_>,
    config: &ExpandedConfig,
) -> Result<(Solution, Cost), AssignError> {
    let fs = FrontierSet::prepare(prep, config)?;
    let mut best: Option<(Cost, Cost)> = None;
    sweep_thresholds(&fs, |theta, s| {
        let sb = s.max(theta);
        if best.is_none_or(|(o, _)| sb < o) {
            best = Some((sb, theta));
        }
    });
    let (sb, theta) = best.ok_or(AssignError::NoFeasibleAssignment)?;
    let sol = Solution::from_cut_in(
        prep,
        pick_for_threshold(prep, &fs, theta),
        // Report with λ=½ so `objective` is the S+B delay of the SB-optimal
        // partition — what T3 compares.
        Lambda::HALF,
        SolveStats {
            composites: fs.composites,
            ..SolveStats::default()
        },
    )?;
    Ok((sol, sb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForce;
    use hsa_tree::figures::fig2_tree;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    #[test]
    fn pareto_prune_keeps_only_nondominated() {
        let pts = vec![
            FrontierPoint {
                sigma: c(5),
                beta: c(1),
                edges: vec![],
            },
            FrontierPoint {
                sigma: c(4),
                beta: c(2),
                edges: vec![],
            },
            FrontierPoint {
                sigma: c(6),
                beta: c(2),
                edges: vec![],
            }, // dominated by (4,2)
            FrontierPoint {
                sigma: c(4),
                beta: c(3),
                edges: vec![],
            }, // dominated by (4,2)
            FrontierPoint {
                sigma: c(1),
                beta: c(9),
                edges: vec![],
            },
        ];
        let f = pareto_prune(pts, 100).unwrap();
        let pairs: Vec<(u64, u64)> = f
            .iter()
            .map(|p| (p.sigma.ticks(), p.beta.ticks()))
            .collect();
        assert_eq!(pairs, vec![(5, 1), (4, 2), (1, 9)]);
    }

    #[test]
    fn frontier_cap_triggers() {
        let pts: Vec<FrontierPoint> = (0..10)
            .map(|i| FrontierPoint {
                sigma: c(100 - i),
                beta: c(i),
                edges: vec![],
            })
            .collect();
        assert!(matches!(
            pareto_prune(pts, 3),
            Err(AssignError::FrontierOverflow { cap: 3 })
        ));
    }

    #[test]
    fn matches_brute_force_on_the_paper_instance() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        for lambda in [
            Lambda::HALF,
            Lambda::ONE,
            Lambda::ZERO,
            Lambda::new(1, 3).unwrap(),
        ] {
            let exact = BruteForce::default().solve(&prep, lambda).unwrap();
            let fast = Expanded::default().solve(&prep, lambda).unwrap();
            assert_eq!(fast.objective, exact.objective, "λ={lambda}");
        }
    }

    #[test]
    fn sb_objective_on_paper_instance_matches_brute_force() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        // Brute-force the SB objective directly.
        let mut best = Cost::MAX;
        hsa_tree::for_each_cut(&t, &|e| prep.colouring.cuttable(e), &mut |cut| {
            let s = hsa_tree::host_time_of_cut(&t, &m, cut.edges());
            let b = hsa_tree::bottleneck_of_cut(
                &t,
                &m,
                |e| prep.colouring.edge_colour(e).satellite(),
                cut.edges(),
            );
            best = best.min(s.max(b));
        });
        let (_sol, sb) = solve_sb_expanded(&prep, &ExpandedConfig::default()).unwrap();
        assert_eq!(sb, best);
    }

    #[test]
    fn composites_are_counted() {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let sol = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        assert!(
            sol.stats.composites >= 4,
            "one composite per used colour at least"
        );
    }

    #[test]
    fn single_node_tree() {
        let t = hsa_tree::TreeBuilder::new("only").build();
        let mut m = hsa_tree::CostModel::zeroed(&t, 1);
        m.set_host_time(CruId(0), c(7));
        m.pin_leaf(CruId(0), SatelliteId(0), c(3));
        let prep = Prepared::new(&t, &m).unwrap();
        let sol = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        // Only cut: sensor edge. S = 7, B = 3 → delay 10.
        assert_eq!(sol.report.end_to_end, c(10));
    }
}
