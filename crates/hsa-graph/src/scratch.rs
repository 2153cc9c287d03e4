//! Reusable solver workspace — the allocation-free core of repeated solves.
//!
//! Every Dijkstra run used to allocate three fresh `vec!`s (dist, pred,
//! done) plus a `BinaryHeap`; under batch traffic those allocations dominate
//! small-instance solve time. [`SolveScratch`] owns the buffers once and
//! recycles them with **epoch stamping**: instead of clearing O(|V|) memory
//! between runs, a run bumps a generation counter and treats any slot whose
//! stamp differs from the current epoch as "unset". Resetting the workspace
//! is therefore O(1) regardless of how large previous problems were.
//!
//! One search builds one scratch and reuses it across its inner runs: the
//! Dijkstra runs ([`crate::dijkstra::shortest_path_in`]) of an SSB/SB
//! candidate-eliminate loop ([`crate::ssb_search`], [`crate::sb_search`])
//! or a threshold sweep, and the per-iteration gap-DAG DP of the coloured
//! solver in `hsa-assign`.

use crate::Cost;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel meaning "no predecessor recorded" (the search source).
const NO_PRED: u32 = u32::MAX;

/// A reusable workspace for shortest-path style searches.
///
/// Buffers grow monotonically to the largest instance seen and are reused
/// across calls; [`SolveScratch::begin`] starts a new run in O(1) by
/// bumping the internal epoch.
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    /// Current run's generation stamp.
    epoch: u32,
    /// Per-slot stamp; `dist`/`pred` are valid only where `stamp == epoch`.
    stamp: Vec<u32>,
    /// Tentative distances (valid where stamped).
    dist: Vec<Cost>,
    /// Predecessor edge index (valid where stamped; `NO_PRED` = none).
    pred: Vec<u32>,
    /// Settled stamp; a slot is settled iff `done == epoch`.
    done: Vec<u32>,
    /// The frontier heap, cleared (not reallocated) per run.
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
    /// Free-form edge-index buffer for elimination sweeps.
    pub edge_buf: Vec<u32>,
    /// Free-form cost buffer (e.g. per-colour load sums).
    pub cost_buf: Vec<Cost>,
}

impl SolveScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Starts a new search over `n` slots. O(1) unless the buffers must
    /// grow; previously written distances become invisible via the epoch
    /// bump rather than by clearing.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, Cost::MAX);
            self.pred.resize(n, NO_PRED);
            self.done.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Generation wrap: clear the stamps once every 2³²−1 runs.
            self.stamp.fill(0);
            self.done.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
    }

    /// The tentative distance of slot `i` (`Cost::MAX` when unset).
    #[inline]
    pub fn dist(&self, i: usize) -> Cost {
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            Cost::MAX
        }
    }

    /// Seeds slot `i` with distance `d` and no predecessor.
    #[inline]
    pub fn seed(&mut self, i: usize, d: Cost) {
        self.stamp[i] = self.epoch;
        self.dist[i] = d;
        self.pred[i] = NO_PRED;
    }

    /// Relaxes slot `i` to distance `d` via predecessor edge `pred`;
    /// returns `true` when `d` strictly improved the tentative distance.
    #[inline]
    pub fn improve(&mut self, i: usize, d: Cost, pred: u32) -> bool {
        if d < self.dist(i) {
            self.stamp[i] = self.epoch;
            self.dist[i] = d;
            self.pred[i] = pred;
            true
        } else {
            false
        }
    }

    /// The predecessor edge index recorded for slot `i`, if any.
    #[inline]
    pub fn pred(&self, i: usize) -> Option<u32> {
        if self.stamp[i] == self.epoch && self.pred[i] != NO_PRED {
            Some(self.pred[i])
        } else {
            None
        }
    }

    /// Whether slot `i` is settled in the current run.
    #[inline]
    pub fn is_done(&self, i: usize) -> bool {
        self.done[i] == self.epoch
    }

    /// Settles slot `i`.
    #[inline]
    pub fn mark_done(&mut self, i: usize) {
        self.done[i] = self.epoch;
    }

    /// Pushes a `(distance, node)` frontier entry.
    #[inline]
    pub fn push(&mut self, d: Cost, node: u32) {
        self.heap.push(Reverse((d, node)));
    }

    /// Pops the closest frontier entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cost, u32)> {
        self.heap.pop().map(|Reverse(x)| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bump_invalidates_previous_run() {
        let mut ws = SolveScratch::new();
        ws.begin(4);
        ws.seed(0, Cost::new(0));
        assert!(ws.improve(2, Cost::new(7), 5));
        ws.mark_done(2);
        assert_eq!(ws.dist(2), Cost::new(7));
        assert_eq!(ws.pred(2), Some(5));
        assert!(ws.is_done(2));

        ws.begin(4);
        assert_eq!(ws.dist(2), Cost::MAX);
        assert_eq!(ws.pred(2), None);
        assert!(!ws.is_done(2));
        assert_eq!(ws.dist(0), Cost::MAX);
    }

    #[test]
    fn improve_requires_strict_progress() {
        let mut ws = SolveScratch::new();
        ws.begin(2);
        assert!(ws.improve(1, Cost::new(5), 0));
        assert!(!ws.improve(1, Cost::new(5), 1));
        assert!(!ws.improve(1, Cost::new(9), 2));
        assert!(ws.improve(1, Cost::new(4), 3));
        assert_eq!(ws.pred(1), Some(3));
    }

    #[test]
    fn heap_orders_by_distance() {
        let mut ws = SolveScratch::new();
        ws.begin(1);
        ws.push(Cost::new(9), 1);
        ws.push(Cost::new(2), 2);
        ws.push(Cost::new(5), 3);
        assert_eq!(ws.pop(), Some((Cost::new(2), 2)));
        assert_eq!(ws.pop(), Some((Cost::new(5), 3)));
        assert_eq!(ws.pop(), Some((Cost::new(9), 1)));
        assert_eq!(ws.pop(), None);
        ws.push(Cost::new(1), 4);
        ws.begin(1);
        assert_eq!(ws.pop(), None, "begin() clears the frontier");
    }

    #[test]
    fn buffers_grow_to_largest_instance() {
        let mut ws = SolveScratch::new();
        ws.begin(2);
        ws.seed(1, Cost::new(3));
        ws.begin(10);
        assert_eq!(ws.dist(9), Cost::MAX);
        ws.begin(3); // shrinking requests keep the larger buffers
        assert_eq!(ws.dist(2), Cost::MAX);
    }

    #[test]
    fn seed_clears_predecessor() {
        let mut ws = SolveScratch::new();
        ws.begin(2);
        assert!(ws.improve(0, Cost::new(4), 7));
        ws.seed(0, Cost::ZERO);
        assert_eq!(ws.pred(0), None);
        assert_eq!(ws.dist(0), Cost::ZERO);
    }
}
