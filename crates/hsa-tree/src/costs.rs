//! Per-CRU cost model (§5.3 of the paper).
//!
//! For every CRU `i` the paper assumes two processing-time indicators,
//! obtained by "analytical benchmarking or task profiling":
//!
//! * `h_i` — time to process one frame on the **host**;
//! * `s_i` — time to process one frame on its **correspondent satellite**
//!   (the satellite its subtree's sensors are pinned to);
//!
//! plus communication times:
//!
//! * `c_up(i)` = `c_{i,parent(i)}` — time to ship `i`'s one-frame output
//!   from a satellite up to the host when the tree is cut above `i`;
//! * `c_raw(l)` = `c_{s,l}` — time to ship leaf `l`'s **raw** sensor frames
//!   to the host when even `l` runs on the host;
//!
//! and the *pinning* of every leaf's sensors to a satellite, which the
//! colouring scheme (§5.1) propagates rootwards.

use crate::hash::{Fnv1a, HashCache};
use crate::{CruId, CruTree, SatelliteId, TreeError};
use hsa_graph::Cost;
use serde::{Deserialize, Serialize};

/// Complete cost annotation for a [`CruTree`].
///
/// Invariants (enforced by [`CostModel::validate`]): one entry per CRU in
/// each cost table, and a satellite pinning for exactly the leaves.
///
/// The cost tables are private so that **every** mutation funnels through
/// a setter — that is what lets the lazily-computed
/// [`content_hash`](CostModel::content_hash) cache invalidate itself
/// exactly when the value changes and never serve a stale hash.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CostModel {
    /// `h_i` per CRU: host processing time.
    host_time: Vec<Cost>,
    /// `s_i` per CRU: satellite processing time.
    satellite_time: Vec<Cost>,
    /// `c_up(i)` per CRU: time to transmit `i`'s output to the host
    /// (meaningless for the root, which must keep `Cost::ZERO`).
    comm_up: Vec<Cost>,
    /// For each leaf (by CRU id): pinned satellite, or `None` for internal
    /// nodes.
    pinning: Vec<Option<SatelliteId>>,
    /// `c_raw(l)` per CRU: raw sensor transmission time (zero for internal
    /// nodes).
    comm_raw: Vec<Cost>,
    /// Number of satellites in the platform (ids `0..n_satellites`).
    n_satellites: u32,
    /// Lazily-computed content hash; reset by every setter. Not part of
    /// the value: never serialised, empty when read.
    #[serde(skip)]
    cache: HashCache,
}

impl CostModel {
    /// Creates a zeroed cost model shaped for `tree`, with `n_satellites`
    /// satellites; pinnings start unset and must be provided per leaf.
    pub fn zeroed(tree: &CruTree, n_satellites: u32) -> Self {
        let n = tree.len();
        CostModel {
            host_time: vec![Cost::ZERO; n],
            satellite_time: vec![Cost::ZERO; n],
            comm_up: vec![Cost::ZERO; n],
            pinning: vec![None; n],
            comm_raw: vec![Cost::ZERO; n],
            n_satellites,
            cache: HashCache::default(),
        }
    }

    /// The FNV-1a content hash of every cost table and the platform size.
    /// Computed lazily and cached; every setter invalidates the cache, so
    /// a warm model answers in one atomic load.
    pub fn content_hash(&self) -> u64 {
        self.cache.get_or_compute(|| {
            let mut h = Fnv1a::new();
            h.write_u32(self.n_satellites);
            h.write_u64(self.host_time.len() as u64);
            for &c in &self.host_time {
                h.write_u64(c.ticks());
            }
            for &c in &self.satellite_time {
                h.write_u64(c.ticks());
            }
            for &c in &self.comm_up {
                h.write_u64(c.ticks());
            }
            for &c in &self.comm_raw {
                h.write_u64(c.ticks());
            }
            for &p in &self.pinning {
                // `sat + 1` with 0 for "unpinned" keeps the stream dense.
                h.write_u32(p.map_or(0, |s| s.0 + 1));
            }
            h.finish()
        })
    }

    /// Sets `h_i`.
    pub fn set_host_time(&mut self, c: CruId, v: Cost) -> &mut Self {
        self.cache.invalidate();
        self.host_time[c.index()] = v;
        self
    }

    /// Sets `s_i`.
    pub fn set_satellite_time(&mut self, c: CruId, v: Cost) -> &mut Self {
        self.cache.invalidate();
        self.satellite_time[c.index()] = v;
        self
    }

    /// Sets `c_up(i)`.
    pub fn set_comm_up(&mut self, c: CruId, v: Cost) -> &mut Self {
        self.cache.invalidate();
        self.comm_up[c.index()] = v;
        self
    }

    /// Sets `c_raw(l)` alone (pinning untouched).
    pub fn set_comm_raw(&mut self, c: CruId, v: Cost) -> &mut Self {
        self.cache.invalidate();
        self.comm_raw[c.index()] = v;
        self
    }

    /// Sets or clears a node's sensor pinning directly. Prefer
    /// [`CostModel::pin_leaf`] when also setting the raw-transfer cost;
    /// this is the escape hatch for perturbations (sensor churn, pin
    /// migration) and deliberately-invalid test fixtures.
    pub fn set_pinning(&mut self, c: CruId, sat: Option<SatelliteId>) -> &mut Self {
        self.cache.invalidate();
        self.pinning[c.index()] = sat;
        self
    }

    /// Resizes the platform (satellite ids become `0..n`). Existing
    /// pinnings are left untouched; [`CostModel::validate`] will reject
    /// the model if any leaf now points past the platform.
    pub fn set_n_satellites(&mut self, n: u32) -> &mut Self {
        self.cache.invalidate();
        self.n_satellites = n;
        self
    }

    /// Pins a leaf's sensors to a satellite and sets its raw-transfer cost.
    pub fn pin_leaf(&mut self, leaf: CruId, sat: SatelliteId, c_raw: Cost) -> &mut Self {
        self.cache.invalidate();
        self.pinning[leaf.index()] = Some(sat);
        self.comm_raw[leaf.index()] = c_raw;
        self
    }

    /// Number of satellites in the platform (ids `0..n_satellites`).
    #[inline]
    pub fn n_satellites(&self) -> u32 {
        self.n_satellites
    }

    /// All `h_i`, indexed by CRU id.
    #[inline]
    pub fn host_times(&self) -> &[Cost] {
        &self.host_time
    }

    /// All `s_i`, indexed by CRU id.
    #[inline]
    pub fn satellite_times(&self) -> &[Cost] {
        &self.satellite_time
    }

    /// All `c_up(i)`, indexed by CRU id.
    #[inline]
    pub fn comm_ups(&self) -> &[Cost] {
        &self.comm_up
    }

    /// All `c_raw(l)`, indexed by CRU id.
    #[inline]
    pub fn comm_raws(&self) -> &[Cost] {
        &self.comm_raw
    }

    /// All pinnings, indexed by CRU id (`None` for internal nodes).
    #[inline]
    pub fn pinnings(&self) -> &[Option<SatelliteId>] {
        &self.pinning
    }

    /// `h_i` accessor.
    #[inline]
    pub fn h(&self, c: CruId) -> Cost {
        self.host_time[c.index()]
    }

    /// `s_i` accessor.
    #[inline]
    pub fn s(&self, c: CruId) -> Cost {
        self.satellite_time[c.index()]
    }

    /// `c_up(i)` accessor.
    #[inline]
    pub fn c_up(&self, c: CruId) -> Cost {
        self.comm_up[c.index()]
    }

    /// `c_raw(l)` accessor.
    #[inline]
    pub fn c_raw(&self, c: CruId) -> Cost {
        self.comm_raw[c.index()]
    }

    /// The satellite a leaf is pinned to.
    pub fn pinned_satellite(&self, leaf: CruId) -> Option<SatelliteId> {
        self.pinning.get(leaf.index()).copied().flatten()
    }

    /// Total `h` over all CRUs — the S weight of the all-on-host partition.
    pub fn total_host_time(&self) -> Cost {
        self.host_time.iter().copied().sum()
    }

    /// Checks that this model covers `tree`: table lengths match, every
    /// leaf is pinned to an existing satellite, no internal node is pinned,
    /// and the root has no uplink cost.
    pub fn validate(&self, tree: &CruTree) -> Result<(), TreeError> {
        self.validate_over(tree, &tree.preorder())
    }

    /// [`CostModel::validate`] for a caller that already holds the tree's
    /// [`CruTree::preorder`]: the checks visit the nodes in that order
    /// instead of walking the tree again, so the first fault reported is
    /// the same.
    pub fn validate_over(&self, tree: &CruTree, preorder: &[CruId]) -> Result<(), TreeError> {
        let n = tree.len();
        for (name, len) in [
            ("host_time", self.host_time.len()),
            ("satellite_time", self.satellite_time.len()),
            ("comm_up", self.comm_up.len()),
            ("pinning", self.pinning.len()),
            ("comm_raw", self.comm_raw.len()),
        ] {
            if len != n {
                return Err(TreeError::CostModelMismatch(format!(
                    "{name} has {len} entries for a tree of {n} CRUs"
                )));
            }
        }
        for &c in preorder {
            if tree.is_leaf(c) {
                match self.pinning[c.index()] {
                    None => return Err(TreeError::UnpinnedLeaf(c)),
                    Some(sat) if sat.0 >= self.n_satellites => {
                        return Err(TreeError::CostModelMismatch(format!(
                            "{c} pinned to {sat} but only {} satellites exist",
                            self.n_satellites
                        )));
                    }
                    Some(_) => {}
                }
            } else if self.pinning[c.index()].is_some() {
                return Err(TreeError::CostModelMismatch(format!(
                    "internal node {c} must not carry a sensor pinning"
                )));
            }
        }
        if self.comm_up[tree.root().index()] != Cost::ZERO {
            return Err(TreeError::CostModelMismatch(
                "root has no parent, its comm_up must be zero".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    fn tree_and_costs() -> (CruTree, CostModel) {
        let mut b = TreeBuilder::new("root");
        let root = b.root();
        let a = b.add_child(root, "a");
        let l1 = b.add_child(a, "l1");
        let l2 = b.add_child(a, "l2");
        let t = b.build();
        let mut m = CostModel::zeroed(&t, 2);
        m.set_host_time(root, c(10))
            .set_host_time(a, c(5))
            .set_host_time(l1, c(3))
            .set_host_time(l2, c(4));
        m.set_satellite_time(a, c(8))
            .set_satellite_time(l1, c(6))
            .set_satellite_time(l2, c(7));
        m.set_comm_up(a, c(2))
            .set_comm_up(l1, c(1))
            .set_comm_up(l2, c(1));
        m.pin_leaf(l1, SatelliteId(0), c(9));
        m.pin_leaf(l2, SatelliteId(1), c(9));
        (t, m)
    }

    #[test]
    fn accessors_and_validation() {
        let (t, m) = tree_and_costs();
        m.validate(&t).unwrap();
        assert_eq!(m.h(CruId(0)), c(10));
        assert_eq!(m.s(CruId(2)), c(6));
        assert_eq!(m.c_up(CruId(1)), c(2));
        assert_eq!(m.c_raw(CruId(2)), c(9));
        assert_eq!(m.pinned_satellite(CruId(2)), Some(SatelliteId(0)));
        assert_eq!(m.pinned_satellite(CruId(1)), None);
        assert_eq!(m.total_host_time(), c(22));
    }

    #[test]
    fn unpinned_leaf_is_rejected() {
        let (t, mut m) = tree_and_costs();
        m.set_pinning(CruId(2), None);
        assert_eq!(m.validate(&t), Err(TreeError::UnpinnedLeaf(CruId(2))));
    }

    #[test]
    fn pinned_internal_node_is_rejected() {
        let (t, mut m) = tree_and_costs();
        m.set_pinning(CruId(1), Some(SatelliteId(0)));
        assert!(m.validate(&t).is_err());
    }

    #[test]
    fn pinning_to_missing_satellite_is_rejected() {
        let (t, mut m) = tree_and_costs();
        m.set_pinning(CruId(2), Some(SatelliteId(99)));
        assert!(m.validate(&t).is_err());
        // Every tree has a leaf to pin, so an empty platform never
        // validates.
        let (t, mut m) = tree_and_costs();
        m.set_n_satellites(0);
        assert!(m.validate(&t).is_err());
    }

    #[test]
    fn nonzero_root_uplink_is_rejected() {
        let (t, mut m) = tree_and_costs();
        m.set_comm_up(CruId(0), c(1));
        assert!(m.validate(&t).is_err());
    }

    #[test]
    fn content_hash_is_cached_and_invalidated_by_every_setter() {
        type Mutation = Box<dyn Fn(&mut CostModel)>;
        let (_t, m) = tree_and_costs();
        let h0 = m.content_hash();
        assert_eq!(m.content_hash(), h0, "cached hash must be stable");
        // Each setter must change the hash (values chosen to differ).
        let mutations: Vec<Mutation> = vec![
            Box::new(|m| {
                m.set_host_time(CruId(2), c(99));
            }),
            Box::new(|m| {
                m.set_satellite_time(CruId(2), c(99));
            }),
            Box::new(|m| {
                m.set_comm_up(CruId(2), c(99));
            }),
            Box::new(|m| {
                m.set_comm_raw(CruId(2), c(99));
            }),
            Box::new(|m| {
                m.set_pinning(CruId(2), Some(SatelliteId(1)));
            }),
            Box::new(|m| {
                m.set_n_satellites(7);
            }),
            Box::new(|m| {
                m.pin_leaf(CruId(3), SatelliteId(0), c(42));
            }),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let (_t, mut fresh) = tree_and_costs();
            let before = fresh.content_hash();
            mutate(&mut fresh);
            assert_ne!(
                fresh.content_hash(),
                before,
                "setter #{i} must invalidate and change the hash"
            );
        }
        // Equal content always re-hashes equal, cached or not.
        let (_t, other) = tree_and_costs();
        assert_eq!(other.content_hash(), h0);
    }

    #[test]
    fn cost_fields_do_not_alias_across_tables() {
        // host_time[i] and satellite_time[i] feed distinct hash positions:
        // swapping a value between tables must change the hash.
        let (_t, mut a) = tree_and_costs();
        let (_t, mut b) = tree_and_costs();
        a.set_host_time(CruId(3), c(77));
        b.set_satellite_time(CruId(3), c(77));
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn wrong_table_length_is_rejected() {
        let (t, mut m) = tree_and_costs();
        m.host_time.pop();
        assert!(m.validate(&t).is_err());
    }
}
