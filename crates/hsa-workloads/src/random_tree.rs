//! Seeded random instance families for benchmarks and property tests.
//!
//! Shapes (depth/fan-out) and the *placement* of sensors onto satellites
//! are controlled independently: `Blocked` placement gives each satellite a
//! contiguous run of leaves (the regime where the paper's contiguous
//! expansion suffices), `Interleaved` deals leaves round-robin (maximally
//! scattered colours — the regime requiring the joint branch completion),
//! and `Random` sits in between. Experiment T2 sweeps exactly this axis.

use crate::Scenario;
use hsa_graph::Cost;
use hsa_tree::{CostModel, CruId, CruTree, SatelliteId, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How leaves are pinned to satellites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Contiguous blocks of leaves per satellite (single band each).
    Blocked,
    /// Round-robin: leaf `i` → satellite `i mod n` (maximal interleaving).
    Interleaved,
    /// Uniformly random pinning.
    Random,
}

/// Parameters of the random-tree family.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RandomTreeParams {
    /// Total number of CRUs (≥ 2).
    pub n_crus: usize,
    /// Maximum children per node (≥ 1); 1 degenerates to a chain.
    pub max_children: usize,
    /// Number of satellites (≥ 1).
    pub n_satellites: u32,
    /// Sensor placement policy.
    pub placement: Placement,
    /// Work-unit range for processing times (µs).
    pub work_range: (u64, u64),
    /// How many times slower the host is than a satellite on leaf-side
    /// work, ×10 (so 25 means 2.5×). Values < 10 make the host faster.
    pub host_slowdown_tenths: u64,
    /// Communication cost range (µs).
    pub comm_range: (u64, u64),
    /// Raw sensor transfers are this many times the processed comm cost.
    pub raw_factor: u64,
}

impl Default for RandomTreeParams {
    fn default() -> Self {
        RandomTreeParams {
            n_crus: 30,
            max_children: 3,
            n_satellites: 4,
            placement: Placement::Blocked,
            work_range: (500, 5_000),
            host_slowdown_tenths: 20,
            comm_range: (200, 2_000),
            raw_factor: 6,
        }
    }
}

/// Generates one random instance; identical `(params, seed)` pairs produce
/// identical scenarios.
pub fn random_scenario(p: &RandomTreeParams, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = p.n_crus.max(2);
    let maxc = p.max_children.max(1);

    // Random ordered tree: attach node i under a uniformly random node with
    // remaining child capacity, preferring recent nodes for depth variety.
    let mut b = TreeBuilder::new("cru0");
    let mut open: Vec<CruId> = vec![b.root()];
    let mut child_count = vec![0usize; n];
    for i in 1..n {
        let pick = if open.len() > 1 && rng.random_bool(0.5) {
            // Bias towards the most recent open node → deeper trees.
            open.len() - 1
        } else {
            rng.random_range(0..open.len())
        };
        let parent = open[pick];
        let id = b.add_child(parent, format!("cru{i}"));
        child_count[parent.index()] += 1;
        if child_count[parent.index()] >= maxc {
            open.remove(pick);
        }
        open.push(id);
    }
    let tree = b.build();

    let mut m = CostModel::zeroed(&tree, p.n_satellites.max(1));
    let (wlo, whi) = (
        p.work_range.0.max(1),
        p.work_range.1.max(p.work_range.0 + 1),
    );
    let (clo, chi) = (
        p.comm_range.0.max(1),
        p.comm_range.1.max(p.comm_range.0 + 1),
    );
    for c in tree.preorder() {
        let work = rng.random_range(wlo..whi);
        m.set_satellite_time(c, Cost::new(work));
        m.set_host_time(c, Cost::new(work * p.host_slowdown_tenths / 10));
        if c != tree.root() {
            m.set_comm_up(c, Cost::new(rng.random_range(clo..chi)));
        }
    }
    let leaves = tree.leaves_in_order();
    let k = p.n_satellites.max(1);
    for (i, &l) in leaves.iter().enumerate() {
        let sat = match p.placement {
            Placement::Blocked => SatelliteId(((i as u64 * k as u64) / leaves.len() as u64) as u32),
            Placement::Interleaved => SatelliteId(i as u32 % k),
            Placement::Random => SatelliteId(rng.random_range(0..k)),
        };
        let raw = rng.random_range(clo..chi) * p.raw_factor.max(1);
        m.pin_leaf(l, sat, Cost::new(raw));
    }

    let sc = Scenario {
        name: format!("random-{seed}"),
        description: format!(
            "Random instance: {} CRUs, ≤{} children, {} satellites, {:?} placement, seed {}.",
            n, maxc, k, p.placement, seed
        ),
        tree,
        costs: m,
    };
    debug_assert!(sc.validate().is_ok(), "{:?}", sc.validate());
    sc
}

/// Convenience: the underlying tree/cost pair.
pub fn random_instance(p: &RandomTreeParams, seed: u64) -> (CruTree, CostModel) {
    let sc = random_scenario(p, seed);
    (sc.tree, sc.costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_tree::Colouring;

    #[test]
    fn deterministic_per_seed() {
        let p = RandomTreeParams::default();
        assert_eq!(random_scenario(&p, 11), random_scenario(&p, 11));
        assert_ne!(random_scenario(&p, 11), random_scenario(&p, 12));
    }

    #[test]
    fn respects_size_and_fanout() {
        let p = RandomTreeParams {
            n_crus: 40,
            max_children: 2,
            ..RandomTreeParams::default()
        };
        for seed in 0..10 {
            let sc = random_scenario(&p, seed);
            sc.validate().unwrap();
            assert_eq!(sc.tree.len(), 40);
            for c in sc.tree.preorder() {
                assert!(sc.tree.children(c).len() <= 2);
            }
        }
    }

    #[test]
    fn blocked_placement_is_contiguous() {
        let p = RandomTreeParams {
            placement: Placement::Blocked,
            ..RandomTreeParams::default()
        };
        for seed in 0..10 {
            let sc = random_scenario(&p, seed);
            let col = Colouring::compute(&sc.tree, &sc.costs).unwrap();
            assert!(col.is_contiguous(), "seed {seed}");
        }
    }

    #[test]
    fn interleaved_placement_interleaves() {
        let p = RandomTreeParams {
            n_crus: 30,
            n_satellites: 3,
            placement: Placement::Interleaved,
            ..RandomTreeParams::default()
        };
        // With ≥ 2·k leaves, round-robin must produce multi-band colours.
        for seed in 0..10 {
            let sc = random_scenario(&p, seed);
            let col = Colouring::compute(&sc.tree, &sc.costs).unwrap();
            if col.leaf_colours.len() >= 6 {
                assert!(!col.is_contiguous(), "seed {seed}");
            }
        }
    }

    #[test]
    fn chain_degenerate_case() {
        let p = RandomTreeParams {
            n_crus: 10,
            max_children: 1,
            n_satellites: 1,
            ..RandomTreeParams::default()
        };
        let sc = random_scenario(&p, 0);
        let leaves = sc.tree.leaves_in_order();
        assert_eq!(leaves.len(), 1);
        // The one leaf sits at depth 9: the ten CRUs form a single chain.
        let above = std::iter::successors(sc.tree.parent(leaves[0]), |&c| sc.tree.parent(c));
        assert_eq!(above.count(), 9);
    }
}
