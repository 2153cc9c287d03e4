//! Incremental re-solve for **drifting** instances.
//!
//! A [`Session`] pins one live instance — a reasoning tree whose topology
//! is fixed but whose costs drift (sensor rates fluctuate, satellites
//! change speed, sensors churn between boxes) — and keeps its expensive
//! λ-independent preparation (the [`FrontierSet`] DP) warm across
//! perturbation steps. [`Session::apply`] takes a [`Delta`], re-derives
//! the cheap O(n) labels, diffs them against the previous step
//! ([`hsa_assign::dirty_colours`]) and rebuilds **only the per-colour
//! frontiers whose supporting regions were actually touched**, copying the
//! clean ones ([`FrontierSet::refresh_in_place`]). A delta that dirties
//! every colour re-runs every colour's DP on that same path. Every later
//! [`Session::solve`] answers **identically** to a fresh
//! [`hsa_assign::Expanded`]`::solve` on the drifted instance — the
//! incremental path reuses only state proven unchanged, it never
//! approximates. The T11 experiment asserts that equality at every drift
//! step before timing anything.
//!
//! ```
//! use hsa_engine::{Session, SessionConfig};
//! use hsa_graph::{Cost, Lambda};
//! use hsa_tree::Delta;
//!
//! let sc = hsa_workloads::paper_scenario();
//! let mut session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
//! let before = session.solve(Lambda::HALF).unwrap();
//!
//! // One sensor branch gets 25% busier; re-solve incrementally.
//! let busier = Delta::new().scale_subtree(sc.tree.children(sc.tree.root())[0], 5, 4);
//! let outcome = session.apply(&busier).unwrap();
//! assert!(outcome.dirty_colours <= outcome.total_colours);
//! let after = session.solve(Lambda::HALF).unwrap();
//! assert!(after.objective >= before.objective);
//! ```

use hsa_assign::{
    lambda_frontier_with, solve_with_frontiers, AssignError, ExpandedConfig, FrontierSet,
    LambdaFrontier, Prepared, Solution,
};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree, Delta};
use serde::{Deserialize, Serialize};

/// Configuration of an incremental [`Session`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionConfig {
    /// Frontier caps for the underlying full-expansion preparation.
    pub expanded: ExpandedConfig,
}

/// Counters of a session's life so far (see [`Session::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Successful [`Session::apply`] calls.
    pub applies: u64,
    /// Applies that left at least one colour clean.
    pub incremental: u64,
    /// Applies that dirtied every colour (see [`ApplyOutcome::full_rebuild`]).
    pub full_rebuilds: u64,
    /// Dirty colours summed over all applies: frontiers recomputed.
    pub colours_rebuilt: u64,
    /// Clean colours summed over all applies: frontiers copied verbatim.
    pub colours_reused: u64,
}

impl SessionStats {
    /// Fraction of all per-apply colour slots that were reused (0.0 before
    /// the first apply). The higher, the more the session amortises.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.colours_rebuilt + self.colours_reused;
        if total == 0 {
            0.0
        } else {
            self.colours_reused as f64 / total as f64
        }
    }
}

/// What one [`Session::apply`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplyOutcome {
    /// Colours whose frontier had to be rebuilt.
    pub dirty_colours: usize,
    /// Total colours (satellites) of the instance.
    pub total_colours: usize,
    /// True when the delta dirtied every colour, so no frontier was
    /// reused (`dirty_colours == total_colours > 0`).
    pub full_rebuild: bool,
}

/// A held-open instance that absorbs [`Delta`]s and re-solves
/// incrementally. See the module docs for the invalidation model.
/// Cloning duplicates the instance *and* its warm frontiers — a cheap way
/// to fork a pristine replay point (the T11 harness does).
#[derive(Clone)]
pub struct Session {
    prepared: Prepared<'static>,
    frontiers: FrontierSet,
    cfg: SessionConfig,
    stats: SessionStats,
}

impl Session {
    /// Opens a session on an instance: full preparation (validation,
    /// colouring, σ/β labels) plus the λ-independent frontier DP — the
    /// last time either is paid in full while drift stays local.
    pub fn new(
        tree: &CruTree,
        costs: &CostModel,
        cfg: SessionConfig,
    ) -> Result<Session, AssignError> {
        let prepared = Prepared::new_owned(tree.clone(), costs.clone())?;
        let frontiers = FrontierSet::prepare(&prepared, &cfg.expanded)?;
        Ok(Session {
            prepared,
            frontiers,
            cfg,
            stats: SessionStats::default(),
        })
    }

    /// Applies one perturbation step.
    ///
    /// Re-derives the O(n) labels for the drifted cost model **in place**
    /// (the tree is reused, never cloned), diffs them against the previous
    /// step and re-runs the cover DP of exactly the dirty colours, copying
    /// the clean ones ([`FrontierSet::refresh_in_place`]). On error — an
    /// invalid delta, or a frontier overflow — the session is left
    /// unchanged (the delta is applied to a cost-model clone, and a failed
    /// frontier rebuild rolls the labels back).
    pub fn apply(&mut self, delta: &Delta) -> Result<ApplyOutcome, AssignError> {
        let mut costs: CostModel = self.costs().clone();
        delta.apply(&self.prepared.tree, &mut costs)?;
        let (replaced, diff) = self.prepared.update_costs(costs)?;
        if let Err(e) =
            self.frontiers
                .refresh_in_place(&self.prepared, &self.cfg.expanded, &diff.dirty)
        {
            self.prepared.restore(replaced);
            return Err(e);
        }
        let total = diff.dirty.len();
        let n_dirty = diff.count();
        let full = n_dirty == total && total > 0;
        self.stats.applies += 1;
        if full {
            self.stats.full_rebuilds += 1;
        } else {
            self.stats.incremental += 1;
        }
        self.stats.colours_rebuilt += n_dirty as u64;
        self.stats.colours_reused += (total - n_dirty) as u64;
        Ok(ApplyOutcome {
            dirty_colours: n_dirty,
            total_colours: total,
            full_rebuild: full,
        })
    }

    /// Solves the *current* (drifted) instance at `lambda` from the
    /// maintained frontiers — identical, cut for cut, to a fresh
    /// [`hsa_assign::Expanded`]`::solve` of the same instance.
    pub fn solve(&self, lambda: Lambda) -> Result<Solution, AssignError> {
        solve_with_frontiers(&self.prepared, &self.frontiers, lambda)
    }

    /// The λ-frontier of the current instance (every optimal cut over
    /// λ ∈ [0, 1]), derived from the maintained frontiers.
    pub fn frontier(&self) -> Result<LambdaFrontier, AssignError> {
        lambda_frontier_with(&self.prepared, &self.frontiers)
    }

    /// The current prepared instance (tree, drifted costs, labels).
    pub fn prepared(&self) -> &Prepared<'static> {
        &self.prepared
    }

    /// The current (drifted) cost model.
    pub fn costs(&self) -> &CostModel {
        &self.prepared.costs
    }

    /// Counters since the session opened.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_assign::{Expanded, Solver};
    use hsa_graph::Cost;
    use hsa_workloads::paper_scenario;

    fn assert_matches_scratch(session: &Session, lambda: Lambda) {
        let scratch_prep = Prepared::new(&session.prepared.tree, &session.prepared.costs).unwrap();
        let want = Expanded::default().solve(&scratch_prep, lambda).unwrap();
        let got = session.solve(lambda).unwrap();
        assert_eq!(got.objective, want.objective);
        assert_eq!(got.cut, want.cut);
    }

    #[test]
    fn fresh_session_matches_scratch_solves() {
        let sc = paper_scenario();
        let session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
        for lambda in [Lambda::ZERO, Lambda::HALF, Lambda::ONE] {
            assert_matches_scratch(&session, lambda);
        }
    }

    #[test]
    fn incremental_applies_stay_exact_and_reuse_colours() {
        let sc = paper_scenario();
        let mut session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
        let leaf = *sc.tree.leaves_in_order().first().unwrap();
        for step in 1..=5u64 {
            let delta = Delta::new().set_satellite_time(leaf, Cost::new(100 + 37 * step));
            let outcome = session.apply(&delta).unwrap();
            assert!(
                outcome.dirty_colours >= 1,
                "step {step} must dirty a colour"
            );
            for lambda in [Lambda::ZERO, Lambda::HALF, Lambda::ONE] {
                assert_matches_scratch(&session, lambda);
            }
        }
        let stats = session.stats();
        assert_eq!(stats.applies, 5);
        assert!(stats.incremental >= 1, "local drift leaves a colour clean");
        assert!(stats.colours_reused > 0, "clean colours must be reused");
        assert!(stats.reuse_rate() > 0.0);
    }

    #[test]
    fn noop_delta_dirties_nothing() {
        let sc = paper_scenario();
        let mut session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
        let outcome = session.apply(&Delta::new()).unwrap();
        assert_eq!(outcome.dirty_colours, 0);
        assert!(!outcome.full_rebuild);
        // Setting a cost to its current value is also observed as clean.
        let root = sc.tree.root();
        let same = Delta::new().set_host_time(root, sc.costs.h(root));
        let outcome = session.apply(&same).unwrap();
        assert_eq!(outcome.dirty_colours, 0);
    }

    #[test]
    fn global_drift_rebuilds_every_colour() {
        let sc = paper_scenario();
        let mut session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
        // Scaling the whole tree dirties every used colour.
        let delta = Delta::new().scale_subtree(sc.tree.root(), 11, 10);
        let outcome = session.apply(&delta).unwrap();
        assert_eq!(outcome.dirty_colours, outcome.total_colours);
        assert!(outcome.full_rebuild, "no colour is left to reuse");
        assert_eq!(session.stats().full_rebuilds, 1);
        assert_matches_scratch(&session, Lambda::HALF);
    }

    #[test]
    fn failed_apply_leaves_the_session_untouched() {
        let sc = paper_scenario();
        let mut session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
        let before = session.solve(Lambda::HALF).unwrap();
        let bad = Delta::new()
            .set_host_time(sc.tree.root(), Cost::new(999_999))
            .set_comm_up(sc.tree.root(), Cost::new(1)); // invalid: root uplink
        assert!(session.apply(&bad).is_err());
        assert_eq!(session.stats().applies, 0);
        let after = session.solve(Lambda::HALF).unwrap();
        assert_eq!(after.objective, before.objective, "no partial mutation");
        assert_eq!(
            session.costs().h(sc.tree.root()),
            sc.costs.h(sc.tree.root())
        );
    }

    #[test]
    fn churn_is_exact_across_repins() {
        let sc = paper_scenario();
        let mut session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
        let leaves = sc.tree.leaves_in_order();
        let n_sats = sc.costs.n_satellites();
        for (i, &leaf) in leaves.iter().take(4).enumerate() {
            let to = hsa_tree::SatelliteId((i as u32 + 1) % n_sats);
            session.apply(&Delta::new().repin(leaf, to)).unwrap();
            for lambda in [Lambda::ZERO, Lambda::HALF, Lambda::ONE] {
                assert_matches_scratch(&session, lambda);
            }
        }
    }

    #[test]
    fn frontier_tracks_the_drifted_instance() {
        let sc = paper_scenario();
        let mut session = Session::new(&sc.tree, &sc.costs, SessionConfig::default()).unwrap();
        let leaf = *sc.tree.leaves_in_order().last().unwrap();
        session
            .apply(&Delta::new().set_satellite_time(leaf, Cost::new(777)))
            .unwrap();
        let frontier = session.frontier().unwrap();
        for n in 0..=4u32 {
            let lambda = Lambda::new(n, 4).unwrap();
            let sol = session.solve(lambda).unwrap();
            assert_eq!(frontier.objective_at(lambda), sol.objective);
        }
    }
}
