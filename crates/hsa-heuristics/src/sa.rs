//! Simulated annealing — a second heuristic baseline for the future-work
//! general assignment problem (complementing the GA; both are compared
//! against B&B and the tree-exact solvers in experiment T7).

use crate::{list_makespan, DagAssignment, Location, TaskDag};
use hsa_graph::Cost;
use hsa_tree::SatelliteId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SA hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SaConfig {
    /// Iterations.
    pub iterations: usize,
    /// Initial temperature (in makespan ticks).
    pub t0: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 4_000,
            t0: 10_000.0,
            cooling: 0.999,
            seed: 0,
        }
    }
}

/// Result of an SA run.
#[derive(Clone, Debug)]
pub struct SaResult {
    /// Best assignment found.
    pub assignment: DagAssignment,
    /// Its makespan.
    pub makespan: Cost,
    /// Moves accepted.
    pub accepted: usize,
}

/// Runs simulated annealing from the all-on-host start (pinned tasks stay
/// put).
pub fn simulated_annealing(dag: &TaskDag, cfg: &SaConfig) -> Result<SaResult, String> {
    dag.validate()?;
    let n = dag.len();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut current: DagAssignment = (0..n)
        .map(|i| match dag.tasks[i].pinned {
            Some(s) => Location::Satellite(s),
            None => Location::Host,
        })
        .collect();
    let mut cur_mk = list_makespan(dag, &current)?;
    let mut best = current.clone();
    let mut best_mk = cur_mk;
    let mut temp = cfg.t0.max(1e-9);
    let mut accepted = 0usize;

    // Mutable (unpinned) gene indexes.
    let free: Vec<usize> = (0..n).filter(|&i| dag.tasks[i].pinned.is_none()).collect();
    if free.is_empty() {
        return Ok(SaResult {
            assignment: current,
            makespan: cur_mk,
            accepted: 0,
        });
    }

    for _ in 0..cfg.iterations {
        let gi = free[rng.random_range(0..free.len())];
        let old = current[gi];
        let pick = rng.random_range(0..=dag.n_satellites);
        current[gi] = if pick == 0 {
            Location::Host
        } else {
            Location::Satellite(SatelliteId(pick - 1))
        };
        if current[gi] == old {
            continue;
        }
        let mk = list_makespan(dag, &current)?;
        let delta = mk.ticks() as f64 - cur_mk.ticks() as f64;
        if metropolis(delta, temp, &mut rng) {
            cur_mk = mk;
            accepted += 1;
            if mk < best_mk {
                best_mk = mk;
                best = current.clone();
            }
        } else {
            current[gi] = old;
        }
        temp *= cfg.cooling;
    }
    Ok(SaResult {
        assignment: best,
        makespan: best_mk,
        accepted,
    })
}

/// Metropolis acceptance, shared with the cut-space annealer: a move that
/// does not worsen the objective (`delta <= 0`) is always taken, without
/// drawing from `rng`; a worsening one with probability
/// `exp(-delta / temp)`.
pub(crate) fn metropolis(delta: f64, temp: f64, rng: &mut StdRng) -> bool {
    delta <= 0.0 || rng.random_bool((-delta / temp).exp().clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{branch_and_bound, BnbConfig, TaskDag};
    use hsa_tree::figures::fig2_tree;

    fn small_dag() -> TaskDag {
        let (t, m) = fig2_tree();
        let dag = TaskDag::from_tree(&t, &m);
        TaskDag {
            tasks: dag.tasks[..7].to_vec(),
            edges: dag
                .edges
                .iter()
                .filter(|e| e.from.index() < 7 && e.to.index() < 7)
                .cloned()
                .collect(),
            n_satellites: 2,
        }
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let dag = small_dag();
        let a = simulated_annealing(&dag, &SaConfig::default()).unwrap();
        let b = simulated_annealing(&dag, &SaConfig::default()).unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn sa_never_beats_exact() {
        let dag = small_dag();
        let exact = branch_and_bound(&dag, &BnbConfig::default()).unwrap();
        let sa = simulated_annealing(&dag, &SaConfig::default()).unwrap();
        assert!(sa.makespan >= exact.makespan);
    }

    #[test]
    fn sa_improves_on_its_start() {
        let (t, m) = fig2_tree();
        let dag = TaskDag::from_tree(&t, &m);
        let start: DagAssignment = (0..dag.len())
            .map(|i| match dag.tasks[i].pinned {
                Some(s) => Location::Satellite(s),
                None => Location::Host,
            })
            .collect();
        let start_mk = list_makespan(&dag, &start).unwrap();
        let sa = simulated_annealing(&dag, &SaConfig::default()).unwrap();
        assert!(sa.makespan <= start_mk);
        assert!(dag.respects_pinning(&sa.assignment));
    }

    #[test]
    fn fully_pinned_instance_short_circuits() {
        let (t, m) = fig2_tree();
        let full = TaskDag::from_tree(&t, &m);
        // Keep only the sensor tasks (all pinned); no edges.
        let dag = TaskDag {
            tasks: full.tasks[13..].to_vec(),
            edges: vec![],
            n_satellites: full.n_satellites,
        };
        let sa = simulated_annealing(&dag, &SaConfig::default()).unwrap();
        assert_eq!(sa.accepted, 0);
    }
}
