//! Simulated annealing — a second heuristic baseline for the future-work
//! general assignment problem (complementing the GA; both are compared
//! against B&B and the tree-exact solvers in experiment T7). The annealing
//! loop, [`anneal`], is generic over the gene and fitness types; the
//! cut-space annealer runs it too.

use crate::ga::random_location;
use crate::{list_makespan, DagAssignment, Location, TaskDag};
use hsa_graph::Cost;
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
    let start: DagAssignment = (0..n)
        .map(|i| match dag.tasks[i].pinned {
            Some(s) => Location::Satellite(s),
            None => Location::Host,
        })
        .collect();
    // Mutable (unpinned) gene indexes.
    let free: Vec<usize> = (0..n).filter(|&i| dag.tasks[i].pinned.is_none()).collect();
    let (assignment, makespan, accepted) = anneal(
        cfg,
        start,
        &free,
        |a| {
            list_makespan(dag, a)
                .expect("moves keep the assignment feasible")
                .ticks()
        },
        |i, _, rng| random_location(dag, i, rng),
        || false,
    );
    Ok(SaResult {
        assignment,
        makespan: Cost::new(makespan),
        accepted,
    })
}

/// The annealing loop of both annealers ([`simulated_annealing`] and the
/// cut-space [`crate::CutAnnealing`]), over any gene type, from the state
/// `current`. Each iteration proposes one move: a gene drawn uniformly
/// from `movable` takes the value `mutate` draws for it. A move that
/// leaves the gene as it was is skipped, with no evaluation and no
/// cooling. Any other move is taken or refused by [`metropolis`] on the
/// change in `fitness_of` (lower is better) and undone when refused; the
/// temperature then cools geometrically. `stop` is polled every 32
/// iterations; once it returns true the run ends with its best state.
///
/// Returns the best state seen, its fitness and the number of moves taken.
pub(crate) fn anneal<G: Copy + PartialEq, F: Copy + Ord>(
    cfg: &SaConfig,
    mut current: Vec<G>,
    movable: &[usize],
    mut fitness_of: impl FnMut(&Vec<G>) -> F,
    mut mutate: impl FnMut(usize, G, &mut StdRng) -> G,
    stop: impl Fn() -> bool,
) -> (Vec<G>, F, usize)
where
    u128: From<F>,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut cur = fitness_of(&current);
    let mut best = current.clone();
    let mut best_fitness = cur;
    let mut temp = cfg.t0.max(1e-9);
    let mut accepted = 0usize;
    if movable.is_empty() {
        return (best, best_fitness, accepted);
    }

    for it in 0..cfg.iterations {
        // Poll in small batches: the per-iteration work is O(n), so a
        // 32-iteration stride still bounds cancellation latency tightly.
        if it % 32 == 0 && stop() {
            break;
        }
        let gi = movable[rng.random_range(0..movable.len())];
        let old = current[gi];
        current[gi] = mutate(gi, old, &mut rng);
        if current[gi] == old {
            continue;
        }
        let cand = fitness_of(&current);
        let delta = u128::from(cand) as f64 - u128::from(cur) as f64;
        if metropolis(delta, temp, &mut rng) {
            cur = cand;
            accepted += 1;
            if cand < best_fitness {
                best_fitness = cand;
                best.copy_from_slice(&current);
            }
        } else {
            current[gi] = old;
        }
        temp *= cfg.cooling;
    }
    (best, best_fitness, accepted)
}

/// Metropolis acceptance: a move that does not worsen the objective
/// (`delta <= 0`) is always taken, without drawing from `rng`; a worsening
/// one with probability `exp(-delta / temp)`.
fn metropolis(delta: f64, temp: f64, rng: &mut StdRng) -> bool {
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
