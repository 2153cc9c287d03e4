//! Genetic algorithm — the paper cites GA-based task matching [24] as a
//! future-work heuristic for the general assignment problem.
//!
//! Chromosome: one [`Location`] gene per task (pinned genes frozen).
//! Fitness: the list-scheduling makespan (lower is better). Selection:
//! tournament; uniform crossover; per-gene mutation; elitism. Fully seeded
//! and deterministic. The generation loop, [`evolve`], is generic over the
//! gene and fitness types; the cut-space GA runs it too.

use crate::{list_makespan, DagAssignment, Location, TaskDag};
use hsa_graph::Cost;
use hsa_tree::SatelliteId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GA hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: usize,
    /// Tournament size.
    pub tournament: usize,
    /// Per-gene mutation probability, per mille.
    pub mutation_permille: u32,
    /// Elites copied unchanged each generation.
    pub elites: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 60,
            generations: 120,
            tournament: 3,
            mutation_permille: 30,
            elites: 2,
            seed: 0,
        }
    }
}

/// Result of a GA run.
#[derive(Clone, Debug)]
pub struct GaResult {
    /// Best assignment found.
    pub assignment: DagAssignment,
    /// Its makespan.
    pub makespan: Cost,
    /// Best makespan per generation (monotone non-increasing).
    pub history: Vec<Cost>,
}

/// A uniformly drawn location for task `i`; a pinned task keeps its
/// satellite without a draw.
pub(crate) fn random_location(dag: &TaskDag, i: usize, rng: &mut StdRng) -> Location {
    match dag.tasks[i].pinned {
        Some(s) => Location::Satellite(s),
        None => {
            let pick = rng.random_range(0..=dag.n_satellites);
            if pick == 0 {
                Location::Host
            } else {
                Location::Satellite(SatelliteId(pick - 1))
            }
        }
    }
}

/// Runs the GA.
pub fn genetic(dag: &TaskDag, cfg: &GaConfig) -> Result<GaResult, String> {
    dag.validate()?;
    let n = dag.len();
    let (assignment, makespan, history) = evolve(
        cfg,
        |size, rng| {
            (0..size)
                .map(|_| (0..n).map(|i| random_location(dag, i, rng)).collect())
                .collect()
        },
        |a| list_makespan(dag, a).expect("generated assignments are feasible"),
        |i, _, rng| random_location(dag, i, rng),
        || false,
    );
    Ok(GaResult {
        assignment,
        makespan,
        history,
    })
}

/// The generation loop of both GAs ([`genetic`] and the cut-space
/// [`crate::CutGenetic`]), over any gene type. `start` draws the first
/// population of the given size, `fitness_of` scores a genome (lower is
/// better) and `mutate` draws the replacement for gene `i`. `stop` is
/// polled before each generation; once it returns true the run ends with
/// what it has bred. Each generation keeps the `elites` fittest and fills
/// up with children of two tournament winners: uniform crossover, then
/// per-gene mutation.
///
/// Returns the fittest genome of the last population (the earliest on a
/// tie), its fitness, and the best fitness of each generation followed by
/// that final one.
pub(crate) fn evolve<G: Copy, F: Copy + Ord>(
    cfg: &GaConfig,
    start: impl FnOnce(usize, &mut StdRng) -> Vec<Vec<G>>,
    mut fitness_of: impl FnMut(&Vec<G>) -> F,
    mut mutate: impl FnMut(usize, G, &mut StdRng) -> G,
    stop: impl Fn() -> bool,
) -> (Vec<G>, F, Vec<F>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pop_size = cfg.population.max(2);
    let mut population = start(pop_size, &mut rng);
    let n = population[0].len();
    let mut fitness: Vec<F> = population.iter().map(&mut fitness_of).collect();

    let mut history = Vec::with_capacity(cfg.generations + 1);
    for _gen in 0..cfg.generations {
        if stop() {
            break;
        }
        // Rank for elitism.
        let mut idx: Vec<usize> = (0..pop_size).collect();
        idx.sort_by_key(|&i| (fitness[i], i));
        history.push(fitness[idx[0]]);

        let mut next: Vec<Vec<G>> = Vec::with_capacity(pop_size);
        for &e in idx.iter().take(cfg.elites.min(pop_size)) {
            next.push(population[e].clone());
        }
        while next.len() < pop_size {
            let a = tournament(&fitness, cfg.tournament, &mut rng);
            let b = tournament(&fitness, cfg.tournament, &mut rng);
            let mut child: Vec<G> = (0..n)
                .map(|i| {
                    if rng.random_bool(0.5) {
                        population[a][i]
                    } else {
                        population[b][i]
                    }
                })
                .collect();
            for (i, gene) in child.iter_mut().enumerate() {
                if rng.random_range(0..1000) < cfg.mutation_permille {
                    *gene = mutate(i, *gene, &mut rng);
                }
            }
            next.push(child);
        }
        population = next;
        fitness = population.iter().map(&mut fitness_of).collect();
    }

    let (best_i, &best) = fitness
        .iter()
        .enumerate()
        .min_by_key(|&(i, &f)| (f, i))
        .expect("non-empty population");
    history.push(best);
    (population.swap_remove(best_i), best, history)
}

/// Tournament selection: draws `k` individuals uniformly and returns the
/// fittest (lowest) of them, the earliest draw winning a tie.
fn tournament<F: PartialOrd>(fitness: &[F], k: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.random_range(0..fitness.len());
    for _ in 1..k.max(1) {
        let c = rng.random_range(0..fitness.len());
        if fitness[c] < fitness[best] {
            best = c;
        }
    }
    best
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
    fn ga_is_deterministic_per_seed() {
        let dag = small_dag();
        let a = genetic(&dag, &GaConfig::default()).unwrap();
        let b = genetic(&dag, &GaConfig::default()).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn ga_never_beats_exact_and_usually_matches_on_small() {
        let dag = small_dag();
        let exact = branch_and_bound(&dag, &BnbConfig::default()).unwrap();
        let ga = genetic(&dag, &GaConfig::default()).unwrap();
        assert!(ga.makespan >= exact.makespan);
        // On a 7-task instance the GA should find the optimum.
        assert_eq!(ga.makespan, exact.makespan);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let dag = small_dag();
        let ga = genetic(&dag, &GaConfig::default()).unwrap();
        for w in ga.history.windows(2) {
            assert!(w[1] <= w[0], "elitism must keep the best");
        }
    }

    #[test]
    fn pinned_genes_stay_pinned() {
        let (t, m) = fig2_tree();
        let dag = TaskDag::from_tree(&t, &m);
        let ga = genetic(
            &dag,
            &GaConfig {
                generations: 10,
                population: 20,
                ..GaConfig::default()
            },
        )
        .unwrap();
        assert!(dag.respects_pinning(&ga.assignment));
    }
}
