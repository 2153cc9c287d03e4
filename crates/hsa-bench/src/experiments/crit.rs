//! Criterion measurement bodies for the `benches/*.rs` targets.
//!
//! Each function here is one bench target's body, registered on its
//! experiment in [`super::REGISTRY`] and dispatched through
//! [`super::criterion_bench`] — so `cargo bench` and the repro harness
//! measure exactly one implementation, and `repro --list` enumerates what
//! `cargo bench` runs.

use criterion::{BenchmarkId, Criterion};
use hsa_assign::{BruteForce, Expanded, PaperSsb, Prepared, SbObjective, Solver};
use hsa_graph::dijkstra::shortest_path;
use hsa_graph::generate::{layered_dag, LayeredParams};
use hsa_graph::{
    sb_search, sb_search_sweep, ssb_search, ssb_search_sweep, Cost, EliminationRule, Lambda,
    SsbConfig,
};
use hsa_heuristics::{
    branch_and_bound, genetic, simulated_annealing, BnbConfig, GaConfig, SaConfig, TaskDag,
};
use hsa_sim::{simulate, simulate_periodic, SimConfig};
use hsa_workloads::{
    catalog, epilepsy_scenario, host_speed_sweep, random_instance, EpilepsyParams, Placement,
    RandomTreeParams,
};
use std::hint::black_box;

/// Bench F4: the SSB algorithm on the paper's Figure 4 graph (the
/// smallest meaningful workload — measures per-iteration overhead).
pub(super) fn ssb_fig4(c: &mut Criterion) {
    let (g, s, t) = hsa_graph::figures::fig4_graph();
    c.bench_function("ssb_fig4/full_search", |b| {
        b.iter(|| {
            let mut g2 = g.clone();
            let out = ssb_search(&mut g2, s, t, &SsbConfig::default());
            black_box(out.best.map(|x| x.ssb))
        })
    });
    c.bench_function("ssb_fig4/with_trace", |b| {
        let cfg = SsbConfig {
            record_trace: true,
            ..SsbConfig::default()
        };
        b.iter(|| {
            let mut g2 = g.clone();
            let out = ssb_search(&mut g2, s, t, &cfg);
            black_box(out.trace.len())
        })
    });
}

/// Bench T1: generic SSB runtime scaling over random layered DWGs — the
/// empirical counterpart of the paper's O(|V|²·|E|) claim (§4.2). Also
/// benchmarks the Dijkstra core and Bokhari's SB baseline on the same
/// graphs, so the per-iteration cost and the objective overhead separate.
pub(super) fn ssb_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssb_scaling");
    for (layers, width) in [(2usize, 2usize), (4, 4), (8, 4), (8, 8), (16, 8)] {
        let params = LayeredParams {
            layers,
            width,
            extra_edges: 3 * width,
            max_sigma: 1000,
            max_beta: 1000,
        };
        let gen = layered_dag(&params, 42);
        let label = format!("v{}_e{}", gen.graph.num_nodes(), gen.graph.num_edges());
        group.bench_with_input(BenchmarkId::new("ssb", &label), &gen, |b, gen| {
            b.iter(|| {
                let mut g = gen.graph.clone();
                let out = ssb_search(&mut g, gen.source, gen.target, &SsbConfig::default());
                black_box(out.iterations)
            })
        });
        group.bench_with_input(BenchmarkId::new("sb", &label), &gen, |b, gen| {
            b.iter(|| {
                let mut g = gen.graph.clone();
                let out = sb_search(&mut g, gen.source, gen.target);
                black_box(out.iterations)
            })
        });
        group.bench_with_input(BenchmarkId::new("dijkstra", &label), &gen, |b, gen| {
            b.iter(|| {
                black_box(shortest_path(&gen.graph, gen.source, gen.target).map(|p| p.s_weight))
            })
        });
    }
    group.finish();
}

/// Bench T2: the cost of the expansion machinery as colour interleaving
/// grows — the |E′| axis of the paper's O(|E′|) claim for the adapted
/// algorithm (§5.4).
pub(super) fn expansion_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("expansion_cost");
    for placement in [
        Placement::Blocked,
        Placement::Interleaved,
        Placement::Random,
    ] {
        for n in [10usize, 20] {
            let (tree, costs) = random_instance(
                &RandomTreeParams {
                    n_crus: n,
                    n_satellites: 3,
                    placement,
                    ..RandomTreeParams::default()
                },
                11,
            );
            let prep = Prepared::new(&tree, &costs).unwrap();
            let label = format!("{placement:?}_{n}");
            group.bench_with_input(BenchmarkId::new("paper_ssb", &label), &prep, |b, prep| {
                b.iter(|| black_box(PaperSsb::default().solve(prep, Lambda::HALF).unwrap().stats))
            });
            group.bench_with_input(BenchmarkId::new("expanded", &label), &prep, |b, prep| {
                b.iter(|| black_box(Expanded::default().solve(prep, Lambda::HALF).unwrap().stats))
            });
        }
    }
    group.finish();
}

/// Bench T3: solving for the paper's SSB objective vs Bokhari's SB
/// objective on the same instances (both via the shared colour frontiers).
pub(super) fn objective_gap(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective_gap");
    for sc in catalog() {
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        group.bench_with_input(BenchmarkId::new("ssb", &sc.name), &prep, |b, prep| {
            b.iter(|| {
                black_box(
                    Expanded::default()
                        .solve(prep, Lambda::HALF)
                        .unwrap()
                        .objective,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("sb", &sc.name), &prep, |b, prep| {
            b.iter(|| {
                black_box(
                    SbObjective::default()
                        .solve(prep, Lambda::HALF)
                        .unwrap()
                        .objective,
                )
            })
        });
    }
    group.finish();
}

/// Bench T4: simulator throughput — single frames under both timing
/// models, and the periodic-pipeline engine.
pub(super) fn sim_validate(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_validate");
    for sc in catalog() {
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        let optimal = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        group.bench_with_input(
            BenchmarkId::new("paper_model", &sc.name),
            &(&prep, &optimal.cut),
            |b, (prep, cut)| {
                b.iter(|| {
                    black_box(
                        simulate(prep, cut, &SimConfig::paper_model())
                            .unwrap()
                            .end_to_end,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("eager", &sc.name),
            &(&prep, &optimal.cut),
            |b, (prep, cut)| {
                b.iter(|| black_box(simulate(prep, cut, &SimConfig::eager()).unwrap().end_to_end))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pipeline_100_frames", &sc.name),
            &(&prep, &optimal.cut),
            |b, (prep, cut)| {
                b.iter(|| {
                    black_box(
                        simulate_periodic(prep, cut, Cost::new(1_000_000), 100)
                            .unwrap()
                            .makespan,
                    )
                })
            },
        );
    }
    group.finish();
}

/// Bench T5: the three exact solvers (paper-SSB, full expansion, brute
/// force) against growing instance sizes — who pays what for exactness.
pub(super) fn solver_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_comparison");
    for n in [10usize, 20, 40, 80] {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: n,
                n_satellites: 3,
                // Blocked placement keeps the faithful algorithm in its
                // polynomial regime at every size; the interleaved regime
                // is measured separately in `expansion_cost`.
                placement: Placement::Blocked,
                ..RandomTreeParams::default()
            },
            7,
        );
        let prep = Prepared::new(&tree, &costs).unwrap();
        group.bench_with_input(BenchmarkId::new("paper_ssb", n), &prep, |b, prep| {
            b.iter(|| {
                black_box(
                    PaperSsb::default()
                        .solve(prep, Lambda::HALF)
                        .unwrap()
                        .objective,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("expanded", n), &prep, |b, prep| {
            b.iter(|| {
                black_box(
                    Expanded::default()
                        .solve(prep, Lambda::HALF)
                        .unwrap()
                        .objective,
                )
            })
        });
        if n <= 20 {
            group.bench_with_input(BenchmarkId::new("brute_force", n), &prep, |b, prep| {
                b.iter(|| {
                    black_box(
                        BruteForce::default()
                            .solve(prep, Lambda::HALF)
                            .unwrap()
                            .objective,
                    )
                })
            });
        }
        // Preparation cost itself (colouring + labelling), plus the dual
        // graph it builds on first use.
        group.bench_with_input(
            BenchmarkId::new("prepare", n),
            &(&tree, &costs),
            |b, (t, m)| b.iter(|| black_box(Prepared::new(t, m).unwrap().graph().n_edges())),
        );
    }
    group.finish();
}

/// Bench T6: full solve pipeline across the heterogeneity sweep (prepare +
/// solve per host-speed point) — the cost of re-planning when the platform
/// changes.
pub(super) fn heterogeneity(c: &mut Criterion) {
    let base = epilepsy_scenario(&EpilepsyParams::default());
    let mut group = c.benchmark_group("heterogeneity");
    for (label, sc) in host_speed_sweep(&base) {
        group.bench_with_input(BenchmarkId::new("replan", &label), &sc, |b, sc| {
            b.iter(|| {
                let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
                black_box(
                    Expanded::default()
                        .solve(&prep, Lambda::HALF)
                        .unwrap()
                        .objective,
                )
            })
        });
    }
    group.finish();
}

/// Bench T7: the future-work solvers (B&B, GA, SA) on tree-derived DAGs —
/// runtime versus the polynomial tree-exact solver.
pub(super) fn heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    for n in [6usize, 8, 10] {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: n,
                n_satellites: 2,
                placement: Placement::Random,
                ..RandomTreeParams::default()
            },
            3,
        );
        let dag = TaskDag::from_tree(&tree, &costs);
        group.bench_with_input(BenchmarkId::new("bnb", n), &dag, |b, dag| {
            b.iter(|| {
                black_box(
                    branch_and_bound(dag, &BnbConfig::default())
                        .unwrap()
                        .makespan,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("ga", n), &dag, |b, dag| {
            let cfg = GaConfig {
                generations: 40,
                population: 30,
                ..GaConfig::default()
            };
            b.iter(|| black_box(genetic(dag, &cfg).unwrap().makespan))
        });
        group.bench_with_input(BenchmarkId::new("sa", n), &dag, |b, dag| {
            let cfg = SaConfig {
                iterations: 1_000,
                ..SaConfig::default()
            };
            b.iter(|| black_box(simulated_annealing(dag, &cfg).unwrap().makespan))
        });
        let prep_input = (tree.clone(), costs.clone());
        group.bench_with_input(
            BenchmarkId::new("tree_exact", n),
            &prep_input,
            |b, (t, m)| {
                b.iter(|| {
                    let prep = Prepared::new(t, m).unwrap();
                    black_box(
                        Expanded::default()
                            .solve(&prep, Lambda::HALF)
                            .unwrap()
                            .objective,
                    )
                })
            },
        );
    }
    group.finish();
}

/// Bench A1: ablations for the design choices DESIGN.md §2 records —
/// elimination rule `β ≥ B(P)` (Figure 4 semantics) vs the prose's strict
/// `β > B(P)`, and iterate-and-eliminate (the paper) vs the parametric
/// threshold sweep for both objectives.
pub(super) fn ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    for (layers, width) in [(4usize, 4usize), (8, 8)] {
        let params = LayeredParams {
            layers,
            width,
            extra_edges: 3 * width,
            max_sigma: 1000,
            max_beta: 1000,
        };
        let gen = layered_dag(&params, 42);
        let label = format!("v{}_e{}", gen.graph.num_nodes(), gen.graph.num_edges());

        group.bench_with_input(
            BenchmarkId::new("ssb_rule_greater_equal", &label),
            &gen,
            |b, gen| {
                b.iter(|| {
                    let mut g = gen.graph.clone();
                    black_box(
                        ssb_search(&mut g, gen.source, gen.target, &SsbConfig::default())
                            .iterations,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ssb_rule_strict", &label),
            &gen,
            |b, gen| {
                let cfg = SsbConfig {
                    rule: EliminationRule::Strict,
                    ..SsbConfig::default()
                };
                b.iter(|| {
                    let mut g = gen.graph.clone();
                    black_box(ssb_search(&mut g, gen.source, gen.target, &cfg).iterations)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("ssb_sweep", &label), &gen, |b, gen| {
            b.iter(|| {
                let mut g = gen.graph.clone();
                black_box(ssb_search_sweep(&mut g, gen.source, gen.target, Lambda::HALF).probes)
            })
        });
        group.bench_with_input(BenchmarkId::new("sb_iterative", &label), &gen, |b, gen| {
            b.iter(|| {
                let mut g = gen.graph.clone();
                black_box(sb_search(&mut g, gen.source, gen.target).iterations)
            })
        });
        group.bench_with_input(BenchmarkId::new("sb_sweep", &label), &gen, |b, gen| {
            b.iter(|| {
                let mut g = gen.graph.clone();
                black_box(sb_search_sweep(&mut g, gen.source, gen.target).probes)
            })
        });
    }
    group.finish();
}

/// Bench T12 hot client (DESIGN.md §12): the per-request floor a warm
/// service rides. `prepare_cold` is the full miss work (owned prepare +
/// per-colour frontiers), `prepare_hit` the hashed re-prepare with its
/// first-contact equality check, `instance_lookup` the raw sharded-cache
/// read, and `solve_by_id` the whole id-addressed answer (lookup +
/// λ-sweep + walk-free evaluation).
pub(super) fn prepare_hot(c: &mut Criterion) {
    use hsa_assign::{ExpandedConfig, FrontierSet};
    use hsa_engine::{Engine, EngineConfig};
    let mut group = c.benchmark_group("prepare_hot");
    for &n in &[16usize, 64] {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: n,
                ..RandomTreeParams::default()
            },
            4242,
        );
        let engine = Engine::new(EngineConfig::default());
        let id = engine.prepare(&tree, &costs).expect("instance prepares");
        let label = format!("n{n}");
        group.bench_function(format!("prepare_cold/{label}"), |b| {
            b.iter(|| {
                let prep = Prepared::new_owned(tree.clone(), costs.clone()).unwrap();
                let fs = FrontierSet::prepare(&prep, &ExpandedConfig::default()).unwrap();
                black_box(&fs);
            })
        });
        group.bench_function(format!("prepare_hit/{label}"), |b| {
            b.iter(|| black_box(engine.prepare(&tree, &costs).unwrap()))
        });
        group.bench_function(format!("instance_lookup/{label}"), |b| {
            b.iter(|| black_box(engine.instance(id).is_some()))
        });
        group.bench_function(format!("solve_by_id/{label}"), |b| {
            b.iter(|| black_box(engine.solve(id, Lambda::HALF).unwrap().objective))
        });
    }
    group.finish();
}
