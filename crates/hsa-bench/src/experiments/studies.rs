//! Quantitative studies (`t1`–`t14`, `a1`): the measured experiments.
//! Each prints a human-readable table, writes it as CSV, and — where the
//! experiment is perf-tracked — emits a schema-versioned `BENCH_*.json`
//! via [`crate::report`] for the trajectory and the CI perf gate.
//!
//! Every study honours the active [`super::Profile`]: `Full` runs the
//! paper-faithful matrix, `Quick` a shrunk one (same code, smaller
//! instances, fewer repetitions). The profile and the RNG seeds actually
//! used are recorded inside every emitted report.

use super::ExpCtx;
use crate::report::BenchReport;
use crate::{median_ns, sweep_instances, time_median_ns, CsvTable};
use hsa_assign::{
    all_solvers, evaluate_cut, evaluate_cut_in, lambda_frontier_with, sb_optimum,
    solve_with_frontiers, AllOnHost, BruteForce, CancelToken, EvalScratch, Expanded,
    ExpandedConfig, FrontierSet, MaxOffload, PaperSsb, Prepared, SbObjective, Solver,
};
use hsa_engine::net::wire::{self, FrameEncoder};
use hsa_engine::net::{Client, NetConfig, NetServer, NetStats};
use hsa_engine::{
    Engine, EngineConfig, InstanceId, Portfolio, PortfolioConfig, Reply, Request, RequestLatency,
    Service, ServiceConfig, Session, SessionConfig, TenantId, Ticket,
};
use hsa_graph::generate::{layered_dag, LayeredParams};
use hsa_graph::{
    sb_search, sb_search_sweep, ssb_search, ssb_search_sweep, Cost, EliminationRule, Lambda,
    SsbConfig,
};
use hsa_heuristics::{
    branch_and_bound, genetic, simulated_annealing, BnbConfig, GaConfig, SaConfig, TaskDag,
};
use hsa_sim::{render_gantt, simulate, SimConfig};
use hsa_workloads::{
    catalog, drift_trace, epilepsy_scenario, random_instance, random_scenario, request_stream,
    scale_host_times, DriftConfig, EpilepsyParams, Placement, RandomTreeParams, RequestStream,
    StreamConfig, StreamOp,
};
use std::sync::Arc;

/// Makes a scenario name usable as a metric key (alphanumeric + `_`).
fn metric_key(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Emits the service's accepted→answered latency of each request kind
/// that ran as metric `lat_{kind}_{point}`: ops × mean is the histogram's
/// own count and sum, and the tail percentiles ride along as gated columns.
fn emit_request_latency(report: &mut BenchReport, lat: &RequestLatency, point: &str) {
    for (kind, l) in [
        ("solve", lat.solve),
        ("frontier", lat.frontier),
        ("delta", lat.delta),
    ] {
        if l.count > 0 {
            report.metric_with_percentiles(
                format!("lat_{kind}_{point}"),
                l.count,
                l.sum_ns.max(1),
                l.p50_ns,
                l.p99_ns,
            );
        }
    }
}

pub(super) fn t1(ctx: &ExpCtx) {
    const SEED: u64 = 42;
    // Generic SSB on random layered DWGs: runtime vs |V| and |E|.
    let mut table = CsvTable::new(
        "t1_ssb_scaling",
        &["nodes", "edges", "median_ns", "ns_per_v2e_x1e9"],
    );
    let (layer_set, width_set): (&[usize], &[usize]) = ctx.profile.pick(
        (&[2, 4, 8, 16][..], &[2, 4, 8][..]),
        (&[2, 4][..], &[2, 4][..]),
    );
    let reps = ctx.profile.pick(9, 3);
    let mut report = BenchReport::new(
        "ssb_scaling",
        "t1",
        "generic SSB search on random layered DWGs",
        ctx.profile.name(),
        SEED,
    );
    // One configuration at a time on this thread: a median taken while
    // other configurations run beside it would time their contention too.
    for &layers in layer_set {
        for &width in width_set {
            let params = LayeredParams {
                layers,
                width,
                extra_edges: 3 * width,
                max_sigma: 1000,
                max_beta: 1000,
            };
            let gen = layered_dag(&params, SEED);
            let v = gen.graph.num_nodes() as u64;
            let e = gen.graph.num_edges() as u64;
            let ns = time_median_ns(reps, || {
                let mut g = gen.graph.clone();
                let out = ssb_search(&mut g, gen.source, gen.target, &SsbConfig::default());
                std::hint::black_box(out.iterations);
            });
            let normal = ns as f64 * 1e9 / (v as f64 * v as f64 * e as f64);
            table.row(&[
                v.to_string(),
                e.to_string(),
                ns.to_string(),
                format!("{normal:.1}"),
            ]);
            report.instance_sizes.push(v);
            report.metric(format!("ssb_v{v}_e{e}"), 1, ns);
        }
    }
    println!("{}", table.render_text());
    println!("shape check: the last column (time / |V|²|E|, scaled) should stay bounded");
    println!("as the instances grow — the paper's §4.2 O(|V|²|E|) claim.");
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
}

pub(super) fn t2(ctx: &ExpCtx) {
    // sweep_instances derives per-cell seeds as `seed + 1000·n`; the base
    // recorded here is the first cell's seed.
    const SEED_STRIDE: u64 = 1000;
    let mut table = CsvTable::new(
        "t2_expansion_cost",
        &[
            "n_crus",
            "placement",
            "composites_Eprime",
            "paper_iterations",
            "paper_expansions",
            "paper_branches",
            "paper_ns",
            "expanded_ns",
        ],
    );
    let sizes: &[usize] = ctx.profile.pick(&[10, 20, 40, 80][..], &[10, 20][..]);
    let per_cell = ctx.profile.pick(3, 1);
    let reps = ctx.profile.pick(5, 3);
    let suite = sweep_instances(
        sizes,
        &[
            Placement::Blocked,
            Placement::Interleaved,
            Placement::Random,
        ],
        3,
        per_cell,
    );
    // Per (n, placement), one row per seed, timed one instance at a time
    // as in t1.
    let mut agg: std::collections::BTreeMap<(usize, String), Vec<[u64; 6]>> = Default::default();
    for (n, pl, _seed, tree, costs) in suite {
        let prep = Prepared::new(&tree, &costs).unwrap();
        let fast = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        let paper = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
        assert_eq!(fast.objective, paper.objective, "solvers disagree");
        let paper_ns = time_median_ns(reps, || {
            let s = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
            std::hint::black_box(s.objective);
        });
        let exp_ns = time_median_ns(reps, || {
            let s = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
            std::hint::black_box(s.objective);
        });
        agg.entry((n, format!("{pl:?}"))).or_default().push([
            fast.stats.composites,
            paper.stats.iterations,
            paper.stats.expansions,
            paper.stats.branches,
            paper_ns,
            exp_ns,
        ]);
    }
    let mut report = BenchReport::new(
        "expansion",
        "t2",
        "expansion machinery cost: PaperSsb vs Expanded across placements",
        ctx.profile.name(),
        SEED_STRIDE * sizes[0] as u64,
    );
    for ((n, pl), cell) in agg {
        let k = cell.len() as u64;
        let mean = |i: usize| cell.iter().map(|r| r[i]).sum::<u64>() / k;
        table.row(&[
            n.to_string(),
            pl.clone(),
            mean(0).to_string(),
            mean(1).to_string(),
            mean(2).to_string(),
            mean(3).to_string(),
            mean(4).to_string(),
            mean(5).to_string(),
        ]);
        if !report.instance_sizes.contains(&(n as u64)) {
            report.instance_sizes.push(n as u64);
        }
        let key = metric_key(&pl.to_lowercase());
        report.metric(format!("paper_n{n}_{key}"), 1, mean(4));
        report.metric(format!("expanded_n{n}_{key}"), 1, mean(5));
    }
    println!("{}", table.render_text());
    println!("shape check: |E′| (composites) grows with n; interleaved placement forces");
    println!("branches where blocked needs none — the regime split of DESIGN.md §2.");
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
}

pub(super) fn t3(ctx: &ExpCtx) {
    let mut table = CsvTable::new(
        "t3_objective_gap",
        &[
            "instance",
            "ssb_opt_delay",
            "sb_opt_delay",
            "delay_penalty_pct",
            "ssb_opt_bottleneck_SB",
            "sb_opt_bottleneck_SB",
        ],
    );
    {
        let mut run = |name: &str, tree: &hsa_tree::CruTree, costs: &hsa_tree::CostModel| {
            let prep = Prepared::new(tree, costs).unwrap();
            let ssb = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
            let sb_sol = SbObjective::default().solve(&prep, Lambda::HALF).unwrap();
            let sb_val = sb_optimum(&prep).unwrap();
            let penalty =
                (sb_sol.delay().ticks() as f64 / ssb.delay().ticks().max(1) as f64 - 1.0) * 100.0;
            table.row(&[
                name.to_string(),
                ssb.delay().to_string(),
                sb_sol.delay().to_string(),
                format!("{penalty:.1}"),
                ssb.report.host_time.max(ssb.report.bottleneck).to_string(),
                sb_val.to_string(),
            ]);
        };
        for sc in catalog() {
            run(&sc.name, &sc.tree, &sc.costs);
        }
        for seed in 0..ctx.profile.pick(6u64, 2) {
            let (tree, costs) = random_instance(
                &RandomTreeParams {
                    n_crus: 24,
                    n_satellites: 3,
                    placement: Placement::Random,
                    ..RandomTreeParams::default()
                },
                seed,
            );
            run(&format!("random-{seed}"), &tree, &costs);
        }
    }
    println!("{}", table.render_text());
    println!("shape check: minimising Bokhari's bottleneck (SB) costs end-to-end delay —");
    println!("the penalty column is ≥ 0 and often substantial. This is the paper's §2");
    println!("case for replacing the SB objective with SSB.");
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn t4(ctx: &ExpCtx) {
    let mut table = CsvTable::new(
        "t4_sim_validation",
        &[
            "scenario",
            "cut",
            "analytic_S_plus_B",
            "sim_paper_model",
            "match",
            "sim_eager",
            "eager_gain_pct",
        ],
    );
    for sc in catalog() {
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        let optimal = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        let cuts: Vec<(&str, hsa_tree::Cut)> = vec![
            ("all-on-host", hsa_tree::Cut::all_on_host(&sc.tree)),
            (
                "max-offload",
                hsa_tree::Cut::max_offload(&sc.tree, &prep.colouring),
            ),
            ("optimal", optimal.cut.clone()),
        ];
        for (name, cut) in cuts {
            let (_a, rep) = evaluate_cut(&prep, &cut).unwrap();
            let paper = simulate(&prep, &cut, &SimConfig::paper_model()).unwrap();
            let eager = simulate(&prep, &cut, &SimConfig::eager()).unwrap();
            let gain = (1.0
                - eager.end_to_end.ticks() as f64 / paper.end_to_end.ticks().max(1) as f64)
                * 100.0;
            assert_eq!(paper.end_to_end, rep.end_to_end);
            table.row(&[
                sc.name.clone(),
                name.to_string(),
                rep.end_to_end.to_string(),
                paper.end_to_end.to_string(),
                (paper.end_to_end == rep.end_to_end).to_string(),
                eager.end_to_end.to_string(),
                format!("{gain:.1}"),
            ]);
        }
    }
    println!("{}", table.render_text());
    println!("shape check: the paper-model simulation reproduces S+B exactly on every row;");
    println!("the eager relaxation quantifies the §3 model's conservatism.");
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn t5(ctx: &ExpCtx) {
    const SEED: u64 = 7;
    let mut table = CsvTable::new(
        "t5_solver_comparison",
        &[
            "n_crus",
            "brute_cuts",
            "brute_ns",
            "paper_ns",
            "expanded_ns",
            "all_agree",
        ],
    );
    let sizes: &[usize] = ctx.profile.pick(&[8, 12, 16, 20, 24][..], &[8, 12][..]);
    let reps = ctx.profile.pick(5, 3);
    let mut report = BenchReport::new(
        "solver_comparison",
        "t5",
        "exact solvers (PaperSsb, Expanded, preparation) vs instance size",
        ctx.profile.name(),
        SEED,
    );
    for &n in sizes {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: n,
                n_satellites: 3,
                placement: Placement::Random,
                ..RandomTreeParams::default()
            },
            SEED,
        );
        let prep = Prepared::new(&tree, &costs).unwrap();
        let brute = BruteForce::default().solve(&prep, Lambda::HALF);
        let paper = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
        let fast = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        // Brute force stays in the CSV for the exponential-blow-up story but
        // out of the gated report: its runtime is cap-dependent and noisy.
        let (cuts, brute_ns, agree) = match brute {
            Ok(b) => {
                let ns = time_median_ns(3, || {
                    let s = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
                    std::hint::black_box(s.objective);
                });
                (
                    b.stats.evaluated.to_string(),
                    ns.to_string(),
                    (b.objective == paper.objective && b.objective == fast.objective).to_string(),
                )
            }
            Err(_) => (
                ">cap".into(),
                "-".into(),
                (paper.objective == fast.objective).to_string(),
            ),
        };
        let paper_ns = time_median_ns(reps, || {
            let s = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
            std::hint::black_box(s.objective);
        });
        let exp_ns = time_median_ns(reps, || {
            let s = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
            std::hint::black_box(s.objective);
        });
        let prep_ns = time_median_ns(reps, || {
            std::hint::black_box(Prepared::new(&tree, &costs).unwrap().graph().n_edges());
        });
        table.row(&[
            n.to_string(),
            cuts,
            brute_ns,
            paper_ns.to_string(),
            exp_ns.to_string(),
            agree,
        ]);
        report.instance_sizes.push(n as u64);
        report.metric(format!("paper_n{n}"), 1, paper_ns);
        report.metric(format!("expanded_n{n}"), 1, exp_ns);
        report.metric(format!("prepare_n{n}"), 1, prep_ns);
    }
    println!("{}", table.render_text());
    println!("shape check: brute-force cut counts explode exponentially while both");
    println!("polynomial solvers stay in the micro/millisecond range and always agree.");
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
}

pub(super) fn t6(ctx: &ExpCtx) {
    let mut table = CsvTable::new(
        "t6_heterogeneity",
        &[
            "host_speed",
            "optimal",
            "all_on_host",
            "max_offload",
            "greedy",
            "random",
            "advantage_vs_naive",
            "crus_on_host",
        ],
    );
    let base = epilepsy_scenario(&EpilepsyParams::default());
    for (num, den, label) in [
        (8u64, 1u64, "8x-slower"),
        (4, 1, "4x-slower"),
        (2, 1, "2x-slower"),
        (1, 1, "baseline"),
        (1, 2, "2x-faster"),
        (1, 4, "4x-faster"),
        (1, 16, "16x-faster"),
    ] {
        let sc = scale_host_times(&base, num, den);
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        let solve = |s: &dyn Solver| s.solve(&prep, Lambda::HALF).unwrap();
        let optimal = solve(&Expanded::default());
        let naive = solve(&AllOnHost);
        let offload = solve(&MaxOffload);
        let greedy = solve(&hsa_assign::GreedyDescent);
        let random = solve(&hsa_assign::RandomCut::default());
        table.row(&[
            label.to_string(),
            optimal.delay().to_string(),
            naive.delay().to_string(),
            offload.delay().to_string(),
            greedy.delay().to_string(),
            random.delay().to_string(),
            format!(
                "{:.2}x",
                naive.delay().ticks() as f64 / optimal.delay().ticks().max(1) as f64
            ),
            format!("{}/{}", optimal.assignment.host.len(), sc.tree.len()),
        ]);
    }
    println!("{}", table.render_text());
    println!("shape check: the optimal column always wins; its advantage over all-on-host");
    println!("shrinks monotonically as the host speeds up, and CRUs migrate hostward —");
    println!("the crossover the paper's introduction motivates.");
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn t7(ctx: &ExpCtx) {
    let mut table = CsvTable::new(
        "t7_heuristics",
        &[
            "instance",
            "tree_opt_delay",
            "bnb_makespan",
            "bnb_nodes",
            "ga_makespan",
            "ga_vs_bnb_pct",
            "sa_makespan",
            "sa_vs_bnb_pct",
        ],
    );
    for seed in 0..ctx.profile.pick(5u64, 2) {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: 8,
                n_satellites: 2,
                placement: Placement::Random,
                ..RandomTreeParams::default()
            },
            seed,
        );
        let prep = Prepared::new(&tree, &costs).unwrap();
        let tree_opt = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
        let dag = TaskDag::from_tree(&tree, &costs);
        let bnb = branch_and_bound(&dag, &BnbConfig::default()).unwrap();
        let ga = genetic(
            &dag,
            &GaConfig {
                seed,
                ..GaConfig::default()
            },
        )
        .unwrap();
        let sa = simulated_annealing(
            &dag,
            &SaConfig {
                seed,
                ..SaConfig::default()
            },
        )
        .unwrap();
        let pct = |x: Cost| (x.ticks() as f64 / bnb.makespan.ticks().max(1) as f64 - 1.0) * 100.0;
        table.row(&[
            format!("random-{seed}"),
            tree_opt.delay().to_string(),
            bnb.makespan.to_string(),
            bnb.nodes.to_string(),
            ga.makespan.to_string(),
            format!("{:.1}", pct(ga.makespan)),
            sa.makespan.to_string(),
            format!("{:.1}", pct(sa.makespan)),
        ]);
    }
    println!("{}", table.render_text());
    println!("shape check: B&B (exact, list-scheduling objective) never exceeds the tree");
    println!("optimum (assignments ⊇ cuts and list scheduling only overlaps more);");
    println!("GA/SA sit at or slightly above B&B — the paper's §6 expectation.");
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn t8(ctx: &ExpCtx) {
    let sc = epilepsy_scenario(&EpilepsyParams::default());
    let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
    let mut table = CsvTable::new("t8_epilepsy", &["deployment", "delay_us", "S_us", "B_us"]);
    for solver in all_solvers() {
        if let Ok(sol) = solver.solve(&prep, Lambda::HALF) {
            table.row(&[
                solver.name().to_string(),
                sol.delay().to_string(),
                sol.report.host_time.to_string(),
                sol.report.bottleneck.to_string(),
            ]);
        }
    }
    println!("{}", table.render_text());
    let optimal = PaperSsb::default().solve(&prep, Lambda::HALF).unwrap();
    let cfg = SimConfig {
        record_trace: true,
        ..SimConfig::paper_model()
    };
    let sim = simulate(&prep, &optimal.cut, &cfg).unwrap();
    println!("optimal deployment executed in the simulator:");
    println!("{}", render_gantt(&sim, 64));
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn t9(ctx: &ExpCtx) {
    const SEED: u64 = 100;
    // Engine batch throughput: the batched arm (prepared cache + cached
    // frontiers + thread fan-out) against naive per-call solving (a fresh
    // `Prepared` and a fresh solve for every query) on one workload — the
    // catalog plus random instances (instance `i` seeded `SEED + i`) over a
    // λ grid. Both arms must agree query for query before anything is
    // timed: a timing number for a wrong answer is worse than no number.
    let (random_instances, n_crus, lambda_steps, reps) =
        ctx.profile.pick((6usize, 26, 15u32, 5), (1, 10, 3, 2));
    let mut instances: Vec<(hsa_tree::CruTree, hsa_tree::CostModel)> = catalog()
        .into_iter()
        .map(|sc| (sc.tree, sc.costs))
        .collect();
    let placements = [
        Placement::Blocked,
        Placement::Interleaved,
        Placement::Random,
    ];
    for i in 0..random_instances {
        instances.push(random_instance(
            &RandomTreeParams {
                n_crus,
                n_satellites: 3,
                placement: placements[i % placements.len()],
                ..RandomTreeParams::default()
            },
            SEED + i as u64,
        ));
    }
    let lambdas: Vec<Lambda> = (0..=lambda_steps)
        .map(|n| Lambda::new(n, lambda_steps).unwrap())
        .collect();
    let naive = |tree, costs, lambda| {
        let prep = Prepared::new(tree, costs).unwrap();
        Expanded::default().solve(&prep, lambda).unwrap()
    };

    // The verification engine: one cache fill per instance, one query per
    // (instance, λ), every batched answer byte-identical to the naive one.
    let engine = Engine::new(EngineConfig::default());
    let queries: Vec<(InstanceId, Lambda)> = instances
        .iter()
        .flat_map(|(t, c)| {
            let id = engine.prepare(t, c).unwrap();
            lambdas.iter().map(move |&l| (id, l))
        })
        .collect();
    let batched = engine.solve_batch(&queries);
    for ((tree, costs), answers) in instances.iter().zip(batched.chunks(lambdas.len())) {
        for (&lambda, got) in lambdas.iter().zip(answers) {
            let want = naive(tree, costs, lambda);
            let got = got.as_ref().expect("batched solve succeeds");
            assert_eq!(
                got.objective, want.objective,
                "batched and naive disagree — refusing to time a wrong answer"
            );
            assert_eq!(got.cut, want.cut);
        }
    }
    let estats = engine.stats();
    assert_eq!(estats.cache_misses, instances.len() as u64);
    assert_eq!(estats.queries, queries.len() as u64);

    // Per-query latency, the p50/p99 columns BENCH_engine.json gates: every
    // fresh prepare+solve of the naive arm, and single-query solves against
    // a separate warm engine (so the counters above stay the verification
    // batch's) — what a request-at-a-time caller sees.
    let naive_hist = hsa_engine::LatencyHistogram::new();
    for (tree, costs) in &instances {
        for &lambda in &lambdas {
            let t0 = std::time::Instant::now();
            let sol = naive(tree, costs, lambda);
            naive_hist.record_duration(t0.elapsed());
            std::hint::black_box(sol.objective);
        }
    }
    let batched_hist = hsa_engine::LatencyHistogram::new();
    {
        let warm = Engine::new(EngineConfig::default());
        for (t, c) in &instances {
            warm.prepare(t, c).unwrap();
        }
        for &(id, lambda) in &queries {
            let t0 = std::time::Instant::now();
            let out = warm.solve(id, lambda);
            batched_hist.record_duration(t0.elapsed());
            std::hint::black_box(out.is_ok());
        }
    }
    let naive_lat = naive_hist.snapshot().stats();
    let batched_lat = batched_hist.snapshot().stats();
    let n_queries = queries.len() as u64;
    assert_eq!(
        (naive_lat.count, batched_lat.count),
        (n_queries, n_queries),
        "one latency sample per query and arm"
    );

    // The arms are timed interleaved, one sample of each per repetition
    // and the median per arm (as t11 does), so load that lands on one
    // repetition hits both arms instead of swinging their ratio.
    let (mut naive_samples, mut batched_samples) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        naive_samples.push(time_median_ns(1, || {
            for (tree, costs) in &instances {
                for &lambda in &lambdas {
                    std::hint::black_box(naive(tree, costs, lambda).objective);
                }
            }
        }));
        // A cold engine per rep: the batched arm pays its own cache fills.
        batched_samples.push(time_median_ns(1, || {
            let engine = Engine::new(EngineConfig::default());
            for (t, c) in &instances {
                engine.prepare(t, c).unwrap();
            }
            std::hint::black_box(engine.solve_batch(&queries).len());
        }));
    }
    let (naive_ns, batched_ns) = (median_ns(naive_samples), median_ns(batched_samples));

    let mut report = BenchReport::new(
        "engine",
        "t9",
        "engine batch throughput: batched+cached vs naive per-call",
        ctx.profile.name(),
        SEED,
    );
    report.threads = engine.threads();
    report.instance_sizes = instances.iter().map(|(t, _)| t.len() as u64).collect();
    let mut table = CsvTable::new(
        "t9_engine_throughput",
        &[
            "arm",
            "instances",
            "queries",
            "threads",
            "total_ns",
            "solves_per_sec",
        ],
    );
    for (arm, metric, threads, ns, lat) in [
        ("naive-per-call", "naive", 1, naive_ns, naive_lat),
        (
            "engine-batched",
            "batched",
            engine.threads(),
            batched_ns,
            batched_lat,
        ),
    ] {
        table.row(&[
            arm.into(),
            instances.len().to_string(),
            queries.len().to_string(),
            threads.to_string(),
            ns.to_string(),
            format!("{:.1}", n_queries as f64 * 1e9 / ns.max(1) as f64),
        ]);
        report.metric_with_percentiles(metric, n_queries, ns, lat.p50_ns, lat.p99_ns);
    }
    let speedup = naive_ns as f64 / batched_ns.max(1) as f64;
    println!("{}", table.render_text());
    println!(
        "speedup: {speedup:.2}x  (batched answers are asserted byte-identical to the naive arm)"
    );
    println!("shape check: the engine amortises preparation and the λ-independent frontier");
    println!(
        "DP across the λ grid; 20 full-profile runs on 2 CPUs read 1.69-2.55x (not asserted)."
    );
    table.write_csv(ctx.out_dir).unwrap();
    report.param("speedup", speedup);
    report.param("instances", instances.len() as f64);
    report.param("cache_misses", estats.cache_misses as f64);
    report.param("cache_hits", estats.cache_hits as f64);
    report.param("cache_hit_rate", estats.hit_rate());
    ctx.emit(&report);
}

pub(super) fn t10(ctx: &ExpCtx) {
    const SEED: u64 = 200;
    // The λ-frontier case: one envelope pass answers a whole λ grid. Both
    // arms run over identical cached preparations; correctness is asserted
    // at every grid point before anything is timed.
    let grid = ctx.profile.pick(16u32, 4);
    let reps = ctx.profile.pick(5, 3);
    let mut instances: Vec<(String, hsa_tree::CruTree, hsa_tree::CostModel)> = catalog()
        .into_iter()
        .map(|sc| (sc.name, sc.tree, sc.costs))
        .collect();
    for i in 0..ctx.profile.pick(3u64, 1) {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: 24,
                n_satellites: 3,
                placement: Placement::Random,
                ..RandomTreeParams::default()
            },
            SEED + i,
        );
        instances.push((format!("random-{i}"), tree, costs));
    }
    let lambdas: Vec<Lambda> = (0..=grid).map(|n| Lambda::new(n, grid).unwrap()).collect();
    let mut table = CsvTable::new(
        "t10_lambda_frontier",
        &[
            "instance",
            "crus",
            "segments",
            "breakpoints",
            "frontier_ns",
            "grid_ns",
            "speedup",
        ],
    );
    let mut report = BenchReport::new(
        "frontier",
        "t10",
        "λ-frontier envelope vs a per-λ solve grid",
        ctx.profile.name(),
        SEED,
    );
    report.param("lambda_grid_points", lambdas.len() as f64);
    let mut total_segments = 0u64;
    for (name, tree, costs) in &instances {
        let prep = Prepared::new(tree, costs).unwrap();
        let frontiers = FrontierSet::prepare(&prep, &ExpandedConfig::default()).unwrap();
        let frontier = lambda_frontier_with(&prep, &frontiers).unwrap();
        for &lambda in &lambdas {
            let fresh = Expanded::default().solve(&prep, lambda).unwrap();
            assert_eq!(
                frontier.objective_at(lambda),
                fresh.objective,
                "{name}: frontier disagrees with a fresh solve at λ={lambda}"
            );
        }
        let frontier_ns = time_median_ns(reps, || {
            let f = lambda_frontier_with(&prep, &frontiers).unwrap();
            std::hint::black_box(f.num_segments());
        });
        let grid_ns = time_median_ns(reps, || {
            for &lambda in &lambdas {
                let s = Expanded::default().solve(&prep, lambda).unwrap();
                std::hint::black_box(s.objective);
            }
        });
        let key = metric_key(name);
        table.row(&[
            name.clone(),
            tree.len().to_string(),
            frontier.num_segments().to_string(),
            frontier.breakpoints().len().to_string(),
            frontier_ns.to_string(),
            grid_ns.to_string(),
            format!("{:.2}", grid_ns as f64 / frontier_ns.max(1) as f64),
        ]);
        report.instance_sizes.push(tree.len() as u64);
        report.metric(format!("frontier_{key}"), 1, frontier_ns);
        report.metric(format!("grid_{key}"), lambdas.len() as u64, grid_ns);
        total_segments += frontier.num_segments() as u64;
    }
    report.param("total_segments", total_segments as f64);
    println!("{}", table.render_text());
    println!("shape check: the frontier answers the entire λ grid in one envelope pass —");
    println!("its time tracks one threshold sweep, not grid_points × solves, so the");
    println!("speedup column grows with the grid resolution (DESIGN.md §7).");
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
}

pub(super) fn t11(ctx: &ExpCtx) {
    const SEED: u64 = 1100;
    // Incremental re-solve on drifting instances: replay the same drift
    // trace through (a) a held-open `Session` (apply + incremental frontier
    // refresh + solve per step) and (b) from-scratch solving (apply to a
    // bare cost model + full `Prepared` + full `Expanded` solve per step).
    // Before anything is timed, every step's incremental solution is
    // asserted identical — cut for cut — to the fresh solve at λ = 0, ½, 1.
    let steps = ctx.profile.pick(24usize, 5);
    let reps = ctx.profile.pick(7, 3);
    // Production-shaped instance: large tree, blocked placement (eight
    // single-band colours), so the λ-independent frontier DP dominates a
    // from-scratch solve — exactly the regime a drifting deployment lives
    // in. The quick profile shrinks it (same code path; at that size the
    // DP no longer dominates, so no speedup is asserted there).
    let base = random_scenario(
        &RandomTreeParams {
            n_crus: ctx.profile.pick(192, 16),
            n_satellites: ctx.profile.pick(8, 4),
            placement: Placement::Blocked,
            ..RandomTreeParams::default()
        },
        SEED,
    );
    // The drift-magnitude axis: permille scale of the per-step random walk
    // (20‰ ≈ sensor-rate wobble, 400‰ ≈ violent re-costing). Larger
    // magnitudes also scale whole subtrees more often, dirtying more
    // colours per step, so the incremental advantage shrinks — that decay
    // is the experiment's shape.
    let magnitudes: &[u32] = ctx.profile.pick(&[20, 100, 400][..], &[20, 400][..]);
    let mut table = CsvTable::new(
        "t11_incremental",
        &[
            "magnitude_permille",
            "steps",
            "avg_dirty_colours",
            "full_rebuilds",
            "incremental_ns",
            "scratch_ns",
            "speedup",
        ],
    );
    let mut report = BenchReport::new(
        "incremental",
        "t11",
        "incremental re-solve (Session) vs from-scratch across drift magnitudes",
        ctx.profile.name(),
        SEED,
    );
    report.instance_sizes.push(base.tree.len() as u64);
    report.param("steps", steps as f64);
    let lambdas = [Lambda::ZERO, Lambda::HALF, Lambda::ONE];
    let mut small_mag_speedup = f64::NAN;
    for &mag in magnitudes {
        let cfg = DriftConfig {
            steps,
            magnitude_permille: mag,
            touched_per_step: 1,
            subtree_permille: mag.min(400),
            churn_permille: 30,
            seed: SEED + mag as u64,
        };
        let trace = drift_trace(&base, &cfg);
        // Correctness gate: the incremental path must be exact at every
        // single step before its timing means anything.
        let pristine = Session::new(&base.tree, &base.costs, SessionConfig::default()).unwrap();
        let mut session = pristine.clone();
        let mut mirror = base.costs.clone();
        let mut dirty_sum = 0usize;
        for (i, delta) in trace.deltas.iter().enumerate() {
            delta.apply(&base.tree, &mut mirror).unwrap();
            dirty_sum += session.apply(delta).unwrap().dirty_colours;
            let fresh_prep = Prepared::new(&base.tree, &mirror).unwrap();
            for lambda in lambdas {
                let fresh = Expanded::default().solve(&fresh_prep, lambda).unwrap();
                let incr = session.solve(lambda).unwrap();
                assert_eq!(
                    incr.objective, fresh.objective,
                    "m={mag} step {i}: incremental objective diverged at λ={lambda}"
                );
                assert_eq!(
                    incr.cut, fresh.cut,
                    "m={mag} step {i}: incremental cut diverged at λ={lambda}"
                );
            }
        }
        assert_eq!(session.costs(), &trace.final_costs, "replay mismatch");
        let stats = session.stats();
        // The two arms are timed *interleaved* (one sample of each per
        // repetition, medians per arm) so transient machine load lands on
        // both ratios' sides instead of poisoning one whole arm.
        let mut incr_samples = Vec::with_capacity(reps);
        let mut scratch_samples = Vec::with_capacity(reps);
        // Per-step latency tails across every repetition: a drift step
        // that dirties most colours is exactly the p99 the gated
        // percentile columns are for (the arm totals above only see its
        // contribution to the mean). The per-step `Instant` reads are
        // nanoseconds against millisecond-scale steps.
        let incr_hist = hsa_engine::LatencyHistogram::new();
        let scratch_hist = hsa_engine::LatencyHistogram::new();
        for _ in 0..reps {
            // Forking the pristine replay point is setup, not the
            // apply+solve work under measurement — keep it off the clock.
            let mut s = pristine.clone();
            let t0 = std::time::Instant::now();
            for delta in &trace.deltas {
                let s0 = std::time::Instant::now();
                s.apply(delta).unwrap();
                std::hint::black_box(s.solve(Lambda::HALF).unwrap().objective);
                incr_hist.record_duration(s0.elapsed());
            }
            incr_samples.push(t0.elapsed().as_nanos() as u64);
            let mut costs = base.costs.clone();
            let t0 = std::time::Instant::now();
            for delta in &trace.deltas {
                let s0 = std::time::Instant::now();
                delta.apply(&base.tree, &mut costs).unwrap();
                let prep = Prepared::new(&base.tree, &costs).unwrap();
                let sol = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
                std::hint::black_box(sol.objective);
                scratch_hist.record_duration(s0.elapsed());
            }
            scratch_samples.push(t0.elapsed().as_nanos() as u64);
        }
        let incr_lat = incr_hist.snapshot().stats();
        let scratch_lat = scratch_hist.snapshot().stats();
        let incr_ns = median_ns(incr_samples);
        let scratch_ns = median_ns(scratch_samples);
        let speedup = scratch_ns as f64 / incr_ns.max(1) as f64;
        if mag == magnitudes[0] {
            small_mag_speedup = speedup;
        }
        table.row(&[
            mag.to_string(),
            steps.to_string(),
            // Dirty colours per step: exactly the colours whose DP re-ran
            // (`full_rebuilds` counts the steps that dirtied all of them).
            format!("{:.2}", dirty_sum as f64 / steps as f64),
            stats.full_rebuilds.to_string(),
            incr_ns.to_string(),
            scratch_ns.to_string(),
            format!("{speedup:.2}"),
        ]);
        report.metric_with_percentiles(
            format!("incremental_m{mag}"),
            steps as u64,
            incr_ns,
            incr_lat.p50_ns,
            incr_lat.p99_ns,
        );
        report.metric_with_percentiles(
            format!("scratch_m{mag}"),
            steps as u64,
            scratch_ns,
            scratch_lat.p50_ns,
            scratch_lat.p99_ns,
        );
        report.param(format!("speedup_m{mag}"), speedup);
        report.param(format!("full_rebuilds_m{mag}"), stats.full_rebuilds as f64);
        report.param(format!("reuse_rate_m{mag}"), stats.reuse_rate());
    }
    println!("{}", table.render_text());
    println!("shape check: a drift step dirties only one or two colours on average, so the");
    println!("session skips most of the per-step frontier DP — in the full profile the");
    println!("speedup must be ≥ 2x at the smallest magnitude (DESIGN.md §9; the quick");
    println!("profile's instances are too small for the DP to dominate, so the ratio is");
    println!("reported but not asserted there).");
    // Artefacts first, gate second: a timing flake must not destroy the
    // very diagnostics (CSV + BENCH report) that explain it, nor abort
    // the experiments registered after t11.
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
    if ctx.profile == super::Profile::Full {
        assert!(
            small_mag_speedup >= 2.0,
            "incremental re-solve must be ≥ 2x over scratch at small drift \
             (measured {small_mag_speedup:.2}x)"
        );
    }
}

/// One timed (or verified) pass of a request stream through a fresh
/// engine + service at `workers` workers: open one tenant per instance,
/// submit every request in arrival order (open-loop: submission never
/// waits for completions, only for backpressure), wait for every answer,
/// and assert the tenants drifted into exactly the stream's recorded
/// final cost models. Returns the wall time for the whole stream plus
/// the engine and service counter snapshots.
fn run_service_stream(
    stream: &RequestStream,
    arcs: &[(Arc<hsa_tree::CruTree>, Arc<hsa_tree::CostModel>)],
    workers: usize,
    verify: bool,
) -> (u64, hsa_engine::EngineStats, hsa_engine::ServiceStats) {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Service::new(
        Arc::clone(&engine),
        ServiceConfig {
            workers,
            verify,
            ..ServiceConfig::default()
        },
    );
    // Tenant sessions are opened outside the clock (a warm multi-tenant
    // service); the engine's prepare cache starts cold, so solve requests
    // pay first-touch misses *inside* the stream — the `cache_misses` the
    // experiment reports.
    for (i, sc) in stream.instances.iter().enumerate() {
        service
            .open_tenant(conn_tenant(0, i), &sc.tree, &sc.costs)
            .expect("stream tenants open");
    }
    // A real hot client cannot know an instance id before its first answer:
    // the first contact per instance goes by value (and is waited inline to
    // learn the id from the reply); every later solve/frontier on that
    // instance is id-addressed, skipping hashing and the first-contact
    // equality check entirely ([`stream_request`], shared with t13).
    // `Answer` carries either the outstanding ticket or the already-waited
    // first-contact reply, so the drain loop below checks every answer
    // exactly once either way.
    enum Answer {
        Pending(Ticket),
        Done(Box<Reply>),
    }
    let mut learned: Vec<Option<InstanceId>> = vec![None; stream.instances.len()];
    let first_contact = |req: Request, instance: usize| -> Reply {
        service
            .submit(req)
            .wait()
            .unwrap_or_else(|e| panic!("request on instance {instance} failed: {e}"))
    };
    let t0 = std::time::Instant::now();
    let answers: Vec<Answer> = stream
        .requests
        .iter()
        .map(|r| {
            let (tree, costs) = &arcs[r.instance];
            let req = stream_request(&r.op, r.instance, 0, learned[r.instance], tree, costs);
            if is_first_contact(&r.op, learned[r.instance]) {
                let reply = first_contact(req, r.instance);
                learned[r.instance] = reply.instance_id();
                Answer::Done(Box::new(reply))
            } else {
                Answer::Pending(service.submit(req))
            }
        })
        .collect();
    for (answer, r) in answers.into_iter().zip(&stream.requests) {
        let reply = match answer {
            Answer::Done(reply) => *reply,
            Answer::Pending(ticket) => ticket
                .wait()
                .unwrap_or_else(|e| panic!("request on instance {} failed: {e}", r.instance)),
        };
        // The reply kind must match the request kind, always.
        match (&r.op, &reply) {
            (StreamOp::Solve { .. }, Reply::Solution { .. })
            | (StreamOp::Frontier, Reply::Frontier { .. })
            | (StreamOp::Delta { .. }, Reply::Applied { .. }) => {}
            _ => panic!("reply kind does not match request kind"),
        }
    }
    let elapsed = t0.elapsed().as_nanos() as u64;
    // Exactness of the stateful path, independent of `verify`: each
    // tenant's session must have drifted into exactly the cost model the
    // generator recorded (FIFO per tenant, nothing lost, nothing reordered).
    for (i, want) in stream.final_costs.iter().enumerate() {
        let got = service
            .tenant_costs(conn_tenant(0, i))
            .expect("tenant still open");
        assert_eq!(
            &got, want,
            "tenant {i} did not drift into the generated final costs"
        );
    }
    (elapsed, engine.stats(), service.stats())
}

pub(super) fn t12(ctx: &ExpCtx) {
    const SEED: u64 = 1200;
    // The multi-tenant service under an open-loop Zipf request stream:
    // throughput and the engine's cache counts as the worker count grows.
    // Phase 1 runs the whole stream in verification mode (every single
    // answer cross-checked byte-for-byte against a from-scratch
    // `Expanded::solve` / frontier of the same instance state) — only
    // then is anything timed.
    let stream_cfg = StreamConfig {
        requests: ctx.profile.pick(512, 64),
        extra_instances: ctx.profile.pick(5, 2),
        n_crus: ctx.profile.pick(26, 12),
        seed: SEED,
        ..StreamConfig::default()
    };
    let stream = request_stream(&stream_cfg);
    let arcs = stream.arc_instances();
    let reps = ctx.profile.pick(5, 3);

    // Correctness gate before any timing.
    let workers_for_verify = 2;
    let (_, _, vstats) = run_service_stream(&stream, &arcs, workers_for_verify, true);
    assert_eq!(
        vstats.failed, 0,
        "verification stream must answer everything"
    );
    assert_eq!(vstats.completed, stream.requests.len() as u64);

    // The worker-count axis: 1, 2, 4, plus the actual core count when it
    // is larger (on a 1-core runner the >1 points measure oversubscription
    // overhead, not scaling — the report's env fingerprint records cpus).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 2, 4];
    if cores > 4 {
        worker_counts.push(cores);
    }
    worker_counts.dedup();

    let mut table = CsvTable::new(
        "t12_service_stream",
        &[
            "workers",
            "requests",
            "total_ns",
            "req_per_sec",
            "cache_misses",
            "cache_hits",
            "backpressure_waits",
            "solves",
            "frontiers",
            "deltas",
            "solve_p50_us",
            "solve_p99_us",
            "delta_p99_us",
        ],
    );
    let mut report = BenchReport::new(
        "service",
        "t12",
        "service throughput vs worker count under a Zipf request stream",
        ctx.profile.name(),
        SEED,
    );
    report.instance_sizes = stream
        .instances
        .iter()
        .map(|sc| sc.tree.len() as u64)
        .collect();
    report.param("requests", stream.requests.len() as f64);
    report.param("zipf_milli", stream_cfg.zipf_milli as f64);

    // Per-stage breakdown of the id-addressed hot path on the stream's
    // hottest instance against a warm cache: where each answered request's
    // nanoseconds go once the first contact is paid. Each stage is timed
    // tight-looped (median of `stage_reps` loops) and emitted as
    // ops × total-ns, so the gate reads a per-op mean per stage.
    {
        let hot = &stream.instances[0];
        let engine = Engine::new(EngineConfig::default());
        let id = engine
            .prepare(&hot.tree, &hot.costs)
            .expect("hot instance prepares");
        let cached = engine.instance(id).expect("just prepared");
        let lambda = Lambda::HALF;
        let cut = solve_with_frontiers(&cached.prepared, &cached.frontiers, lambda)
            .expect("hot instance solves")
            .cut;
        let mut scratch = EvalScratch::new();
        let iters: u64 = ctx.profile.pick(4096, 512);
        let stage_reps = ctx.profile.pick(9, 5);
        let mut stage = |name: &str, f: &mut dyn FnMut()| {
            let ns = time_median_ns(stage_reps, || {
                for _ in 0..iters {
                    f();
                }
            });
            report.metric(format!("hot_stage_{name}"), iters, ns.max(1));
        };
        // Stage 1: instance identity — two cached content hashes mixed.
        stage("hash", &mut || {
            let mut h = hsa_tree::Fnv1a::new();
            h.write_u64(hot.tree.content_hash());
            h.write_u64(hot.costs.content_hash());
            std::hint::black_box(h.finish());
        });
        // Stage 2: sharded cache lookup by id (lock + Arc clone).
        stage("cache_lookup", &mut || {
            std::hint::black_box(engine.instance(id).is_some());
        });
        // Stage 3: the λ-sweep over the cached per-colour frontiers,
        // including the single winning-cut evaluation it ends with.
        stage("sweep", &mut || {
            let s = solve_with_frontiers(&cached.prepared, &cached.frontiers, lambda).unwrap();
            std::hint::black_box(s.objective);
        });
        // Stage 4: one walk-free cut evaluation in reused scratch — the
        // allocation-free tail every answer pays.
        stage("evaluate", &mut || {
            let out = evaluate_cut_in(&cached.prepared, &cut, &mut scratch).unwrap();
            std::hint::black_box(&out);
        });
    }

    for &w in &worker_counts {
        let mut samples = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let (ns, estats, sstats) = run_service_stream(&stream, &arcs, w, false);
            samples.push(ns);
            last = Some((estats, sstats));
        }
        let ns = median_ns(samples);
        let (estats, sstats) = last.expect("reps >= 1");
        let per_sec = stream.requests.len() as f64 * 1e9 / ns.max(1) as f64;
        let lat = sstats.latency;
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        table.row(&[
            w.to_string(),
            stream.requests.len().to_string(),
            ns.to_string(),
            format!("{per_sec:.1}"),
            estats.cache_misses.to_string(),
            estats.cache_hits.to_string(),
            sstats.backpressure_waits.to_string(),
            lat.solve.count.to_string(),
            lat.frontier.count.to_string(),
            lat.delta.count.to_string(),
            us(lat.solve.p50_ns),
            us(lat.solve.p99_ns),
            us(lat.delta.p99_ns),
        ]);
        report.metric(format!("stream_w{w}"), stream.requests.len() as u64, ns);
        // Per-kind accepted→answered latency of the (last) timed pass.
        emit_request_latency(&mut report, &lat, &format!("w{w}"));
        report.param(format!("cache_misses_w{w}"), estats.cache_misses as f64);
        report.param(format!("cache_hits_w{w}"), estats.cache_hits as f64);
        report.param(
            format!("backpressure_waits_w{w}"),
            sstats.backpressure_waits as f64,
        );
    }
    report.threads = *worker_counts.last().unwrap();
    println!("{}", table.render_text());
    println!("shape check: the p50/p99 columns are accepted→answered request latency");
    println!("(a delta's wait in its tenant FIFO included) — the tail the perf gate");
    println!("defends via the lat_*_w* metrics' percentile columns.");
    println!("shape check: the stream is a hot client — every instance is addressed by");
    println!("id after its first answer, so the engine prepares only on first contacts:");
    println!("cache_misses counts the instances first sent by value and cache_hits stays");
    println!("0 (deltas go to tenant sessions, never to the engine cache); the");
    println!("hot_stage_* metrics break the id-addressed floor into hash / cache lookup /");
    println!("sweep / evaluate ns. Requests/sec should grow with workers on multi-core");
    println!("machines and at worst plateau on one core.");
    println!("Every answer of the verification pass was asserted byte-identical to a");
    println!("from-scratch solve before timing anything (DESIGN.md §10).");
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
}

/// Waits (pipelined) until the answer for `corr` arrives, discarding —
/// after checking — any other answers that land first. Returns the reply
/// and how many *other* outstanding answers were drained along the way.
fn recv_until(client: &mut Client, corr: u64) -> (Reply, usize) {
    let mut drained = 0usize;
    loop {
        let (got, outcome) = client.recv_any().expect("loopback stream answers");
        let reply = outcome.expect("stream requests succeed");
        if got == corr {
            return (reply, drained);
        }
        drained += 1;
    }
}

/// Tenant ids namespaced per connection: concurrent replays of the same
/// stream must never share session state, or the delta drift of one
/// connection would corrupt another's expected answers. Namespace 0 is
/// also the in-process reference's namespace.
fn conn_tenant(conn: usize, instance: usize) -> TenantId {
    TenantId(conn as u64 * 100_000 + instance as u64)
}

/// One precomputed stream step. The request payload is encoded once and
/// replayed by every connection (`tenant` and the correlation id travel
/// in the frame header, so the payload bytes are namespace-blind), and
/// `expected` is the canonical wire JSON the sequential in-process
/// replay answered — valid for any connection namespace because reply
/// payloads never embed the tenant id (the header field is zeroed by
/// [`wire::reply_json`]) and instance ids are structural hashes, stable
/// across services.
struct PreStep {
    kind: u8,
    payload: Vec<u8>,
    /// `Some(instance)` for deltas: the one request kind that addresses a
    /// connection-namespaced tenant (in the header).
    delta_instance: Option<usize>,
    /// First contact of an instance goes by value and is waited inline,
    /// so the engine knows it before this connection's by-id traffic.
    first_contact: bool,
    expected: String,
}

/// Sequential in-process replay of the stream: per request index, the
/// encoded request bytes and the canonical reply JSON every connection
/// must answer.
fn precompute_stream(
    stream: &RequestStream,
    arcs: &[(Arc<hsa_tree::CruTree>, Arc<hsa_tree::CostModel>)],
) -> Vec<PreStep> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Service::new(
        Arc::clone(&engine),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    for (i, sc) in stream.instances.iter().enumerate() {
        service
            .open_tenant(conn_tenant(0, i), &sc.tree, &sc.costs)
            .expect("reference tenants open");
    }
    let mut learned: Vec<Option<InstanceId>> = vec![None; stream.instances.len()];
    let mut enc = FrameEncoder::new();
    let mut frame = Vec::new();
    stream
        .requests
        .iter()
        .map(|r| {
            let (tree, costs) = &arcs[r.instance];
            let first_contact = is_first_contact(&r.op, learned[r.instance]);
            let req = stream_request(&r.op, r.instance, 0, learned[r.instance], tree, costs);
            frame.clear();
            let (kind, payload) = enc.put_request(&mut frame, 0, &req);
            let reply = service.submit(req).wait().expect("reference answers");
            if first_contact {
                learned[r.instance] = reply.instance_id();
            }
            PreStep {
                kind,
                payload: frame[payload].to_vec(),
                delta_instance: matches!(r.op, StreamOp::Delta { .. }).then_some(r.instance),
                first_contact,
                expected: wire::reply_json(&reply),
            }
        })
        .collect()
}

/// Whether a stream step is its instance's first contact: a solve or
/// frontier before the instance's id is learned.
fn is_first_contact(op: &StreamOp, learned: Option<InstanceId>) -> bool {
    learned.is_none() && !matches!(op, StreamOp::Delta { .. })
}

/// The [`Request`] one stream step maps to: first contact per instance
/// goes by value (the reply teaches the id), everything after by id;
/// deltas address the connection's own tenant namespace.
fn stream_request(
    op: &StreamOp,
    instance: usize,
    conn: usize,
    learned: Option<InstanceId>,
    tree: &Arc<hsa_tree::CruTree>,
    costs: &Arc<hsa_tree::CostModel>,
) -> Request {
    match op {
        StreamOp::Solve { lambda } => match learned {
            Some(id) => Request::solve_by_id(id, *lambda),
            None => Request::solve_arc(Arc::clone(tree), Arc::clone(costs), *lambda),
        },
        StreamOp::Frontier => match learned {
            Some(id) => Request::frontier_by_id(id),
            None => Request::frontier_arc(Arc::clone(tree), Arc::clone(costs)),
        },
        StreamOp::Delta { delta, lambda } => {
            Request::delta(conn_tenant(conn, instance), delta.clone(), *lambda)
        }
    }
}

/// One pass of the request stream over loopback TCP: a fresh engine +
/// service + [`NetServer`], `conns` concurrent pipelined [`Client`]
/// connections each replaying the precomputed stream in its own tenant
/// namespace. Per connection the shape matches [`run_service_stream`] —
/// tenants open outside the clock (a barrier releases every replay at
/// once), the first contact per instance is waited inline, everything
/// else pipelines on the socket as batched flushes. With `verify` every
/// answer is waited inline, fully decoded, and asserted byte-identical
/// (canonical wire JSON) to the in-process replay — run that pass
/// untimed, before the timed reps; the timed drain reads raw frames (a
/// thin satellite forwarding answers). Returns wall time (barrier
/// release → last connection drained), the server-side service counters
/// (accepted→answered latency histograms), and the reactor's
/// [`NetStats`].
/// How many replies a timed replay lets ride on the socket before it
/// drains one. Deep enough that the service never starves across the
/// loopback round trip, shallow enough that the accepted→answered
/// histograms read service latency, not self-inflicted queueing delay.
const PIPELINE_WINDOW: usize = 16;

fn run_net_stream(
    stream: &RequestStream,
    pre: &[PreStep],
    conns: usize,
    workers: usize,
    verify: bool,
) -> (u64, hsa_engine::ServiceStats, NetStats) {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Arc::new(Service::new(
        Arc::clone(&engine),
        ServiceConfig {
            workers,
            // A front door sized for hundreds of pipelining connections
            // gets a deeper submission gate than the in-process default:
            // with 64 slots, 256 connections spend more time in
            // park/retry cycles than solving.
            queue_capacity: 256,
            ..ServiceConfig::default()
        },
    ));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("loopback bind");
    let addr = server.local_addr();
    let barrier = std::sync::Barrier::new(conns + 1);

    let replay = |conn: usize| {
        let mut client = Client::connect(addr).expect("loopback connect");
        for (i, sc) in stream.instances.iter().enumerate() {
            client
                .open_tenant(conn_tenant(conn, i), &sc.tree, &sc.costs)
                .expect("stream tenants open over the wire");
        }
        barrier.wait();
        let mut outstanding = 0usize;
        for step in pre {
            let tenant = match step.delta_instance {
                Some(i) => conn_tenant(conn, i).0,
                None => 0,
            };
            let corr = client.send_encoded(step.kind, tenant, &step.payload);
            if verify {
                let (reply, _) = recv_until(&mut client, corr);
                assert_eq!(
                    wire::reply_json(&reply),
                    step.expected,
                    "connection {conn} answer differs from the in-process replay"
                );
            } else if step.first_contact {
                loop {
                    let frame = client.recv_raw().expect("loopback stream answers");
                    assert_ne!(frame.kind, wire::kind::ERROR, "stream requests succeed");
                    if frame.corr == corr {
                        break;
                    }
                    outstanding -= 1;
                }
            } else {
                outstanding += 1;
                // Cap the pipeline the way a real client would: an
                // unbounded burst turns the accepted→answered histogram
                // into a queueing-delay measurement (hundreds of requests
                // deep) instead of a service-latency one, without buying
                // throughput — the window is deep enough to keep the
                // service saturated across the loopback round trip.
                // Draining to half (not one-in-one-out) keeps both
                // directions moving in window-half bursts, so the flush
                // coalescing the reactor is built around still engages.
                if outstanding >= PIPELINE_WINDOW {
                    while outstanding > PIPELINE_WINDOW / 2 {
                        let frame = client.recv_raw().expect("loopback stream answers");
                        assert_ne!(frame.kind, wire::kind::ERROR, "stream requests succeed");
                        outstanding -= 1;
                    }
                }
            }
        }
        while outstanding > 0 {
            let frame = client.recv_raw().expect("loopback stream answers");
            assert_ne!(frame.kind, wire::kind::ERROR, "stream requests succeed");
            outstanding -= 1;
        }
    };

    let mut elapsed = 0u64;
    std::thread::scope(|s| {
        let replay = &replay;
        let handles: Vec<_> = (0..conns)
            .map(|conn| s.spawn(move || replay(conn)))
            .collect();
        barrier.wait();
        let t0 = std::time::Instant::now();
        for h in handles {
            h.join().expect("stream connection panicked");
        }
        elapsed = t0.elapsed().as_nanos() as u64;
    });

    // Same exactness check as the in-process stream, per namespace: every
    // connection's every tenant drifted into exactly the generated final
    // cost model — FIFO held across the socket, the reactor shards, and
    // the service queue, with no cross-connection bleed.
    for conn in 0..conns {
        for (i, want) in stream.final_costs.iter().enumerate() {
            let got = service
                .tenant_costs(conn_tenant(conn, i))
                .expect("tenant still open");
            assert_eq!(
                &got, want,
                "tenant {i} of connection {conn} did not drift into the generated final costs"
            );
        }
    }
    let stats = service.stats();
    let net = server.net_stats();
    server.shutdown();
    (elapsed, stats, net)
}

pub(super) fn t13(ctx: &ExpCtx) {
    const SEED: u64 = 1300;
    // The service behind the TCP front door: the t12 Zipf stream driven
    // through the wire codec and loopback sockets, swept across
    // concurrent connection counts (1 / 8 / 64 / 256) over the
    // event-driven reactor. At each count an untimed pass first replays
    // every connection against a sequential in-process reference and
    // asserts every answer byte-identical (canonical wire JSON) — only
    // then are the reps timed. stream_c1 minus t12's BENCH_service.json
    // is the wire overhead per request; stream_c64 / stream_c1 is the
    // multiplexing win of the reactor + batched flushes.
    let stream_cfg = StreamConfig {
        requests: ctx.profile.pick(384, 48),
        extra_instances: ctx.profile.pick(5, 2),
        n_crus: ctx.profile.pick(26, 12),
        seed: SEED,
        ..StreamConfig::default()
    };
    let stream = request_stream(&stream_cfg);
    let arcs = stream.arc_instances();
    let reps = ctx.profile.pick(5, 3);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 4);
    let pre = precompute_stream(&stream, &arcs);
    let conn_counts = [1usize, 8, 64, 256];

    let mut table = CsvTable::new(
        "t13_net_stream",
        &[
            "conns",
            "requests_total",
            "total_ns",
            "req_per_sec",
            "saturation_parks",
            "writes",
            "frames_out",
            "solves",
            "frontiers",
            "deltas",
            "solve_p50_us",
            "solve_p99_us",
            "frontier_p99_us",
            "delta_p99_us",
        ],
    );
    let mut report = BenchReport::new(
        "net",
        "t13",
        "loopback TCP service throughput vs concurrent connection count under a Zipf request stream",
        ctx.profile.name(),
        SEED,
    );
    report.instance_sizes = stream
        .instances
        .iter()
        .map(|sc| sc.tree.len() as u64)
        .collect();
    report.param("requests_per_conn", stream.requests.len() as f64);
    report.param("zipf_milli", stream_cfg.zipf_milli as f64);
    report.param("workers", workers as f64);

    for &conns in &conn_counts {
        let total = conns * stream.requests.len();

        // Byte-identity gate at this connection count before any timing.
        let (_, vstats, _) = run_net_stream(&stream, &pre, conns, workers, true);
        assert_eq!(vstats.failed, 0, "verified stream must answer everything");
        // Each connection also opened its tenants over the wire.
        let opens = conns * stream.instances.len();
        assert_eq!(vstats.completed, (total + opens) as u64);

        let mut samples = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let (ns, sstats, nstats) = run_net_stream(&stream, &pre, conns, workers, false);
            samples.push(ns);
            last = Some((sstats, nstats));
        }
        let ns = median_ns(samples);
        let (sstats, nstats) = last.expect("reps >= 1");
        let per_sec = total as f64 * 1e9 / ns.max(1) as f64;
        let lat = sstats.latency;
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        table.row(&[
            conns.to_string(),
            total.to_string(),
            ns.to_string(),
            format!("{per_sec:.1}"),
            nstats.saturation_parks.to_string(),
            nstats.writes.to_string(),
            nstats.frames_out.to_string(),
            lat.solve.count.to_string(),
            lat.frontier.count.to_string(),
            lat.delta.count.to_string(),
            us(lat.solve.p50_ns),
            us(lat.solve.p99_ns),
            us(lat.frontier.p99_ns),
            us(lat.delta.p99_ns),
        ]);
        report.metric(format!("stream_c{conns}"), total as u64, ns);
        // Per-kind accepted→answered latency, server side — the socket
        // and codec are outside these histograms, so a tail regression
        // here is the service's, while stream_c* absorbs the wire cost.
        emit_request_latency(&mut report, &lat, &format!("c{conns}"));
        report.param(
            format!("saturation_parks_c{conns}"),
            nstats.saturation_parks as f64,
        );
        report.param(format!("writes_c{conns}"), nstats.writes as f64);
        report.param(format!("frames_out_c{conns}"), nstats.frames_out as f64);
    }
    report.threads = workers;
    println!("{}", table.render_text());
    println!("shape check: every connection pipelines the whole stream in its own tenant");
    println!("namespace, so req/s is aggregate across connections and includes framing,");
    println!("the loopback sockets, and the reactor shards; frames_out/writes is the");
    println!("flush-coalescing ratio (higher = fewer syscalls per reply). The lat_*_c*");
    println!("histograms are the same accepted→answered clock as t12's, so stream_c1");
    println!("minus t12 at equal workers reads as the wire overhead per request.");
    println!("Every answer of each count's verification pass was byte-identical to the");
    println!("in-process replay of the identical request sequence (DESIGN.md §13, §15).");
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
}

pub(super) fn t14(ctx: &ExpCtx) {
    const SEED: u64 = 1400;
    // The anytime portfolio under scale: instances from the paper's
    // ~30-CRU operating point up to 100× it, every request on the same
    // fixed budget. The portfolio always answers — the question is who
    // wins, how fast the first feasible answer lands, and how tight the
    // certified gap is when the deadline (not the exact arm) ends the
    // race. The control column races *exact alone* against the identical
    // deadline via its cancellation token, so "exact exceeds its
    // deadline" is measured, not inferred from a full-solve timing.
    let sizes: &[usize] = ctx
        .profile
        .pick(&[30, 100, 300, 1000, 3000][..], &[30, 100, 300][..]);
    const BASE: usize = 30;
    let budget = std::time::Duration::from_millis(25);
    let reps = ctx.profile.pick(3, 2);

    let mut table = CsvTable::new(
        "t14_portfolio",
        &[
            "n_crus",
            "scale_x",
            "first_answer_us",
            "winner",
            "gap_ppm",
            "upgrades",
            "exact_finished",
            "exact_only_us",
            "exact_in_budget",
        ],
    );
    let mut report = BenchReport::new(
        "portfolio",
        "t14",
        "anytime racing portfolio: time-to-first-answer and certified gap vs instance scale",
        ctx.profile.name(),
        SEED,
    );
    report.param("budget_ms", budget.as_millis() as f64);

    for &n in sizes {
        // Fresh engine per size: every rep below must race, not replay a
        // cached frontier set, so rep seeds also differ per size.
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let portfolio = Portfolio::new(Arc::clone(&engine), PortfolioConfig::default());
        report.threads = portfolio.workers();
        let mut firsts = Vec::with_capacity(reps);
        let mut last = None;
        for rep in 0..reps {
            let (tree, costs) = random_instance(
                &RandomTreeParams {
                    n_crus: n,
                    placement: Placement::Random,
                    ..RandomTreeParams::default()
                },
                SEED + 1000 * n as u64 + rep as u64,
            );
            let outcome = portfolio
                .solve_anytime(&tree, &costs, Lambda::HALF, budget)
                .expect("the portfolio answers every instance");
            firsts.push(outcome.time_to_first_ns);
            last = Some((outcome, tree, costs));
        }
        firsts.sort_unstable();
        let first_ns = firsts[firsts.len() / 2];
        let (outcome, tree, costs) = last.expect("reps >= 1");
        let answer = &outcome.answer;

        // Exact-only control on the last rep's instance: the same budget,
        // enforced by the exact solver's own cancellation token.
        let t0 = std::time::Instant::now();
        let prep = Prepared::new(&tree, &costs).expect("generated instances prepare");
        let token = CancelToken::with_deadline(std::time::Instant::now() + budget);
        let exact_only =
            FrontierSet::prepare_cancellable(&prep, &ExpandedConfig::default(), &token)
                .and_then(|fs| solve_with_frontiers(&prep, &fs, Lambda::HALF));
        let exact_ns = t0.elapsed().as_nanos() as u64;
        let exact_in_budget = exact_only.is_ok() && t0.elapsed() <= budget;

        let gap_ppm = answer.certificate.relative_gap() * 1e6;
        table.row(&[
            n.to_string(),
            format!("{:.0}", n as f64 / BASE as f64),
            format!("{:.1}", first_ns as f64 / 1e3),
            answer.winner.to_string(),
            format!("{gap_ppm:.0}"),
            outcome.upgrades.to_string(),
            answer.exact_finished.to_string(),
            format!("{:.1}", exact_ns as f64 / 1e3),
            exact_in_budget.to_string(),
        ]);
        report.instance_sizes.push(tree.len() as u64);
        report.metric(format!("first_answer_n{n}"), 1, first_ns.max(1));
        report.metric(format!("exact_only_n{n}"), 1, exact_ns.max(1));
        // Racy facts (who won, whether exact finished, the gap) are
        // params: trend tooling sees them, the perf gate does not.
        report.param(format!("gap_ppm_n{n}"), gap_ppm);
        report.param(
            format!("exact_finished_n{n}"),
            answer.exact_finished as u64 as f64,
        );
        report.param(
            format!("exact_in_budget_n{n}"),
            exact_in_budget as u64 as f64,
        );
    }
    println!("{}", table.render_text());
    println!("shape check: the portfolio's first answer stays inside the budget at every");
    println!("scale — the heuristic arms answer with a certified gap long after exact-only");
    println!("has blown the same deadline (exact_in_budget flips to false as n grows;");
    println!("at paper scale exact still wins outright and the gap is exactly zero).");
    table.write_csv(ctx.out_dir).unwrap();
    ctx.emit(&report);
}

pub(super) fn a1(ctx: &ExpCtx) {
    const SEED: u64 = 42;
    // The DESIGN.md §2 ablations, as a table: elimination rule `β ≥ B(P)`
    // (Figure 4 semantics) vs strict `β > B(P)`, and iterate-and-eliminate
    // vs the parametric threshold sweep, for both objectives.
    let params = LayeredParams {
        layers: ctx.profile.pick(8, 4),
        width: 4,
        extra_edges: 12,
        max_sigma: 1000,
        max_beta: 1000,
    };
    let gen = layered_dag(&params, SEED);
    let reps = ctx.profile.pick(7, 3);
    let mut table = CsvTable::new("a1_ablations", &["variant", "median_ns", "work"]);
    let strict = SsbConfig {
        rule: EliminationRule::Strict,
        ..SsbConfig::default()
    };
    let mut time = |name: &str, work: String, f: &mut dyn FnMut()| {
        let ns = time_median_ns(reps, f);
        table.row(&[name.to_string(), ns.to_string(), work]);
    };
    let mut g = gen.graph.clone();
    let base = ssb_search(&mut g, gen.source, gen.target, &SsbConfig::default());
    time(
        "ssb_rule_greater_equal",
        format!("{} iterations", base.iterations),
        &mut || {
            let mut g = gen.graph.clone();
            let out = ssb_search(&mut g, gen.source, gen.target, &SsbConfig::default());
            std::hint::black_box(out.iterations);
        },
    );
    let mut g = gen.graph.clone();
    let strict_out = ssb_search(&mut g, gen.source, gen.target, &strict);
    time(
        "ssb_rule_strict",
        format!("{} iterations", strict_out.iterations),
        &mut || {
            let mut g = gen.graph.clone();
            let out = ssb_search(&mut g, gen.source, gen.target, &strict);
            std::hint::black_box(out.iterations);
        },
    );
    let mut g = gen.graph.clone();
    let sweep = ssb_search_sweep(&mut g, gen.source, gen.target, Lambda::HALF);
    time("ssb_sweep", format!("{} probes", sweep.probes), &mut || {
        let mut g = gen.graph.clone();
        let out = ssb_search_sweep(&mut g, gen.source, gen.target, Lambda::HALF);
        std::hint::black_box(out.probes);
    });
    let mut g = gen.graph.clone();
    let sb = sb_search(&mut g, gen.source, gen.target);
    time(
        "sb_iterative",
        format!("{} iterations", sb.iterations),
        &mut || {
            let mut g = gen.graph.clone();
            let out = sb_search(&mut g, gen.source, gen.target);
            std::hint::black_box(out.iterations);
        },
    );
    let mut g = gen.graph.clone();
    let sb_sw = sb_search_sweep(&mut g, gen.source, gen.target);
    time("sb_sweep", format!("{} probes", sb_sw.probes), &mut || {
        let mut g = gen.graph.clone();
        let out = sb_search_sweep(&mut g, gen.source, gen.target);
        std::hint::black_box(out.probes);
    });
    println!("{}", table.render_text());
    println!("shape check: both elimination rules find the same optimum (asserted in");
    println!("hsa-graph's property suite); the sweep variants trade iterations for probes.");
    table.write_csv(ctx.out_dir).unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_keys_are_sanitised() {
        assert_eq!(metric_key("paper (fig 2)"), "paper__fig_2_");
        assert_eq!(metric_key("random-3"), "random_3");
    }

    #[test]
    fn paper_scenario_is_in_the_catalog() {
        // t10's report keys derive from catalog names; pin the invariant
        // that the catalog is non-empty and starts with the paper scenario.
        let cat = catalog();
        assert!(!cat.is_empty());
        let _ = hsa_workloads::paper_scenario();
    }
}
