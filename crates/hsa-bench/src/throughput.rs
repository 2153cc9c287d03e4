//! The engine throughput experiment: batched (prepared-cache + cached
//! frontiers + thread fan-out) versus **naive per-call** solving
//! (allocate-and-destroy: a fresh `Prepared` and a fresh solve for every
//! single query) on one and the same workload.
//!
//! This is the quantitative case for the `hsa-engine` service layer; the
//! result is written as the schema-versioned `BENCH_engine.json` (via
//! [`crate::report`]) to seed the bench trajectory, and is asserted to
//! stay exact (both arms must produce identical objectives before any
//! timing is believed). The emitted report is self-describing: it records
//! the RNG seed the workload generation actually used, the worker-thread
//! count the engine actually ran with, the instance sizes, and the
//! engine's cache counters.

use crate::report::BenchReport;
use crate::time_median_ns;
use hsa_assign::{Expanded, Prepared, Solver};
use hsa_engine::{Engine, EngineConfig, EngineStats, InstanceId, LatencyHistogram, LatencyStats};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree};
use hsa_workloads::{catalog, random_instance, Placement, RandomTreeParams};

/// Base RNG seed for the random instances of the throughput workload
/// (instance `i` uses `WORKLOAD_SEED + i`). Recorded in the report.
pub const WORKLOAD_SEED: u64 = 100;

/// Workload shape for [`engine_throughput`].
#[derive(Clone, Copy, Debug)]
pub struct ThroughputConfig {
    /// Random instances added on top of the scenario catalog.
    pub random_instances: usize,
    /// CRUs per random instance.
    pub n_crus: usize,
    /// λ grid resolution (queries per instance = `lambda_steps` + 1).
    pub lambda_steps: u32,
    /// Timing repetitions (median is reported).
    pub reps: usize,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            random_instances: 6,
            n_crus: 26,
            lambda_steps: 15,
            reps: 5,
        }
    }
}

/// Measured throughput of batched-vs-naive solving. Times are medians in
/// nanoseconds for the *whole* query set.
#[derive(Clone, Debug)]
pub struct EngineThroughput {
    /// Distinct instances in the workload.
    pub instances: usize,
    /// CRU count of every workload instance, in workload order.
    pub instance_sizes: Vec<u64>,
    /// Total `(instance, λ)` queries.
    pub queries: usize,
    /// Worker threads the engine used.
    pub threads: usize,
    /// Naive arm: fresh `Prepared` + fresh solve per query.
    pub naive_ns: u64,
    /// Batched arm: `Engine::solve_batch` over the cached instances.
    pub batched_ns: u64,
    /// Per-query latency distribution of the naive arm (one histogram
    /// sample per fresh prepare+solve).
    pub naive_lat: LatencyStats,
    /// Per-query latency distribution of single-query solves against a
    /// warm engine — the cached request-latency tail a service caller
    /// sees, as opposed to the whole-batch throughput above.
    pub batched_lat: LatencyStats,
    /// Engine counters from the verification batch (cache fills, query
    /// counts, merged solver work).
    pub engine_stats: EngineStats,
}

impl EngineThroughput {
    /// Naive solves per second.
    pub fn naive_solves_per_sec(&self) -> f64 {
        self.queries as f64 * 1e9 / self.naive_ns.max(1) as f64
    }

    /// Batched solves per second.
    pub fn batched_solves_per_sec(&self) -> f64 {
        self.queries as f64 * 1e9 / self.batched_ns.max(1) as f64
    }

    /// Batched-over-naive speedup.
    pub fn speedup(&self) -> f64 {
        self.naive_ns as f64 / self.batched_ns.max(1) as f64
    }

    /// The schema-versioned `BENCH_engine.json` payload (see
    /// [`crate::report`]).
    pub fn to_report(&self, profile: &str) -> BenchReport {
        let mut report = BenchReport::new(
            "engine",
            "t9",
            "engine batch throughput: batched+cached vs naive per-call",
            profile,
            WORKLOAD_SEED,
        );
        report.threads = self.threads;
        report.instance_sizes = self.instance_sizes.clone();
        report.metric_with_percentiles(
            "naive",
            self.queries as u64,
            self.naive_ns,
            self.naive_lat.p50_ns,
            self.naive_lat.p99_ns,
        );
        report.metric_with_percentiles(
            "batched",
            self.queries as u64,
            self.batched_ns,
            self.batched_lat.p50_ns,
            self.batched_lat.p99_ns,
        );
        report.param("speedup", self.speedup());
        report.param("instances", self.instances as f64);
        report.param("cache_misses", self.engine_stats.cache_misses as f64);
        report.param("cache_hits", self.engine_stats.cache_hits as f64);
        report.param("cache_hit_rate", self.engine_stats.hit_rate());
        report
    }
}

fn throughput_workload(cfg: &ThroughputConfig) -> Vec<(CruTree, CostModel)> {
    let mut instances: Vec<(CruTree, CostModel)> = catalog()
        .into_iter()
        .map(|sc| (sc.tree, sc.costs))
        .collect();
    let placements = [
        Placement::Blocked,
        Placement::Interleaved,
        Placement::Random,
    ];
    for i in 0..cfg.random_instances {
        instances.push(random_instance(
            &RandomTreeParams {
                n_crus: cfg.n_crus,
                n_satellites: 3,
                placement: placements[i % placements.len()],
                ..RandomTreeParams::default()
            },
            WORKLOAD_SEED + i as u64,
        ));
    }
    instances
}

/// Runs the batched-vs-naive throughput measurement (see module docs).
///
/// # Panics
/// Panics if the two arms disagree on any query's objective — a timing
/// number for a wrong answer is worse than no number.
pub fn engine_throughput(cfg: &ThroughputConfig) -> EngineThroughput {
    let instances = throughput_workload(cfg);
    let lambdas: Vec<Lambda> = (0..=cfg.lambda_steps)
        .map(|n| Lambda::new(n, cfg.lambda_steps.max(1)).unwrap())
        .collect();

    // Batched arm setup outside the timed region mirrors a warm service;
    // prepare() itself is *inside* the timed region so the comparison
    // charges the engine for its cache fills too.
    let engine = Engine::new(EngineConfig::default());
    let ids: Vec<InstanceId> = instances
        .iter()
        .map(|(t, c)| engine.prepare(t, c).expect("workload prepares"))
        .collect();
    let queries: Vec<(InstanceId, Lambda)> = ids
        .iter()
        .flat_map(|&id| lambdas.iter().map(move |&l| (id, l)))
        .collect();

    // Exactness gate: batched answers ≡ naive answers, query for query.
    let batched = engine.solve_batch(&queries);
    let mut q = 0;
    for (tree, costs) in &instances {
        let prep = Prepared::new(tree, costs).expect("workload prepares");
        for &lambda in &lambdas {
            let want = Expanded::default().solve(&prep, lambda).unwrap();
            let got = batched[q].as_ref().expect("batched solve succeeds");
            assert_eq!(
                got.objective, want.objective,
                "batched and naive disagree — refusing to time a wrong answer"
            );
            assert_eq!(got.cut, want.cut);
            q += 1;
        }
    }

    // Per-query latency distributions, measured on the same workload: the
    // naive arm times every fresh prepare+solve; the cached arm times
    // single-query solves against a *separate* warm engine, so the cache
    // counters of the verification engine above stay untouched. This is
    // what a request-at-a-time caller experiences, and what the p50/p99
    // columns of BENCH_engine.json gate.
    let naive_hist = LatencyHistogram::new();
    for (tree, costs) in &instances {
        for &lambda in &lambdas {
            let t0 = std::time::Instant::now();
            let prep = Prepared::new(tree, costs).expect("workload prepares");
            let sol = Expanded::default().solve(&prep, lambda).unwrap();
            naive_hist.record_duration(t0.elapsed());
            std::hint::black_box(sol.objective);
        }
    }
    let batched_hist = LatencyHistogram::new();
    {
        let warm = Engine::new(EngineConfig::default());
        for (t, c) in &instances {
            warm.prepare(t, c).expect("workload prepares");
        }
        for &(id, lambda) in &queries {
            let t0 = std::time::Instant::now();
            let out = warm.solve(id, lambda);
            batched_hist.record_duration(t0.elapsed());
            std::hint::black_box(out.is_ok());
        }
    }

    let naive_ns = time_median_ns(cfg.reps, || {
        for (tree, costs) in &instances {
            for &lambda in &lambdas {
                // Allocate-and-destroy per call: the pre-engine code path.
                let prep = Prepared::new(tree, costs).expect("workload prepares");
                let sol = Expanded::default().solve(&prep, lambda).unwrap();
                std::hint::black_box(sol.objective);
            }
        }
    });

    let batched_ns = time_median_ns(cfg.reps, || {
        let engine = Engine::new(EngineConfig::default());
        for (t, c) in &instances {
            engine.prepare(t, c).expect("workload prepares");
        }
        let out = engine.solve_batch(&queries);
        std::hint::black_box(out.len());
    });

    EngineThroughput {
        instances: instances.len(),
        instance_sizes: instances.iter().map(|(t, _)| t.len() as u64).collect(),
        queries: queries.len(),
        threads: engine.threads(),
        naive_ns,
        batched_ns,
        naive_lat: naive_hist.snapshot().stats(),
        batched_lat: batched_hist.snapshot().stats(),
        engine_stats: engine.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_measures_and_serialises() {
        let cfg = ThroughputConfig {
            random_instances: 1,
            n_crus: 10,
            lambda_steps: 3,
            reps: 1,
        };
        let t = engine_throughput(&cfg);
        assert!(t.queries >= 4 * t.instances.min(t.queries));
        assert!(t.naive_ns > 0 && t.batched_ns > 0);
        assert_eq!(t.instance_sizes.len(), t.instances);
        // The latency passes cover every query and land in the report as
        // gated percentile columns.
        assert_eq!(t.naive_lat.count, t.queries as u64);
        assert_eq!(t.batched_lat.count, t.queries as u64);
        let report = t.to_report("quick");
        report.validate().unwrap();
        for arm in ["naive", "batched"] {
            let m = report.find_metric(arm).unwrap();
            assert!(m.p50_ns.is_some() && m.p99_ns.is_some(), "{arm} has tails");
        }
        assert_eq!(report.name, "engine");
        assert_eq!(report.experiment, "t9");
        assert_eq!(report.seed, WORKLOAD_SEED);
        assert_eq!(report.threads, t.threads);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"t9\""));
        assert!(json.contains("speedup"));
        assert!(json.contains("\"seed\": 100"));
        let dir = std::env::temp_dir().join("hsa-bench-engine-test");
        let p = report.write_json(&dir).unwrap();
        assert!(p.ends_with("BENCH_engine.json"));
        let back = BenchReport::load(&p).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn verification_batch_counters_are_surfaced() {
        let cfg = ThroughputConfig {
            random_instances: 1,
            n_crus: 8,
            lambda_steps: 2,
            reps: 1,
        };
        let t = engine_throughput(&cfg);
        // One prepare per instance (all misses), one verified query per
        // (instance, λ) pair.
        assert_eq!(t.engine_stats.cache_misses, t.instances as u64);
        assert_eq!(t.engine_stats.queries, t.queries as u64);
    }
}
