//! **Request-stream workloads**: deterministic, open-loop, multi-tenant
//! traffic over an instance catalog — the workload behind the `t12`
//! service-throughput experiment and the `hsa-engine::Service` property
//! suite.
//!
//! A deployed service does not see batches; it sees a *stream*: solve,
//! frontier and delta requests interleaved across many instances, a few
//! of which are far hotter than the rest. [`request_stream`] turns that
//! into data:
//!
//! * **Instance catalog** — the built-in scenario [`catalog`](crate::catalog)
//!   plus `extra_instances` seeded random trees, ordered hottest-first;
//! * **Zipf-skewed hot keys** — each request picks its instance from a
//!   Zipf(`zipf_milli`/1000) distribution over catalog rank, the classic
//!   cache-workload shape (rank 1 dominates, a long cold tail follows);
//! * **Configurable mix** — `solve_permille` solves (each with its own λ
//!   off a grid), `frontier_permille` frontier queries, the remainder
//!   delta applications that drift the chosen instance's costs the way
//!   [`drift_trace`](crate::drift_trace) does;
//! * **Open-loop arrivals** — each request carries an absolute arrival
//!   time (`at_ns`, uniform gaps with mean `mean_gap_ns`): the schedule
//!   is fixed up front and never waits for completions, which is what
//!   makes saturation and backpressure observable at all.
//!
//! Identical configs produce identical streams. Per-instance delta order
//! is stream order; [`RequestStream::final_costs`] records where each
//! instance's cost model ends up after its whole delta stream, so a
//! replay can assert it drifted exactly as generated.

use crate::{catalog, random_scenario, Placement, RandomTreeParams, Scenario};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CostModel, CruId, CruTree, Delta, SatelliteId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Shape of a request stream.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Total requests in the stream.
    pub requests: usize,
    /// Seeded random instances appended to the built-in catalog.
    pub extra_instances: usize,
    /// CRUs per random instance.
    pub n_crus: usize,
    /// Zipf exponent, milli: request `instance` ranks are drawn with
    /// probability ∝ 1/rank^(zipf_milli/1000). 0 is uniform; 1000 the
    /// classic harmonic skew; larger values concentrate on rank 1.
    pub zipf_milli: u32,
    /// Per-mille of requests that are solves (each with a per-request λ).
    pub solve_permille: u32,
    /// Per-mille that are λ-frontier queries. The remainder (1000 −
    /// solve − frontier) are delta applications.
    pub frontier_permille: u32,
    /// λ grid resolution for solve/delta requests (λ = k/`lambda_steps`).
    pub lambda_steps: u32,
    /// Drift magnitude of delta requests, permille (see
    /// [`DriftConfig`](crate::DriftConfig)).
    pub drift_magnitude_permille: u32,
    /// Probability (permille) that a delta request additionally re-pins a
    /// random leaf (sensor churn).
    pub churn_permille: u32,
    /// Mean open-loop inter-arrival gap, nanoseconds (gaps are uniform on
    /// `[0, 2·mean]`, so the schedule is bursty but bounded).
    pub mean_gap_ns: u64,
    /// RNG seed; identical seeds reproduce the stream exactly.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            requests: 256,
            extra_instances: 4,
            n_crus: 24,
            zipf_milli: 1000,
            solve_permille: 700,
            frontier_permille: 100,
            lambda_steps: 8,
            drift_magnitude_permille: 100,
            churn_permille: 50,
            mean_gap_ns: 50_000,
            seed: 0x57EA,
        }
    }
}

/// What one request asks for.
#[derive(Clone, Debug)]
pub enum StreamOp {
    /// Solve the instance at this request's λ.
    Solve {
        /// The per-request objective weighting.
        lambda: Lambda,
    },
    /// The instance's full λ-frontier.
    Frontier,
    /// Drift the instance's costs, then solve at λ. Deltas of one
    /// instance apply in stream order.
    Delta {
        /// The perturbation (valid against the instance's tree, given
        /// every earlier delta of the same instance was applied first).
        delta: Delta,
        /// λ for the post-apply solve.
        lambda: Lambda,
    },
}

/// One request of the stream.
#[derive(Clone, Debug)]
pub struct StreamRequest {
    /// Absolute open-loop arrival time, nanoseconds from stream start.
    pub at_ns: u64,
    /// Index into [`RequestStream::instances`].
    pub instance: usize,
    /// The operation.
    pub op: StreamOp,
}

/// A generated stream: the catalog it runs over, the requests in arrival
/// order, and each instance's final drifted cost model.
#[derive(Clone, Debug)]
pub struct RequestStream {
    /// The instance catalog, hottest rank first.
    pub instances: Vec<Scenario>,
    /// The requests, sorted by `at_ns` (generation order).
    pub requests: Vec<StreamRequest>,
    /// Per-instance cost model after all of its deltas applied in stream
    /// order (equal to the base costs for instances that drew none).
    pub final_costs: Vec<CostModel>,
}

impl RequestStream {
    /// The catalog as shared `(tree, costs)` pairs, ready for the
    /// by-value service constructors (`Request::solve_arc` and friends)
    /// — one allocation per instance, shared across every request and
    /// worker that targets it.
    pub fn arc_instances(&self) -> Vec<(Arc<CruTree>, Arc<CostModel>)> {
        self.instances
            .iter()
            .map(|sc| (Arc::new(sc.tree.clone()), Arc::new(sc.costs.clone())))
            .collect()
    }
}

/// Cumulative fixed-point Zipf weights over `n` ranks: `cum[k]` is
/// `Σ_{j≤k} round(SCALE / (j+1)^s)`, so a uniform draw below `cum[n-1]`
/// binary-searches to its rank.
fn zipf_cumulative(n: usize, zipf_milli: u32) -> Vec<u64> {
    const SCALE: f64 = 1e9;
    let s = zipf_milli as f64 / 1000.0;
    let mut cum = Vec::with_capacity(n);
    let mut total = 0u64;
    for rank in 1..=n {
        let w = (SCALE / (rank as f64).powf(s)).round().max(1.0) as u64;
        total += w;
        cum.push(total);
    }
    cum
}

fn scaled(v: Cost, permille: u64) -> Cost {
    Cost::new(((v.ticks() as u128 * permille as u128) / 1000).min(u64::MAX as u128) as u64)
}

/// One node-level drift delta against `costs` (the same multiplicative
/// walk as [`drift_trace`](crate::drift_trace), recorded as absolute sets
/// so replays are order-robust per instance).
fn drift_delta(
    rng: &mut StdRng,
    sc: &Scenario,
    costs: &CostModel,
    magnitude_permille: u32,
    churn_permille: u32,
) -> Delta {
    let tree = &sc.tree;
    let m = magnitude_permille.min(999) as u64;
    let permille = rng.random_range((1000 - m)..=(1000 + m));
    let node = CruId(rng.random_range(0..tree.len() as u32));
    let mut delta = Delta::new()
        .set_host_time(node, scaled(costs.h(node), permille))
        .set_satellite_time(node, scaled(costs.s(node), permille));
    if node != tree.root() {
        delta = delta.set_comm_up(node, scaled(costs.c_up(node), permille));
    }
    if tree.is_leaf(node) {
        delta = delta.set_comm_raw(node, scaled(costs.c_raw(node), permille));
    }
    if costs.n_satellites() > 1 && rng.random_range(0..1000u32) < churn_permille {
        let leaves = tree.leaves_in_order();
        let leaf = leaves[rng.random_range(0..leaves.len())];
        let sat = SatelliteId(rng.random_range(0..costs.n_satellites()));
        delta = delta.repin(leaf, sat);
    }
    delta
}

/// Generates a deterministic multi-tenant request stream (see the module
/// docs).
pub fn request_stream(cfg: &StreamConfig) -> RequestStream {
    assert!(
        cfg.solve_permille + cfg.frontier_permille <= 1000,
        "solve + frontier permille must leave a non-negative delta share"
    );
    let mut instances = catalog();
    let placements = [
        Placement::Blocked,
        Placement::Interleaved,
        Placement::Random,
    ];
    for i in 0..cfg.extra_instances {
        instances.push(random_scenario(
            &RandomTreeParams {
                n_crus: cfg.n_crus.max(2),
                n_satellites: 3,
                placement: placements[i % placements.len()],
                ..RandomTreeParams::default()
            },
            cfg.seed.wrapping_add(1 + i as u64),
        ));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zipf = zipf_cumulative(instances.len(), cfg.zipf_milli);
    let total_weight = *zipf.last().expect("catalog is never empty");
    let mut mirrors: Vec<CostModel> = instances.iter().map(|sc| sc.costs.clone()).collect();
    let steps = cfg.lambda_steps.max(1);
    let mut requests = Vec::with_capacity(cfg.requests);
    let mut at_ns = 0u64;
    for _ in 0..cfg.requests {
        at_ns += rng.random_range(0..=cfg.mean_gap_ns.saturating_mul(2));
        let draw = rng.random_range(0..total_weight);
        let instance = zipf.partition_point(|&cum| cum <= draw);
        let lambda = Lambda::new(rng.random_range(0..=steps), steps).expect("grid λ is valid");
        let kind = rng.random_range(0..1000u32);
        let op = if kind < cfg.solve_permille {
            StreamOp::Solve { lambda }
        } else if kind < cfg.solve_permille + cfg.frontier_permille {
            StreamOp::Frontier
        } else {
            let delta = drift_delta(
                &mut rng,
                &instances[instance],
                &mirrors[instance],
                cfg.drift_magnitude_permille,
                cfg.churn_permille,
            );
            delta
                .apply(&instances[instance].tree, &mut mirrors[instance])
                .expect("generated stream deltas are valid by construction");
            debug_assert!(mirrors[instance]
                .validate(&instances[instance].tree)
                .is_ok());
            StreamOp::Delta { delta, lambda }
        };
        requests.push(StreamRequest {
            at_ns,
            instance,
            op,
        });
    }
    RequestStream {
        instances,
        requests,
        final_costs: mirrors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let cfg = StreamConfig::default();
        let a = request_stream(&cfg);
        let b = request_stream(&cfg);
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.at_ns, y.at_ns);
            assert_eq!(x.instance, y.instance);
            match (&x.op, &y.op) {
                (StreamOp::Solve { lambda: l }, StreamOp::Solve { lambda: r }) => {
                    assert_eq!(l, r)
                }
                (StreamOp::Frontier, StreamOp::Frontier) => {}
                (StreamOp::Delta { delta: l, .. }, StreamOp::Delta { delta: r, .. }) => {
                    assert_eq!(l, r)
                }
                _ => panic!("op kinds diverged between identical configs"),
            }
        }
        assert_eq!(a.final_costs, b.final_costs);
        let other = request_stream(&StreamConfig {
            seed: 1,
            ..StreamConfig::default()
        });
        assert!(
            a.requests.len() == other.requests.len()
                && a.requests
                    .iter()
                    .zip(&other.requests)
                    .any(|(x, y)| x.instance != y.instance || x.at_ns != y.at_ns),
            "different seeds must produce different streams"
        );
    }

    #[test]
    fn zipf_skew_makes_rank_one_hot() {
        let stream = request_stream(&StreamConfig {
            requests: 600,
            ..StreamConfig::default()
        });
        let mut counts = vec![0usize; stream.instances.len()];
        for r in &stream.requests {
            counts[r.instance] += 1;
        }
        let hottest = counts[0];
        let coldest = *counts.last().unwrap();
        assert!(
            hottest >= 3 * coldest.max(1),
            "rank 1 must dominate the tail: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 600);
    }

    #[test]
    fn mix_honours_the_permilles() {
        let stream = request_stream(&StreamConfig {
            requests: 1000,
            ..StreamConfig::default()
        });
        let (mut solves, mut frontiers, mut deltas) = (0, 0, 0);
        for r in &stream.requests {
            match r.op {
                StreamOp::Solve { .. } => solves += 1,
                StreamOp::Frontier => frontiers += 1,
                StreamOp::Delta { .. } => deltas += 1,
            }
        }
        // 700/100/200 expected; allow generous sampling slack.
        assert!((550..=850).contains(&solves), "solves {solves}");
        assert!((40..=200).contains(&frontiers), "frontiers {frontiers}");
        assert!((100..=320).contains(&deltas), "deltas {deltas}");
    }

    #[test]
    fn arrivals_are_monotone_and_open_loop() {
        let stream = request_stream(&StreamConfig::default());
        for w in stream.requests.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "arrival schedule must be sorted");
        }
    }

    #[test]
    fn replaying_deltas_per_instance_reaches_final_costs() {
        let stream = request_stream(&StreamConfig {
            requests: 300,
            solve_permille: 300,
            frontier_permille: 100,
            ..StreamConfig::default()
        });
        let mut mirrors: Vec<CostModel> =
            stream.instances.iter().map(|sc| sc.costs.clone()).collect();
        let mut applied = 0;
        for r in &stream.requests {
            if let StreamOp::Delta { delta, .. } = &r.op {
                delta
                    .apply(&stream.instances[r.instance].tree, &mut mirrors[r.instance])
                    .unwrap();
                mirrors[r.instance]
                    .validate(&stream.instances[r.instance].tree)
                    .unwrap();
                applied += 1;
            }
        }
        assert!(applied > 0, "the mix must contain deltas");
        assert_eq!(mirrors, stream.final_costs);
    }

    #[test]
    fn uniform_zipf_spreads_the_load() {
        let stream = request_stream(&StreamConfig {
            requests: 800,
            zipf_milli: 0,
            ..StreamConfig::default()
        });
        let mut counts = vec![0usize; stream.instances.len()];
        for r in &stream.requests {
            counts[r.instance] += 1;
        }
        let min = *counts.iter().min().unwrap();
        assert!(
            min * counts.len() >= 800 / 4,
            "s=0 must be roughly uniform: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn overfull_mix_is_rejected() {
        request_stream(&StreamConfig {
            solve_permille: 900,
            frontier_permille: 200,
            ..StreamConfig::default()
        });
    }
}
