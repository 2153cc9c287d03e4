//! Property: the [`Service`] under **interleaved multi-threaded
//! submission** answers cut-for-cut identical to a sequential
//! single-threaded engine.
//!
//! Strategy: generate a random request script — solve/frontier/delta
//! requests with per-request λ over a small instance catalog — and
//! compute every expected answer *sequentially* (fresh
//! [`Expanded`]`::solve` per solve, mirror-drifted costs per tenant
//! delta). Then replay the script through a multi-worker `Service`, with
//! the requests split across several concurrently running submitter
//! threads (each submitter owns a disjoint set of tenants, so per-tenant
//! submission order — the only order the service promises — is exactly
//! the script order). Every reply must match its precomputed expectation:
//! same objective, same cut, same frontier breakpoints.
//!
//! Green under `PROPTEST_SEED` 1–3 (and the default stream). This is the
//! end-to-end contract of DESIGN.md §10: sharded cache, worker pool,
//! backpressure and per-tenant FIFO may reorder *work*, never *answers*.

use hsa_assign::{Expanded, ExpandedConfig, FrontierSet, Prepared, Solver};
use hsa_engine::{Engine, EngineConfig, Reply, Request, Service, ServiceConfig, TenantId, Ticket};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CostModel, CruId, CruTree, Delta, SatelliteId};
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;

/// One raw scripted request; concretised against the instance set.
#[derive(Clone, Debug)]
struct RawReq {
    kind: u8,
    instance: u8,
    lam: u8,
    node: u16,
    value: u16,
    sat: u8,
}

fn raw_req() -> impl Strategy<Value = RawReq> {
    (
        0u8..10,
        0u8..255,
        0u8..=8,
        0u16..u16::MAX,
        1u16..5_000,
        0u8..255,
    )
        .prop_map(|(kind, instance, lam, node, value, sat)| RawReq {
            kind,
            instance,
            lam,
            node,
            value,
            sat,
        })
}

/// A delta against the tenant's *current* (mirror) cost state — absolute
/// sets plus occasional churn, always valid by construction.
fn materialise_delta(raw: &RawReq, tree: &CruTree, costs: &CostModel) -> Delta {
    let n = tree.len();
    let node = CruId((raw.node as usize % n) as u32);
    let value = Cost::new(raw.value as u64);
    match raw.kind % 4 {
        0 => Delta::new().set_host_time(node, value),
        1 => Delta::new().set_satellite_time(node, value),
        2 if node != tree.root() => Delta::new().set_comm_up(node, value),
        2 => Delta::new().set_satellite_time(node, value),
        _ => {
            let leaves = tree.leaves_in_order();
            let leaf = leaves[raw.node as usize % leaves.len()];
            let sat = SatelliteId(raw.sat as u32 % costs.n_satellites().max(1));
            Delta::new().repin(leaf, sat)
        }
    }
}

/// A concrete request plus its sequentially computed expected answer.
enum Expected {
    Solution {
        objective: hsa_graph::ScaledSsb,
        cut: hsa_tree::Cut,
    },
    Frontier {
        breakpoints: Vec<hsa_graph::LambdaQ>,
        objective_at_half: hsa_graph::ScaledSsb,
    },
}

struct Scripted {
    request: Request,
    tenant: usize,
    expected: Expected,
}

/// Concretises the raw script: materialises deltas against per-tenant
/// mirrors and computes every expected answer with the plain sequential
/// solver stack (no engine, no service, no threads).
fn script(
    raws: &[RawReq],
    instances: &[(CruTree, CostModel)],
) -> Result<Vec<Scripted>, TestCaseError> {
    let arcs: Vec<(Arc<CruTree>, Arc<CostModel>)> = instances
        .iter()
        .map(|(t, c)| (Arc::new(t.clone()), Arc::new(c.clone())))
        .collect();
    let mut mirrors: Vec<CostModel> = instances.iter().map(|(_, c)| c.clone()).collect();
    let mut out = Vec::with_capacity(raws.len());
    for raw in raws {
        let tenant = raw.instance as usize % instances.len();
        let (tree, base) = &instances[tenant];
        let (tree_arc, costs_arc) = &arcs[tenant];
        let lambda = Lambda::new(raw.lam as u32, 8).unwrap();
        let scripted = match raw.kind {
            // 0–5: a stateless solve against the *base* instance.
            0..=5 => {
                let prep = Prepared::new(tree, base).unwrap();
                let want = Expanded::default().solve(&prep, lambda).unwrap();
                Scripted {
                    request: Request::solve_arc(
                        Arc::clone(tree_arc),
                        Arc::clone(costs_arc),
                        lambda,
                    ),
                    tenant,
                    expected: Expected::Solution {
                        objective: want.objective,
                        cut: want.cut,
                    },
                }
            }
            // 6–7: the base instance's λ-frontier.
            6 | 7 => {
                let prep = Prepared::new(tree, base).unwrap();
                let frontiers = FrontierSet::prepare(&prep, &ExpandedConfig::default()).unwrap();
                let want = hsa_assign::lambda_frontier_with(&prep, &frontiers).unwrap();
                Scripted {
                    request: Request::frontier_arc(Arc::clone(tree_arc), Arc::clone(costs_arc)),
                    tenant,
                    expected: Expected::Frontier {
                        breakpoints: want.breakpoints().to_vec(),
                        objective_at_half: want.objective_at(Lambda::HALF),
                    },
                }
            }
            // 8–9: drift the tenant's session, solve the drifted state.
            _ => {
                let delta = materialise_delta(raw, tree, &mirrors[tenant]);
                delta.apply(tree, &mut mirrors[tenant]).unwrap();
                let prep = Prepared::new(tree, &mirrors[tenant]).unwrap();
                let want = Expanded::default().solve(&prep, lambda).unwrap();
                Scripted {
                    request: Request::delta(TenantId(tenant as u64), delta, lambda),
                    tenant,
                    expected: Expected::Solution {
                        objective: want.objective,
                        cut: want.cut,
                    },
                }
            }
        };
        out.push(scripted);
    }
    Ok(out)
}

fn check_reply(i: usize, reply: &Reply, expected: &Expected) -> Result<(), TestCaseError> {
    match (reply, expected) {
        (Reply::Solution { solution: sol, .. }, Expected::Solution { objective, cut })
        | (Reply::Applied { solution: sol, .. }, Expected::Solution { objective, cut }) => {
            prop_assert_eq!(
                &sol.objective,
                objective,
                "request {}: objective diverged",
                i
            );
            prop_assert_eq!(&sol.cut, cut, "request {}: cut diverged", i);
        }
        (
            Reply::Frontier { frontier: fr, .. },
            Expected::Frontier {
                breakpoints,
                objective_at_half,
            },
        ) => {
            prop_assert_eq!(
                fr.breakpoints(),
                &breakpoints[..],
                "request {}: frontier breakpoints diverged",
                i
            );
            prop_assert_eq!(
                &fr.objective_at(Lambda::HALF),
                objective_at_half,
                "request {}: frontier objective diverged",
                i
            );
        }
        _ => prop_assert!(false, "request {}: reply kind diverged", i),
    }
    Ok(())
}

/// Replays the script through a service: `submitters` threads submit
/// concurrently (disjoint tenants each), `workers` workers answer.
fn check_concurrent_replay(
    instances: &[(CruTree, CostModel)],
    scripted: &[Scripted],
    submitters: usize,
    workers: usize,
    queue_capacity: usize,
) -> Result<(), TestCaseError> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Service::new(
        Arc::clone(&engine),
        ServiceConfig {
            workers,
            queue_capacity,
            ..ServiceConfig::default()
        },
    );
    for (i, (tree, costs)) in instances.iter().enumerate() {
        service
            .open_tenant(TenantId(i as u64), tree, costs)
            .unwrap();
    }
    // Each submitter owns the tenants with `tenant % submitters == s` and
    // submits *its* requests in script order; the threads themselves run
    // fully interleaved. Tickets come back to the main thread tagged with
    // their script position.
    let replies: Vec<(usize, Result<Reply, hsa_engine::ServiceError>)> = std::thread::scope(|s| {
        let service = &service;
        let handles: Vec<_> = (0..submitters)
            .map(|sub| {
                s.spawn(move || {
                    let tickets: Vec<(usize, Ticket)> = scripted
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.tenant % submitters == sub)
                        .map(|(i, r)| (i, service.submit(r.request.clone())))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|(i, t)| (i, t.wait()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread panicked"))
            .collect()
    });
    prop_assert_eq!(replies.len(), scripted.len(), "every request is answered");
    for (i, reply) in &replies {
        let reply = reply
            .as_ref()
            .map_err(|e| TestCaseError::fail(format!("request {i} failed: {e}")))?;
        check_reply(*i, reply, &scripted[*i].expected)?;
    }
    // And the sessions drifted deterministically despite the interleaving.
    let stats = service.stats();
    prop_assert_eq!(stats.completed, scripted.len() as u64);
    prop_assert_eq!(stats.failed, 0);
    Ok(())
}

fn instance_set(seed: u64, n: usize) -> Vec<(CruTree, CostModel)> {
    let placements = [
        Placement::Random,
        Placement::Interleaved,
        Placement::Blocked,
    ];
    (0..n)
        .map(|i| {
            random_instance(
                &RandomTreeParams {
                    n_crus: 12 + 2 * i,
                    n_satellites: 3,
                    placement: placements[i % placements.len()],
                    ..RandomTreeParams::default()
                },
                seed + i as u64,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two submitter threads, several workers, a mixed script: the
    /// interleaved service must answer exactly what the sequential stack
    /// precomputed.
    #[test]
    fn interleaved_submission_matches_sequential_engine(
        seed in 0u64..300,
        raws in proptest::collection::vec(raw_req(), 24),
        workers in 2usize..=4,
    ) {
        let instances = instance_set(seed, 3);
        let scripted = script(&raws, &instances)?;
        check_concurrent_replay(&instances, &scripted, 2, workers, 8)?;
    }

    /// A tight queue (capacity 2) forces the submitters through constant
    /// backpressure without changing a single answer.
    #[test]
    fn backpressure_never_changes_answers(
        seed in 0u64..300,
        raws in proptest::collection::vec(raw_req(), 16),
    ) {
        let instances = instance_set(seed, 2);
        let scripted = script(&raws, &instances)?;
        check_concurrent_replay(&instances, &scripted, 2, 3, 2)?;
    }

    /// Three submitters on three tenants — every tenant's delta stream is
    /// owned by exactly one submitter, all three drain concurrently.
    #[test]
    fn per_tenant_streams_drain_concurrently(
        seed in 0u64..200,
        raws in proptest::collection::vec(raw_req(), 18),
    ) {
        let instances = instance_set(seed, 3);
        let scripted = script(&raws, &instances)?;
        check_concurrent_replay(&instances, &scripted, 3, 3, 6)?;
    }
}
