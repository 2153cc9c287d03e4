//! Seeded workload generation. Everything the load generator sends is built
//! here from `--seed` with the `hsa-workloads` generators and encoded into
//! wire payloads before any clock starts; the program under test only ever
//! sees these bytes.

use crate::spec::Spec;
use hsa_engine::net::wire::{self, FrameEncoder};
use hsa_engine::{Engine, EngineConfig, InstanceId, Request, Service, ServiceConfig, TenantId};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree, Fnv1a};
use hsa_workloads::{
    catalog, drift_trace, random_scenario, request_stream, DriftConfig, Placement,
    RandomTreeParams, Scenario, StreamConfig, StreamOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// λ grid resolution of solve requests (λ = k/8, as in t12/t13).
const LAMBDA_STEPS: u32 = 8;

/// Hot small instances appended to the catalog (t13's full profile).
const HOT_EXTRA: usize = 5;
const HOT_CRUS: usize = 26;

/// `drift-mixed` tenants: t11's full-profile instance shape.
const DRIFT_TENANTS: usize = 8;
const DRIFT_CRUS: usize = 192;
const DRIFT_SATELLITES: u32 = 8;

/// `cold-contact`: distinct instances and their size range.
const COLD_INSTANCES: usize = 4000;
const COLD_CRUS: (usize, usize) = (24, 64);
const COLD_ZIPF: f64 = 0.5;

/// Sequence lengths (positions) of the generated request orders.
const HOT_SEQ: usize = 65_536;
const DRIFT_SEQ: usize = 120_000;
const COLD_SEQ: usize = 100_000;

/// One request payload, encoded before any clock starts.
pub struct Encoded {
    /// Frame kind byte.
    pub kind: u8,
    /// Frame payload (canonical JSON).
    pub payload: Vec<u8>,
    /// The request itself, for the traced in-process replay.
    pub request: Request,
}

impl Encoded {
    fn new(request: Request) -> Encoded {
        let mut out = Vec::new();
        FrameEncoder::new().put_request(&mut out, 0, &request);
        Encoded {
            kind: out[5],
            payload: out[4 + wire::HEADER_LEN..].to_vec(),
            request,
        }
    }
}

/// How an answer is checked.
pub enum Expect {
    /// Deterministic: the canonical wire JSON of the sequential in-process
    /// answer, compared byte for byte.
    Bytes(Vec<u8>),
    /// A tenant delta: the answer depends on the tenant's history, so it is
    /// hashed and checked after the phase by a sequential replay.
    Delta,
}

/// One distinct request of a workload.
pub struct Key {
    /// Instance whose id the client learns from the first answer; `None`
    /// for requests that never switch to by-id addressing.
    pub inst: Option<usize>,
    /// Tenant index of a delta (namespaced per connection at send time).
    pub tenant: Option<usize>,
    /// By-value form (first contact).
    pub by_value: Option<Encoded>,
    /// By-id form (after the id is learned).
    pub by_id: Option<Encoded>,
    /// How the answer is checked.
    pub expect: Expect,
}

impl Key {
    /// The form a client sends, given whether it has learned the id.
    pub fn form(&self, learned: bool) -> &Encoded {
        match (&self.by_value, &self.by_id) {
            (Some(v), Some(i)) => {
                if learned {
                    i
                } else {
                    v
                }
            }
            (Some(v), None) => v,
            (None, Some(i)) => i,
            (None, None) => unreachable!("every key has a form"),
        }
    }
}

/// A generated workload.
pub struct Workload {
    /// Its load shape.
    pub spec: Spec,
    /// Learnable instances (index = `Key::inst`).
    pub n_instances: usize,
    /// First contacts made during set-up, by value; every one is a
    /// deterministic request whose instance becomes learned.
    pub contacts: Vec<Key>,
    /// Tenants opened during set-up (per connection namespace).
    pub tenants: Vec<Scenario>,
    /// The drift configuration each tenant's deltas come from.
    pub drift: Vec<DriftConfig>,
    /// The distinct requests.
    pub keys: Vec<Key>,
    /// The request order: indices into `keys`.
    pub seq: Vec<u32>,
    /// True when the order carries tenant state: each connection replays it
    /// from the start in its own tenant namespace and it never wraps.
    pub stateful: bool,
}

impl Workload {
    /// The key at sequence position `pos` (stateless orders wrap).
    pub fn key_at(&self, pos: usize) -> Option<(usize, &Key)> {
        let idx = if self.stateful {
            *self.seq.get(pos)? as usize
        } else {
            self.seq[pos % self.seq.len()] as usize
        };
        Some((idx, &self.keys[idx]))
    }
}

/// The wire tenant id of tenant `t` in connection namespace `ns`.
pub fn tenant_id(ns: usize, t: usize) -> TenantId {
    TenantId(1 + ns as u64 * 1000 + t as u64)
}

fn lambda(k: u32) -> Lambda {
    Lambda::new(k, LAMBDA_STEPS).expect("grid λ is valid")
}

/// The engine's instance id of `(tree, costs)`: the same structural hash
/// the server derives, computed client side so by-id payloads can be
/// encoded up front.
fn instance_id(tree: &CruTree, costs: &CostModel) -> InstanceId {
    let mut h = Fnv1a::new();
    h.write_u64(tree.content_hash());
    h.write_u64(costs.content_hash());
    InstanceId::from_raw(h.finish())
}

/// Cumulative Zipf weights over `n` ranks with exponent `s`.
fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut total = 0.0;
    (1..=n)
        .map(|rank| {
            total += 1.0 / (rank as f64).powf(s);
            total
        })
        .collect()
}

fn zipf_draw(rng: &mut StdRng, cum: &[f64]) -> usize {
    let total = *cum.last().expect("non-empty");
    let u = (rng.random_range(0..1u64 << 53) as f64) / (1u64 << 53) as f64 * total;
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// The sequential in-process service every deterministic answer is checked
/// against.
fn reference_service() -> Service {
    Service::new(
        Arc::new(Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        })),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
}

fn expected(reference: &Service, request: &Request) -> Vec<u8> {
    let reply = reference
        .submit(request.clone())
        .wait()
        .expect("the reference service answers every generated request");
    wire::reply_json(&reply).into_bytes()
}

/// Set-up first contacts: one by-value solve per instance.
fn contacts(reference: &Service, instances: &[(Arc<CruTree>, Arc<CostModel>)]) -> Vec<Key> {
    instances
        .iter()
        .enumerate()
        .map(|(i, (tree, costs))| {
            let req = Request::solve_arc(Arc::clone(tree), Arc::clone(costs), Lambda::HALF);
            Key {
                inst: Some(i),
                tenant: None,
                expect: Expect::Bytes(expected(reference, &req)),
                by_value: Some(Encoded::new(req)),
                by_id: None,
            }
        })
        .collect()
}

fn arcs(scenarios: &[Scenario]) -> Vec<(Arc<CruTree>, Arc<CostModel>)> {
    scenarios
        .iter()
        .map(|sc| (Arc::new(sc.tree.clone()), Arc::new(sc.costs.clone())))
        .collect()
}

/// The hot small instances (catalog first, then random 26-CRU trees) and
/// a Zipf(s=1) t12-style request stream over them.
fn hot_stream(seed: u64, requests: usize, frontier_permille: u32) -> hsa_workloads::RequestStream {
    request_stream(&StreamConfig {
        requests,
        extra_instances: HOT_EXTRA,
        n_crus: HOT_CRUS,
        zipf_milli: 1000,
        solve_permille: 1000 - frontier_permille,
        frontier_permille,
        lambda_steps: LAMBDA_STEPS,
        seed,
        ..StreamConfig::default()
    })
}

/// By-id keys for every hot instance: `inst * 10 + k` solves at λ = k/8,
/// `inst * 10 + 9` the frontier.
fn hot_keys(reference: &Service, instances: &[(Arc<CruTree>, Arc<CostModel>)]) -> Vec<Key> {
    let mut keys = Vec::new();
    for (i, (tree, costs)) in instances.iter().enumerate() {
        let id = instance_id(tree, costs);
        for k in 0..=LAMBDA_STEPS {
            let req = Request::solve_by_id(id, lambda(k));
            keys.push(Key {
                inst: Some(i),
                tenant: None,
                expect: Expect::Bytes(expected(reference, &req)),
                by_value: None,
                by_id: Some(Encoded::new(req)),
            });
        }
        let req = Request::frontier_by_id(id);
        keys.push(Key {
            inst: Some(i),
            tenant: None,
            expect: Expect::Bytes(expected(reference, &req)),
            by_value: None,
            by_id: Some(Encoded::new(req)),
        });
    }
    keys
}

fn hot_key_of(instance: usize, op: &StreamOp) -> u32 {
    let slot = match op {
        StreamOp::Solve { lambda } => lambda.num() * LAMBDA_STEPS / lambda.den(),
        StreamOp::Frontier => LAMBDA_STEPS + 1,
        StreamOp::Delta { .. } => unreachable!("hot streams carry no deltas"),
    };
    (instance * 10) as u32 + slot
}

fn hot_solve(spec: Spec, seed: u64) -> Workload {
    let stream = hot_stream(seed, HOT_SEQ, 100);
    let instances = arcs(&stream.instances);
    let reference = reference_service();
    let contacts = contacts(&reference, &instances);
    let keys = hot_keys(&reference, &instances);
    let seq = stream
        .requests
        .iter()
        .map(|r| hot_key_of(r.instance, &r.op))
        .collect();
    Workload {
        spec,
        n_instances: instances.len(),
        contacts,
        tenants: Vec::new(),
        drift: Vec::new(),
        keys,
        seq,
        stateful: false,
    }
}

fn drift_mixed(spec: Spec, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD81F_D81F);
    // Reads: by-id solves of the hot small instances (no frontiers).
    let stream = hot_stream(seed, DRIFT_SEQ, 0);
    let instances = arcs(&stream.instances);
    let reference = reference_service();
    let contacts = contacts(&reference, &instances);
    let mut keys = hot_keys(&reference, &instances);
    let tenants: Vec<Scenario> = (0..DRIFT_TENANTS)
        .map(|t| {
            random_scenario(
                &RandomTreeParams {
                    n_crus: DRIFT_CRUS,
                    n_satellites: DRIFT_SATELLITES,
                    placement: Placement::Blocked,
                    ..RandomTreeParams::default()
                },
                seed.wrapping_mul(31).wrapping_add(100 + t as u64),
            )
        })
        .collect();
    let steps = DRIFT_SEQ * 3 / 5 / DRIFT_TENANTS + DRIFT_SEQ / 20;
    let drift: Vec<DriftConfig> = (0..DRIFT_TENANTS)
        .map(|t| DriftConfig {
            steps,
            seed: seed.wrapping_mul(131).wrapping_add(t as u64),
            ..DriftConfig::default()
        })
        .collect();
    let traces: Vec<_> = tenants
        .iter()
        .zip(&drift)
        .map(|(sc, cfg)| drift_trace(sc, cfg).deltas)
        .collect();
    let mut next_step = [0usize; DRIFT_TENANTS];
    let mut reads = stream.requests.iter();
    let mut seq = Vec::with_capacity(DRIFT_SEQ);
    // A fixed read, delta, read, delta, delta pattern: 60% deltas keeps the
    // median round trip inside the delta mode of the two-mode mix instead
    // of on the boundary between the modes.
    while seq.len() < DRIFT_SEQ {
        if !matches!(seq.len() % 5, 0 | 2) {
            let t = rng.random_range(0..DRIFT_TENANTS);
            let Some(delta) = traces[t].get(next_step[t]) else {
                continue;
            };
            next_step[t] += 1;
            let req = Request::delta(
                TenantId(t as u64),
                delta.clone(),
                lambda(rng.random_range(0..=LAMBDA_STEPS)),
            );
            seq.push(keys.len() as u32);
            keys.push(Key {
                inst: None,
                tenant: Some(t),
                by_value: None,
                by_id: Some(Encoded::new(req)),
                expect: Expect::Delta,
            });
        } else {
            let r = reads.next().expect("the read stream covers the order");
            seq.push(hot_key_of(r.instance, &r.op));
        }
    }
    Workload {
        spec,
        n_instances: instances.len(),
        contacts,
        tenants,
        drift,
        keys,
        seq,
        stateful: true,
    }
}

fn cold_contact(spec: Spec, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D_C01D);
    // The catalog is the set-up's warm first contact; the timed traffic
    // runs over thousands of fresh random instances.
    let warm = arcs(&catalog());
    let reference = reference_service();
    let contacts = contacts(&reference, &warm);
    let placements = [
        Placement::Blocked,
        Placement::Interleaved,
        Placement::Random,
    ];
    let keys: Vec<Key> = (0..COLD_INSTANCES)
        .map(|i| {
            let sc = random_scenario(
                &RandomTreeParams {
                    n_crus: rng.random_range(COLD_CRUS.0..=COLD_CRUS.1),
                    placement: placements[i % placements.len()],
                    ..RandomTreeParams::default()
                },
                seed.wrapping_mul(7919).wrapping_add(i as u64),
            );
            let (tree, costs) = (Arc::new(sc.tree), Arc::new(sc.costs));
            let id = instance_id(&tree, &costs);
            let (by_value, by_id) = if rng.random_range(0..10u32) < 8 {
                let l = lambda(rng.random_range(0..=LAMBDA_STEPS));
                (
                    Request::solve_arc(tree, costs, l),
                    Request::solve_by_id(id, l),
                )
            } else {
                (
                    Request::frontier_arc(tree, costs),
                    Request::frontier_by_id(id),
                )
            };
            Key {
                inst: Some(warm.len() + i),
                tenant: None,
                expect: Expect::Bytes(expected(&reference, &by_value)),
                by_value: Some(Encoded::new(by_value)),
                by_id: Some(Encoded::new(by_id)),
            }
        })
        .collect();
    let cum = zipf_cumulative(COLD_INSTANCES, COLD_ZIPF);
    let seq = (0..COLD_SEQ)
        .map(|_| zipf_draw(&mut rng, &cum) as u32)
        .collect();
    Workload {
        spec,
        n_instances: warm.len() + COLD_INSTANCES,
        contacts,
        tenants: Vec::new(),
        drift: Vec::new(),
        keys,
        seq,
        stateful: false,
    }
}

/// Generates workload `spec.name` from `seed`.
pub fn generate(spec: Spec, seed: u64) -> Workload {
    match spec.name.as_str() {
        "hot-solve" => hot_solve(spec, seed),
        "drift-mixed" => drift_mixed(spec, seed),
        "cold-contact" => cold_contact(spec, seed),
        other => unreachable!("no generator for workload {other}"),
    }
}

/// The cost model tenant `t` must have drifted into after `steps` of its
/// deltas: the generator's own `final_costs` for that prefix.
pub fn drifted_costs(w: &Workload, t: usize, steps: usize) -> CostModel {
    drift_trace(
        &w.tenants[t],
        &DriftConfig {
            steps,
            ..w.drift[t]
        },
    )
    .final_costs
}
