//! # hsa-engine — the concurrent solving service layer
//!
//! The paper presents a one-shot solve: build the coloured assignment
//! graph, run the adapted SSB search, read off the cut. A production
//! deployment re-solves the *same* prepared instance under many λ
//! weightings, many instances per second, from many tenants at once. This
//! crate turns the solver stack into a service shaped for that traffic:
//!
//! * [`Engine`] is **shared-ownership**: every entry point works through
//!   `&self`, so one engine behind an [`Arc`] serves any
//!   number of threads. The instance cache is split across
//!   `RwLock`-sharded maps holding `Arc`'d entries (see [`CachedInstance`]),
//!   and the service counters are atomics — no global lock anywhere on
//!   the query path.
//! * [`Engine::prepare`] caches fully prepared instances
//!   ([`Prepared`]`<'static>` + the λ-independent [`FrontierSet`]) keyed by
//!   a content hash of the tree and cost model — preparing twice is a
//!   cache hit, and every later query reuses the colouring, σ/β labels
//!   and Pareto frontiers without rebuilding anything.
//! * [`Engine::solve`] answers one `(instance, λ)` query on the calling
//!   thread from the cached frontiers, **byte-identically** to a fresh
//!   [`Expanded`](hsa_assign::Expanded)`::solve` — same cut, same
//!   objective, same stats semantics. The engine owns no thread.
//! * [`Engine::solve_batch`] answers a slice of queries the same way,
//!   fanned across scoped threads that live only as long as the call
//!   ([`EngineConfig::threads`] sets how many).
//! * [`Engine::frontier`] exposes the full **λ-frontier** — the
//!   piecewise-linear lower envelope of optimal cuts over λ ∈ [0, 1] with
//!   exact rational breakpoints — so a λ-sweep costs one envelope pass
//!   instead of N independent solves.
//! * [`Service`] is the request-stream front-end: a bounded submission
//!   queue with backpressure, per-request λ, and a multi-tenant
//!   [`Session`] registry so delta streams apply concurrently across
//!   tenants while staying FIFO within each (DESIGN.md §10). Every
//!   [`Request`] kind, tenant open and close included, is answered through
//!   one funnel, and [`net`] carries the same enum over TCP:
//!   [`net::Client::call`] sends any request.
//! * [`Session`] holds one **drifting** instance open and re-solves it
//!   incrementally: [`Session::apply`] absorbs a [`hsa_tree::Delta`]
//!   (cost drift, capacity changes, sensor churn) and rebuilds only the
//!   per-colour frontiers the perturbation actually dirtied (DESIGN.md §9).
//!
//! [`EngineStats`] counts answered and failed queries and cache events;
//! each [`Solution`] carries its own [`SolveStats`](hsa_assign::SolveStats).
//!
//! ```
//! use hsa_engine::{Engine, EngineConfig};
//! use hsa_graph::Lambda;
//! use std::sync::Arc;
//!
//! let scenario = hsa_workloads::paper_scenario();
//! // `&self` everywhere: no `mut`, and the engine is Arc-shareable.
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! let id = engine.prepare(&scenario.tree, &scenario.costs).unwrap();
//!
//! // A λ-sweep as one batch…
//! let queries: Vec<_> = (0..=4).map(|n| (id, Lambda::new(n, 4).unwrap())).collect();
//! let solutions = engine.solve_batch(&queries);
//! assert!(solutions.iter().all(|s| s.is_ok()));
//!
//! // …or as one frontier: every optimal cut for every λ at once. The
//! // scaled objective agrees with the per-query solve at the same λ.
//! let frontier = engine.frontier(id).unwrap();
//! assert_eq!(
//!     frontier.objective_at(Lambda::new(2, 4).unwrap()),
//!     solutions[2].as_ref().unwrap().objective,
//! );
//! ```

#![warn(missing_docs)]
// Denied crate-wide rather than forbidden: `net::sys` opts back in for
// the raw `poll(2)`/`epoll(7)` declarations the reactor multiplexes on.
// Every other module still rejects `unsafe`.
#![deny(unsafe_code)]

use hsa_assign::{
    lambda_frontier_with, solve_with_frontiers, AssignError, ExpandedConfig, FrontierSet,
    LambdaFrontier, Prepared, Solution,
};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod cache;
mod hist;
pub mod net;
mod pad;
mod pool;
mod portfolio;
mod service;
mod session;

pub use cache::CachedInstance;
pub use hist::{HistogramSnapshot, LatencyHistogram, LatencyStats, NUM_BUCKETS};
pub use pad::CachePadded;
pub use portfolio::{AnytimeAnswer, AnytimeOutcome, ArmKind, Portfolio, PortfolioConfig};
pub use service::{
    Reply, Request, RequestLatency, Service, ServiceConfig, ServiceError, ServiceStats, TenantId,
    Ticket,
};
pub use session::{ApplyOutcome, Session, SessionConfig, SessionStats};

/// Identifier of a cached instance: the 64-bit structural content hash of
/// its tree and cost model. Stable across engines and runs of the same
/// build.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstanceId(u64);

impl InstanceId {
    /// The raw content hash.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw hash — e.g. one a client persisted
    /// across reconnects. Presenting an id the engine does not know is
    /// answered with [`EngineError::UnknownInstance`], never aliased, so
    /// this cannot forge access to a different instance.
    pub fn from_raw(raw: u64) -> InstanceId {
        InstanceId(raw)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst-{:016x}", self.0)
    }
}

/// Errors raised by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A query referenced an instance id that was never prepared.
    UnknownInstance {
        /// The offending id.
        id: InstanceId,
    },
    /// Two distinct instances collided on the 64-bit content hash (the
    /// engine verifies equality on every cache hit rather than alias them).
    HashCollision {
        /// The colliding id.
        id: InstanceId,
    },
    /// A solver error on the underlying instance.
    Assign(AssignError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownInstance { id } => write!(f, "unknown instance {id}"),
            EngineError::HashCollision { id } => {
                write!(f, "content-hash collision on {id}; instances differ")
            }
            EngineError::Assign(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Assign(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AssignError> for EngineError {
    fn from(e: AssignError) -> Self {
        EngineError::Assign(e)
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// How many threads one [`Engine::solve_batch`] call fans out across
    /// (0, the default, means one per available core). The engine keeps no
    /// thread between calls.
    pub threads: usize,
    /// Frontier caps for the cached full-expansion preparation.
    pub expanded: ExpandedConfig,
}

/// Aggregated service counters (see [`Engine::stats`]). This is a plain
/// snapshot struct; the live counters inside the engine are atomics, so
/// any thread may record or read without a lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered successfully by [`Engine::solve`] and the batch
    /// entry points.
    pub queries: u64,
    /// Queries that failed (unknown instance or solver error).
    pub failed: u64,
    /// `prepare` and [`Portfolio::solve_anytime`] calls that found the
    /// instance already cached.
    pub cache_hits: u64,
    /// `prepare` calls that built a new cached instance (including the
    /// losers of a concurrent build race — they paid the preparation),
    /// and anytime races whose exact arm donated its frontiers.
    pub cache_misses: u64,
}

impl EngineStats {
    /// Fraction of the counted cache events that were hits,
    /// `cache_hits` over [`EngineStats::prepares`] (0.0 before the first).
    pub fn hit_rate(&self) -> f64 {
        let total = self.prepares();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Counted cache events, `cache_hits + cache_misses`: every `prepare`
    /// call, plus each [`Portfolio::solve_anytime`] that hit the cache or
    /// donated its exact arm's frontiers.
    pub fn prepares(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }
}

/// The live, lock-free counter bank behind [`EngineStats`]. Every counter
/// is written from every worker thread on the batch path; [`CachePadded`]
/// keeps each on its own cache line so concurrent bumps of *different*
/// counters never false-share (see the `contended_counters` example for
/// the measured effect).
#[derive(Default)]
struct EngineCounters {
    queries: CachePadded<AtomicU64>,
    failed: CachePadded<AtomicU64>,
    cache_hits: CachePadded<AtomicU64>,
    cache_misses: CachePadded<AtomicU64>,
}

impl EngineCounters {
    fn snapshot(&self) -> EngineStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EngineStats {
            queries: load(&self.queries),
            failed: load(&self.failed),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
        }
    }
}

/// The concurrent batch-solving engine: a shared instance cache plus the
/// solve functions over it. It owns no thread. All entry points take
/// `&self`; share one engine across threads behind an [`Arc`]. See the
/// crate docs for the full tour.
pub struct Engine {
    cfg: EngineConfig,
    /// [`EngineConfig::threads`] resolved once, so a batch call does not
    /// re-query the core count.
    threads: usize,
    /// RwLock-sharded content-hash → `Arc<CachedInstance>` maps.
    cache: cache::ShardedCache,
    stats: EngineCounters,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            cfg,
            threads: pool::effective_threads(cfg.threads),
            cache: cache::ShardedCache::new(),
            stats: EngineCounters::default(),
        }
    }

    /// How many threads one batch call fans out across, at most.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Prepares (or re-finds) an instance and returns its id.
    ///
    /// First preparation pays the full pipeline — validation, colouring,
    /// σ/β labelling and the per-colour Pareto frontier DP (the dual graph
    /// is left to the first [`Prepared::graph`] call, which no engine path
    /// makes) — all of it **outside any lock**, so concurrent
    /// prepares never serialise on each other's DP. Subsequent calls with
    /// an equal instance are cache hits costing one allocation-free
    /// structural hash plus an equality check of the instance (so distinct
    /// instances can never alias — [`EngineError::HashCollision`]); hot
    /// paths should hold on to the returned [`InstanceId`] rather than
    /// re-present the instance. Two threads racing to prepare the same
    /// *new* instance both build; one inserts and the other adopts the
    /// incumbent (both count as misses — both paid the work).
    pub fn prepare(&self, tree: &CruTree, costs: &CostModel) -> Result<InstanceId, EngineError> {
        let (id, hit) = self.check_hit(tree, costs)?;
        if !hit {
            // Build with no lock held; insert (or adopt the race winner) after.
            let prepared = Prepared::new_owned(tree.clone(), costs.clone())?;
            let frontiers = FrontierSet::prepare(&prepared, &self.cfg.expanded)?;
            let built = CachedInstance {
                prepared,
                frontiers,
            };
            self.insert_or_adopt(id, tree, costs, built)?;
        }
        Ok(id)
    }

    /// The hit half of [`Engine::prepare`], shared with the portfolio:
    /// hashes the instance and reports whether the cache holds it, counting
    /// a hit when it does. An entry under the same hash that holds a
    /// different instance is a [`EngineError::HashCollision`], never an
    /// alias.
    fn check_hit(
        &self,
        tree: &CruTree,
        costs: &CostModel,
    ) -> Result<(InstanceId, bool), EngineError> {
        let id = InstanceId(instance_hash(tree, costs));
        let Some(cached) = self.cache.get(id.0) else {
            return Ok((id, false));
        };
        check_same(&cached, id, tree, costs)?;
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        Ok((id, true))
    }

    /// The miss half of [`Engine::prepare`], shared with the portfolio:
    /// caches `built`, the entry for `(tree, costs)`, under `id`, or adopts
    /// the entry a racing build inserted first once it is checked to hold
    /// the same instance (same hash does not prove that). Counted as a miss
    /// either way: this call paid for the build.
    fn insert_or_adopt(
        &self,
        id: InstanceId,
        tree: &CruTree,
        costs: &CostModel,
        built: CachedInstance,
    ) -> Result<(), EngineError> {
        let inserted = self.cache.insert_or_adopt(id.0, built);
        if inserted.adopted {
            check_same(&inserted.entry, id, tree, costs)?;
        }
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The cached instance, if `id` is known: a shared handle to the
    /// prepared form and its frontiers (no lock held once returned).
    pub fn instance(&self, id: InstanceId) -> Option<Arc<CachedInstance>> {
        self.cache.get(id.0)
    }

    /// Number of cached instances.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, id: InstanceId) -> Result<Arc<CachedInstance>, EngineError> {
        self.cache
            .get(id.0)
            .ok_or(EngineError::UnknownInstance { id })
    }

    /// Answers one `(instance, λ)` query on the calling thread from the
    /// instance's cached [`FrontierSet`]: a cache lookup, the threshold
    /// sweep and the counters, nothing else.
    ///
    /// The answer is **byte-identical** — same `Solution::objective`, same
    /// `Solution::cut` — to calling [`hsa_assign::Expanded`]`::solve` on a
    /// freshly prepared instance: the cached-frontier path runs the very
    /// same threshold sweep, it just skips re-deriving what cannot change.
    pub fn solve(&self, id: InstanceId, lambda: Lambda) -> Result<Solution, EngineError> {
        let out = self.lookup(id).and_then(|entry| {
            solve_with_frontiers(&entry.prepared, &entry.frontiers, lambda)
                .map_err(EngineError::from)
        });
        self.record(out.as_ref());
        out
    }

    /// Answers a batch of `(instance, λ)` queries as [`Engine::solve`]
    /// does, in query order, dealt round-robin across up to
    /// [`Engine::threads`] scoped threads that end with the call. A
    /// one-query batch runs on the calling thread.
    pub fn solve_batch(
        &self,
        queries: &[(InstanceId, Lambda)],
    ) -> Vec<Result<Solution, EngineError>> {
        pool::parallel_map(queries.iter().copied(), self.threads, |(id, lambda)| {
            self.solve(id, lambda)
        })
    }

    /// The λ-frontier of a cached instance: every optimal cut over
    /// λ ∈ [0, 1] as a piecewise-linear lower envelope with exact rational
    /// breakpoints. One pass over the cached frontiers answers any number
    /// of λ queries.
    pub fn frontier(&self, id: InstanceId) -> Result<LambdaFrontier, EngineError> {
        let cached = self.lookup(id)?;
        lambda_frontier_with(&cached.prepared, &cached.frontiers).map_err(EngineError::from)
    }

    /// A snapshot of the aggregated service counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    fn record(&self, result: Result<&Solution, &EngineError>) {
        let counter = match result {
            Ok(_) => &self.stats.queries,
            Err(_) => &self.stats.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Structural FNV-1a content hash of `(tree, costs)`.
///
/// Both structures carry a lazily-computed, mutation-invalidated content
/// hash ([`hsa_tree::HashCache`]), so after the first contact this is two
/// relaxed atomic loads mixed through the word-wise [`hsa_tree::Fnv1a`] —
/// not a traversal. Keyless, so instance ids are reproducible run to run
/// (for a given build).
fn instance_hash(tree: &CruTree, costs: &CostModel) -> u64 {
    let mut h = hsa_tree::Fnv1a::new();
    h.write_u64(tree.content_hash());
    h.write_u64(costs.content_hash());
    h.finish()
}

/// The equality check behind every cache hit and adoption: `cached` must
/// hold exactly `(tree, costs)`, or `id` is a [`EngineError::HashCollision`].
fn check_same(
    cached: &CachedInstance,
    id: InstanceId,
    tree: &CruTree,
    costs: &CostModel,
) -> Result<(), EngineError> {
    if &*cached.prepared.tree != tree || &*cached.prepared.costs != costs {
        return Err(EngineError::HashCollision { id });
    }
    Ok(())
}

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        AnytimeAnswer, AnytimeOutcome, ApplyOutcome, ArmKind, Engine, EngineConfig, EngineError,
        EngineStats, InstanceId, Portfolio, PortfolioConfig, Reply, Request, Service,
        ServiceConfig, ServiceError, ServiceStats, Session, SessionConfig, SessionStats, TenantId,
        Ticket,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_assign::{Expanded, Solver};
    use hsa_workloads::paper_scenario;

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<Engine>();
        assert_shareable::<Service>();
    }

    #[test]
    fn prepare_twice_hits_the_cache() {
        let sc = paper_scenario();
        let engine = Engine::new(EngineConfig::default());
        let a = engine.prepare(&sc.tree, &sc.costs).unwrap();
        let b = engine.prepare(&sc.tree, &sc.costs).unwrap();
        assert_eq!(a, b);
        assert_eq!(engine.len(), 1);
        let stats = engine.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
    }

    #[test]
    fn unknown_instance_is_an_error_not_a_panic() {
        let engine = Engine::new(EngineConfig::default());
        let bogus = InstanceId(42);
        let out = engine.solve_batch(&[(bogus, Lambda::HALF)]);
        assert!(matches!(
            out[0],
            Err(EngineError::UnknownInstance { id }) if id == bogus
        ));
        assert!(matches!(
            engine.solve(bogus, Lambda::HALF),
            Err(EngineError::UnknownInstance { id }) if id == bogus
        ));
        assert!(matches!(
            engine.frontier(bogus),
            Err(EngineError::UnknownInstance { .. })
        ));
        assert_eq!(engine.stats().failed, 2);
    }

    #[test]
    fn stats_expose_hit_rate() {
        let sc = paper_scenario();
        let engine = Engine::new(EngineConfig::default());
        engine.prepare(&sc.tree, &sc.costs).unwrap();
        engine.prepare(&sc.tree, &sc.costs).unwrap();
        engine.prepare(&sc.tree, &sc.costs).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.prepares(), 3);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn batch_answers_match_fresh_solves() {
        let sc = paper_scenario();
        let engine = Engine::new(EngineConfig::default());
        let id = engine.prepare(&sc.tree, &sc.costs).unwrap();
        let queries: Vec<_> = (0..=8).map(|n| (id, Lambda::new(n, 8).unwrap())).collect();
        let batch = engine.solve_batch(&queries);
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        for ((_, lambda), got) in queries.iter().zip(&batch) {
            let got = got.as_ref().unwrap();
            let want = Expanded::default().solve(&prep, *lambda).unwrap();
            assert_eq!(got.objective, want.objective);
            assert_eq!(got.cut, want.cut);
        }
        assert_eq!(engine.stats().queries, 9);
    }

    #[test]
    fn instance_hash_distinguishes_cost_changes() {
        let sc = paper_scenario();
        let mut other = sc.costs.clone();
        // Perturb one host time: the hash (and hence the id) must change.
        let root = sc.tree.root();
        let h = other.h(root);
        other.set_host_time(root, h + hsa_graph::Cost::new(1));
        assert_ne!(
            instance_hash(&sc.tree, &sc.costs),
            instance_hash(&sc.tree, &other)
        );
        let engine = Engine::new(EngineConfig::default());
        let a = engine.prepare(&sc.tree, &sc.costs).unwrap();
        let b = engine.prepare(&sc.tree, &other).unwrap();
        assert_ne!(a, b);
        assert_eq!(engine.len(), 2);
    }

    #[test]
    fn frontier_matches_batch_objectives() {
        let sc = paper_scenario();
        let engine = Engine::new(EngineConfig::default());
        let id = engine.prepare(&sc.tree, &sc.costs).unwrap();
        let fr = engine.frontier(id).unwrap();
        for n in 0..=10u32 {
            let lambda = Lambda::new(n, 10).unwrap();
            let sol = &engine.solve_batch(&[(id, lambda)])[0];
            assert_eq!(fr.objective_at(lambda), sol.as_ref().unwrap().objective);
        }
    }

    #[test]
    fn arc_shared_engine_serves_many_threads() {
        let sc = paper_scenario();
        let engine = Arc::new(Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        }));
        let id = engine.prepare(&sc.tree, &sc.costs).unwrap();
        let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let lambda = Lambda::new(t, 4).unwrap();
                    let out = engine.solve_batch(&[(id, lambda)]);
                    (lambda, out.into_iter().next().unwrap().unwrap())
                })
            })
            .collect();
        for h in handles {
            let (lambda, got) = h.join().unwrap();
            let want = Expanded::default().solve(&prep, lambda).unwrap();
            assert_eq!(got.objective, want.objective);
            assert_eq!(got.cut, want.cut);
        }
        assert_eq!(engine.stats().queries, 4);
    }

    #[test]
    fn concurrent_prepares_of_one_instance_share_an_entry() {
        let sc = paper_scenario();
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let tree = sc.tree.clone();
                let costs = sc.costs.clone();
                std::thread::spawn(move || engine.prepare(&tree, &costs).unwrap())
            })
            .collect();
        let ids: Vec<InstanceId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(engine.len(), 1, "racing prepares must share one entry");
        assert_eq!(engine.stats().prepares(), 4);
    }
}
