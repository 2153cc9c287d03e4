//! The multi-tenant request-stream front-end (DESIGN.md §10).
//!
//! [`Engine`] answers *batches*; a deployment receives a *stream*:
//! interleaved solve, frontier and delta requests from many tenants, each
//! with its own λ, arriving faster than any single caller could batch
//! them. [`Service`] is that front door:
//!
//! * **Bounded submission with backpressure** — at most
//!   [`ServiceConfig::queue_capacity`] requests are in flight;
//!   [`Service::submit`] blocks (and counts the stall) until a slot
//!   frees, so a burst degrades into waiting producers instead of
//!   unbounded memory. `try_submit` refuses instead of blocking.
//! * **Per-request λ** — every solve and delta request carries its own
//!   weighting; nothing is globally configured per stream.
//! * **Stateless queries hit the shared engine** — by-value solve,
//!   frontier and anytime requests present their instance, `prepare`
//!   answers from the sharded cache (a hot key is one hash + one `Arc`
//!   clone), and the solve runs on whichever service worker picks the
//!   request up. The id-addressed reads ([`Request::SolveById`],
//!   [`Request::FrontierById`]) are a cache lookup plus one sweep, cheaper
//!   than the two thread wake-ups a worker hop costs, so they are answered
//!   on the submitting thread: their [`Ticket`] comes back already
//!   answered.
//! * **A panicking handler still answers** — every accepted request, on
//!   the submitting thread, a pool worker or its tenant's drainer, is
//!   answered through one funnel that catches the unwind and answers
//!   [`ServiceError::Internal`], so its gate slot is released and no
//!   ticket waits forever. A tenant whose session a panic interrupted
//!   fails closed: its later deltas answer `Internal` too.
//! * **Stateful delta streams stay FIFO per tenant, parallel across
//!   tenants** — each tenant owns a [`Session`], opened by a direct call
//!   ([`Service::open_tenant`]) or by a [`Request::OpenTenant`], which is
//!   answered on the submitting thread like an id-addressed read, and
//!   closed by a [`Request::CloseTenant`]. Deltas and the close enqueue
//!   onto the tenant's pending list *at submission time* (so per-tenant
//!   order is submission order, by construction, and a close answers the
//!   counters of every delta submitted before it) and a single drainer per
//!   tenant answers them in that order while other tenants drain on other
//!   workers.
//! * **Exactness is never relaxed** — with [`ServiceConfig::verify`] on,
//!   every answer is cross-checked byte-for-byte against a from-scratch
//!   [`Expanded`]`::solve` (or frontier) of the same instance state and a
//!   mismatch is surfaced as [`ServiceError::VerifyFailed`]. The t12
//!   experiment and the service property suite run with it on before any
//!   timing is believed.
//!
//! ```
//! use hsa_engine::{Engine, EngineConfig, Reply, Request, Service, ServiceConfig, TenantId};
//! use hsa_graph::Lambda;
//! use std::sync::Arc;
//!
//! let sc = hsa_workloads::paper_scenario();
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! let service = Service::new(Arc::clone(&engine), ServiceConfig::default());
//!
//! // A stateless solve against the shared cache. The reply carries the
//! // instance id: a hot client keeps it and switches to id-addressed
//! // requests, skipping the per-request hash + equality check entirely.
//! let ticket = service.submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF));
//! let Reply::Solution { id, solution: sol } = ticket.wait().unwrap() else { panic!() };
//! let ticket = service.submit(Request::solve_by_id(id, Lambda::HALF));
//! let Reply::Solution { solution: again, .. } = ticket.wait().unwrap() else { panic!() };
//! assert_eq!(again.objective, sol.objective);
//!
//! // …and a tenant applying a delta stream to its own session.
//! let tenant = TenantId(7);
//! service.open_tenant(tenant, &sc.tree, &sc.costs).unwrap();
//! let busier = hsa_tree::Delta::new().scale_subtree(sc.tree.root(), 11, 10);
//! let ticket = service.submit(Request::delta(tenant, busier, Lambda::HALF));
//! let Reply::Applied { solution, .. } = ticket.wait().unwrap() else { panic!() };
//! assert!(solution.objective >= sol.objective);
//! ```

use crate::hist::{LatencyHistogram, LatencyStats};
use crate::pad::CachePadded;
use crate::pool::WorkerPool;
use crate::portfolio::{AnytimeAnswer, Portfolio, PortfolioConfig};
use crate::session::{ApplyOutcome, Session, SessionConfig, SessionStats};
use crate::{instance_hash, Engine, EngineError, InstanceId};
use hsa_assign::{
    lambda_frontier_with, AssignError, Expanded, LambdaFrontier, Prepared, Solution, SolveStats,
    Solver,
};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree, Delta};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// A tenant's identity in the service's session registry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads of the service's own pool (0, the default, means
    /// one per available core).
    pub workers: usize,
    /// Maximum in-flight requests before [`Service::submit`] blocks.
    /// Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Cross-check every answer against a from-scratch solve of the same
    /// instance state (paranoia mode for tests and the t12 verification
    /// phase — it re-prepares per request, so keep it off timed paths).
    pub verify: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            // Deep enough to keep workers fed through bursts, shallow
            // enough that a stalled consumer surfaces as backpressure
            // rather than as memory growth.
            queue_capacity: 64,
            verify: false,
        }
    }
}

/// Errors a request can come back with.
///
/// Non-exhaustive: the wire protocol ([`crate::net`]) versions this enum,
/// and future schema revisions may add kinds — match with a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The shared engine rejected the query.
    Engine(EngineError),
    /// A tenant's delta failed to apply (the session is unchanged).
    Apply(AssignError),
    /// A delta or a tenant close named a tenant that is not open.
    UnknownTenant(TenantId),
    /// [`Service::open_tenant`] or [`Request::OpenTenant`] on an
    /// already-open tenant.
    TenantExists(TenantId),
    /// Verification mode caught an answer differing from a from-scratch
    /// solve. This is a bug in the service stack, never a user error.
    VerifyFailed {
        /// Which request kind diverged.
        what: &'static str,
    },
    /// [`Service::try_submit`] found the submission queue full.
    Saturated,
    /// The request's handler panicked; carries the panic message. Like
    /// [`ServiceError::VerifyFailed`], a bug in the service stack.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Engine(e) => write!(f, "engine: {e}"),
            ServiceError::Apply(e) => write!(f, "delta apply failed: {e}"),
            ServiceError::UnknownTenant(t) => write!(f, "unknown {t}"),
            ServiceError::TenantExists(t) => write!(f, "{t} already open"),
            ServiceError::VerifyFailed { what } => {
                write!(f, "{what} answer diverged from a from-scratch solve")
            }
            ServiceError::Saturated => write!(f, "submission queue full"),
            ServiceError::Internal(msg) => write!(f, "handler panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            ServiceError::Apply(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// One request of the stream. Instances travel as `Arc`s so a hot key in
/// a Zipf-skewed stream costs reference bumps, not tree clones.
///
/// `Request` is the single source of truth for the wire protocol
/// ([`crate::net`] frames carry exactly these payloads), so it is
/// non-exhaustive and all construction goes through the `Request::*`
/// constructors — new request kinds then extend the schema without
/// breaking downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Request {
    /// Solve one instance at one λ through the shared engine cache.
    Solve {
        /// The instance's tree.
        tree: Arc<CruTree>,
        /// Its cost model.
        costs: Arc<CostModel>,
        /// The per-request objective weighting.
        lambda: Lambda,
    },
    /// Solve an already-prepared instance, addressed by id — the hot-client
    /// path: no tree/costs travel with the request, so the worker skips
    /// both the structural hash and the deep equality check of first
    /// contact. An id the engine does not know answers
    /// [`EngineError::UnknownInstance`].
    SolveById {
        /// The id a previous [`Reply`] carried back.
        id: InstanceId,
        /// The per-request objective weighting.
        lambda: Lambda,
    },
    /// The full λ-frontier of one instance.
    Frontier {
        /// The instance's tree.
        tree: Arc<CruTree>,
        /// Its cost model.
        costs: Arc<CostModel>,
    },
    /// The λ-frontier of an already-prepared instance, addressed by id.
    FrontierById {
        /// The id a previous [`Reply`] carried back.
        id: InstanceId,
    },
    /// Apply a delta to a tenant's session, then solve at λ.
    Delta {
        /// Whose session.
        tenant: TenantId,
        /// The perturbation.
        delta: Arc<Delta>,
        /// λ for the post-apply solve.
        lambda: Lambda,
    },
    /// Race the anytime portfolio on one instance at one λ: the first
    /// feasible answer within the budget comes back with a certified
    /// optimality gap ([`hsa_assign::GapCertificate`] via
    /// [`AnytimeAnswer`]),
    /// upgraded to the tight exact answer whenever the exact arm finishes
    /// in time.
    SolveAnytime {
        /// The instance's tree.
        tree: Arc<CruTree>,
        /// Its cost model.
        costs: Arc<CostModel>,
        /// The per-request objective weighting.
        lambda: Lambda,
        /// Answer-by budget in milliseconds (the race returns within this
        /// of its first feasible answer).
        budget_ms: u64,
    },
    /// Open a tenant session on one instance ([`Service::open_tenant`]),
    /// answered [`Reply::TenantOpened`].
    OpenTenant {
        /// The tenant to open.
        tenant: TenantId,
        /// The instance's tree.
        tree: Arc<CruTree>,
        /// Its cost model.
        costs: Arc<CostModel>,
    },
    /// Close a tenant session, answered [`Reply::TenantClosed`] once every
    /// delta submitted to it before the close has been answered. Requests
    /// submitted after it answer [`ServiceError::UnknownTenant`].
    CloseTenant {
        /// The tenant to close.
        tenant: TenantId,
    },
}

impl Request {
    /// A solve request (clones the instance into `Arc`s once; prefer
    /// building the `Arc`s yourself when re-presenting a hot instance).
    pub fn solve(tree: &CruTree, costs: &CostModel, lambda: Lambda) -> Request {
        Request::Solve {
            tree: Arc::new(tree.clone()),
            costs: Arc::new(costs.clone()),
            lambda,
        }
    }

    /// A solve request addressed by instance id (see
    /// [`Request::SolveById`]): the pattern for hot clients is one
    /// instance-carrying [`Request::solve`] whose [`Reply`] returns the
    /// id, then `solve_by_id` for every re-query.
    pub fn solve_by_id(id: InstanceId, lambda: Lambda) -> Request {
        Request::SolveById { id, lambda }
    }

    /// A frontier request.
    pub fn frontier(tree: &CruTree, costs: &CostModel) -> Request {
        Request::Frontier {
            tree: Arc::new(tree.clone()),
            costs: Arc::new(costs.clone()),
        }
    }

    /// A frontier request addressed by instance id.
    pub fn frontier_by_id(id: InstanceId) -> Request {
        Request::FrontierById { id }
    }

    /// A delta request against an open tenant.
    pub fn delta(tenant: TenantId, delta: Delta, lambda: Lambda) -> Request {
        Request::Delta {
            tenant,
            delta: Arc::new(delta),
            lambda,
        }
    }

    /// [`Request::solve`] for callers that already hold the instance in
    /// `Arc`s — re-presenting a hot instance costs two reference bumps.
    pub fn solve_arc(tree: Arc<CruTree>, costs: Arc<CostModel>, lambda: Lambda) -> Request {
        Request::Solve {
            tree,
            costs,
            lambda,
        }
    }

    /// [`Request::frontier`] from pre-shared `Arc`s.
    pub fn frontier_arc(tree: Arc<CruTree>, costs: Arc<CostModel>) -> Request {
        Request::Frontier { tree, costs }
    }

    /// [`Request::delta`] from a pre-shared `Arc` (a delta replayed to
    /// many tenants travels without cloning its op list).
    pub fn delta_arc(tenant: TenantId, delta: Arc<Delta>, lambda: Lambda) -> Request {
        Request::Delta {
            tenant,
            delta,
            lambda,
        }
    }

    /// An anytime portfolio race (see [`Request::SolveAnytime`]): first
    /// feasible answer within `budget_ms`, carrying a certified gap.
    pub fn solve_anytime(
        tree: &CruTree,
        costs: &CostModel,
        lambda: Lambda,
        budget_ms: u64,
    ) -> Request {
        Request::SolveAnytime {
            tree: Arc::new(tree.clone()),
            costs: Arc::new(costs.clone()),
            lambda,
            budget_ms,
        }
    }

    /// A tenant-open request (see [`Request::OpenTenant`]).
    pub fn open_tenant(tenant: TenantId, tree: &CruTree, costs: &CostModel) -> Request {
        Request::OpenTenant {
            tenant,
            tree: Arc::new(tree.clone()),
            costs: Arc::new(costs.clone()),
        }
    }

    /// A tenant-close request (see [`Request::CloseTenant`]).
    pub fn close_tenant(tenant: TenantId) -> Request {
        Request::CloseTenant { tenant }
    }
}

/// A fulfilled request.
///
/// Non-exhaustive for the same reason as [`Request`]: replies are wire
/// frames, and the schema may grow. Prefer the uniform accessors
/// ([`Reply::solution`], [`Reply::frontier`], [`Reply::outcome`],
/// [`Reply::instance_id`]) over exhaustive matching; on the `Result` a
/// [`Ticket::wait`] returns, reach them after `?`, `unwrap` or
/// `as_ref().ok()`:
///
/// ```
/// use hsa_engine::{Engine, EngineConfig, Request, Service, ServiceConfig};
/// use hsa_graph::Lambda;
/// use std::sync::Arc;
///
/// let sc = hsa_workloads::paper_scenario();
/// let engine = Arc::new(Engine::new(EngineConfig::default()));
/// let service = Service::new(engine, ServiceConfig::default());
/// let answer = service.submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF)).wait();
/// let objective = answer.as_ref().ok().and_then(|r| r.solution()).map(|s| s.objective);
/// assert!(objective.is_some());
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Reply {
    /// The solve answer (byte-identical to a fresh `Expanded::solve`).
    /// Carries the instance id so a first-contact client can switch to
    /// [`Request::solve_by_id`] for every subsequent query.
    Solution {
        /// The solved instance's id in the engine cache.
        id: InstanceId,
        /// The solution.
        solution: Solution,
    },
    /// The λ-frontier, with the instance id for id-addressed re-queries.
    Frontier {
        /// The instance's id in the engine cache.
        id: InstanceId,
        /// The λ-frontier.
        frontier: LambdaFrontier,
    },
    /// A delta landed on its tenant; the post-apply solve rides along.
    Applied {
        /// What the apply did (dirty and total colours, full rebuild or
        /// not).
        outcome: ApplyOutcome,
        /// The post-apply solution at the request's λ.
        solution: Solution,
    },
    /// The anytime race's answer: best solution within budget, its
    /// certified gap, and which arm won. Carries the instance id (the
    /// engine cache holds the instance whenever the exact arm finished,
    /// so a follow-up [`Request::solve_by_id`] is then a pure cache hit).
    Anytime {
        /// The instance's id (cached iff `answer.exact_finished`).
        id: InstanceId,
        /// The race's answer.
        answer: AnytimeAnswer,
    },
    /// A tenant session opened.
    TenantOpened,
    /// A tenant session closed, with its counters after every delta
    /// submitted before the close.
    TenantClosed {
        /// The session's counters. A tenant whose session a panicking
        /// handler poisoned still closes: its counters stay readable.
        stats: SessionStats,
    },
}

impl Reply {
    /// The solution carried by this reply, if it is one.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Reply::Solution { solution, .. } => Some(solution),
            Reply::Applied { solution, .. } => Some(solution),
            Reply::Anytime { answer, .. } => Some(&answer.solution),
            _ => None,
        }
    }

    /// The anytime answer (solution + certificate + winning arm), if this
    /// reply fulfils a [`Request::SolveAnytime`].
    pub fn anytime(&self) -> Option<&AnytimeAnswer> {
        match self {
            Reply::Anytime { answer, .. } => Some(answer),
            _ => None,
        }
    }

    /// The instance id this reply reports, for stateless requests — what a
    /// hot client feeds back into [`Request::solve_by_id`] /
    /// [`Request::frontier_by_id`]. Tenant (delta) replies address their
    /// session, not the shared cache, so they carry no id.
    pub fn instance_id(&self) -> Option<InstanceId> {
        match self {
            Reply::Solution { id, .. } | Reply::Frontier { id, .. } | Reply::Anytime { id, .. } => {
                Some(*id)
            }
            _ => None,
        }
    }

    /// The λ-frontier carried by this reply, if it is one.
    pub fn frontier(&self) -> Option<&LambdaFrontier> {
        match self {
            Reply::Frontier { frontier, .. } => Some(frontier),
            _ => None,
        }
    }

    /// What a delta apply did, if this reply answers one.
    pub fn outcome(&self) -> Option<&ApplyOutcome> {
        match self {
            Reply::Applied { outcome, .. } => Some(outcome),
            _ => None,
        }
    }
}

/// A completion callback an event loop registers instead of blocking a
/// thread on [`Ticket::wait`].
type Waker = Box<dyn FnOnce(Result<Reply, ServiceError>) + Send>;

/// What a [`ReplySlot`] holds: the answer once fulfilled, or a waker to
/// hand the answer to the moment it lands.
#[derive(Default)]
struct SlotState {
    result: Option<Result<Reply, ServiceError>>,
    waker: Option<Waker>,
}

/// The slot a worker fulfils and a [`Ticket`] waits on.
struct ReplySlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
        })
    }

    fn fulfill(&self, result: Result<Reply, ServiceError>) {
        let mut state = self.state.lock().expect("reply slot poisoned");
        debug_assert!(
            state.result.is_none(),
            "a reply slot is fulfilled exactly once"
        );
        if let Some(waker) = state.waker.take() {
            // Hand the answer to the registered callback — outside the
            // lock, because the waker may do arbitrary work (e.g. wake a
            // reactor thread).
            drop(state);
            waker(result);
            return;
        }
        state.result = Some(result);
        drop(state);
        self.cv.notify_all();
    }
}

/// A claim on one submitted request's answer.
#[must_use = "a ticket does nothing until waited on"]
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl Ticket {
    /// Blocks until the request is answered.
    pub fn wait(self) -> Result<Reply, ServiceError> {
        let mut state = self.slot.state.lock().expect("reply slot poisoned");
        loop {
            if let Some(result) = state.result.take() {
                return result;
            }
            state = self.slot.cv.wait(state).expect("reply slot poisoned");
        }
    }

    /// The answer if the request is already answered, else the ticket
    /// back. An id-addressed read is answered inside
    /// [`Service::submit`], so its ticket always yields here — the net
    /// reactor queues such a reply without a completion round trip.
    pub fn try_take(self) -> Result<Result<Reply, ServiceError>, Ticket> {
        let result = self
            .slot
            .state
            .lock()
            .expect("reply slot poisoned")
            .result
            .take();
        result.ok_or(self)
    }

    /// Registers a completion callback instead of blocking: `f` runs
    /// exactly once with the answer — immediately on this thread if the
    /// request already finished, otherwise later on the worker thread
    /// that fulfils it (after the gate slot has been released, so a
    /// callback that resubmits can find room). This is how the net
    /// reactor routes completions back to the connection's owner without
    /// parking a thread per in-flight request.
    pub fn on_ready(self, f: impl FnOnce(Result<Reply, ServiceError>) + Send + 'static) {
        let mut state = self.slot.state.lock().expect("reply slot poisoned");
        if let Some(result) = state.result.take() {
            drop(state);
            f(result);
            return;
        }
        state.waker = Some(Box::new(f));
    }
}

/// The in-flight gate: a counting semaphore bounding accepted-but-
/// unanswered requests.
struct Gate {
    capacity: usize,
    inflight: Mutex<usize>,
    freed: Condvar,
    waits: AtomicU64,
}

impl Gate {
    fn new(capacity: usize) -> Gate {
        Gate {
            capacity: capacity.max(1),
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            waits: AtomicU64::new(0),
        }
    }

    /// Blocks until a slot frees, then takes it.
    fn acquire(&self) {
        let mut n = self.inflight.lock().expect("gate poisoned");
        if *n >= self.capacity {
            self.waits.fetch_add(1, Ordering::Relaxed);
            while *n >= self.capacity {
                n = self.freed.wait(n).expect("gate poisoned");
            }
        }
        *n += 1;
    }

    /// Takes a slot only if one is free right now.
    fn try_acquire(&self) -> bool {
        let mut n = self.inflight.lock().expect("gate poisoned");
        if *n >= self.capacity {
            return false;
        }
        *n += 1;
        true
    }

    fn release(&self) {
        let mut n = self.inflight.lock().expect("gate poisoned");
        debug_assert!(*n > 0, "release without acquire");
        *n = n.saturating_sub(1);
        drop(n);
        self.freed.notify_one();
    }
}

/// The request kinds the service tracks separately: indexes the latency
/// histograms, whose count is that kind's request count.
#[derive(Clone, Copy)]
enum ReqKind {
    Solve,
    Frontier,
    Delta,
    Anytime,
    Tenant,
}

/// Live request counters; snapshot via [`Service::stats`]. Bumped from
/// every worker on every request, so each counter sits on its own cache
/// line ([`CachePadded`]) — unpadded, the whole bank shares one line and
/// concurrent requests serialise on it for no semantic reason.
#[derive(Default)]
struct ServiceCounters {
    submitted: CachePadded<AtomicU64>,
    completed: CachePadded<AtomicU64>,
    failed: CachePadded<AtomicU64>,
}

/// A snapshot of the service's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted by `submit`/`try_submit`.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// `submit` calls that had to block on a full queue (backpressure).
    pub backpressure_waits: u64,
    /// Per-request-kind latency percentiles (accepted → answered). Each
    /// kind's `count` is the number of its requests answered, success or
    /// failure.
    pub latency: RequestLatency,
}

/// Per-request-kind latency summaries, measured from acceptance (the
/// in-flight gate slot is taken) to the reply being fulfilled — so a
/// delta's wait in its tenant's FIFO queue counts, but a producer
/// blocking on backpressure does not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestLatency {
    /// Solve requests.
    pub solve: LatencyStats,
    /// Frontier requests.
    pub frontier: LatencyStats,
    /// Delta requests.
    pub delta: LatencyStats,
    /// Anytime (portfolio race) requests.
    pub anytime: LatencyStats,
    /// Tenant open and close requests. The in-process
    /// [`Service::open_tenant`] call is not a request and is not counted.
    pub tenant: LatencyStats,
}

/// One tenant. The submission side (`queue`) and the solving side
/// (`session`) are separate locks on purpose: pushing a job onto the
/// pending list must never wait behind an in-flight apply+solve, or
/// "submission order" would degrade into "solve-completion order" and
/// open-loop submitters would stall on busy tenants.
struct Tenant {
    /// Pending jobs + the single-drainer flag. Held only for queue
    /// pushes/pops — never across a solve.
    queue: Mutex<TenantQueue>,
    /// The session. During a drain only the (single) drainer locks it
    /// per item; stats/costs snapshots wait at most one apply.
    session: Mutex<Session>,
}

/// One job on a tenant's queue: `(delta and its λ, reply slot, acceptance
/// time)`, where no delta is the tenant's close. The `Instant` rides along
/// so a job's latency includes its FIFO wait.
type TenantJob = (Option<(Arc<Delta>, Lambda)>, Arc<ReplySlot>, Instant);

struct TenantQueue {
    /// The tenant's jobs in submission order.
    pending: VecDeque<TenantJob>,
    /// True while some worker owns the drain loop for this tenant; at
    /// most one drainer exists at a time, which is what serialises a
    /// tenant's deltas without serialising tenants against each other.
    draining: bool,
}

/// Everything a request job needs, bundled once per service.
struct Shared {
    engine: Arc<Engine>,
    /// The anytime racing portfolio (one worker of its own per arm; feeds
    /// exact results back into `engine`'s cache).
    portfolio: Portfolio,
    gate: Gate,
    counters: ServiceCounters,
    /// Accepted→answered latency, indexed by [`ReqKind`].
    latency: [LatencyHistogram; 5],
    verify: bool,
}

/// The request-stream front-end. See the module docs.
pub struct Service {
    /// Declared first so it drops first: dropping the pool closes the
    /// injector, drains every accepted request and joins the workers, so
    /// no ticket is ever left unanswered. (Jobs own `Arc` clones of
    /// everything below, so the order is belt-and-braces, not
    /// load-bearing — keep it anyway.)
    pool: WorkerPool,
    shared: Arc<Shared>,
    tenants: RwLock<BTreeMap<TenantId, Arc<Tenant>>>,
}

impl Service {
    /// Builds a service over a shared engine, spawning its worker pool.
    pub fn new(engine: Arc<Engine>, cfg: ServiceConfig) -> Service {
        Service {
            pool: WorkerPool::new(cfg.workers),
            shared: Arc::new(Shared {
                portfolio: Portfolio::new(Arc::clone(&engine), PortfolioConfig::default()),
                engine,
                gate: Gate::new(cfg.queue_capacity),
                counters: ServiceCounters::default(),
                latency: Default::default(),
                verify: cfg.verify,
            }),
            tenants: RwLock::new(BTreeMap::new()),
        }
    }

    /// The engine this service answers from.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The anytime racing portfolio behind [`Request::SolveAnytime`] —
    /// exposed so tests (and operators) can observe arm drain via
    /// [`Portfolio::pending_arms`].
    pub fn portfolio(&self) -> &Portfolio {
        &self.shared.portfolio
    }

    /// The effective worker count.
    pub fn workers(&self) -> usize {
        self.pool.size()
    }

    /// Opens a tenant session on the given instance (full preparation +
    /// frontier DP, paid once).
    pub fn open_tenant(
        &self,
        tenant: TenantId,
        tree: &CruTree,
        costs: &CostModel,
    ) -> Result<(), ServiceError> {
        // Probe before building: a duplicate open is a plain user error
        // and must not pay (and then discard) the whole preparation.
        if self
            .tenants
            .read()
            .expect("tenant registry poisoned")
            .contains_key(&tenant)
        {
            return Err(ServiceError::TenantExists(tenant));
        }
        let session =
            Session::new(tree, costs, SessionConfig::default()).map_err(ServiceError::Apply)?;
        let mut tenants = self.tenants.write().expect("tenant registry poisoned");
        // Re-check under the write lock: a racing open may have won.
        if tenants.contains_key(&tenant) {
            return Err(ServiceError::TenantExists(tenant));
        }
        tenants.insert(
            tenant,
            Arc::new(Tenant {
                queue: Mutex::new(TenantQueue {
                    pending: VecDeque::new(),
                    draining: false,
                }),
                session: Mutex::new(session),
            }),
        );
        Ok(())
    }

    /// A snapshot of a tenant's current (drifted) cost model, if it is
    /// open — what a replay asserts its delta stream drifted into. A
    /// tenant whose session a panicking handler poisoned answers `None`:
    /// its costs may be half-applied.
    pub fn tenant_costs(&self, tenant: TenantId) -> Option<CostModel> {
        let t = self
            .tenants
            .read()
            .expect("tenant registry poisoned")
            .get(&tenant)
            .cloned()?;
        let costs = t.session.lock().ok()?.costs().clone();
        Some(costs)
    }

    /// A snapshot of the request counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let latency = |kind: ReqKind| self.shared.latency[kind as usize].snapshot().stats();
        ServiceStats {
            submitted: load(&c.submitted),
            completed: load(&c.completed),
            failed: load(&c.failed),
            backpressure_waits: self.shared.gate.waits.load(Ordering::Relaxed),
            latency: RequestLatency {
                solve: latency(ReqKind::Solve),
                frontier: latency(ReqKind::Frontier),
                delta: latency(ReqKind::Delta),
                anytime: latency(ReqKind::Anytime),
                tenant: latency(ReqKind::Tenant),
            },
        }
    }

    /// Submits a request, blocking while the in-flight queue is at
    /// capacity (backpressure). The returned [`Ticket`] resolves once the
    /// request is answered; an id-addressed read already is by the time
    /// this returns.
    pub fn submit(&self, request: Request) -> Ticket {
        self.shared.gate.acquire();
        self.dispatch(request)
    }

    /// Like [`Service::submit`], but refuses with
    /// [`ServiceError::Saturated`] instead of blocking when the queue is
    /// full.
    pub fn try_submit(&self, request: Request) -> Result<Ticket, ServiceError> {
        if !self.shared.gate.try_acquire() {
            return Err(ServiceError::Saturated);
        }
        Ok(self.dispatch(request))
    }

    /// Routes one accepted request (the gate slot is already held and is
    /// released by whoever fulfils the reply). The rule is keyed on the
    /// request kind alone: the id-addressed reads are a cache lookup plus
    /// one sweep, cheaper than the two thread wake-ups of a worker hop, so
    /// they are answered right here, and so is a tenant open, so that a
    /// delta submitted after it finds the tenant open; a delta or a close
    /// queues on its tenant, and everything else goes to the pool. A
    /// by-value solve or frontier is `prepare` plus the by-id handler.
    fn dispatch(&self, request: Request) -> Ticket {
        match request {
            Request::SolveById { id, lambda } => self.answer_inline(ReqKind::Solve, |shared| {
                handle_solve_by_id(shared, id, lambda)
            }),
            Request::FrontierById { id } => self.answer_inline(ReqKind::Frontier, |shared| {
                handle_frontier_by_id(shared, id)
            }),
            Request::Solve {
                tree,
                costs,
                lambda,
            } => self.answer_on_pool(ReqKind::Solve, move |shared| {
                handle_solve_by_id(shared, shared.engine.prepare(&tree, &costs)?, lambda)
            }),
            Request::Frontier { tree, costs } => self
                .answer_on_pool(ReqKind::Frontier, move |shared| {
                    handle_frontier_by_id(shared, shared.engine.prepare(&tree, &costs)?)
                }),
            Request::SolveAnytime {
                tree,
                costs,
                lambda,
                budget_ms,
            } => self.answer_on_pool(ReqKind::Anytime, move |shared| {
                handle_solve_anytime(shared, &tree, &costs, lambda, budget_ms)
            }),
            Request::Delta {
                tenant,
                delta,
                lambda,
            } => self.enqueue_delta(tenant, delta, lambda),
            Request::CloseTenant { tenant } => self.enqueue_close(tenant),
            Request::OpenTenant {
                tenant,
                tree,
                costs,
            } => self.answer_inline(ReqKind::Tenant, |_| {
                self.open_tenant(tenant, &tree, &costs)
                    .map(|()| Reply::TenantOpened)
            }),
        }
    }

    /// Counts one accepted request and opens its reply slot.
    fn accept(&self) -> (Instant, Arc<ReplySlot>, Ticket) {
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let slot = ReplySlot::new();
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        (Instant::now(), slot, ticket)
    }

    /// Answers an accepted request on the calling thread.
    fn answer_inline(
        &self,
        kind: ReqKind,
        handler: impl FnOnce(&Shared) -> Result<Reply, ServiceError>,
    ) -> Ticket {
        let (accepted, slot, ticket) = self.accept();
        answer(&self.shared, kind, accepted, &slot, handler);
        ticket
    }

    /// Answers an accepted request on whichever pool worker frees up
    /// first.
    fn answer_on_pool(
        &self,
        kind: ReqKind,
        handler: impl FnOnce(&Shared) -> Result<Reply, ServiceError> + Send + 'static,
    ) -> Ticket {
        let (accepted, slot, ticket) = self.accept();
        let shared = Arc::clone(&self.shared);
        self.pool
            .submit(move || answer(&shared, kind, accepted, &slot, handler));
        ticket
    }

    /// Queues an accepted delta on its tenant. A delta to an unknown
    /// tenant is answered right here.
    fn enqueue_delta(&self, tenant: TenantId, delta: Arc<Delta>, lambda: Lambda) -> Ticket {
        let tenants = self.tenants.read().expect("tenant registry poisoned");
        match tenants.get(&tenant) {
            Some(target) => self.enqueue(target, Some((delta, lambda))),
            None => {
                self.answer_inline(ReqKind::Delta, |_| Err(ServiceError::UnknownTenant(tenant)))
            }
        }
    }

    /// Takes the tenant out of the registry, so later requests answer
    /// [`ServiceError::UnknownTenant`], and queues its close behind the
    /// deltas already queued. A close of an unknown tenant is answered
    /// right here.
    fn enqueue_close(&self, tenant: TenantId) -> Ticket {
        let mut tenants = self.tenants.write().expect("tenant registry poisoned");
        match tenants.remove(&tenant) {
            Some(target) => self.enqueue(&target, None),
            None => self.answer_inline(ReqKind::Tenant, |_| {
                Err(ServiceError::UnknownTenant(tenant))
            }),
        }
    }

    /// Queues an accepted delta, or no delta for the close, on its
    /// tenant, starting a drainer if none runs. Callers hold the registry
    /// lock across the push, so a close and the deltas racing it queue in
    /// the order the registry saw them: a delta either lands ahead of its
    /// tenant's close or finds the tenant gone.
    fn enqueue(&self, target: &Arc<Tenant>, delta: Option<(Arc<Delta>, Lambda)>) -> Ticket {
        let (accepted, slot, ticket) = self.accept();
        // Enqueue *here*, on the submitting thread: per-tenant order is
        // submission order by construction, regardless of which workers
        // later run the drain. The queue lock is never held across a
        // solve, so this push cannot stall behind a busy tenant's
        // in-flight apply.
        let start_drain = {
            let mut q = target.queue.lock().expect("tenant queue poisoned");
            q.pending.push_back((delta, slot, accepted));
            !std::mem::replace(&mut q.draining, true)
        };
        if start_drain {
            let (shared, target) = (Arc::clone(&self.shared), Arc::clone(target));
            self.pool.submit(move || drain_tenant(&shared, &target));
        }
        ticket
    }
}

/// Runs a request's handler and answers it — the one funnel every
/// accepted request goes through, on whichever thread answers it. A
/// handler that unwinds answers [`ServiceError::Internal`] instead, so its
/// gate slot is released, its ticket resolves (over the wire, every later
/// reply on the same connection with it), and the unwind stops here rather
/// than in the answering thread: a reactor shard, a pool worker, or a
/// tenant's drainer with more deltas queued behind this one.
///
/// Counters and the histogram are updated *before* the slot is fulfilled,
/// so a caller that waited a ticket observes its own request in
/// [`Service::stats`]. The gate slot is released *before* the slot is
/// fulfilled, so a [`Ticket::on_ready`] callback that immediately
/// resubmits a parked request can find the room this answer just freed.
fn answer(
    shared: &Shared,
    kind: ReqKind,
    accepted: Instant,
    slot: &ReplySlot,
    handler: impl FnOnce(&Shared) -> Result<Reply, ServiceError>,
) {
    let result = catch_unwind(AssertUnwindSafe(|| handler(shared)))
        .unwrap_or_else(|payload| Err(ServiceError::Internal(panic_message(payload.as_ref()))));
    let bucket = if result.is_ok() {
        &shared.counters.completed
    } else {
        &shared.counters.failed
    };
    bucket.fetch_add(1, Ordering::Relaxed);
    shared.latency[kind as usize].record_duration(accepted.elapsed());
    shared.gate.release();
    slot.fulfill(result);
}

/// The text a panic was raised with, when it carried one.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn handle_solve_by_id(
    shared: &Shared,
    id: InstanceId,
    lambda: Lambda,
) -> Result<Reply, ServiceError> {
    let solution = shared.engine.solve(id, lambda)?;
    if shared.verify {
        // The id proves prior contact (the first-contact equality check
        // already ran), so the cached instance *is* the instance to
        // re-derive from scratch.
        let cached = shared
            .engine
            .instance(id)
            .ok_or(EngineError::UnknownInstance { id })?;
        verify_solve(
            "solve",
            &cached.prepared.tree,
            &cached.prepared.costs,
            lambda,
            &solution,
        )?;
    }
    Ok(Reply::Solution { id, solution })
}

fn handle_solve_anytime(
    shared: &Shared,
    tree: &CruTree,
    costs: &CostModel,
    lambda: Lambda,
    budget_ms: u64,
) -> Result<Reply, ServiceError> {
    let outcome =
        shared
            .portfolio
            .solve_anytime(tree, costs, lambda, Duration::from_millis(budget_ms))?;
    let answer = outcome.answer;
    let id = InstanceId::from_raw(instance_hash(tree, costs));
    if shared.verify {
        if answer.exact_finished {
            // A finished exact arm claims the canonical answer: it must be
            // byte-identical to a from-scratch solve, with a tight
            // certificate sitting exactly on the optimum.
            verify_solve("solve", tree, costs, lambda, &answer.solution)?;
            if !answer.certificate.is_tight()
                || answer.certificate.upper != answer.solution.objective
            {
                return Err(ServiceError::VerifyFailed { what: "anytime" });
            }
        } else {
            // A heuristic incumbent: re-evaluate its cut from scratch (the
            // objective must be the cut's true cost, not a stale fitness)
            // and check the certificate brackets it.
            let prep = Prepared::new(tree, costs).map_err(EngineError::from)?;
            let re = Solution::from_cut(
                &prep,
                answer.solution.cut.clone(),
                lambda,
                SolveStats::default(),
            )
            .map_err(EngineError::from)?;
            if re.objective != answer.solution.objective
                || answer.certificate.upper != answer.solution.objective
                || answer.certificate.lower > answer.certificate.upper
            {
                return Err(ServiceError::VerifyFailed { what: "anytime" });
            }
        }
    }
    Ok(Reply::Anytime { id, answer })
}

/// Verify-mode cross-check: a from-scratch preparation and `Expanded`
/// solve of the same instance state must agree byte-for-byte. `what`
/// names the request kind a divergence reports.
fn verify_solve(
    what: &'static str,
    tree: &CruTree,
    costs: &CostModel,
    lambda: Lambda,
    solution: &Solution,
) -> Result<(), ServiceError> {
    let prep = Prepared::new(tree, costs).map_err(EngineError::from)?;
    let want = Expanded::default()
        .solve(&prep, lambda)
        .map_err(EngineError::from)?;
    if want.objective != solution.objective || want.cut != solution.cut {
        return Err(ServiceError::VerifyFailed { what });
    }
    Ok(())
}

fn handle_frontier_by_id(shared: &Shared, id: InstanceId) -> Result<Reply, ServiceError> {
    let frontier = shared.engine.frontier(id)?;
    if shared.verify {
        verify_frontier(shared, id, &frontier)?;
    }
    Ok(Reply::Frontier { id, frontier })
}

/// Verify-mode cross-check for frontiers: re-derives the instance's
/// `Prepared` from scratch and rebuilds the envelope over the *cached*
/// per-colour frontiers. The λ-independent frontier DP is content-hash
/// keyed and immutable once cached, so re-running `FrontierSet::prepare`
/// per verified request (as this path used to) re-checked nothing the
/// equality check had not already pinned — it only put an O(instance)
/// rebuild on every request.
fn verify_frontier(
    shared: &Shared,
    id: InstanceId,
    frontier: &LambdaFrontier,
) -> Result<(), ServiceError> {
    let cached = shared
        .engine
        .instance(id)
        .ok_or(EngineError::UnknownInstance { id })?;
    let prep =
        Prepared::new(&cached.prepared.tree, &cached.prepared.costs).map_err(EngineError::from)?;
    let want = lambda_frontier_with(&prep, &cached.frontiers).map_err(EngineError::from)?;
    let agrees = want.breakpoints() == frontier.breakpoints()
        && [Lambda::ZERO, Lambda::HALF, Lambda::ONE]
            .iter()
            .all(|&l| want.objective_at(l) == frontier.objective_at(l));
    if !agrees {
        return Err(ServiceError::VerifyFailed { what: "frontier" });
    }
    Ok(())
}

/// The single-drainer loop: pops this tenant's pending jobs in submission
/// order and answers each through [`answer`] until the queue is empty, then
/// yields the drainer role. The close, always the last job, answers the
/// session's counters, read through a poisoned lock: a tenant a panic
/// failed closed can still be closed and reopened. Runs on whatever worker
/// picked the job up; other tenants drain concurrently on other workers.
/// The queue lock is released before each apply+solve (the `draining` flag
/// already guarantees a single drainer), so submitters keep enqueueing at
/// full speed while this tenant solves.
fn drain_tenant(shared: &Shared, tenant: &Tenant) {
    loop {
        let next = {
            let mut q = tenant.queue.lock().expect("tenant queue poisoned");
            match q.pending.pop_front() {
                Some(item) => item,
                None => {
                    // Yield the drainer role *under the queue lock*: a
                    // submitter either sees `draining` still true (its
                    // item was popped above, or will be by the next
                    // iteration) or false (it schedules a fresh drain) —
                    // no item can be stranded in between.
                    q.draining = false;
                    return;
                }
            }
        };
        match next {
            (Some((delta, lambda)), slot, accepted) => {
                answer(shared, ReqKind::Delta, accepted, &slot, |shared| {
                    handle_delta(shared, tenant, &delta, lambda)
                })
            }
            (None, slot, accepted) => answer(shared, ReqKind::Tenant, accepted, &slot, |_| {
                let session = tenant.session.lock();
                let stats = session.unwrap_or_else(PoisonError::into_inner).stats();
                Ok(Reply::TenantClosed { stats })
            }),
        }
    }
}

fn handle_delta(
    shared: &Shared,
    tenant: &Tenant,
    delta: &Delta,
    lambda: Lambda,
) -> Result<Reply, ServiceError> {
    // A handler that panicked under this lock may have left the session
    // half-applied, so the tenant fails closed rather than answer from it.
    let mut session = tenant.session.lock().map_err(|_| {
        ServiceError::Internal("tenant session poisoned by an earlier panic".to_string())
    })?;
    let outcome = session.apply(delta).map_err(ServiceError::Apply)?;
    let solution = session.solve(lambda).map_err(ServiceError::Apply)?;
    if shared.verify {
        verify_solve(
            "delta",
            &session.prepared().tree,
            session.costs(),
            lambda,
            &solution,
        )?;
    }
    Ok(Reply::Applied { outcome, solution })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use hsa_workloads::paper_scenario;

    fn service(cfg: ServiceConfig) -> Service {
        Service::new(Arc::new(Engine::new(EngineConfig::default())), cfg)
    }

    /// Submits a tenant's close and waits for its counters.
    fn close(svc: &Service, tenant: TenantId) -> Result<SessionStats, ServiceError> {
        match svc.submit(Request::close_tenant(tenant)).wait()? {
            Reply::TenantClosed { stats } => Ok(stats),
            other => panic!("a close answered {other:?}"),
        }
    }

    #[test]
    fn solve_and_frontier_round_trip() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig {
            verify: true,
            workers: 2,
            ..ServiceConfig::default()
        });
        let solve = svc.submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF));
        let frontier = svc.submit(Request::frontier(&sc.tree, &sc.costs));
        let Reply::Solution { id, solution: sol } = solve.wait().unwrap() else {
            panic!("expected a solution");
        };
        let Reply::Frontier {
            id: fid,
            frontier: fr,
        } = frontier.wait().unwrap()
        else {
            panic!("expected a frontier");
        };
        assert_eq!(id, fid, "one instance, one id");
        assert_eq!(fr.objective_at(Lambda::HALF), sol.objective);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        let lat = stats.latency;
        assert_eq!(
            (lat.solve.count, lat.frontier.count, stats.failed),
            (1, 1, 0)
        );
    }

    #[test]
    fn id_addressed_requests_round_trip_under_verify() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig {
            verify: true,
            workers: 2,
            ..ServiceConfig::default()
        });
        let first = svc
            .submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
            .wait()
            .unwrap();
        let id = first.instance_id().unwrap();
        let sol = first.solution().unwrap();
        // Re-query by id at several λ: byte-identical to instance-carrying
        // requests, without shipping the instance again.
        for n in 0..=4u32 {
            let lambda = Lambda::new(n, 4).unwrap();
            let by_id = svc.submit(Request::solve_by_id(id, lambda)).wait().unwrap();
            let by_value = svc
                .submit(Request::solve(&sc.tree, &sc.costs, lambda))
                .wait()
                .unwrap();
            assert_eq!(by_id.instance_id(), Some(id));
            let (a, b) = (by_id.solution().unwrap(), by_value.solution().unwrap());
            assert_eq!(a.objective, b.objective);
            assert_eq!(a.cut, b.cut);
        }
        let Reply::Frontier { id: fid, frontier } =
            svc.submit(Request::frontier_by_id(id)).wait().unwrap()
        else {
            panic!("expected a frontier");
        };
        assert_eq!(fid, id);
        assert_eq!(frontier.objective_at(Lambda::HALF), sol.objective);
    }

    #[test]
    fn unknown_instance_id_is_an_error() {
        let svc = service(ServiceConfig::default());
        let bogus = crate::InstanceId::from_raw(0xdead_beef);
        let t = svc.submit(Request::solve_by_id(bogus, Lambda::HALF));
        assert!(matches!(
            t.wait(),
            Err(ServiceError::Engine(EngineError::UnknownInstance { id })) if id == bogus
        ));
        let t = svc.submit(Request::frontier_by_id(bogus));
        assert!(matches!(
            t.wait(),
            Err(ServiceError::Engine(EngineError::UnknownInstance { .. }))
        ));
    }

    #[test]
    fn tenant_deltas_apply_in_submission_order() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig {
            verify: true,
            workers: 2,
            ..ServiceConfig::default()
        });
        let tenant = TenantId(1);
        svc.open_tenant(tenant, &sc.tree, &sc.costs).unwrap();
        let leaf = *sc.tree.leaves_in_order().first().unwrap();
        let tickets: Vec<Ticket> = (1..=6u64)
            .map(|step| {
                let delta =
                    Delta::new().set_satellite_time(leaf, hsa_graph::Cost::new(100 + 37 * step));
                svc.submit(Request::delta(tenant, delta, Lambda::HALF))
            })
            .collect();
        for t in tickets {
            let Reply::Applied { .. } = t.wait().unwrap() else {
                panic!("expected an apply outcome");
            };
        }
        assert_eq!(svc.stats().latency.delta.count, 6);
        assert_eq!(close(&svc, tenant).unwrap().applies, 6);
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_errors() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig::default());
        let t = svc.submit(Request::delta(TenantId(9), Delta::new(), Lambda::HALF));
        assert!(matches!(
            t.wait(),
            Err(ServiceError::UnknownTenant(TenantId(9)))
        ));
        svc.open_tenant(TenantId(3), &sc.tree, &sc.costs).unwrap();
        assert_eq!(
            svc.open_tenant(TenantId(3), &sc.tree, &sc.costs),
            Err(ServiceError::TenantExists(TenantId(3)))
        );
        assert_eq!(
            close(&svc, TenantId(9)),
            Err(ServiceError::UnknownTenant(TenantId(9)))
        );
    }

    #[test]
    fn tenant_open_and_close_are_answered_as_requests() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig::default());
        let tenant = TenantId(4);
        let opened = svc.submit(Request::open_tenant(tenant, &sc.tree, &sc.costs));
        assert!(
            matches!(opened.try_take(), Ok(Ok(Reply::TenantOpened))),
            "an open is answered inside submit"
        );
        let stats = svc.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.latency.tenant.count),
            (1, 1, 1)
        );
        assert!(matches!(
            svc.submit(Request::open_tenant(tenant, &sc.tree, &sc.costs)).wait(),
            Err(ServiceError::TenantExists(t)) if t == tenant
        ));
        let busier = Delta::new().scale_subtree(sc.tree.root(), 11, 10);
        let applied = svc.submit(Request::delta(tenant, busier.clone(), Lambda::HALF));
        // The close queues behind the delta, so its counters include it,
        // and the tenant is gone for everything submitted after it.
        let closed = svc.submit(Request::close_tenant(tenant));
        assert!(matches!(
            svc.submit(Request::delta(tenant, busier, Lambda::HALF)).wait(),
            Err(ServiceError::UnknownTenant(t)) if t == tenant
        ));
        assert!(matches!(applied.wait(), Ok(Reply::Applied { .. })));
        match closed.wait() {
            Ok(Reply::TenantClosed { stats }) => assert_eq!(stats.applies, 1),
            other => panic!("expected the closed tenant's counters, got {other:?}"),
        }
        assert_eq!(
            close(&svc, tenant),
            Err(ServiceError::UnknownTenant(tenant))
        );
        let stats = svc.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (6, 3, 3));
        assert_eq!(
            (stats.latency.tenant.count, stats.latency.delta.count),
            (4, 2)
        );
        assert_eq!(*svc.shared.gate.inflight.lock().unwrap(), 0);
    }

    #[test]
    fn try_submit_refuses_when_saturated() {
        let sc = paper_scenario();
        // One worker, one slot: occupy the slot with a held ticket, then
        // try_submit must refuse rather than block.
        let svc = service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        // Saturate: the gate admits one request; whether it is mid-solve
        // or queued does not matter, the slot is taken until answered.
        let first = svc.submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF));
        let mut refused = 0;
        let second = loop {
            match svc.try_submit(Request::solve(&sc.tree, &sc.costs, Lambda::ZERO)) {
                Ok(t) => break t,
                Err(ServiceError::Saturated) => refused += 1,
                Err(other) => panic!("unexpected refusal: {other}"),
            }
            std::thread::yield_now();
        };
        assert!(first.wait().is_ok());
        assert!(second.wait().is_ok());
        // The refusal count is timing-dependent but the *accounting* is
        // exact: exactly two requests were ever accepted.
        assert_eq!(svc.stats().submitted, 2);
        let _ = refused;
    }

    #[test]
    fn backpressure_blocks_and_is_counted() {
        let sc = paper_scenario();
        let svc = Arc::new(service(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        }));
        let tickets: Vec<Ticket> = (0..8u32)
            .map(|n| {
                svc.submit(Request::solve(
                    &sc.tree,
                    &sc.costs,
                    Lambda::new(n, 8).unwrap(),
                ))
            })
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let stats = svc.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert!(
            stats.backpressure_waits > 0,
            "8 submissions through a 2-deep queue must stall at least once"
        );
    }

    #[test]
    fn latency_percentiles_cover_every_answered_request() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let tenant = TenantId(1);
        svc.open_tenant(tenant, &sc.tree, &sc.costs).unwrap();
        let leaf = *sc.tree.leaves_in_order().first().unwrap();
        let tickets: Vec<Ticket> = (0..4u64)
            .flat_map(|n| {
                let delta =
                    Delta::new().set_satellite_time(leaf, hsa_graph::Cost::new(100 + 7 * n));
                [
                    svc.submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF)),
                    svc.submit(Request::frontier(&sc.tree, &sc.costs)),
                    svc.submit(Request::delta(tenant, delta, Lambda::HALF)),
                ]
            })
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let stats = svc.stats();
        let lat = stats.latency;
        // Every answered request of each kind was recorded…
        assert_eq!(
            (lat.solve.count, lat.frontier.count, lat.delta.count),
            (4, 4, 4)
        );
        // …with sane, ordered percentiles (a solve takes > 0 ns).
        for kind in [lat.solve, lat.frontier, lat.delta] {
            assert!(kind.sum_ns > 0);
            assert!(kind.p50_ns <= kind.p90_ns && kind.p90_ns <= kind.p99_ns);
        }
    }

    #[test]
    fn dropping_the_service_answers_every_accepted_ticket() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let tickets: Vec<Ticket> = (0..16u32)
            .map(|n| {
                svc.submit(Request::solve(
                    &sc.tree,
                    &sc.costs,
                    Lambda::new(n, 16).unwrap(),
                ))
            })
            .collect();
        drop(svc); // graceful shutdown: drain, then join
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted requests outlive the service");
        }
    }

    #[test]
    fn a_panicking_handler_answers_internal_on_both_paths() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let boom = |_: &Shared| -> Result<Reply, ServiceError> { panic!("injected fault") };
        // What `submit` does before routing: take the gate slot.
        svc.shared.gate.acquire();
        let inline = svc.answer_inline(ReqKind::Solve, boom);
        svc.shared.gate.acquire();
        let pooled = svc.answer_on_pool(ReqKind::Frontier, boom);
        for ticket in [inline, pooled] {
            match ticket.wait() {
                Err(ServiceError::Internal(msg)) => assert_eq!(msg, "injected fault"),
                other => panic!("expected an internal error, got {other:?}"),
            }
        }
        assert_eq!(*svc.shared.gate.inflight.lock().unwrap(), 0);
        let stats = svc.stats();
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        assert_eq!((stats.submitted, stats.failed), (2, 2));
        assert_eq!(
            (stats.latency.solve.count, stats.latency.frontier.count),
            (1, 1)
        );
        // Neither the calling thread nor the pool's workers were lost.
        let id = svc
            .submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
            .wait()
            .unwrap()
            .instance_id()
            .unwrap();
        assert!(svc
            .submit(Request::solve_by_id(id, Lambda::HALF))
            .wait()
            .is_ok());
    }

    #[test]
    fn a_panic_under_a_tenant_session_fails_that_tenant_closed() {
        let sc = paper_scenario();
        let svc = service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let (a, b) = (TenantId(1), TenantId(2));
        for tenant in [a, b] {
            svc.open_tenant(tenant, &sc.tree, &sc.costs).unwrap();
        }
        // A thread that panics while holding A's session poisons its lock,
        // as a handler panicking mid-apply would.
        let held = Arc::clone(&svc.tenants.read().unwrap()[&a]);
        let poisoner = std::thread::spawn(move || {
            let _session = held.session.lock().unwrap();
            panic!("injected fault");
        });
        assert!(poisoner.join().is_err());

        // Answers arrive through `on_ready` and are awaited with a bound,
        // so a delta nobody answers fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let leaf = *sc.tree.leaves_in_order().first().unwrap();
        for (n, tenant) in [a, a, a, b].into_iter().enumerate() {
            let delta = Delta::new().set_satellite_time(leaf, hsa_graph::Cost::new(100 + n as u64));
            let tx = tx.clone();
            svc.submit(Request::delta(tenant, delta, Lambda::HALF))
                .on_ready(move |result| tx.send((tenant, result)).unwrap());
        }
        for _ in 0..4 {
            let (tenant, result) = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("every accepted delta is answered");
            match (tenant == a, result) {
                (true, Err(ServiceError::Internal(_))) | (false, Ok(Reply::Applied { .. })) => {}
                (_, other) => panic!("{tenant} answered {other:?}"),
            }
        }
        assert_eq!(*svc.shared.gate.inflight.lock().unwrap(), 0);
        let stats = svc.stats();
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        assert_eq!((stats.submitted, stats.failed), (4, 3));
        assert!(svc.tenant_costs(a).is_none() && svc.tenant_costs(b).is_some());
        assert_eq!(close(&svc, a).unwrap().applies, 0);
    }
}
