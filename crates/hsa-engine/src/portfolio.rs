//! # The anytime racing portfolio (DESIGN.md §14)
//!
//! One question — "best cut for this instance at this λ" — raced by four
//! solver arms at once over a single shared [`Prepared`] instance:
//!
//! * **exact** — [`FrontierSet::prepare_cancellable`] + the threshold
//!   sweep: the engine's canonical answer path, byte-identical to a fresh
//!   [`hsa_assign::Expanded`]`::solve`, but cancellable per tree node;
//! * **cut-ga / cut-sa / cut-bnb** — the hsa-heuristics search bodies
//!   retargeted at the tree-cut problem ([`CutGenetic`], [`CutAnnealing`],
//!   [`CutBranchBound`]), each an anytime solver that answers with its best
//!   incumbent when its soft deadline fires.
//!
//! The caller gets the **first feasible answer** no later than the budget
//! (earlier when the exact arm wins outright), bracketed by a
//! [`GapCertificate`]: the answer's own objective above, the admissible
//! [`structural_lower_bound`] below — collapsing to a tight zero-gap
//! certificate the moment the exact arm finishes. Answers only ever
//! upgrade: the certificate history is monotone on both sides.
//!
//! Losing arms are not killed, they *drain*: every arm polls a shared
//! [`CancelToken`] and returns promptly once the race is decided, so the
//! portfolio's own workers, one per arm, are reusable race after race and
//! [`Portfolio::pending_arms`] falls back to zero (the cancellation tests
//! pin this down).
//!
//! When the exact arm finishes inside the budget its λ-independent
//! [`FrontierSet`] is inserted into the owning engine's instance cache, so
//! the *next* `solve_anytime` (or `prepare`) of the same instance is a
//! cache hit answered tight and instantly.

use crate::cache::CachedInstance;
use crate::pool::WorkerPool;
use crate::{instance_hash, Engine, EngineError, InstanceId};
use hsa_assign::{
    solve_with_frontiers, structural_lower_bound, AssignError, CancelToken, ExpandedConfig,
    FrontierSet, GapCertificate, Prepared, Solution, SolveScratch, Solver,
};
use hsa_graph::{Lambda, ScaledSsb};
use hsa_heuristics::{BnbConfig, CutAnnealing, CutBranchBound, CutGenetic, GaConfig, SaConfig};
use hsa_tree::{CostModel, CruTree};
use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which arm of the portfolio produced an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArmKind {
    /// The exact frontier solver (tight certificate).
    Exact,
    /// The cut-space genetic algorithm.
    Genetic,
    /// The cut-space simulated annealer.
    Annealing,
    /// The cut-space branch-and-bound.
    BranchBound,
}

impl ArmKind {
    /// Stable wire/report name of this arm.
    pub fn as_str(self) -> &'static str {
        match self {
            ArmKind::Exact => "exact",
            ArmKind::Genetic => "cut-ga",
            ArmKind::Annealing => "cut-sa",
            ArmKind::BranchBound => "cut-bnb",
        }
    }

    /// Fixed ranking used to break objective ties deterministically when
    /// picking a winner among heuristic arms.
    fn rank(self) -> u8 {
        match self {
            ArmKind::Exact => 0,
            ArmKind::Genetic => 1,
            ArmKind::Annealing => 2,
            ArmKind::BranchBound => 3,
        }
    }
}

impl fmt::Display for ArmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for ArmKind {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str(self.as_str());
    }
}

impl Deserialize for ArmKind {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        match &*d.str()? {
            "exact" => Ok(ArmKind::Exact),
            "cut-ga" => Ok(ArmKind::Genetic),
            "cut-sa" => Ok(ArmKind::Annealing),
            "cut-bnb" => Ok(ArmKind::BranchBound),
            other => Err(DeError::custom(format!("unknown arm kind {other:?}"))),
        }
    }
}

/// The deterministic payload of an anytime solve — what crosses the wire.
///
/// Everything here is a pure function of the instance, λ and the winning
/// arm's search (each arm is deterministic per seed); the *racy* parts of
/// an anytime run (who answered first, how long it took, how many upgrades
/// happened) live in [`AnytimeOutcome`] and never leave the process. In
/// particular, whenever the exact arm finishes within budget the entire
/// answer — cut, objective, tight certificate, winner — is byte-identical
/// across runs and across the wire (the loopback tests pin this).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnytimeAnswer {
    /// The best solution found within the budget.
    pub solution: Solution,
    /// Certified bracket on the optimum: `lower ≤ optimum ≤ upper` with
    /// `upper == solution.objective`.
    pub certificate: GapCertificate,
    /// The arm that produced `solution`.
    pub winner: ArmKind,
    /// True when the exact arm completed — the answer is certified optimal
    /// and the certificate is tight.
    pub exact_finished: bool,
}

/// The full in-process result of one anytime race: the deliverable
/// [`AnytimeAnswer`] plus timing/upgrade diagnostics that depend on
/// scheduling and therefore stay out of the wire format.
#[derive(Clone, Debug)]
pub struct AnytimeOutcome {
    /// The answer (also what [`crate::Service`] serialises).
    pub answer: AnytimeAnswer,
    /// The arm that produced the *first* feasible answer (not necessarily
    /// the winner — a heuristic often answers first, the exact arm then
    /// upgrades it).
    pub first_arm: ArmKind,
    /// Wall-clock nanoseconds from submission to the first feasible
    /// answer.
    pub time_to_first_ns: u64,
    /// How many times a later arm improved the incumbent after the first
    /// answer (certificate tightenings).
    pub upgrades: u32,
    /// The certificate after each improvement, in order; monotone on both
    /// sides (lower never decreases, upper never increases), ending at
    /// `answer.certificate`.
    pub certificates: Vec<GapCertificate>,
}

/// The arms every race runs: exact, genetic, annealing, branch-and-bound.
/// The portfolio keeps one worker per arm of its own (DESIGN.md §14). One
/// per arm lets a race's arms all run at once, so a heuristic incumbent
/// is in hand at the deadline while the exact arm still runs. Its own,
/// because an anytime request already holds a service worker while it
/// waits: arms queued on a saturated service pool would never start.
const ARMS: usize = 4;

/// Portfolio configuration: the arms' seeds and budgets.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortfolioConfig {
    /// Genetic-arm configuration (deterministic per seed).
    pub ga: GaConfig,
    /// Annealing-arm configuration (deterministic per seed).
    pub sa: SaConfig,
    /// Branch-and-bound arm configuration.
    pub bnb: BnbConfig,
}

/// Shared state of one race, guarded by a mutex; arms report here and the
/// caller waits on the condvar.
struct RaceState {
    /// Set by the caller once it has extracted an answer: late stragglers
    /// then only decrement `arms_left` and notify.
    finished: bool,
    /// Arms that have not yet reported (answer, error or panic).
    arms_left: usize,
    /// Feasible answers from heuristic arms, in arrival order.
    answers: Vec<(ArmKind, Solution)>,
    /// The exact arm's answer and its reusable frontier set.
    exact: Option<(Solution, FrontierSet)>,
    /// The current certificate (None until the first answer).
    cert: Option<GapCertificate>,
    /// Certificate after each tightening.
    history: Vec<GapCertificate>,
    /// First arm to answer and when.
    first: Option<(ArmKind, Duration)>,
    /// Improvements after the first answer.
    upgrades: u32,
    /// Most recent arm error (reported only if no arm answers at all).
    last_err: Option<AssignError>,
}

struct Race {
    state: Mutex<RaceState>,
    cv: Condvar,
    /// Admissible λ-scaled lower bound, computed before any arm starts.
    lower: ScaledSsb,
    lambda: Lambda,
    start: Instant,
}

impl Race {
    /// Folds a feasible answer into the race: first-answer bookkeeping,
    /// monotone certificate tightening, upgrade counting.
    fn absorb(&self, st: &mut RaceState, kind: ArmKind, sol: &Solution, tight: bool) {
        if st.first.is_none() {
            st.first = Some((kind, self.start.elapsed()));
        }
        let next = match (st.cert, tight) {
            (Some(c), true) => c.tightened(sol.objective, sol.objective),
            (Some(c), false) => c.tightened(self.lower, sol.objective),
            (None, true) => GapCertificate::tight(sol.objective, self.lambda),
            (None, false) => GapCertificate::new(self.lower, sol.objective, self.lambda),
        };
        if st.cert != Some(next) {
            if st.cert.is_some() {
                st.upgrades += 1;
            }
            st.cert = Some(next);
            st.history.push(next);
        }
    }

    /// A heuristic arm reporting its result (best incumbent or error).
    fn arm_done(&self, kind: ArmKind, result: Result<Solution, AssignError>) {
        let mut st = self.state.lock().unwrap();
        st.arms_left = st.arms_left.saturating_sub(1);
        if !st.finished {
            match result {
                Ok(sol) => {
                    self.absorb(&mut st, kind, &sol, false);
                    st.answers.push((kind, sol));
                }
                Err(e) => st.last_err = Some(e),
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The exact arm reporting: a tight answer plus its frontier set, or
    /// an error (typically [`AssignError::Cancelled`] after losing).
    fn exact_done(&self, result: Result<(Solution, FrontierSet), AssignError>) {
        let mut st = self.state.lock().unwrap();
        st.arms_left = st.arms_left.saturating_sub(1);
        if !st.finished {
            match result {
                Ok((sol, fs)) => {
                    self.absorb(&mut st, ArmKind::Exact, &sol, true);
                    st.exact = Some((sol, fs));
                }
                Err(e) => st.last_err = Some(e),
            }
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Drop guard an arm holds for its whole run: decrements the portfolio's
/// pending-arm gauge and — if the arm never reported (a panic unwound
/// through it) — reports a loss so the caller's wait can still terminate.
struct ArmGuard {
    race: Arc<Race>,
    pending: Arc<AtomicUsize>,
    kind: ArmKind,
    reported: bool,
}

impl ArmGuard {
    fn new(race: Arc<Race>, pending: Arc<AtomicUsize>, kind: ArmKind) -> ArmGuard {
        ArmGuard {
            race,
            pending,
            kind,
            reported: false,
        }
    }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        if !self.reported {
            // Panicked before reporting: count the arm out so the race
            // cannot wait on it forever.
            if self.kind == ArmKind::Exact {
                self.race.exact_done(Err(AssignError::Cancelled));
            } else {
                self.race.arm_done(self.kind, Err(AssignError::Cancelled));
            }
        }
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The anytime racing solver portfolio. See the module docs for the
/// racing model; [`Portfolio::solve_anytime`] is the single entry point.
///
/// The portfolio owns one persistent worker per arm (spawned once, reused
/// across races, drained on drop), so repeated races never accumulate
/// threads.
pub struct Portfolio {
    engine: Arc<Engine>,
    cfg: PortfolioConfig,
    pool: WorkerPool,
    pending: Arc<AtomicUsize>,
}

impl Portfolio {
    /// Creates a portfolio racing over (and feeding its exact results back
    /// into) the given engine's instance cache.
    pub fn new(engine: Arc<Engine>, cfg: PortfolioConfig) -> Portfolio {
        Portfolio {
            engine,
            pool: WorkerPool::new(ARMS),
            cfg,
            pending: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Arms currently running (or draining after losing a race). Falls
    /// back to zero once every arm has observed cancellation — the
    /// cancellation tests poll this to prove losers drain cleanly.
    pub fn pending_arms(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// The configuration this portfolio was built with.
    pub fn config(&self) -> &PortfolioConfig {
        &self.cfg
    }

    /// The portfolio's worker count: one per arm.
    pub fn workers(&self) -> usize {
        self.pool.size()
    }

    /// Races all four arms on `(tree, costs, λ)` and returns within
    /// `budget` of the first feasible answer (often much sooner):
    ///
    /// * instance already cached → answered immediately from its frontiers
    ///   with a tight certificate, no race at all;
    /// * exact arm finishes in budget → its answer (byte-identical to a
    ///   fresh [`hsa_assign::Expanded`]`::solve`), tight certificate, and
    ///   the frontier set is cached for next time;
    /// * budget expires first → best heuristic incumbent (ties broken by
    ///   the fixed arm order), certificate bracketed below by the
    ///   structural relaxation.
    ///
    /// Losing arms observe the shared [`CancelToken`] and drain; this call
    /// never blocks on them after the answer is decided.
    pub fn solve_anytime(
        &self,
        tree: &CruTree,
        costs: &CostModel,
        lambda: Lambda,
        budget: Duration,
    ) -> Result<AnytimeOutcome, EngineError> {
        let start = Instant::now();
        let id = InstanceId::from_raw(instance_hash(tree, costs));
        if let Some(cached) = self.engine.instance(id) {
            if &*cached.prepared.tree != tree || &*cached.prepared.costs != costs {
                return Err(EngineError::HashCollision { id });
            }
            self.engine.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            let sol = solve_with_frontiers(&cached.prepared, &cached.frontiers, lambda)?;
            self.engine.stats.record_solve(&sol.stats);
            let cert = GapCertificate::tight(sol.objective, lambda);
            return Ok(AnytimeOutcome {
                answer: AnytimeAnswer {
                    solution: sol,
                    certificate: cert,
                    winner: ArmKind::Exact,
                    exact_finished: true,
                },
                first_arm: ArmKind::Exact,
                time_to_first_ns: start.elapsed().as_nanos() as u64,
                upgrades: 0,
                certificates: vec![cert],
            });
        }

        let prep: Arc<Prepared<'static>> =
            Arc::new(Prepared::new_owned(tree.clone(), costs.clone())?);
        let lower = structural_lower_bound(&prep, lambda);
        let deadline = start + budget;
        let token = CancelToken::new();
        let race = Arc::new(Race {
            state: Mutex::new(RaceState {
                finished: false,
                arms_left: ARMS,
                answers: Vec::new(),
                exact: None,
                cert: None,
                history: Vec::new(),
                first: None,
                upgrades: 0,
                last_err: None,
            }),
            cv: Condvar::new(),
            lower,
            lambda,
            start,
        });

        self.launch_exact(&prep, lambda, &token, &race, self.engine.config().expanded);
        let soft = token.until(deadline);
        self.launch_heuristic(
            Arc::new(CutGenetic {
                config: self.cfg.ga,
            }),
            ArmKind::Genetic,
            &prep,
            lambda,
            &soft,
            &race,
        );
        self.launch_heuristic(
            Arc::new(CutAnnealing {
                config: self.cfg.sa,
            }),
            ArmKind::Annealing,
            &prep,
            lambda,
            &soft,
            &race,
        );
        self.launch_heuristic(
            Arc::new(CutBranchBound {
                config: self.cfg.bnb,
            }),
            ArmKind::BranchBound,
            &prep,
            lambda,
            &soft,
            &race,
        );

        // Wait until the race is decided: exact finished, every arm
        // reported, or the budget expired with at least one answer in
        // hand. (Past the deadline with *no* answer yet we keep waiting in
        // short slices — the heuristic arms' soft deadline makes them
        // report their incumbents promptly.)
        let decided = {
            let mut st = race.state.lock().unwrap();
            loop {
                if st.exact.is_some() || st.arms_left == 0 {
                    break;
                }
                let now = Instant::now();
                if now >= deadline && (!st.answers.is_empty() || st.exact.is_some()) {
                    break;
                }
                let slice = if now < deadline {
                    deadline - now
                } else {
                    Duration::from_millis(10)
                };
                let (guard, _) = race.cv.wait_timeout(st, slice).unwrap();
                st = guard;
            }
            st.finished = true;
            let exact = st.exact.take();
            let exact_finished = exact.is_some();
            let picked = if let Some((sol, fs)) = exact {
                Some((ArmKind::Exact, sol, Some(fs)))
            } else {
                // Best heuristic incumbent; objective ties broken by the
                // fixed arm ranking so the pick is order-independent.
                let mut best: Option<(ArmKind, Solution)> = None;
                for (kind, sol) in st.answers.drain(..) {
                    let better = match &best {
                        None => true,
                        Some((bk, bs)) => (sol.objective, kind.rank()) < (bs.objective, bk.rank()),
                    };
                    if better {
                        best = Some((kind, sol));
                    }
                }
                best.map(|(k, s)| (k, s, None))
            };
            match picked {
                Some(p) => Ok((
                    p,
                    st.cert,
                    std::mem::take(&mut st.history),
                    st.first,
                    st.upgrades,
                    exact_finished,
                )),
                None => Err(st.last_err.take().unwrap_or(AssignError::Cancelled)),
            }
        };
        // Decided (either way): stop every still-running arm.
        token.cancel();

        let ((winner, solution, frontiers), cert, history, first, upgrades, exact_finished) =
            decided.map_err(EngineError::from)?;

        if let Some(fs) = frontiers {
            // The exact arm finished: donate its λ-independent frontier
            // set to the engine's cache so the next query over this
            // instance — anytime or batch — is a hit. Counted as a miss:
            // the preparation work was paid here.
            let entry = CachedInstance {
                prepared: (*prep).clone(),
                frontiers: fs,
            };
            self.engine.cache.insert_or_adopt(id.raw(), entry);
            self.engine
                .stats
                .cache_misses
                .fetch_add(1, Ordering::Relaxed);
        }
        self.engine.stats.record_solve(&solution.stats);

        // The winner's objective is the certified upper bound by
        // construction; the certificate always exists once any arm
        // answered.
        let certificate = cert.unwrap_or(GapCertificate::new(lower, solution.objective, lambda));
        let (first_arm, first_at) = first.unwrap_or((winner, start.elapsed()));
        Ok(AnytimeOutcome {
            answer: AnytimeAnswer {
                solution,
                certificate,
                winner,
                exact_finished,
            },
            first_arm,
            time_to_first_ns: first_at.as_nanos() as u64,
            upgrades,
            certificates: history,
        })
    }

    fn launch_exact(
        &self,
        prep: &Arc<Prepared<'static>>,
        lambda: Lambda,
        token: &CancelToken,
        race: &Arc<Race>,
        expanded: ExpandedConfig,
    ) {
        let prep = Arc::clone(prep);
        let token = token.clone();
        let race = Arc::clone(race);
        let pending = Arc::clone(&self.pending);
        pending.fetch_add(1, Ordering::AcqRel);
        self.pool.submit(move || {
            let mut guard = ArmGuard::new(Arc::clone(&race), pending, ArmKind::Exact);
            let out = FrontierSet::prepare_cancellable(&prep, &expanded, &token).and_then(|fs| {
                let sol = solve_with_frontiers(&prep, &fs, lambda)?;
                Ok((sol, fs))
            });
            guard.reported = true;
            race.exact_done(out);
        });
    }

    fn launch_heuristic(
        &self,
        solver: Arc<dyn Solver + Send + Sync>,
        kind: ArmKind,
        prep: &Arc<Prepared<'static>>,
        lambda: Lambda,
        token: &CancelToken,
        race: &Arc<Race>,
    ) {
        let prep = Arc::clone(prep);
        let token = token.clone();
        let race = Arc::clone(race);
        let pending = Arc::clone(&self.pending);
        pending.fetch_add(1, Ordering::AcqRel);
        self.pool.submit(move || {
            let mut guard = ArmGuard::new(Arc::clone(&race), pending, kind);
            let mut scratch = SolveScratch::new();
            let out = solver.solve_cancellable(&prep, lambda, &mut scratch, &token);
            guard.reported = true;
            race.arm_done(kind, out);
        });
    }
}
