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
//! cache hit answered tight and instantly. The hit check and the insert
//! are the two halves of [`Engine::prepare`], equality checks and hit and
//! miss counts included, and a hit is answered by [`Engine::solve`].

use crate::cache::CachedInstance;
use crate::pool::WorkerPool;
use crate::{Engine, EngineError};
use hsa_assign::{
    solve_with_frontiers, structural_lower_bound, AssignError, CancelToken, FrontierSet,
    GapCertificate, Prepared, Solution, Solver,
};
use hsa_graph::{Lambda, ScaledSsb};
use hsa_heuristics::{BnbConfig, CutAnnealing, CutBranchBound, CutGenetic, GaConfig, SaConfig};
use hsa_tree::{CostModel, CruTree};
use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// What an arm reports: its answer, with the frontier set it built if it
/// is the exact arm, or the error it stopped on.
type ArmResult = Result<(Solution, Option<FrontierSet>), AssignError>;

/// Shared state of one race, guarded by a mutex; arms report here and the
/// caller waits on the condvar.
#[derive(Default)]
struct RaceState {
    /// Set by the caller once it has extracted an answer: late stragglers
    /// then only decrement `arms_left` and notify.
    finished: bool,
    /// Arms that have not yet reported (answer, error or panic).
    arms_left: usize,
    /// Feasible answers in arrival order, each with its arm and, from the
    /// exact arm, the reusable frontier set.
    answers: Vec<(ArmKind, Solution, Option<FrontierSet>)>,
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
    /// An arm reporting its result: an answer, or the error it stopped on
    /// (typically [`AssignError::Cancelled`] after losing). An answer that
    /// arrives before the race is decided gets the first-answer
    /// bookkeeping and tightens the certificate monotonically, to zero gap
    /// when it is the exact arm's; each later change counts as an upgrade.
    fn report(&self, kind: ArmKind, result: ArmResult) {
        let mut st = self.state.lock().expect("race state poisoned");
        st.arms_left = st.arms_left.saturating_sub(1);
        match result {
            _ if st.finished => {}
            Err(e) => st.last_err = Some(e),
            Ok((sol, frontiers)) => {
                if st.first.is_none() {
                    st.first = Some((kind, self.start.elapsed()));
                }
                let lower = if kind == ArmKind::Exact {
                    sol.objective
                } else {
                    self.lower
                };
                let next = match st.cert {
                    Some(c) => c.tightened(lower, sol.objective),
                    None => GapCertificate::new(lower, sol.objective, self.lambda),
                };
                if st.cert != Some(next) {
                    if st.cert.is_some() {
                        st.upgrades += 1;
                    }
                    st.cert = Some(next);
                    st.history.push(next);
                }
                st.answers.push((kind, sol, frontiers));
            }
        }
        drop(st);
        self.cv.notify_all();
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
        let (id, hit) = self.engine.check_hit(tree, costs)?;
        if hit {
            let solution = self.engine.solve(id, lambda)?;
            let cert = GapCertificate::tight(solution.objective, lambda);
            return Ok(AnytimeOutcome {
                answer: AnytimeAnswer {
                    solution,
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
                arms_left: ARMS,
                ..RaceState::default()
            }),
            cv: Condvar::new(),
            lower,
            lambda,
            start,
        });

        let (p, t) = (Arc::clone(&prep), token.clone());
        let expanded = self.engine.config().expanded;
        self.launch(&race, ArmKind::Exact, move || {
            let fs = FrontierSet::prepare_cancellable(&p, &expanded, &t)?;
            Ok((solve_with_frontiers(&p, &fs, lambda)?, Some(fs)))
        });
        let soft = token.until(deadline);
        let cfg = self.cfg;
        let heuristics: [(ArmKind, Box<dyn Solver + Send>); 3] = [
            (ArmKind::Genetic, Box::new(CutGenetic { config: cfg.ga })),
            (
                ArmKind::Annealing,
                Box::new(CutAnnealing { config: cfg.sa }),
            ),
            (
                ArmKind::BranchBound,
                Box::new(CutBranchBound { config: cfg.bnb }),
            ),
        ];
        for (kind, solver) in heuristics {
            let (p, t) = (Arc::clone(&prep), soft.clone());
            self.launch(&race, kind, move || {
                let sol = solver.solve_cancellable(&p, lambda, &t)?;
                Ok((sol, None))
            });
        }

        // Wait until the race is decided: exact finished, every arm
        // reported, or the budget expired with at least one answer in
        // hand. (Past the deadline with *no* answer yet we keep waiting in
        // short slices — the heuristic arms' soft deadline makes them
        // report their incumbents promptly.)
        let mut st = race.state.lock().expect("race state poisoned");
        loop {
            let exact_finished = st.answers.iter().any(|(k, ..)| *k == ArmKind::Exact);
            if exact_finished || st.arms_left == 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline && !st.answers.is_empty() {
                break;
            }
            let slice = if now < deadline {
                deadline - now
            } else {
                Duration::from_millis(10)
            };
            let (guard, _) = race
                .cv
                .wait_timeout(st, slice)
                .expect("race state poisoned");
            st = guard;
        }
        st.finished = true;
        // The exact answer whenever it arrived, otherwise the best
        // heuristic incumbent; objective ties broken by the fixed arm
        // ranking so the pick is order-independent.
        let best = st
            .answers
            .iter()
            .enumerate()
            .min_by_key(|(_, (kind, sol, _))| (*kind != ArmKind::Exact, sol.objective, kind.rank()))
            .map(|(i, _)| i);
        let picked = best.map(|i| st.answers.swap_remove(i));
        let (cert, history, first, upgrades) = (
            st.cert,
            std::mem::take(&mut st.history),
            st.first,
            st.upgrades,
        );
        let last_err = st.last_err.take();
        drop(st);
        // Decided (either way): stop every still-running arm.
        token.cancel();

        let Some((winner, solution, frontiers)) = picked else {
            return Err(last_err.unwrap_or(AssignError::Cancelled).into());
        };
        if let Some(frontiers) = frontiers {
            // The exact arm finished: donate its λ-independent frontier
            // set to the engine's cache so the next query over this
            // instance — anytime or batch — is a hit. Counted as a miss:
            // the preparation work was paid here.
            let built = CachedInstance {
                prepared: (*prep).clone(),
                frontiers,
            };
            self.engine.insert_or_adopt(id, tree, costs, built)?;
        }
        self.engine.record(Ok(&solution));

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
                exact_finished: winner == ArmKind::Exact,
            },
            first_arm,
            time_to_first_ns: first_at.as_nanos() as u64,
            upgrades,
            certificates: history,
        })
    }

    /// Submits one arm to the portfolio's workers: `run` computes the
    /// arm's result for [`Race::report`], and the pending-arm gauge counts
    /// the arm until it has reported.
    fn launch(
        &self,
        race: &Arc<Race>,
        kind: ArmKind,
        run: impl FnOnce() -> ArmResult + Send + 'static,
    ) {
        let race = Arc::clone(race);
        let pending = Arc::clone(&self.pending);
        pending.fetch_add(1, Ordering::AcqRel);
        self.pool.submit(move || {
            // A panicking arm reports a loss, so the race never waits on it.
            let out = catch_unwind(AssertUnwindSafe(run)).unwrap_or(Err(AssignError::Cancelled));
            race.report(kind, out);
            pending.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    #[test]
    fn a_panicking_arm_reports_a_loss_and_drains() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let portfolio = Portfolio::new(engine, PortfolioConfig::default());
        let race = Arc::new(Race {
            state: Mutex::new(RaceState {
                arms_left: 1,
                ..RaceState::default()
            }),
            cv: Condvar::new(),
            lower: 0,
            lambda: Lambda::HALF,
            start: Instant::now(),
        });
        portfolio.launch(&race, ArmKind::Genetic, || panic!("arm failure"));
        let (st, _) = race
            .cv
            .wait_timeout_while(race.state.lock().unwrap(), Duration::from_secs(20), |st| {
                st.arms_left > 0
            })
            .unwrap();
        assert_eq!(st.arms_left, 0, "the panicked arm never reported");
        assert!(st.answers.is_empty());
        assert!(matches!(st.last_err, Some(AssignError::Cancelled)));
        drop(st);
        // The gauge drops right after the report.
        while portfolio.pending_arms() != 0 {
            std::thread::yield_now();
        }
    }
}
