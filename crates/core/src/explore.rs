//! Stateless model checking: run a program under **every** scheduler
//! interleaving (up to a budget) and verify each execution.
//!
//! The simulator's only nondeterminism under a jitter-free latency model
//! is the kernel's tie-breaking among same-time actions (plus, under a
//! [`FaultBudget`](mc_sim::FaultBudget), the per-message fault
//! decisions). Exploration replaces the random tie-breaker with a
//! replayable decision trace and enumerates the decision tree
//! depth-first — the systematic-concurrency-testing approach — so
//! litmus-sized programs can be *proved* (within the budget) to satisfy
//! their consistency definition on every schedule, not just on sampled
//! seeds.
//!
//! Two entry points:
//!
//! * [`explore`] — the plain depth-first enumeration (every schedule,
//!   no reduction);
//! * [`explore_with`] — the full stateless model checker:
//!   **dynamic partial-order reduction** (sleep sets + race-driven
//!   backtrack sets over the per-step conflict footprints recorded by
//!   `mc-sim`), fault-branch enumeration, parallel subtree workers,
//!   run/deadline budgets, and outcome deduplication by history hash.
//!
//! The dependency relation driving the reduction is the *conflict
//! footprint* ([`Touch`]): each kernel step records which node
//! **state** it read or wrote and which node **queues** it enqueued
//! into or drained — a syscall touches its own node's state plus the
//! queues of its send destinations; a delivery touches the
//! destination's queue and state. Two steps with disjoint footprints
//! commute. See DESIGN.md for the soundness argument.
//!
//! # Examples
//!
//! ```
//! use mixed_consistency::{check, explore, Loc, ProcModel, System};
//!
//! let outcome = explore::explore(
//!     500,
//!     || {
//!         let mut sys = System::new(2, ProcModel::MIXED)
//!             .record(true)
//!             .sim_config(explore::racing_config());
//!         sys.spawn(|ctx| {
//!             ctx.write(Loc(0), 1);
//!             let _ = ctx.read_pram(Loc(1));
//!         });
//!         sys.spawn(|ctx| {
//!             ctx.write(Loc(1), 1);
//!             let _ = ctx.read_causal(Loc(0));
//!         });
//!         sys
//!     },
//!     |o| {
//!         let h = o.history.as_ref().expect("recording enabled");
//!         check::check_mixed(h).map(|_| ()).map_err(|e| e.to_string())
//!     },
//! )?;
//! assert!(outcome.complete, "every schedule was verified");
//! assert!(outcome.runs > 1);
//! # Ok::<(), mixed_consistency::explore::ExploreError>(())
//! ```

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mc_sim::schedule::ReplaySchedule;
use mc_sim::{ActionId, DecisionTrace, SimError, SimTime, StepKind, Touch};

use crate::system::{Outcome, RunError, System};

/// Summary of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Number of executions performed (including redundant ones detected
    /// by the sleep sets).
    pub runs: usize,
    /// `true` if the decision tree was exhausted (every schedule seen).
    pub complete: bool,
    /// Decision points in the longest execution.
    pub max_depth: usize,
    /// Runs that sleep-set reduction proved redundant (their subtrees
    /// were cut; each cost exactly one execution).
    pub pruned: usize,
    /// Distinct recorded histories across all runs ([`explore_with`]
    /// only; the plain [`explore`] does not track it).
    pub unique_outcomes: usize,
}

/// Why an exploration stopped with an error.
#[derive(Debug)]
pub enum ExploreError {
    /// A run failed to execute (deadlock, panic, malformed history).
    Run {
        /// Which run (0-based).
        run: usize,
        /// The schedule that triggered it.
        trace: DecisionTrace,
        /// The underlying failure.
        source: RunError,
    },
    /// The verifier rejected an execution.
    Verify {
        /// Which run (0-based).
        run: usize,
        /// The schedule that triggered it.
        trace: DecisionTrace,
        /// The verifier's message.
        message: String,
    },
}

impl ExploreError {
    /// The decision trace that reproduces the failure.
    pub fn trace(&self) -> &DecisionTrace {
        match self {
            ExploreError::Run { trace, .. } | ExploreError::Verify { trace, .. } => trace,
        }
    }
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Run { run, source, trace } => {
                write!(f, "run {run} failed ({} decisions): {source}", trace.choices.len())
            }
            ExploreError::Verify { run, message, trace } => {
                write!(f, "run {run} rejected ({} decisions): {message}", trace.choices.len())
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Explores every schedule of the program built by `make`, calling
/// `verify` on each execution's [`Outcome`]; stops early after
/// `max_runs` executions.
///
/// This is the plain depth-first enumeration with no reduction — every
/// schedule of the decision tree is executed. Prefer [`explore_with`]
/// for anything beyond litmus-sized programs.
///
/// `make` must build the *same* program every time (same processes, same
/// operations); exploration latency jitter is forced to zero so decision
/// traces are the only nondeterminism.
///
/// # Errors
///
/// Returns the first failing run or rejected verification, with the
/// decision trace that reproduces it.
pub fn explore<M, V>(
    max_runs: usize,
    mut make: M,
    mut verify: V,
) -> Result<ExploreOutcome, ExploreError>
where
    M: FnMut() -> System,
    V: FnMut(&Outcome) -> Result<(), String>,
{
    let mut prefix: Vec<u32> = Vec::new();
    let mut runs = 0usize;
    let mut max_depth = 0usize;
    loop {
        let mut sys = make();
        // Jitter would desynchronize decision trees between runs.
        sys.zero_jitter_for_exploration();
        let (schedule, trace) = ReplaySchedule::new(prefix.clone());
        sys.set_schedule(Box::new(schedule));
        let result = sys.run();
        let trace: DecisionTrace = trace.lock().expect("trace lock").clone();
        max_depth = max_depth.max(trace.choices.len());
        let outcome = match result {
            Ok(o) => o,
            Err(source) => return Err(ExploreError::Run { run: runs, trace, source }),
        };
        if let Err(message) = verify(&outcome) {
            return Err(ExploreError::Verify { run: runs, trace, message });
        }
        runs += 1;

        match trace.last_branch_point() {
            None => {
                return Ok(ExploreOutcome {
                    runs,
                    complete: true,
                    max_depth,
                    pruned: 0,
                    unique_outcomes: 0,
                })
            }
            Some(i) => {
                prefix = trace.choices[..i].to_vec();
                prefix.push(trace.choices[i] + 1);
            }
        }
        if runs >= max_runs {
            return Ok(ExploreOutcome {
                runs,
                complete: false,
                max_depth,
                pruned: 0,
                unique_outcomes: 0,
            });
        }
    }
}

impl System {
    /// Forces a jitter-free latency model (exploration helper).
    pub(crate) fn zero_jitter_for_exploration(&mut self) {
        self.exec.cfg.latency.jitter = SimTime::ZERO;
    }
}

/// A simulator configuration that maximizes schedule coverage: zero
/// latency and zero per-operation cost, so deliveries and process steps
/// *tie* in virtual time and every interleaving is reachable through
/// tie-breaking. Use with [`explore`] via
/// [`System::sim_config`](crate::System::sim_config). A write never
/// overtakes one it causally follows here, so these runs cannot tell
/// FIFO broadcast from causal delivery: test a causal gate with jitter.
pub fn racing_config() -> mc_sim::SimConfig {
    mc_sim::SimConfig {
        seed: 0,
        latency: mc_sim::LatencyModel::INSTANT,
        local_cost: SimTime::ZERO,
        faults: mc_sim::FaultPlan::default(),
        explore_faults: None,
        max_events: 10_000_000,
    }
}

/// Configuration of [`explore_with`].
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Stop (incomplete) after this many executions.
    pub max_runs: usize,
    /// Stop (incomplete) after this much wall-clock time.
    pub deadline: Option<Duration>,
    /// Apply dynamic partial-order reduction (sleep sets + race-driven
    /// backtrack sets). With `false`, the full decision tree is
    /// enumerated — useful as the ground truth the reduction is checked
    /// against.
    pub dpor: bool,
    /// Worker threads. With more than one, the candidates of the first
    /// branching decision are partitioned among workers, each exploring
    /// its subtree independently (sound: each worker starts with an
    /// empty sleep set, so cross-worker redundancy is possible but
    /// bounded to that one split point).
    pub workers: usize,
    /// Treat deadlocked runs as explored non-failures instead of
    /// errors. Useful under crash exploration, where a crash trivially
    /// starves any process awaiting the crashed node.
    pub allow_deadlock: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_runs: 100_000,
            deadline: None,
            dpor: true,
            workers: 1,
            allow_deadlock: false,
        }
    }
}

impl ExploreOptions {
    /// The default options: DPOR on, one worker, 100k-run budget.
    pub fn new() -> Self {
        ExploreOptions::default()
    }

    /// Sets the execution budget.
    pub fn max_runs(mut self, n: usize) -> Self {
        self.max_runs = n;
        self
    }

    /// Sets a wall-clock deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Enables or disables partial-order reduction.
    pub fn dpor(mut self, on: bool) -> Self {
        self.dpor = on;
        self
    }

    /// Sets the number of worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Tolerates deadlocked runs (see [`ExploreOptions::allow_deadlock`]).
    pub fn allow_deadlock(mut self, on: bool) -> Self {
        self.allow_deadlock = on;
        self
    }
}

/// Explores the schedules (and, under a fault budget, the fault
/// placements) of the program built by `make`, verifying each
/// execution — with dynamic partial-order reduction, outcome
/// deduplication, and optional parallelism per `options`.
///
/// `make` must build the *same* program every time. `verify` is called
/// once per *distinct* recorded history (identical histories are
/// deduplicated by hash), so side-effecting verifiers observe the set
/// of distinct outcomes.
///
/// # Errors
///
/// Returns the first failing run or rejected verification, with the
/// decision trace that reproduces it.
pub fn explore_with<M, V>(
    options: ExploreOptions,
    make: M,
    verify: V,
) -> Result<ExploreOutcome, ExploreError>
where
    M: Fn() -> System + Send + Sync,
    V: Fn(&Outcome) -> Result<(), String> + Send + Sync,
{
    let shared = Shared {
        make: &make,
        verify: &verify,
        options: options.clone(),
        runs: AtomicUsize::new(0),
        pruned: AtomicUsize::new(0),
        max_depth: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
        seen: Mutex::new(HashSet::new()),
        started: Instant::now(),
    };

    let mut complete = if options.workers <= 1 {
        explore_subtree(&shared, Vec::new())
    } else {
        parallel_explore(&shared)
    };

    if let Some(e) = shared.error.into_inner().expect("error lock") {
        return Err(e);
    }
    let runs = shared.runs.into_inner();
    if runs >= options.max_runs {
        complete = false;
    }
    Ok(ExploreOutcome {
        runs,
        complete,
        max_depth: shared.max_depth.into_inner(),
        pruned: shared.pruned.into_inner(),
        unique_outcomes: shared.seen.into_inner().expect("seen lock").len(),
    })
}

struct Shared<'a> {
    make: &'a (dyn Fn() -> System + Send + Sync),
    verify: &'a (dyn Fn(&Outcome) -> Result<(), String> + Send + Sync),
    options: ExploreOptions,
    runs: AtomicUsize,
    pruned: AtomicUsize,
    max_depth: AtomicUsize,
    stop: AtomicBool,
    error: Mutex<Option<ExploreError>>,
    seen: Mutex<HashSet<u64>>,
    started: Instant,
}

impl Shared<'_> {
    fn out_of_budget(&self) -> bool {
        if self.runs.load(Ordering::Relaxed) >= self.options.max_runs {
            return true;
        }
        if let Some(d) = self.options.deadline {
            if self.started.elapsed() >= d {
                return true;
            }
        }
        false
    }

    fn fail(&self, e: ExploreError) {
        let mut slot = self.error.lock().expect("error lock");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Splits the first branching decision's candidates among worker
/// threads, each exploring its pinned subtree with the sequential
/// engine.
fn parallel_explore(shared: &Shared<'_>) -> bool {
    // One probing run discovers the first branch point.
    let Some(trace) = single_run(shared, Vec::new()) else {
        return false; // the probe itself failed
    };
    let Some(split) = (0..trace.arities.len()).find(|&i| trace.arities[i] > 1) else {
        return true; // no branching at all: the single run was everything
    };
    let jobs: Vec<Vec<u32>> = (0..trace.arities[split])
        .map(|c| {
            let mut p = trace.choices[..split].to_vec();
            p.push(c);
            p
        })
        .collect();
    let queue = Mutex::new(jobs);
    let nworkers = shared.options.workers;
    let complete = AtomicBool::new(true);
    std::thread::scope(|scope| {
        for _ in 0..nworkers {
            scope.spawn(|| loop {
                let job = queue.lock().expect("queue lock").pop();
                let Some(pinned) = job else { return };
                if !explore_subtree(shared, pinned) {
                    complete.store(false, Ordering::Relaxed);
                }
            });
        }
    });
    complete.into_inner()
}

/// Executes exactly one run with the given decision prefix, handling
/// verification/dedup/error bookkeeping. Returns its trace, or `None`
/// if the run produced a terminal error.
fn single_run(shared: &Shared<'_>, prefix: Vec<u32>) -> Option<DecisionTrace> {
    let run_idx = shared.runs.fetch_add(1, Ordering::Relaxed);
    let mut sys = (shared.make)();
    sys.zero_jitter_for_exploration();
    let (schedule, trace) = ReplaySchedule::new(prefix);
    sys.set_schedule(Box::new(schedule));
    let result = sys.run();
    let trace: DecisionTrace = trace.lock().expect("trace lock").clone();
    shared.max_depth.fetch_max(trace.choices.len(), Ordering::Relaxed);
    match result {
        Ok(outcome) => {
            let fresh = match outcome.history.as_ref() {
                Some(h) => shared.seen.lock().expect("seen lock").insert(h.signature()),
                None => true,
            };
            if fresh {
                if let Err(message) = (shared.verify)(&outcome) {
                    shared.fail(ExploreError::Verify { run: run_idx, trace, message });
                    return None;
                }
            }
            Some(trace)
        }
        Err(RunError::Sim(SimError::Deadlock { blocked, at })) if shared.options.allow_deadlock => {
            let _ = (blocked, at); // tolerated: an explored dead end
            Some(trace)
        }
        Err(source) => {
            shared.fail(ExploreError::Run { run: run_idx, trace, source });
            None
        }
    }
}

/// One decision point of the DFS stack.
enum Frame {
    /// A scheduling decision (DPOR applies).
    Sched {
        candidates: Vec<ActionId>,
        /// Candidates scheduled for exploration (grows via race analysis).
        backtrack: Vec<bool>,
        /// Candidates whose subtrees are fully explored (or slept away).
        done: Vec<bool>,
        /// Observed execution footprint per candidate (empty = never
        /// executed from this state).
        fp: Vec<Vec<Touch>>,
        /// Sleep set at frame entry: actions fully explored in ancestor
        /// siblings, with the footprints observed at their execution.
        entry_sleep: Vec<(ActionId, Vec<Touch>)>,
        chosen: usize,
    },
    /// A fault decision (always fully enumerated).
    Fault { arity: usize, done: Vec<bool>, chosen: usize },
}

impl Frame {
    fn chosen(&self) -> usize {
        match self {
            Frame::Sched { chosen, .. } | Frame::Fault { chosen, .. } => *chosen,
        }
    }

    fn mark_chosen_done(&mut self) {
        match self {
            Frame::Sched { done, chosen, .. } | Frame::Fault { done, chosen, .. } => {
                done[*chosen] = true;
            }
        }
    }

    /// Picks the next candidate to explore, honoring backtrack, done,
    /// and sleep sets. Slept candidates are marked done without a run —
    /// that is the sleep-set pruning.
    fn next_choice(&mut self) -> Option<usize> {
        match self {
            Frame::Fault { arity, done, .. } => (0..*arity).find(|&c| !done[c]),
            Frame::Sched { candidates, backtrack, done, entry_sleep, .. } => {
                for c in 0..candidates.len() {
                    if !backtrack[c] || done[c] {
                        continue;
                    }
                    if entry_sleep.iter().any(|(a, _)| *a == candidates[c]) {
                        done[c] = true;
                        continue;
                    }
                    return Some(c);
                }
                None
            }
        }
    }

    fn set_chosen(&mut self, c: usize) {
        match self {
            Frame::Sched { chosen, .. } | Frame::Fault { chosen, .. } => *chosen = c,
        }
    }
}

fn disjoint(a: &[Touch], b: &[Touch]) -> bool {
    a.iter().all(|x| !b.contains(x))
}

/// Depth-first exploration of the subtree under the pinned decision
/// prefix. Returns `true` if the subtree was exhausted.
fn explore_subtree(shared: &Shared<'_>, pinned: Vec<u32>) -> bool {
    let base = pinned.len();
    let opts = &shared.options;
    let mut frames: Vec<Frame> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return false;
        }
        if shared.out_of_budget() {
            return false;
        }
        let mut prefix = pinned.clone();
        prefix.extend(frames.iter().map(|f| f.chosen() as u32));

        let run_idx = shared.runs.fetch_add(1, Ordering::Relaxed);
        let mut sys = (shared.make)();
        sys.zero_jitter_for_exploration();
        let (schedule, trace) = if opts.dpor {
            // Hand the schedule a sleep plan so the blind tail steers
            // *around* already-covered actions instead of running an
            // equivalent schedule and discarding it afterwards: at each
            // replayed position, the done siblings (with their observed
            // footprints) are fully explored from that state and enter
            // the online sleep set when the position's step executes.
            let mut plan: Vec<Vec<(ActionId, Vec<Touch>)>> = vec![Vec::new(); base];
            for f in &frames {
                plan.push(match f {
                    Frame::Sched { candidates, done, fp, chosen, .. } => (0..candidates.len())
                        .filter(|&c| c != *chosen && done[c] && !fp[c].is_empty())
                        .map(|c| (candidates[c], fp[c].clone()))
                        .collect(),
                    Frame::Fault { .. } => Vec::new(),
                });
            }
            ReplaySchedule::with_sleep(prefix, plan)
        } else {
            ReplaySchedule::new(prefix)
        };
        sys.set_schedule(Box::new(schedule));
        let result = sys.run();
        let trace: DecisionTrace = trace.lock().expect("trace lock").clone();
        shared.max_depth.fetch_max(trace.choices.len(), Ordering::Relaxed);

        // Classify the run.
        let outcome = match result {
            Ok(o) => Some(o),
            Err(RunError::Sim(SimError::Deadlock { .. })) if opts.allow_deadlock => None,
            Err(source) => {
                shared.fail(ExploreError::Run { run: run_idx, trace, source });
                return false;
            }
        };

        // Maintain the frame stack along this run's path, computing the
        // sleep set on the way down. A fresh frame whose blind pick is
        // asleep proves the whole run redundant: an equivalent schedule
        // was already explored, so the subtree is cut here.
        let mut sleep: Vec<(ActionId, Vec<Touch>)> = Vec::new();
        let mut redundant = false;
        for pos in base..trace.choices.len() {
            let fi = pos - base;
            let chosen = trace.choices[pos] as usize;
            match &trace.steps[pos].kind {
                StepKind::Fault { .. } => {
                    if fi >= frames.len() {
                        let arity = trace.arities[pos] as usize;
                        frames.push(Frame::Fault { arity, done: vec![false; arity], chosen });
                    }
                    // Fault decisions execute inside the enclosing
                    // scheduling step; their effect is already part of
                    // that step's footprint. The sleep set passes through.
                }
                StepKind::Sched { candidates } => {
                    let footprint = &trace.steps[pos].footprint;
                    if fi < frames.len() {
                        let Frame::Sched { fp, done, entry_sleep, candidates: cands, .. } =
                            &mut frames[fi]
                        else {
                            unreachable!("frame kind mismatch on replayed prefix")
                        };
                        fp[chosen] = footprint.clone();
                        if opts.dpor {
                            // Refresh the frame's entry sleep: siblings
                            // of *ancestor* frames finished since this
                            // frame was created, so the sleep arriving
                            // here (recomputed each run from current
                            // done-info) only grows — and `next_choice`
                            // should skip with the freshest knowledge.
                            *entry_sleep = sleep.clone();
                            // Sleep for the subtree below: inherited
                            // entries plus done siblings, minus anything
                            // dependent with this step.
                            let mut next: Vec<(ActionId, Vec<Touch>)> = Vec::new();
                            for (a, f) in entry_sleep.iter() {
                                if disjoint(f, footprint) {
                                    next.push((*a, f.clone()));
                                }
                            }
                            for c in 0..cands.len() {
                                if c != chosen
                                    && done[c]
                                    && !fp[c].is_empty()
                                    && disjoint(&fp[c], footprint)
                                {
                                    next.push((cands[c], fp[c].clone()));
                                }
                            }
                            sleep = next;
                        }
                    } else {
                        let n = candidates.len();
                        let mut backtrack = vec![!opts.dpor; n];
                        backtrack[chosen] = true;
                        // Crash and crash-recover timing is enumerated
                        // exhaustively: these steps are not
                        // schedule-equivalent to anything.
                        for (i, a) in candidates.iter().enumerate() {
                            if matches!(a, ActionId::Crash { .. } | ActionId::CrashRecover { .. }) {
                                backtrack[i] = true;
                            }
                        }
                        let mut fp = vec![Vec::new(); n];
                        fp[chosen] = footprint.clone();
                        let mut done = vec![false; n];
                        let asleep =
                            opts.dpor && sleep.iter().any(|(a, _)| *a == candidates[chosen]);
                        if asleep {
                            // Only this *action* is redundant, not the
                            // state: redirect the search to the first
                            // non-sleeping candidate (if every candidate
                            // sleeps, the state is fully covered by
                            // earlier equivalent explorations).
                            done[chosen] = true;
                            if let Some(alt) = (0..n).find(|&c| {
                                c != chosen && !sleep.iter().any(|(a, _)| *a == candidates[c])
                            }) {
                                backtrack[alt] = true;
                            }
                        }
                        frames.push(Frame::Sched {
                            candidates: candidates.clone(),
                            backtrack,
                            done,
                            fp,
                            entry_sleep: sleep.clone(),
                            chosen,
                        });
                        if asleep {
                            redundant = true;
                            break;
                        }
                        if opts.dpor {
                            sleep.retain(|(_, f)| disjoint(f, footprint));
                        }
                    }
                }
            }
        }

        if redundant {
            shared.pruned.fetch_add(1, Ordering::Relaxed);
        } else {
            // Verify (dedup-ed by history hash).
            if let Some(outcome) = outcome {
                let fresh = match outcome.history.as_ref() {
                    Some(h) => shared.seen.lock().expect("seen lock").insert(h.signature()),
                    None => true,
                };
                if fresh {
                    if let Err(message) = (shared.verify)(&outcome) {
                        shared.fail(ExploreError::Verify { run: run_idx, trace, message });
                        return false;
                    }
                }
            }
        }
        // Analyze the run's races to grow the backtrack sets. The steps
        // of a redundant run executed for real too — its races are
        // genuine, only the *outcome* is a duplicate — so skipping its
        // analysis would silently starve ancestor backtrack sets.
        if opts.dpor {
            analyze_races(&trace, base, &mut frames);
        }

        // Advance the DFS: deepest frame with an unexplored candidate.
        loop {
            let Some(frame) = frames.last_mut() else {
                return true; // tree exhausted
            };
            frame.mark_chosen_done();
            if let Some(c) = frame.next_choice() {
                frame.set_chosen(c);
                break;
            }
            frames.pop();
        }
    }
}

/// Race analysis over one run: for every pair of dependent steps not
/// already ordered through an intermediate step, schedule the later
/// step's action for exploration *before* the earlier step — the
/// race-driven backtrack-set growth of dynamic partial-order reduction.
fn analyze_races(trace: &DecisionTrace, base: usize, frames: &mut [Frame]) {
    // Scheduling positions of this run, in order.
    let positions: Vec<usize> = (base..trace.choices.len())
        .filter(|&p| matches!(trace.steps[p].kind, StepKind::Sched { .. }))
        .collect();
    let n = positions.len();
    let words = n.div_ceil(64);
    let action_of = |p: usize| -> ActionId {
        let StepKind::Sched { candidates } = &trace.steps[p].kind else { unreachable!() };
        candidates[trace.choices[p] as usize]
    };
    // hb[k] is the bitset of positions happening-before k (transitive
    // closure of footprint dependence along the run).
    let mut hb: Vec<Vec<u64>> = Vec::with_capacity(n);
    for k in 0..n {
        let fpk = &trace.steps[positions[k]].footprint;
        let preds: Vec<usize> =
            (0..k).filter(|&j| !disjoint(&trace.steps[positions[j]].footprint, fpk)).collect();
        let mut hbk = vec![0u64; words];
        for &j in &preds {
            for w in 0..words {
                hbk[w] |= hb[j][w];
            }
            hbk[j / 64] |= 1 << (j % 64);
        }
        for &j in &preds {
            // An immediate race: no intermediate dependent step orders
            // the pair already.
            let covered = preds.iter().any(|&m| m > j && (hb[m][j / 64] >> (j % 64)) & 1 == 1);
            if covered {
                continue;
            }
            let Some(Frame::Sched { candidates, backtrack, .. }) =
                frames.get_mut(positions[j] - base)
            else {
                // A redundant run's frame stack stops at the slept
                // frame; races beyond it have no frame to grow.
                continue;
            };
            let ak = action_of(positions[k]);
            if let Some(ci) = candidates.iter().position(|c| *c == ak) {
                backtrack[ci] = true;
            } else {
                // The racing action is not enabled at `j`. Its enabling
                // path can run through *any* candidate here (e.g. a
                // not-yet-queued delivery is reached by first executing
                // the sender's syscall, or by draining earlier heap-order
                // deliveries whose footprints are unrelated), so the only
                // sound move is to schedule them all — the classical
                // "add all enabled" fallback of DPOR.
                backtrack.iter_mut().for_each(|b| *b = true);
            }
        }
        hb.push(hbk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, sc, Loc, LockId, ProcId, ProcModel, Value};

    fn store_buffer_system() -> System {
        let mut sys = System::new(2, ProcModel::MIXED).record(true).sim_config(racing_config());
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 1);
            let _ = ctx.read_causal(Loc(1));
        });
        sys.spawn(|ctx| {
            ctx.write(Loc(1), 1);
            let _ = ctx.read_causal(Loc(0));
        });
        sys
    }

    /// The read values in canonical (per-process program) order. The
    /// history records operations in execution order, which differs
    /// between equivalent interleavings — DPOR explores one
    /// representative per equivalence class, so outcomes must be
    /// compared in an interleaving-insensitive order.
    fn read_pairs(o: &Outcome) -> Vec<Value> {
        let mut reads: Vec<(crate::ProcId, Value)> = o
            .history
            .as_ref()
            .unwrap()
            .iter()
            .filter_map(|(_, op)| match op.kind {
                crate::OpKind::Read { value, .. } => Some((op.proc, value)),
                _ => None,
            })
            .collect();
        reads.sort_by_key(|&(p, _)| p);
        reads.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn exploration_is_exhaustive_on_store_buffer() {
        // Dekker on mixed memory: every schedule must be mixed consistent,
        // and at least one schedule must produce the non-SC outcome
        // (both reads 0) while others produce SC outcomes.
        let mut saw_both_zero = false;
        let mut saw_other = false;
        let outcome = explore(5_000, store_buffer_system, |o| {
            let h = o.history.as_ref().unwrap();
            check::check_mixed(h).map_err(|e| e.to_string())?;
            if read_pairs(o) == [Value::Int(0), Value::Int(0)] {
                saw_both_zero = true;
            } else {
                saw_other = true;
            }
            Ok(())
        })
        .unwrap();
        assert!(outcome.complete, "tree exhausted in {} runs", outcome.runs);
        assert!(outcome.runs > 2, "multiple schedules explored: {}", outcome.runs);
        assert!(saw_both_zero, "the store-buffer outcome must be reachable");
        assert!(saw_other, "ordinary outcomes must be reachable too");
    }

    #[test]
    fn exploration_finds_every_lock_order() {
        // Two processes increment under a lock: every schedule must end
        // at 2 and be sequentially consistent.
        let outcome = explore(
            5_000,
            || {
                let mut sys =
                    System::new(2, ProcModel::CAUSAL).record(true).sim_config(racing_config());
                for _ in 0..2 {
                    sys.spawn(|ctx| {
                        ctx.with_write_lock(LockId(0), |ctx| {
                            let v = ctx.read_causal(Loc(0)).expect_i64();
                            ctx.write(Loc(0), v + 1);
                        });
                    });
                }
                sys
            },
            |o| {
                if o.final_value(ProcId(0), Loc(0)) != Value::Int(2) {
                    return Err("lost update".into());
                }
                let h = o.history.as_ref().unwrap();
                match sc::check_sequential(h).map_err(|e| e.to_string())? {
                    sc::ScVerdict::NotSequentiallyConsistent => {
                        Err("not SC despite locking + causal reads".into())
                    }
                    _ => Ok(()),
                }
            },
        )
        .unwrap();
        assert!(outcome.complete);
        assert!(outcome.runs >= 2);
    }

    #[test]
    fn budget_stops_exploration() {
        let outcome = explore(
            3,
            || {
                let mut sys = System::new(3, ProcModel::PRAM);
                for p in 0..3u32 {
                    sys.spawn(move |ctx| {
                        ctx.write(Loc(p), 1);
                        let _ = ctx.read_pram(Loc((p + 1) % 3));
                    });
                }
                sys
            },
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(outcome.runs, 3);
        assert!(!outcome.complete);
        assert!(outcome.max_depth > 0);
    }

    #[test]
    fn verifier_failures_carry_a_repro_trace() {
        let err = explore(
            100,
            || {
                let mut sys = System::new(1, ProcModel::PRAM);
                sys.spawn(|ctx| {
                    ctx.write(Loc(0), 7);
                });
                sys
            },
            |_| Err("always reject".into()),
        )
        .unwrap_err();
        assert!(!err.to_string().is_empty());
        match err {
            ExploreError::Verify { run: 0, message, .. } => {
                assert_eq!(message, "always reject");
            }
            other => panic!("{other}"),
        }
    }

    /// The distinct read-value outcomes of the store-buffer program
    /// under the given options.
    fn store_buffer_outcomes(options: ExploreOptions) -> (ExploreOutcome, Vec<Vec<Value>>) {
        let seen = Mutex::new(Vec::new());
        let out = explore_with(options, store_buffer_system, |o| {
            check::check_mixed(o.history.as_ref().unwrap()).map_err(|e| e.to_string())?;
            let mut g = seen.lock().unwrap();
            let pair = read_pairs(o);
            if !g.contains(&pair) {
                g.push(pair);
            }
            Ok(())
        })
        .unwrap();
        let mut v = seen.into_inner().unwrap();
        v.sort_by_key(|pair| format!("{pair:?}"));
        (out, v)
    }

    #[test]
    fn dpor_preserves_store_buffer_outcomes_with_fewer_runs() {
        let (naive, naive_set) = store_buffer_outcomes(ExploreOptions::new().dpor(false));
        let (dpor, dpor_set) = store_buffer_outcomes(ExploreOptions::new());
        assert!(naive.complete && dpor.complete);
        assert_eq!(naive_set, dpor_set, "reduction must not lose outcomes");
        assert!(
            dpor.runs < naive.runs,
            "DPOR ({} runs) must beat naive DFS ({} runs)",
            dpor.runs,
            naive.runs
        );
    }

    #[test]
    fn parallel_exploration_matches_sequential() {
        let (seq, seq_set) = store_buffer_outcomes(ExploreOptions::new());
        let (par, par_set) = store_buffer_outcomes(ExploreOptions::new().workers(4));
        assert!(seq.complete && par.complete);
        assert_eq!(seq_set, par_set);
        assert_eq!(seq.unique_outcomes, par.unique_outcomes);
    }

    #[test]
    fn deadline_cuts_exploration_short() {
        let out = explore_with(
            ExploreOptions::new().deadline(Duration::ZERO).dpor(false),
            store_buffer_system,
            |_| Ok(()),
        )
        .unwrap();
        assert!(!out.complete);
    }

    #[test]
    fn fault_budget_drops_are_enumerated_and_found() {
        // P0 writes x=1, x=2, then raises a flag; P1 awaits the flag and
        // PRAM-reads x. With one explored drop, some branch loses the
        // x=2 update: P1 then reads x=1 *after* having observed the
        // flag write that follows x=2 in P0's order — a Definition 3
        // violation the checker must catch. Branches that drop the flag
        // update instead deadlock P1, which is tolerated.
        let err = explore_with(
            ExploreOptions::new().allow_deadlock(true).max_runs(50_000),
            || {
                let mut sys = System::new(2, ProcModel::PRAM)
                    .record(true)
                    .sim_config(racing_config())
                    .explore_faults(mc_sim::FaultBudget::new().drops(1));
                sys.spawn(|ctx| {
                    ctx.write(Loc(0), 1);
                    ctx.write(Loc(0), 2);
                    ctx.write(Loc(1), 1);
                });
                sys.spawn(|ctx| {
                    ctx.await_eq(Loc(1), 1);
                    let _ = ctx.read_pram(Loc(0));
                });
                sys
            },
            |o| o.verify().map_err(|e| e.to_string()),
        )
        .unwrap_err();
        match err {
            ExploreError::Verify { trace, .. } => {
                assert!(
                    trace.steps.iter().any(|s| matches!(s.kind, StepKind::Fault { .. })),
                    "the repro trace records the fault decision"
                );
            }
            other => panic!("expected a verification failure, got {other}"),
        }
    }

    #[test]
    fn crash_exploration_enumerates_crash_timing() {
        // A single process writes twice; node 1 (the reader's replica)
        // may crash at any step. All runs either complete or deadlock
        // (tolerated); the exploration must branch over crash timings.
        let out = explore_with(
            ExploreOptions::new().allow_deadlock(true),
            || {
                let mut sys = System::new(2, ProcModel::PRAM)
                    .record(true)
                    .sim_config(racing_config())
                    .explore_faults(mc_sim::FaultBudget::new().crash_of(mc_sim::NodeId(1)));
                sys.spawn(|ctx| {
                    ctx.write(Loc(0), 1);
                    ctx.write(Loc(0), 2);
                });
                sys.spawn(|ctx| {
                    let _ = ctx.read_pram(Loc(0));
                });
                sys
            },
            |_| Ok(()),
        )
        .unwrap();
        assert!(out.complete);
        assert!(out.runs > 2, "crash timings must branch: {} runs", out.runs);
    }

    #[test]
    fn crash_recover_exploration_never_loses_acked_writes() {
        // The headline durability property: with a WAL (append-before-ack)
        // and crash-recovery enabled, *no acknowledged write is ever lost*,
        // no matter where the crash lands. Node 0 writes x=1, x=2, then a
        // flag; node 1 awaits the flag and causally reads x. The budget
        // lets node 0 crash-and-recover at every explored step — including
        // between the WAL append and the broadcast, between coalesced
        // batches, and after partial acks. Every branch that completes
        // must show the full write history intact on the reborn node and
        // x=2 at the reader (the flag causally follows x=2, so a lost
        // acked write would surface as a stale read or a checker failure).
        let out = explore_with(
            ExploreOptions::new().allow_deadlock(true).max_runs(50_000),
            || {
                let mut sys = System::new(2, ProcModel::CAUSAL)
                    .record(true)
                    .sim_config(racing_config())
                    .reliable(true)
                    .durability(Some(mc_proto::DurabilityPolicy::new(2)))
                    .explore_faults(mc_sim::FaultBudget::new().crash_recover_of(mc_sim::NodeId(0)));
                sys.spawn(|ctx| {
                    ctx.write(Loc(0), 1);
                    ctx.write(Loc(0), 2);
                    ctx.write(Loc(1), 1);
                });
                sys.spawn(|ctx| {
                    ctx.await_eq(Loc(1), 1);
                    let _ = ctx.read_causal(Loc(0));
                });
                sys
            },
            |o| {
                o.verify().map_err(|e| e.to_string())?;
                let writer = o.replica(ProcId(0));
                if writer.applied[ProcId(0)] != 3 {
                    return Err(format!(
                        "acked writes lost across recovery: writer replayed {} of 3",
                        writer.applied[ProcId(0)]
                    ));
                }
                if o.final_value(ProcId(1), Loc(0)) != Value::Int(2) {
                    return Err(format!(
                        "reader converged to {:?}, expected Int(2)",
                        o.final_value(ProcId(1), Loc(0))
                    ));
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(out.complete);
        assert!(out.runs > 2, "recovery timings must branch: {} runs", out.runs);
    }

    #[test]
    fn group_commit_crash_exploration_never_regresses_observed_reads() {
        // The group-commit bugfix litmus: under group commit an ingest
        // (or own write) is staged, not synced — the fsync happens at
        // the next externalization point. A local read that returns a
        // value IS such a point ([`ProcNode::observe_sync`]): once the
        // program has seen x=1, a crash of the reader must not
        // un-happen it, or the surviving program would watch its own
        // history regress. The budget crashes the reader at every
        // explored step — including between its first and second read,
        // the exact interleaving that lost the observed value before
        // the fix. Every completing branch must verify (causal + RYW)
        // and show both reads = 1.
        let out = explore_with(
            ExploreOptions::new().allow_deadlock(true).max_runs(50_000),
            || {
                let mut sys = System::new(2, ProcModel::CAUSAL)
                    .record(true)
                    .sim_config(racing_config())
                    .reliable(true)
                    .durability(Some(mc_proto::DurabilityPolicy::new(64).with_group_commit(true)))
                    .explore_faults(mc_sim::FaultBudget::new().crash_recover_of(mc_sim::NodeId(1)));
                sys.spawn(|ctx| {
                    ctx.write(Loc(0), 1);
                    ctx.write(Loc(1), 1);
                });
                sys.spawn(|ctx| {
                    ctx.await_eq(Loc(1), 1);
                    let first = ctx.read_causal(Loc(0));
                    let second = ctx.read_causal(Loc(0));
                    assert_eq!(first, Value::Int(1), "flag write causally carries x=1");
                    assert_eq!(second, Value::Int(1), "observed value regressed across crash");
                });
                sys
            },
            |o| o.verify().map_err(|e| e.to_string()),
        )
        .unwrap();
        assert!(out.complete);
        assert!(out.runs > 2, "crash timings must branch: {} runs", out.runs);
    }

    #[test]
    fn group_commit_crash_exploration_never_loses_externalized_writes() {
        // Writer-side group commit: the fsync rides the outgoing
        // broadcast ([`ProcNode::send`]'s externalization barrier), so by
        // the time any peer can see a write it is durable, and a crash
        // of the *writer* at any explored step must replay every acked
        // write — same shape as the per-write-sync headline test, but
        // with the sync deferred.
        let out = explore_with(
            ExploreOptions::new().allow_deadlock(true).max_runs(50_000),
            || {
                let mut sys = System::new(2, ProcModel::CAUSAL)
                    .record(true)
                    .sim_config(racing_config())
                    .reliable(true)
                    .durability(Some(mc_proto::DurabilityPolicy::new(64).with_group_commit(true)))
                    .explore_faults(mc_sim::FaultBudget::new().crash_recover_of(mc_sim::NodeId(0)));
                sys.spawn(|ctx| {
                    ctx.write(Loc(0), 1);
                    ctx.write(Loc(0), 2);
                    ctx.write(Loc(1), 1);
                });
                sys.spawn(|ctx| {
                    ctx.await_eq(Loc(1), 1);
                    let _ = ctx.read_causal(Loc(0));
                });
                sys
            },
            |o| {
                o.verify().map_err(|e| e.to_string())?;
                let writer = o.replica(ProcId(0));
                if writer.applied[ProcId(0)] != 3 {
                    return Err(format!(
                        "externalized writes lost across recovery: writer replayed {} of 3",
                        writer.applied[ProcId(0)]
                    ));
                }
                if o.final_value(ProcId(1), Loc(0)) != Value::Int(2) {
                    return Err(format!(
                        "reader converged to {:?}, expected Int(2)",
                        o.final_value(ProcId(1), Loc(0))
                    ));
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(out.complete);
        assert!(out.runs > 2, "recovery timings must branch: {} runs", out.runs);
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        // The point of deferring the sync: one fsync call covers every
        // record staged since the last externalization. On the same
        // program, per-write durability pays one call per own-write
        // record; group commit must pay strictly fewer calls while
        // making the same records durable (none lost, none staged at
        // exit — the conservation law is checked by the kernel).
        fn fsyncs(group_commit: bool) -> (u64, u64) {
            let mut sys = System::new(2, ProcModel::CAUSAL)
                .record(true)
                .durability(Some(
                    mc_proto::DurabilityPolicy::new(1024).with_group_commit(group_commit),
                ))
                .batching(Some(mc_proto::BatchPolicy::default()));
            sys.spawn(|ctx| {
                for i in 0..8 {
                    ctx.write(Loc(0), i);
                }
                ctx.write(Loc(1), 1);
            });
            sys.spawn(|ctx| {
                ctx.await_eq(Loc(1), 1);
            });
            let o = sys.run().unwrap();
            assert_eq!(o.metrics.wal.lost, 0);
            (o.metrics.wal.fsyncs, o.metrics.wal.appends)
        }
        let (per_write, appends) = fsyncs(false);
        let (grouped, grouped_appends) = fsyncs(true);
        assert_eq!(appends, grouped_appends, "same program, same log records");
        assert!(
            grouped < per_write,
            "group commit must amortize fsync calls: {grouped} grouped vs {per_write} per-write"
        );
    }

    #[test]
    fn batched_and_unbatched_crash_recovery_converge_identically() {
        // Satellite litmus: a crash can land between coalescing a batch
        // and flushing it. Whatever the batching policy, the *final*
        // convergence outcomes reachable across all explored crash
        // points must be identical — batching may reorder intermediate
        // visibility (batches apply atomically) but must never change
        // what the cluster settles on after recovery.
        use std::collections::BTreeSet;

        fn outcome_set(
            batch: Option<mc_proto::BatchPolicy>,
        ) -> (BTreeSet<(i64, i64, i64, i64)>, usize) {
            let set = Mutex::new(BTreeSet::new());
            let out = explore_with(
                ExploreOptions::new().allow_deadlock(true).max_runs(50_000),
                move || {
                    let mut sys = System::new(2, ProcModel::CAUSAL)
                        .record(true)
                        .sim_config(racing_config())
                        .reliable(true)
                        .batching(batch)
                        .durability(Some(mc_proto::DurabilityPolicy::new(2)))
                        .explore_faults(
                            mc_sim::FaultBudget::new().crash_recover_of(mc_sim::NodeId(1)),
                        );
                    sys.spawn(|ctx| {
                        ctx.write(Loc(0), 7);
                        ctx.write(Loc(1), 8);
                    });
                    sys.spawn(|ctx| {
                        ctx.await_eq(Loc(1), 8);
                    });
                    sys
                },
                |o| {
                    let val = |p: u32, l: u32| {
                        o.final_value(ProcId(p), Loc(l)).as_i64().expect("int values only")
                    };
                    set.lock().unwrap().insert((val(0, 0), val(0, 1), val(1, 0), val(1, 1)));
                    o.verify().map_err(|e| e.to_string())
                },
            )
            .unwrap();
            assert!(out.complete);
            (set.into_inner().unwrap(), out.runs)
        }

        let (unbatched, unbatched_runs) = outcome_set(None);
        let (batched, batched_runs) = outcome_set(Some(mc_proto::BatchPolicy::default()));
        println!("crash recovery: unbatched {unbatched_runs} runs, batched {batched_runs} runs");
        assert!(
            unbatched.contains(&(7, 8, 7, 8)),
            "full convergence must be reachable: {unbatched:?}"
        );
        assert_eq!(
            unbatched, batched,
            "batched recovery must settle on the same outcome set as unbatched"
        );
    }
}
