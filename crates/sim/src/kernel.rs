//! The simulation kernel: deterministic scheduling of process syscalls and
//! message deliveries.
//!
//! Processes are ordinary Rust closures, each on an OS thread of its own,
//! but **exactly one process thread runs at a time**, from its first
//! instruction on. The kernel has no thread of its own. Its state (`Core`)
//! sits behind one lock, and the running process — the one holding the
//! *baton* — drives it. A syscall stores its request in the core and asks
//! what runs next (`Core::next`): a queued resumption, else the next
//! unstarted process, else the outcome of one more scheduling step. If
//! that is the caller's own resumption, the syscall returns at once.
//! Otherwise the caller fills the next thread's one-slot mailbox, unparks
//! it, and parks until its own mailbox is filled: at most one hand-off
//! per syscall.
//!
//! The core interleaves syscalls and message deliveries by minimum virtual
//! time with seeded tie-breaking, so a run is a pure function of
//! `(program, SimConfig)` — re-running with a different seed explores a
//! different interleaving, which the property-based tests exploit.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle, Thread};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::Metrics;
use crate::net::{Delivery, NetCtx, Network, NodeId, SimConfig};
use crate::schedule::{ActionId, RandomSchedule, Schedule, Touch};
use crate::time::SimTime;
use crate::trace::{TraceEvent, Tracer};

/// Identifier of a simulated process (the syscall-issuing entity).
///
/// Distinct from [`NodeId`]: a process is *bound* to a node (its local
/// replica), and some nodes (managers) host no process at all.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcToken(pub u32);

impl ProcToken {
    /// Returns the dense index of this process.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The result of submitting a syscall to a protocol.
#[derive(Debug)]
pub enum Poll<R> {
    /// The request completed; the process resumes with this response.
    Ready(R),
    /// The request blocks; the kernel will call
    /// [`Protocol::poll_blocked`] after subsequent events.
    Pending,
}

/// A distributed protocol running over the simulated network.
///
/// One `Protocol` value owns the state of *all* nodes (replicas and
/// managers); the kernel tells it which node an event concerns. This keeps
/// the trait object-free and lets protocols share lookup tables. The
/// kernel runs on whichever process thread holds the baton, so the value
/// moves between threads: hence `Send`.
pub trait Protocol: Send + 'static {
    /// Network message payload.
    type Msg: Send + 'static;
    /// Syscall request issued by processes.
    type Req: Send + 'static;
    /// Syscall response returned to processes.
    type Resp: Send + 'static;

    /// Handles a syscall from `proc` (bound to `node`). Returning
    /// [`Poll::Pending`] parks the process; the protocol must remember
    /// enough state to answer a later [`Protocol::poll_blocked`].
    fn on_request(
        &mut self,
        proc: ProcToken,
        node: NodeId,
        req: Self::Req,
        net: &mut NetCtx<'_, Self::Msg>,
    ) -> Poll<Self::Resp>;

    /// Handles a message delivery at `to`.
    fn on_message(
        &mut self,
        to: NodeId,
        from: NodeId,
        msg: Self::Msg,
        net: &mut NetCtx<'_, Self::Msg>,
    );

    /// Runs where process `proc` (bound to `node`) submits a syscall,
    /// before the kernel services it with [`Protocol::on_request`]: the
    /// process running on after the step that resumed it, so whatever
    /// this touches joins that step's footprint. The default does
    /// nothing.
    fn on_submit(&mut self, proc: ProcToken, node: NodeId, net: &mut NetCtx<'_, Self::Msg>) {
        let _ = (proc, node, net);
    }

    /// Runs when process `proc`'s body returns, like
    /// [`Protocol::on_submit`] part of the step that resumed it last.
    /// The default does nothing.
    fn on_exit(&mut self, proc: ProcToken, node: NodeId, net: &mut NetCtx<'_, Self::Msg>) {
        let _ = (proc, node, net);
    }

    /// Re-examines a parked process after an event. Returning `Some`
    /// resumes it.
    fn poll_blocked(
        &mut self,
        proc: ProcToken,
        node: NodeId,
        net: &mut NetCtx<'_, Self::Msg>,
    ) -> Option<Self::Resp>;

    /// Handles the expiration of a timer armed with
    /// [`NetCtx::set_timer`] at `node` with `token`. The default does
    /// nothing — only protocols that arm timers need to override it.
    fn on_timer(&mut self, node: NodeId, token: u64, net: &mut NetCtx<'_, Self::Msg>) {
        let _ = (node, token, net);
    }

    /// Handles a crash-recover of `node`: its volatile state is gone and
    /// it must rebuild from durable storage (dropping anything staged but
    /// never fsynced), then re-earn whatever it lost from its peers. The
    /// kernel has already wiped the node's in-flight deliveries and
    /// timers. Protocols with durable storage override this and account
    /// for lost/replayed records via the [`NetCtx`] WAL recorders; the
    /// default does nothing (a crash-recover of a stateless node).
    fn on_crash_recover(&mut self, node: NodeId, net: &mut NetCtx<'_, Self::Msg>) {
        let _ = (node, net);
    }

    /// The number of WAL records currently appended but not yet fsynced
    /// across all replicas, sampled at the end of a run for the WAL
    /// conservation law. Protocols without durable storage report zero.
    fn durable_staged(&self) -> u64 {
        0
    }
}

/// What wakes a parked thread.
enum Wake<R> {
    /// Run the process closure from its first instruction.
    Start,
    /// Return from the pending syscall with this response.
    Resume(R),
    /// The run is over: unwind (or, for the caller of [`Kernel::run`],
    /// collect the result).
    Shutdown,
}

/// A parked thread's one-slot inbox.
struct Mailbox<R> {
    thread: OnceLock<Thread>,
    wake: Mutex<Option<Wake<R>>>,
}

impl<R> Mailbox<R> {
    fn new() -> Self {
        Mailbox { thread: OnceLock::new(), wake: Mutex::new(None) }
    }

    fn post(&self, wake: Wake<R>) {
        *self.wake.lock().expect("mailbox lock") = Some(wake);
        self.thread.get().expect("registered before the first hand-off").unpark();
    }

    fn wait(&self) -> Wake<R> {
        loop {
            if let Some(wake) = self.wake.lock().expect("mailbox lock").take() {
                return wake;
            }
            thread::park();
        }
    }
}

/// A process body, as handed to [`Kernel::spawn`].
type Body<P> = Box<dyn FnOnce(&mut ProcCtx<P>) + Send>;

/// How a run ended: its result, or (`Err`) the payload of a panic in
/// protocol code, which [`Kernel::run`] re-raises.
type Ending = std::thread::Result<Result<(), SimError>>;

/// What the process threads share: the kernel state behind one lock, and
/// the mailboxes through which the baton passes.
struct Baton<P: Protocol> {
    core: Mutex<Core<P>>,
    /// One per process, indexed by token; the last belongs to the caller
    /// of [`Kernel::run`], which waits there for the run to end.
    mailboxes: Vec<Mailbox<P::Resp>>,
}

impl<P: Protocol> Baton<P> {
    fn lock(&self) -> MutexGuard<'_, Core<P>> {
        // A protocol panic is caught before the guard drops, and nothing
        // else panics under it, so the lock is never poisoned.
        self.core.lock().expect("kernel lock")
    }

    /// Locks the core of a run that has not ended.
    ///
    /// # Panics
    ///
    /// Panics if it has: the caller is a process unwinding a shutdown.
    fn lock_live(&self) -> MutexGuard<'_, Core<P>> {
        let core = self.lock();
        if core.ended.is_some() {
            drop(core);
            panic!("kernel alive");
        }
        core
    }

    /// Runs the kernel on behalf of mailbox `me` until something is due
    /// to run, and passes the baton to it. Returns `me`'s own resumption
    /// when that is next; otherwise wakes the thread that is (every
    /// thread, if the run is over) and returns `None`.
    fn pass(&self, mut core: MutexGuard<'_, Core<P>>, me: usize) -> Option<P::Resp> {
        match catch_unwind(AssertUnwindSafe(|| core.next())) {
            Ok(Next::Run(to, Wake::Resume(resp))) if to == me => Some(resp),
            Ok(Next::Run(to, wake)) => {
                drop(core);
                self.mailboxes[to].post(wake);
                None
            }
            Ok(Next::Over(result)) => {
                self.end(core, Ok(result));
                None
            }
            Err(payload) => {
                self.end(core, Err(payload));
                None
            }
        }
    }

    /// Records how the run ended and wakes every thread with a shutdown.
    fn end(&self, mut core: MutexGuard<'_, Core<P>>, ending: Ending) {
        core.ended = Some(ending);
        drop(core);
        for mailbox in &self.mailboxes {
            mailbox.post(Wake::Shutdown);
        }
    }

    /// The life of process `me`'s thread: wait for its turn to start, run
    /// `body`, then pass the baton on — or end the run with its panic.
    fn process(self: Arc<Self>, me: usize, body: Body<P>) {
        match self.mailboxes[me].wait() {
            Wake::Start => {}
            Wake::Shutdown => return,
            Wake::Resume(_) => unreachable!("an unstarted process resumed"),
        }
        let token = ProcToken(me as u32);
        let mut ctx = ProcCtx { token, baton: self };
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
        let baton = ctx.baton;
        let mut core = baton.lock();
        if core.ended.is_some() {
            return; // unwound by the shutdown, or outlived it
        }
        match result {
            Ok(()) => {
                core.procs[me].state = ProcState::Done;
                core.hook = Some(me);
                baton.pass(core, me);
            }
            Err(payload) => {
                baton.end(core, Ok(Err(SimError::ProcPanicked { proc: token, payload })));
            }
        }
    }
}

/// The process-side handle for issuing syscalls.
///
/// Handed to each process closure by [`Kernel::spawn`].
pub struct ProcCtx<P: Protocol> {
    token: ProcToken,
    baton: Arc<Baton<P>>,
}

impl<P: Protocol> fmt::Debug for ProcCtx<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcCtx").field("token", &self.token).finish_non_exhaustive()
    }
}

impl<P: Protocol> ProcCtx<P> {
    /// This process's token.
    pub fn token(&self) -> ProcToken {
        self.token
    }

    /// Issues a syscall and blocks until the kernel responds.
    ///
    /// The calling thread runs the kernel itself; it parks only while
    /// other processes run first.
    ///
    /// # Panics
    ///
    /// Panics if the run has ended (a deadlock, panic or event limit
    /// elsewhere).
    pub fn request(&mut self, req: P::Req) -> P::Resp {
        let me = self.token.index();
        let mut core = self.baton.lock_live();
        core.submit(me, req);
        if let Some(resp) = self.baton.pass(core, me) {
            return resp;
        }
        match self.baton.mailboxes[me].wait() {
            Wake::Resume(resp) => resp,
            Wake::Shutdown => panic!("kernel alive"),
            Wake::Start => unreachable!("a running process restarted"),
        }
    }

    /// Charges `cost` of virtual compute time to this process.
    ///
    /// Use to model local computation between memory operations.
    ///
    /// # Panics
    ///
    /// Panics if the run has ended.
    pub fn advance(&mut self, cost: SimTime) {
        self.baton.lock_live().procs[self.token.index()].clock += cost;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProcState {
    /// Running process code, queued to resume, or not yet started.
    Running,
    Ready,
    Blocked,
    Done,
}

struct ProcSlot<P: Protocol> {
    node: NodeId,
    state: ProcState,
    clock: SimTime,
    ready_at: SimTime,
    pending: Option<P::Req>,
    blocked_since: SimTime,
}

/// Why a simulation run failed.
#[derive(Debug)]
pub enum SimError {
    /// All runnable work was exhausted while processes remained blocked.
    Deadlock {
        /// The blocked processes.
        blocked: Vec<ProcToken>,
        /// Virtual time of the deadlock.
        at: SimTime,
    },
    /// A process panicked; the payload is re-thrown by [`Kernel::run`]'s
    /// caller via [`std::panic::resume_unwind`] if desired.
    ProcPanicked {
        /// The process that panicked.
        proc: ProcToken,
        /// The panic payload.
        payload: Box<dyn Any + Send>,
    },
    /// The configured event budget was exhausted.
    EventLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked, at } => {
                write!(f, "deadlock at {at}: blocked processes {blocked:?}")
            }
            SimError::ProcPanicked { proc, .. } => write!(f, "process {proc} panicked"),
            SimError::EventLimit { limit } => {
                write!(f, "event limit of {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The result of a completed run.
#[derive(Debug)]
pub struct RunReport<P> {
    /// The final protocol state (for inspection and invariant checks).
    pub protocol: P,
    /// Execution metrics.
    pub metrics: Metrics,
    /// The structured event trace, when the run had tracing enabled (see
    /// [`Kernel::enable_tracing`]).
    pub trace: Option<Tracer>,
}

/// The simulation kernel. See the module docs for the scheduling model.
///
/// # Examples
///
/// ```
/// use mc_sim::{Kernel, NetCtx, NodeId, Poll, ProcToken, Protocol, SimConfig};
///
/// // A trivial "protocol": requests echo their payload locally.
/// struct Echo;
/// impl Protocol for Echo {
///     type Msg = ();
///     type Req = u32;
///     type Resp = u32;
///     fn on_request(&mut self, _: ProcToken, _: NodeId, req: u32,
///                   _: &mut NetCtx<'_, ()>) -> Poll<u32> {
///         Poll::Ready(req + 1)
///     }
///     fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut NetCtx<'_, ()>) {}
///     fn poll_blocked(&mut self, _: ProcToken, _: NodeId,
///                     _: &mut NetCtx<'_, ()>) -> Option<u32> { None }
/// }
///
/// let mut kernel = Kernel::new(Echo, 1, SimConfig::default());
/// kernel.spawn(NodeId(0), |ctx| {
///     assert_eq!(ctx.request(41), 42);
/// });
/// let report = kernel.run()?;
/// assert_eq!(report.metrics.events, 1);
/// # Ok::<(), mc_sim::SimError>(())
/// ```
pub struct Kernel<P: Protocol> {
    core: Core<P>,
    bodies: Vec<Body<P>>,
}

impl<P: Protocol> fmt::Debug for Kernel<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("nnodes", &self.core.network.nnodes)
            .field("nprocs", &self.core.procs.len())
            .field("now", &self.core.now)
            .finish()
    }
}

impl<P: Protocol> Kernel<P> {
    /// Creates a kernel over `nnodes` network nodes.
    pub fn new(protocol: P, nnodes: usize, config: SimConfig) -> Self {
        let mut plan_recovers: Vec<(SimTime, NodeId)> =
            config.faults.crash_recovers.iter().map(|&(n, t)| (t, n)).collect();
        plan_recovers.sort();
        let core = Core {
            protocol,
            rng: StdRng::seed_from_u64(config.seed),
            schedule: Box::new(RandomSchedule::new(config.seed ^ 0x5eed_0fda)),
            config,
            network: Network::new(nnodes),
            metrics: Metrics::new(),
            procs: Vec::new(),
            now: SimTime::ZERO,
            plan_recovers,
            next_plan_recover: 0,
            resumed: VecDeque::new(),
            started: 0,
            hook: None,
            footprint_open: false,
            candidates: Vec::new(),
            ids: Vec::new(),
            ended: None,
        };
        Kernel { core, bodies: Vec::new() }
    }

    /// Spawns a process bound to `node` and returns its token.
    ///
    /// The closure gets a thread of its own when [`Kernel::run`] starts,
    /// and is scheduled cooperatively: processes start one at a time in
    /// token order (each once the one before has issued its first syscall
    /// or finished), and a started process makes progress only when the
    /// kernel resumes one of its syscalls.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn spawn<F>(&mut self, node: NodeId, f: F) -> ProcToken
    where
        F: FnOnce(&mut ProcCtx<P>) + Send + 'static,
    {
        assert!(node.index() < self.core.network.nnodes, "unknown node {node}");
        let token = ProcToken(self.core.procs.len() as u32);
        self.core.procs.push(ProcSlot {
            node,
            state: ProcState::Running,
            clock: SimTime::ZERO,
            ready_at: SimTime::ZERO,
            pending: None,
            blocked_since: SimTime::ZERO,
        });
        self.bodies.push(Box::new(f));
        token
    }

    /// The kernel's metrics so far (useful between phased runs).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Enables structured tracing for this run.
    ///
    /// Every message, syscall, stall, timer, and injected fault is then
    /// recorded as a [`TraceEvent`] keyed by virtual time; the collected
    /// [`Tracer`] comes back in [`RunReport::trace`]. Off by default —
    /// when disabled the instrumentation sites cost one `Option` check
    /// each, so untraced runs pay nothing measurable.
    pub fn enable_tracing(&mut self) {
        self.core.network.tracer = Some(Tracer::new());
    }

    /// Replaces the tie-breaking schedule (see [`crate::schedule`]).
    ///
    /// With [`LatencyModel::INSTANT`](crate::LatencyModel::INSTANT) (or any
    /// jitter-free model) the schedule is the *only* source of
    /// nondeterminism, so enumerating decision traces enumerates the
    /// run's interleavings.
    pub fn set_schedule(&mut self, schedule: Box<dyn Schedule>) {
        self.core.schedule = schedule;
    }

    /// Runs the simulation to completion.
    ///
    /// Spawns one thread per process; all of them are joined before this
    /// returns.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if blocked processes can never resume;
    /// * [`SimError::ProcPanicked`] if a process panicked;
    /// * [`SimError::EventLimit`] if the event budget is exhausted.
    ///
    /// # Panics
    ///
    /// Re-raises a panic in protocol code, with its original payload.
    pub fn run(self) -> Result<RunReport<P>, SimError> {
        let Kernel { core, bodies } = self;
        let caller = bodies.len();
        let baton = Arc::new(Baton {
            core: Mutex::new(core),
            mailboxes: (0..=caller).map(|_| Mailbox::new()).collect(),
        });
        let threads: Vec<JoinHandle<()>> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| {
                let baton = baton.clone();
                thread::Builder::new()
                    .name(format!("sim-proc-{i}"))
                    .spawn(move || baton.process(i, body))
                    .expect("thread spawn")
            })
            .collect();
        let registered = threads.iter().map(|t| t.thread().clone()).chain([thread::current()]);
        for (mailbox, thread) in baton.mailboxes.iter().zip(registered) {
            mailbox.thread.set(thread).expect("registered once");
        }
        // Hand the baton to the first process and wait for the run's end;
        // every other thread has then unwound or finished.
        baton.pass(baton.lock(), caller);
        baton.mailboxes[caller].wait();
        for t in threads {
            t.join().expect("a process thread catches its panics");
        }
        let baton = Arc::into_inner(baton).expect("every process thread joined");
        baton.core.into_inner().expect("kernel lock").finish()
    }
}

/// One runnable action of a scheduling step; [`ActionId`] is its
/// identity as the schedule sees it.
#[derive(Clone, Copy)]
enum Cand {
    Deliver,
    Timer,
    Syscall(usize),
    Crash(NodeId),
    /// `plan` distinguishes a fault-plan scheduled recover (advances
    /// `next_plan_recover`) from an explored budget recover (spends the
    /// node's once-per-run allowance).
    CrashRecover {
        node: NodeId,
        plan: bool,
    },
}

/// What runs next, as [`Core::next`] decides.
enum Next<R> {
    /// Wake mailbox `.0` with `.1`.
    Run(usize, Wake<R>),
    /// Nothing runs again: the run is over with this result.
    Over(Result<(), SimError>),
}

/// The kernel's state and scheduling loop, run by whichever thread holds
/// the baton.
struct Core<P: Protocol> {
    protocol: P,
    config: SimConfig,
    network: Network<P::Msg>,
    rng: StdRng,
    schedule: Box<dyn Schedule>,
    metrics: Metrics,
    procs: Vec<ProcSlot<P>>,
    now: SimTime,
    /// Scheduled crash-recovers from the fault plan, sorted by time;
    /// `next_plan_recover` indexes the first not yet executed.
    plan_recovers: Vec<(SimTime, NodeId)>,
    next_plan_recover: usize,
    /// Processes resumed by the last step, in the order it resumed them;
    /// each runs to its next syscall before another step is taken.
    resumed: VecDeque<(usize, P::Resp)>,
    /// How many processes have been started (they start in token order).
    started: usize,
    /// The process that has just submitted a syscall or exited:
    /// [`Core::next`] first runs its [`Protocol::on_submit`] or
    /// [`Protocol::on_exit`].
    hook: Option<usize>,
    /// Whether the last step's footprint is still open: the processes it
    /// resumed run on, up to their next syscall or exit, before the next
    /// step closes it.
    footprint_open: bool,
    /// The current step's candidates and their identities, kept across
    /// steps so that stepping allocates nothing.
    candidates: Vec<Cand>,
    ids: Vec<ActionId>,
    /// Set once the run is over.
    ended: Option<Ending>,
}

impl<P: Protocol> Core<P> {
    fn net_ctx<'a>(
        now: SimTime,
        network: &'a mut Network<P::Msg>,
        rng: &'a mut StdRng,
        metrics: &'a mut Metrics,
        config: &'a SimConfig,
        sched: Option<&'a mut dyn Schedule>,
    ) -> NetCtx<'a, P::Msg> {
        NetCtx { now, net: network, rng, metrics, config, sched }
    }

    /// Records process `idx`'s syscall: it becomes a candidate once its
    /// local cost has elapsed.
    fn submit(&mut self, idx: usize, req: P::Req) {
        let slot = &mut self.procs[idx];
        slot.pending = Some(req);
        slot.ready_at = slot.clock + self.config.local_cost;
        slot.state = ProcState::Ready;
        self.metrics.record_proc_syscall(idx);
        self.hook = Some(idx);
    }

    /// Runs the hook of process `idx`, which has just submitted a
    /// syscall or exited, at the process's own clock.
    fn run_hook(&mut self, idx: usize) {
        let slot = &self.procs[idx];
        let (token, node, exit) = (ProcToken(idx as u32), slot.node, slot.state == ProcState::Done);
        let mut ctx = Self::net_ctx(
            self.now.max(slot.clock),
            &mut self.network,
            &mut self.rng,
            &mut self.metrics,
            &self.config,
            Some(&mut *self.schedule),
        );
        if exit {
            self.protocol.on_exit(token, node, &mut ctx);
        } else {
            self.protocol.on_submit(token, node, &mut ctx);
        }
    }

    /// Queues process `idx` to return `resp` from its syscall.
    ///
    /// Deferring the return to after the step cannot be observed: no
    /// protocol callback reads another process's next request, a resumed
    /// (`Running`) process is never polled, `now` is fixed within a step,
    /// and the queue keeps the order in which processes were resumed.
    fn resume(&mut self, idx: usize, resp: P::Resp) {
        let slot = &mut self.procs[idx];
        slot.state = ProcState::Running;
        slot.clock = self.now;
        self.resumed.push_back((idx, resp));
    }

    /// Decides what runs next: the oldest queued resumption, else the
    /// next unstarted process, else whatever one more step brings.
    fn next(&mut self) -> Next<P::Resp> {
        if let Some(idx) = self.hook.take() {
            self.run_hook(idx);
        }
        loop {
            if let Some((idx, resp)) = self.resumed.pop_front() {
                return Next::Run(idx, Wake::Resume(resp));
            }
            if self.started < self.procs.len() {
                self.started += 1;
                return Next::Run(self.started - 1, Wake::Start);
            }
            if let Some(result) = self.step() {
                return Next::Over(result);
            }
        }
    }

    /// Polls every blocked process (in token order) until a fixpoint.
    fn poll_blocked_procs(&mut self) {
        loop {
            let mut progressed = false;
            for idx in 0..self.procs.len() {
                if self.procs[idx].state != ProcState::Blocked {
                    continue;
                }
                let node = self.procs[idx].node;
                let mut ctx = Self::net_ctx(
                    self.now,
                    &mut self.network,
                    &mut self.rng,
                    &mut self.metrics,
                    &self.config,
                    Some(&mut *self.schedule),
                );
                if let Some(resp) =
                    self.protocol.poll_blocked(ProcToken(idx as u32), node, &mut ctx)
                {
                    let stall = self.now.saturating_sub(self.procs[idx].blocked_since);
                    self.metrics.record_stall(stall);
                    self.metrics.record_proc_stall(idx, stall);
                    if let Some(tr) = self.network.tracer.as_mut() {
                        tr.record(TraceEvent {
                            t: self.procs[idx].blocked_since,
                            dur: Some(stall),
                            cat: "stall",
                            name: "blocked".to_string(),
                            track: node.0,
                            args: vec![("proc", idx.to_string())],
                        });
                    }
                    // The resumed process reads node-local state: its
                    // node's state joins the current step's footprint.
                    self.network.touched.push(Touch::State(node));
                    self.resume(idx, resp);
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Completes a run that is over.
    fn finish(mut self) -> Result<RunReport<P>, SimError> {
        match self.ended.take().expect("the run is over") {
            Err(payload) => resume_unwind(payload),
            Ok(Err(e)) => Err(e),
            Ok(Ok(())) => {
                self.metrics.finish_time = self.now;
                // On normal completion nothing is left in flight (queued
                // deliveries and armed timers are always runnable events),
                // so the conservation laws must balance exactly.
                self.metrics.timers_pending = self.network.timers.len() as u64;
                self.metrics.wal_staged = self.protocol.durable_staged();
                let queued = self.network.queue.len() as u64;
                if let Err(e) = self.metrics.check_conservation(queued) {
                    panic!("metrics accounting bug: {e}");
                }
                Ok(RunReport {
                    protocol: self.protocol,
                    metrics: self.metrics,
                    trace: self.network.tracer.take(),
                })
            }
        }
    }

    /// Takes one scheduling step: chooses a candidate, executes it and
    /// polls the blocked processes. Returns the run's result instead when
    /// nothing is left to step.
    fn step(&mut self) -> Option<Result<(), SimError>> {
        if std::mem::take(&mut self.footprint_open) {
            self.schedule.record_footprint(&self.network.touched);
        }
        if self.metrics.events >= self.config.max_events {
            return Some(Err(SimError::EventLimit { limit: self.config.max_events }));
        }
        // Candidates: the earliest delivery, the earliest timer, and
        // every ready syscall.
        let delivery_at = self.network.queue.peek().map(|Reverse(d)| d.at);
        let timer_at = self.network.timers.peek().map(|Reverse(t)| t.at);
        let plan_recover_at = self.plan_recovers.get(self.next_plan_recover).map(|&(t, _)| t);
        let ready_at =
            self.procs.iter().filter(|p| p.state == ProcState::Ready).map(|p| p.ready_at).min();

        let min_time =
            [ready_at, delivery_at, timer_at, plan_recover_at].into_iter().flatten().min();
        let Some(min_time) = min_time else {
            // Nothing runnable.
            let blocked: Vec<ProcToken> = self
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.state == ProcState::Blocked)
                .map(|(i, _)| ProcToken(i as u32))
                .collect();
            if blocked.is_empty() {
                return Some(Ok(())); // all done
            }
            return Some(Err(SimError::Deadlock { blocked, at: self.now }));
        };
        self.now = self.now.max(min_time);

        // Collect all candidates at min_time; delegate the tie-break
        // to the schedule, describing each candidate so recording
        // schedules can reason about what the choices *were*. Under
        // fault exploration, every not-yet-crashed budgeted node may
        // also crash instead — enumerating crash timing.
        self.candidates.clear();
        self.ids.clear();
        for (i, p) in self.procs.iter().enumerate() {
            if p.state == ProcState::Ready && p.ready_at == min_time {
                self.candidates.push(Cand::Syscall(i));
                self.ids.push(ActionId::Syscall { proc: i as u32 });
            }
        }
        if delivery_at == Some(min_time) {
            let d = &self.network.queue.peek().expect("nonempty").0;
            self.candidates.push(Cand::Deliver);
            self.ids.push(ActionId::Deliver { from: d.from, to: d.to, seq: d.seq });
        }
        if timer_at == Some(min_time) {
            let t = &self.network.timers.peek().expect("nonempty").0;
            self.candidates.push(Cand::Timer);
            self.ids.push(ActionId::Timer { node: t.node, seq: t.seq });
        }
        if plan_recover_at == Some(min_time) {
            let (_, node) = self.plan_recovers[self.next_plan_recover];
            self.candidates.push(Cand::CrashRecover { node, plan: true });
            self.ids.push(ActionId::CrashRecover { node });
        }
        if let Some(budget) = &self.config.explore_faults {
            for &node in &budget.crashes {
                if !self.network.is_downed(node) {
                    self.candidates.push(Cand::Crash(node));
                    self.ids.push(ActionId::Crash { node });
                }
            }
            for &node in &budget.recovers {
                if !self.network.is_downed(node) && !self.network.recovers_used.contains(&node) {
                    self.candidates.push(Cand::CrashRecover { node, plan: false });
                    self.ids.push(ActionId::CrashRecover { node });
                }
            }
        }
        let choice = self.candidates[self.schedule.choose_action(&self.ids)];

        self.metrics.events += 1;
        // Each step's conflict footprint starts from its primary node
        // and accumulates send destinations, timer targets, and
        // resumed processes as the step executes.
        self.network.touched.clear();
        match choice {
            Cand::Deliver => {
                let Delivery { from, to, sent, msg, .. } = self.network.dequeue().expect("peeked");
                self.metrics.record_delivery(self.now.saturating_sub(sent));
                // Delivery dequeues at `to` *and* mutates its replica.
                self.network.touched.push(Touch::Queue(to));
                self.network.touched.push(Touch::State(to));
                let mut ctx = Self::net_ctx(
                    self.now,
                    &mut self.network,
                    &mut self.rng,
                    &mut self.metrics,
                    &self.config,
                    Some(&mut *self.schedule),
                );
                self.protocol.on_message(to, from, msg, &mut ctx);
            }
            Cand::Timer => {
                let Reverse(t) = self.network.timers.pop().expect("peeked");
                self.metrics.timers_fired += 1;
                if let Some(tr) = self.network.tracer.as_mut() {
                    tr.record(TraceEvent {
                        t: self.now,
                        dur: None,
                        cat: "timer",
                        name: "timer_fired".to_string(),
                        track: t.node.0,
                        args: vec![("token", t.token.to_string())],
                    });
                }
                self.network.touched.push(Touch::Queue(t.node));
                self.network.touched.push(Touch::State(t.node));
                let mut ctx = Self::net_ctx(
                    self.now,
                    &mut self.network,
                    &mut self.rng,
                    &mut self.metrics,
                    &self.config,
                    Some(&mut *self.schedule),
                );
                self.protocol.on_timer(t.node, t.token, &mut ctx);
            }
            Cand::Syscall(idx) => {
                let req = self.procs[idx].pending.take().expect("ready has request");
                let (token, node) = (ProcToken(idx as u32), self.procs[idx].node);
                if let Some(tr) = self.network.tracer.as_mut() {
                    // Span from the syscall's issue (before the charged
                    // local cost) to the moment it is serviced.
                    let issued = self.procs[idx].ready_at.saturating_sub(self.config.local_cost);
                    tr.record(TraceEvent {
                        t: issued,
                        dur: Some(self.now.saturating_sub(issued)),
                        cat: "syscall",
                        name: "syscall".to_string(),
                        track: node.0,
                        args: vec![("proc", idx.to_string())],
                    });
                }
                // A syscall reads and writes its own node's replica;
                // any sends it issues add queue touches elsewhere.
                self.network.touched.push(Touch::State(node));
                let mut ctx = Self::net_ctx(
                    self.now,
                    &mut self.network,
                    &mut self.rng,
                    &mut self.metrics,
                    &self.config,
                    Some(&mut *self.schedule),
                );
                match self.protocol.on_request(token, node, req, &mut ctx) {
                    Poll::Ready(resp) => self.resume(idx, resp),
                    Poll::Pending => {
                        self.procs[idx].state = ProcState::Blocked;
                        self.procs[idx].blocked_since = self.now;
                    }
                }
            }
            Cand::Crash(node) => {
                // A crash silences the node and purges its queue. The
                // wiped in-flight deliveries and cancelled timers join
                // the fault/timer accounting so conservation holds.
                self.network.touched.push(Touch::State(node));
                self.network.touched.push(Touch::Queue(node));
                let (wiped, cancelled) = self.network.crash_node(node);
                self.metrics.faults.crash_dropped += wiped;
                self.metrics.timers_cancelled += cancelled;
                if let Some(tr) = self.network.tracer.as_mut() {
                    tr.record(TraceEvent {
                        t: self.now,
                        dur: None,
                        cat: "fault",
                        name: "crash".to_string(),
                        track: node.0,
                        args: vec![
                            ("wiped_deliveries", wiped.to_string()),
                            ("cancelled_timers", cancelled.to_string()),
                        ],
                    });
                }
            }
            Cand::CrashRecover { node, plan } => {
                // A crash-recover is a crash (wiping the node's
                // in-flight deliveries, timers, and volatile protocol
                // state) immediately followed by a rebirth from
                // durable storage: the protocol replays its WAL and
                // snapshot in `on_crash_recover` and re-fetches the
                // rest from peers.
                self.network.touched.push(Touch::State(node));
                self.network.touched.push(Touch::Queue(node));
                let (wiped, cancelled) = self.network.crash_node(node);
                self.network.revive(node);
                if plan {
                    self.next_plan_recover += 1;
                } else {
                    self.network.recovers_used.push(node);
                }
                self.metrics.faults.crash_dropped += wiped;
                self.metrics.timers_cancelled += cancelled;
                self.metrics.wal.recoveries += 1;
                if let Some(tr) = self.network.tracer.as_mut() {
                    tr.record(TraceEvent {
                        t: self.now,
                        dur: None,
                        cat: "fault",
                        name: "crash_recover".to_string(),
                        track: node.0,
                        args: vec![
                            ("wiped_deliveries", wiped.to_string()),
                            ("cancelled_timers", cancelled.to_string()),
                        ],
                    });
                }
                let mut ctx = Self::net_ctx(
                    self.now,
                    &mut self.network,
                    &mut self.rng,
                    &mut self.metrics,
                    &self.config,
                    Some(&mut *self.schedule),
                );
                self.protocol.on_crash_recover(node, &mut ctx);
            }
        }
        self.poll_blocked_procs();
        self.footprint_open = true;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A tiny replicated-counter protocol for exercising the kernel:
    /// `Incr` bumps the local copy and broadcasts; `Get` reads the local
    /// copy; `WaitFor(v)` blocks until the local copy reaches `v`.
    #[derive(Debug)]
    struct Counter {
        copies: Vec<i64>,
        waiting: Vec<Option<i64>>, // per proc: threshold
    }

    #[derive(Clone)]
    struct Bump(i64);

    enum Req {
        Incr,
        Get,
        WaitFor(i64),
    }

    impl Protocol for Counter {
        type Msg = Bump;
        type Req = Req;
        type Resp = i64;

        fn on_request(
            &mut self,
            proc: ProcToken,
            node: NodeId,
            req: Req,
            net: &mut NetCtx<'_, Bump>,
        ) -> Poll<i64> {
            match req {
                Req::Incr => {
                    self.copies[node.index()] += 1;
                    net.broadcast(node, "bump", 8, Bump(1));
                    Poll::Ready(self.copies[node.index()])
                }
                Req::Get => Poll::Ready(self.copies[node.index()]),
                Req::WaitFor(v) => {
                    if self.copies[node.index()] >= v {
                        Poll::Ready(self.copies[node.index()])
                    } else {
                        self.waiting[proc.index()] = Some(v);
                        Poll::Pending
                    }
                }
            }
        }

        fn on_message(
            &mut self,
            to: NodeId,
            _from: NodeId,
            msg: Bump,
            _net: &mut NetCtx<'_, Bump>,
        ) {
            self.copies[to.index()] += msg.0;
        }

        fn poll_blocked(
            &mut self,
            proc: ProcToken,
            node: NodeId,
            _net: &mut NetCtx<'_, Bump>,
        ) -> Option<i64> {
            let v = self.waiting[proc.index()]?;
            if self.copies[node.index()] >= v {
                self.waiting[proc.index()] = None;
                Some(self.copies[node.index()])
            } else {
                None
            }
        }
    }

    fn counter(n: usize) -> Counter {
        Counter { copies: vec![0; n], waiting: vec![None; 8] }
    }

    #[test]
    fn basic_request_response() {
        let mut k = Kernel::new(counter(2), 2, SimConfig::default());
        let out = Arc::new(Mutex::new(0));
        let out2 = out.clone();
        k.spawn(NodeId(0), move |ctx| {
            ctx.request(Req::Incr);
            *out2.lock().unwrap() = ctx.request(Req::Get);
        });
        let report = k.run().unwrap();
        assert_eq!(*out.lock().unwrap(), 1);
        assert_eq!(report.metrics.kind("bump").count, 1);
        assert!(report.metrics.finish_time > SimTime::ZERO);
    }

    #[test]
    fn blocking_resumes_on_delivery() {
        let mut k = Kernel::new(counter(2), 2, SimConfig::default());
        let got = Arc::new(Mutex::new(0));
        let got2 = got.clone();
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Incr);
        });
        k.spawn(NodeId(1), move |ctx| {
            *got2.lock().unwrap() = ctx.request(Req::WaitFor(1));
        });
        let report = k.run().unwrap();
        assert_eq!(*got.lock().unwrap(), 1);
        assert_eq!(report.metrics.blocked_syscalls, 1);
        assert!(report.metrics.stall_time > SimTime::ZERO);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut k = Kernel::new(counter(1), 1, SimConfig::default());
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::WaitFor(1)); // nobody will increment
        });
        match k.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked, vec![ProcToken(0)]);
            }
            other => panic!("expected deadlock, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn process_panic_is_reported() {
        let mut k = Kernel::new(counter(1), 1, SimConfig::default());
        k.spawn(NodeId(0), |_ctx| {
            panic!("boom");
        });
        match k.run() {
            Err(SimError::ProcPanicked { proc, payload }) => {
                assert_eq!(proc, ProcToken(0));
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            }
            other => panic!("expected panic report, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn processes_start_one_at_a_time_in_token_order() {
        let mut k = Kernel::new(counter(3), 3, SimConfig::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        for n in 0..3u32 {
            let log = log.clone();
            k.spawn(NodeId(n), move |ctx| {
                if n == 0 {
                    // Were the others running already, they would log first.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                log.lock().unwrap().push(n);
                ctx.request(Req::Get);
            });
        }
        k.run().unwrap();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn the_first_process_to_panic_is_always_p0() {
        for run in 0..50 {
            let mut k = Kernel::new(counter(2), 2, SimConfig::default());
            for n in 0..2u32 {
                k.spawn(NodeId(n), move |_ctx| panic!("P{n} before any syscall"));
            }
            match k.run() {
                Err(SimError::ProcPanicked { proc, .. }) => {
                    assert_eq!(proc, ProcToken(0), "run {run}")
                }
                other => panic!("run {run}: expected a panic report, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn a_protocol_panic_reaches_the_caller_of_run() {
        #[derive(Debug)]
        struct Faulty;
        impl Protocol for Faulty {
            type Msg = ();
            type Req = ();
            type Resp = ();
            fn on_request(
                &mut self,
                _: ProcToken,
                _: NodeId,
                _: (),
                _: &mut NetCtx<'_, ()>,
            ) -> Poll<()> {
                panic!("protocol bug")
            }
            fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut NetCtx<'_, ()>) {}
            fn poll_blocked(
                &mut self,
                _: ProcToken,
                _: NodeId,
                _: &mut NetCtx<'_, ()>,
            ) -> Option<()> {
                None
            }
        }
        let mut k = Kernel::new(Faulty, 2, SimConfig::default());
        k.spawn(NodeId(0), |ctx| ctx.request(()));
        k.spawn(NodeId(1), |ctx| ctx.request(()));
        let payload = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"protocol bug"));
    }

    #[test]
    fn event_limit_guards_runaway() {
        let cfg = SimConfig { max_events: 10, ..SimConfig::default() };
        let mut k = Kernel::new(counter(2), 2, cfg);
        k.spawn(NodeId(0), |ctx| {
            for _ in 0..100 {
                ctx.request(Req::Incr);
            }
        });
        assert!(matches!(k.run(), Err(SimError::EventLimit { limit: 10 })));
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed: u64| {
            let mut k = Kernel::new(counter(3), 3, SimConfig::with_seed(seed));
            for n in 0..3u32 {
                k.spawn(NodeId(n), move |ctx| {
                    for _ in 0..5 {
                        ctx.request(Req::Incr);
                    }
                    ctx.request(Req::WaitFor(15));
                });
            }
            let r = k.run().unwrap();
            (r.metrics.finish_time, r.metrics.messages, r.metrics.events)
        };
        assert_eq!(run(42), run(42));
        assert_eq!(run(7), run(7));
        // Different seeds explore different schedules (latency jitter).
        assert_ne!(run(1).0, run(2).0);
    }

    #[test]
    fn advance_charges_virtual_time() {
        let mut k = Kernel::new(counter(1), 1, SimConfig::default());
        k.spawn(NodeId(0), |ctx| {
            ctx.advance(SimTime::from_millis(5));
            ctx.request(Req::Get);
        });
        let report = k.run().unwrap();
        assert!(report.metrics.finish_time >= SimTime::from_millis(5));
    }

    #[test]
    fn eventual_delivery_converges_all_copies() {
        let n = 4;
        let mut k = Kernel::new(counter(n), n, SimConfig::with_seed(3));
        for i in 0..n as u32 {
            k.spawn(NodeId(i), move |ctx| {
                for _ in 0..3 {
                    ctx.request(Req::Incr);
                }
                ctx.request(Req::WaitFor(3 * 4));
            });
        }
        let report = k.run().unwrap();
        assert!(report.protocol.copies.iter().all(|&c| c == 12));
    }

    #[test]
    fn timers_fire_in_order_and_drive_the_protocol() {
        struct TimerProto {
            fired: Vec<u64>,
        }
        impl Protocol for TimerProto {
            type Msg = ();
            type Req = ();
            type Resp = Vec<u64>;
            fn on_request(
                &mut self,
                _proc: ProcToken,
                node: NodeId,
                _req: (),
                net: &mut NetCtx<'_, ()>,
            ) -> Poll<Vec<u64>> {
                net.set_timer(node, SimTime::from_micros(30), 3);
                net.set_timer(node, SimTime::from_micros(10), 1);
                net.set_timer(node, SimTime::from_micros(20), 2);
                Poll::Pending
            }
            fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut NetCtx<'_, ()>) {}
            fn poll_blocked(
                &mut self,
                _proc: ProcToken,
                _node: NodeId,
                _net: &mut NetCtx<'_, ()>,
            ) -> Option<Vec<u64>> {
                (self.fired.len() == 3).then(|| self.fired.clone())
            }
            fn on_timer(&mut self, _node: NodeId, token: u64, _net: &mut NetCtx<'_, ()>) {
                self.fired.push(token);
            }
        }
        let mut k = Kernel::new(TimerProto { fired: Vec::new() }, 1, SimConfig::default());
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        k.spawn(NodeId(0), move |ctx| {
            *got2.lock().unwrap() = ctx.request(());
        });
        let report = k.run().unwrap();
        assert_eq!(*got.lock().unwrap(), vec![1, 2, 3], "expirations in time order");
        assert_eq!(report.metrics.timers_set, 3);
        assert_eq!(report.metrics.timers_fired, 3);
        assert!(report.metrics.finish_time >= SimTime::from_micros(30));
    }

    #[test]
    fn explored_crash_candidate_silences_a_node() {
        use crate::net::FaultBudget;
        let cfg = SimConfig {
            explore_faults: Some(FaultBudget::new().crash_of(NodeId(1))),
            ..Default::default()
        };
        let mut k = Kernel::new(counter(2), 2, cfg);
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Incr);
            ctx.request(Req::Get);
        });
        // Crash actions are appended last, so always picking the final
        // candidate crashes n1 at the first opportunity.
        struct PickLast;
        impl Schedule for PickLast {
            fn choose(&mut self, n: usize) -> usize {
                n - 1
            }
        }
        k.set_schedule(Box::new(PickLast));
        let report = k.run().unwrap();
        assert_eq!(report.protocol.copies[0], 1);
        assert_eq!(report.protocol.copies[1], 0, "n1 crashed before the bump arrived");
    }

    #[test]
    fn replay_schedule_records_action_identities_and_footprints() {
        use crate::schedule::{ReplaySchedule, StepKind};
        let mut k = Kernel::new(counter(2), 2, SimConfig::default());
        let (sched, trace) = ReplaySchedule::new(Vec::new());
        k.set_schedule(Box::new(sched));
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Incr);
        });
        k.spawn(NodeId(1), |ctx| {
            ctx.request(Req::WaitFor(1));
        });
        k.run().unwrap();
        let t = trace.lock().unwrap();
        assert!(!t.steps.is_empty());
        assert_eq!(t.steps.len(), t.choices.len());
        for (i, s) in t.steps.iter().enumerate() {
            match &s.kind {
                StepKind::Sched { candidates } => {
                    assert_eq!(candidates.len() as u32, t.arities[i]);
                    assert!(!s.footprint.is_empty(), "every step touches its primary node");
                }
                StepKind::Fault { .. } => panic!("no fault budget configured"),
            }
        }
        // The Incr broadcast makes its send destination's queue part of
        // the syscall step's footprint, next to the issuing node's state.
        let incr = t
            .steps
            .iter()
            .find(|s| {
                matches!(&s.kind, StepKind::Sched { candidates }
                    if candidates.contains(&ActionId::Syscall { proc: 0 }))
            })
            .expect("a step offering P0's syscall");
        assert!(incr.footprint.contains(&Touch::State(NodeId(0))));
        assert!(incr.footprint.contains(&Touch::Queue(NodeId(1))));
    }

    #[test]
    fn message_and_timer_conservation_under_seeded_fault_plans() {
        use crate::net::FaultPlan;
        let plans: Vec<FaultPlan> = vec![
            FaultPlan::new(),
            FaultPlan::new().drop_rate(0.3),
            FaultPlan::new().duplicate_rate(0.4),
            FaultPlan::new().drop_rate(0.2).duplicate_rate(0.2).reorder(SimTime::from_micros(50)),
            FaultPlan::new().partition(
                vec![NodeId(0)],
                vec![NodeId(1)],
                SimTime::ZERO,
                SimTime::from_micros(40),
            ),
            FaultPlan::new().duplicate_rate(0.3).crash(
                NodeId(1),
                SimTime::from_micros(10),
                Some(SimTime::from_micros(30)),
            ),
            FaultPlan::new().drop_rate(0.5).crash(NodeId(2), SimTime::from_micros(5), None),
        ];
        for (p, plan) in plans.iter().enumerate() {
            for seed in [1u64, 7, 23] {
                let mut cfg = SimConfig::with_seed(seed);
                cfg.faults = plan.clone();
                let mut k = Kernel::new(counter(3), 3, cfg);
                for n in 0..3u32 {
                    k.spawn(NodeId(n), move |ctx| {
                        for _ in 0..10 {
                            ctx.request(Req::Incr);
                        }
                    });
                }
                // `run` itself asserts conservation; re-check explicitly
                // so a violation names the offending plan and seed.
                let m = k.run().unwrap_or_else(|e| panic!("plan {p} seed {seed}: {e}")).metrics;
                m.check_conservation(0).unwrap_or_else(|e| panic!("plan {p} seed {seed}: {e}"));
                assert_eq!(
                    m.messages + m.faults.duplicated,
                    m.delivered + m.faults.dropped_total(),
                    "plan {p} seed {seed}"
                );
                assert_eq!(m.delivered, m.delivery_hist.count(), "plan {p} seed {seed}");
            }
        }
    }

    #[test]
    fn explored_crash_cancels_timers_and_keeps_conservation() {
        use crate::net::FaultBudget;

        /// Arms one far-future timer on node 1, then returns.
        struct Arm;
        impl Protocol for Arm {
            type Msg = ();
            type Req = ();
            type Resp = ();
            fn on_request(
                &mut self,
                _proc: ProcToken,
                _node: NodeId,
                _req: (),
                net: &mut NetCtx<'_, ()>,
            ) -> Poll<()> {
                net.set_timer(NodeId(1), SimTime::from_millis(10), 7);
                Poll::Ready(())
            }
            fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut NetCtx<'_, ()>) {}
            fn poll_blocked(
                &mut self,
                _: ProcToken,
                _: NodeId,
                _: &mut NetCtx<'_, ()>,
            ) -> Option<()> {
                None
            }
        }

        let cfg = SimConfig {
            explore_faults: Some(FaultBudget::new().crash_of(NodeId(1))),
            ..Default::default()
        };
        let mut k = Kernel::new(Arm, 2, cfg);
        k.spawn(NodeId(0), |ctx| ctx.request(()));
        // Serve the syscall first (arming the timer), then crash n1
        // (cancelling it) — crash candidates are appended last.
        struct Seq(usize);
        impl Schedule for Seq {
            fn choose(&mut self, n: usize) -> usize {
                self.0 += 1;
                if self.0 == 1 {
                    0
                } else {
                    n - 1
                }
            }
        }
        k.set_schedule(Box::new(Seq(0)));
        let m = k.run().unwrap().metrics;
        assert_eq!(m.timers_set, 1);
        assert_eq!(m.timers_fired, 0, "the timer never fired");
        assert_eq!(m.timers_cancelled, 1, "the crash cancelled it");
        assert_eq!(m.timers_pending, 0);
    }

    /// A durable counter for exercising crash-recover: an `Incr` bumps
    /// the local copy and fsyncs it before acking (append-before-ack);
    /// remote bumps apply in memory and stage a WAL record, fsynced only
    /// when a `Get` observes the value (sync-on-observe). A crash-recover
    /// loses the staged tail and falls back to the fsynced value.
    struct DurableCounter {
        copies: Vec<i64>,
        disk: Vec<i64>,
        staged: Vec<u64>,
    }

    impl DurableCounter {
        fn new(n: usize) -> Self {
            DurableCounter { copies: vec![0; n], disk: vec![0; n], staged: vec![0; n] }
        }
    }

    impl Protocol for DurableCounter {
        type Msg = Bump;
        type Req = Req;
        type Resp = i64;

        fn on_request(
            &mut self,
            _proc: ProcToken,
            node: NodeId,
            req: Req,
            net: &mut NetCtx<'_, Bump>,
        ) -> Poll<i64> {
            let n = node.index();
            match req {
                Req::Incr => {
                    self.copies[n] += 1;
                    net.record_wal_append(1);
                    net.record_wal_sync(1 + self.staged[n]);
                    self.staged[n] = 0;
                    self.disk[n] = self.copies[n];
                    net.broadcast(node, "bump", 8, Bump(1));
                    Poll::Ready(self.copies[n])
                }
                Req::Get => {
                    net.record_wal_sync(self.staged[n]);
                    self.staged[n] = 0;
                    self.disk[n] = self.copies[n];
                    Poll::Ready(self.copies[n])
                }
                Req::WaitFor(_) => unreachable!("not used here"),
            }
        }

        fn on_message(&mut self, to: NodeId, _from: NodeId, msg: Bump, net: &mut NetCtx<'_, Bump>) {
            self.copies[to.index()] += msg.0;
            net.record_wal_append(1);
            self.staged[to.index()] += 1;
        }

        fn poll_blocked(
            &mut self,
            _proc: ProcToken,
            _node: NodeId,
            _net: &mut NetCtx<'_, Bump>,
        ) -> Option<i64> {
            None
        }

        fn on_crash_recover(&mut self, node: NodeId, net: &mut NetCtx<'_, Bump>) {
            let n = node.index();
            net.record_wal_lost(self.staged[n]);
            self.staged[n] = 0;
            self.copies[n] = self.disk[n];
            net.record_wal_replayed(self.disk[n].max(0) as u64);
        }

        fn durable_staged(&self) -> u64 {
            self.staged.iter().sum()
        }
    }

    #[test]
    fn planned_crash_recover_falls_back_to_fsynced_state() {
        use crate::net::FaultPlan;
        let mut cfg = SimConfig::with_seed(3);
        // Recover n1 after every bump is surely applied (bumps staged,
        // never observed): the staged tail is lost, disk value restored.
        cfg.faults = FaultPlan::new().crash_recover(NodeId(1), SimTime::from_millis(1));
        let mut k = Kernel::new(DurableCounter::new(2), 2, cfg);
        k.spawn(NodeId(0), |ctx| {
            for _ in 0..3 {
                ctx.request(Req::Incr);
            }
            ctx.advance(SimTime::from_millis(2));
            ctx.request(Req::Get);
        });
        let report = k.run().unwrap();
        let m = &report.metrics;
        assert_eq!(m.wal.recoveries, 1);
        assert_eq!(m.wal.lost, 3, "the unsynced remote bumps were lost");
        assert_eq!(report.protocol.copies[1], 0, "n1 fell back to its fsynced value");
        assert_eq!(report.protocol.copies[0], 3, "the writer's own state is durable");
    }

    #[test]
    fn observed_state_survives_crash_recover() {
        // Same shape, but a process on n1 *observes* (Get) the bumps
        // before the recover: sync-on-observe makes them durable first.
        use crate::net::FaultPlan;
        let mut cfg = SimConfig::with_seed(3);
        cfg.faults = FaultPlan::new().crash_recover(NodeId(1), SimTime::from_millis(2));
        let mut k = Kernel::new(DurableCounter::new(2), 2, cfg);
        k.spawn(NodeId(0), |ctx| {
            for _ in 0..3 {
                ctx.request(Req::Incr);
            }
        });
        k.spawn(NodeId(1), |ctx| {
            ctx.advance(SimTime::from_millis(1));
            ctx.request(Req::Get);
            ctx.advance(SimTime::from_millis(2));
            ctx.request(Req::Get);
        });
        let report = k.run().unwrap();
        assert_eq!(report.metrics.wal.recoveries, 1);
        assert_eq!(report.metrics.wal.lost, 0, "everything observed was fsynced first");
        assert_eq!(report.protocol.copies[1], 3, "observed bumps survive the recover");
    }

    #[test]
    fn explored_crash_recover_spends_once_and_conserves() {
        use crate::net::FaultBudget;
        let cfg = SimConfig {
            explore_faults: Some(FaultBudget::new().crash_recover_of(NodeId(1))),
            ..SimConfig::with_seed(9)
        };
        let mut k = Kernel::new(DurableCounter::new(2), 2, cfg);
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Incr);
            ctx.request(Req::Incr);
        });
        // Recover candidates are appended last; picking the last candidate
        // fires the recover at the first step, then (the allowance spent)
        // the run proceeds normally.
        struct PickLast;
        impl Schedule for PickLast {
            fn choose(&mut self, n: usize) -> usize {
                n - 1
            }
        }
        k.set_schedule(Box::new(PickLast));
        let report = k.run().unwrap();
        assert_eq!(report.metrics.wal.recoveries, 1, "the allowance is once per run");
        assert_eq!(report.protocol.copies[0], 2);
    }

    #[test]
    fn tracing_disabled_yields_no_trace() {
        let mut k = Kernel::new(counter(1), 1, SimConfig::default());
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Get);
        });
        assert!(k.run().unwrap().trace.is_none());
    }

    #[test]
    fn tracing_captures_kernel_and_network_events_deterministically() {
        let run = || {
            let mut k = Kernel::new(counter(2), 2, SimConfig::with_seed(5));
            k.enable_tracing();
            k.spawn(NodeId(0), |ctx| {
                ctx.request(Req::Incr);
            });
            k.spawn(NodeId(1), move |ctx| {
                ctx.request(Req::WaitFor(1));
            });
            k.run().unwrap().trace.expect("tracing was enabled")
        };
        let tr = run();
        let cats: Vec<&str> = tr.events().map(|e| e.cat).collect();
        assert!(cats.contains(&"syscall"), "syscall spans recorded: {cats:?}");
        assert!(cats.contains(&"msg"), "message spans recorded: {cats:?}");
        assert!(cats.contains(&"stall"), "stall span recorded: {cats:?}");
        let msg = tr.events().find(|e| e.cat == "msg").unwrap();
        assert_eq!(msg.name, "bump");
        assert!(msg.dur.is_some(), "messages trace as spans");
        assert_eq!(tr.to_jsonl(), run().to_jsonl(), "same seed, byte-identical trace");
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::Deadlock { blocked: vec![ProcToken(1)], at: SimTime::ZERO };
        assert!(e.to_string().contains("deadlock"));
        let e = SimError::EventLimit { limit: 5 };
        assert!(e.to_string().contains("5"));
    }
}
