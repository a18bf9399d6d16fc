//! The user-facing runtime: build a system, spawn processes, run it on
//! an executor, get metrics and a checkable history.

use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mc_model::{BarrierId, History, HistoryBuilder, Loc, MalformedHistory, ProcId, Value};
use mc_proto::{
    CrashFs, Driver, Dsm, DsmConfig, DurabilityPolicy, IntoModels, LockPropagation, Manager,
    MemCtx, Replica, Req, Resp,
};
use mc_sim::{
    DurabilityStats, FaultPlan, Kernel, LatencyModel, Metrics, NodeId, ProcCtx, SimConfig,
    SimError, SimTime, Tracer,
};

/// Error from running a system.
#[derive(Debug)]
pub enum RunError {
    /// The simulation failed (deadlock, process panic, event limit).
    Sim(SimError),
    /// A process thread of a wall-clock executor panicked. A blocked
    /// operation that outlives [`System::timeout`] panics this way, with
    /// a diagnostic naming what it waited for.
    ProcPanicked {
        /// The process that panicked.
        proc: ProcId,
        /// The panic message, if it was a string.
        message: String,
    },
    /// The recorded history failed well-formedness validation — this
    /// indicates a protocol bug (or injected fault) worth investigating.
    Malformed(MalformedHistory),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::ProcPanicked { proc, message } => write!(f, "{proc} panicked: {message}"),
            RunError::Malformed(e) => write!(f, "recorded history is malformed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// How one process's parked operations were answered on a wall-clock
/// executor: each park is a wait for one more message, caught while the
/// thread still probed its inbox or slept through. `parks == caught +
/// slept` once the process is done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParkStats {
    /// Waits for a message by a parked operation.
    pub parks: u64,
    /// Parks whose message arrived inside the spin window.
    pub caught: u64,
    /// Parks that outlasted the window and blocked on the inbox.
    pub slept: u64,
}

/// The result of a completed run, on any executor.
#[derive(Debug)]
pub struct Outcome {
    /// Protocol messages sent.
    pub messages: u64,
    /// Modeled wire bytes sent.
    pub bytes: u64,
    /// Durability counters (all zero without durability).
    pub wal: DurabilityStats,
    /// The recorded history, when [`System::record`] was enabled.
    pub history: Option<History>,
    /// The structured event trace, when [`System::trace`] was enabled,
    /// keyed by virtual time in the simulator and by wall-clock time
    /// since the run began elsewhere.
    pub trace: Option<Tracer>,
    /// Run metrics. The simulator fills them all (virtual time, per-kind
    /// counts, stalls); a wall-clock run fills `messages`, `bytes`, `wal`
    /// and, for the lossy-channel shim's drops, `faults.dropped`.
    pub metrics: Metrics,
    /// How each process's parked operations were answered, indexed by
    /// process (wall-clock executors; empty in the simulator).
    pub parks: Vec<ParkStats>,
    /// Each process's final replica, indexed by process.
    pub replicas: Vec<Replica>,
    /// Each manager shard's final state; the first is the SC server.
    pub managers: Vec<Manager>,
    /// The protocol configuration the run executed.
    pub config: DsmConfig,
}

impl Outcome {
    /// Assembles a finished run's outcome: the recorder's history,
    /// stamped with the SC server's write order (`managers[0]`), and the
    /// counters read off `metrics`.
    ///
    /// # Errors
    ///
    /// [`RunError::Malformed`] if the recorded history fails validation.
    pub fn new(
        recorder: Option<Arc<Mutex<HistoryBuilder>>>,
        metrics: Metrics,
        trace: Option<Tracer>,
        parks: Vec<ParkStats>,
        replicas: Vec<Replica>,
        mut managers: Vec<Manager>,
        config: DsmConfig,
    ) -> Result<Outcome, RunError> {
        let mut history = None;
        if let Some(rec) = recorder {
            let rec = Arc::into_inner(rec).expect("every recorder handle dropped");
            let mut builder = rec.into_inner().expect("recorder healthy");
            for (loc, order) in managers[0].take_write_order() {
                builder.set_write_order(loc, order);
            }
            history = Some(builder.build().map_err(RunError::Malformed)?);
        }
        Ok(Outcome {
            messages: metrics.messages,
            bytes: metrics.bytes,
            wal: metrics.wal,
            history,
            trace,
            metrics,
            parks,
            replicas,
            managers,
            config,
        })
    }

    /// The final value of `loc`: read from `proc`'s replica in the
    /// replicated substrates (every executor drains all deliveries before it
    /// finishes, so replicas agree except for concurrent float-counter
    /// deltas — see the Cholesky discussion), or from the central server
    /// of the SC substrate.
    pub fn final_value(&self, proc: ProcId, loc: Loc) -> Value {
        if self.config.substrate().is_replicated() {
            self.replica(proc).peek(loc)
        } else {
            self.managers[0].peek(loc)
        }
    }

    /// `proc`'s final replica state (incarnation, applied clock, shard
    /// subscriptions).
    pub fn replica(&self, proc: ProcId) -> &Replica {
        &self.replicas[proc.index()]
    }

    /// Verifies the recorded history against each process's assigned
    /// lattice point: Definition 3 for PRAM, Definition 2 for causal,
    /// Definition 4 for mixed, and Definition 1 for SC — decided in
    /// linear time against the write order the SC server recorded
    /// ([`History::write_order`]), so SC runs of any length check
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns the checker's error on violation, or [`VerifyError::NotRecorded`]
    /// if recording was off.
    pub fn verify(&self) -> Result<(), VerifyError> {
        let h = self.history.as_ref().ok_or(VerifyError::NotRecorded)?;
        let cfg = &self.config;
        // Every verdict comes from the declarative lattice validator,
        // against the run's per-process assignment.
        let models = cfg.models();
        // Under interest-based partial replication the protocol promises
        // each consistency guarantee *per shard* (updates flow among a
        // shard's subscribers only), so the recorded history is judged
        // shard by shard: project onto each shard's locations and check
        // the projection. Cross-shard program order still reaches the
        // checker — the projection keeps per-process order among the
        // shard's own accesses.
        if let Some(sc) = cfg.sharding.as_ref().filter(|_| cfg.substrate().is_replicated()) {
            for shard in 0..sc.nshards {
                let hs = h.project_shard(sc.nshards, shard).map_err(VerifyError::Projection)?;
                Self::judge(&hs, models)?;
            }
            return Ok(());
        }
        Self::judge(h, models)
    }

    fn judge(h: &mc_model::History, models: &mc_model::ModelAssignment) -> Result<(), VerifyError> {
        match mc_model::spec::check_model(h, models) {
            Ok(_) => Ok(()),
            Err(mc_model::check::CheckError::Violations(r))
                if r.violations.is_empty()
                    && r.global == [mc_model::check::GlobalViolation::NotSerializable] =>
            {
                Err(VerifyError::NotSequentiallyConsistent)
            }
            Err(e) => Err(VerifyError::Check(e)),
        }
    }
}

/// Error type of [`Outcome::verify`].
#[derive(Debug)]
pub enum VerifyError {
    /// The run did not record a history (enable [`System::record`]).
    NotRecorded,
    /// A consistency definition was violated.
    Check(mc_model::check::CheckError),
    /// A per-shard projection of the history was malformed — the
    /// protocol let a reads-from edge cross shards.
    Projection(mc_model::MalformedHistory),
    /// No serialization of the SC run is sequential.
    NotSequentiallyConsistent,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotRecorded => write!(f, "history recording was not enabled"),
            VerifyError::Check(e) => write!(f, "{e}"),
            VerifyError::Projection(e) => write!(f, "shard projection malformed: {e}"),
            VerifyError::NotSequentiallyConsistent => write!(f, "no serialization is sequential"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Where a [`System`]'s processes run. A program written against
/// [`MemCtx<D>`] runs on every executor; each one drives it through its
/// own [`Driver`].
pub trait Executor: Sized {
    /// The driver behind each process's [`MemCtx`].
    type Driver<'a>: Driver;

    /// Runs `system` to completion (see [`System::run`]).
    fn run(system: System<Self>) -> Result<Outcome, RunError>;
}

/// An executor on real threads and the wall clock: a blocked operation
/// times out ([`System::timeout`]), and a durable replica keeps its files
/// in a directory ([`System::durability`]).
pub trait WallClock: Executor {}

/// Builder for a mixed-consistency DSM system, run on executor `E`.
///
/// The knobs every executor honours are methods of every `System`; the
/// simulator's own (seed, latency, faults) are methods of `System<Sim>`,
/// and the wall clock's (timeout, durability directory) of the
/// [`WallClock`] executors'.
///
/// # Examples
///
/// ```
/// use mixed_consistency::{ProcModel, System, Value, Loc};
///
/// let mut sys = System::new(2, ProcModel::MIXED).record(true);
/// sys.spawn(|ctx| {
///     ctx.write(Loc(0), 41);
///     ctx.write(Loc(1), 1); // flag
/// });
/// sys.spawn(|ctx| {
///     ctx.await_eq(Loc(1), 1);
///     assert_eq!(ctx.read_causal(Loc(0)), Value::Int(41));
/// });
/// let outcome = sys.run()?;
/// outcome.verify().expect("mixed consistent");
/// # Ok::<(), mixed_consistency::RunError>(())
/// ```
pub struct System<E: Executor = Sim> {
    /// The executor, carrying the knobs only it honours.
    pub exec: E,
    /// The protocol configuration.
    pub cfg: DsmConfig,
    /// Whether to record a history.
    pub record: bool,
    /// Whether to collect a structured event trace.
    pub trace: bool,
    /// Blocked-operation timeout ([`WallClock`] executors).
    pub timeout: Duration,
    /// Durability root ([`WallClock`] executors): replica `i` keeps its
    /// files under `dir/replica-{i}`.
    pub durability_dir: Option<PathBuf>,
    /// The process programs, in spawn order.
    #[allow(clippy::type_complexity)]
    pub procs: Vec<Box<dyn FnOnce(&mut MemCtx<E::Driver<'_>>) + Send>>,
}

impl<E: Executor> System<E> {
    /// Creates a system of `nprocs` processes under `models` (see
    /// [`IntoModels`]), run on `exec`: [`Outcome::verify`] judges each
    /// process's reads against its own lattice point.
    ///
    /// # Panics
    ///
    /// Panics if an explicit assignment does not name `nprocs`
    /// processes, or if it mixes `sc` with replicated points.
    pub fn on(exec: E, nprocs: usize, models: impl IntoModels) -> Self {
        System {
            exec,
            cfg: DsmConfig::new(nprocs, models),
            record: false,
            trace: false,
            timeout: Duration::from_secs(10),
            durability_dir: None,
            procs: Vec::new(),
        }
    }

    /// Selects the lock propagation variant (default: lazy).
    pub fn lock_propagation(mut self, p: LockPropagation) -> Self {
        self.cfg.lock_propagation = p;
        self
    }

    /// Restricts a barrier object to a subset of processes (Section
    /// 3.1.2's sub-group barriers). Unrestricted barriers involve every
    /// process.
    pub fn barrier_group(mut self, barrier: BarrierId, group: Vec<ProcId>) -> Self {
        self.cfg = self.cfg.with_barrier_group(barrier, group);
        self
    }

    /// Distributes lock/barrier managers over `shards` nodes (Section 6
    /// maps every synchronization object "to a process"; sharding spreads
    /// that traffic across links).
    pub fn manager_shards(mut self, shards: usize) -> Self {
        self.cfg = self.cfg.with_manager_shards(shards);
        self
    }

    /// Enables or disables history recording (default: off).
    pub fn record(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Enables or disables structured tracing (default: off).
    ///
    /// A traced run collects a [`Tracer`] in [`Outcome::trace`]. In the
    /// simulator: a span per message (tagged with the vector timestamp
    /// it carries), a span per syscall and per stall, and instants for
    /// timers and injected faults — all keyed by virtual time, so traces
    /// are deterministic per seed. On the wall clock: an instant per
    /// message sent and per lossy drop. Export with
    /// [`Tracer::to_jsonl`] or [`Tracer::to_chrome_trace`] (loads in
    /// Perfetto).
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Enables the reliable-delivery session layer
    /// ([`mc_proto::session`]): per-link sequence numbers,
    /// acknowledgements, and retransmission — on virtual timers in the
    /// simulator, on wall-clock ticks elsewhere. It restores the
    /// FIFO-channel assumption of the paper's Section 6 over a faulty
    /// network.
    pub fn reliable(mut self, reliable: bool) -> Self {
        self.cfg.reliable = reliable;
        self
    }

    /// Enables (`Some`) or disables (`None`, the default) batched,
    /// coalesced, delta-compressed update propagation
    /// ([`mc_proto::BatchPolicy`]). Buffered writes flush before every
    /// synchronization message and whenever an operation parks, so the
    /// mixed-consistency semantics are unchanged — only the wire traffic
    /// is. Otherwise a batch closes at an operation's entry once the
    /// process's links hold no undelivered message, at
    /// [`mc_proto::BUF_CHUNK`] bytes, and when the process exits.
    pub fn batching(mut self, batch: Option<mc_proto::BatchPolicy>) -> Self {
        self.cfg.batch = batch;
        self
    }

    /// Enables (`Some`) or disables (`None`, the default) sharded
    /// interest-based partial replication ([`mc_proto::ShardConfig`]):
    /// the address space is partitioned by `loc.index() % nshards`,
    /// each process subscribes to the shards in its interest set, and
    /// updates are multicast only to a shard's subscribers. Vector
    /// clocks become per-shard, so clock width scales with the number
    /// of interested replicas rather than the cluster size — the
    /// paper's §6 demand-driven propagation taken to its demand-known-
    /// in-advance limit. [`Outcome::verify`] judges each shard's
    /// projection of the history independently.
    ///
    /// Accesses outside a process's interest set panic unless
    /// [`mc_proto::ShardConfig::with_dynamic`] enables
    /// subscribe-on-first-touch. Locks and barriers are not supported
    /// while sharding is on. Ignored on the SC server substrate (there
    /// is no replication to partition).
    ///
    /// # Panics
    ///
    /// Panics (in the constructor path) if the interest-set count
    /// differs from the system's process count.
    pub fn sharding(mut self, sharding: Option<mc_proto::ShardConfig>) -> Self {
        self.cfg = self.cfg.with_sharding(sharding);
        self
    }

    /// Sets the replica store pre-sizing hint (number of shared
    /// locations the program uses).
    pub fn locations(mut self, locations: usize) -> Self {
        self.cfg.locations = locations;
        self
    }

    /// Adds the next process (process ids follow spawn order).
    pub fn spawn<F>(&mut self, f: F) -> ProcId
    where
        F: FnOnce(&mut MemCtx<E::Driver<'_>>) + Send + 'static,
    {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(Box::new(f));
        id
    }

    /// Runs the system to completion on its executor.
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] for simulated deadlocks, panics and event
    /// limits; [`RunError::ProcPanicked`] when a process thread panicked
    /// (blocked-operation timeouts included); [`RunError::Malformed`] if
    /// the recorded history fails validation.
    ///
    /// # Panics
    ///
    /// Panics if the number of spawned processes differs from `nprocs`.
    pub fn run(self) -> Result<Outcome, RunError> {
        // Strict: barriers wait for every configured process, so a
        // mismatch would deadlock at runtime with a far less helpful
        // diagnostic than this.
        assert_eq!(
            self.procs.len(),
            self.cfg.nprocs,
            "spawned {} processes but configured {}",
            self.procs.len(),
            self.cfg.nprocs
        );
        E::run(self)
    }
}

impl<E: WallClock> System<E> {
    /// Sets the blocked-operation timeout (default 10 s); a process that
    /// waits longer panics with a diagnostic, surfacing as
    /// [`RunError::ProcPanicked`]. [`Duration::MAX`] means no deadline.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Enables durable replicas: each process appends to a write-ahead
    /// log under `dir/replica-{i}` (own writes fsynced before the write
    /// returns — the append-before-ack discipline), compacts into a
    /// snapshot on the policy's cadence, and **recovers from existing
    /// state at startup**: snapshot plus the valid WAL prefix are
    /// replayed (a torn tail from a `kill -9` is truncated, a corrupt
    /// frame mid-log panics with a diagnostic), the incarnation number
    /// is bumped and persisted, and peers are asked for the missing
    /// update delta. Pair with [`System::reliable`].
    pub fn durability(mut self, policy: DurabilityPolicy, dir: impl Into<PathBuf>) -> Self {
        self.cfg.durability = Some(policy);
        self.durability_dir = Some(dir.into());
        self
    }
}

/// The deterministic simulator: virtual time, seeded schedules, injected
/// faults, and the decision points [`crate::explore`] enumerates.
#[derive(Default)]
pub struct Sim {
    pub(crate) cfg: SimConfig,
    schedule: Option<Box<dyn mc_sim::Schedule>>,
    seed_disks: Vec<(ProcId, CrashFs)>,
}

impl System {
    /// Creates a simulated system of `nprocs` processes under the model
    /// decision `models` (see [`System::on`]).
    pub fn new(nprocs: usize, models: impl IntoModels) -> Self {
        System::on(Sim::default(), nprocs, models)
    }

    /// Pre-seeds `proc`'s replica directory before the run — the durable
    /// files a reborn node recovers from. Lets repro artifacts (and
    /// corruption tests) start a run from an exact on-disk state.
    /// Takes effect only with durability on.
    pub fn seed_disk(mut self, proc: ProcId, fs: CrashFs) -> Self {
        self.exec.seed_disks.push((proc, fs));
        self
    }

    /// Seeds the schedule and latency jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.exec.cfg.seed = seed;
        self
    }

    /// Sets the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.exec.cfg.latency = latency;
        self
    }

    /// Overrides the full simulator configuration.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.exec.cfg = cfg;
        self
    }

    /// Replaces the kernel's tie-breaking schedule (used by
    /// [`crate::explore`]; custom [`mc_sim::Schedule`]s plug in here too).
    pub fn set_schedule(&mut self, schedule: Box<dyn mc_sim::Schedule>) {
        self.exec.schedule = Some(schedule);
    }

    /// Installs a network fault-injection plan: seeded message drops,
    /// duplicates, reordering, timed partitions, and node crash/restart
    /// windows (see [`FaultPlan`]). Combine with [`System::reliable`] to
    /// run the session layer that masks the faults, or leave it off to
    /// let the consistency checkers catch the resulting anomalies.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.exec.cfg.faults = plan;
        self
    }

    /// Enables (`Some`) or disables (`None`, the default) durable crash
    /// recovery ([`mc_proto::DurabilityPolicy`]): every replica keeps a
    /// write-ahead log with append-before-ack for its own writes plus
    /// compacted snapshots, so a crash-recover fault (timed via
    /// [`FaultPlan::crash_recover`], or explored via
    /// [`mc_sim::FaultBudget::crash_recover_of`]) rebuilds the replica
    /// from disk and fetches only the missing delta from peers. Combine
    /// with [`System::reliable`] so the recovery handshake survives the
    /// same faults it repairs.
    pub fn durability(mut self, policy: Option<DurabilityPolicy>) -> Self {
        self.cfg.durability = policy;
        self
    }

    /// Enables fault *exploration*: each message send becomes a decision
    /// point (deliver / drop / duplicate, within the budget) and the
    /// budget's listed nodes may crash at any scheduling step — see
    /// [`mc_sim::FaultBudget`]. Meant for [`crate::explore`], where the
    /// decision trace then enumerates fault placements exhaustively
    /// instead of sampling them from a [`FaultPlan`].
    pub fn explore_faults(mut self, budget: mc_sim::FaultBudget) -> Self {
        self.exec.cfg.explore_faults = Some(budget);
        self
    }
}

impl Executor for Sim {
    type Driver<'a> = SimDriver<'a>;

    fn run(system: System<Sim>) -> Result<Outcome, RunError> {
        let System { exec, cfg, record, trace, procs, .. } = system;
        let recorder: Option<Arc<Mutex<HistoryBuilder>>> =
            record.then(|| Arc::new(Mutex::new(HistoryBuilder::new(cfg.nprocs))));

        let nnodes = cfg.nnodes();
        let mut dsm = Dsm::new(cfg.clone());
        if record {
            dsm.server_mut().record_write_order();
        }
        for (p, fs) in exec.seed_disks {
            dsm.set_disk(p, fs);
        }
        let mut kernel = Kernel::new(dsm, nnodes, exec.cfg);
        if trace {
            kernel.enable_tracing();
        }
        if let Some(s) = exec.schedule {
            kernel.set_schedule(s);
        }
        for (i, f) in procs.into_iter().enumerate() {
            let recorder = recorder.clone();
            kernel.spawn(NodeId(i as u32), move |pctx| {
                let mut ctx = Ctx::new(SimDriver { proc: ProcId(i as u32), inner: pctx }, recorder);
                f(&mut ctx);
            });
        }
        let report = kernel.run()?;
        let (replicas, managers) = report.protocol.into_parts();
        Outcome::new(recorder, report.metrics, report.trace, Vec::new(), replicas, managers, cfg)
    }
}

/// The simulator's [`Driver`]: an operation is a kernel request, local
/// work advances the process's virtual clock.
#[derive(Debug)]
pub struct SimDriver<'a> {
    proc: ProcId,
    inner: &'a mut ProcCtx<Dsm>,
}

impl Driver for SimDriver<'_> {
    fn proc(&self) -> ProcId {
        self.proc
    }

    fn op(&mut self, req: Req) -> Resp {
        self.inner.request(req)
    }

    fn compute(&mut self, cost: SimTime) {
        self.inner.advance(cost);
    }
}

/// The per-process handle of a simulated run: [`MemCtx`]'s operations,
/// driven through the kernel.
pub type Ctx<'a> = MemCtx<SimDriver<'a>>;

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::{check, LockId, ProcModel};

    #[test]
    fn quick_producer_consumer_records_history() {
        let mut sys = System::new(2, ProcModel::MIXED).record(true).seed(3);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 41);
            ctx.write(Loc(1), 1);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), 1);
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(41));
        });
        let outcome = sys.run().unwrap();
        let h = outcome.history.as_ref().unwrap();
        assert_eq!(h.nprocs(), 2);
        assert_eq!(h.len(), 4);
        check::check_mixed(h).unwrap();
        assert_eq!(outcome.final_value(ProcId(1), Loc(0)), Value::Int(41));
    }

    #[test]
    fn lock_history_has_epochs() {
        let mut sys = System::new(2, ProcModel::MIXED).record(true);
        for _ in 0..2 {
            sys.spawn(|ctx| {
                ctx.with_write_lock(LockId(0), |ctx| {
                    let v = ctx.read_causal(Loc(0)).expect_i64();
                    ctx.write(Loc(0), v + 1);
                });
            });
        }
        let outcome = sys.run().unwrap();
        let h = outcome.history.as_ref().unwrap();
        assert_eq!(h.lock_epochs()[&LockId(0)].len(), 2);
        check::check_causal(h).unwrap();
        assert_eq!(outcome.final_value(ProcId(0), Loc(0)), Value::Int(2));
    }

    #[test]
    fn barrier_history_rounds() {
        let mut sys = System::new(3, ProcModel::PRAM).record(true);
        for i in 0..3u32 {
            sys.spawn(move |ctx| {
                ctx.write(Loc(i), i as i64);
                ctx.barrier();
                let _ = ctx.read_pram(Loc((i + 1) % 3));
                ctx.barrier();
            });
        }
        let h = sys.run().unwrap().history.unwrap();
        assert_eq!(h.barrier_rounds()[&BarrierId(0)].len(), 2);
        check::check_pram(&h).unwrap();
        mc_model::programs::check_pram_consistent_program(&h).unwrap();
    }

    #[test]
    fn counter_history_checks() {
        let mut sys = System::new(2, ProcModel::MIXED).record(true);
        sys.spawn(|ctx| {
            ctx.add(Loc(0), -1);
            ctx.add(Loc(0), -1);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(0), -2);
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(-2));
        });
        let h = sys.run().unwrap().history.unwrap();
        check::check_mixed(&h).unwrap();
    }

    #[test]
    fn spawning_too_many_processes_panics() {
        let mut sys = System::new(1, ProcModel::PRAM);
        sys.spawn(|_| {});
        sys.spawn(|_| {});
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run()));
        assert!(err.is_err());
    }

    #[test]
    fn deadlock_surfaces_as_run_error() {
        let mut sys = System::new(1, ProcModel::MIXED);
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(0), 99);
        });
        match sys.run() {
            Err(RunError::Sim(SimError::Deadlock { .. })) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compute_advances_virtual_time() {
        let mut sys = System::new(1, ProcModel::PRAM);
        sys.spawn(|ctx| {
            ctx.compute(SimTime::from_millis(3));
            ctx.write(Loc(0), 1);
        });
        let outcome = sys.run().unwrap();
        assert!(outcome.metrics.finish_time >= SimTime::from_millis(3));
    }

    #[test]
    fn subgroup_barriers_synchronize_only_their_group() {
        // Processes 0/1 phase through barrier b1, processes 2/3 through
        // b2 — independently. A final global barrier (b0) joins everyone.
        let mut sys = System::new(4, ProcModel::MIXED)
            .record(true)
            .barrier_group(BarrierId(1), vec![ProcId(0), ProcId(1)])
            .barrier_group(BarrierId(2), vec![ProcId(2), ProcId(3)]);
        for p in 0..4u32 {
            sys.spawn(move |ctx| {
                let group_bar = if p < 2 { BarrierId(1) } else { BarrierId(2) };
                let partner = Loc(p ^ 1);
                for round in 0..2i64 {
                    ctx.write(Loc(p), round * 10 + p as i64);
                    ctx.barrier_on(group_bar);
                    // Ghost read from the partner: must be fresh within
                    // the group.
                    let v = ctx.read_pram(partner);
                    assert_eq!(v, Value::Int(round * 10 + partner.0 as i64));
                    ctx.barrier_on(group_bar);
                }
                ctx.barrier_on(BarrierId(0));
            });
        }
        let outcome = sys.run().unwrap();
        let h = outcome.history.as_ref().unwrap();
        // Two rounds x 2 barriers per group, one global round.
        assert_eq!(h.barrier_rounds()[&BarrierId(1)].len(), 4);
        assert_eq!(h.barrier_rounds()[&BarrierId(2)].len(), 4);
        assert_eq!(h.barrier_rounds()[&BarrierId(0)].len(), 1);
        assert_eq!(h.barrier_rounds()[&BarrierId(1)][0].ops.len(), 2);
        check::check_mixed(h).unwrap();
        check::check_pram(h).unwrap();
    }

    #[test]
    fn outcome_verify_picks_mode_checker() {
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
            let mut sys = System::new(2, mode).record(true);
            sys.spawn(|ctx| {
                ctx.write(Loc(0), 3);
                ctx.write(Loc(1), 1);
            });
            sys.spawn(|ctx| {
                ctx.await_eq(Loc(1), 1);
                let _ = ctx.read_causal(Loc(0));
            });
            let outcome = sys.run().unwrap();
            outcome.verify().unwrap_or_else(|e| panic!("{mode}: {e}"));
            // Per-process metrics got recorded.
            assert!(outcome.metrics.proc(0).syscalls >= 2);
            assert!(outcome.metrics.proc(1).syscalls >= 2);
        }
    }

    #[test]
    fn verify_requires_recording() {
        let mut sys = System::new(1, ProcModel::PRAM);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 1);
        });
        let outcome = sys.run().unwrap();
        assert!(matches!(outcome.verify(), Err(VerifyError::NotRecorded)));
        assert!(VerifyError::NotRecorded.to_string().contains("recording"));
    }

    #[test]
    fn manager_sharding_preserves_semantics() {
        let run = |shards: usize| {
            let mut sys =
                System::new(3, ProcModel::MIXED).manager_shards(shards).record(true).seed(5);
            for p in 0..3u32 {
                sys.spawn(move |ctx| {
                    for round in 0..3 {
                        let lock = LockId((p + round) % 4);
                        ctx.with_write_lock(lock, |ctx| {
                            let v = ctx.read_causal(Loc(lock.0)).expect_i64();
                            ctx.write(Loc(lock.0), v + 1);
                        });
                        ctx.barrier_on(BarrierId(1)); // lives on shard 1 % shards
                    }
                });
            }
            sys.run().unwrap()
        };
        for shards in [1, 2, 3] {
            let outcome = run(shards);
            outcome.verify().unwrap_or_else(|e| panic!("{shards} shards: {e}"));
            // Total increments conserved across lock objects.
            let total: i64 =
                (0..4u32).map(|l| outcome.final_value(ProcId(0), Loc(l)).expect_i64()).sum();
            assert_eq!(total, 9, "{shards} shards");
        }
    }

    #[test]
    fn faulty_network_with_session_layer_still_satisfies_definitions() {
        // The issue's acceptance bar: >=5% drop, duplication, and a timed
        // partition (cutting node 0 off from everyone, manager included).
        // With the session layer on, every recorded history must still
        // pass the Definition 4 checker and no increment may be lost.
        for seed in [1u64, 7, 23] {
            let plan = FaultPlan::new()
                .drop_rate(0.05)
                .duplicate_rate(0.05)
                .reorder(SimTime::from_micros(30))
                .partition(
                    vec![NodeId(0)],
                    vec![NodeId(1), NodeId(2), NodeId(3)],
                    SimTime::from_micros(150),
                    SimTime::from_micros(450),
                );
            let mut sys = System::new(3, ProcModel::MIXED)
                .record(true)
                .seed(seed)
                .faults(plan)
                .reliable(true);
            for _ in 0..3 {
                sys.spawn(|ctx| {
                    for _ in 0..4 {
                        ctx.with_write_lock(LockId(0), |ctx| {
                            let v = ctx.read_causal(Loc(0)).expect_i64();
                            ctx.write(Loc(0), v + 1);
                        });
                    }
                });
            }
            let outcome = sys.run().unwrap();
            outcome.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                outcome.final_value(ProcId(0), Loc(0)),
                Value::Int(12),
                "seed {seed}: no increment lost"
            );
            assert!(outcome.metrics.faults.total() > 0, "seed {seed}: faults fired");
            assert!(
                outcome.metrics.kind("retransmit").count > 0,
                "seed {seed}: the session layer had to work"
            );
        }
    }

    #[test]
    fn unreliable_duplication_is_caught_by_the_pram_checker() {
        // With the session layer off, a duplicated update can trail its
        // original long enough to overwrite a newer write from the same
        // sender — a reader then travels backwards in that sender's order,
        // which the Definition 2 checker rejects. The same seed with the
        // session layer on is clean: duplicates are suppressed by
        // sequence number.
        let plan = || FaultPlan::new().duplicate_rate(0.4).reorder(SimTime::from_micros(60));
        let build = |seed: u64, reliable: bool| {
            let mut sys = System::new(2, ProcModel::PRAM)
                .record(true)
                .seed(seed)
                .faults(plan())
                .reliable(reliable);
            sys.spawn(|ctx| {
                for v in 1..=6i64 {
                    ctx.write(Loc(0), v);
                    ctx.compute(SimTime::from_micros(15));
                }
                ctx.write(Loc(1), 1);
            });
            sys.spawn(|ctx| {
                ctx.await_eq(Loc(1), 1);
                for _ in 0..10 {
                    let _ = ctx.read_pram(Loc(0));
                    ctx.compute(SimTime::from_micros(25));
                }
            });
            sys
        };
        let caught = (0..60u64).find(|&seed| {
            matches!(build(seed, false).run().unwrap().verify(), Err(VerifyError::Check(_)))
        });
        let seed = caught.expect("some seed must expose the duplication to the checker");
        build(seed, true)
            .run()
            .unwrap()
            .verify()
            .expect("the session layer masks the same fault plan");
    }

    #[test]
    fn sc_mode_runs_without_recording_replicas() {
        let mut sys = System::new(2, ProcModel::SC).record(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 5);
            ctx.write(Loc(1), 1);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), 1);
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(5));
        });
        let outcome = sys.run().unwrap();
        let h = outcome.history.as_ref().unwrap();
        check::check_causal(h).unwrap();
        // The server's write order rides along and covers every write.
        let order = h.write_order().expect("an SC run records its server's write order");
        assert_eq!(order.keys().copied().collect::<Vec<_>>(), [Loc(0), Loc(1)]);
        outcome.verify().expect("serializable in the server's order");
    }

    #[test]
    fn replicated_runs_record_no_write_order() {
        let mut sys = System::new(2, ProcModel::CAUSAL).record(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 5);
        });
        sys.spawn(|ctx| {
            let _ = ctx.read_causal(Loc(0));
        });
        assert!(sys.run().unwrap().history.unwrap().write_order().is_none());
    }
}
