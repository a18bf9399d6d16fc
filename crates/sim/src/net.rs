//! The simulated message-passing network: FIFO links, latency model,
//! delivery queue, and composable fault injection.
//!
//! Section 6 of the paper assumes "a message passing system with FIFO
//! communication channels". The network here delivers every message after
//! a configurable latency (`base + per_byte·size + jitter`), preserving
//! per-link FIFO order by default. That assumption can be *attacked* with
//! a [`FaultPlan`]: per-message drop and duplication probabilities,
//! reordering, timed partitions between node sets, and scheduled node
//! crash/restart windows that wipe in-flight deliveries. All faults are
//! drawn from the run's seeded RNG, so a faulty run is exactly as
//! reproducible as a clean one, and every injected fault is counted in
//! [`Metrics::faults`](crate::Metrics).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

use crate::metrics::Metrics;
use crate::schedule::{Schedule, Touch};
use crate::time::SimTime;
use crate::trace::{TraceEvent, Tracer};

/// Identifier of a network node (a memory replica or a manager).
///
/// Nodes are numbered densely from zero; the binding between processes and
/// nodes is up to the protocol (typically process `i` lives on node `i`
/// and managers occupy the tail ids).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Message latency model: `base + per_byte·size` plus uniform jitter in
/// `[0, jitter]`.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Fixed per-message cost.
    pub base: SimTime,
    /// Cost per payload byte, in nanoseconds.
    pub per_byte_ns: u64,
    /// Upper bound of the uniform jitter term.
    pub jitter: SimTime,
}

impl LatencyModel {
    /// A zero-latency model (useful for algorithmic tests).
    pub const INSTANT: LatencyModel =
        LatencyModel { base: SimTime::ZERO, per_byte_ns: 0, jitter: SimTime::ZERO };

    /// Samples the latency of one message of `bytes` payload bytes.
    pub fn sample(&self, bytes: u64, rng: &mut StdRng) -> SimTime {
        let jitter = if self.jitter == SimTime::ZERO {
            0
        } else {
            rng.gen_range(0..=self.jitter.as_nanos())
        };
        self.base + SimTime::from_nanos(bytes * self.per_byte_ns + jitter)
    }
}

impl Default for LatencyModel {
    /// A LAN-like default: 5µs base, 2ns/byte, 1µs jitter.
    fn default() -> Self {
        LatencyModel {
            base: SimTime::from_micros(5),
            per_byte_ns: 2,
            jitter: SimTime::from_micros(1),
        }
    }
}

/// A timed network partition separating node set `a` from node set `b`.
///
/// While `from <= now < until`, every message between a node in `a` and a
/// node in `b` (either direction) is silently dropped. Nodes in neither
/// set are unaffected.
#[derive(Clone, Debug)]
pub struct Partition {
    /// One side of the cut.
    pub a: Vec<NodeId>,
    /// The other side of the cut.
    pub b: Vec<NodeId>,
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive) — the heal time.
    pub until: SimTime,
}

impl Partition {
    fn severs(&self, x: NodeId, y: NodeId, at: SimTime) -> bool {
        if at < self.from || at >= self.until {
            return false;
        }
        let (in_a_x, in_b_x) = (self.a.contains(&x), self.b.contains(&x));
        let (in_a_y, in_b_y) = (self.a.contains(&y), self.b.contains(&y));
        (in_a_x && in_b_y) || (in_b_x && in_a_y)
    }
}

/// A scheduled crash (and optional restart) of one node.
///
/// While a node is down it neither sends nor receives: messages it would
/// have sent are suppressed and messages arriving at it are wiped —
/// including messages already in flight when the crash hits. The
/// *process* bound to the node keeps its program state (the paper's
/// processes are not the failure unit; the network interface is), so
/// after `restart_at` the protocol must re-earn convergence from its
/// peers — exactly what the session layer's retransmission provides.
#[derive(Clone, Copy, Debug)]
pub struct Crash {
    /// The crashing node.
    pub node: NodeId,
    /// Crash time (inclusive).
    pub at: SimTime,
    /// Restart time (exclusive end of the outage), or `None` to stay down.
    pub restart_at: Option<SimTime>,
}

impl Crash {
    fn down(&self, node: NodeId, at: SimTime) -> bool {
        node == self.node && at >= self.at && self.restart_at.map(|r| at < r).unwrap_or(true)
    }
}

/// A composable, seeded fault-injection plan for the network.
///
/// The default plan is quiet: reliable FIFO links, the paper's Section 6
/// assumption. Builder methods switch individual faults on; everything is
/// decided from the run's seeded RNG and the virtual clock, so runs stay
/// deterministic per seed.
///
/// # Examples
///
/// ```
/// use mc_sim::{FaultPlan, NodeId, SimTime};
///
/// let plan = FaultPlan::new()
///     .drop_rate(0.05)
///     .duplicate_rate(0.02)
///     .reorder(SimTime::from_micros(40))
///     .partition(vec![NodeId(0)], vec![NodeId(1)],
///                SimTime::from_millis(1), SimTime::from_millis(2))
///     .crash(NodeId(2), SimTime::from_millis(3), Some(SimTime::from_millis(4)));
/// assert!(!plan.is_quiet());
/// assert!(plan.is_down(NodeId(2), SimTime::from_millis(3)));
/// assert!(!plan.is_down(NodeId(2), SimTime::from_millis(4)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a message is delivered twice; the
    /// duplicate trails the original by an independent latency sample.
    pub duplicate: f64,
    /// Extra delivery jitter enabling reordering. `Some(j)` lifts per-link
    /// FIFO serialization and adds uniform extra delay in `[0, j]`.
    pub reorder: Option<SimTime>,
    /// Timed partitions between node sets.
    pub partitions: Vec<Partition>,
    /// Scheduled node outages.
    pub crashes: Vec<Crash>,
    /// Scheduled crash-recover events: at each `(node, at)` the node
    /// atomically loses its volatile state and in-flight deliveries, then
    /// recovers from whatever the protocol persisted (see
    /// [`Protocol::on_crash_recover`](crate::Protocol::on_crash_recover)).
    pub crash_recovers: Vec<(NodeId, SimTime)>,
}

impl FaultPlan {
    /// A quiet plan (reliable FIFO network).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn drop_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop rate {p} out of [0,1]");
        self.drop = p;
        self
    }

    /// Sets the per-message duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn duplicate_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate rate {p} out of [0,1]");
        self.duplicate = p;
        self
    }

    /// Enables reordering: lifts per-link FIFO serialization and adds
    /// uniform extra delivery jitter in `[0, jitter]`.
    pub fn reorder(mut self, jitter: SimTime) -> Self {
        self.reorder = Some(jitter);
        self
    }

    /// Adds a timed partition between node sets `a` and `b`, active for
    /// `from <= now < until`.
    pub fn partition(
        mut self,
        a: Vec<NodeId>,
        b: Vec<NodeId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.partitions.push(Partition { a, b, from, until });
        self
    }

    /// Schedules a crash of `node` at `at`, restarting at `restart_at`
    /// (or never, if `None`).
    pub fn crash(mut self, node: NodeId, at: SimTime, restart_at: Option<SimTime>) -> Self {
        self.crashes.push(Crash { node, at, restart_at });
        self
    }

    /// Schedules an atomic crash-recover of `node` at `at`: volatile
    /// protocol state and in-flight deliveries to the node are wiped at
    /// that instant, and the node immediately rejoins from its durable
    /// storage. Unlike [`FaultPlan::crash`] with a restart, the node's
    /// disk contents survive and the protocol's recovery path runs.
    pub fn crash_recover(mut self, node: NodeId, at: SimTime) -> Self {
        self.crash_recovers.push((node, at));
        self
    }

    /// `true` if the plan injects no faults at all.
    pub fn is_quiet(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder.is_none()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.crash_recovers.is_empty()
    }

    /// `true` if `node` is crashed at time `at`.
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.crashes.iter().any(|c| c.down(node, at))
    }

    /// `true` if a partition severs the `x`–`y` link at time `at`.
    pub fn is_partitioned(&self, x: NodeId, y: NodeId, at: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(x, y, at))
    }

    /// `true` if `node` crashes within the half-open window `(after, upto]`
    /// — i.e. a message in flight over that window would be wiped.
    fn crashes_within(&self, node: NodeId, after: SimTime, upto: SimTime) -> bool {
        self.crashes.iter().any(|c| c.node == node && c.at > after && c.at <= upto)
    }
}

/// A budget of *explored* faults, as opposed to the *sampled* faults of
/// [`FaultPlan`].
///
/// Under a fault plan, whether a given message is dropped is a coin flip
/// from the run's RNG — good for statistical testing, invisible to
/// exhaustive exploration. Under a fault budget, each message send
/// becomes a recorded *decision point* ([`Schedule::choose_fault`]):
/// deliver, drop (while drops remain in the budget), or duplicate (while
/// duplicates remain). Listed nodes may additionally crash at any
/// scheduling point, permanently. Exploration then enumerates every
/// combination of fault placements alongside every schedule, and any
/// violation found is replayable from its decision trace alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultBudget {
    /// Maximum number of message drops per run.
    pub max_drops: u32,
    /// Maximum number of message duplications per run.
    pub max_duplicates: u32,
    /// Nodes that may crash (permanently) at any scheduling point.
    pub crashes: Vec<NodeId>,
    /// Nodes that may crash *and recover from durable storage* (once per
    /// run) at any scheduling point.
    pub recovers: Vec<NodeId>,
}

impl FaultBudget {
    /// An empty budget (no faults explored).
    pub fn new() -> Self {
        FaultBudget::default()
    }

    /// Allows up to `n` message drops per run.
    pub fn drops(mut self, n: u32) -> Self {
        self.max_drops = n;
        self
    }

    /// Allows up to `n` message duplications per run.
    pub fn duplicates(mut self, n: u32) -> Self {
        self.max_duplicates = n;
        self
    }

    /// Allows `node` to crash permanently at any scheduling point.
    pub fn crash_of(mut self, node: NodeId) -> Self {
        if !self.crashes.contains(&node) {
            self.crashes.push(node);
        }
        self
    }

    /// Allows `node` to crash and recover from durable storage (once per
    /// run) at any scheduling point. Exploration enumerates the recovery
    /// timing alongside every schedule, which is how the "no acknowledged
    /// write is lost" property gets checked under crash-recover faults.
    pub fn crash_recover_of(mut self, node: NodeId) -> Self {
        if !self.recovers.contains(&node) {
            self.recovers.push(node);
        }
        self
    }

    /// `true` if the budget admits no faults at all.
    pub fn is_empty(&self) -> bool {
        self.max_drops == 0
            && self.max_duplicates == 0
            && self.crashes.is_empty()
            && self.recovers.is_empty()
    }
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for every random choice (latency jitter, tie-breaking, faults).
    pub seed: u64,
    /// The message latency model.
    pub latency: LatencyModel,
    /// Virtual cost charged per process syscall.
    pub local_cost: SimTime,
    /// The fault-injection plan. The default ([`FaultPlan::is_quiet`])
    /// preserves per-link FIFO delivery (the paper's assumption) *and*
    /// per-link bandwidth serialization.
    pub faults: FaultPlan,
    /// Fault *exploration* budget: when set, each message send becomes a
    /// schedule decision point (deliver / drop / duplicate) and the listed
    /// nodes may crash at any step — see [`FaultBudget`]. Orthogonal to
    /// the sampled `faults` plan; meant for exhaustive exploration.
    pub explore_faults: Option<FaultBudget>,
    /// Abort the run after this many simulator events (runaway guard).
    pub max_events: u64,
}

impl SimConfig {
    /// A configuration with the given seed and defaults elsewhere.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig { seed, ..SimConfig::default() }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            local_cost: SimTime::from_nanos(100),
            faults: FaultPlan::default(),
            explore_faults: None,
            max_events: 100_000_000,
        }
    }
}

/// A scheduled message delivery.
#[derive(Debug)]
pub(crate) struct Delivery<M> {
    pub at: SimTime,
    pub seq: u64,
    pub from: NodeId,
    pub to: NodeId,
    /// When the message was sent (feeds the delivery-latency histogram).
    pub sent: SimTime,
    pub msg: M,
}

impl<M> PartialEq for Delivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Delivery<M> {}

impl<M> PartialOrd for Delivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Delivery<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A pending protocol timer (see [`NetCtx::set_timer`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TimerEntry {
    pub at: SimTime,
    pub seq: u64,
    pub node: NodeId,
    pub token: u64,
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The network state owned by the kernel.
#[derive(Debug)]
pub(crate) struct Network<M> {
    pub queue: BinaryHeap<Reverse<Delivery<M>>>,
    /// Queued deliveries per directed link, `from * nnodes + to`.
    in_flight: Vec<u32>,
    pub link_last: HashMap<(NodeId, NodeId), SimTime>,
    pub next_seq: u64,
    pub timers: BinaryHeap<Reverse<TimerEntry>>,
    pub next_timer_seq: u64,
    pub nnodes: usize,
    /// Message drops spent from the [`FaultBudget`] this run.
    pub drops_used: u32,
    /// Message duplications spent from the [`FaultBudget`] this run.
    pub dups_used: u32,
    /// Nodes crashed by *explored* crash actions (permanent).
    pub downed: Vec<NodeId>,
    /// Nodes that already spent their explored crash-recover this run
    /// (each [`FaultBudget::crash_recover_of`] node recovers at most once
    /// per run, keeping the candidate set finite).
    pub recovers_used: Vec<NodeId>,
    /// State and queue accesses since the last footprint flush: every
    /// send destination and timer target of the currently executing step
    /// (queue touches), plus whatever the kernel attributes to the step
    /// itself.
    pub touched: Vec<Touch>,
    /// The structured event trace, when tracing is enabled
    /// (see [`Kernel::enable_tracing`](crate::Kernel::enable_tracing)).
    pub tracer: Option<Tracer>,
}

impl<M> Network<M> {
    pub fn new(nnodes: usize) -> Self {
        Network {
            queue: BinaryHeap::new(),
            in_flight: vec![0; nnodes * nnodes],
            link_last: HashMap::new(),
            next_seq: 0,
            timers: BinaryHeap::new(),
            next_timer_seq: 0,
            nnodes,
            drops_used: 0,
            dups_used: 0,
            downed: Vec::new(),
            recovers_used: Vec::new(),
            touched: Vec::new(),
            tracer: None,
        }
    }

    fn link(&self, from: NodeId, to: NodeId) -> usize {
        from.index() * self.nnodes + to.index()
    }

    /// Queues one delivery.
    fn enqueue(&mut self, d: Delivery<M>) {
        let link = self.link(d.from, d.to);
        self.in_flight[link] += 1;
        self.queue.push(Reverse(d));
    }

    /// Takes the earliest delivery off the queue.
    pub fn dequeue(&mut self) -> Option<Delivery<M>> {
        let Reverse(d) = self.queue.pop()?;
        let link = self.link(d.from, d.to);
        self.in_flight[link] -= 1;
        Some(d)
    }

    /// `true` if `node` was taken down by an explored crash action.
    pub fn is_downed(&self, node: NodeId) -> bool {
        self.downed.contains(&node)
    }

    /// Executes an explored crash: `node` goes down permanently,
    /// in-flight deliveries to it are wiped, and its pending timers are
    /// cancelled (unlike [`FaultPlan::crash`] outages, explored crashes
    /// are final, so a downed node's timers can never fire again — leaving
    /// them queued would only manufacture unreachable decision points).
    ///
    /// Returns `(wiped_deliveries, cancelled_timers)` so the caller can
    /// keep the conservation counters honest.
    pub fn crash_node(&mut self, node: NodeId) -> (u64, u64) {
        if self.is_downed(node) {
            return (0, 0);
        }
        self.downed.push(node);
        let queue = std::mem::take(&mut self.queue);
        let in_flight = queue.len();
        self.queue = queue.into_iter().filter(|Reverse(d)| d.to != node).collect();
        let wiped = (in_flight - self.queue.len()) as u64;
        for from in 0..self.nnodes as u32 {
            let link = self.link(NodeId(from), node);
            self.in_flight[link] = 0;
        }
        let timers = std::mem::take(&mut self.timers);
        let armed = timers.len();
        self.timers = timers.into_iter().filter(|Reverse(t)| t.node != node).collect();
        let cancelled = (armed - self.timers.len()) as u64;
        (wiped, cancelled)
    }

    /// Brings a downed node back up (the second half of a crash-recover:
    /// [`Network::crash_node`] wipes, `revive` rejoins). The node's wiped
    /// queue and cancelled timers stay wiped — only future I/O resumes.
    pub fn revive(&mut self, node: NodeId) {
        self.downed.retain(|&n| n != node);
    }
}

/// The interface protocols use to interact with the network and clock.
///
/// Handed to every [`Protocol`](crate::Protocol) callback; sending is
/// asynchronous (fire-and-forget), matching the paper's non-blocking
/// update broadcasts.
pub struct NetCtx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) net: &'a mut Network<M>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) config: &'a SimConfig,
    /// The run's schedule, consulted for explored fault decisions
    /// (`None` when no exploration is in progress).
    pub(crate) sched: Option<&'a mut dyn Schedule>,
}

impl<M: fmt::Debug> fmt::Debug for NetCtx<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetCtx")
            .field("now", &self.now)
            .field("net", &self.net)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<M> NetCtx<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of network nodes.
    pub fn nnodes(&self) -> usize {
        self.net.nnodes
    }

    /// The seeded random-number generator of the run.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The active fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.config.faults
    }

    /// `true` when structured tracing is enabled for this run.
    pub fn tracing(&self) -> bool {
        self.net.tracer.is_some()
    }

    /// Appends a key/value annotation to the most recently traced event.
    ///
    /// Protocols use this right after a [`send`](NetCtx::send) to attach
    /// metadata the network layer cannot know — notably the vector
    /// timestamp travelling on an update message. A no-op when tracing is
    /// disabled, so callers may annotate unconditionally. Callers that
    /// build an expensive annotation string should gate on
    /// [`tracing`](NetCtx::tracing) first.
    pub fn trace_annotate(&mut self, key: &'static str, value: String) {
        if let Some(tr) = self.net.tracer.as_mut() {
            tr.annotate_last(key, value);
        }
    }

    /// Records the backoff interval a retransmission waited, feeding the
    /// RTO histogram in [`Metrics`].
    pub fn record_rto(&mut self, rto: SimTime) {
        self.metrics.record_rto(rto);
    }

    /// Records `n` write-ahead-log records appended (staged) by the
    /// protocol's durable storage.
    pub fn record_wal_append(&mut self, n: u64) {
        self.metrics.wal.appends += n;
    }

    /// Records `n` staged WAL records made durable by an fsync. Calls
    /// with `n == 0` are no-ops (an fsync of an empty tail is free and
    /// not counted).
    pub fn record_wal_sync(&mut self, n: u64) {
        if n > 0 {
            self.metrics.wal.synced += n;
            self.metrics.wal.fsyncs += 1;
        }
    }

    /// Records `n` syncs that flushed a log's size as well as its data.
    pub fn record_full_syncs(&mut self, n: u64) {
        self.metrics.wal.full_syncs += n;
    }

    /// Records `n` staged WAL records lost to a crash before their fsync.
    pub fn record_wal_lost(&mut self, n: u64) {
        self.metrics.wal.lost += n;
    }

    /// Records `n` durable WAL records replayed during a recovery.
    pub fn record_wal_replayed(&mut self, n: u64) {
        self.metrics.wal.replayed += n;
    }

    /// Records one compacted snapshot installed by the protocol.
    pub fn record_snapshot(&mut self) {
        self.metrics.wal.snapshots += 1;
    }

    /// Records a fault instant in the trace (no-op when tracing is off).
    fn trace_fault(&mut self, name: &'static str, from: NodeId, to: NodeId, kind: &'static str) {
        if let Some(tr) = self.net.tracer.as_mut() {
            tr.record(TraceEvent {
                t: self.now,
                dur: None,
                cat: "fault",
                name: name.to_string(),
                track: to.0,
                args: vec![
                    ("from", from.0.to_string()),
                    ("to", to.0.to_string()),
                    ("kind", kind.to_string()),
                ],
            });
        }
    }

    /// Whether no delivery from `from` to `to` is queued. The answer
    /// depends on `to`'s queue, which joins the step's footprint: the
    /// query is ordered against the deliveries that change it.
    pub fn link_idle(&mut self, from: NodeId, to: NodeId) -> bool {
        self.net.touched.push(Touch::Queue(to));
        self.net.in_flight[self.net.link(from, to)] == 0
    }

    /// Schedules a protocol timer at `node`, `delay` from now.
    ///
    /// When it expires the kernel calls
    /// [`Protocol::on_timer`](crate::Protocol::on_timer) with `token`.
    /// Timers cannot be cancelled; protocols that re-arm conditionally
    /// should treat stale expirations as no-ops.
    pub fn set_timer(&mut self, node: NodeId, delay: SimTime, token: u64) {
        assert!(node.index() < self.net.nnodes, "timer on unknown node {node}");
        // Arming a timer only enqueues at `node`; it reads no replica
        // state there, so it commutes with `node`'s local operations.
        self.net.touched.push(Touch::Queue(node));
        if self.net.is_downed(node) {
            // An explored crash is permanent: the timer could never fire.
            return;
        }
        let seq = self.net.next_timer_seq;
        self.net.next_timer_seq += 1;
        self.metrics.timers_set += 1;
        let at = self.now + delay;
        self.net.timers.push(Reverse(TimerEntry { at, seq, node, token }));
        if let Some(tr) = self.net.tracer.as_mut() {
            tr.record(TraceEvent {
                t: self.now,
                dur: None,
                cat: "timer",
                name: "timer_set".to_string(),
                track: node.0,
                args: vec![
                    ("token", token.to_string()),
                    ("fires_at_ns", at.as_nanos().to_string()),
                ],
            });
        }
    }

    /// Sends `msg` from `from` to `to`, subject to the fault plan.
    ///
    /// `kind` labels the message in the metrics; `bytes` is the modeled
    /// payload size (it feeds the latency model and byte counters). The
    /// send is counted in the metrics even when a fault then suppresses
    /// its delivery — the sender paid for it either way.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range or if `from == to`
    /// (local interactions are not messages).
    pub fn send(&mut self, from: NodeId, to: NodeId, kind: &'static str, bytes: u64, msg: M)
    where
        M: Clone,
    {
        assert!(from.index() < self.net.nnodes, "send from unknown node {from}");
        assert!(to.index() < self.net.nnodes, "send to unknown node {to}");
        assert_ne!(from, to, "a node does not message itself");
        self.metrics.record_send(kind, bytes);
        // The destination's *queue* joins the sending step's conflict
        // footprint whether or not the message survives the fault
        // gauntlet: the attempt already orders this step against other
        // queue activity at `to` (deliveries, competing sends) — but a
        // send reads none of `to`'s replica state, so it commutes with
        // `to`'s purely local steps.
        self.net.touched.push(Touch::Queue(to));

        let faults = &self.config.faults;
        if faults.is_down(from, self.now) || self.net.is_downed(from) {
            // A crashed node's sends never reach the wire.
            self.metrics.faults.crash_dropped += 1;
            self.trace_fault("crash_drop", from, to, kind);
            return;
        }
        if faults.is_partitioned(from, to, self.now) {
            self.metrics.faults.partition_dropped += 1;
            self.trace_fault("partition_drop", from, to, kind);
            return;
        }
        if faults.drop > 0.0 && self.rng.gen_bool(faults.drop) {
            self.metrics.faults.dropped += 1;
            self.trace_fault("drop", from, to, kind);
            return;
        }

        let latency = self.config.latency.sample(bytes, self.rng);
        let mut at = self.now + latency;
        match faults.reorder {
            None => {
                // Finite link bandwidth: a link is occupied for the
                // message's transmission time, so back-to-back sends on one
                // link are serialized (store-and-forward). This also
                // preserves FIFO.
                let tx = SimTime::from_nanos(bytes * self.config.latency.per_byte_ns);
                let last = self.net.link_last.entry((from, to)).or_insert(SimTime::ZERO);
                if at < *last + tx {
                    at = *last + tx;
                }
                *last = at;
            }
            Some(jitter) if jitter > SimTime::ZERO => {
                at += SimTime::from_nanos(self.rng.gen_range(0..=jitter.as_nanos()));
            }
            Some(_) => {}
        }

        // Explored fault decision: with a budget and a schedule present,
        // this send's fate is a recorded branch point. Option 0 is always
        // "deliver"; drop and duplicate follow while their budgets last.
        let mut explored_duplicate = false;
        if let Some(budget) = &self.config.explore_faults {
            if let Some(sched) = self.sched.as_deref_mut() {
                let can_drop = self.net.drops_used < budget.max_drops;
                let can_dup = self.net.dups_used < budget.max_duplicates;
                let n = 1 + usize::from(can_drop) + usize::from(can_dup);
                if n > 1 {
                    let choice = sched.choose_fault(from, to, n);
                    if can_drop && choice == 1 {
                        self.net.drops_used += 1;
                        self.metrics.faults.dropped += 1;
                        self.trace_fault("drop", from, to, kind);
                        return;
                    }
                    if choice == n - 1 && can_dup && choice > 0 {
                        self.net.dups_used += 1;
                        explored_duplicate = true;
                    }
                }
            }
        }

        let duplicate =
            explored_duplicate || (faults.duplicate > 0.0 && self.rng.gen_bool(faults.duplicate));
        self.deliver_or_wipe(from, to, at, kind, bytes, msg.clone());
        if duplicate {
            // The duplicate trails the original by an independent latency
            // sample — like a retransmission by a confused switch — and is
            // never FIFO-serialized, so it can land out of order.
            self.metrics.faults.duplicated += 1;
            self.trace_fault("duplicate", from, to, kind);
            let extra = self.config.latency.sample(bytes, self.rng);
            let dup_at = at + extra;
            self.deliver_or_wipe(from, to, dup_at, kind, bytes, msg);
        }
    }

    /// Queues one delivery unless a crash wipes it in flight.
    fn deliver_or_wipe(
        &mut self,
        from: NodeId,
        to: NodeId,
        at: SimTime,
        kind: &'static str,
        bytes: u64,
        msg: M,
    ) {
        let faults = &self.config.faults;
        if self.net.is_downed(to)
            || faults.is_down(to, at)
            || faults.crashes_within(to, self.now, at)
        {
            self.metrics.faults.crash_dropped += 1;
            self.trace_fault("crash_drop", from, to, kind);
            return;
        }
        let seq = self.net.next_seq;
        self.net.next_seq += 1;
        self.net.enqueue(Delivery { at, seq, from, to, sent: self.now, msg });
        if let Some(tr) = self.net.tracer.as_mut() {
            // The in-flight message renders as a span on the sender's
            // track, from the send to the scheduled delivery.
            tr.record(TraceEvent {
                t: self.now,
                dur: Some(at.saturating_sub(self.now)),
                cat: "msg",
                name: kind.to_string(),
                track: from.0,
                args: vec![
                    ("from", from.0.to_string()),
                    ("to", to.0.to_string()),
                    ("bytes", bytes.to_string()),
                ],
            });
        }
    }

    /// Broadcasts `msg` from `from` to every other node.
    pub fn broadcast(&mut self, from: NodeId, kind: &'static str, bytes: u64, msg: M)
    where
        M: Clone,
    {
        for to in 0..self.net.nnodes as u32 {
            if to != from.0 {
                self.send(from, NodeId(to), kind, bytes, msg.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx_parts() -> (Network<u32>, StdRng, Metrics, SimConfig) {
        (Network::new(3), StdRng::seed_from_u64(7), Metrics::new(), SimConfig::with_seed(7))
    }

    #[test]
    fn send_schedules_delivery_after_latency() {
        let (mut net, mut rng, mut metrics, config) = ctx_parts();
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.send(NodeId(0), NodeId(1), "test", 8, 42);
        assert_eq!(metrics.messages, 1);
        let Reverse(d) = net.queue.pop().unwrap();
        assert!(d.at >= config.latency.base);
        assert_eq!(d.msg, 42);
        assert_eq!((d.from, d.to), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn fifo_preserves_link_order() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.latency.jitter = SimTime::from_millis(1); // huge jitter
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        for i in 0..50u32 {
            ctx.send(NodeId(0), NodeId(1), "test", 0, i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut order = Vec::new();
        while let Some(Reverse(d)) = net.queue.pop() {
            assert!((d.at, d.seq) >= last, "heap pops in time order");
            last = (d.at, d.seq);
            order.push(d.msg);
        }
        // FIFO: payloads in send order.
        let expect: Vec<u32> = (0..50).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn reordering_fault_can_reorder() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.faults = FaultPlan::new().reorder(SimTime::from_millis(1));
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        for i in 0..50u32 {
            ctx.send(NodeId(0), NodeId(1), "test", 0, i);
        }
        let mut order = Vec::new();
        while let Some(Reverse(d)) = net.queue.pop() {
            order.push(d.msg);
        }
        let expect: Vec<u32> = (0..50).collect();
        assert_ne!(order, expect, "with huge extra jitter some reordering occurs");
    }

    #[test]
    fn drop_faults_suppress_deliveries_but_count_sends() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.faults = FaultPlan::new().drop_rate(0.5);
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        for i in 0..200u32 {
            ctx.send(NodeId(0), NodeId(1), "test", 0, i);
        }
        assert_eq!(metrics.messages, 200, "sends are counted before faults");
        let delivered = net.queue.len() as u64;
        assert_eq!(delivered + metrics.faults.dropped, 200);
        assert!(metrics.faults.dropped > 50, "p=0.5 drops roughly half");
        assert!(delivered > 50);
    }

    #[test]
    fn duplicate_faults_add_trailing_copies() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.faults = FaultPlan::new().duplicate_rate(1.0);
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.send(NodeId(0), NodeId(1), "test", 0, 7);
        assert_eq!(metrics.messages, 1);
        assert_eq!(metrics.faults.duplicated, 1);
        let mut ats = Vec::new();
        while let Some(Reverse(d)) = net.queue.pop() {
            assert_eq!(d.msg, 7);
            ats.push(d.at);
        }
        assert_eq!(ats.len(), 2);
        assert!(ats[1] > ats[0], "duplicate trails the original");
    }

    #[test]
    fn partitions_cut_both_directions_then_heal() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.faults = FaultPlan::new().partition(
            vec![NodeId(0)],
            vec![NodeId(1)],
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        {
            let mut ctx = NetCtx {
                now: SimTime::ZERO,
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &config,
                sched: None,
            };
            ctx.send(NodeId(0), NodeId(1), "test", 0, 1);
            ctx.send(NodeId(1), NodeId(0), "test", 0, 2);
            // A link outside the cut is unaffected.
            ctx.send(NodeId(2), NodeId(0), "test", 0, 3);
        }
        assert_eq!(metrics.faults.partition_dropped, 2);
        assert_eq!(net.queue.len(), 1);
        // After the heal everything flows again.
        let mut ctx = NetCtx {
            now: SimTime::from_millis(1),
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.send(NodeId(0), NodeId(1), "test", 0, 4);
        assert_eq!(metrics.faults.partition_dropped, 2);
        assert_eq!(net.queue.len(), 2);
    }

    #[test]
    fn crashes_wipe_in_flight_and_suppress_io() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.latency = LatencyModel::INSTANT;
        config.faults = FaultPlan::new().crash(
            NodeId(1),
            SimTime::from_micros(10),
            Some(SimTime::from_micros(20)),
        );
        // In flight across the crash time: wiped.
        {
            let mut cfg2 = config.clone();
            cfg2.latency = LatencyModel {
                base: SimTime::from_micros(15),
                per_byte_ns: 0,
                jitter: SimTime::ZERO,
            };
            let mut ctx = NetCtx {
                now: SimTime::ZERO,
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &cfg2,
                sched: None,
            };
            ctx.send(NodeId(0), NodeId(1), "test", 0, 1);
        }
        assert_eq!(metrics.faults.crash_dropped, 1);
        // Arriving while down: wiped.
        {
            let mut ctx = NetCtx {
                now: SimTime::from_micros(12),
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &config,
                sched: None,
            };
            ctx.send(NodeId(0), NodeId(1), "test", 0, 2);
        }
        assert_eq!(metrics.faults.crash_dropped, 2);
        // Sent by the crashed node while down: suppressed.
        {
            let mut ctx = NetCtx {
                now: SimTime::from_micros(12),
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &config,
                sched: None,
            };
            ctx.send(NodeId(1), NodeId(0), "test", 0, 3);
        }
        assert_eq!(metrics.faults.crash_dropped, 3);
        assert!(net.queue.is_empty());
        // After restart the node participates again.
        let mut ctx = NetCtx {
            now: SimTime::from_micros(25),
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.send(NodeId(0), NodeId(1), "test", 0, 4);
        ctx.send(NodeId(1), NodeId(0), "test", 0, 5);
        assert_eq!(net.queue.len(), 2);
        assert_eq!(metrics.faults.crash_dropped, 3);
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut net: Network<u32> = Network::new(3);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut metrics = Metrics::new();
            let mut config = SimConfig::with_seed(seed);
            config.faults = FaultPlan::new()
                .drop_rate(0.2)
                .duplicate_rate(0.2)
                .reorder(SimTime::from_micros(50));
            let mut ctx = NetCtx {
                now: SimTime::ZERO,
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &config,
                sched: None,
            };
            for i in 0..500u32 {
                ctx.send(NodeId(0), NodeId(1), "test", 4, i);
            }
            (metrics.faults, net.queue.len())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0, "different seeds draw different faults");
    }

    #[test]
    fn timers_are_ordered_and_counted() {
        let (mut net, mut rng, mut metrics, config) = ctx_parts();
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.set_timer(NodeId(1), SimTime::from_micros(30), 7);
        ctx.set_timer(NodeId(0), SimTime::from_micros(10), 3);
        assert_eq!(metrics.timers_set, 2);
        let Reverse(first) = net.timers.pop().unwrap();
        assert_eq!((first.node, first.token), (NodeId(0), 3));
        let Reverse(second) = net.timers.pop().unwrap();
        assert_eq!((second.node, second.token), (NodeId(1), 7));
        assert!(second.at > first.at);
    }

    #[test]
    fn broadcast_reaches_everyone_else() {
        let (mut net, mut rng, mut metrics, config) = ctx_parts();
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.broadcast(NodeId(1), "update", 4, 9);
        assert_eq!(metrics.messages, 2);
        let targets: Vec<NodeId> = net.queue.drain().map(|Reverse(d)| d.to).collect();
        assert!(targets.contains(&NodeId(0)) && targets.contains(&NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "does not message itself")]
    fn self_send_panics() {
        let (mut net, mut rng, mut metrics, config) = ctx_parts();
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.send(NodeId(0), NodeId(0), "test", 0, 0);
    }

    /// A schedule that returns a fixed fault choice at every fault
    /// decision point (and 0 elsewhere).
    struct FixedFault(usize);

    impl Schedule for FixedFault {
        fn choose(&mut self, _n: usize) -> usize {
            0
        }
        fn choose_fault(&mut self, _from: NodeId, _to: NodeId, n: usize) -> usize {
            self.0.min(n - 1)
        }
    }

    #[test]
    fn fault_budget_branches_drop_until_spent() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.explore_faults = Some(FaultBudget::new().drops(2));
        let mut sched = FixedFault(1); // always pick "drop" while allowed
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: Some(&mut sched),
        };
        for i in 0..5u32 {
            ctx.send(NodeId(0), NodeId(1), "test", 0, i);
        }
        assert_eq!(metrics.faults.dropped, 2, "budget caps explored drops");
        assert_eq!(net.queue.len(), 3, "remaining sends deliver normally");
        assert_eq!(net.drops_used, 2);
    }

    #[test]
    fn fault_budget_duplicate_option_spends_budget() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.latency = LatencyModel::INSTANT;
        config.explore_faults = Some(FaultBudget::new().duplicates(1));
        let mut sched = FixedFault(1); // with only dup available: option 1
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: Some(&mut sched),
        };
        ctx.send(NodeId(0), NodeId(1), "test", 0, 7);
        ctx.send(NodeId(0), NodeId(1), "test", 0, 8);
        assert_eq!(metrics.faults.duplicated, 1);
        assert_eq!(net.queue.len(), 3, "one original duplicated, one plain");
        assert_eq!(net.dups_used, 1);
    }

    #[test]
    fn fault_budget_without_schedule_delivers_everything() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        config.explore_faults = Some(FaultBudget::new().drops(5).duplicates(5));
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        for i in 0..4u32 {
            ctx.send(NodeId(0), NodeId(1), "test", 0, i);
        }
        assert_eq!(net.queue.len(), 4);
        assert_eq!(metrics.faults.dropped, 0);
    }

    #[test]
    fn explored_crash_is_permanent_and_purges_state() {
        let (mut net, mut rng, mut metrics, config) = ctx_parts();
        {
            let mut ctx = NetCtx {
                now: SimTime::ZERO,
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &config,
                sched: None,
            };
            ctx.send(NodeId(0), NodeId(1), "test", 0, 1);
            ctx.send(NodeId(0), NodeId(2), "test", 0, 2);
            ctx.set_timer(NodeId(1), SimTime::from_micros(5), 9);
            ctx.set_timer(NodeId(2), SimTime::from_micros(5), 9);
        }
        let (wiped, cancelled) = net.crash_node(NodeId(1));
        assert_eq!((wiped, cancelled), (1, 1), "crash reports what it wiped");
        assert!(net.is_downed(NodeId(1)));
        assert_eq!(net.queue.len(), 1, "delivery to the downed node wiped");
        assert_eq!(net.timers.len(), 1, "timer at the downed node cancelled");
        assert_eq!(net.crash_node(NodeId(1)), (0, 0), "second crash is a no-op");
        // While down: no new I/O or timers involving the node.
        let mut ctx = NetCtx {
            now: SimTime::from_micros(1),
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.send(NodeId(0), NodeId(1), "test", 0, 3);
        ctx.send(NodeId(1), NodeId(0), "test", 0, 4);
        ctx.set_timer(NodeId(1), SimTime::from_micros(5), 9);
        assert_eq!(net.queue.len(), 1);
        assert_eq!(net.timers.len(), 1);
        assert_eq!(metrics.faults.crash_dropped, 2);
    }

    #[test]
    fn sends_and_timers_record_touched_nodes() {
        let (mut net, mut rng, mut metrics, config) = ctx_parts();
        let mut ctx = NetCtx {
            now: SimTime::ZERO,
            net: &mut net,
            rng: &mut rng,
            metrics: &mut metrics,
            config: &config,
            sched: None,
        };
        ctx.send(NodeId(0), NodeId(2), "test", 0, 1);
        ctx.set_timer(NodeId(1), SimTime::from_micros(5), 0);
        assert_eq!(net.touched, vec![Touch::Queue(NodeId(2)), Touch::Queue(NodeId(1))]);
    }

    #[test]
    fn tracing_records_spans_faults_and_annotations() {
        let (mut net, mut rng, mut metrics, mut config) = ctx_parts();
        net.tracer = Some(Tracer::new());
        config.faults = FaultPlan::new().drop_rate(1.0);
        {
            let mut ctx = NetCtx {
                now: SimTime::ZERO,
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &config,
                sched: None,
            };
            assert!(ctx.tracing());
            ctx.send(NodeId(0), NodeId(1), "update", 8, 1);
        }
        config.faults = FaultPlan::new();
        {
            let mut ctx = NetCtx {
                now: SimTime::ZERO,
                net: &mut net,
                rng: &mut rng,
                metrics: &mut metrics,
                config: &config,
                sched: None,
            };
            ctx.send(NodeId(0), NodeId(1), "update", 8, 2);
            ctx.trace_annotate("vclock", "[1, 0, 0]".to_string());
            ctx.set_timer(NodeId(0), SimTime::from_micros(5), 3);
            ctx.record_rto(SimTime::from_micros(50));
        }
        let tr = net.tracer.take().unwrap();
        let events: Vec<_> = tr.events().collect();
        assert_eq!(events.len(), 3);
        assert_eq!((events[0].cat, events[0].name.as_str()), ("fault", "drop"));
        assert_eq!((events[1].cat, events[1].name.as_str()), ("msg", "update"));
        assert!(events[1].dur.is_some(), "messages trace as spans");
        assert!(events[1].args.iter().any(|(k, v)| *k == "vclock" && v == "[1, 0, 0]"));
        assert_eq!(events[2].name, "timer_set");
        assert_eq!(metrics.rto_hist.count(), 1);
    }

    #[test]
    fn latency_model_components() {
        let mut rng = StdRng::seed_from_u64(1);
        let m =
            LatencyModel { base: SimTime::from_micros(5), per_byte_ns: 2, jitter: SimTime::ZERO };
        assert_eq!(m.sample(100, &mut rng), SimTime::from_nanos(5_200));
        assert_eq!(LatencyModel::INSTANT.sample(1000, &mut rng), SimTime::ZERO);
        let j =
            LatencyModel { base: SimTime::ZERO, per_byte_ns: 0, jitter: SimTime::from_nanos(10) };
        for _ in 0..100 {
            assert!(j.sample(0, &mut rng).as_nanos() <= 10);
        }
    }
}
