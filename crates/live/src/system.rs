//! The live executor: processes as threads, links as channels, the
//! `mc-proto` state machines unchanged.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use mc_model::{HistoryBuilder, ProcId};
use mc_proto::{
    decode_wal, Driver, DsmConfig, FileDisk, Manager, ManagerNode, MemCtx, Msg, NodeIo, ProcNode,
    Replica, Req, Resp, Snapshot, StdFs, WalTail,
};
use mc_sim::{DurabilityStats, Metrics, Poll, SimTime, TraceEvent, Tracer};
use mixed_consistency::{Executor, Outcome, ParkStats, RunError, System, WallClock};

/// What travels on a node's inbox: a protocol message (tagged with the
/// sending node, which the session layer needs to identify the link) or
/// the shutdown signal.
///
/// Public so alternative transports (e.g. the TCP runtime in `mc-net`)
/// can feed decoded frames into the same node mains.
pub enum Wire {
    /// A protocol message from node `from`.
    Proto {
        /// The sending node.
        from: NodeId,
        /// The message itself.
        msg: Msg,
    },
    /// Drain-and-exit: the coordinator saw every process finish.
    Shutdown,
}

/// Node id in the live topology (same layout as the simulator: process
/// `i` on node `i`, manager shards after).
pub type NodeId = usize;

/// How a live node's outgoing messages reach their destination. The
/// in-process executor wires nodes with crossbeam channels
/// ([`ChannelTransport`]); `mc-net` substitutes TCP links carrying
/// length-prefixed binary frames. Everything above this seam — session
/// fencing, retransmission, batching, recovery — is shared.
pub trait Transport: Send + Sync {
    /// Delivers one protocol message. Returns `false` if the
    /// destination's inbox is gone (counted as a lost send unless the
    /// run is already shutting down).
    fn deliver(&self, from: NodeId, to: NodeId, msg: Msg) -> bool;

    /// Delivers like [`Transport::deliver`], for a caller with nothing
    /// else to do until a reply arrives: an application thread about to
    /// park, or a thread running a manager. A transport may then do the
    /// I/O on the calling thread instead of waking a writer for it.
    fn deliver_inline(&self, from: NodeId, to: NodeId, msg: Msg) -> bool {
        self.deliver(from, to, msg)
    }

    /// Tells node `to` to drain its inbox and exit.
    fn shutdown(&self, to: NodeId);

    /// Whether nothing sent from `from` to `to` is still on its way (the
    /// batch flush rule's question, [`NodeIo::link_idle`]).
    fn link_idle(&self, from: NodeId, to: NodeId) -> bool;

    /// Node `to` has taken a message from `from` off its inbox.
    fn taken(&self, from: NodeId, to: NodeId);
}

/// The in-process transport: one unbounded channel per process node;
/// a manager node runs on the sending thread.
pub struct ChannelTransport {
    inboxes: Vec<Sender<Wire>>,
    managers: Vec<ManagerSlot>,
    /// Messages sent and not yet taken, per link into a process node
    /// (`from * inboxes.len() + to`). One sent to a closed inbox stays
    /// counted: nobody asks about that link again. A hint for the batch
    /// flush rule that publishes nothing, hence `Relaxed`.
    in_flight: Vec<AtomicUsize>,
}

impl ChannelTransport {
    /// Process node `i` reads `inboxes[i]`; manager shard `k` (node
    /// `inboxes.len() + k`) is hosted in `managers[k]`.
    pub fn new(inboxes: Vec<Sender<Wire>>, managers: Vec<ManagerSlot>) -> Self {
        let links = (inboxes.len() + managers.len()) * inboxes.len();
        let in_flight = (0..links).map(|_| AtomicUsize::new(0)).collect();
        ChannelTransport { inboxes, managers, in_flight }
    }

    fn in_flight(&self, from: NodeId, to: NodeId) -> &AtomicUsize {
        &self.in_flight[from * self.inboxes.len() + to]
    }
}

impl Transport for ChannelTransport {
    fn deliver(&self, from: NodeId, to: NodeId, msg: Msg) -> bool {
        let Some(inbox) = self.inboxes.get(to) else {
            return self.managers[to - self.inboxes.len()].deliver(from, msg);
        };
        self.in_flight(from, to).fetch_add(1, Ordering::Relaxed);
        inbox.send(Wire::Proto { from, msg }).is_ok()
    }

    /// A manager runs on the sending thread: its link is never busy.
    fn link_idle(&self, from: NodeId, to: NodeId) -> bool {
        to >= self.inboxes.len() || self.in_flight(from, to).load(Ordering::Relaxed) == 0
    }

    fn taken(&self, from: NodeId, to: NodeId) {
        self.in_flight(from, to).fetch_sub(1, Ordering::Relaxed);
    }

    /// A manager node is taken out of its slot by the run itself.
    fn shutdown(&self, to: NodeId) {
        if let Some(inbox) = self.inboxes.get(to) {
            let _ = inbox.send(Wire::Shutdown);
        }
    }
}

/// A manager shard with no thread of its own: the node and its I/O
/// behind one lock, run by whichever thread delivers it a message — the
/// sending thread in-process, the reader thread that decoded the frame
/// over TCP. A manager only ever sends to process nodes, so running one
/// never enters another.
///
/// Empty until [`ManagerSlot::install`], and again once
/// [`ManagerSlot::take`] has taken the manager out at shutdown: a message
/// that finds the slot empty is refused, like a send to a closed inbox.
#[derive(Clone, Default)]
pub struct ManagerSlot(Arc<Mutex<Option<Hosted>>>);

struct Hosted {
    node: ManagerNode,
    io: LiveIo,
    /// No message has arrived since the last retransmission sweep.
    quiet: bool,
}

impl ManagerSlot {
    fn lock(&self) -> MutexGuard<'_, Option<Hosted>> {
        self.0.lock().expect("manager healthy")
    }

    /// Installs manager shard `node`, sending over `net`. With `record`
    /// on, it keeps the SC write order ([`Manager::take_write_order`]).
    pub fn install(&self, net: Net, cfg: Arc<DsmConfig>, node: NodeId, record: bool) {
        let mut manager = ManagerNode::new(nid(node), cfg);
        if record {
            manager.manager_mut().record_write_order();
        }
        // Whoever runs a manager has nothing else to do until it returns.
        let io = LiveIo::new(node, net, Sending::Inline);
        *self.lock() = Some(Hosted { node: manager, io, quiet: false });
    }

    /// Runs the manager on one message from node `from`, on the calling
    /// thread. `false` if no manager is installed.
    pub fn deliver(&self, from: NodeId, msg: Msg) -> bool {
        let mut slot = self.lock();
        let Some(hosted) = slot.as_mut() else { return false };
        hosted.quiet = false;
        hosted.node.on_message(nid(from), msg, &mut hosted.io);
        true
    }

    /// Blocks until `until` yields [`Wire::Shutdown`] or closes. Messages
    /// do not wait here — they run the manager on the thread that
    /// delivers them — so with the session layer on (`reliable`) this
    /// thread only retransmits what is unacknowledged, after every
    /// [`RETX_TICK`] in which no message arrived.
    pub fn sweep(&self, until: &Receiver<Wire>, reliable: bool) {
        loop {
            match next_wire(until, reliable) {
                Inbox::Wire(Wire::Proto { from, msg }) => {
                    self.deliver(from, msg);
                }
                Inbox::Tick => {
                    let mut slot = self.lock();
                    let Some(hosted) = slot.as_mut() else { continue };
                    if std::mem::replace(&mut hosted.quiet, true) {
                        hosted.node.retransmit(&mut hosted.io);
                    }
                }
                Inbox::Wire(Wire::Shutdown) | Inbox::Closed => return,
            }
        }
    }

    /// Takes the manager out, leaving the slot empty. A manager that
    /// panicked is still returned: the panic was raised on the thread
    /// that delivered to it.
    pub fn take(&self) -> Option<Manager> {
        let hosted = self.0.lock().unwrap_or_else(PoisonError::into_inner).take();
        hosted.map(|h| h.node.into_manager())
    }
}

/// How often a node with unacknowledged session payloads retransmits.
/// Wall-clock ticks stand in for the simulator's per-link timers; the
/// period is coarse enough that a healthy ack always wins the race.
const RETX_TICK: Duration = Duration::from_millis(1);

/// How long a parked operation keeps probing its inbox, yielding the CPU
/// between probes, before it blocks (DESIGN.md §4.5). A reply that lands
/// inside the window is taken by a thread that is still awake: the
/// sender skips the wake-up call and the receiver the trip through the
/// scheduler. The value is the knee of a measured sweep
/// (EXPERIMENTS.md §E11); a longer window catches few more replies and
/// burns the CPU a co-located thread could use.
const SPIN_WINDOW: Duration = Duration::from_micros(60);

/// Shared durability counters, aggregated into [`Outcome::wal`] at
/// teardown (the same quantities as the simulator's `Metrics::wal`).
#[derive(Default)]
pub struct WalCounters {
    appends: AtomicU64,
    synced: AtomicU64,
    /// Fsync calls that made at least one record durable (`fsyncs <
    /// synced` is the signature of effective group-commit batching).
    fsyncs: AtomicU64,
    /// Syncs that flushed the log's size too (at open, or after growth).
    full_syncs: AtomicU64,
    replayed: AtomicU64,
    snapshots: AtomicU64,
    recoveries: AtomicU64,
}

impl WalCounters {
    /// Snapshots the counters into the simulator's stats shape (`lost`
    /// is a simulator-only notion and reads zero here).
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            appends: self.appends.load(Ordering::Relaxed),
            synced: self.synced.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            full_syncs: self.full_syncs.load(Ordering::Relaxed),
            lost: 0,
            replayed: self.replayed.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }
}

/// SplitMix64: a statistically solid 64-bit mixer, enough for loss rolls.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The send side every live node shares: counters, the lossy shim, the
/// optional tracer — all in front of a pluggable [`Transport`].
#[derive(Clone)]
pub struct Net {
    transport: Arc<dyn Transport>,
    messages: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    /// Drop probability per message (the lossy-channel shim).
    loss: f64,
    seed: u64,
    rolls: Arc<AtomicU64>,
    /// Messages eaten by the lossy shim (intentional).
    lost: Arc<AtomicU64>,
    /// Messages that hit an already-closed inbox (a bug unless the run is
    /// already shutting down — asserted zero at teardown).
    closed_dropped: Arc<AtomicU64>,
    shutting_down: Arc<AtomicBool>,
    /// Shared structured-event tracer, when enabled. Live events are keyed
    /// by wall-clock time since `epoch`, reusing the simulator's trace
    /// format (so the same Perfetto/JSONL exporters apply).
    tracer: Option<Arc<Mutex<Tracer>>>,
    epoch: Instant,
}

impl Net {
    /// Builds a loss-free, untraced net over `transport`; [`Threads`]
    /// fills in the lossy shim, [`run_nodes`] the tracer.
    pub fn new(transport: Arc<dyn Transport>) -> Net {
        Net {
            transport,
            messages: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
            loss: 0.0,
            seed: 0,
            rolls: Arc::new(AtomicU64::new(0)),
            lost: Arc::new(AtomicU64::new(0)),
            closed_dropped: Arc::new(AtomicU64::new(0)),
            shutting_down: Arc::new(AtomicBool::new(false)),
            tracer: None,
            epoch: Instant::now(),
        }
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Modeled wire bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Records an instant event on the shared tracer (no-op when tracing
    /// is off), stamped with the wall-clock offset from the run start.
    fn trace_instant(
        &self,
        cat: &'static str,
        name: &'static str,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) {
        let Some(tracer) = &self.tracer else { return };
        let t = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
        tracer.lock().expect("tracer healthy").record(TraceEvent {
            t,
            dur: None,
            cat,
            name: name.to_string(),
            track: to as u32,
            args: vec![
                ("from", from.to_string()),
                ("to", to.to_string()),
                ("bytes", bytes.to_string()),
            ],
        });
    }

    /// `kind` names the message on the trace: what a session-wrapped
    /// payload carries (`"update"` is a more useful track label than
    /// `"sess_data"`), or `"retransmit"`. `inline`: the caller has
    /// nothing else to do ([`Transport::deliver_inline`]).
    fn send(&self, from: NodeId, to: NodeId, kind: &'static str, msg: Msg, inline: bool) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(msg.wire_bytes(), Ordering::Relaxed);
        if self.loss > 0.0 {
            let n = self.rolls.fetch_add(1, Ordering::Relaxed);
            let r = splitmix64(self.seed ^ n) as f64 / u64::MAX as f64;
            if r < self.loss {
                self.lost.fetch_add(1, Ordering::Relaxed);
                self.trace_instant("fault", "drop", from, to, msg.wire_bytes());
                return;
            }
        }
        self.trace_instant("msg", kind, from, to, msg.wire_bytes());
        let delivered = if inline {
            self.transport.deliver_inline(from, to, msg)
        } else {
            self.transport.deliver(from, to, msg)
        };
        if !delivered && !self.shutting_down.load(Ordering::SeqCst) {
            // A closed inbox before shutdown begins means a message was
            // silently lost while the run still depended on it.
            self.closed_dropped.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Converts a live node id into the simulator's node-id type, which keys
/// the shared session state machines.
fn nid(node: NodeId) -> mc_sim::NodeId {
    mc_sim::NodeId(node as u32)
}

/// The executor of `System<Threads>`: processes as threads, links as
/// in-process channels (see the crate docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Threads {
    /// Drop probability per message (the lossy-channel shim).
    loss: f64,
    seed: u64,
}

impl Threads {
    /// Threads behind the lossy-channel shim: every message is
    /// independently dropped with probability `loss` (rolls are derived
    /// from `seed`, so the drop pattern over send order is reproducible),
    /// and the drops count in [`Outcome::metrics`]`.faults.dropped`. Pair
    /// with [`System::reliable`] — raw protocols over lossy channels
    /// block forever and surface as per-operation timeouts.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss < 1.0`.
    pub fn lossy(loss: f64, seed: u64) -> Threads {
        assert!((0.0..1.0).contains(&loss), "loss probability must be in [0, 1)");
        Threads { loss, seed }
    }
}

impl Executor for Threads {
    type Driver<'a> = LiveDriver;

    fn run(system: System<Threads>) -> Result<Outcome, RunError> {
        let cfg = &system.cfg;
        let (senders, inboxes) = (0..cfg.nprocs).map(|_| unbounded()).unzip();
        let managers: Vec<ManagerSlot> =
            (cfg.nprocs..cfg.nnodes()).map(|_| ManagerSlot::default()).collect();
        let net = Net {
            loss: system.exec.loss,
            seed: system.exec.seed,
            ..Net::new(Arc::new(ChannelTransport::new(senders, managers.clone())))
        };
        // In-process channels need no quiesce: the shutdown enqueues
        // strictly after every message already sent, and a manager has
        // handled each message before its send returned.
        run_nodes(system, net, inboxes, managers, |_| {})
    }
}

impl WallClock for Threads {}

/// Runs a wall-clock system over `net`, the one node assembly both
/// wall-clock executors share ([`Threads`] hands it channels, `mc-net`
/// TCP links): process `i` on a thread of its own reading `inboxes[i]`,
/// manager shard `k` in `managers[k]`, run by whichever thread delivers
/// to it. Once every program is done, `quiesce` may hold the shutdown
/// until the transport has nothing in flight.
///
/// # Errors
///
/// As [`System::run`].
///
/// # Panics
///
/// Panics if a send found its inbox closed before shutdown began.
pub fn run_nodes<E>(
    system: System<E>,
    mut net: Net,
    inboxes: Vec<Receiver<Wire>>,
    managers: Vec<ManagerSlot>,
    quiesce: impl FnOnce(&Net),
) -> Result<Outcome, RunError>
where
    E: for<'a> Executor<Driver<'a> = LiveDriver>,
{
    let System { cfg, record, trace, timeout, durability_dir, procs, .. } = system;
    let nnodes = cfg.nnodes();
    assert_eq!(inboxes.len(), cfg.nprocs, "one inbox per process");
    assert_eq!(managers.len(), nnodes - cfg.nprocs, "one slot per manager shard");
    let recorder = record.then(|| Arc::new(Mutex::new(HistoryBuilder::new(cfg.nprocs))));
    let walc = Arc::new(WalCounters::default());
    net.tracer = trace.then(|| Arc::new(Mutex::new(Tracer::new())));

    // Manager shards get no thread; with the session layer on, one
    // per shard sweeps its retransmissions until `stop` closes.
    let shared = Arc::new(cfg.clone());
    let (stop, stopped) = unbounded::<Wire>();
    let mut sweepers = Vec::new();
    for (k, slot) in managers.iter().enumerate() {
        slot.install(net.clone(), shared.clone(), cfg.nprocs + k, record);
        if cfg.reliable {
            let (slot, stopped) = (slot.clone(), stopped.clone());
            sweepers
                .push(spawn_named(format!("mc-mgr-tick-{k}"), move || slot.sweep(&stopped, true)));
        }
    }
    let (done_tx, done_rx) = unbounded::<u32>();
    let mut proc_handles = Vec::new();
    for (i, (f, rx)) in procs.into_iter().zip(inboxes).enumerate() {
        let opts = NodeConfig {
            proc: ProcId(i as u32),
            cfg: cfg.clone(),
            timeout,
            durability_dir: durability_dir.clone(),
        };
        let net = net.clone();
        let recorder = recorder.clone();
        let done_tx = done_tx.clone();
        let walc = walc.clone();
        proc_handles.push(spawn_named(format!("mc-proc-{i}"), move || {
            run_proc_node(opts, rx, net, walc, recorder, f, move || {
                let _ = done_tx.send(i as u32);
            })
        }));
    }
    drop(done_tx);

    // One done signal per process, however long its program runs;
    // blocked operations are bounded by the per-op timeout (which
    // panics, which still sends done), so this cannot hang. An error
    // means every sender is gone: every thread exited.
    for _ in 0..proc_handles.len() {
        if done_rx.recv().is_err() {
            break;
        }
    }
    quiesce(&net);
    // From here on, sends may legitimately race closing inboxes
    // (e.g. a retransmission of an already-consumed grant whose ack
    // was lost), so stop treating them as silent losses; then tell
    // every node to drain and exit.
    net.shutting_down.store(true, Ordering::SeqCst);
    (0..nnodes).for_each(|node| net.transport.shutdown(node));

    let joined: Vec<_> = proc_handles.into_iter().map(JoinHandle::join).collect();
    drop(stop);
    for sweeper in sweepers {
        sweeper.join().expect("a sweep does not panic");
    }
    // Taken out even when a process failed: an in-process manager's
    // I/O holds the transport that holds its slot.
    let managers: Vec<Manager> =
        managers.iter().map(|slot| slot.take().expect("every shard installed")).collect();
    let ends = joined.into_iter().enumerate().map(|(i, joined)| {
        joined.map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            RunError::ProcPanicked { proc: ProcId(i as u32), message }
        })
    });
    let (replicas, parks) = ends.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();

    let dropped = net.closed_dropped.load(Ordering::SeqCst);
    assert_eq!(dropped, 0, "messages were silently lost on closed inboxes before shutdown");
    let mut metrics = Metrics::default();
    metrics.messages = net.messages();
    metrics.bytes = net.bytes();
    metrics.wal = walc.stats();
    metrics.faults.dropped = net.lost.load(Ordering::Relaxed);
    let trace = net.tracer.as_ref().map(|tr| tr.lock().expect("tracer healthy").clone());
    Outcome::new(recorder, metrics, trace, parks, replicas, managers, cfg)
}

/// Starts `f` on a thread called `name`.
fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new().name(name).spawn(f).expect("spawn a node thread")
}

/// The live [`NodeIo`]: sends go to the shared [`Net`], the log is a real
/// file. Timers are served by polling instead — process nodes and
/// [`ManagerSlot::sweep`] retransmit every [`RETX_TICK`] — so arming one
/// is a no-op here.
struct LiveIo {
    me: NodeId,
    net: Net,
    /// The write-ahead log (process nodes with durability on only).
    wal: Option<Wal>,
    sending: Sending,
    /// What `send` held back while `sending` is [`Sending::Held`].
    held: Vec<(NodeId, &'static str, Msg)>,
}

/// How [`LiveIo`] hands a message to the transport.
#[derive(Clone, Copy, PartialEq)]
enum Sending {
    /// To the link's writer: the caller has more to do.
    Queued,
    /// Held until the caller knows whether it parks
    /// ([`LiveIo::release`]).
    Held,
    /// Written by the caller, which has nothing else to do until a reply
    /// arrives ([`Transport::deliver_inline`]).
    Inline,
}

impl LiveIo {
    fn new(me: NodeId, net: Net, sending: Sending) -> LiveIo {
        LiveIo { me, net, wal: None, sending, held: Vec::new() }
    }

    /// Sends what was held, written by this thread if it `parks` next.
    fn release(&mut self, parks: bool) {
        self.sending = Sending::Queued;
        for (to, kind, msg) in self.held.drain(..) {
            self.net.send(self.me, to, kind, msg, parks);
        }
    }
}

struct Wal {
    disk: FileDisk,
    counters: Arc<WalCounters>,
}

impl NodeIo for LiveIo {
    fn send(&mut self, to: mc_sim::NodeId, kind: &'static str, msg: Msg) {
        match self.sending {
            Sending::Held => self.held.push((to.index(), kind, msg)),
            sending => self.net.send(self.me, to.index(), kind, msg, sending == Sending::Inline),
        }
    }

    fn arm_timer(&mut self, _delay: SimTime, _token: u64) {}

    fn link_idle(&mut self, to: mc_sim::NodeId) -> bool {
        self.net.transport.link_idle(self.me, to.index())
    }

    fn wal_append(&mut self, frame: &[u8]) {
        let Some(wal) = &mut self.wal else { return };
        wal.disk.append(frame).unwrap_or_else(|e| panic!("p{}: wal append failed: {e}", self.me));
        wal.counters.appends.fetch_add(1, Ordering::Relaxed);
    }

    fn wal_sync(&mut self) {
        let Some(wal) = &mut self.wal else { return };
        if wal.disk.staged_records() == 0 {
            return;
        }
        let n = wal.disk.sync().unwrap_or_else(|e| panic!("p{}: wal sync failed: {e}", self.me));
        wal.counters.synced.fetch_add(n, Ordering::Relaxed);
        wal.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        wal.counters.full_syncs.fetch_add(wal.disk.take_full_syncs(), Ordering::Relaxed);
    }

    fn install_snapshot(&mut self, snapshot: Vec<u8>, history: &[u8]) {
        let Some(wal) = &mut self.wal else { return };
        wal.disk
            .compact(&snapshot, history)
            .unwrap_or_else(|e| panic!("p{}: snapshot install failed: {e}", self.me));
        wal.counters.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    fn truncate_history(&mut self, len: usize) {
        let Some(wal) = &mut self.wal else { return };
        wal.disk
            .truncate_history(len)
            .unwrap_or_else(|e| panic!("p{}: history truncation failed: {e}", self.me));
    }
}

/// What a node main's inbox wait produced.
enum Inbox {
    Wire(Wire),
    /// Nothing arrived for a [`RETX_TICK`] (session layer on): time to
    /// retransmit whatever is unacknowledged.
    Tick,
    Closed,
}

/// Blocks for the next inbox item — in [`RETX_TICK`] slices when the
/// session layer needs wall-clock retransmission.
fn next_wire(rx: &Receiver<Wire>, reliable: bool) -> Inbox {
    if !reliable {
        return rx.recv().map_or(Inbox::Closed, Inbox::Wire);
    }
    match rx.recv_timeout(RETX_TICK) {
        Ok(w) => Inbox::Wire(w),
        Err(RecvTimeoutError::Timeout) => Inbox::Tick,
        Err(RecvTimeoutError::Disconnected) => Inbox::Closed,
    }
}

/// The kill-9 smokes' check: reads `proc`'s replica directory under
/// `dir` as the kill left it, repairing nothing, prints where its log
/// ends, and returns how many of `proc`'s own writes were durably acked
/// — what a restart must keep.
///
/// # Panics
///
/// Panics if the directory cannot be read, its snapshot does not
/// decode, or its log holds a corrupt frame (a torn tail is fine).
pub fn durable_own_writes(dir: &Path, proc: ProcId, cfg: &DsmConfig) -> u32 {
    let rdir = dir.join(format!("replica-{}", proc.index()));
    let (snap, wal) = FileDisk::load(&rdir).expect("load replica dir");
    let mut replica = match &snap {
        Some(bytes) => {
            let snap = Snapshot::decode(bytes).expect("snapshot must decode");
            Replica::from_snapshot(proc, cfg.nprocs, &snap)
        }
        None => Replica::new(proc, cfg.nprocs),
    };
    let written = snap.as_ref().map_or(0, Vec::len) + wal.len();
    let size = std::fs::metadata(rdir.join("wal.log")).map_or(0, |m| m.len());
    let (records, tail) = decode_wal(&wal);
    assert!(!matches!(tail, WalTail::Corrupt { .. }), "{proc}: valid prefix broken: {tail:?}");
    let replayed = records.len();
    records.into_iter().for_each(|rec| replica.replay_record(rec, cfg.substrate()));
    let durable = replica.applied[proc];
    let rdir = rdir.display();
    println!("{rdir}: log ends at byte {written} of {size}, {replayed} records, {tail:?}");
    println!("{rdir}: snapshot={} durable-own-writes={durable}", snap.is_some());
    durable
}

/// Opens process `proc`'s node and disk and, when prior state exists,
/// recovers through the path the simulator takes too:
/// [`FileDisk::recover`] (which refuses a corrupt frame and cuts a torn
/// tail, the expected `kill -9` residue), then [`ProcNode::recover`].
fn open_node(
    proc: ProcId,
    cfg: Arc<DsmConfig>,
    dir: Option<&std::path::Path>,
    walc: &Arc<WalCounters>,
    net: Net,
) -> (ProcNode, LiveIo) {
    let mut node = ProcNode::new(proc, cfg.clone());
    let mut io = LiveIo::new(proc.index(), net, Sending::Queued);
    let (Some(_), Some(dir)) = (cfg.durability, dir) else { return (node, io) };
    let rdir = dir.join(format!("replica-{}", proc.index()));
    let (mut disk, found) = FileDisk::recover(StdFs, &rdir)
        .unwrap_or_else(|e| panic!("{proc}: cannot recover {rdir:?}: {e}"));
    walc.full_syncs.fetch_add(disk.take_full_syncs(), Ordering::Relaxed);
    io.wal = Some(Wal { disk, counters: walc.clone() });
    if let Some(found) = found {
        walc.replayed.fetch_add(found.records.len() as u64, Ordering::Relaxed);
        walc.recoveries.fetch_add(1, Ordering::Relaxed);
        node.recover(found, &mut io);
    }
    (node, io)
}

/// Per-node options for [`run_proc_node`] — everything a process node
/// needs besides its inbox, the shared net, and its program body.
pub struct NodeConfig {
    /// Which process this node runs.
    pub proc: ProcId,
    /// The shared protocol configuration.
    pub cfg: DsmConfig,
    /// Blocked-operation timeout (panics past it; [`Duration::MAX`]
    /// never does).
    pub timeout: Duration,
    /// Durability root; each process keeps its WAL under
    /// `dir/replica-{i}`.
    pub durability_dir: Option<PathBuf>,
}

/// One process node's whole life, transport-agnostic: open (and maybe
/// recover) the node, run the program body, flush, signal `done`, then
/// keep ingesting — retransmitting on session ticks — until the
/// shutdown signal, and fsync on the way out. Both the in-process
/// executor and the TCP runtime (`mc-net`) call this; only the
/// [`Transport`] behind `net` and the inbox feeding `rx` differ. Returns
/// the final replica and how the program's parked operations were
/// answered.
pub fn run_proc_node(
    opts: NodeConfig,
    rx: Receiver<Wire>,
    net: Net,
    walc: Arc<WalCounters>,
    recorder: Option<Arc<Mutex<HistoryBuilder>>>,
    body: impl FnOnce(&mut LiveCtx),
    done: impl FnOnce(),
) -> (Replica, ParkStats) {
    let NodeConfig { proc, cfg, timeout, durability_dir } = opts;
    // A recovered node has already asked every peer for the updates its
    // disk never made durable; responses arrive during (or after) the
    // program and unblock its read gates.
    let (node, io) = open_node(proc, Arc::new(cfg), durability_dir.as_deref(), &walc, net);
    let driver = LiveDriver { node, io, inbox: rx, timeout, parks: ParkStats::default() };
    let mut ctx = LiveCtx::new(driver, recorder);
    // The done signal must fire even on panic (op timeouts panic by
    // design): the coordinator waits for exactly one signal per process,
    // with no wall-clock limit of its own — long-running programs are
    // fine.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
    let mut driver = ctx.into_driver();
    // Push out any still-buffered writes before signalling done: the
    // coordinator broadcasts shutdown once every done signal is in, and
    // sends racing that broadcast may land after a peer's ingest loop
    // has exited.
    driver.node.flush_updates(&mut driver.io);
    done();
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
    // Keep ingesting until shutdown so the replica converges and other
    // nodes' sends never hit a closed channel. With the session layer
    // on, keep retransmitting too: a peer may still be blocked on a
    // payload the network ate.
    let reliable = driver.node.cfg().reliable;
    loop {
        match next_wire(&driver.inbox, reliable) {
            Inbox::Wire(Wire::Proto { from, msg }) => driver.receive(from, msg),
            Inbox::Tick => driver.node.retransmit(&mut driver.io),
            Inbox::Wire(Wire::Shutdown) | Inbox::Closed => break,
        }
    }
    // Final fsync: a clean shutdown leaves no staged records behind
    // (only a kill can lose appended work).
    driver.io.wal_sync();
    (driver.node.into_replica(), driver.parks)
}

/// The per-process handle of the live executor: [`MemCtx`]'s operations,
/// driven against this thread's own [`ProcNode`].
pub type LiveCtx = MemCtx<LiveDriver>;

/// The live [`Driver`]: one [`ProcNode`] plus an inbox. Each operation
/// is `start(Req)`, then receive-and-`poll` until it completes.
pub struct LiveDriver {
    node: ProcNode,
    io: LiveIo,
    inbox: Receiver<Wire>,
    timeout: Duration,
    parks: ParkStats,
}

impl LiveDriver {
    /// Feeds one arriving wire message to the node.
    fn receive(&mut self, from: NodeId, msg: Msg) {
        self.io.net.transport.taken(from, self.io.me);
        self.node.on_message(nid(from), msg, &mut self.io);
    }

    /// Handles all already-delivered messages without blocking.
    fn drain(&mut self) {
        while let Ok(wire) = self.inbox.try_recv() {
            match wire {
                Wire::Proto { from, msg } => self.receive(from, msg),
                Wire::Shutdown => unreachable!("shutdown during the program"),
            }
        }
    }

    /// Waits until one more message arrives and handles it: first awake,
    /// probing the inbox for [`SPIN_WINDOW`], then blocked on it. With
    /// the session layer on, the blocked wait runs in [`RETX_TICK`]
    /// slices, retransmitting unacknowledged payloads between them.
    ///
    /// # Panics
    ///
    /// Panics (naming what the parked operation waits for) after the
    /// configured timeout, the spin window included — the live
    /// executor's deadlock detector.
    fn step(&mut self) {
        self.parks.parks += 1;
        let start = Instant::now();
        // `None`: a timeout past what an `Instant` holds never expires.
        let deadline = start.checked_add(self.timeout);
        let wire = match self.spin(start + SPIN_WINDOW.min(self.timeout)) {
            Some(wire) => {
                self.parks.caught += 1;
                wire
            }
            None => {
                self.parks.slept += 1;
                self.sleep(deadline)
            }
        };
        match wire {
            Wire::Proto { from, msg } => self.receive(from, msg),
            Wire::Shutdown => panic!(
                "{} received shutdown while waiting for {:?}",
                self.proc(),
                self.node.blocked()
            ),
        }
    }

    /// Probes the inbox until `until`, yielding between probes so that a
    /// thread sharing this CPU — the peer or the reader about to deliver
    /// the reply — runs meanwhile.
    fn spin(&self, until: Instant) -> Option<Wire> {
        loop {
            match self.inbox.try_recv() {
                Ok(wire) => return Some(wire),
                Err(TryRecvError::Empty) if Instant::now() < until => std::thread::yield_now(),
                Err(_) => return None,
            }
        }
    }

    /// Blocks for the next message until `deadline`.
    fn sleep(&mut self, deadline: Option<Instant>) -> Wire {
        let reliable = self.node.cfg().reliable;
        loop {
            let left =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            let wait = if reliable { RETX_TICK.min(left) } else { left };
            match self.inbox.recv_timeout(wait) {
                Ok(wire) => return wire,
                Err(RecvTimeoutError::Timeout) if deadline.is_none_or(|d| Instant::now() < d) => {
                    self.node.retransmit(&mut self.io);
                }
                Err(_) => {
                    // The session dump is the post-mortem for stuck
                    // clusters: which links stopped acking, and where.
                    let replica = self.node.replica();
                    panic!(
                        "{} timed out after {:?} waiting for {:?} \
                         (applied={:?} pending={} links={:?} {:?})",
                        self.proc(),
                        self.timeout,
                        self.node.blocked().expect("a parked operation"),
                        replica.applied,
                        replica.pending_len(),
                        self.node.session().map(|s| s.debug_links()),
                        self.parks,
                    )
                }
            }
        }
    }
}

impl Driver for LiveDriver {
    fn proc(&self) -> ProcId {
        self.node.proc()
    }

    /// Runs one operation to completion: enter it, take in what arrived,
    /// submit it, then receive and re-poll until the node answers. What
    /// is sent before the node knows whether it parks is held, so that a
    /// parking operation writes it on this thread.
    fn op(&mut self, req: Req) -> Resp {
        self.io.sending = Sending::Held;
        self.node.enter(&mut self.io);
        // A write reads nothing: while its batch is open, what arrived
        // waits, and so the peers' batches grow too, until the byte
        // bound closes this one.
        if !(matches!(req, Req::Write { .. } | Req::Update { .. }) && self.node.has_buffered()) {
            self.drain();
        }
        let mut poll = self.node.start(req, &mut self.io);
        self.io.release(matches!(poll, Poll::Pending));
        loop {
            match poll {
                Poll::Ready(resp) => break resp,
                Poll::Pending => {
                    self.step();
                    poll = self.node.poll(&mut self.io).map_or(Poll::Pending, Poll::Ready);
                }
            }
        }
    }
}
