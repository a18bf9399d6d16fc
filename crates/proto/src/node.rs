//! The per-process protocol core: what one node does on each operation
//! and each message, and in which order it logs, applies and sends.
//!
//! [`ProcNode`] is one process's whole protocol state — its [`Replica`],
//! out-batches, link shadow clocks, flush waiters, lock/barrier/SC
//! bookkeeping, recovery dedup state and session links — driven through
//! the `Req → Poll<Resp>` machine ([`ProcNode::start`] /
//! [`ProcNode::poll`]) plus [`ProcNode::on_message`] and
//! [`ProcNode::on_timer`]. [`ManagerNode`] is the same for a manager
//! shard. Neither performs I/O itself: every effect is a call on a
//! [`NodeIo`], so the simulator (virtual time, a modeled disk) and the
//! live executors (threads or TCP, real files) run the *same* code and
//! differ only in the adaptor they pass in.
//!
//! Effects are calls, not a returned list: static dispatch keeps the
//! live hot path allocation-free, and the order of the calls *is* the
//! protocol's logging discipline (append before apply, fsync before the
//! first send that could expose a write) — a recording `NodeIo` in this
//! module's tests pins it.

use std::collections::HashMap;
use std::sync::Arc;

use mc_model::{BarrierId, Loc, LockId, LockMode, ProcId, ReadLabel, VClock, Value, WriteId};
use mc_sim::{NodeId, Poll, SimTime};

use crate::config::{DsmConfig, LockPropagation, Substrate};
use crate::durability::{self, Recovery, Snapshot, WalRecord};
use crate::manager::Manager;
use crate::msg::{BatchEntry, GrantInfo, Msg, UpdatePayload};
use crate::replica::Replica;
use crate::session::{self, LinkSender, Session, SessionConfig};
use crate::wire;

/// Everything a node asks of its executor. Two production
/// implementors: the simulator's adaptor over `mc_sim::NetCtx` and a
/// modeled disk, and the live adaptor over a transport and real files.
pub trait NodeIo {
    /// Puts `msg` on the wire toward `to`. `kind` labels the message in
    /// the executor's metrics (the inner payload's kind for session
    /// data, `"retransmit"` for resends).
    fn send(&mut self, to: NodeId, kind: &'static str, msg: Msg);

    /// Asks for an `on_timer(token)` call `delay` from now. Timers
    /// cannot be cancelled; a stale expiry is a no-op for the node. An
    /// executor that polls on its own clock instead (the live
    /// retransmit sweep) may ignore the request.
    fn arm_timer(&mut self, delay: SimTime, token: u64);

    /// Whether nothing this node sent toward `to` is still on its way
    /// ([`ProcNode::enter`]).
    fn link_idle(&mut self, to: NodeId) -> bool;

    /// Stages one framed write-ahead-log record (durable only after
    /// [`NodeIo::wal_sync`]).
    fn wal_append(&mut self, frame: &[u8]);

    /// Makes every staged record durable (the fsync).
    fn wal_sync(&mut self);

    /// Atomically installs a snapshot, appends `history` (the own
    /// writes minted since the previous compaction, as
    /// [`durability::put_history`] frames) to the history segment, and
    /// truncates the log — one commit. The node has synced the log
    /// first.
    fn install_snapshot(&mut self, snapshot: Vec<u8>, history: &[u8]);

    /// Cuts the history segment to its first `len` bytes. Recovery calls
    /// it to drop a tail a compaction appended but never committed.
    fn truncate_history(&mut self, len: usize);

    /// Whether structured tracing is on (gates annotation strings).
    fn tracing(&self) -> bool {
        false
    }

    /// Attaches metadata to the event the last [`NodeIo::send`] traced.
    fn annotate(&mut self, key: &'static str, value: String) {
        let _ = (key, value);
    }

    /// Records the backoff interval a retransmission waited.
    fn record_rto(&mut self, waited: SimTime) {
        let _ = waited;
    }
}

/// A memory or synchronization operation submitted by a process.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    /// Labeled read (a process with a fixed lattice point reads by its
    /// point instead: PRAM, causal, or at the SC server).
    Read {
        /// Location.
        loc: Loc,
        /// Consistency label (honored under [`mc_model::ProcModel::ByLabel`]).
        label: ReadLabel,
    },
    /// Write.
    Write {
        /// Location.
        loc: Loc,
        /// Value stored.
        value: Value,
    },
    /// Commutative increment (counter objects, Section 5.3).
    Update {
        /// Location.
        loc: Loc,
        /// Signed delta (integer or float).
        delta: Value,
    },
    /// Acquire a read or write lock.
    Lock {
        /// Lock object.
        lock: LockId,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// Release a lock.
    Unlock {
        /// Lock object.
        lock: LockId,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// Arrive at (and pass) a barrier.
    Barrier {
        /// Barrier object.
        barrier: BarrierId,
    },
    /// `await(loc = value)`.
    Await {
        /// Location.
        loc: Loc,
        /// Value awaited.
        value: Value,
    },
}

/// The response to a [`Req`].
#[derive(Clone, Debug, PartialEq)]
pub enum Resp {
    /// Read result.
    Value {
        /// The value returned.
        value: Value,
        /// The write that produced it (`None` = initial value).
        writer: Option<WriteId>,
    },
    /// Write/update result.
    Wrote {
        /// The minted write identity.
        id: WriteId,
    },
    /// Lock, unlock.
    Done,
    /// Barrier passed.
    BarrierPassed {
        /// The round that completed.
        round: u32,
    },
    /// Await satisfied.
    Awaited {
        /// The observed value.
        value: Value,
        /// The writes whose application produced it.
        writers: Vec<WriteId>,
    },
}

/// What a parked process is waiting for. Its `Debug` form is the
/// diagnostic both executors print for a stuck operation.
#[derive(Clone, Debug)]
pub enum Blocked {
    /// A read whose visibility gate is not yet met.
    Read {
        /// Location.
        loc: Loc,
        /// The effective label being waited under.
        label: ReadLabel,
    },
    /// `await(loc = value)` on a value not yet applied.
    Await {
        /// Location.
        loc: Loc,
        /// Value awaited.
        value: Value,
    },
    /// A lock request awaiting its grant (and, under lazy propagation,
    /// the writes the grant demands).
    Lock {
        /// Lock object.
        lock: LockId,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// An eager release awaiting every peer's flush acknowledgement.
    UnlockFlush {
        /// Lock object.
        lock: LockId,
    },
    /// A barrier arrival awaiting the release.
    Barrier {
        /// Barrier object.
        barrier: BarrierId,
        /// The round arrived at.
        round: u32,
    },
    /// Waiting for an SC server RPC response.
    Sc,
    /// Waiting for a dynamic shard subscription to be acknowledged by
    /// the directory; the first-touch request retries once it is.
    Subscribe {
        /// The shard being joined.
        shard: u32,
        /// The stashed first-touch request.
        retry: Box<Req>,
    },
}

/// Outgoing batch entries under coalescing: same-location writes merge
/// into the *latest* entry for the location (`Set` last-write-wins,
/// `Add` sums), so a kind mismatch starts a new entry and application
/// order is preserved.
#[derive(Debug, Default)]
struct Coalesced {
    entries: Vec<BatchEntry>,
    /// Latest entry index per location, indexed by `Loc::index`
    /// ([`Coalesced::NONE`] when the batch holds none): a push costs one
    /// load however many entries are buffered. Grown on demand to the
    /// highest location written, like the replica's store.
    latest: Vec<u32>,
    /// Modeled wire bytes of every write pushed since the last take (a
    /// coalesced `Set` counts its entry again): the batch reaches
    /// [`wire::BUF_CHUNK`] after a bounded number of writes.
    bytes: u64,
}

impl Coalesced {
    const NONE: u32 = u32::MAX;

    /// Whether one more push (24 bytes at most) could pass [`wire::BUF_CHUNK`].
    fn full(&self) -> bool {
        self.bytes + 24 > wire::BUF_CHUNK as u64
    }

    fn push(&mut self, loc: Loc, payload: UpdatePayload, id: WriteId) {
        let slot = loc.index();
        if slot >= self.latest.len() {
            self.latest.resize(slot + 1, Self::NONE);
        }
        if let Some(e) = self.entries.get_mut(self.latest[slot] as usize) {
            match (&mut e.payload, &payload) {
                (UpdatePayload::Set(cur), UpdatePayload::Set(v)) => {
                    *cur = *v;
                    e.writer = id;
                    self.bytes += e.wire_bytes();
                    return;
                }
                (UpdatePayload::Add(cur), UpdatePayload::Add(d)) => {
                    if let Some(sum) = cur.checked_add(*d) {
                        *cur = sum;
                        e.adds.push(id.seq);
                        e.writer = id;
                        self.bytes += 4;
                        return;
                    }
                }
                _ => {}
            }
        }
        let adds = match &payload {
            UpdatePayload::Add(_) => vec![id.seq],
            UpdatePayload::Set(_) => Vec::new(),
        };
        self.latest[slot] = self.entries.len() as u32;
        let entry = BatchEntry { loc, payload, writer: id, adds };
        self.bytes += entry.wire_bytes();
        self.entries.push(entry);
    }

    /// Empties the buffer. Collected into one shared slice, every
    /// recipient's message (and any session retransmit copy) bumps a
    /// refcount instead of deep-cloning the entries. The entries move
    /// out and the buffer keeps its capacity for the next batch.
    fn take(&mut self) -> std::vec::Drain<'_, BatchEntry> {
        for e in &self.entries {
            self.latest[e.loc.index()] = Self::NONE;
        }
        self.bytes = 0;
        self.entries.drain(..)
    }
}

/// The outgoing update buffer (full replication, batching enabled).
#[derive(Debug, Default)]
struct OutBatch {
    /// First own-write sequence number buffered.
    first_seq: u32,
    /// Last own-write sequence number buffered.
    upto: u32,
    buf: Coalesced,
    /// Dependency vector of the last buffered write (vector modes). The
    /// replica mints each write's vector into it in place, and a flush
    /// leaves it here, so the clock is allocated once per node.
    deps: Option<VClock>,
}

/// The outgoing buffer for a single shard (sharding with batching).
/// The chain link `prev` anchors the batch in the writer's per-shard
/// FIFO chain, and dependencies are the sparse triples of the last
/// member (per-shard clocks are monotone, so the last member's
/// knowledge dominates every earlier member's).
#[derive(Debug, Default)]
struct ShardOutBatch {
    /// The writer's own seq in the shard before the first member.
    prev: u32,
    /// Last own-write sequence buffered.
    upto: u32,
    buf: Coalesced,
    /// Dependency triples of the last buffered write.
    deps: Vec<(u32, ProcId, u32)>,
}

/// The in-order payloads one arriving wire message releases.
type Accepted = std::iter::Chain<std::option::IntoIter<Msg>, std::vec::IntoIter<Msg>>;

/// One node's end of the reliable-delivery session layer (a
/// pass-through when [`DsmConfig::reliable`] is off): wraps and
/// sequences what the node sends, unwraps and acknowledges what it
/// receives, and retransmits on link timers.
#[derive(Debug)]
struct Links {
    me: NodeId,
    session: Option<Session>,
}

impl Links {
    fn new(me: NodeId, reliable: bool) -> Self {
        Links { me, session: reliable.then(|| Session::new(SessionConfig::default())) }
    }

    /// Sends one protocol message, through the session layer when it is
    /// enabled, labelled `kind` in the metrics. Sessioned payloads keep
    /// that label (the header shows up in the byte counters).
    ///
    /// With tracing on, an update's vector timestamp is attached to the
    /// message span just recorded — the same clocks that order causal
    /// delivery double as trace metadata. Batch frames are annotated
    /// with their member writes instead.
    fn send(&mut self, to: NodeId, kind: &'static str, msg: Msg, io: &mut impl NodeIo) {
        let annotation = if io.tracing() { trace_annotation(&msg) } else { None };
        match &mut self.session {
            None => io.send(to, kind, msg),
            Some(s) => {
                let tx = s.sender(self.me, to);
                let wrapped = tx.wrap(msg);
                arm_link_timer(tx, self.me, to, io);
                io.send(to, kind, wrapped);
            }
        }
        if let Some((key, v)) = annotation {
            io.annotate(key, v);
        }
    }

    /// Filters one arriving wire message through the session layer:
    /// acks are consumed, data is sequenced (answering with a
    /// cumulative ack) and the in-order payloads are returned for
    /// dispatch; anything else passes through. Acks travel raw (a
    /// sessioned ack would need its own ack, ad infinitum); they are
    /// cumulative, so losing or duplicating them is harmless.
    fn accept(&mut self, from: NodeId, msg: Msg, io: &mut impl NodeIo) -> Accepted {
        let (one, many) = match msg {
            Msg::SessAck { upto, epoch } => {
                self.on_ack(from, upto, epoch);
                (None, Vec::new())
            }
            Msg::SessData { seq, epoch, inner } => {
                let s = self.session.as_mut().expect("session data without session layer");
                let rx = s.receiver(from, self.me);
                let (ready, upto) = rx.on_data(seq, epoch, *inner);
                let ack = Msg::SessAck { upto, epoch: rx.epoch() };
                io.send(from, ack.kind(), ack);
                (None, ready)
            }
            other => (Some(other), Vec::new()),
        };
        one.into_iter().chain(many)
    }

    /// A cumulative ack for the link toward `peer`.
    fn on_ack(&mut self, peer: NodeId, upto: u64, epoch: u64) {
        let s = self.session.as_mut().expect("ack without session layer");
        let cfg = s.cfg;
        s.sender(self.me, peer).on_ack(upto, epoch, &cfg);
    }

    /// The cumulative ack to piggyback toward `peer`, once anything
    /// from it has been delivered.
    fn piggyback_ack(&mut self, peer: NodeId) -> Option<(u64, u64)> {
        let rx = self.session.as_mut()?.receiver(peer, self.me);
        let upto = rx.delivered();
        (upto > 0).then_some((upto, rx.epoch()))
    }

    /// The retransmission timer of the link toward `to` expired.
    fn on_timer(&mut self, to: NodeId, io: &mut impl NodeIo) {
        let Some(s) = &mut self.session else { return };
        let cfg = s.cfg;
        retransmit_link(s.sender(self.me, to), &cfg, self.me, to, io);
    }

    /// Every link's timer at once (the wall-clock sweep).
    fn retransmit(&mut self, io: &mut impl NodeIo) {
        let Some(s) = &mut self.session else { return };
        let cfg = s.cfg;
        for ((_, to), tx) in s.senders_mut() {
            retransmit_link(tx, &cfg, self.me, to, io);
        }
    }

    /// Resets the link toward a reborn peer into a fresh, higher epoch —
    /// its newborn receiver would otherwise buffer forever behind
    /// sequence numbers that died with the old incarnation. Non-update
    /// payloads are re-wrapped and resent; update-class payloads are
    /// dropped (their content travels in the recovery answer, with full
    /// dependency metadata, and their deltas reference shadow clocks
    /// the caller is about to clear).
    fn reset_toward(&mut self, reborn: NodeId, io: &mut impl NodeIo) {
        let Some(s) = &mut self.session else { return };
        let wire = s.reset_sender_with(self.me, reborn, |m| {
            !matches!(
                m,
                Msg::Update { .. }
                    | Msg::UpdateBatch { .. }
                    | Msg::RecoverResp { .. }
                    | Msg::ShardUpdate { .. }
                    | Msg::ShardUpdateBatch { .. }
                    | Msg::ShardRecoverResp { .. }
            )
        });
        let resend = !wire.is_empty();
        for m in wire {
            io.send(reborn, "retransmit", m);
        }
        if resend {
            arm_link_timer(s.sender(self.me, reborn), self.me, reborn, io);
        }
    }
}

/// Arms the link's retransmission timer unless one is already pending.
fn arm_link_timer(tx: &mut LinkSender, me: NodeId, to: NodeId, io: &mut impl NodeIo) {
    if !tx.timer_armed {
        tx.timer_armed = true;
        io.arm_timer(tx.rto(), session::link_token(me, to));
    }
}

/// One link's retransmission expiry: resend everything unacknowledged
/// and re-arm with the doubled timeout, or let the timer lapse when
/// everything was acked since it was armed.
fn retransmit_link(
    tx: &mut LinkSender,
    cfg: &SessionConfig,
    me: NodeId,
    to: NodeId,
    io: &mut impl NodeIo,
) {
    // The interval this expiry actually waited is the rto the timer was
    // armed with — sample it *before* `on_timeout` doubles it.
    let waited = tx.rto();
    let rexmit = tx.on_timeout(cfg);
    if rexmit.is_empty() {
        tx.timer_armed = false;
        return;
    }
    io.record_rto(waited);
    io.arm_timer(tx.rto(), session::link_token(me, to));
    let epoch = tx.epoch();
    for (seq, inner) in rexmit {
        io.send(to, "retransmit", Msg::SessData { seq, epoch, inner: Box::new(inner) });
        if io.tracing() {
            io.annotate("seq", seq.to_string());
        }
    }
}

fn trace_annotation(msg: &Msg) -> Option<(&'static str, String)> {
    match msg {
        Msg::Update { deps: Some(deps), .. } => Some(("vclock", deps.to_string())),
        Msg::UpdateBatch { first_seq, upto, entries, delta, .. } => {
            let members: Vec<String> = entries
                .iter()
                .map(|e| match e.payload {
                    UpdatePayload::Set(_) => e.loc.to_string(),
                    UpdatePayload::Add(_) => format!("{}+{}", e.loc, e.adds.len()),
                })
                .collect();
            Some((
                "batch",
                format!(
                    "w{first_seq}..={upto} [{}] Δ{}",
                    members.join(","),
                    delta.as_ref().map_or(0, Vec::len)
                ),
            ))
        }
        _ => None,
    }
}

/// One manager shard as a network node: the [`Manager`] state machine
/// behind its session links.
#[derive(Debug)]
pub struct ManagerNode {
    cfg: Arc<DsmConfig>,
    manager: Manager,
    links: Links,
}

impl ManagerNode {
    /// The manager shard running on `node`.
    pub fn new(node: NodeId, cfg: Arc<DsmConfig>) -> Self {
        ManagerNode {
            manager: Manager::new(cfg.nprocs),
            links: Links::new(node, cfg.reliable),
            cfg,
        }
    }

    /// Handles one arriving wire message: whatever the session layer
    /// releases goes to the manager, and its outbox goes back out.
    pub fn on_message(&mut self, from: NodeId, msg: Msg, io: &mut impl NodeIo) {
        for m in self.links.accept(from, msg, io) {
            for (proc, out) in self.manager.handle(m, &self.cfg) {
                self.links.send(NodeId(proc.0), out.kind(), out, io);
            }
        }
    }

    /// A session link timer armed through [`NodeIo::arm_timer`] expired.
    pub fn on_timer(&mut self, token: u64, io: &mut impl NodeIo) {
        self.links.on_timer(session::token_link(token).1, io);
    }

    /// Retransmits every unacknowledged payload on every outgoing link —
    /// for executors that sweep on wall-clock ticks instead of serving
    /// per-link timers.
    pub fn retransmit(&mut self, io: &mut impl NodeIo) {
        self.links.retransmit(io);
    }

    /// The manager state (SC store, lock queues).
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// Mutable manager state (to record and collect the SC write order).
    pub fn manager_mut(&mut self) -> &mut Manager {
        &mut self.manager
    }

    /// Consumes the node, returning the manager state.
    pub fn into_manager(self) -> Manager {
        self.manager
    }

    /// The session state (`None` unless reliable).
    pub fn session(&self) -> Option<&Session> {
        self.links.session.as_ref()
    }
}

/// One process's protocol state machine. See the module docs.
#[derive(Debug)]
pub struct ProcNode {
    proc: ProcId,
    cfg: Arc<DsmConfig>,
    replica: Replica,
    links: Links,
    blocked: Option<Blocked>,
    held: HashMap<LockId, LockMode>,
    granted: HashMap<LockId, GrantInfo>,
    flush_acks: usize,
    /// Flush probes whose acknowledgement awaits local applies.
    flush_waiters: Vec<(ProcId, u32)>,
    barrier_next: HashMap<BarrierId, u32>,
    barrier_released: HashMap<(BarrierId, u32), VClock>,
    sc_resp: Option<Resp>,
    sc_pending_write: Option<WriteId>,
    /// Outgoing update buffer (used iff [`DsmConfig::batch`]).
    out: OutBatch,
    /// Per-shard outgoing buffers (sharding with batching).
    shard_out: HashMap<u32, ShardOutBatch>,
    /// Sender-side shadow of the dependency clock last transmitted to
    /// each peer (vector-clock delta compression).
    link_clock_out: HashMap<NodeId, VClock>,
    /// Receiver-side shadow clocks reconstructing full vectors from
    /// per-link deltas.
    link_clock_in: HashMap<NodeId, VClock>,
    /// Log records appended since the last snapshot (the count-based
    /// compaction cadence).
    records_since_snap: u32,
    /// How many of the replica's own writes the history segment holds:
    /// the next compaction appends the rest.
    history_len: usize,
    /// The buffer every log record is framed in, reused so that logging
    /// an arriving message allocates nothing.
    wal_buf: Vec<u8>,
    /// Highest reborn incarnation already answered, per peer — a
    /// duplicated raw [`Msg::RecoverReq`] must not reset the link (and
    /// resend the delta) twice.
    recover_seen: HashMap<ProcId, u32>,
    /// Multicast routes (sharding only): `shard_routes[s]` lists the
    /// peers this node knows to subscribe to shard `s` (self excluded).
    /// Seeded from the static interest sets; dynamic joiners are merged
    /// in from [`Msg::SubNotify`], [`Msg::SubAck`], and recovery
    /// answers. Kept sorted so multicast order is deterministic.
    shard_routes: Vec<Vec<ProcId>>,
}

impl ProcNode {
    /// The node of process `proc`, with an empty replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration pairs a coherent lattice point with
    /// durability (snapshots do not persist last-writer-wins tags).
    pub fn new(proc: ProcId, cfg: Arc<DsmConfig>) -> Self {
        let replica = Self::fresh_replica(proc, &cfg, None);
        Self::with_replica(proc, cfg, replica)
    }

    fn fresh_replica(proc: ProcId, cfg: &DsmConfig, snapshot: Option<&Snapshot>) -> Replica {
        let coherent = cfg.models().is_coherent(proc);
        assert!(
            !coherent || cfg.durability.is_none(),
            "coherent lattice points cannot run with durability: \
             snapshots do not persist last-writer-wins tags"
        );
        let r = match snapshot {
            Some(snap) => Replica::from_snapshot(proc, cfg.nprocs, snap),
            None => Replica::new(proc, cfg.nprocs),
        };
        let r = r.with_store_capacity(cfg.locations).with_coherent(coherent);
        // Sharding binds to the replicated modes only: the SC
        // substrate's central server holds the one authoritative copy,
        // so a shard map is accepted but inert there. Sharded replicas
        // start from the static interest set (snapshots do not capture
        // shard state; WAL replay restores dynamic subscriptions).
        match cfg.sharding.as_ref().filter(|_| cfg.substrate().is_replicated()) {
            Some(sc) => r.with_sharding(sc.nshards, sc.interest[proc.index()].clone()),
            None => r,
        }
    }

    fn with_replica(proc: ProcId, cfg: Arc<DsmConfig>, replica: Replica) -> Self {
        let shard_routes = match cfg.sharding.as_ref().filter(|_| cfg.substrate().is_replicated()) {
            None => Vec::new(),
            Some(sc) => (0..sc.nshards)
                .map(|s| {
                    (0..cfg.nprocs as u32)
                        .map(ProcId)
                        .filter(|&q| q != proc && sc.subscribed(q, s))
                        .collect()
                })
                .collect(),
        };
        ProcNode {
            proc,
            replica,
            links: Links::new(NodeId(proc.0), cfg.reliable),
            blocked: None,
            held: HashMap::new(),
            granted: HashMap::new(),
            flush_acks: 0,
            flush_waiters: Vec::new(),
            barrier_next: HashMap::new(),
            barrier_released: HashMap::new(),
            sc_resp: None,
            sc_pending_write: None,
            out: OutBatch::default(),
            shard_out: HashMap::new(),
            link_clock_out: HashMap::new(),
            link_clock_in: HashMap::new(),
            records_since_snap: 0,
            history_len: 0,
            wal_buf: Vec::new(),
            recover_seen: HashMap::new(),
            shard_routes,
            cfg,
        }
    }

    /// Rebuilds this node from what [`FileDisk::recover`](durability::FileDisk::recover) found on its
    /// disk after a crash: decode the snapshot, restore the own-write history it covers from the first
    /// frames of `history` (cutting the segment there: a longer one is a
    /// compaction that never committed, whose writes the log still
    /// holds), replay the log's `records` through the normal ingest
    /// machinery, bump the incarnation and persist it (fsynced) before
    /// any session traffic — so a second crash cannot resurrect this
    /// epoch space — then ask every peer for the missing delta. Every
    /// piece of volatile protocol state (session links, shadow clocks,
    /// recovery dedup marks, out-batches — their writes are durable in
    /// the own-write history and travel in the push-back of each
    /// recovery answer) starts fresh.
    ///
    /// What the *client program* has earned is kept: when the program
    /// outlives the crash (the simulator models the memory system's
    /// node failing, not the client), its read gates, lock bookkeeping
    /// and pending operation carry over, so post-crash reads still wait
    /// for everything it already observed. A restarted OS process
    /// recovers a [`ProcNode::new`], where there is nothing to keep.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not decode, or if the history holds
    /// fewer own writes than the snapshot covers: compaction makes both
    /// durable before it commits, so either is an integrity failure.
    pub fn recover(&mut self, from: Recovery, io: &mut impl NodeIo) {
        let Recovery { snapshot, history, records } = from;
        let proc = self.proc;
        let snap = snapshot.map(|bytes| {
            Snapshot::decode(&bytes).unwrap_or_else(|e| panic!("{proc}: snapshot is corrupt: {e}"))
        });
        let mut replica = Self::fresh_replica(proc, &self.cfg, snap.as_ref());
        let covered = replica.own_count();
        let (own, len) = durability::decode_history(&history, covered);
        // Under SC the server keeps the writes: no history to restore.
        assert!(
            own.len() == covered as usize || !self.cfg.substrate().is_replicated(),
            "{proc}: the history holds {} of the {covered} own writes the snapshot covers",
            own.len()
        );
        if len < history.len() {
            io.truncate_history(len);
        }
        let history_len = own.len();
        replica.restore_history(own);
        let replayed = records.len() as u32;
        for rec in records {
            replica.replay_record(rec, self.cfg.substrate());
        }
        let old = std::mem::replace(self, Self::with_replica(proc, self.cfg.clone(), replica));
        self.history_len = history_len;
        let r = &mut self.replica;
        r.must_see = old.replica.must_see;
        r.pram_wait = old.replica.pram_wait;
        r.invalid = old.replica.invalid;
        r.lock_watermarks = old.replica.lock_watermarks;
        self.blocked = old.blocked;
        self.held = old.held;
        self.granted = old.granted;
        self.flush_acks = old.flush_acks;
        self.flush_waiters = old.flush_waiters;
        self.barrier_next = old.barrier_next;
        self.barrier_released = old.barrier_released;
        self.sc_resp = old.sc_resp;
        self.sc_pending_write = old.sc_pending_write;
        let inc = r.incarnation.max(old.replica.incarnation) + 1;
        r.incarnation = inc;
        io.wal_append(&WalRecord::Incarnation { incarnation: inc }.encode());
        io.wal_sync();
        self.records_since_snap = replayed + 1;
        if let Some(s) = &mut self.links.session {
            s.set_base_epoch(NodeId(proc.0), inc);
        }
        // Fetch the missing delta: a raw (never sessioned) request to
        // every peer replica — recovery must not ride the sessions it
        // is re-fencing. Sharded recovery ships the per-shard applied
        // summary instead of the global vector: peers answer only for
        // the shards they share, so the reborn replica re-fetches
        // exactly its subscribed state.
        let req = match self.replica.shards() {
            Some(st) => {
                Msg::ShardRecoverReq { proc, incarnation: inc, applied: st.applied_summary() }
            }
            None => {
                Msg::RecoverReq { proc, incarnation: inc, applied: self.replica.applied.clone() }
            }
        };
        for to in self.peers() {
            io.send(to, req.kind(), req.clone());
        }
    }

    /// This node's process.
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// The shared configuration.
    pub fn cfg(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Read access to the replica (tests, invariant checks).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Consumes the node, returning the replica.
    pub fn into_replica(self) -> Replica {
        self.replica
    }

    /// What the pending operation is parked on, if one is.
    pub fn blocked(&self) -> Option<&Blocked> {
        self.blocked.as_ref()
    }

    /// The session state (`None` unless reliable).
    pub fn session(&self) -> Option<&Session> {
        self.links.session.as_ref()
    }

    /// Retransmits every unacknowledged payload on every outgoing link —
    /// for executors that sweep on wall-clock ticks instead of serving
    /// per-link timers.
    pub fn retransmit(&mut self, io: &mut impl NodeIo) {
        self.links.retransmit(io);
    }

    /// Whether any written update is still buffered for batching.
    pub fn has_buffered(&self) -> bool {
        !self.out.buf.entries.is_empty()
            || self.shard_out.values().any(|b| !b.buf.entries.is_empty())
    }

    fn node(&self) -> NodeId {
        NodeId(self.proc.0)
    }

    /// Every other replica node, in id order.
    fn peers(&self) -> impl Iterator<Item = NodeId> {
        let (n, me) = (self.cfg.nprocs as u32, self.proc.0);
        (0..n).filter(move |&j| j != me).map(NodeId)
    }

    /// Whether sharded interest-based replication is active (a shard
    /// map on a replicated mode).
    fn sharded(&self) -> bool {
        self.replica.is_sharded()
    }

    /// Sends one protocol message (see [`Links::send`]).
    fn send(&mut self, to: NodeId, msg: Msg, io: &mut impl NodeIo) {
        self.send_as(to, msg.kind(), msg, io);
    }

    /// [`ProcNode::send`] under an explicit metrics label.
    fn send_as(&mut self, to: NodeId, kind: &'static str, msg: Msg, io: &mut impl NodeIo) {
        // Group-commit externalization barrier: no protocol message may
        // leave a replica node while log records are still staged — a
        // peer (or, transitively, the program) could otherwise observe
        // a write that a crash then un-happens. Per-write policies sync
        // at the write itself; group commit relies on this barrier (and
        // on [`ProcNode::observe_sync`] for local reads) to amortize
        // one fsync over every record staged since the last.
        if self.cfg.durability.is_some_and(|d| d.group_commit) {
            io.wal_sync();
        }
        self.links.send(to, kind, msg, io);
    }

    /// Stages one write-ahead-log record (not yet durable), its body
    /// written by `put_body`.
    fn wal_append(&mut self, put_body: impl FnOnce(&mut Vec<u8>), io: &mut impl NodeIo) {
        self.wal_buf.clear();
        durability::frame(&mut self.wal_buf, put_body);
        io.wal_append(&self.wal_buf);
        self.records_since_snap += 1;
    }

    /// Fsync before an observation returns. Remote ingests are staged
    /// (appended, unsynced) until some local read or await could expose
    /// them to the program; past that point a crash must not un-happen
    /// them, or a surviving reader would watch its own history regress.
    fn observe_sync(&mut self, io: &mut impl NodeIo) {
        if self.cfg.durability.is_some() {
            io.wal_sync();
        }
    }

    /// Compacts the log into a snapshot once the count-based cadence is
    /// due.
    fn maybe_snapshot(&mut self, io: &mut impl NodeIo) {
        let Some(policy) = self.cfg.durability else { return };
        if self.records_since_snap >= policy.snapshot_every {
            self.snapshot(io);
        }
    }

    /// Compacts the log into a snapshot now, handing the disk only the
    /// own writes minted since the last compaction. The log is fsynced
    /// first so the snapshot never covers records a crash could still
    /// drop.
    fn snapshot(&mut self, io: &mut impl NodeIo) {
        // Snapshots do not capture per-shard clocks, own chains, or
        // subscriptions: sharded replicas stay log-only, and recovery
        // replays the full WAL.
        if self.sharded() {
            return;
        }
        io.wal_sync();
        let (me, peers) = (self.node(), self.peers());
        let watermarks = match &mut self.links.session {
            None => Vec::new(),
            Some(s) => peers.map(|j| (ProcId(j.0), s.receiver(j, me).delivered())).collect(),
        };
        let snapshot = self.replica.to_snapshot(watermarks).encode();
        let own = self.replica.own_updates();
        self.wal_buf.clear();
        durability::put_history(&mut self.wal_buf, &own[self.history_len..]);
        io.install_snapshot(snapshot, &self.wal_buf);
        self.history_len = own.len();
        self.records_since_snap = 0;
    }

    /// Delta compression for the link toward `to`: only the clock
    /// components that changed since the last frame on this link go on
    /// the wire, as absolute values. FIFO delivery (native or restored
    /// by the session layer) keeps both shadow clocks in lockstep.
    fn batch_delta(&mut self, to: NodeId, deps: &VClock) -> Vec<(ProcId, u32)> {
        let nprocs = self.cfg.nprocs;
        let prev = self.link_clock_out.entry(to).or_insert_with(|| VClock::new(nprocs));
        let changed: Vec<(ProcId, u32)> = (0..nprocs as u32)
            .map(ProcId)
            .filter(|&q| deps[q] != prev[q])
            .map(|q| (q, deps[q]))
            .collect();
        prev.clone_from(deps);
        changed
    }

    /// Buffers a local write, whose dependency vector the replica
    /// minted into `self.out.deps`, into the outgoing batch, coalescing
    /// against the latest entry for the location, and flushing at the
    /// byte bound.
    fn buffer_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        id: WriteId,
        io: &mut impl NodeIo,
    ) {
        let b = &mut self.out;
        if b.buf.entries.is_empty() {
            b.first_seq = id.seq;
        }
        b.upto = id.seq;
        b.buf.push(loc, payload, id);
        if b.buf.full() {
            self.flush_updates(io);
        }
    }

    /// Operation entry: flushes the buffered writes once every peer link
    /// is idle (Nagle's rule without the delayed-ACK timer, RFC 896).
    /// Executors call it where the program starts an operation, before
    /// taking in what arrived meanwhile and [`ProcNode::start`]ing it.
    pub fn enter(&mut self, io: &mut impl NodeIo) {
        if self.has_buffered() && self.peers().all(|to| io.link_idle(to)) {
            self.flush_updates(io);
        }
    }

    /// Flushes the outgoing batch (no-op when empty or when batching is
    /// off) to every peer replica, attaching a per-link
    /// dependency-clock delta and — when the session layer runs — a
    /// piggybacked cumulative ack for the reverse link. Called at an
    /// idle operation entry, when an operation parks, before every
    /// message that establishes `↦lock`/`↦bar` order, at the byte bound,
    /// and by executors when the process exits.
    pub fn flush_updates(&mut self, io: &mut impl NodeIo) {
        if self.cfg.batch.is_none() {
            return;
        }
        if self.sharded() {
            self.flush_shards(None, io);
            return;
        }
        if self.out.buf.entries.is_empty() {
            return;
        }
        if self.out.first_seq == self.out.upto {
            // One write: its own update is the smaller frame.
            let BatchEntry { loc, payload, writer, .. } =
                self.out.buf.take().next().expect("one write");
            let deps = self.out.deps.clone();
            self.broadcast(Msg::Update { writer, loc, payload, deps }, io);
            return;
        }
        let entries: Arc<[BatchEntry]> = self.out.buf.take().collect();
        let (first_seq, upto) = (self.out.first_seq, self.out.upto);
        let deps = self.out.deps.take();
        let proc = self.proc;
        for to in self.peers() {
            let delta = deps.as_ref().map(|d| self.batch_delta(to, d));
            let ack = self.links.piggyback_ack(to);
            let msg =
                Msg::UpdateBatch { proc, first_seq, upto, entries: entries.clone(), delta, ack };
            self.send(to, msg, io);
        }
        // Back for the next batch's writes to overwrite in place.
        self.out.deps = deps;
    }

    /// Sends `msg` to every peer *replica* node.
    fn broadcast(&mut self, msg: Msg, io: &mut impl NodeIo) {
        for to in self.peers() {
            self.send(to, msg.clone(), io);
        }
    }

    /// Multicasts a sharded message to the peers this node knows to
    /// subscribe to `shard` — the partial-replication replacement for
    /// [`ProcNode::broadcast`].
    fn multicast_shard(&mut self, shard: u32, msg: Msg, io: &mut impl NodeIo) {
        for k in 0..self.shard_routes[shard as usize].len() {
            let q = self.shard_routes[shard as usize][k];
            self.send(NodeId(q.0), msg.clone(), io);
        }
    }

    /// Records that `q` subscribes to `shard` (route tables never list
    /// the node's own process; insertion keeps them sorted for
    /// deterministic multicast order).
    fn add_shard_route(&mut self, shard: u32, q: ProcId) {
        if q == self.proc {
            return;
        }
        let routes = &mut self.shard_routes[shard as usize];
        if let Err(i) = routes.binary_search(&q) {
            routes.insert(i, q);
        }
    }

    /// Gates a sharded access to `loc` on a subscription to its shard.
    /// Returns `true` when the access may proceed (not sharded, or
    /// already subscribed). A first touch outside the interest set
    /// parks the process on a directory round-trip when the dynamic
    /// fallback is enabled, and is a program error otherwise.
    fn shard_gate(&mut self, loc: Loc, req: &Req, io: &mut impl NodeIo) -> bool {
        let Some(st) = self.replica.shards() else { return true };
        let shard = st.shard_of(loc);
        if st.subscribed(shard) {
            return true;
        }
        assert!(
            self.cfg.sharding.as_ref().is_some_and(|sc| sc.dynamic),
            "{} touches {loc} (shard {shard}) outside its interest set \
             and the dynamic subscribe-on-first-touch fallback is off",
            self.proc
        );
        let shard = shard as u32;
        let mgr = self.cfg.manager_node();
        self.send(mgr, Msg::SubReq { proc: self.proc, shard }, io);
        self.blocked = Some(Blocked::Subscribe { shard, retry: Box::new(req.clone()) });
        false
    }

    /// Buffers a sharded local write into the per-shard outgoing batch,
    /// coalescing and bounded like [`ProcNode::buffer_write`].
    fn buffer_shard_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        id: WriteId,
        prev: u32,
        deps: Vec<(u32, ProcId, u32)>,
        io: &mut impl NodeIo,
    ) {
        let shard = self.replica.shards().expect("sharded").shard_of(loc) as u32;
        // Program order crosses shards: this write's dependency triples
        // cover the process's own *buffered* writes in other shards, so
        // two chains buffered concurrently could each require a member
        // of the other and deadlock every receiver. Ship the other
        // shards' buffers first — a chain then only references own
        // writes already on the wire, and coalescing still collapses
        // runs of same-shard writes (the locality case sharding is
        // built around).
        self.flush_shards(Some(shard), io);
        let b = self.shard_out.entry(shard).or_default();
        if b.buf.entries.is_empty() {
            b.prev = prev;
        }
        b.upto = id.seq;
        b.deps = deps;
        b.buf.push(loc, payload, id);
        if b.buf.full() {
            self.flush_shard(shard, io);
        }
    }

    /// Flushes one shard's (non-empty) outgoing buffer to its subscribers.
    fn flush_shard(&mut self, shard: u32, io: &mut impl NodeIo) {
        let b = self.shard_out.get_mut(&shard).expect("a buffered shard");
        let msg = Msg::ShardUpdateBatch {
            proc: self.proc,
            shard,
            prev: b.prev,
            upto: b.upto,
            entries: b.buf.take().collect(),
            deps: std::mem::take(&mut b.deps),
        };
        self.multicast_shard(shard, msg, io);
    }

    /// Flushes every non-empty per-shard buffer but `except`'s, in shard
    /// order (deterministic under DPOR).
    fn flush_shards(&mut self, except: Option<u32>, io: &mut impl NodeIo) {
        let mut shards: Vec<u32> = self
            .shard_out
            .iter()
            .filter(|&(&s, b)| Some(s) != except && !b.buf.entries.is_empty())
            .map(|(&s, _)| s)
            .collect();
        shards.sort_unstable();
        for s in shards {
            self.flush_shard(s, io);
        }
    }

    fn read_ready(&mut self, loc: Loc, label: ReadLabel, io: &mut impl NodeIo) -> Option<Resp> {
        let r = &self.replica;
        let ok = match label {
            ReadLabel::Causal => r.causal_ready(loc),
            ReadLabel::Pram => r.pram_ready(loc),
        };
        if !ok {
            return None;
        }
        let (value, writer) = (r.value(loc), r.writer_of(loc));
        self.observe_sync(io);
        Some(Resp::Value { value, writer })
    }

    fn await_ready(&mut self, loc: Loc, value: Value, io: &mut impl NodeIo) -> Option<Resp> {
        if self.replica.value(loc) != value {
            return None;
        }
        let writers = self.replica.await_writers(loc);
        self.observe_sync(io);
        Some(Resp::Awaited { value, writers })
    }

    /// Sends the release to the manager, shipping demand/lazy metadata.
    /// Buffered updates flush first: the release establishes `↦lock`
    /// order, so every write program-ordered before it must already be
    /// on the wire (FIFO links then deliver them ahead of any knowledge
    /// derived from this release).
    fn finish_release(&mut self, lock: LockId, io: &mut impl NodeIo) {
        self.flush_updates(io);
        let proc = self.proc;
        let mode = self
            .held
            .remove(&lock)
            .unwrap_or_else(|| panic!("{proc} releases {lock} it does not hold"));
        let r = &mut self.replica;
        let dirty = if self.cfg.lock_propagation == LockPropagation::DemandDriven {
            r.take_dirty(lock)
        } else {
            Vec::new()
        };
        let knowledge =
            if self.cfg.substrate().carries_vectors() { r.knowledge() } else { VClock::new(0) };
        let msg = Msg::LockRel { proc, lock, mode, knowledge, own_count: r.own_count(), dirty };
        self.send(self.cfg.lock_manager_node(lock), msg, io);
    }

    /// The knowledge vector attached to barrier arrivals.
    fn sync_knowledge(&self) -> VClock {
        match self.cfg.substrate() {
            Substrate::Vectors => self.replica.knowledge(),
            // PRAM barriers carry the per-sender update counts (Section 6).
            Substrate::Fifo => self.replica.applied.clone(),
            Substrate::Server => VClock::new(0),
        }
    }

    /// After local applies, acknowledge any satisfied flush probes.
    fn drain_flush_waiters(&mut self, io: &mut impl NodeIo) {
        if self.flush_waiters.is_empty() {
            return;
        }
        let applied = &self.replica.applied;
        let (ready, still): (Vec<_>, Vec<_>) = std::mem::take(&mut self.flush_waiters)
            .into_iter()
            .partition(|&(fp, upto)| applied[fp] >= upto);
        self.flush_waiters = still;
        for (from_proc, _) in ready {
            self.send(NodeId(from_proc.0), Msg::FlushAck, io);
        }
    }

    /// Submits an operation. [`Poll::Pending`] parks it: call
    /// [`ProcNode::poll`] after subsequent messages until it completes.
    /// A parking operation also flushes the writes others may await.
    pub fn start(&mut self, req: Req, io: &mut impl NodeIo) -> Poll<Resp> {
        let poll = self.begin(req, io);
        if matches!(poll, Poll::Pending) {
            self.flush_updates(io);
        }
        poll
    }

    fn begin(&mut self, req: Req, io: &mut impl NodeIo) -> Poll<Resp> {
        let p = self.proc;
        match req {
            Req::Read { loc, label } => {
                if self.cfg.substrate() == Substrate::Server {
                    self.send(self.cfg.manager_node(), Msg::ScRead { proc: p, loc }, io);
                    self.blocked = Some(Blocked::Sc);
                    return Poll::Pending;
                }
                if !self.shard_gate(loc, &req, io) {
                    return Poll::Pending;
                }
                let label = self.cfg.models().judged_as(p, label);
                let resp = self.read_ready(loc, label, io);
                self.ready_or_park(resp, Blocked::Read { loc, label })
            }
            Req::Write { loc, value } => self.do_write(loc, UpdatePayload::Set(value), &req, io),
            Req::Update { loc, delta } => self.do_write(loc, UpdatePayload::Add(delta), &req, io),
            Req::Lock { lock, mode } => {
                assert!(!self.sharded(), "locks are not supported with sharding");
                assert!(!self.held.contains_key(&lock), "{p} re-acquires {lock}");
                let msg = Msg::LockReq { proc: p, lock, mode };
                self.send(self.cfg.lock_manager_node(lock), msg, io);
                self.blocked = Some(Blocked::Lock { lock, mode });
                Poll::Pending
            }
            Req::Unlock { lock, mode } => {
                let held = self.held.get(&lock).copied();
                assert_eq!(held, Some(mode), "{p} unlocks {lock} with wrong mode");
                let eager_flush = self.cfg.lock_propagation == LockPropagation::Eager
                    && self.cfg.substrate().is_replicated()
                    && self.cfg.nprocs > 1;
                if eager_flush {
                    // Buffered updates must precede the flush probes on
                    // every link, or peers could never reach `upto`.
                    self.flush_updates(io);
                    let upto = self.replica.own_count();
                    self.flush_acks = 0;
                    self.broadcast(Msg::Flush { from_proc: p, upto }, io);
                    self.blocked = Some(Blocked::UnlockFlush { lock });
                    Poll::Pending
                } else {
                    self.finish_release(lock, io);
                    Poll::Ready(Resp::Done)
                }
            }
            Req::Barrier { barrier } => {
                assert!(!self.sharded(), "barriers are not supported with sharding");
                let next = self.barrier_next.entry(barrier).or_insert(0);
                let round = *next;
                *next += 1;
                // The arrival establishes `↦bar` order: flush first so
                // participants released with our knowledge can apply
                // the writes it promises.
                self.flush_updates(io);
                let knowledge = self.sync_knowledge();
                let msg = Msg::BarrierArrive { proc: p, barrier, round, knowledge };
                self.send(self.cfg.barrier_manager_node(barrier), msg, io);
                self.blocked = Some(Blocked::Barrier { barrier, round });
                Poll::Pending
            }
            Req::Await { loc, value } => {
                if self.cfg.substrate() == Substrate::Server {
                    self.send(self.cfg.manager_node(), Msg::ScAwait { proc: p, loc, value }, io);
                    self.blocked = Some(Blocked::Sc);
                    return Poll::Pending;
                }
                if !self.shard_gate(loc, &req, io) {
                    return Poll::Pending;
                }
                let resp = self.await_ready(loc, value, io);
                self.ready_or_park(resp, Blocked::Await { loc, value })
            }
        }
    }

    /// Answers with `resp`, or parks on `blocked` if there is none yet.
    fn ready_or_park(&mut self, resp: Option<Resp>, blocked: Blocked) -> Poll<Resp> {
        if resp.is_none() {
            self.blocked = Some(blocked);
        }
        resp.map_or(Poll::Pending, Poll::Ready)
    }

    fn do_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        req: &Req,
        io: &mut impl NodeIo,
    ) -> Poll<Resp> {
        let p = self.proc;
        if self.cfg.substrate() == Substrate::Server {
            let r = &mut self.replica;
            r.applied.tick(p);
            let id = WriteId::new(p, r.applied[p]);
            self.sc_pending_write = Some(id);
            self.send(self.cfg.manager_node(), Msg::ScWrite { writer: id, loc, payload }, io);
            self.blocked = Some(Blocked::Sc);
            return Poll::Pending;
        }
        if self.sharded() {
            if !self.shard_gate(loc, req, io) {
                return Poll::Pending;
            }
            return self.do_sharded_write(loc, payload, io);
        }
        // A batched write mints its dependency vector straight into the
        // batch's clock; an unbatched one hands its own to the update.
        let batched = self.cfg.batch.is_some();
        let mut unbatched_deps = None;
        let deps = if batched { &mut self.out.deps } else { &mut unbatched_deps };
        let id = self.replica.local_write_into(loc, payload.clone(), &self.cfg, deps);
        if let Some(policy) = self.cfg.durability {
            // Append-before-ack: the write's log record is staged
            // before `Wrote` reaches the program. Per-write policies
            // fsync here; group commit defers to the next outgoing
            // message ([`ProcNode::send`]) or observation
            // ([`ProcNode::observe_sync`]), amortizing one sync over
            // every record staged since the last.
            let deps = if batched { &self.out.deps } else { &unbatched_deps };
            let rec = WalRecord::OwnWrite { loc, payload: payload.clone(), deps: deps.clone() };
            self.wal_append(|b| rec.put_body(b), io);
            if !policy.group_commit {
                io.wal_sync();
            }
            self.maybe_snapshot(io);
        }
        if batched {
            self.buffer_write(loc, payload, id, io);
        } else {
            let msg = Msg::Update { writer: id, loc, payload, deps: unbatched_deps };
            self.broadcast(msg, io);
        }
        // The local apply may satisfy pending flush probes.
        self.drain_flush_waiters(io);
        Poll::Ready(Resp::Wrote { id })
    }

    /// The sharded write path: mint through the per-shard chain, log,
    /// and multicast (or buffer) to the shard's subscribers only.
    fn do_sharded_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        io: &mut impl NodeIo,
    ) -> Poll<Resp> {
        let (id, prev, deps) = self.replica.sharded_write(loc, payload.clone(), &self.cfg);
        if let Some(policy) = self.cfg.durability {
            let rec =
                WalRecord::OwnWriteSharded { loc, payload: payload.clone(), deps: deps.clone() };
            self.wal_append(|b| rec.put_body(b), io);
            if !policy.group_commit {
                io.wal_sync();
            }
        }
        if self.cfg.batch.is_some() {
            self.buffer_shard_write(loc, payload, id, prev, deps, io);
        } else {
            let shard = self.replica.shards().expect("sharded").shard_of(loc) as u32;
            let msg = Msg::ShardUpdate { writer: id, loc, payload, prev, deps };
            self.multicast_shard(shard, msg, io);
        }
        Poll::Ready(Resp::Wrote { id })
    }

    /// Re-examines the parked operation after an event. `Some`
    /// completes it.
    pub fn poll(&mut self, io: &mut impl NodeIo) -> Option<Resp> {
        let resp = match self.blocked.clone()? {
            Blocked::Read { loc, label } => self.read_ready(loc, label, io),
            Blocked::Await { loc, value } => self.await_ready(loc, value, io),
            Blocked::Sc => self.sc_resp.take(),
            Blocked::Lock { lock, mode } => {
                let grant_ready = match self.granted.get(&lock) {
                    None => false,
                    // In SC mode the data lives at the server; grants
                    // never gate on replica state.
                    Some(_) if !self.cfg.substrate().is_replicated() => true,
                    Some(g) => match self.cfg.lock_propagation {
                        LockPropagation::Eager | LockPropagation::DemandDriven => true,
                        LockPropagation::Lazy => {
                            let r = &self.replica;
                            if g.knowledge.is_empty() {
                                g.preds.iter().all(|&(q, c)| r.applied[q] >= c)
                            } else {
                                r.applied.dominates(&g.knowledge)
                            }
                        }
                    },
                };
                if !grant_ready {
                    return None;
                }
                let g = self.granted.remove(&lock).expect("checked");
                if self.cfg.lock_propagation == LockPropagation::DemandDriven {
                    self.replica.absorb_demand(&g.demand);
                } else {
                    self.replica.absorb_sync(&g.knowledge, &g.preds);
                }
                self.held.insert(lock, mode);
                Some(Resp::Done)
            }
            Blocked::UnlockFlush { lock } => {
                if self.flush_acks != self.cfg.nprocs - 1 {
                    return None;
                }
                self.flush_acks = 0;
                self.finish_release(lock, io);
                Some(Resp::Done)
            }
            Blocked::Barrier { barrier, round } => {
                let k = self.barrier_released.remove(&(barrier, round))?;
                if !k.is_empty() {
                    if self.cfg.substrate().carries_vectors() {
                        self.replica.must_see.merge(&k);
                    }
                    self.replica.pram_wait.merge(&k);
                }
                Some(Resp::BarrierPassed { round })
            }
            Blocked::Subscribe { shard, retry } => {
                if !self.replica.shards().is_some_and(|st| st.subscribed(shard as usize)) {
                    return None;
                }
                // Subscribed: resubmit the stashed first-touch request.
                // It may park again on its own account (an await, a
                // not-yet-ready read) — it cannot re-enter the
                // subscribe gate for this shard.
                self.blocked = None;
                return match self.start(*retry, io) {
                    Poll::Ready(r) => Some(r),
                    Poll::Pending => None,
                };
            }
        };
        if resp.is_some() {
            self.blocked = None;
        }
        resp
    }

    /// A session link timer armed through [`NodeIo::arm_timer`] expired.
    pub fn on_timer(&mut self, token: u64, io: &mut impl NodeIo) {
        self.links.on_timer(session::token_link(token).1, io);
    }

    /// Handles one arriving wire message: the session layer sequences
    /// it, and every payload it releases is applied in order.
    pub fn on_message(&mut self, from: NodeId, msg: Msg, io: &mut impl NodeIo) {
        for m in self.links.accept(from, msg, io) {
            self.dispatch(from, m, io);
        }
    }

    /// Logs (durability on) and applies one update-class message as it
    /// arrived: the record body is the message's wire body.
    fn ingest(&mut self, msg: Msg, io: &mut impl NodeIo) {
        if self.cfg.durability.is_some() {
            self.wal_append(|b| wire::encode_body(b, &msg), io);
            self.maybe_snapshot(io);
        }
        if self.replica.ingest_msg(msg, self.cfg.substrate()) {
            self.drain_flush_waiters(io);
        }
    }

    /// Re-ships our own writes past `wants` to `to`, one per-write
    /// message each ([`Replica::writes_after`]) under the `"reship"`
    /// label — recovery answers, recovery push-backs and subscription
    /// backfills alike.
    fn reship(&mut self, to: NodeId, wants: &[(u32, u32)], io: &mut impl NodeIo) {
        for msg in self.replica.writes_after(wants) {
            self.send_as(to, "reship", msg, io);
        }
    }

    /// The first request of a reborn peer's new incarnation? Dedups:
    /// the request travels raw (a sessioned request would need the very
    /// link state the crash destroyed), so the network may duplicate
    /// it. On a fresh one, everything toward the peer is reset.
    fn reborn_peer(
        &mut self,
        reborn: ProcId,
        incarnation: u32,
        from: NodeId,
        io: &mut impl NodeIo,
    ) -> bool {
        debug_assert_eq!(NodeId(reborn.0), from, "requests come from the reborn");
        let handled = self.recover_seen.entry(reborn).or_insert(0);
        if incarnation <= *handled {
            return false;
        }
        *handled = incarnation;
        // Writes still coalescing in the out-batches are already in our
        // durable history; flush so the recovery delta and the shadow
        // clocks agree on what has been sent.
        self.flush_updates(io);
        self.links.reset_toward(from, io);
        self.link_clock_out.remove(&from);
        self.link_clock_in.remove(&from);
        true
    }

    /// Applies one unwrapped protocol message.
    fn dispatch(&mut self, from: NodeId, msg: Msg, io: &mut impl NodeIo) {
        let p = self.proc;
        let durable = self.cfg.durability.is_some();
        match msg {
            Msg::Update { writer, .. } => {
                // Recovery can re-deliver an update the disk already
                // holds (an in-flight pre-crash copy racing the fresh
                // epoch): drop it by sequence. Without durability,
                // duplicate chaos stays visible to the checkers.
                if durable && writer.seq <= self.replica.applied[writer.proc] {
                    return;
                }
                self.ingest(msg, io);
            }
            Msg::UpdateBatch { proc, first_seq, upto, entries, delta, ack } => {
                // A piggybacked ack covers the reverse link, sparing a
                // standalone SessAck's information (the standalone still
                // travels; cumulative acks are idempotent). The epoch tag
                // keeps a pre-crash ack from advancing a reborn sender.
                if let Some((upto, epoch)) = ack.filter(|_| self.links.session.is_some()) {
                    self.links.on_ack(from, upto, epoch);
                }
                // Reconstruct the full dependency clock from the
                // per-link delta against this link's shadow copy. This
                // happens before the recovery-ghost check: any batch
                // that reaches dispatch belongs to the link's current
                // epoch chain (stale-epoch traffic dies in the session
                // receiver, pre-crash in-flight dies with the crash), so
                // even a ghost's delta must advance the shadow to keep
                // it in lock-step with the sender's.
                let nprocs = self.cfg.nprocs;
                let deps = delta.map(|dv| {
                    let prev =
                        self.link_clock_in.entry(from).or_insert_with(|| VClock::new(nprocs));
                    for (q, c) in dv {
                        prev.set(q, c);
                    }
                    prev.clone()
                });
                // Recovery ghost: the batch's content is already on disk
                // (or covered by a RecoverResp) — the replica must not
                // re-apply it and the WAL must not re-log it. Batches
                // from one writer never partially overlap, so a
                // whole-batch skip is exact.
                if durable && upto <= self.replica.applied[proc] {
                    return;
                }
                if durable {
                    // Logged as the `RecoverResp` the batch is now that its
                    // delta is expanded: replay needs no link shadow clock.
                    let put = |b: &mut Vec<u8>| {
                        wire::put_recover_resp(b, proc, first_seq, upto, 0, &entries, deps.as_ref())
                    };
                    self.wal_append(put, io);
                    self.maybe_snapshot(io);
                }
                let substrate = self.cfg.substrate();
                if self.replica.ingest_batch(proc, first_seq, upto, entries, deps, substrate) {
                    self.drain_flush_waiters(io);
                }
            }
            Msg::RecoverReq { proc: reborn, incarnation, applied } => {
                if !self.reborn_peer(reborn, incarnation, from, io) {
                    return;
                }
                // Answer with how much of *its* history we hold (the
                // push-back trigger; no entries), then re-ship our own
                // writes it is missing, one per message.
                let after = applied[p];
                let seen = self.replica.applied[reborn];
                let (first_seq, upto, entries, deps) = (after + 1, after, Vec::new(), None);
                let resp = Msg::RecoverResp { proc: p, first_seq, upto, entries, deps, seen };
                self.send(from, resp, io);
                self.reship(from, &[(0, after)], io);
            }
            Msg::RecoverResp { proc, first_seq, upto, seen, .. } => {
                // Recovery answers carry no entries. One that does (the
                // form a log records a batch in) is ingested unless it
                // re-covers the applied prefix.
                if upto >= first_seq && first_seq > self.replica.applied[proc] {
                    self.ingest(msg, io);
                }
                // Push back our own writes the responder has not seen.
                self.reship(from, &[(0, seen)], io);
            }
            Msg::Flush { from_proc, upto } => {
                if self.replica.applied[from_proc] >= upto {
                    self.send(NodeId(from_proc.0), Msg::FlushAck, io);
                } else {
                    self.flush_waiters.push((from_proc, upto));
                }
            }
            Msg::FlushAck => self.flush_acks += 1,
            Msg::LockGrant { lock, grant } => {
                self.granted.insert(lock, grant);
            }
            Msg::BarrierRelease { barrier, round, knowledge } => {
                self.barrier_released.insert((barrier, round), knowledge);
            }
            Msg::ScReadResp { value, writer } => {
                self.sc_resp = Some(Resp::Value { value, writer });
            }
            Msg::ScWriteAck => {
                let id = self.sc_pending_write.take().expect("pending SC write");
                self.sc_resp = Some(Resp::Wrote { id });
            }
            Msg::ScAwaitResp { value, writers } => {
                self.sc_resp = Some(Resp::Awaited { value, writers });
            }
            Msg::ShardUpdate { writer, loc, .. } => {
                // Recovery ghost: content already on disk (or covered by
                // a ShardRecoverResp) — skip the re-log and re-apply.
                let st = self.replica.shards().expect("sharded");
                if durable && writer.seq <= st.applied(st.shard_of(loc)).get(writer.proc) {
                    return;
                }
                self.ingest(msg, io);
            }
            Msg::ShardUpdateBatch { proc, shard, upto, .. } => {
                let st = self.replica.shards().expect("sharded");
                if durable && upto <= st.applied(shard as usize).get(proc) {
                    return;
                }
                self.ingest(msg, io);
            }
            Msg::SubAck { shard, subs } => {
                // Persist the subscription before any access can depend
                // on it: replay must filter dependency triples with the
                // same interest set the replica had live.
                if self.replica.shard_subscribe(shard as usize) && durable {
                    self.wal_append(|b| WalRecord::Subscribe { shard }.put_body(b), io);
                    io.wal_sync();
                }
                for q in subs {
                    self.add_shard_route(shard, q);
                }
                // The first-touch request retries via `poll`.
            }
            Msg::SubNotify { shard, proc } => {
                // A new subscriber joined: route future updates to it
                // and push our own write suffix for the shard directly,
                // so the join window closes without third-party state.
                self.add_shard_route(shard, proc);
                self.reship(NodeId(proc.0), &[(shard, 0)], io);
            }
            Msg::ShardRecoverReq { proc: reborn, incarnation, applied } => {
                if !self.reborn_peer(reborn, incarnation, from, io) {
                    return;
                }
                // Answer once per shard we share. The triples' shard ids
                // double as the reborn's subscription set (zeros kept),
                // so this also re-learns a dynamic subscriber's routes.
                // Each answer carries only the watermark metadata (the
                // push-back trigger); the write suffix itself follows as
                // individual updates.
                let mut shards: Vec<u32> = applied.iter().map(|&(s, _, _)| s).collect();
                shards.dedup();
                let mut wants = Vec::new();
                for s in shards {
                    let st = self.replica.shards().expect("sharded");
                    if !st.subscribed(s as usize) {
                        continue;
                    }
                    let seen = st.applied(s as usize).get(reborn);
                    self.add_shard_route(s, reborn);
                    let after = applied
                        .iter()
                        .find(|&&(ds, q, _)| ds == s && q == p)
                        .map_or(0, |&(_, _, c)| c);
                    let msg = Msg::ShardRecoverResp {
                        proc: p,
                        shard: s,
                        prev: after,
                        upto: after,
                        entries: Vec::new(),
                        deps: Vec::new(),
                        seen,
                    };
                    self.send(from, msg, io);
                    wants.push((s, after));
                }
                self.reship(from, &wants, io);
            }
            Msg::ShardRecoverResp { proc, shard, upto, seen, .. } => {
                // The responder subscribes to the shard, or it would not
                // answer for it — merge the route (recovery re-learning,
                // and the join-backfill path where it is already known).
                self.add_shard_route(shard, proc);
                let st = self.replica.shards().expect("sharded");
                if upto > st.applied(shard as usize).get(proc) {
                    self.ingest(msg, io);
                }
                // Push back our own suffix the responder has not seen.
                self.reship(NodeId(proc.0), &[(shard, seen)], io);
            }
            other => panic!("replica received unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The order of a node's effects, observed on a recording
    //! [`NodeIo`]: the logging discipline the crash explorations rely
    //! on, checked at the one place that decides it.

    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::config::{BatchPolicy, ShardConfig};
    use crate::durability::DurabilityPolicy;
    use mc_model::ModelSpec;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Effect {
        Send(&'static str),
        ArmTimer,
        WalAppend,
        WalSync,
    }
    use Effect::{ArmTimer, Send, WalAppend, WalSync};

    /// Records every effect in call order and keeps what was sent, and
    /// to whom.
    #[derive(Default)]
    struct Recorder {
        log: Vec<Effect>,
        sent: Vec<(NodeId, Msg)>,
        /// Simulates power loss at the next append: the call panics
        /// before the record is staged.
        crash_at_append: bool,
        /// Every link reports a frame still on its way.
        busy: bool,
    }

    impl NodeIo for Recorder {
        fn send(&mut self, to: NodeId, kind: &'static str, msg: Msg) {
            self.log.push(Send(kind));
            self.sent.push((to, msg));
        }

        fn arm_timer(&mut self, _delay: SimTime, _token: u64) {
            self.log.push(ArmTimer);
        }

        fn link_idle(&mut self, _to: NodeId) -> bool {
            !self.busy
        }

        fn wal_append(&mut self, _frame: &[u8]) {
            assert!(!self.crash_at_append, "power loss at the append");
            self.log.push(WalAppend);
        }

        fn wal_sync(&mut self) {
            self.log.push(WalSync);
        }

        fn install_snapshot(&mut self, _snapshot: Vec<u8>, _history: &[u8]) {}

        fn truncate_history(&mut self, _len: usize) {}
    }

    const X: Loc = Loc(0);
    const Y: Loc = Loc(1);

    fn durable(cfg: DsmConfig, group_commit: bool) -> Arc<DsmConfig> {
        let policy = DurabilityPolicy::default().with_group_commit(group_commit);
        Arc::new(cfg.with_durability(Some(policy)))
    }

    fn write(node: &mut ProcNode, io: &mut Recorder, loc: Loc, v: i64) {
        match node.start(Req::Write { loc, value: Value::Int(v) }, io) {
            Poll::Ready(Resp::Wrote { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    /// The messages `writer` puts on the wire for a write of `X`, then
    /// one of `Y`.
    fn written_by(writer: &mut ProcNode) -> Vec<Msg> {
        let mut io = Recorder::default();
        write(writer, &mut io, X, 7);
        write(writer, &mut io, Y, 8);
        writer.flush_updates(&mut io);
        io.sent.into_iter().map(|(_, msg)| msg).collect()
    }

    #[test]
    fn per_write_fsync_makes_the_record_durable_before_the_first_send() {
        let cfg = durable(DsmConfig::new(3, ModelSpec::CAUSAL), false);
        let (mut node, mut io) = (ProcNode::new(ProcId(0), cfg), Recorder::default());
        write(&mut node, &mut io, X, 1);
        assert_eq!(io.log, [WalAppend, WalSync, Send("update"), Send("update")]);
    }

    #[test]
    fn group_commit_stages_the_record_and_syncs_at_the_first_externalization() {
        let cfg = DsmConfig::new(2, ModelSpec::CAUSAL).with_batching(Some(BatchPolicy::default()));
        let cfg = durable(cfg, true);
        let (mut node, mut io) = (ProcNode::new(ProcId(0), cfg.clone()), Recorder::default());
        write(&mut node, &mut io, X, 1);
        assert_eq!(io.log, [WalAppend], "staged: nothing synced, nothing sent");
        node.flush_updates(&mut io);
        assert_eq!(io.log[1..], [WalSync, Send("update")], "a batch of one write is its update");

        // A local observation is an externalization point too: the value
        // a read or await returns must already be durable.
        for req in [
            Req::Read { loc: X, label: ReadLabel::Causal },
            Req::Await { loc: X, value: Value::Int(1) },
        ] {
            let (mut node, mut io) = (ProcNode::new(ProcId(0), cfg.clone()), Recorder::default());
            write(&mut node, &mut io, X, 1);
            let resp = node.start(req, &mut io);
            assert!(
                matches!(resp, Poll::Ready(Resp::Value { .. } | Resp::Awaited { .. })),
                "{resp:?}"
            );
            assert_eq!(io.log, [WalAppend, WalSync], "synced before the answer");
        }
    }

    #[test]
    fn remote_updates_are_logged_before_they_are_applied() {
        let sharded = |cfg: DsmConfig| cfg.with_sharding(Some(ShardConfig::full(2, 2)));
        let batched = |cfg: DsmConfig| cfg.with_batching(Some(BatchPolicy::default()));
        let base = || DsmConfig::new(2, ModelSpec::CAUSAL);
        for (cfg, kind) in [
            (base(), "update"),
            (batched(base()), "update_batch"),
            (sharded(base()), "shard_update"),
        ] {
            let cfg = durable(cfg, false);
            let msg = written_by(&mut ProcNode::new(ProcId(0), cfg.clone())).remove(0);
            assert_eq!(msg.kind(), kind);

            // Power fails at the append: the update must not be in the
            // replica yet, or a reader could have seen a value the log
            // never held.
            let mut node = ProcNode::new(ProcId(1), cfg.clone());
            let mut io = Recorder { crash_at_append: true, ..Recorder::default() };
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                node.on_message(NodeId(0), msg.clone(), &mut io);
            }));
            assert!(crashed.is_err(), "{kind}: the ingest reached the log");
            assert_eq!(node.replica().peek(X), Value::INITIAL, "{kind}: applied before logged");

            // The same delivery on a healthy disk: logged, then applied.
            let (mut node, mut io) = (ProcNode::new(ProcId(1), cfg), Recorder::default());
            node.on_message(NodeId(0), msg, &mut io);
            assert_eq!(io.log, [WalAppend], "{kind}");
            assert_eq!(node.replica().peek(X), Value::Int(7), "{kind}");
        }
    }

    #[test]
    fn ghost_batch_advances_the_shadow_clock_without_logging() {
        let cfg = DsmConfig::new(2, ModelSpec::CAUSAL).with_batching(Some(BatchPolicy::default()));
        let cfg = durable(cfg, false);
        let mut writer = ProcNode::new(ProcId(0), cfg.clone());
        let first = written_by(&mut writer).remove(0);
        let (mut node, mut io) = (ProcNode::new(ProcId(1), cfg), Recorder::default());
        node.on_message(NodeId(0), first.clone(), &mut io);
        assert_eq!(io.log, [WalAppend]);

        // The same window again, as recovery re-delivers it, but carrying
        // a delta the link's shadow clock has not seen.
        let Msg::UpdateBatch { proc, first_seq, upto, entries, .. } = first else {
            panic!("batching sends update batches")
        };
        let delta = Some(vec![(ProcId(0), 1), (ProcId(1), 9)]);
        let ghost = Msg::UpdateBatch { proc, first_seq, upto, entries, delta, ack: None };
        node.on_message(NodeId(0), ghost, &mut io);
        assert_eq!(io.log, [WalAppend], "a ghost is neither re-logged nor re-applied");
        assert_eq!(
            node.link_clock_in[&NodeId(0)][ProcId(1)],
            9,
            "its delta still advanced the link"
        );
    }

    /// Delivers every message `io` holds for `to` into `node`, from
    /// `from`, and returns what `node` sent in turn.
    fn deliver(from: NodeId, io: Recorder, node: &mut ProcNode) -> Recorder {
        let mut out = Recorder::default();
        for (to, msg) in io.sent {
            if to == node.node() {
                node.on_message(from, msg, &mut out);
            }
        }
        out
    }

    /// A reborn node with an empty disk, answered by two survivors whose
    /// missing writes reference each other's: each survivor's second
    /// write read the other's first. With the second survivor's whole
    /// answer delivered before any of the first's, every one of its
    /// writes waits on a write still to come — and all of them drain.
    #[test]
    fn a_reborn_node_drains_two_cross_dependent_recovery_answers() {
        let cfg = durable(DsmConfig::new(3, ModelSpec::CAUSAL), false);
        let (mut a, mut b) =
            (ProcNode::new(ProcId(0), cfg.clone()), ProcNode::new(ProcId(2), cfg.clone()));
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        let mut io = Recorder::default();
        write(&mut a, &mut io, Loc(0), 1);
        deliver(n0, io, &mut b);
        let mut io = Recorder::default();
        write(&mut b, &mut io, Loc(2), 1);
        deliver(n2, io, &mut a);
        let mut io = Recorder::default();
        write(&mut a, &mut io, Loc(0), 2);
        deliver(n0, io, &mut b);
        write(&mut b, &mut Recorder::default(), Loc(2), 2);

        let mut reborn = ProcNode::new(ProcId(1), cfg);
        let mut req = Recorder::default();
        reborn.recover(Recovery::default(), &mut req);
        let answer_a =
            deliver(n1, Recorder { sent: req.sent.clone(), ..Recorder::default() }, &mut a);
        let answer_b = deliver(n1, req, &mut b);
        let labels = answer_a.log.clone();
        let back = deliver(n2, answer_b, &mut reborn);
        deliver(n0, answer_a, &mut reborn);

        let r = reborn.replica();
        assert_eq!(r.pending_len(), 0, "every re-shipped write applied");
        assert_eq!((r.applied[ProcId(0)], r.applied[ProcId(2)]), (2, 2));
        assert_eq!((r.peek(Loc(0)), r.peek(Loc(2))), (Value::Int(2), Value::Int(2)));
        assert_eq!(labels, [Send("recover_resp"), Send("reship"), Send("reship")]);
        assert!(back.sent.is_empty(), "the reborn node wrote nothing to push back");
    }

    fn w(seq: u32) -> WriteId {
        WriteId::new(ProcId(0), seq)
    }

    fn set(v: i64) -> UpdatePayload {
        UpdatePayload::Set(Value::Int(v))
    }

    fn add(d: i64) -> UpdatePayload {
        UpdatePayload::Add(Value::Int(d))
    }

    fn entry(loc: u32, payload: UpdatePayload, writer: u32, adds: &[u32]) -> BatchEntry {
        BatchEntry { loc: Loc(loc), payload, writer: w(writer), adds: adds.to_vec() }
    }

    #[test]
    fn coalesced_sets_merge_into_the_latest_entry_and_adds_sum() {
        let mut c = Coalesced::default();
        c.push(Loc(0), set(1), w(1));
        c.push(Loc(1), add(2), w(2));
        c.push(Loc(0), set(3), w(3));
        c.push(Loc(1), add(5), w(4));
        assert_eq!(c.entries, [entry(0, set(3), 3, &[]), entry(1, add(7), 4, &[2, 4])]);
    }

    #[test]
    fn coalesced_a_kind_change_starts_an_entry_that_later_writes_merge_into() {
        let mut c = Coalesced::default();
        c.push(Loc(0), set(1), w(1));
        c.push(Loc(0), add(1), w(2));
        c.push(Loc(0), set(4), w(3));
        c.push(Loc(0), set(5), w(4));
        assert_eq!(
            c.entries,
            [entry(0, set(1), 1, &[]), entry(0, add(1), 2, &[2]), entry(0, set(5), 4, &[])],
            "the Set after the Add starts a third entry, and the last Set merges into it"
        );
    }

    /// Integer adds wrap, so the sum that fails is one across value
    /// kinds.
    #[test]
    fn coalesced_an_add_whose_sum_fails_starts_a_new_entry() {
        let mut c = Coalesced::default();
        c.push(Loc(0), add(1), w(1));
        let float = UpdatePayload::Add(Value::F64(0.5));
        c.push(Loc(0), float.clone(), w(2));
        c.push(Loc(0), UpdatePayload::Add(Value::F64(0.25)), w(3));
        let sum = UpdatePayload::Add(Value::F64(0.75));
        assert_eq!(c.entries, [entry(0, add(1), 1, &[1]), entry(0, sum, 3, &[2, 3])]);
    }

    #[test]
    fn coalesced_take_starts_the_next_batch_clean() {
        let mut c = Coalesced::default();
        c.push(Loc(0), set(1), w(1));
        c.push(Loc(1), set(2), w(2));
        let first: Vec<_> = c.take().collect();
        assert_eq!(first.len(), 2);
        assert!(c.entries.is_empty() && c.entries.capacity() >= 2, "capacity kept");
        c.push(Loc(1), set(3), w(3));
        c.push(Loc(0), set(4), w(4));
        assert_eq!(c.entries, [entry(1, set(3), 3, &[]), entry(0, set(4), 4, &[])]);
        assert_eq!(first[0], entry(0, set(1), 1, &[]), "the taken batch is untouched");
    }

    #[test]
    fn coalesced_takes_locations_beyond_the_configured_count() {
        let far = DsmConfig::new(2, ModelSpec::CAUSAL).locations as u32 * 1000;
        let mut c = Coalesced::default();
        c.push(Loc(far), set(1), w(1));
        c.push(Loc(3), set(2), w(2));
        c.push(Loc(far), set(3), w(3));
        assert_eq!(c.entries, [entry(far, set(3), 3, &[]), entry(3, set(2), 2, &[])]);
    }

    /// The batches `io` sent: entry count, last member, modeled entry
    /// bytes.
    fn batches(io: &Recorder) -> Vec<(usize, u32, u64)> {
        io.sent
            .iter()
            .map(|(_, msg)| match msg {
                Msg::UpdateBatch { entries, upto, .. } => {
                    (entries.len(), *upto, entries.iter().map(BatchEntry::wire_bytes).sum())
                }
                other => panic!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn coalesced_a_burst_behind_a_busy_link_leaves_in_chunk_sized_batches() {
        const N: u32 = 10_000;
        let cfg = DsmConfig::new(2, ModelSpec::CAUSAL).with_batching(Some(BatchPolicy::default()));
        let mut node = ProcNode::new(ProcId(0), Arc::new(cfg));
        let mut io = Recorder { busy: true, ..Recorder::default() };
        for loc in 0..N {
            node.enter(&mut io);
            write(&mut node, &mut io, Loc(loc), i64::from(loc));
        }
        // A batch closes where one more entry could pass the bound: 3 276
        // entries of 20 bytes, the last 172 writes still buffered.
        let full = ((wire::BUF_CHUNK as u64 - 24) / 20 + 1) as u32;
        assert_eq!(full, 3_276);
        let chunk = |k: u32| (full as usize, k * full, u64::from(full) * 20);
        assert_eq!(batches(&io), [chunk(1), chunk(2), chunk(3)]);
        assert_eq!(node.out.buf.entries.len(), (N - 3 * full) as usize);
        node.flush_updates(&mut io);
        let sent = batches(&io);
        assert_eq!(sent[3], (172, N, 172 * 20));
        assert!(sent.iter().all(|&(_, _, bytes)| bytes <= wire::BUF_CHUNK as u64));
    }

    /// Writes that coalesce into one entry still count toward the byte
    /// bound, so a link that stays busy cannot hold them back for ever:
    /// the batch closes after as many writes as distinct locations take.
    #[test]
    fn coalesced_writes_to_one_location_close_at_the_byte_bound() {
        let cfg = DsmConfig::new(2, ModelSpec::CAUSAL).with_batching(Some(BatchPolicy::default()));
        let mut node = ProcNode::new(ProcId(0), Arc::new(cfg));
        let mut io = Recorder { busy: true, ..Recorder::default() };
        let full = ((wire::BUF_CHUNK as u64 - 24) / 20 + 1) as u32;
        for i in 0..2 * full + 1 {
            node.enter(&mut io);
            write(&mut node, &mut io, X, i64::from(i));
        }
        assert_eq!(batches(&io), [(1, full, 20), (1, 2 * full, 20)]);
        assert_eq!(node.out.buf.entries.len(), 1, "the next batch is open");
    }

    /// Nagle's rule on a recording executor: a burst behind a frame on
    /// its way leaves as one batch once the link is idle, a lone write on
    /// an idle link leaves at the next operation's entry (not inside the
    /// write) as its own update, and a parking operation flushes whatever
    /// the link state.
    #[test]
    fn a_batch_closes_when_its_link_is_idle_or_its_operation_parks() {
        let cfg = Arc::new(
            DsmConfig::new(2, ModelSpec::CAUSAL).with_batching(Some(BatchPolicy::default())),
        );
        let op = |node: &mut ProcNode, io: &mut Recorder, req: Req| {
            node.enter(io);
            node.start(req, io)
        };
        let wr = |loc: u32, v: i64| Req::Write { loc: Loc(loc), value: Value::Int(v) };
        let rd = |loc: u32| Req::Read { loc: Loc(loc), label: ReadLabel::Pram };

        // A burst behind one in-flight frame: nothing leaves until the
        // link is idle, then everything leaves as one batch.
        let (mut node, mut io) = (ProcNode::new(ProcId(0), cfg.clone()), Recorder::default());
        io.busy = true;
        for loc in 0..8 {
            assert!(matches!(op(&mut node, &mut io, wr(loc, 1)), Poll::Ready(_)));
        }
        assert!(matches!(op(&mut node, &mut io, rd(0)), Poll::Ready(_)));
        assert!(io.sent.is_empty(), "nothing leaves behind a busy link");
        io.busy = false;
        assert!(matches!(op(&mut node, &mut io, rd(0)), Poll::Ready(_)));
        assert_eq!(batches(&io), [(8, 8, 160)], "the burst leaves as one batch");

        // A lone write on an idle link waits for the next operation, and
        // a batch of one write leaves as that write's update.
        let (mut node, mut io) = (ProcNode::new(ProcId(0), cfg.clone()), Recorder::default());
        assert!(matches!(op(&mut node, &mut io, wr(0, 1)), Poll::Ready(_)));
        assert!(io.sent.is_empty(), "the write itself sends nothing");
        node.enter(&mut io);
        match &io.sent[..] {
            [(_, Msg::Update { writer, loc: Loc(0), deps: Some(_), .. })] => {
                assert_eq!(*writer, w(1), "it leaves at the next operation's entry");
            }
            other => panic!("{other:?}"),
        }

        // A parking operation flushes even behind a busy link.
        let (mut node, mut io) = (ProcNode::new(ProcId(0), cfg), Recorder::default());
        io.busy = true;
        for loc in 0..2 {
            assert!(matches!(op(&mut node, &mut io, wr(loc, 1)), Poll::Ready(_)));
        }
        let parks = op(&mut node, &mut io, Req::Await { loc: Loc(2), value: Value::Int(1) });
        assert!(matches!(parks, Poll::Pending));
        assert_eq!(batches(&io), [(2, 2, 40)], "the parked operation's writes left");
    }
}
