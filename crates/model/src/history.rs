//! Histories: the interface between programs and the memory system.
//!
//! Section 3 of the paper models an execution as a *history*
//! `H = (Op, ;)` — the completed operations of all processes plus the
//! causality relation. This module provides:
//!
//! * [`History`] — the immutable, validated operation record;
//! * [`HistoryBuilder`] — an incremental builder used both by the runtime
//!   recorder and by hand-written litmus tests;
//! * well-formedness checking per the four conditions of Section 3 (one
//!   pending invocation per object, matched unlocks, totally-ordered
//!   barriers, consistency with program order);
//! * derivation of the per-lock epoch structure that induces `↦lock`, the
//!   per-barrier rounds that induce `↦bar`, and resolution of the
//!   reads-from relation `|.`.
//!
//! Local histories are *partial orders* (the paper deliberately allows
//! concurrency within a process); the builder supports both the common
//! sequential chain ([`HistoryBuilder::push`]) and explicit partial orders
//! ([`HistoryBuilder::push_after`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::graph::Digraph;
use crate::ids::{BarrierId, BarrierRound, Loc, LockId, OpId, ProcId, WriteId};
use crate::op::{Edge, LockMode, Op, OpKind, ReadLabel};
use crate::value::Value;

/// A lock *epoch*: one exclusive holder, or a maximal group of concurrent
/// readers uninterrupted by a write lock.
///
/// The synchronization order `↦lock` of Section 3.1.1 is exactly the
/// epoch order: write epochs are totally ordered with respect to
/// everything, reader operations within one epoch are mutually unordered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockEpoch {
    /// Whether this epoch is a write (exclusive) or read (shared) epoch.
    pub mode: LockMode,
    /// `(lock_op, unlock_op)` pairs of the epoch members. A write epoch has
    /// exactly one member.
    pub members: Vec<(OpId, OpId)>,
}

/// One round of a barrier object: the barrier operations `b^k_j`, one per
/// participating process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierRoundOps {
    /// The round index `k`.
    pub round: BarrierRound,
    /// The barrier operation of each participant, sorted by process.
    pub ops: Vec<OpId>,
}

/// Why a history failed validation.
///
/// The variants mirror the well-formedness conditions of Section 3 plus the
/// bookkeeping the model needs (unique write identities, resolvable
/// reads-from).
#[derive(Clone, Debug, PartialEq)]
pub enum MalformedHistory {
    /// Two write-like operations share a [`WriteId`].
    DuplicateWriteId(WriteId),
    /// A program-order edge connects operations of different processes.
    CrossProcessProgramOrder(OpId, OpId),
    /// A process's program order has a cycle.
    ProgramOrderCycle(ProcId),
    /// An unlock had no matching held lock (condition 3 of Section 3).
    UnmatchedUnlock(OpId),
    /// A lock was acquired while already held by the same process.
    ReentrantLock(OpId),
    /// A write lock was granted while the object was held.
    ConflictingLockGrant(OpId),
    /// A lock was still held when the history ended (incomplete history).
    LockHeldAtEnd(ProcId, LockId),
    /// A lock operation follows its unlock in program order, or the pair is
    /// unordered.
    LockPairDisordered(OpId, OpId),
    /// The same process appears twice in one barrier round.
    DuplicateBarrierArrival(OpId),
    /// Two rounds of the same barrier object have different participants.
    BarrierParticipantsChanged(BarrierId, BarrierRound),
    /// A process passed rounds of one barrier object out of order.
    BarrierRoundOrderViolation(OpId),
    /// A barrier operation is not totally ordered with respect to all other
    /// operations of its process (condition 4 of Section 3).
    BarrierNotTotallyOrdered(OpId),
    /// Two concurrent operations of one process touch the same object
    /// (condition 2 of Section 3: one pending invocation per object).
    ConcurrentSameObject(OpId, OpId),
    /// A read's value matches no write and is not the initial value, or the
    /// recorded writer does not exist.
    UnresolvableRead(OpId),
    /// A read's value matches several writes and no writer was recorded.
    AmbiguousRead(OpId),
    /// A read's recorded writer wrote a different value or location.
    ReadValueMismatch(OpId),
    /// An await's observed writers could not be resolved or do not produce
    /// the awaited value.
    UnresolvableAwait(OpId),
    /// The recorded write order of a location is not a permutation of
    /// the history's writes and updates to it.
    WriteOrderMismatch(Loc),
}

impl fmt::Display for MalformedHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use MalformedHistory::*;
        match self {
            DuplicateWriteId(w) => write!(f, "duplicate write identity {w}"),
            CrossProcessProgramOrder(a, b) => {
                write!(f, "program-order edge {a} -> {b} crosses processes")
            }
            ProgramOrderCycle(p) => write!(f, "program order of {p} has a cycle"),
            UnmatchedUnlock(o) => write!(f, "unlock {o} has no matching lock"),
            ReentrantLock(o) => write!(f, "lock {o} acquired while already held"),
            ConflictingLockGrant(o) => {
                write!(f, "lock {o} granted while the object was held")
            }
            LockHeldAtEnd(p, l) => write!(f, "{p} still holds {l} at end of history"),
            LockPairDisordered(a, b) => {
                write!(f, "lock {a} and unlock {b} are not ordered lock-then-unlock")
            }
            DuplicateBarrierArrival(o) => {
                write!(f, "process arrived twice at one barrier round ({o})")
            }
            BarrierParticipantsChanged(b, k) => {
                write!(f, "participants of {b} changed at round {k}")
            }
            BarrierRoundOrderViolation(o) => {
                write!(f, "barrier rounds passed out of order at {o}")
            }
            BarrierNotTotallyOrdered(o) => {
                write!(f, "barrier {o} is not totally ordered within its process")
            }
            ConcurrentSameObject(a, b) => {
                write!(f, "concurrent same-object operations {a} and {b}")
            }
            UnresolvableRead(o) => write!(f, "read {o} matches no write"),
            AmbiguousRead(o) => {
                write!(f, "read {o} matches several writes; record a writer")
            }
            ReadValueMismatch(o) => {
                write!(f, "read {o} disagrees with its recorded writer")
            }
            UnresolvableAwait(o) => write!(f, "await {o} cannot be resolved"),
            WriteOrderMismatch(l) => {
                write!(f, "write order of {l} is not a permutation of its writes")
            }
        }
    }
}

impl std::error::Error for MalformedHistory {}

/// A validated, complete, well-formed history.
///
/// Construct through [`HistoryBuilder`]. All derived structure (lock
/// epochs, barrier rounds, reads-from) is computed once at build time.
#[derive(Clone, Debug)]
pub struct History {
    nprocs: usize,
    ops: Vec<Op>,
    po_edges: Vec<Edge>,
    per_proc: Vec<Vec<OpId>>,
    initial: HashMap<Loc, Value>,
    lock_epochs: BTreeMap<LockId, Vec<LockEpoch>>,
    barrier_rounds: BTreeMap<BarrierId, Vec<BarrierRoundOps>>,
    writes_by_id: HashMap<WriteId, OpId>,
    /// Resolved reads-from: for every `Read` op, the write it returned
    /// (possibly [`WriteId::initial`]); `None` for non-reads.
    rf: Vec<Option<WriteId>>,
    /// Resolved await sources: for every `Await` op, the writes it
    /// synchronizes with.
    await_src: Vec<Vec<WriteId>>,
    /// The order in which a central server applied each location's
    /// writes and updates, when the executor recorded one.
    write_order: Option<BTreeMap<Loc, Vec<WriteId>>>,
}

impl History {
    /// The number of processes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All operations, indexed by [`OpId`].
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// One operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// The (reduced) program-order edges.
    pub fn po_edges(&self) -> &[Edge] {
        &self.po_edges
    }

    /// The operations of one process, in push order.
    pub fn proc_ops(&self, proc: ProcId) -> &[OpId] {
        &self.per_proc[proc.index()]
    }

    /// The initial value of a location.
    pub fn initial(&self, loc: Loc) -> Value {
        self.initial.get(&loc).copied().unwrap_or(Value::INITIAL)
    }

    /// The lock-epoch structure per lock object, in grant order.
    pub fn lock_epochs(&self) -> &BTreeMap<LockId, Vec<LockEpoch>> {
        &self.lock_epochs
    }

    /// The barrier rounds per barrier object, in round order.
    pub fn barrier_rounds(&self) -> &BTreeMap<BarrierId, Vec<BarrierRoundOps>> {
        &self.barrier_rounds
    }

    /// The operation that produced a write identity, or `None` for initial
    /// writes.
    pub fn write_op(&self, id: WriteId) -> Option<OpId> {
        self.writes_by_id.get(&id).copied()
    }

    /// The resolved writer of a read operation.
    ///
    /// # Panics
    ///
    /// Panics if `read` is not a `Read` operation.
    pub fn reads_from(&self, read: OpId) -> WriteId {
        self.rf[read.index()].unwrap_or_else(|| panic!("{read} is not a read operation"))
    }

    /// The resolved synchronization sources of an await operation.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an `Await` operation.
    pub fn await_sources(&self, a: OpId) -> &[WriteId] {
        assert!(
            matches!(self.ops[a.index()].kind, OpKind::Await { .. }),
            "{a} is not an await operation"
        );
        &self.await_src[a.index()]
    }

    /// The write order the executor's central server recorded: per
    /// written location, every write and update to it in the order the
    /// server applied them. `None` for histories without one (replicated
    /// protocols, hand-built and parsed histories). Not part of
    /// [`History::signature`].
    pub fn write_order(&self) -> Option<&BTreeMap<Loc, Vec<WriteId>>> {
        self.write_order.as_ref()
    }

    /// Iterates over the ids of all operations.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Iterates over `(OpId, &Op)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &Op)> {
        self.ops.iter().enumerate().map(|(i, op)| (OpId(i as u32), op))
    }

    /// A hash identifying the observable content of the history: its
    /// operations rendered in canonical per-process program order. Two
    /// executions with equal signatures made the same operations
    /// observe the same values in the same per-process order —
    /// program order and reads-from resolution are derived from
    /// exactly that data, so any per-history checker verdict is
    /// identical, which is what lets exploration deduplicate
    /// verification work. Deliberately *not* the global interleaving
    /// order: equivalent interleavings of independent operations must
    /// hash alike, or partial-order reduction would count each
    /// equivalence class once per representative it happens to run.
    pub fn signature(&self) -> u64 {
        use std::fmt::Write as _;
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        let mut s = String::new();
        for per_proc in &self.per_proc {
            for &id in per_proc {
                let _ = writeln!(s, "{}", self.ops[id.index()]);
            }
            s.push('\n');
        }
        s.hash(&mut hasher);
        hasher.finish()
    }

    /// Renders the history one operation per line — useful in test
    /// failures.
    pub fn to_pretty_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (id, op) in self.iter() {
            let _ = writeln!(s, "{id}: {op}");
        }
        s
    }

    /// Projects the history onto one shard of a sharded address space.
    ///
    /// Under interest-based partial replication the address space is
    /// partitioned by `shard(loc) = loc.index() % nshards`, each shard
    /// carries its own per-shard vector clock, and the consistency
    /// guarantees of the paper are promised *per shard*: updates to a
    /// shard flow FIFO/causally among its subscribers, while accesses
    /// to distinct shards are unordered unless a causal chain through a
    /// shared shard relates them. The projection keeps exactly the
    /// operations on locations of `shard` (in program order, with their
    /// original [`WriteId`]s and recorded reads-from edges) and drops
    /// everything else, so a model checker run on the projection judges
    /// the per-shard guarantee.
    ///
    /// Synchronization operations (locks and barriers) order accesses
    /// across the whole address space and therefore have no per-shard
    /// meaning; the DSM rejects them when sharding is on, and this
    /// projection drops them.
    ///
    /// # Errors
    ///
    /// Propagates [`MalformedHistory`] from re-validation; a projection
    /// of a well-formed history is itself well-formed, so an error here
    /// indicates a bug in the caller's shard arithmetic (e.g. a
    /// recorded reads-from edge crossing shards).
    ///
    /// # Panics
    ///
    /// Panics if `nshards` is zero or `shard >= nshards`.
    pub fn project_shard(&self, nshards: usize, shard: usize) -> Result<History, MalformedHistory> {
        assert!(nshards > 0, "nshards must be positive");
        assert!(shard < nshards, "shard {shard} out of range for {nshards} shards");
        let in_shard = |loc: Loc| loc.index() % nshards == shard;
        let mut b = HistoryBuilder::new(self.nprocs);
        for (&loc, &v) in &self.initial {
            if in_shard(loc) {
                b.set_initial(loc, v);
            }
        }
        for p in 0..self.nprocs {
            for &id in self.proc_ops(ProcId(p as u32)) {
                let op = &self.ops[id.index()];
                match &op.kind {
                    OpKind::Read { loc, label, value, .. } if in_shard(*loc) => {
                        b.push_read_from(op.proc, *loc, *label, *value, self.reads_from(id));
                    }
                    OpKind::Write { loc, value, id: w } if in_shard(*loc) => {
                        b.push(op.proc, OpKind::Write { loc: *loc, value: *value, id: *w });
                    }
                    OpKind::Update { loc, delta, id: w } if in_shard(*loc) => {
                        b.push(op.proc, OpKind::Update { loc: *loc, delta: *delta, id: *w });
                    }
                    OpKind::Await { loc, value, .. } if in_shard(*loc) => {
                        b.push(
                            op.proc,
                            OpKind::Await {
                                loc: *loc,
                                value: *value,
                                writers: self.await_sources(id).to_vec(),
                            },
                        );
                    }
                    _ => {}
                }
            }
        }
        b.build()
    }
}

/// Incremental builder for [`History`].
///
/// # Examples
///
/// ```
/// use mc_model::{HistoryBuilder, Loc, ProcId, ReadLabel, Value};
///
/// let mut b = HistoryBuilder::new(2);
/// let _w = b.push_write(ProcId(0), Loc(0), Value::Int(1));
/// let _r = b.push_read(ProcId(1), Loc(0), ReadLabel::Causal, Value::Int(1));
/// let h = b.build()?;
/// assert_eq!(h.len(), 2);
/// # Ok::<(), mc_model::MalformedHistory>(())
/// ```
#[derive(Clone, Debug)]
pub struct HistoryBuilder {
    nprocs: usize,
    ops: Vec<Op>,
    po_edges: Vec<Edge>,
    per_proc: Vec<Vec<OpId>>,
    last_of_proc: Vec<Option<OpId>>,
    proc_is_chain: Vec<bool>,
    initial: HashMap<Loc, Value>,
    write_seq: Vec<u32>,
    write_order: Option<BTreeMap<Loc, Vec<WriteId>>>,
}

impl HistoryBuilder {
    /// Creates a builder for a history over `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        HistoryBuilder {
            nprocs,
            ops: Vec::new(),
            po_edges: Vec::new(),
            per_proc: vec![Vec::new(); nprocs],
            last_of_proc: vec![None; nprocs],
            proc_is_chain: vec![true; nprocs],
            initial: HashMap::new(),
            write_seq: vec![0; nprocs],
            write_order: None,
        }
    }

    /// Declares the initial value of a location (default is `Int(0)`).
    pub fn set_initial(&mut self, loc: Loc, value: Value) -> &mut Self {
        self.initial.insert(loc, value);
        self
    }

    /// Appends an operation to `proc`'s program-order chain.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn push(&mut self, proc: ProcId, kind: OpKind) -> OpId {
        let id = self.add_op(proc, kind);
        if let Some(prev) = self.last_of_proc[proc.index()] {
            self.po_edges.push((prev, id));
        }
        self.last_of_proc[proc.index()] = Some(id);
        id
    }

    /// Adds an operation ordered after the given same-process predecessors
    /// only (expressing intra-process concurrency).
    ///
    /// Passing an empty `preds` adds a new minimal operation.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn push_after(&mut self, proc: ProcId, kind: OpKind, preds: &[OpId]) -> OpId {
        let id = self.add_op(proc, kind);
        for &p in preds {
            self.po_edges.push((p, id));
        }
        self.proc_is_chain[proc.index()] = false;
        // Later plain `push` calls continue after this op.
        self.last_of_proc[proc.index()] = Some(id);
        id
    }

    fn add_op(&mut self, proc: ProcId, kind: OpKind) -> OpId {
        assert!(proc.index() < self.nprocs, "process out of range");
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Op::new(proc, kind));
        self.per_proc[proc.index()].push(id);
        id
    }

    /// Convenience: pushes a write, minting a fresh [`WriteId`], and
    /// returns `(op, write_id)`.
    pub fn push_write(&mut self, proc: ProcId, loc: Loc, value: Value) -> (OpId, WriteId) {
        let seq = &mut self.write_seq[proc.index()];
        *seq += 1;
        let id = WriteId::new(proc, *seq);
        let op = self.push(proc, OpKind::Write { loc, value, id });
        (op, id)
    }

    /// Convenience: pushes a commutative update, minting a fresh
    /// [`WriteId`], and returns `(op, write_id)`.
    pub fn push_update(
        &mut self,
        proc: ProcId,
        loc: Loc,
        delta: impl Into<Value>,
    ) -> (OpId, WriteId) {
        let seq = &mut self.write_seq[proc.index()];
        *seq += 1;
        let id = WriteId::new(proc, *seq);
        let op = self.push(proc, OpKind::Update { loc, delta: delta.into(), id });
        (op, id)
    }

    /// Convenience: pushes a read whose writer will be resolved by value.
    pub fn push_read(&mut self, proc: ProcId, loc: Loc, label: ReadLabel, value: Value) -> OpId {
        self.push(proc, OpKind::Read { loc, label, value, writer: None })
    }

    /// Convenience: pushes a read with a recorded writer.
    pub fn push_read_from(
        &mut self,
        proc: ProcId,
        loc: Loc,
        label: ReadLabel,
        value: Value,
        writer: WriteId,
    ) -> OpId {
        self.push(proc, OpKind::Read { loc, label, value, writer: Some(writer) })
    }

    /// Convenience: pushes a lock acquisition.
    pub fn push_lock(&mut self, proc: ProcId, lock: LockId, mode: LockMode) -> OpId {
        self.push(proc, OpKind::Lock { lock, mode })
    }

    /// Convenience: pushes a lock release.
    pub fn push_unlock(&mut self, proc: ProcId, lock: LockId, mode: LockMode) -> OpId {
        self.push(proc, OpKind::Unlock { lock, mode })
    }

    /// Convenience: pushes a barrier operation.
    pub fn push_barrier(&mut self, proc: ProcId, barrier: BarrierId, round: BarrierRound) -> OpId {
        self.push(proc, OpKind::Barrier { barrier, round })
    }

    /// Convenience: pushes an await to be resolved by unique value.
    pub fn push_await(&mut self, proc: ProcId, loc: Loc, value: Value) -> OpId {
        self.push(proc, OpKind::Await { loc, value, writers: Vec::new() })
    }

    /// Records the order in which a central server applied the writes and
    /// updates to `loc` (see [`History::write_order`]). Once any location
    /// has an order, [`HistoryBuilder::build`] requires one for every
    /// written location.
    pub fn set_write_order(&mut self, loc: Loc, order: Vec<WriteId>) -> &mut Self {
        self.write_order.get_or_insert_with(BTreeMap::new).insert(loc, order);
        self
    }

    /// The number of operations pushed so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates everything and produces the [`History`].
    ///
    /// # Errors
    ///
    /// Returns a [`MalformedHistory`] describing the first violated
    /// well-formedness condition.
    pub fn build(self) -> Result<History, MalformedHistory> {
        let HistoryBuilder {
            nprocs,
            ops,
            po_edges,
            per_proc,
            initial,
            proc_is_chain,
            write_order,
            ..
        } = self;

        // -- program order sanity ------------------------------------------------
        for &(a, b) in &po_edges {
            if ops[a.index()].proc != ops[b.index()].proc {
                return Err(MalformedHistory::CrossProcessProgramOrder(a, b));
            }
        }
        // Per-process closure (needed for conditions 2 and 4 and lock-pair
        // ordering). Also detects cycles. A chain needs none: its program
        // order is push order.
        let mut proc_closure = Vec::with_capacity(nprocs);
        for (p, local_ids) in per_proc.iter().enumerate() {
            if proc_is_chain[p] {
                proc_closure.push(None);
                continue;
            }
            let index_of: HashMap<OpId, usize> =
                local_ids.iter().enumerate().map(|(i, &o)| (o, i)).collect();
            let mut g = Digraph::new(local_ids.len());
            for &(a, b) in &po_edges {
                if ops[a.index()].proc == ProcId(p as u32) {
                    g.add_edge(index_of[&a], index_of[&b]);
                }
            }
            let closure = g
                .transitive_closure()
                .map_err(|_| MalformedHistory::ProgramOrderCycle(ProcId(p as u32)))?;
            proc_closure.push(Some((index_of, closure)));
        }
        let po_before = |a: OpId, b: OpId| match &proc_closure[ops[a.index()].proc.index()] {
            None => a < b,
            Some((index_of, closure)) => closure.get(index_of[&a], index_of[&b]),
        };

        // Condition 2: at most one pending invocation per object — with
        // complete operations this means no two *concurrent* same-process
        // operations on the same object. Only partial-order processes can
        // violate it.
        // Condition 4: barriers totally ordered within their process.
        for p in 0..nprocs {
            if proc_is_chain[p] {
                continue;
            }
            let local = &per_proc[p];
            for (i, &a) in local.iter().enumerate() {
                for &b in &local[i + 1..] {
                    let ordered = po_before(a, b) || po_before(b, a);
                    if ordered {
                        continue;
                    }
                    let (ka, kb) = (&ops[a.index()].kind, &ops[b.index()].kind);
                    if matches!(ka, OpKind::Barrier { .. }) || matches!(kb, OpKind::Barrier { .. })
                    {
                        let o = if matches!(ka, OpKind::Barrier { .. }) { a } else { b };
                        return Err(MalformedHistory::BarrierNotTotallyOrdered(o));
                    }
                    let same_loc = ka.loc().is_some() && ka.loc() == kb.loc();
                    let same_lock = ka.lock().is_some() && ka.lock() == kb.lock();
                    if same_loc || same_lock {
                        return Err(MalformedHistory::ConcurrentSameObject(a, b));
                    }
                }
            }
        }

        // -- write identities ----------------------------------------------------
        let mut writes_by_id: HashMap<WriteId, OpId> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if let Some(w) = op.kind.write_id() {
                if writes_by_id.insert(w, OpId(i as u32)).is_some() {
                    return Err(MalformedHistory::DuplicateWriteId(w));
                }
            }
        }

        // -- write order: each location's list is a permutation of its writes ----
        if let Some(order) = &write_order {
            let mut listed = vec![false; ops.len()];
            for (&loc, writes) in order {
                for w in writes {
                    let fits = writes_by_id.get(w).is_some_and(|&o| {
                        ops[o.index()].kind.loc() == Some(loc)
                            && !std::mem::replace(&mut listed[o.index()], true)
                    });
                    if !fits {
                        return Err(MalformedHistory::WriteOrderMismatch(loc));
                    }
                }
            }
            let unlisted = ops.iter().zip(&listed).find(|(op, &l)| !l && op.kind.is_write_like());
            if let Some((op, _)) = unlisted {
                let loc = op.kind.loc().expect("write-like operations have a location");
                return Err(MalformedHistory::WriteOrderMismatch(loc));
            }
        }

        // -- lock epochs (push order == grant order) ------------------------------
        #[derive(Debug)]
        enum Cur {
            Idle,
            Write { lock_op: OpId, holder: ProcId, unlocked: bool },
            Read { members: Vec<(OpId, Option<OpId>)> },
        }
        let mut state: BTreeMap<LockId, Cur> = BTreeMap::new();
        let mut epochs: BTreeMap<LockId, Vec<LockEpoch>> = BTreeMap::new();
        let mut held: HashMap<(ProcId, LockId), (LockMode, OpId)> = HashMap::new();

        let close_epoch = |lock: LockId,
                           cur: &mut Cur,
                           epochs: &mut BTreeMap<LockId, Vec<LockEpoch>>|
         -> Result<(), MalformedHistory> {
            match std::mem::replace(cur, Cur::Idle) {
                Cur::Idle => {}
                Cur::Write { lock_op, holder, unlocked } => {
                    if !unlocked {
                        // Re-install; caller decides if this is an error.
                        *cur = Cur::Write { lock_op, holder, unlocked };
                        return Err(MalformedHistory::ConflictingLockGrant(lock_op));
                    }
                    // unlock op recorded when processed; find it via members
                    // — tracked below instead.
                    unreachable!("write epochs are closed at unlock time");
                }
                Cur::Read { members } => {
                    if members.iter().any(|(_, u)| u.is_none()) {
                        let open = members.iter().find(|(_, u)| u.is_none()).unwrap().0;
                        *cur = Cur::Read { members };
                        return Err(MalformedHistory::ConflictingLockGrant(open));
                    }
                    epochs.entry(lock).or_default().push(LockEpoch {
                        mode: LockMode::Read,
                        members: members
                            .into_iter()
                            .map(|(l, u)| (l, u.expect("checked above")))
                            .collect(),
                    });
                }
            }
            Ok(())
        };

        for (i, op) in ops.iter().enumerate() {
            let id = OpId(i as u32);
            match &op.kind {
                OpKind::Lock { lock, mode } => {
                    if held.contains_key(&(op.proc, *lock)) {
                        return Err(MalformedHistory::ReentrantLock(id));
                    }
                    let cur = state.entry(*lock).or_insert(Cur::Idle);
                    match mode {
                        LockMode::Write => {
                            // All previous holders must have released.
                            close_epoch(*lock, cur, &mut epochs)
                                .map_err(|_| MalformedHistory::ConflictingLockGrant(id))?;
                            *cur = Cur::Write { lock_op: id, holder: op.proc, unlocked: false };
                        }
                        LockMode::Read => match cur {
                            Cur::Idle => {
                                *cur = Cur::Read { members: vec![(id, None)] };
                            }
                            Cur::Read { members } => members.push((id, None)),
                            Cur::Write { .. } => {
                                return Err(MalformedHistory::ConflictingLockGrant(id));
                            }
                        },
                    }
                    held.insert((op.proc, *lock), (*mode, id));
                }
                OpKind::Unlock { lock, mode } => {
                    let Some((hmode, lock_op)) = held.remove(&(op.proc, *lock)) else {
                        return Err(MalformedHistory::UnmatchedUnlock(id));
                    };
                    if hmode != *mode {
                        return Err(MalformedHistory::UnmatchedUnlock(id));
                    }
                    let cur = state.get_mut(lock).expect("lock has state while held");
                    match (mode, &mut *cur) {
                        (LockMode::Write, Cur::Write { lock_op: l, .. }) if *l == lock_op => {
                            epochs.entry(*lock).or_default().push(LockEpoch {
                                mode: LockMode::Write,
                                members: vec![(lock_op, id)],
                            });
                            *cur = Cur::Idle;
                        }
                        (LockMode::Read, Cur::Read { members }) => {
                            let m = members
                                .iter_mut()
                                .find(|(l, _)| *l == lock_op)
                                .expect("member present while held");
                            m.1 = Some(id);
                            // Epoch stays open: later readers may join until
                            // a write lock arrives or the history ends.
                        }
                        _ => return Err(MalformedHistory::UnmatchedUnlock(id)),
                    }
                }
                _ => {}
            }
        }
        if let Some(((p, l), _)) = held.iter().next() {
            return Err(MalformedHistory::LockHeldAtEnd(*p, *l));
        }
        // Close any trailing read epochs.
        for (lock, mut cur) in std::mem::take(&mut state) {
            close_epoch(lock, &mut cur, &mut epochs)
                .map_err(|_| MalformedHistory::LockHeldAtEnd(ProcId(0), lock))?;
        }

        // Lock must precede its unlock in program order.
        for eps in epochs.values() {
            for ep in eps {
                for &(l, u) in &ep.members {
                    if !po_before(l, u) {
                        return Err(MalformedHistory::LockPairDisordered(l, u));
                    }
                }
            }
        }

        // -- barrier rounds --------------------------------------------------------
        let mut rounds_map: BTreeMap<BarrierId, BTreeMap<BarrierRound, Vec<OpId>>> =
            BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            if let OpKind::Barrier { barrier, round } = op.kind {
                rounds_map
                    .entry(barrier)
                    .or_default()
                    .entry(round)
                    .or_default()
                    .push(OpId(i as u32));
            }
        }
        let mut barrier_rounds: BTreeMap<BarrierId, Vec<BarrierRoundOps>> = BTreeMap::new();
        for (bar, rounds) in rounds_map {
            let mut participants: Option<Vec<ProcId>> = None;
            let mut out = Vec::new();
            for (round, mut round_ops) in rounds {
                round_ops.sort_by_key(|o| ops[o.index()].proc);
                let procs: Vec<ProcId> = round_ops.iter().map(|o| ops[o.index()].proc).collect();
                for w in procs.windows(2) {
                    if w[0] == w[1] {
                        return Err(MalformedHistory::DuplicateBarrierArrival(round_ops[0]));
                    }
                }
                match &participants {
                    None => participants = Some(procs),
                    Some(expect) => {
                        if *expect != procs {
                            return Err(MalformedHistory::BarrierParticipantsChanged(bar, round));
                        }
                    }
                }
                out.push(BarrierRoundOps { round, ops: round_ops });
            }
            // Each process must pass rounds in increasing program order.
            for p in 0..nprocs {
                let mine: Vec<OpId> = out
                    .iter()
                    .filter_map(|r| {
                        r.ops.iter().copied().find(|o| ops[o.index()].proc == ProcId(p as u32))
                    })
                    .collect();
                for w in mine.windows(2) {
                    if !po_before(w[0], w[1]) {
                        return Err(MalformedHistory::BarrierRoundOrderViolation(w[1]));
                    }
                }
            }
            barrier_rounds.insert(bar, out);
        }

        // -- reads-from resolution ---------------------------------------------
        let initial_of = |loc: Loc| initial.get(&loc).copied().unwrap_or(Value::INITIAL);
        let mut rf: Vec<Option<WriteId>> = vec![None; ops.len()];
        let mut await_src: Vec<Vec<WriteId>> = vec![Vec::new(); ops.len()];
        for (i, op) in ops.iter().enumerate() {
            let id = OpId(i as u32);
            match &op.kind {
                OpKind::Read { loc, value, writer, .. } => {
                    let resolved = match writer {
                        Some(w) => {
                            if w.is_initial() {
                                if initial_of(*loc) != *value {
                                    return Err(MalformedHistory::ReadValueMismatch(id));
                                }
                            } else {
                                let Some(wop) = writes_by_id.get(w) else {
                                    return Err(MalformedHistory::UnresolvableRead(id));
                                };
                                match &ops[wop.index()].kind {
                                    OpKind::Write { loc: wl, value: wv, .. } => {
                                        if wl != loc || wv != value {
                                            return Err(MalformedHistory::ReadValueMismatch(id));
                                        }
                                    }
                                    // Reads of counter locations record the
                                    // update whose application produced the
                                    // observed value; the value itself is a
                                    // running sum, so no equality check.
                                    OpKind::Update { loc: wl, .. } => {
                                        if wl != loc {
                                            return Err(MalformedHistory::ReadValueMismatch(id));
                                        }
                                    }
                                    _ => return Err(MalformedHistory::UnresolvableRead(id)),
                                }
                            }
                            *w
                        }
                        None => {
                            let matches: Vec<WriteId> = ops
                                .iter()
                                .filter_map(|o| match &o.kind {
                                    OpKind::Write { loc: wl, value: wv, id }
                                        if wl == loc && wv == value =>
                                    {
                                        Some(*id)
                                    }
                                    _ => None,
                                })
                                .collect();
                            let loc_has_updates = ops.iter().any(
                                |o| matches!(o.kind, OpKind::Update { loc: l, .. } if l == *loc),
                            );
                            match matches.len() {
                                1 => matches[0],
                                0 if initial_of(*loc) == *value => WriteId::initial(*loc),
                                // Counter locations: the value is a running
                                // sum; without a recorded writer the read
                                // resolves to the initial pseudo-write and
                                // is judged by the counter-visibility rule.
                                0 if loc_has_updates => WriteId::initial(*loc),
                                0 => return Err(MalformedHistory::UnresolvableRead(id)),
                                _ => return Err(MalformedHistory::AmbiguousRead(id)),
                            }
                        }
                    };
                    rf[i] = Some(resolved);
                }
                OpKind::Await { loc, value, writers } => {
                    let resolved: Vec<WriteId> = if writers.is_empty() {
                        let matches: Vec<WriteId> = ops
                            .iter()
                            .filter_map(|o| match &o.kind {
                                OpKind::Write { loc: wl, value: wv, id }
                                    if wl == loc && wv == value =>
                                {
                                    Some(*id)
                                }
                                _ => None,
                            })
                            .collect();
                        match matches.len() {
                            1 => matches,
                            0 if initial_of(*loc) == *value => {
                                vec![WriteId::initial(*loc)]
                            }
                            _ => return Err(MalformedHistory::UnresolvableAwait(id)),
                        }
                    } else {
                        for w in writers {
                            if !w.is_initial() && !writes_by_id.contains_key(w) {
                                return Err(MalformedHistory::UnresolvableAwait(id));
                            }
                        }
                        writers.clone()
                    };
                    await_src[i] = resolved;
                }
                _ => {}
            }
        }

        Ok(History {
            nprocs,
            ops,
            po_edges,
            per_proc,
            initial,
            lock_epochs: epochs,
            barrier_rounds,
            writes_by_id,
            rf,
            await_src,
            write_order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn build_simple_chain() {
        let mut b = HistoryBuilder::new(2);
        let (w, wid) = b.push_write(p(0), Loc(0), Value::Int(1));
        let r = b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.nprocs(), 2);
        assert_eq!(h.reads_from(r), wid);
        assert_eq!(h.write_op(wid), Some(w));
        assert_eq!(h.proc_ops(p(0)), &[w]);
        assert!(h.po_edges().is_empty());
        assert!(!h.is_empty());
        assert!(h.to_pretty_string().contains("w_p0(x0)1"));
    }

    #[test]
    fn program_order_chains_per_process() {
        let mut b = HistoryBuilder::new(1);
        let (a, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let (c, _) = b.push_write(p(0), Loc(0), Value::Int(2));
        let h = b.build().unwrap();
        assert_eq!(h.po_edges(), &[(a, c)]);
    }

    #[test]
    fn read_of_initial_value() {
        let mut b = HistoryBuilder::new(1);
        let r = b.push_read(p(0), Loc(3), ReadLabel::Pram, Value::Int(0));
        let h = b.build().unwrap();
        assert!(h.reads_from(r).is_initial());
        assert_eq!(h.initial(Loc(3)), Value::Int(0));
    }

    #[test]
    fn custom_initial_value() {
        let mut b = HistoryBuilder::new(1);
        b.set_initial(Loc(0), Value::Int(9));
        let r = b.push_read(p(0), Loc(0), ReadLabel::Pram, Value::Int(9));
        let h = b.build().unwrap();
        assert!(h.reads_from(r).is_initial());
        assert_eq!(h.initial(Loc(0)), Value::Int(9));
    }

    #[test]
    fn ambiguous_read_is_rejected() {
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(5));
        b.push_write(p(1), Loc(0), Value::Int(5));
        b.push_read(p(0), Loc(0), ReadLabel::Causal, Value::Int(5));
        assert!(matches!(b.build(), Err(MalformedHistory::AmbiguousRead(_))));
    }

    #[test]
    fn project_shard_keeps_only_shard_locations() {
        let mut b = HistoryBuilder::new(2);
        b.set_initial(Loc(1), Value::Int(9));
        let (_, w0) = b.push_write(p(0), Loc(0), Value::Int(1)); // shard 0
        let (_, w1) = b.push_write(p(0), Loc(1), Value::Int(2)); // shard 1
        let r0 = b.push_read_from(p(1), Loc(0), ReadLabel::Causal, Value::Int(1), w0);
        b.push_read_from(p(1), Loc(1), ReadLabel::Causal, Value::Int(2), w1);
        let h = b.build().unwrap();

        let h0 = h.project_shard(2, 0).unwrap();
        assert_eq!(h0.len(), 2);
        assert_eq!(h0.nprocs(), 2);
        // Op ids are renumbered, but write ids and reads-from survive.
        let r0p = h0
            .iter()
            .find(|(_, op)| matches!(op.kind, OpKind::Read { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(h0.reads_from(r0p), w0);
        assert_eq!(h.reads_from(r0), w0);
        assert!(h0.iter().all(|(_, op)| op.kind.loc() == Some(Loc(0))));

        let h1 = h.project_shard(2, 1).unwrap();
        assert_eq!(h1.len(), 2);
        assert_eq!(h1.initial(Loc(1)), Value::Int(9));
        assert!(h1.iter().all(|(_, op)| op.kind.loc() == Some(Loc(1))));
    }

    #[test]
    fn project_shard_preserves_await_sources() {
        let mut b = HistoryBuilder::new(2);
        let (_, w0) = b.push_write(p(0), Loc(2), Value::Int(7)); // shard 0 of 2
        b.push_write(p(0), Loc(1), Value::Int(3)); // shard 1
        let a = b.push_await(p(1), Loc(2), Value::Int(7));
        let h = b.build().unwrap();
        assert_eq!(h.await_sources(a), &[w0]);

        let h0 = h.project_shard(2, 0).unwrap();
        let ap = h0
            .iter()
            .find(|(_, op)| matches!(op.kind, OpKind::Await { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(h0.await_sources(ap), &[w0]);
        // The shard-1 projection has the lone write and nothing else.
        let h1 = h.project_shard(2, 1).unwrap();
        assert_eq!(h1.len(), 1);
    }

    #[test]
    fn recorded_writer_disambiguates() {
        let mut b = HistoryBuilder::new(2);
        let (_, w0) = b.push_write(p(0), Loc(0), Value::Int(5));
        b.push_write(p(1), Loc(0), Value::Int(5));
        let r = b.push_read_from(p(0), Loc(0), ReadLabel::Causal, Value::Int(5), w0);
        let h = b.build().unwrap();
        assert_eq!(h.reads_from(r), w0);
    }

    #[test]
    fn unresolvable_read_is_rejected() {
        let mut b = HistoryBuilder::new(1);
        b.push_read(p(0), Loc(0), ReadLabel::Pram, Value::Int(42));
        assert!(matches!(b.build(), Err(MalformedHistory::UnresolvableRead(_))));
    }

    #[test]
    fn mismatched_recorded_writer_is_rejected() {
        let mut b = HistoryBuilder::new(1);
        let (_, w) = b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read_from(p(0), Loc(0), ReadLabel::Pram, Value::Int(2), w);
        assert!(matches!(b.build(), Err(MalformedHistory::ReadValueMismatch(_))));
    }

    #[test]
    fn lock_epoch_derivation_write_then_readers() {
        let mut b = HistoryBuilder::new(3);
        let l = LockId(0);
        let wl = b.push_lock(p(0), l, LockMode::Write);
        let wu = b.push_unlock(p(0), l, LockMode::Write);
        let rl1 = b.push_lock(p(1), l, LockMode::Read);
        let rl2 = b.push_lock(p(2), l, LockMode::Read);
        let ru1 = b.push_unlock(p(1), l, LockMode::Read);
        let ru2 = b.push_unlock(p(2), l, LockMode::Read);
        let h = b.build().unwrap();
        let eps = &h.lock_epochs()[&l];
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].mode, LockMode::Write);
        assert_eq!(eps[0].members, vec![(wl, wu)]);
        assert_eq!(eps[1].mode, LockMode::Read);
        assert_eq!(eps[1].members, vec![(rl1, ru1), (rl2, ru2)]);
    }

    #[test]
    fn sequential_readers_share_one_epoch() {
        // Two read CSs with no intervening write lock are a single epoch
        // (7!lock does not order read operations among themselves).
        let mut b = HistoryBuilder::new(2);
        let l = LockId(0);
        b.push_lock(p(0), l, LockMode::Read);
        b.push_unlock(p(0), l, LockMode::Read);
        b.push_lock(p(1), l, LockMode::Read);
        b.push_unlock(p(1), l, LockMode::Read);
        let h = b.build().unwrap();
        assert_eq!(h.lock_epochs()[&l].len(), 1);
        assert_eq!(h.lock_epochs()[&l][0].members.len(), 2);
    }

    #[test]
    fn write_lock_closes_read_epoch() {
        let mut b = HistoryBuilder::new(2);
        let l = LockId(0);
        b.push_lock(p(0), l, LockMode::Read);
        b.push_unlock(p(0), l, LockMode::Read);
        b.push_lock(p(1), l, LockMode::Write);
        b.push_unlock(p(1), l, LockMode::Write);
        b.push_lock(p(0), l, LockMode::Read);
        b.push_unlock(p(0), l, LockMode::Read);
        let h = b.build().unwrap();
        let eps = &h.lock_epochs()[&l];
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[0].mode, LockMode::Read);
        assert_eq!(eps[1].mode, LockMode::Write);
        assert_eq!(eps[2].mode, LockMode::Read);
    }

    #[test]
    fn unmatched_unlock_is_rejected() {
        let mut b = HistoryBuilder::new(1);
        b.push_unlock(p(0), LockId(0), LockMode::Write);
        assert!(matches!(b.build(), Err(MalformedHistory::UnmatchedUnlock(_))));
    }

    #[test]
    fn wrong_mode_unlock_is_rejected() {
        let mut b = HistoryBuilder::new(1);
        b.push_lock(p(0), LockId(0), LockMode::Write);
        b.push_unlock(p(0), LockId(0), LockMode::Read);
        assert!(matches!(b.build(), Err(MalformedHistory::UnmatchedUnlock(_))));
    }

    #[test]
    fn reentrant_lock_is_rejected() {
        let mut b = HistoryBuilder::new(1);
        b.push_lock(p(0), LockId(0), LockMode::Read);
        b.push_lock(p(0), LockId(0), LockMode::Read);
        assert!(matches!(b.build(), Err(MalformedHistory::ReentrantLock(_))));
    }

    #[test]
    fn conflicting_write_grant_is_rejected() {
        // Write lock granted while a reader still holds the object.
        let mut b = HistoryBuilder::new(2);
        b.push_lock(p(0), LockId(0), LockMode::Read);
        b.push_lock(p(1), LockId(0), LockMode::Write);
        assert!(matches!(b.build(), Err(MalformedHistory::ConflictingLockGrant(_))));
    }

    #[test]
    fn read_grant_during_write_epoch_is_rejected() {
        let mut b = HistoryBuilder::new(2);
        b.push_lock(p(0), LockId(0), LockMode::Write);
        b.push_lock(p(1), LockId(0), LockMode::Read);
        assert!(matches!(b.build(), Err(MalformedHistory::ConflictingLockGrant(_))));
    }

    #[test]
    fn lock_held_at_end_is_rejected() {
        let mut b = HistoryBuilder::new(1);
        b.push_lock(p(0), LockId(0), LockMode::Write);
        assert!(matches!(b.build(), Err(MalformedHistory::LockHeldAtEnd(_, _))));
    }

    #[test]
    fn barrier_rounds_grouped() {
        let mut b = HistoryBuilder::new(2);
        let bar = BarrierId(0);
        let b00 = b.push_barrier(p(0), bar, BarrierRound(0));
        let b01 = b.push_barrier(p(1), bar, BarrierRound(0));
        let b10 = b.push_barrier(p(0), bar, BarrierRound(1));
        let b11 = b.push_barrier(p(1), bar, BarrierRound(1));
        let h = b.build().unwrap();
        let rounds = &h.barrier_rounds()[&bar];
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].ops, vec![b00, b01]);
        assert_eq!(rounds[1].ops, vec![b10, b11]);
    }

    #[test]
    fn duplicate_barrier_arrival_is_rejected() {
        let mut b = HistoryBuilder::new(1);
        b.push_barrier(p(0), BarrierId(0), BarrierRound(0));
        b.push_barrier(p(0), BarrierId(0), BarrierRound(0));
        assert!(matches!(b.build(), Err(MalformedHistory::DuplicateBarrierArrival(_))));
    }

    #[test]
    fn changed_participants_are_rejected() {
        let mut b = HistoryBuilder::new(2);
        b.push_barrier(p(0), BarrierId(0), BarrierRound(0));
        b.push_barrier(p(1), BarrierId(0), BarrierRound(0));
        b.push_barrier(p(0), BarrierId(0), BarrierRound(1));
        assert!(matches!(b.build(), Err(MalformedHistory::BarrierParticipantsChanged(_, _))));
    }

    #[test]
    fn await_resolution_by_value() {
        let mut b = HistoryBuilder::new(2);
        let (_, w) = b.push_write(p(0), Loc(0), Value::Int(7));
        let a = b.push_await(p(1), Loc(0), Value::Int(7));
        let h = b.build().unwrap();
        assert_eq!(h.await_sources(a), &[w]);
    }

    #[test]
    fn await_of_initial_value() {
        let mut b = HistoryBuilder::new(1);
        let a = b.push_await(p(0), Loc(0), Value::Int(0));
        let h = b.build().unwrap();
        assert_eq!(h.await_sources(a), &[WriteId::initial(Loc(0))]);
    }

    #[test]
    fn partial_order_locals_allowed() {
        // One process forks two concurrent writes to different locations
        // (the forall of Fig. 3), then joins.
        let mut b = HistoryBuilder::new(1);
        let (root, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let wa = b.push_after(
            p(0),
            OpKind::Write { loc: Loc(1), value: Value::Int(2), id: WriteId::new(p(0), 100) },
            &[root],
        );
        let _wb = b.push_after(
            p(0),
            OpKind::Write { loc: Loc(2), value: Value::Int(3), id: WriteId::new(p(0), 101) },
            &[root],
        );
        let _join = b.push_after(
            p(0),
            OpKind::Read {
                loc: Loc(1),
                label: ReadLabel::Causal,
                value: Value::Int(2),
                writer: None,
            },
            &[wa],
        );
        let h = b.build().unwrap();
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn concurrent_same_object_rejected() {
        let mut b = HistoryBuilder::new(1);
        let (root, _) = b.push_write(p(0), Loc(9), Value::Int(1));
        b.push_after(
            p(0),
            OpKind::Write { loc: Loc(0), value: Value::Int(2), id: WriteId::new(p(0), 100) },
            &[root],
        );
        // Concurrent with the previous op, same location 0.
        b.push_after(
            p(0),
            OpKind::Write { loc: Loc(0), value: Value::Int(3), id: WriteId::new(p(0), 101) },
            &[root],
        );
        assert!(matches!(b.build(), Err(MalformedHistory::ConcurrentSameObject(_, _))));
    }

    #[test]
    fn concurrent_barrier_rejected() {
        let mut b = HistoryBuilder::new(1);
        let (root, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_after(
            p(0),
            OpKind::Write { loc: Loc(1), value: Value::Int(2), id: WriteId::new(p(0), 100) },
            &[root],
        );
        b.push_after(
            p(0),
            OpKind::Barrier { barrier: BarrierId(0), round: BarrierRound(0) },
            &[root],
        );
        assert!(matches!(b.build(), Err(MalformedHistory::BarrierNotTotallyOrdered(_))));
    }

    #[test]
    fn duplicate_write_id_rejected() {
        let mut b = HistoryBuilder::new(1);
        let id = WriteId::new(p(0), 1);
        b.push(p(0), OpKind::Write { loc: Loc(0), value: Value::Int(1), id });
        b.push(p(0), OpKind::Write { loc: Loc(1), value: Value::Int(2), id });
        assert!(matches!(b.build(), Err(MalformedHistory::DuplicateWriteId(_))));
    }

    #[test]
    fn write_order_must_permute_each_locations_writes() {
        let mut b = HistoryBuilder::new(2);
        let (_, w1) = b.push_write(p(0), Loc(0), Value::Int(1));
        let (_, u) = b.push_update(p(1), Loc(0), 1);
        let (_, y) = b.push_write(p(1), Loc(1), Value::Int(1));
        b.push_read(p(0), Loc(1), ReadLabel::Causal, Value::Int(1));
        let with = |orders: &[(u32, Vec<WriteId>)]| {
            let mut b = b.clone();
            for (loc, order) in orders {
                b.set_write_order(Loc(*loc), order.clone());
            }
            b.build()
        };
        let h = with(&[(0, vec![u, w1]), (1, vec![y])]).unwrap();
        assert_eq!(h.write_order().unwrap()[&Loc(0)], vec![u, w1]);
        // The order is no part of what a history observed.
        let unordered = b.clone().build().unwrap();
        assert_eq!(h.signature(), unordered.signature());
        assert!(unordered.write_order().is_none());

        let mismatch = |orders: &[(u32, Vec<WriteId>)], loc: u32| {
            assert_eq!(with(orders).unwrap_err(), MalformedHistory::WriteOrderMismatch(Loc(loc)));
        };
        mismatch(&[(0, vec![u, w1])], 1); // a written location left out
        mismatch(&[(0, vec![w1]), (1, vec![y])], 0); // a write left out
        mismatch(&[(0, vec![u, w1, u]), (1, vec![y])], 0); // a write twice
        mismatch(&[(0, vec![u, w1, y]), (1, vec![y])], 0); // another location's write
        mismatch(&[(0, vec![u, w1]), (1, vec![y, WriteId::new(p(0), 9)])], 1); // no such write
    }

    #[test]
    fn error_messages_are_nonempty() {
        let errs = [
            MalformedHistory::DuplicateWriteId(WriteId::new(p(0), 1)),
            MalformedHistory::UnmatchedUnlock(OpId(1)),
            MalformedHistory::AmbiguousRead(OpId(2)),
            MalformedHistory::LockHeldAtEnd(p(0), LockId(1)),
            MalformedHistory::BarrierNotTotallyOrdered(OpId(0)),
            MalformedHistory::WriteOrderMismatch(Loc(2)),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
