//! Per-process replica state for the replicated memory modes.
//!
//! Section 6 of the paper: "The memory is maintained as a set of pages and
//! each process keeps a local copy of the memory. Read operations are
//! non-blocking and return local values. ... Each process maintains a
//! vector timestamp in order to define the causality between operations."
//!
//! A [`Replica`] holds one process's copy of every location, its applied
//! vector, the causal-application buffer, and the synchronization gates:
//!
//! * `must_see` — merged knowledge from lock grants and barrier releases;
//!   **causal reads** block until `applied ≥ must_see`;
//! * `pram_wait` — per-predecessor write counts from the same events;
//!   **PRAM reads** block until `applied ≥ pram_wait` (only components of
//!   direct synchronization predecessors are ever raised);
//! * `invalid` — demand-driven per-location requirements installed by lock
//!   grants; reads of exactly those locations block.
//!
//! Each data plane keeps one pending queue. A single update is a run of
//! one: the vector plane buffers runs of a sender's consecutive writes,
//! the sharded plane chains of them, and an update that arrives ready is
//! applied without being buffered. Every write, own or remote, reaches
//! the store through one apply function; own writes are minted by one
//! function too. Beside each location the replica keeps only its latest
//! own write's sequence number — the demand-driven lock variant's dirty
//! set — so nothing a volatile replica holds grows with run length.

use std::collections::HashMap;
use std::sync::Arc;

use mc_model::{Loc, LockId, ProcId, VClock, Value, WriteId};

use crate::config::{DsmConfig, Mode};
use crate::durability::{OwnUpdate, SnapBatch, Snapshot, WalRecord};
use crate::msg::{BatchEntry, Msg, UpdatePayload};

/// A causally not yet ready run of one sender's writes
/// `first_seq..=upto` — a whole batch, or a single update as a run of
/// one — applied atomically once its first member is next in the
/// sender's sequence and the last member's cross-process dependencies
/// are met.
#[derive(Clone, Debug)]
struct PendingRun {
    proc: ProcId,
    first_seq: u32,
    upto: u32,
    entries: Arc<[BatchEntry]>,
    /// Dependency vector of the *last* member write. Deps are monotone
    /// in run order (same sender, program order), so the last member's
    /// vector covers every member's cross-process needs.
    deps: VClock,
}

/// One own write in a shard's chain, retained (in sharded mode) for
/// subscription backfill and sharded recovery deltas.
#[derive(Clone, Debug)]
pub struct ShardOwnUpdate {
    /// The write's global per-process sequence number.
    pub seq: u32,
    /// Location (determines the shard).
    pub loc: Loc,
    /// Overwrite or increment.
    pub payload: UpdatePayload,
    /// Sparse cross-shard dependency triples attached at write time.
    pub deps: Vec<(u32, ProcId, u32)>,
}

/// A buffered sharded chain that is not yet ready: a coalesced batch,
/// or a single update as a chain of one.
#[derive(Clone, Debug)]
struct PendingChain {
    proc: ProcId,
    shard: u32,
    prev: u32,
    upto: u32,
    entries: Arc<[BatchEntry]>,
    /// Leading members already applied before buffering (recovery and
    /// backfill overlap) — skipped without copying the shared entry
    /// buffer.
    skip: usize,
    deps: Vec<(u32, ProcId, u32)>,
}

/// Per-shard replication state. The address space is partitioned by
/// `loc.index() % nshards`; a replica receives only the shards it
/// subscribes to, and clocks are kept per shard so knowledge width is
/// proportional to the replica's interest set, not the cluster.
///
/// Sequence numbers stay *global* per process (the same counter that
/// mints [`WriteId`]s), so a write's identity is mode-independent; each
/// shard's per-writer FIFO is a chain of global sequence numbers linked
/// by `prev` (the writer's previous own seq in that shard). Cross-shard
/// causality travels as sparse `(shard, proc, seq)` triples; a receiver
/// checks only triples for shards it subscribes to — any process that
/// can *observe* both sides of a causal edge necessarily subscribes to
/// both shards, so observable causality is preserved.
#[derive(Clone, Debug)]
pub struct ShardState {
    nshards: usize,
    /// `applied[s][q]` = global sequence number of `q`'s last write
    /// applied locally in shard `s` (own writes included).
    applied: Vec<VClock>,
    /// `own_prev[s]` = this process's last own global seq in shard `s`.
    own_prev: Vec<u32>,
    /// Own write chains per shard (subscription backfill + recovery).
    own_log: Vec<Vec<ShardOwnUpdate>>,
    /// Shards this replica is currently subscribed to (sorted).
    subs: Vec<usize>,
    /// Buffered not-yet-ready chains.
    pending: Vec<PendingChain>,
}

impl ShardState {
    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The shard of `loc`.
    pub fn shard_of(&self, loc: Loc) -> usize {
        loc.index() % self.nshards
    }

    /// Whether this replica currently subscribes to `shard`.
    pub fn subscribed(&self, shard: usize) -> bool {
        self.subs.binary_search(&shard).is_ok()
    }

    /// The current subscription set (sorted).
    pub fn subs(&self) -> &[usize] {
        &self.subs
    }

    /// The per-shard applied clock (global seqs).
    pub fn applied(&self, shard: usize) -> &VClock {
        &self.applied[shard]
    }

    /// Number of buffered (not yet ready) chains.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Summary of everything applied in the *subscribed* shards, as
    /// `(shard, proc, seq)` triples — the payload of a sharded recovery
    /// request. Zero entries are kept: the shard ids present double as
    /// the subscription set, so a peer answering the request learns
    /// which shards the reborn replica needs without a separate
    /// membership exchange.
    pub fn applied_summary(&self) -> Vec<(u32, ProcId, u32)> {
        let mut out = Vec::new();
        for &s in &self.subs {
            for (q, c) in self.applied[s].iter() {
                out.push((s as u32, q, c));
            }
        }
        out
    }

    /// Readiness of `proc`'s chain in `shard` linked at `prev`: the link
    /// must match exactly, and every dependency triple for a shard this
    /// replica subscribes to must be dominated. Triples for shards it
    /// does not subscribe to are skipped — it can never observe those
    /// writes, so they are outside its causal past's visible image.
    fn chain_ready(
        &self,
        proc: ProcId,
        shard: usize,
        prev: u32,
        deps: &[(u32, ProcId, u32)],
    ) -> bool {
        if self.applied[shard].get(proc) != prev {
            return false;
        }
        deps.iter().all(|&(ds, q, c)| {
            let ds = ds as usize;
            (ds == shard && q == proc) || !self.subscribed(ds) || self.applied[ds].get(q) >= c
        })
    }
}

/// A single write as a run entry: an `Add` credits its own sequence.
fn single_entry(writer: WriteId, loc: Loc, payload: UpdatePayload) -> BatchEntry {
    let adds = match payload {
        UpdatePayload::Add(_) => vec![writer.seq],
        UpdatePayload::Set(_) => Vec::new(),
    };
    BatchEntry { loc, payload, writer, adds }
}

/// The writes of a run as [`Replica::apply`] takes them.
fn members(entries: &[BatchEntry]) -> impl Iterator<Item = (WriteId, Loc, &UpdatePayload, &[u32])> {
    entries.iter().map(|e| (e.writer, e.loc, &e.payload, &e.adds[..]))
}

/// Sum of the dependency triples that land in `shard` — the sender's
/// pre-existing knowledge of the write's own shard.
fn dep_sum(deps: &[(u32, ProcId, u32)], shard: usize) -> u64 {
    deps.iter().filter(|&&(ds, _, _)| ds as usize == shard).map(|&(_, _, c)| u64::from(c)).sum()
}

/// One process's local copy of the shared memory plus its consistency
/// gates.
#[derive(Debug)]
pub struct Replica {
    /// The owning process.
    pub proc: ProcId,
    nprocs: usize,
    store: Vec<Value>,
    last_writer: Vec<Option<WriteId>>,
    /// `own_seq[l]` = sequence number of this process's latest own
    /// write to location `l` (0: none) — the demand-driven dirty set.
    own_seq: Vec<u32>,
    /// `applied[j]` = number of `p_j`'s updates applied locally
    /// (`applied[self]` counts own writes).
    pub applied: VClock,
    /// Causal-application buffer (causal/mixed modes).
    pending: Vec<PendingRun>,
    /// Causal-read gate.
    pub must_see: VClock,
    /// PRAM-read gate.
    pub pram_wait: VClock,
    /// Demand-driven per-location gates: read of `loc` waits until
    /// `applied[p] >= seq`.
    pub invalid: HashMap<Loc, (ProcId, u32)>,
    /// Updates applied per counter location (locations that ever received
    /// an `Add`), for await synchronization sources.
    counter_updates: HashMap<Loc, Vec<WriteId>>,
    /// Per-lock watermark: this process's own-write count at its last
    /// release of that lock (own writes up to it were already shipped).
    pub lock_watermarks: HashMap<LockId, u32>,
    /// Full own-write history with dependency vectors, retained only
    /// when the configuration enables durability: it is what lets this
    /// replica answer a reborn peer with exactly the suffix it misses,
    /// even past log compaction.
    own_updates: Vec<OwnUpdate>,
    /// Replica incarnation: bumped (and persisted) on every
    /// crash-recover so stale session state is recognizably stale.
    pub incarnation: u32,
    /// Last-writer-wins application for plain writes: set when this
    /// process's lattice point demands per-location coherence. All
    /// coherent replicas then install `Set`s in one total tag order, so
    /// every observer agrees on the write order per location.
    coherent: bool,
    /// The tag of the currently installed write per location (coherent
    /// replicas only): `(causal sum, writer, seq)`, compared
    /// lexicographically — a total order consistent with causality and
    /// every writer's program order.
    coh_tags: HashMap<Loc, (u64, u32, u32)>,
    /// Sharded interest-based mode, when enabled.
    shards: Option<ShardState>,
}

impl Replica {
    /// Creates the replica of process `proc` in a system of `nprocs`.
    pub fn new(proc: ProcId, nprocs: usize) -> Self {
        Replica {
            proc,
            nprocs,
            store: Vec::new(),
            last_writer: Vec::new(),
            own_seq: Vec::new(),
            applied: VClock::new(nprocs),
            pending: Vec::new(),
            must_see: VClock::new(nprocs),
            pram_wait: VClock::new(nprocs),
            invalid: HashMap::new(),
            counter_updates: HashMap::new(),
            lock_watermarks: HashMap::new(),
            own_updates: Vec::new(),
            incarnation: 0,
            coherent: false,
            coh_tags: HashMap::new(),
            shards: None,
        }
    }

    /// Switches this replica into sharded interest-based mode with
    /// `nshards` shards, initially subscribed to `subs`.
    pub fn with_sharding(mut self, nshards: usize, mut subs: Vec<usize>) -> Self {
        subs.sort_unstable();
        subs.dedup();
        self.shards = Some(ShardState {
            nshards,
            applied: vec![VClock::new(self.nprocs); nshards],
            own_prev: vec![0; nshards],
            own_log: vec![Vec::new(); nshards],
            subs,
            pending: Vec::new(),
        });
        self
    }

    /// Enables last-writer-wins coherent application (see
    /// [`mc_model::ModelSpec::PROCESSOR`]): `Set`s with a tag older than
    /// the installed one are dropped instead of regressing the store.
    /// Requires a vector-carrying mode — tags are built from dependency
    /// vectors.
    pub fn with_coherent(mut self, coherent: bool) -> Self {
        self.coherent = coherent;
        self
    }

    /// Pre-sizes the store to `locations`, so the hot read path never
    /// pays a growth check — reads against a pre-sized store are plain
    /// bounds-checked indexing with no mutation. Writes beyond the hint
    /// still grow the store on demand.
    pub fn with_store_capacity(mut self, locations: usize) -> Self {
        self.grow(locations);
        self
    }

    /// Grows the per-location columns to cover `len` locations.
    fn grow(&mut self, len: usize) {
        if len > self.store.len() {
            self.store.resize(len, Value::INITIAL);
            self.last_writer.resize(len, None);
            self.own_seq.resize(len, 0);
        }
    }

    /// The current local value of `loc`. Never-written locations (in
    /// particular anything beyond the pre-sized store) read as
    /// [`Value::INITIAL`].
    pub fn value(&self, loc: Loc) -> Value {
        self.store.get(loc.index()).copied().unwrap_or(Value::INITIAL)
    }

    /// The current local value of `loc` (alias of [`Replica::value`],
    /// kept for inspection of a finished run).
    pub fn peek(&self, loc: Loc) -> Value {
        self.value(loc)
    }

    /// The write that produced the current local value (None = initial).
    pub fn writer_of(&self, loc: Loc) -> Option<WriteId> {
        self.last_writer.get(loc.index()).copied().flatten()
    }

    /// The synchronization sources an await observing `loc` records: all
    /// applied updates for counter locations, the last writer otherwise.
    pub fn await_writers(&self, loc: Loc) -> Vec<WriteId> {
        if let Some(ups) = self.counter_updates.get(&loc) {
            return ups.clone();
        }
        self.writer_of(loc).into_iter().collect()
    }

    /// This process's own-write count.
    pub fn own_count(&self) -> u32 {
        self.applied[self.proc]
    }

    /// The process's knowledge vector: everything applied locally plus
    /// everything it has been told to see. Tags outgoing writes and
    /// releases.
    pub fn knowledge(&self) -> VClock {
        let mut k = self.applied.clone();
        k.merge(&self.must_see);
        k
    }

    /// Performs a local write or update and returns the minted
    /// [`WriteId`] plus the dependency vector to attach in vector modes.
    pub fn local_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        cfg: &DsmConfig,
    ) -> (WriteId, Option<VClock>) {
        let mut deps = None;
        let id = self.local_write_into(loc, payload, cfg, &mut deps);
        (id, deps)
    }

    /// [`Replica::local_write`] that leaves the dependency vector in
    /// `deps` (`None` outside vector modes), overwriting the clock
    /// already there in place: a caller that keeps one clock across
    /// writes, like the outgoing batch, allocates none per write.
    pub(crate) fn local_write_into(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        cfg: &DsmConfig,
        deps: &mut Option<VClock>,
    ) -> WriteId {
        if cfg.mode.carries_vectors() {
            // The knowledge vector, ticked: over the caller's clock in
            // place when it has one.
            let k = match deps {
                Some(k) => {
                    k.clone_from(&self.applied);
                    k.merge(&self.must_see);
                    k
                }
                None => deps.insert(self.knowledge()),
            };
            k.tick(self.proc);
        } else {
            *deps = None;
        }
        let id = self.mint(loc, &payload, deps.as_ref());
        if cfg.durability.is_some() {
            self.own_updates.push(OwnUpdate { seq: id.seq, loc, payload, deps: deps.clone() });
        }
        id
    }

    /// The one own-write mint: takes this process's next sequence
    /// number, applies the write locally, and marks `loc` dirty for the
    /// demand-driven lock variant. A sharded replica also advances the
    /// write's shard chain. `deps` is the vector the write carries
    /// (vector plane). Own writes always win locally: their dependency
    /// vector (or post-write shard clock) covers everything applied, so
    /// their coherent tag beats any installed one.
    fn mint(&mut self, loc: Loc, payload: &UpdatePayload, deps: Option<&VClock>) -> WriteId {
        self.applied.tick(self.proc);
        let id = WriteId::new(self.proc, self.own_count());
        let sum = match &mut self.shards {
            Some(st) => {
                let s = st.shard_of(loc);
                st.own_prev[s] = id.seq;
                st.applied[s].set(id.proc, id.seq);
                st.applied[s].sum()
            }
            None => self.vector_sum(deps),
        };
        self.apply(id, loc, payload, sum, &[id.seq]);
        self.own_seq[loc.index()] = id.seq;
        id
    }

    /// The one store-apply, for own and remote writes of both planes:
    /// installs `writer`'s write to `loc`. `Add`s always apply and
    /// credit every member seq in `adds` to the counter. On a coherent
    /// replica a `Set` is installed only when its tag
    /// `(sum, writer, seq)` beats the installed one; the planes differ
    /// only in the `sum` they pass — the vector plane the write's
    /// dependency sum, the sharded plane its shard-local knowledge
    /// total. Either strictly increases along causality, so the tag
    /// order is a total order consistent with it.
    fn apply(
        &mut self,
        writer: WriteId,
        loc: Loc,
        payload: &UpdatePayload,
        sum: u64,
        adds: &[u32],
    ) {
        self.grow(loc.index() + 1);
        let i = loc.index();
        match payload {
            UpdatePayload::Set(v) => {
                if self.coherent && !self.admit_tag(loc, (sum, writer.proc.0, writer.seq)) {
                    return;
                }
                self.store[i] = *v;
            }
            UpdatePayload::Add(d) => {
                let cur = self.store[i];
                self.store[i] = cur.checked_add(*d).unwrap_or_else(|| {
                    panic!("update delta kind mismatch at {loc} ({cur:?} += {d:?})")
                });
                let ups = self.counter_updates.entry(loc).or_default();
                ups.extend(adds.iter().map(|&s| WriteId::new(writer.proc, s)));
            }
        }
        self.last_writer[i] = Some(writer);
    }

    /// The vector plane's coherent tag total for a write carrying
    /// `deps` (unused, and zero, on a non-coherent replica).
    fn vector_sum(&self, deps: Option<&VClock>) -> u64 {
        if !self.coherent {
            return 0;
        }
        deps.expect("coherent replicas run a vector-carrying mode").sum()
    }

    /// Lexicographic last-writer-wins admission on a precomputed tag.
    fn admit_tag(&mut self, loc: Loc, tag: (u64, u32, u32)) -> bool {
        match self.coh_tags.get(&loc) {
            Some(cur) if tag < *cur => false,
            _ => {
                self.coh_tags.insert(loc, tag);
                true
            }
        }
    }

    /// Ingests a remote update. In PRAM mode it applies immediately; in
    /// causal/mixed mode it is a run of one: applied on arrival when
    /// causally ready, buffered otherwise (and the buffer drained to a
    /// fixpoint). Returns `true` if at least one update was applied.
    pub fn ingest(
        &mut self,
        writer: WriteId,
        loc: Loc,
        payload: UpdatePayload,
        deps: Option<VClock>,
        mode: Mode,
    ) -> bool {
        let (proc, seq) = (writer.proc, writer.seq);
        if !mode.carries_vectors() {
            // PRAM: apply on receipt. FIFO links deliver per-sender
            // in-order; with fault injection they may not, and the
            // resulting store regressions are exactly what the checkers
            // must detect.
            let seen = self.applied.get(proc).max(seq);
            self.apply(writer, loc, &payload, self.vector_sum(None), &[seq]);
            self.applied.set(proc, seen);
            return true;
        }
        let deps = deps.expect("vector modes attach deps");
        if self.run_ready(proc, seq, seq, &deps) {
            // In order: nothing to buffer.
            self.apply_run(proc, seq, &deps, [(writer, loc, &payload, &[seq][..])]);
            self.drain_pending();
            return true;
        }
        let entries = Arc::from([single_entry(writer, loc, payload)]);
        self.pending.push(PendingRun { proc, first_seq: seq, upto: seq, entries, deps });
        self.drain_pending()
    }

    /// Ingests a remote update batch covering the sender's own writes
    /// `first_seq..=upto`. In PRAM mode the batch applies on receipt; in
    /// causal/mixed mode it applies atomically once the sender sequence
    /// is contiguous and the last member's cross-process dependencies
    /// are met, buffering otherwise. Atomic application over a FIFO
    /// link is indistinguishable from the member updates delivered back
    /// to back, which is why batching preserves Definitions 2–4.
    /// Returns `true` if anything was applied.
    pub fn ingest_batch(
        &mut self,
        proc: ProcId,
        first_seq: u32,
        upto: u32,
        entries: Arc<[BatchEntry]>,
        deps: Option<VClock>,
        mode: Mode,
    ) -> bool {
        if !mode.carries_vectors() {
            let (seen, sum) = (self.applied.get(proc).max(upto), self.vector_sum(None));
            for (writer, loc, payload, adds) in members(&entries) {
                self.apply(writer, loc, payload, sum, adds);
            }
            self.applied.set(proc, seen);
            return true;
        }
        let deps = deps.expect("vector modes attach deps");
        self.pending.push(PendingRun { proc, first_seq, upto, entries, deps });
        self.drain_pending()
    }

    /// Whether a run of `proc`'s writes `first_seq..=upto`, gated on
    /// `deps`, can apply: the next expected sequence falls inside the
    /// run — `first_seq` may sit below the watermark when recovery
    /// overlaps an in-flight pre-crash copy (the covered prefix is
    /// skipped at application) — and every cross-process dependency is
    /// applied.
    fn run_ready(&self, proc: ProcId, first_seq: u32, upto: u32, deps: &VClock) -> bool {
        let next = self.applied[proc] + 1;
        (first_seq..=upto).contains(&next)
            && deps.iter().all(|(p, c)| p == proc || self.applied[p] >= c)
    }

    /// Applies a ready run: every member past the applied watermark (an
    /// already-applied prefix is a set of ghosts), each tagged with the
    /// run's vector. That vector covers every member's deps, and anyone
    /// who observed a member applied the whole run first — so the tag
    /// order stays consistent with causality.
    fn apply_run<'a>(
        &mut self,
        proc: ProcId,
        upto: u32,
        deps: &VClock,
        writes: impl IntoIterator<Item = (WriteId, Loc, &'a UpdatePayload, &'a [u32])>,
    ) {
        let sum = self.vector_sum(Some(deps));
        for (writer, loc, payload, adds) in writes {
            if writer.seq > self.applied[proc] {
                self.apply(writer, loc, payload, sum, adds);
            }
        }
        self.applied.set(proc, upto);
    }

    /// Applies every causally ready buffered run (each can unblock
    /// another); returns `true` if any applied.
    fn drain_pending(&mut self) -> bool {
        // Prune ghosts first: a buffered run fully covered by the
        // applied watermark (recovery re-delivered it) can never become
        // ready and would otherwise sit buffered forever.
        self.pending.retain(|b| b.upto > self.applied[b.proc]);
        let mut any = false;
        while let Some(idx) =
            self.pending.iter().position(|b| self.run_ready(b.proc, b.first_seq, b.upto, &b.deps))
        {
            let b = self.pending.swap_remove(idx);
            self.apply_run(b.proc, b.upto, &b.deps, members(&b.entries));
            any = true;
        }
        any
    }

    /// Number of buffered (not yet applied) runs.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Gate for causal reads: the causal cut must be applied locally
    /// (Section 6: "a causal read can return a value only if all
    /// preceding operations ... have been performed locally").
    pub fn causal_ready(&self, loc: Loc) -> bool {
        self.applied.dominates(&self.must_see) && self.demand_ready(loc)
    }

    /// Gate for PRAM reads: only direct synchronization predecessors are
    /// awaited.
    pub fn pram_ready(&self, loc: Loc) -> bool {
        self.applied.dominates(&self.pram_wait) && self.demand_ready(loc)
    }

    fn demand_ready(&self, loc: Loc) -> bool {
        match self.invalid.get(&loc) {
            Some(&(p, seq)) => self.applied[p] >= seq,
            None => true,
        }
    }

    /// Merges synchronization knowledge received from a lock grant or
    /// barrier release into the read gates.
    pub fn absorb_sync(&mut self, knowledge: &VClock, preds: &[(ProcId, u32)]) {
        if !knowledge.is_empty() {
            self.must_see.merge(knowledge);
        }
        for &(p, c) in preds {
            if self.pram_wait[p] < c {
                self.pram_wait.set(p, c);
            }
        }
    }

    /// Installs demand-driven invalidations from a lock grant.
    pub fn absorb_demand(&mut self, demand: &[(Loc, ProcId, u32)]) {
        for &(loc, p, seq) in demand {
            let e = self.invalid.entry(loc).or_insert((p, seq));
            // Keep the strongest requirement per location.
            if (e.0, e.1) != (p, seq) {
                let cur_ok = self.applied[e.0] >= e.1;
                let new_ok = self.applied[p] >= seq;
                if cur_ok || !new_ok {
                    *e = (p, seq);
                }
            }
        }
    }

    /// Drains the demand-driven dirty set accumulated since the last
    /// release of `lock`: every location whose latest own write is newer
    /// than the lock's watermark, with that write's seq, by location.
    pub fn take_dirty(&mut self, lock: LockId) -> Vec<(Loc, u32)> {
        let shipped = self.lock_watermarks.insert(lock, self.own_count()).unwrap_or(0);
        (0..)
            .zip(&self.own_seq)
            .filter(|&(_, &seq)| seq > shipped)
            .map(|(l, &seq)| (Loc(l), seq))
            .collect()
    }

    /// The number of processes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    // -- sharding -----------------------------------------------------------

    /// The sharded-mode state, when sharding is enabled.
    pub fn shards(&self) -> Option<&ShardState> {
        self.shards.as_ref()
    }

    /// Whether sharded interest-based mode is enabled.
    pub fn is_sharded(&self) -> bool {
        self.shards.is_some()
    }

    /// Subscribes to `shard` (dynamic first-touch fallback). Returns
    /// `true` when the subscription is new.
    pub fn shard_subscribe(&mut self, shard: usize) -> bool {
        let st = self.shards.as_mut().expect("sharding enabled");
        match st.subs.binary_search(&shard) {
            Ok(_) => false,
            Err(i) => {
                st.subs.insert(i, shard);
                true
            }
        }
    }

    /// Performs a local write in sharded mode. The minted [`WriteId`]
    /// keeps the global per-process sequence; the returned chain link
    /// `prev` is this process's previous own seq in the target shard,
    /// and the dependency triples are the writer's full current
    /// per-shard knowledge (its own target-shard entry excluded —
    /// `prev` already carries it).
    pub fn sharded_write(
        &mut self,
        loc: Loc,
        payload: UpdatePayload,
        cfg: &DsmConfig,
    ) -> (WriteId, u32, Vec<(u32, ProcId, u32)>) {
        let me = self.proc;
        let st = self.shards.as_ref().expect("sharded_write requires sharding");
        let s = st.shard_of(loc);
        let prev = st.own_prev[s];
        let mut deps = Vec::new();
        if cfg.mode.carries_vectors() {
            for (ds, clock) in st.applied.iter().enumerate() {
                for (q, c) in clock.iter() {
                    if c > 0 && !(ds == s && q == me) {
                        deps.push((ds as u32, q, c));
                    }
                }
            }
        }
        let id = self.mint(loc, &payload, None);
        self.shard_own_log(id.seq, loc, payload, deps.clone());
        (id, prev, deps)
    }

    /// Retains a minted sharded own write in its shard's chain.
    fn shard_own_log(
        &mut self,
        seq: u32,
        loc: Loc,
        payload: UpdatePayload,
        deps: Vec<(u32, ProcId, u32)>,
    ) {
        let st = self.shards.as_mut().expect("sharded own write on a sharded replica");
        let s = st.shard_of(loc);
        st.own_log[s].push(ShardOwnUpdate { seq, loc, payload, deps });
    }

    /// Ingests one remote sharded update: a chain of one, applied on
    /// arrival when its link matches and its triples are met (always,
    /// in non-vector modes), buffered otherwise.
    fn ingest_shard_update(
        &mut self,
        writer: WriteId,
        loc: Loc,
        payload: UpdatePayload,
        prev: u32,
        deps: Vec<(u32, ProcId, u32)>,
        mode: Mode,
    ) -> bool {
        let (proc, seq) = (writer.proc, writer.seq);
        let st = self.shards.as_ref().expect("sharding enabled");
        let shard = st.shard_of(loc);
        let vectors = mode.carries_vectors();
        if vectors && st.applied[shard].get(proc) >= seq {
            return false;
        }
        if !vectors || st.chain_ready(proc, shard, prev, &deps) {
            let tags = vectors.then_some(&deps[..]);
            self.apply_chain(proc, shard, seq, tags, [(writer, loc, &payload, &[seq][..])]);
            self.drain_shard_pending();
            return true;
        }
        let (shard, entries) = (shard as u32, Arc::from([single_entry(writer, loc, payload)]));
        let chain = PendingChain { proc, shard, prev, upto: seq, entries, skip: 0, deps };
        self.shards.as_mut().expect("sharding enabled").pending.push(chain);
        self.drain_shard_pending()
    }

    /// Ingests a sharded chain (a coalesced per-shard batch, or a chain
    /// a recovery answer logged) covering the sender's own writes in
    /// `shard` from chain link `prev` up to `upto`. When `trim` is set
    /// the entries are one-per-write (uncoalesced), and any prefix this
    /// replica already has is discarded with `prev` re-anchored.
    /// Returns `true` if anything applied.
    #[allow(clippy::too_many_arguments)]
    fn ingest_shard_chain(
        &mut self,
        proc: ProcId,
        shard: u32,
        mut prev: u32,
        upto: u32,
        entries: Arc<[BatchEntry]>,
        deps: Vec<(u32, ProcId, u32)>,
        mode: Mode,
        trim: bool,
    ) -> bool {
        let st = self.shards.as_mut().expect("sharding enabled");
        let have = st.applied[shard as usize].get(proc);
        if have >= upto {
            return false;
        }
        // The entry buffer is shared with every other recipient of the
        // chain, so an already-applied prefix is skipped by index (the
        // chain re-anchors at the last skipped member) instead of
        // popping from an owned vector.
        let mut skip = 0;
        if trim {
            while entries.get(skip).is_some_and(|e| e.writer.seq <= have) {
                prev = entries[skip].writer.seq;
                skip += 1;
            }
        }
        if !mode.carries_vectors() {
            self.apply_chain(proc, shard as usize, upto, None, members(&entries[skip..]));
            return true;
        }
        st.pending.push(PendingChain { proc, shard, prev, upto, entries, skip, deps });
        self.drain_shard_pending()
    }

    /// Advances `proc`'s chain in `shard` to `upto` and applies its
    /// writes. `tags` are the chain's dependency triples, which cover
    /// every member's (monotone in chain order): if `w1` causally
    /// precedes `w2` in the same shard, `w2`'s shard-local knowledge
    /// total strictly exceeds `w1`'s, so tagging each member with the
    /// triples' sum in `shard` plus its seq keeps coherent tag order
    /// consistent with per-shard causality. Without triples
    /// (non-vector modes) the receiver's own shard clock stands in.
    fn apply_chain<'a>(
        &mut self,
        proc: ProcId,
        shard: usize,
        upto: u32,
        tags: Option<&[(u32, ProcId, u32)]>,
        writes: impl IntoIterator<Item = (WriteId, Loc, &'a UpdatePayload, &'a [u32])>,
    ) {
        let st = self.shards.as_mut().expect("sharding enabled");
        let clock = &mut st.applied[shard];
        clock.set(proc, clock.get(proc).max(upto));
        let base = tags.map(|deps| dep_sum(deps, shard));
        let own = clock.sum();
        let global = self.applied.get(proc).max(upto);
        self.applied.set(proc, global);
        for (writer, loc, payload, adds) in writes {
            let sum = base.map_or(own, |b| b + u64::from(writer.seq));
            self.apply(writer, loc, payload, sum, adds);
        }
    }

    /// Applies every ready buffered chain (each can unblock another);
    /// returns `true` if any applied.
    fn drain_shard_pending(&mut self) -> bool {
        let mut any = false;
        loop {
            let st = self.shards.as_ref().expect("sharding enabled");
            let ready =
                |c: &PendingChain| st.chain_ready(c.proc, c.shard as usize, c.prev, &c.deps);
            let Some(idx) = st.pending.iter().position(ready) else { return any };
            let c = self.shards.as_mut().expect("sharding enabled").pending.swap_remove(idx);
            let tags = Some(&c.deps[..]);
            self.apply_chain(c.proc, c.shard as usize, c.upto, tags, members(&c.entries[c.skip..]));
            any = true;
        }
    }

    /// This replica's own writes past each `(shard, after)` watermark,
    /// one per-write message each, in global sequence order: what a
    /// recovery answer, a recovery push-back and a subscription
    /// backfill re-ship. Full replication is the one-shard case: an
    /// unsharded replica is shard `0` and yields [`Msg::Update`]s from
    /// its durable own-write history; a sharded one yields
    /// [`Msg::ShardUpdate`]s with their original chain links.
    ///
    /// Every message carries the dependencies its write was minted
    /// with, so a receiver fed these over FIFO links drains under any
    /// interleaving (DESIGN.md §4.2.2, invariant 4). A batch or chain
    /// of them would not: it is gated on its *last* member, and two
    /// such units can each need a member of the other.
    pub fn writes_after(&self, wants: &[(u32, u32)]) -> Vec<Msg> {
        let me = self.proc;
        let Some(st) = &self.shards else {
            let log = &self.own_updates;
            let suffix = |&(_, after): &(u32, u32)| &log[log.partition_point(|u| u.seq <= after)..];
            let update = |u: &OwnUpdate| Msg::Update {
                writer: WriteId::new(me, u.seq),
                loc: u.loc,
                payload: u.payload.clone(),
                deps: u.deps.clone(),
            };
            return wants.iter().flat_map(suffix).map(update).collect();
        };
        let mut out = Vec::new();
        for &(shard, after) in wants {
            let mut prev = 0;
            for u in &st.own_log[shard as usize] {
                if u.seq > after {
                    let writer = WriteId::new(me, u.seq);
                    let (loc, payload, deps) = (u.loc, u.payload.clone(), u.deps.clone());
                    out.push((u.seq, Msg::ShardUpdate { writer, loc, payload, prev, deps }));
                }
                prev = u.seq;
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out.into_iter().map(|(_, msg)| msg).collect()
    }

    // -- durability ---------------------------------------------------------

    /// Captures the replica's live state as a compacted [`Snapshot`]
    /// (everything that `snapshot + history prefix + empty log` must
    /// reproduce; the own-write history is not copied). `watermarks` are
    /// the session receiver watermarks to persist alongside.
    pub fn to_snapshot(&self, watermarks: Vec<(ProcId, u64)>) -> Snapshot {
        let mut store = Vec::new();
        for i in 0..self.store.len() {
            let v = self.store[i];
            let w = self.last_writer[i];
            if v != Value::INITIAL || w.is_some() {
                store.push((Loc(i as u32), v, w));
            }
        }
        let mut counter_updates: Vec<(Loc, Vec<WriteId>)> =
            self.counter_updates.iter().map(|(&l, ws)| (l, ws.clone())).collect();
        counter_updates.sort_unstable_by_key(|&(l, _)| l);
        Snapshot {
            incarnation: self.incarnation,
            applied: self.applied.clone(),
            store,
            counter_updates,
            pending_batches: self
                .pending
                .iter()
                .map(|b| SnapBatch {
                    proc: b.proc,
                    first_seq: b.first_seq,
                    upto: b.upto,
                    entries: b.entries.to_vec(),
                    deps: b.deps.clone(),
                })
                .collect(),
            watermarks,
        }
    }

    /// Rebuilds a replica from a decoded [`Snapshot`]. The own-write
    /// history is not in the snapshot: [`Replica::restore_history`] puts
    /// it back. The read gates (`must_see`, `pram_wait`, `invalid`) and
    /// lock watermarks are *not* part of the snapshot either: in the
    /// simulator they survive the crash with the client program, and a
    /// restarted live process starts its program afresh.
    pub fn from_snapshot(proc: ProcId, nprocs: usize, snap: &Snapshot) -> Replica {
        let mut r = Replica::new(proc, nprocs);
        r.incarnation = snap.incarnation;
        r.applied = snap.applied.clone();
        for &(loc, v, w) in &snap.store {
            r.grow(loc.index() + 1);
            r.store[loc.index()] = v;
            r.last_writer[loc.index()] = w;
        }
        r.counter_updates = snap.counter_updates.iter().cloned().collect();
        r.pending = snap
            .pending_batches
            .iter()
            .map(|b| PendingRun {
                proc: b.proc,
                first_seq: b.first_seq,
                upto: b.upto,
                entries: b.entries.clone().into(),
                deps: b.deps.clone(),
            })
            .collect();
        r
    }

    /// Replays one write-ahead-log record through the normal ingest
    /// machinery (recovery path). Own writes re-mint their original
    /// identities because replay preserves order; remote records re-run
    /// ingest, so causally premature updates land back in the pending
    /// buffers exactly as they were.
    pub fn replay_record(&mut self, rec: WalRecord, mode: Mode) {
        match rec {
            WalRecord::OwnWrite { loc, payload, deps } => {
                let id = self.mint(loc, &payload, deps.as_ref());
                self.own_updates.push(OwnUpdate { seq: id.seq, loc, payload, deps });
            }
            WalRecord::OwnWriteSharded { loc, payload, deps } => {
                let id = self.mint(loc, &payload, None);
                self.shard_own_log(id.seq, loc, payload, deps);
            }
            WalRecord::Incarnation { incarnation } => {
                self.incarnation = self.incarnation.max(incarnation);
            }
            WalRecord::Subscribe { shard } => {
                self.shard_subscribe(shard as usize);
            }
            WalRecord::Ingest(msg) => {
                self.ingest_msg(msg, mode);
            }
        }
    }

    /// Ingests one update-class message — the kinds a write-ahead-log
    /// ingest record carries — by kind: an [`Msg::Update`] singleton, a
    /// [`Msg::RecoverResp`] batch, or a sharded update or chain (a
    /// [`Msg::ShardRecoverResp`]'s chain is trimmed of what is already
    /// applied). Returns `true` if anything was applied.
    ///
    /// # Panics
    ///
    /// Panics on any other message kind.
    pub fn ingest_msg(&mut self, msg: Msg, mode: Mode) -> bool {
        match msg {
            Msg::Update { writer, loc, payload, deps } => {
                self.ingest(writer, loc, payload, deps, mode)
            }
            Msg::RecoverResp { proc, first_seq, upto, entries, deps, .. } => {
                self.ingest_batch(proc, first_seq, upto, entries.into(), deps, mode)
            }
            Msg::ShardUpdate { writer, loc, payload, prev, deps } => {
                self.ingest_shard_update(writer, loc, payload, prev, deps, mode)
            }
            Msg::ShardUpdateBatch { proc, shard, prev, upto, entries, deps } => {
                self.ingest_shard_chain(proc, shard, prev, upto, entries, deps, mode, false)
            }
            Msg::ShardRecoverResp { proc, shard, prev, upto, entries, deps, .. } => {
                self.ingest_shard_chain(proc, shard, prev, upto, entries.into(), deps, mode, true)
            }
            other => panic!("{} is not an update", other.kind()),
        }
    }

    /// Restores the own-write history a snapshot covers, read back from
    /// the history segment, and the demand-driven dirty-set column it
    /// implies (the latest own write per location).
    pub fn restore_history(&mut self, history: Vec<OwnUpdate>) {
        for u in &history {
            self.grow(u.loc.index() + 1);
            self.own_seq[u.loc.index()] = u.seq;
        }
        self.own_updates = history;
    }

    /// The own writes retained for recovery push-back, in sequence
    /// order (empty unless the configuration enables durability).
    pub fn own_updates(&self) -> &[OwnUpdate] {
        &self.own_updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LockPropagation;
    use mc_model::LockId;

    fn cfg(mode: Mode) -> DsmConfig {
        DsmConfig { lock_propagation: LockPropagation::Lazy, ..DsmConfig::new(3, mode) }
    }

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn local_write_and_read() {
        let mut r = Replica::new(p(0), 3);
        let (id, deps) =
            r.local_write(Loc(5), UpdatePayload::Set(Value::Int(9)), &cfg(Mode::Mixed));
        assert_eq!(id, WriteId::new(p(0), 1));
        assert_eq!(deps.as_ref().unwrap()[p(0)], 1);
        assert_eq!(r.value(Loc(5)), Value::Int(9));
        assert_eq!(r.writer_of(Loc(5)), Some(id));
        assert_eq!(r.value(Loc(99)), Value::INITIAL);
        assert_eq!(r.writer_of(Loc(99)), None);
        assert_eq!(r.own_count(), 1);
    }

    #[test]
    fn pram_mode_attaches_no_deps() {
        let mut r = Replica::new(p(0), 3);
        let (_, deps) = r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Pram));
        assert!(deps.is_none());
    }

    #[test]
    fn pram_ingest_applies_immediately() {
        let mut r = Replica::new(p(1), 2);
        let applied = r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(7)),
            None,
            Mode::Pram,
        );
        assert!(applied);
        assert_eq!(r.value(Loc(0)), Value::Int(7));
        assert_eq!(r.applied[p(0)], 1);
    }

    #[test]
    fn causal_ingest_buffers_out_of_order() {
        let mut r = Replica::new(p(1), 2);
        // Writer p0's second write arrives first.
        let mut deps2: VClock = VClock::new(2);
        deps2.set(p(0), 2);
        let applied = r.ingest(
            WriteId::new(p(0), 2),
            Loc(0),
            UpdatePayload::Set(Value::Int(2)),
            Some(deps2),
            Mode::Causal,
        );
        assert!(!applied);
        assert_eq!(r.pending_len(), 1);
        assert_eq!(r.value(Loc(0)), Value::INITIAL);

        // Now the first write arrives: both drain, in order.
        let mut deps1 = VClock::new(2);
        deps1.set(p(0), 1);
        let applied = r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            Some(deps1),
            Mode::Causal,
        );
        assert!(applied);
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.value(Loc(0)), Value::Int(2), "final value is the later write");
        assert_eq!(r.applied[p(0)], 2);
    }

    #[test]
    fn causal_ingest_waits_for_cross_deps() {
        // p2's write depends on p0's write (p2 read it before writing).
        let mut r = Replica::new(p(1), 3);
        let mut deps = VClock::new(3);
        deps.set(p(2), 1);
        deps.set(p(0), 1); // cross dependency
        assert!(!r.ingest(
            WriteId::new(p(2), 1),
            Loc(1),
            UpdatePayload::Set(Value::Int(5)),
            Some(deps),
            Mode::Mixed,
        ));
        // p0's write arrives; both apply.
        let mut deps0 = VClock::new(3);
        deps0.set(p(0), 1);
        assert!(r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(4)),
            Some(deps0),
            Mode::Mixed,
        ));
        assert_eq!(r.value(Loc(1)), Value::Int(5));
    }

    #[test]
    fn counters_accumulate() {
        let mut r = Replica::new(p(1), 2);
        r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Add(Value::Int(-1)),
            None,
            Mode::Pram,
        );
        let (id, _) = r.local_write(Loc(0), UpdatePayload::Add(Value::Int(-1)), &cfg(Mode::Pram));
        assert_eq!(r.value(Loc(0)), Value::Int(-2));
        let writers = r.await_writers(Loc(0));
        assert_eq!(writers.len(), 2);
        assert!(writers.contains(&id));
    }

    #[test]
    #[should_panic(expected = "delta kind mismatch")]
    fn update_kind_mismatch_panics() {
        let mut r = Replica::new(p(0), 1);
        r.local_write(Loc(0), UpdatePayload::Set(Value::F64(1.0)), &cfg(Mode::Pram));
        r.local_write(Loc(0), UpdatePayload::Add(Value::Int(1)), &cfg(Mode::Pram));
    }

    #[test]
    fn float_counters_accumulate() {
        let mut r = Replica::new(p(0), 1);
        r.local_write(Loc(0), UpdatePayload::Set(Value::F64(1.0)), &cfg(Mode::Pram));
        r.local_write(Loc(0), UpdatePayload::Add(Value::F64(-0.25)), &cfg(Mode::Pram));
        assert_eq!(r.peek(Loc(0)), Value::F64(0.75));
    }

    #[test]
    fn gates() {
        let mut r = Replica::new(p(1), 2);
        assert!(r.causal_ready(Loc(0)));
        assert!(r.pram_ready(Loc(0)));

        // A grant tells us to see p0's first write.
        let mut k = VClock::new(2);
        k.set(p(0), 1);
        r.absorb_sync(&k, &[(p(0), 1)]);
        assert!(!r.causal_ready(Loc(0)));
        assert!(!r.pram_ready(Loc(0)));

        r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            Some(k.clone()),
            Mode::Mixed,
        );
        assert!(r.causal_ready(Loc(0)));
        assert!(r.pram_ready(Loc(0)));
    }

    #[test]
    fn demand_gate_blocks_only_named_locations() {
        let mut r = Replica::new(p(1), 2);
        r.absorb_demand(&[(Loc(3), p(0), 2)]);
        assert!(r.causal_ready(Loc(0)), "other locations unaffected");
        assert!(!r.pram_ready(Loc(3)));
        // Apply p0's two writes.
        for s in 1..=2 {
            r.ingest(
                WriteId::new(p(0), s),
                Loc(3),
                UpdatePayload::Set(Value::Int(s as i64)),
                None,
                Mode::Pram,
            );
        }
        assert!(r.pram_ready(Loc(3)));
    }

    #[test]
    fn dirty_set_is_per_lock_delta() {
        let l = LockId(0);
        let mut r = Replica::new(p(0), 1);
        let c = cfg(Mode::Pram);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        r.local_write(Loc(1), UpdatePayload::Set(Value::Int(2)), &c);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(3)), &c);
        let d1 = r.take_dirty(l);
        assert_eq!(d1, vec![(Loc(0), 3), (Loc(1), 2)]);
        // Nothing new since.
        assert!(r.take_dirty(l).is_empty());
        r.local_write(Loc(1), UpdatePayload::Set(Value::Int(4)), &c);
        assert_eq!(r.take_dirty(l), vec![(Loc(1), 4)]);
        // A different lock ships everything.
        assert_eq!(r.take_dirty(LockId(1)).len(), 2);
    }

    #[test]
    fn presized_store_reads_without_growth() {
        let r = Replica::new(p(0), 2).with_store_capacity(16);
        assert_eq!(r.value(Loc(15)), Value::INITIAL);
        assert_eq!(r.writer_of(Loc(15)), None);
        // Beyond the hint still answers (initial), and writing there grows.
        assert_eq!(r.value(Loc(40)), Value::INITIAL);
        let mut r = r;
        r.local_write(Loc(40), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Pram));
        assert_eq!(r.value(Loc(40)), Value::Int(1));
    }

    #[test]
    fn pram_batch_applies_immediately() {
        let mut r = Replica::new(p(1), 2);
        let e = |loc: u32, v: i64, seq: u32| BatchEntry {
            loc: Loc(loc),
            payload: UpdatePayload::Set(Value::Int(v)),
            writer: WriteId::new(p(0), seq),
            adds: vec![],
        };
        assert!(r.ingest_batch(p(0), 1, 3, vec![e(0, 7, 2), e(1, 9, 3)].into(), None, Mode::Pram));
        assert_eq!(r.value(Loc(0)), Value::Int(7));
        assert_eq!(r.value(Loc(1)), Value::Int(9));
        assert_eq!(r.applied[p(0)], 3);
        assert_eq!(r.writer_of(Loc(1)), Some(WriteId::new(p(0), 3)));
    }

    #[test]
    fn causal_batch_waits_for_sequence_and_deps() {
        let mut r = Replica::new(p(2), 3);
        // Batch covering p0's writes 2..=3 arrives before write 1: buffered.
        let mut deps = VClock::new(3);
        deps.set(p(0), 3);
        let e = BatchEntry {
            loc: Loc(0),
            payload: UpdatePayload::Set(Value::Int(3)),
            writer: WriteId::new(p(0), 3),
            adds: vec![],
        };
        assert!(!r.ingest_batch(p(0), 2, 3, vec![e].into(), Some(deps), Mode::Causal));
        assert_eq!(r.pending_len(), 1);
        // Write 1 (as a singleton) unblocks the batch atomically.
        let mut d1 = VClock::new(3);
        d1.set(p(0), 1);
        assert!(r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            Some(d1),
            Mode::Causal,
        ));
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.applied[p(0)], 3);
        assert_eq!(r.value(Loc(0)), Value::Int(3));
    }

    #[test]
    fn causal_batch_waits_for_cross_deps() {
        let mut r = Replica::new(p(2), 3);
        // p1's batch depends on p0's first write.
        let mut deps = VClock::new(3);
        deps.set(p(1), 1);
        deps.set(p(0), 1);
        let e = BatchEntry {
            loc: Loc(1),
            payload: UpdatePayload::Set(Value::Int(5)),
            writer: WriteId::new(p(1), 1),
            adds: vec![],
        };
        assert!(!r.ingest_batch(p(1), 1, 1, vec![e].into(), Some(deps), Mode::Mixed));
        let mut d0 = VClock::new(3);
        d0.set(p(0), 1);
        assert!(r.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(4)),
            Some(d0),
            Mode::Mixed,
        ));
        assert_eq!(r.value(Loc(1)), Value::Int(5));
    }

    #[test]
    fn batch_add_entry_credits_every_member() {
        let mut r = Replica::new(p(1), 2);
        // Three coalesced Adds from p0 (seqs 1..=3) summed into one entry.
        let e = BatchEntry {
            loc: Loc(0),
            payload: UpdatePayload::Add(Value::Int(3)),
            writer: WriteId::new(p(0), 3),
            adds: vec![1, 2, 3],
        };
        assert!(r.ingest_batch(p(0), 1, 3, vec![e].into(), None, Mode::Pram));
        assert_eq!(r.value(Loc(0)), Value::Int(3));
        let writers = r.await_writers(Loc(0));
        assert_eq!(writers.len(), 3);
        assert!(writers.contains(&WriteId::new(p(0), 2)));
    }

    fn durable_cfg(mode: Mode) -> DsmConfig {
        DsmConfig { durability: Some(crate::durability::DurabilityPolicy::default()), ..cfg(mode) }
    }

    #[test]
    fn snapshot_roundtrip_reconstructs_replica() {
        let c = durable_cfg(Mode::Mixed);
        let mut r = Replica::new(p(0), 3);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(5)), &c);
        r.local_write(Loc(1), UpdatePayload::Add(Value::Int(2)), &c);
        // A causally premature remote write lands in pending.
        let mut deps = VClock::new(3);
        deps.set(p(1), 2);
        r.ingest(
            WriteId::new(p(1), 2),
            Loc(2),
            UpdatePayload::Set(Value::Int(9)),
            Some(deps),
            Mode::Mixed,
        );
        assert_eq!(r.pending_len(), 1);
        r.incarnation = 3;

        let bytes = r.to_snapshot(vec![(p(1), 7)]).encode();
        let snap = Snapshot::decode(&bytes).unwrap();
        assert_eq!(snap.watermarks, vec![(p(1), 7)]);
        let mut back = Replica::from_snapshot(p(0), 3, &snap);
        back.restore_history(r.own_updates().to_vec());
        assert_eq!(back.incarnation, 3);
        assert_eq!(back.value(Loc(0)), Value::Int(5));
        assert_eq!(back.value(Loc(1)), Value::Int(2));
        assert_eq!(back.own_count(), 2);
        assert_eq!(back.take_dirty(LockId(0)), r.take_dirty(LockId(0)));
        assert_eq!(back.pending_len(), 1);
        assert_eq!(back.await_writers(Loc(1)), r.await_writers(Loc(1)));
        // The buffered write still drains once its predecessor arrives.
        let mut d1 = VClock::new(3);
        d1.set(p(1), 1);
        assert!(back.ingest(
            WriteId::new(p(1), 1),
            Loc(2),
            UpdatePayload::Set(Value::Int(8)),
            Some(d1),
            Mode::Mixed,
        ));
        assert_eq!(back.value(Loc(2)), Value::Int(9));
    }

    #[test]
    fn replay_reminits_own_write_identities() {
        let c = durable_cfg(Mode::Mixed);
        let mut live = Replica::new(p(0), 2);
        let (id1, deps1) = live.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        let (id2, deps2) = live.local_write(Loc(1), UpdatePayload::Add(Value::Int(4)), &c);

        let mut reborn = Replica::new(p(0), 2);
        reborn.replay_record(
            WalRecord::OwnWrite {
                loc: Loc(0),
                payload: UpdatePayload::Set(Value::Int(1)),
                deps: deps1,
            },
            Mode::Mixed,
        );
        reborn.replay_record(
            WalRecord::OwnWrite {
                loc: Loc(1),
                payload: UpdatePayload::Add(Value::Int(4)),
                deps: deps2,
            },
            Mode::Mixed,
        );
        reborn.replay_record(WalRecord::Incarnation { incarnation: 2 }, Mode::Mixed);
        assert_eq!(reborn.own_count(), 2);
        assert_eq!(reborn.writer_of(Loc(0)), Some(id1));
        assert_eq!(reborn.writer_of(Loc(1)), Some(id2));
        assert_eq!(reborn.incarnation, 2);
        assert_eq!(reborn.value(Loc(1)), Value::Int(4));
        assert_eq!(reborn.take_dirty(LockId(0)), live.take_dirty(LockId(0)));
    }

    #[test]
    fn replay_ingests_reenter_pending_buffers() {
        let mut r = Replica::new(p(1), 2);
        let mut deps = VClock::new(2);
        deps.set(p(0), 2);
        // A logged ingest whose predecessor never made it to disk: it
        // must wait in pending again, not apply out of order.
        r.replay_record(
            WalRecord::Ingest(Msg::Update {
                writer: WriteId::new(p(0), 2),
                loc: Loc(0),
                payload: UpdatePayload::Set(Value::Int(2)),
                deps: Some(deps),
            }),
            Mode::Causal,
        );
        assert_eq!(r.pending_len(), 1);
        assert_eq!(r.value(Loc(0)), Value::INITIAL);
    }

    #[test]
    fn writes_after_cover_exactly_the_missing_suffix() {
        let c = durable_cfg(Mode::Pram);
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        r.local_write(Loc(1), UpdatePayload::Add(Value::Int(2)), &c);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(3)), &c);
        assert!(r.writes_after(&[(0, 3)]).is_empty(), "peer already has everything");
        let suffix = r.writes_after(&[(0, 1)]);
        let seqs: Vec<u32> = suffix
            .iter()
            .map(|m| match m {
                Msg::Update { writer, deps, .. } => {
                    assert!(deps.is_none(), "PRAM carries no vectors");
                    writer.seq
                }
                other => panic!("full replication re-ships updates, not {}", other.kind()),
            })
            .collect();
        assert_eq!(seqs, [2, 3]);
        // Applying the suffix at a peer that has the prefix converges it.
        let mut peer = Replica::new(p(1), 2);
        peer.ingest(
            WriteId::new(p(0), 1),
            Loc(0),
            UpdatePayload::Set(Value::Int(1)),
            None,
            Mode::Pram,
        );
        for m in suffix {
            peer.ingest_msg(m, Mode::Pram);
        }
        assert_eq!(peer.value(Loc(0)), Value::Int(3));
        assert_eq!(peer.value(Loc(1)), Value::Int(2));
        assert_eq!(peer.await_writers(Loc(1)), [WriteId::new(p(0), 2)], "Adds credit their write");
        assert_eq!(peer.applied[p(0)], 3);
    }

    /// The one unit the old full-replication recovery shipped per
    /// survivor: its whole suffix as a batch gated on the last member.
    fn batch_of(suffix: Vec<Msg>) -> Msg {
        let (mut entries, mut last_deps) = (Vec::new(), None);
        for m in suffix {
            let Msg::Update { writer, loc, payload, deps } = m else { panic!("not an update") };
            entries.push(BatchEntry { loc, payload, writer, adds: vec![] });
            last_deps = deps;
        }
        let (first, last) = (entries[0].writer, entries[entries.len() - 1].writer);
        let (proc, first_seq, upto) = (first.proc, first.seq, last.seq);
        Msg::RecoverResp { proc, first_seq, upto, entries, deps: last_deps, seen: 0 }
    }

    /// The one unit the old sharded recovery shipped per shard: the
    /// writer's chain suffix in `shard`, gated on the last member.
    fn chain_of(shard: u32, suffix: Vec<Msg>) -> Msg {
        let (mut entries, mut head, mut last_deps) = (Vec::new(), 0, Vec::new());
        for m in suffix {
            let Msg::ShardUpdate { writer, loc, payload, prev, deps } = m else {
                panic!("not a sharded update")
            };
            if entries.is_empty() {
                head = prev;
            }
            entries.push(BatchEntry { loc, payload, writer, adds: vec![] });
            last_deps = deps;
        }
        let last = entries[entries.len() - 1].writer;
        let entries = entries.into();
        let (proc, prev, upto, deps) = (last.proc, head, last.seq, last_deps);
        Msg::ShardUpdateBatch { proc, shard, prev, upto, entries, deps }
    }

    /// Regression for the recovery deadlock each data plane once hit: a
    /// reborn replica fed a survivor's missing suffix as *one* batch or
    /// chain parks forever, because the unit waits on its last member's
    /// dependencies and two units each need a member of the other. Fed
    /// one write per message, as [`Replica::writes_after`] yields them,
    /// it drains.
    #[test]
    fn per_write_reships_drain_where_whole_suffix_batches_park() {
        // Full replication: two survivors whose suffixes reference each
        // other — each one's second write read the other's first.
        let c = durable_cfg(Mode::Causal);
        let (mut a, mut b) = (Replica::new(p(0), 3), Replica::new(p(2), 3));
        let (id, deps) = a.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &c);
        b.ingest(id, Loc(0), UpdatePayload::Set(Value::Int(1)), deps, Mode::Causal);
        let (id, deps) = b.local_write(Loc(2), UpdatePayload::Set(Value::Int(1)), &c);
        a.ingest(id, Loc(2), UpdatePayload::Set(Value::Int(1)), deps, Mode::Causal);
        let (id, deps) = a.local_write(Loc(0), UpdatePayload::Set(Value::Int(2)), &c);
        b.ingest(id, Loc(0), UpdatePayload::Set(Value::Int(2)), deps, Mode::Causal);
        b.local_write(Loc(2), UpdatePayload::Set(Value::Int(2)), &c);

        // a's batch waits on {p2:1}, b's on {p0:2}: neither goes first.
        let mut fresh = Replica::new(p(1), 3);
        for r in [&a, &b] {
            fresh.ingest_msg(batch_of(r.writes_after(&[(0, 0)])), Mode::Causal);
        }
        assert_eq!(fresh.pending_len(), 2, "whole-suffix batches park on each other");
        assert_eq!((fresh.applied[p(0)], fresh.applied[p(2)]), (0, 0));

        // The same writes one per message, b's all before a's: b's wait
        // on a's, then everything drains.
        let mut fresh = Replica::new(p(1), 3);
        for r in [&b, &a] {
            for m in r.writes_after(&[(0, 0)]) {
                fresh.ingest_msg(m, Mode::Causal);
            }
        }
        assert_eq!(fresh.pending_len(), 0);
        assert_eq!((fresh.applied[p(0)], fresh.applied[p(2)]), (2, 2));
        assert_eq!((fresh.value(Loc(0)), fresh.value(Loc(2))), (Value::Int(2), Value::Int(2)));

        // Sharding: one writer alternating shards mints chains with
        // mutual cross-shard triples — shard 0's suffix {1,3} needs
        // (1,p0,2), shard 1's {2} needs (0,p0,1).
        let c = cfg(Mode::Causal);
        let mut w = Replica::new(p(0), 2).with_sharding(2, vec![0, 1]);
        w.sharded_write(Loc(0), UpdatePayload::Set(Value::Int(42)), &c);
        w.sharded_write(Loc(1), UpdatePayload::Set(Value::Int(1)), &c);
        w.sharded_write(Loc(2), UpdatePayload::Set(Value::Int(7)), &c);
        let mut fresh = Replica::new(p(1), 2).with_sharding(2, vec![0, 1]);
        for shard in [0, 1] {
            fresh.ingest_msg(chain_of(shard, w.writes_after(&[(shard, 0)])), Mode::Causal);
        }
        assert_eq!(fresh.shards().unwrap().pending_len(), 2, "whole-suffix chains park");
        assert_eq!(fresh.value(Loc(0)), Value::INITIAL);

        let mut fresh = Replica::new(p(1), 2).with_sharding(2, vec![0, 1]);
        for m in w.writes_after(&[(0, 0), (1, 0)]) {
            fresh.ingest_msg(m, Mode::Causal);
        }
        assert_eq!(fresh.shards().unwrap().pending_len(), 0);
        assert_eq!(fresh.value(Loc(0)), Value::Int(42));
        assert_eq!(fresh.value(Loc(2)), Value::Int(7));
    }

    #[test]
    fn own_history_is_kept_only_under_durability() {
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Pram));
        assert_eq!(r.own_updates().len(), 0, "no durability, no history");
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &durable_cfg(Mode::Pram));
        assert_eq!(r.own_updates().len(), 1);
    }

    #[test]
    fn knowledge_merges_must_see() {
        let mut r = Replica::new(p(0), 2);
        r.local_write(Loc(0), UpdatePayload::Set(Value::Int(1)), &cfg(Mode::Mixed));
        let mut k = VClock::new(2);
        k.set(p(1), 5);
        r.absorb_sync(&k, &[]);
        let know = r.knowledge();
        assert_eq!(know[p(0)], 1);
        assert_eq!(know[p(1)], 5);
    }

    /// Sharded re-ships interleave shards in global sequence order and
    /// keep each write's chain link, re-anchored past a held prefix.
    #[test]
    fn per_write_recovery_pushes_avoid_cross_shard_chain_cycle() {
        let c = cfg(Mode::Causal);
        let mut w = Replica::new(p(0), 2).with_sharding(2, vec![0, 1]);
        w.sharded_write(Loc(0), UpdatePayload::Set(Value::Int(42)), &c); // shard 0, seq 1
        w.sharded_write(Loc(1), UpdatePayload::Set(Value::Int(1)), &c); // shard 1, seq 2
        w.sharded_write(Loc(2), UpdatePayload::Set(Value::Int(7)), &c); // shard 0, seq 3
        let link = |m: &Msg| match m {
            Msg::ShardUpdate { writer, prev, .. } => (writer.seq, *prev),
            other => panic!("sharding re-ships sharded updates, not {}", other.kind()),
        };

        let pushes = w.writes_after(&[(0, 0), (1, 0)]);
        assert_eq!(pushes.iter().map(link).collect::<Vec<_>>(), [(1, 0), (2, 0), (3, 1)]);
        let mut fresh = Replica::new(p(1), 2).with_sharding(2, vec![0, 1]);
        for m in pushes {
            fresh.ingest_msg(m, Mode::Causal);
        }
        assert_eq!(fresh.shards().unwrap().pending_len(), 0);
        assert_eq!(fresh.value(Loc(1)), Value::Int(1));
        assert_eq!(fresh.shards().unwrap().applied(0).get(p(0)), 3);
        assert_eq!(fresh.shards().unwrap().applied(1).get(p(0)), 2);

        // A partial watermark re-anchors the chain link past the
        // already-held prefix instead of restarting from zero.
        let tail = w.writes_after(&[(0, 1)]);
        assert_eq!(tail.iter().map(link).collect::<Vec<_>>(), [(3, 1)]);
    }
}
