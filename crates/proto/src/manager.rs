//! The manager node: lock manager, barrier manager, and (in SC mode) the
//! central memory server.
//!
//! Section 6: "Every lock is mapped to a process called the lock manager
//! which accepts the requests for locking and unlocking. Every barrier is
//! also mapped to a barrier manager: each process sends a message to this
//! manager upon reaching the barrier and the manager in turn signals the
//! processes to go ahead when all of them have reached the barrier."

use std::collections::{BTreeMap, HashMap, VecDeque};

use mc_model::{BarrierId, Loc, LockId, LockMode, ProcId, VClock, Value, WriteId};

use crate::config::{DsmConfig, LockPropagation};
use crate::msg::{GrantInfo, Msg, UpdatePayload};

/// State of one lock object at the manager.
#[derive(Debug, Default)]
struct LockState {
    /// Current holders (one writer, or any number of readers).
    holders: Vec<(ProcId, LockMode)>,
    /// FIFO wait queue.
    queue: VecDeque<(ProcId, LockMode)>,
    /// Knowledge merged from every release (empty length = PRAM mode).
    acc_knowledge: VClock,
    /// Releases of the epoch that most recently ended — the "immediately
    /// preceding process(es)" of the next grant.
    last_epoch: Vec<(ProcId, u32)>,
    /// Releases of the epoch currently in progress.
    cur_epoch_releases: Vec<(ProcId, u32)>,
    /// Demand-driven accumulated requirements: latest writer per location.
    demand_map: BTreeMap<Loc, (ProcId, u32)>,
}

impl LockState {
    fn write_held(&self) -> bool {
        self.holders.iter().any(|&(_, m)| m == LockMode::Write)
    }
}

/// The manager-node state.
#[derive(Debug)]
pub struct Manager {
    nprocs: usize,
    locks: HashMap<LockId, LockState>,
    /// Barrier arrivals per (object, round).
    arrivals: HashMap<(BarrierId, u32), Vec<(ProcId, VClock)>>,
    /// Shard-interest directory (sharded mode): current subscribers per
    /// shard, seeded lazily from the static interest sets and grown by
    /// dynamic first-touch subscriptions.
    shard_subs: HashMap<u32, Vec<ProcId>>,
    // --- SC server ---
    store: Vec<Value>,
    last_writer: Vec<Option<WriteId>>,
    counter_updates: HashMap<Loc, Vec<WriteId>>,
    watches: Vec<(ProcId, Loc, Value)>,
    /// Per location, the writes and updates applied in the order they
    /// were applied — kept only once [`Manager::record_write_order`] is
    /// called.
    write_order: Option<BTreeMap<Loc, Vec<WriteId>>>,
}

/// Messages the manager wants delivered, with destination *process* (the
/// caller translates to the process's replica node).
pub type Outbox = Vec<(ProcId, Msg)>;

impl Manager {
    /// Creates the manager for `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        Manager {
            nprocs,
            locks: HashMap::new(),
            arrivals: HashMap::new(),
            shard_subs: HashMap::new(),
            store: Vec::new(),
            last_writer: Vec::new(),
            counter_updates: HashMap::new(),
            watches: Vec::new(),
            write_order: None,
        }
    }

    /// Starts recording the SC server's write order: from here on, every
    /// write and update is noted per location in the order it is applied.
    /// Executors turn this on when they record a history; the order never
    /// travels on the wire.
    pub fn record_write_order(&mut self) {
        self.write_order.get_or_insert_with(BTreeMap::new);
    }

    /// Takes the recorded write order: each written location with its
    /// writes and updates in application order (empty unless recording).
    pub fn take_write_order(&mut self) -> BTreeMap<Loc, Vec<WriteId>> {
        self.write_order.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Handles one message addressed to this manager shard, returning
    /// what it wants delivered in response.
    ///
    /// # Panics
    ///
    /// Panics on a message no manager serves (a routing bug).
    pub fn handle(&mut self, msg: Msg, cfg: &DsmConfig) -> Outbox {
        match msg {
            Msg::LockReq { proc, lock, mode } => self.lock_request(proc, lock, mode, cfg),
            Msg::LockRel { proc, lock, knowledge, own_count, dirty, .. } => {
                self.lock_release(proc, lock, knowledge, own_count, dirty, cfg)
            }
            Msg::BarrierArrive { proc, barrier, round, knowledge } => {
                self.barrier_arrive(proc, barrier, round, knowledge, cfg)
            }
            Msg::ScRead { proc, loc } => self.sc_read(proc, loc),
            Msg::ScWrite { writer, loc, payload } => self.sc_write(writer, loc, payload),
            Msg::ScAwait { proc, loc, value } => self.sc_await(proc, loc, value),
            Msg::SubReq { proc, shard } => self.sub_req(proc, shard, cfg),
            other => panic!("manager received unexpected {other:?}"),
        }
    }

    // -------------------------------------------------------------- directory

    /// Handles a dynamic shard subscription request (first-touch
    /// fallback): registers `proc` as a subscriber of `shard`, acks it
    /// with the *pre-existing* subscriber list (each of those will push
    /// its own chain as backfill on the matching notify), and notifies
    /// those subscribers so their future updates multicast to `proc`
    /// too. A duplicate request (retransmission, or a reborn replica
    /// re-announcing its subscriptions) is acked with the current other
    /// subscribers and triggers no new notifications.
    pub fn sub_req(&mut self, proc: ProcId, shard: u32, cfg: &DsmConfig) -> Outbox {
        let sc = cfg.sharding.as_ref().expect("sub_req requires sharding");
        let nprocs = self.nprocs;
        let subs = self.shard_subs.entry(shard).or_insert_with(|| {
            (0..nprocs as u32).map(ProcId).filter(|&q| sc.subscribed(q, shard as usize)).collect()
        });
        let mut out = Vec::new();
        if subs.contains(&proc) {
            let others: Vec<ProcId> = subs.iter().copied().filter(|&q| q != proc).collect();
            out.push((proc, Msg::SubAck { shard, subs: others }));
        } else {
            let existing = subs.clone();
            subs.push(proc);
            out.push((proc, Msg::SubAck { shard, subs: existing.clone() }));
            for q in existing {
                out.push((q, Msg::SubNotify { shard, proc }));
            }
        }
        out
    }

    // ------------------------------------------------------------------ locks

    /// Handles a lock request; returns grants to send.
    pub fn lock_request(
        &mut self,
        proc: ProcId,
        lock: LockId,
        mode: LockMode,
        cfg: &DsmConfig,
    ) -> Outbox {
        let st = self.locks.entry(lock).or_default();
        let compatible = match mode {
            LockMode::Write => st.holders.is_empty(),
            LockMode::Read => !st.write_held(),
        };
        if compatible && st.queue.is_empty() {
            st.holders.push((proc, mode));
            vec![(proc, Self::grant_msg(st, lock, cfg))]
        } else {
            st.queue.push_back((proc, mode));
            Vec::new()
        }
    }

    /// Handles a lock release; returns grants to send.
    pub fn lock_release(
        &mut self,
        proc: ProcId,
        lock: LockId,
        knowledge: VClock,
        own_count: u32,
        dirty: Vec<(Loc, u32)>,
        cfg: &DsmConfig,
    ) -> Outbox {
        let st =
            self.locks.get_mut(&lock).unwrap_or_else(|| panic!("release of unknown lock {lock}"));
        let pos = st
            .holders
            .iter()
            .position(|&(p, _)| p == proc)
            .unwrap_or_else(|| panic!("release by non-holder {proc} of {lock}"));
        st.holders.swap_remove(pos);
        st.cur_epoch_releases.push((proc, own_count));
        if !knowledge.is_empty() {
            if st.acc_knowledge.is_empty() {
                st.acc_knowledge = VClock::new(knowledge.len());
            }
            st.acc_knowledge.merge(&knowledge);
        }
        for (loc, seq) in dirty {
            st.demand_map.insert(loc, (proc, seq));
        }
        if st.holders.is_empty() {
            st.last_epoch = std::mem::take(&mut st.cur_epoch_releases);
            return Self::drain_queue(st, lock, cfg);
        }
        Vec::new()
    }

    fn drain_queue(st: &mut LockState, lock: LockId, cfg: &DsmConfig) -> Outbox {
        let mut out = Vec::new();
        // FIFO: grant the head; if it is a reader, batch all consecutive
        // readers behind it.
        if let Some(&(proc, mode)) = st.queue.front() {
            match mode {
                LockMode::Write => {
                    st.queue.pop_front();
                    st.holders.push((proc, mode));
                    out.push((proc, Self::grant_msg(st, lock, cfg)));
                }
                LockMode::Read => {
                    while let Some(&(p, m)) = st.queue.front() {
                        if m != LockMode::Read {
                            break;
                        }
                        st.queue.pop_front();
                        st.holders.push((p, m));
                        out.push((p, Self::grant_msg(st, lock, cfg)));
                    }
                }
            }
        }
        out
    }

    fn grant_msg(st: &LockState, lock: LockId, cfg: &DsmConfig) -> Msg {
        let demand = if cfg.lock_propagation == LockPropagation::DemandDriven {
            st.demand_map.iter().map(|(&l, &(p, s))| (l, p, s)).collect()
        } else {
            Vec::new()
        };
        Msg::LockGrant {
            lock,
            grant: GrantInfo {
                knowledge: st.acc_knowledge.clone(),
                preds: st.last_epoch.clone(),
                demand,
            },
        }
    }

    // ---------------------------------------------------------------- barrier

    /// Handles a barrier arrival; when every participant of the barrier's
    /// group has arrived, returns the releases (Section 3.1.2 allows
    /// sub-group barriers).
    pub fn barrier_arrive(
        &mut self,
        proc: ProcId,
        barrier: BarrierId,
        round: u32,
        knowledge: VClock,
        cfg: &DsmConfig,
    ) -> Outbox {
        let participants = cfg.barrier_participants(barrier);
        assert!(participants.contains(&proc), "{proc} is not a participant of {barrier}");
        let arrived = self.arrivals.entry((barrier, round)).or_default();
        assert!(
            arrived.iter().all(|&(p, _)| p != proc),
            "{proc} arrived twice at {barrier} round {round}"
        );
        arrived.push((proc, knowledge));
        if arrived.len() < participants.len() {
            return Vec::new();
        }
        let arrived = self.arrivals.remove(&(barrier, round)).expect("present");
        let mut merged =
            VClock::new(if arrived[0].1.is_empty() { self.nprocs } else { arrived[0].1.len() });
        for (_, k) in &arrived {
            if !k.is_empty() {
                merged.merge(k);
            }
        }
        participants
            .into_iter()
            .map(|p| (p, Msg::BarrierRelease { barrier, round, knowledge: merged.clone() }))
            .collect()
    }

    // -------------------------------------------------------------- SC server

    fn ensure_loc(&mut self, loc: Loc) {
        if loc.index() >= self.store.len() {
            self.store.resize(loc.index() + 1, Value::INITIAL);
            self.last_writer.resize(loc.index() + 1, None);
        }
    }

    /// The server's current value of `loc` without mutation (for result
    /// collection after a finished SC run).
    pub fn peek(&self, loc: Loc) -> Value {
        self.store.get(loc.index()).copied().unwrap_or(Value::INITIAL)
    }

    /// SC server read.
    pub fn sc_read(&mut self, proc: ProcId, loc: Loc) -> Outbox {
        self.ensure_loc(loc);
        vec![(
            proc,
            Msg::ScReadResp {
                value: self.store[loc.index()],
                writer: self.last_writer[loc.index()],
            },
        )]
    }

    /// SC server write/update; acknowledges and fires satisfied watches.
    pub fn sc_write(&mut self, writer: WriteId, loc: Loc, payload: UpdatePayload) -> Outbox {
        self.ensure_loc(loc);
        match payload {
            UpdatePayload::Set(v) => self.store[loc.index()] = v,
            UpdatePayload::Add(d) => {
                let cur = self.store[loc.index()];
                self.store[loc.index()] = cur.checked_add(d).unwrap_or_else(|| {
                    panic!("update delta kind mismatch at {loc} ({cur:?} += {d:?})")
                });
                self.counter_updates.entry(loc).or_default().push(writer);
            }
        }
        self.last_writer[loc.index()] = Some(writer);
        if let Some(order) = &mut self.write_order {
            order.entry(loc).or_default().push(writer);
        }
        let mut out = vec![(writer.proc, Msg::ScWriteAck)];
        out.extend(self.fire_watches());
        out
    }

    /// SC server await registration.
    pub fn sc_await(&mut self, proc: ProcId, loc: Loc, value: Value) -> Outbox {
        self.ensure_loc(loc);
        if self.store[loc.index()] == value {
            let writers = self.sc_writers(loc);
            return vec![(proc, Msg::ScAwaitResp { value, writers })];
        }
        self.watches.push((proc, loc, value));
        Vec::new()
    }

    fn sc_writers(&self, loc: Loc) -> Vec<WriteId> {
        if let Some(ups) = self.counter_updates.get(&loc) {
            return ups.clone();
        }
        self.last_writer.get(loc.index()).copied().flatten().into_iter().collect()
    }

    fn fire_watches(&mut self) -> Outbox {
        let mut out = Vec::new();
        let mut remaining = Vec::new();
        for (proc, loc, value) in std::mem::take(&mut self.watches) {
            if self.store.get(loc.index()).copied().unwrap_or(Value::INITIAL) == value {
                let writers = self.sc_writers(loc);
                out.push((proc, Msg::ScAwaitResp { value, writers }));
            } else {
                remaining.push((proc, loc, value));
            }
        }
        self.watches = remaining;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::ProcModel;

    fn cfg() -> DsmConfig {
        DsmConfig::new(3, ProcModel::MIXED)
    }

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    fn k(counts: &[u32]) -> VClock {
        counts.iter().copied().collect()
    }

    #[test]
    fn immediate_grant_when_free() {
        let mut m = Manager::new(3);
        let out = m.lock_request(p(0), LockId(0), LockMode::Write, &cfg());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, p(0));
        assert!(matches!(out[0].1, Msg::LockGrant { .. }));
    }

    #[test]
    fn writer_queues_behind_writer_and_gets_grant_on_release() {
        let mut m = Manager::new(3);
        let c = cfg();
        m.lock_request(p(0), LockId(0), LockMode::Write, &c);
        assert!(m.lock_request(p(1), LockId(0), LockMode::Write, &c).is_empty());
        let out = m.lock_release(p(0), LockId(0), k(&[2, 0, 0]), 2, vec![], &c);
        assert_eq!(out.len(), 1);
        let (to, Msg::LockGrant { grant, .. }) = &out[0] else { panic!() };
        assert_eq!(*to, p(1));
        assert_eq!(grant.preds, vec![(p(0), 2)]);
        assert_eq!(grant.knowledge, k(&[2, 0, 0]));
    }

    #[test]
    fn readers_batch_and_share() {
        let mut m = Manager::new(3);
        let c = cfg();
        m.lock_request(p(0), LockId(0), LockMode::Write, &c);
        assert!(m.lock_request(p(1), LockId(0), LockMode::Read, &c).is_empty());
        assert!(m.lock_request(p(2), LockId(0), LockMode::Read, &c).is_empty());
        let out = m.lock_release(p(0), LockId(0), k(&[1, 0, 0]), 1, vec![], &c);
        assert_eq!(out.len(), 2, "both readers granted together");
    }

    #[test]
    fn reader_joins_active_read_epoch() {
        let mut m = Manager::new(3);
        let c = cfg();
        assert_eq!(m.lock_request(p(0), LockId(0), LockMode::Read, &c).len(), 1);
        assert_eq!(m.lock_request(p(1), LockId(0), LockMode::Read, &c).len(), 1);
    }

    #[test]
    fn reader_does_not_jump_queued_writer() {
        let mut m = Manager::new(3);
        let c = cfg();
        m.lock_request(p(0), LockId(0), LockMode::Read, &c);
        assert!(m.lock_request(p(1), LockId(0), LockMode::Write, &c).is_empty());
        // A new reader must wait behind the writer (queue non-empty).
        assert!(m.lock_request(p(2), LockId(0), LockMode::Read, &c).is_empty());
        let out = m.lock_release(p(0), LockId(0), k(&[0, 0, 0]), 0, vec![], &c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, p(1), "writer first");
        let out = m.lock_release(p(1), LockId(0), k(&[0, 1, 0]), 1, vec![], &c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, p(2));
        // The reader's preds are the writer epoch.
        let (_, Msg::LockGrant { grant, .. }) = &out[0] else { panic!() };
        assert_eq!(grant.preds, vec![(p(1), 1)]);
    }

    #[test]
    fn demand_map_accumulates_latest() {
        let mut m = Manager::new(2);
        let c =
            DsmConfig::new(2, ProcModel::PRAM).with_lock_propagation(LockPropagation::DemandDriven);
        m.lock_request(p(0), LockId(0), LockMode::Write, &c);
        m.lock_release(p(0), LockId(0), VClock::new(0), 2, vec![(Loc(0), 2)], &c);
        m.lock_request(p(1), LockId(0), LockMode::Write, &c.clone());
        let out =
            m.lock_release(p(1), LockId(0), VClock::new(0), 1, vec![(Loc(0), 1), (Loc(1), 1)], &c);
        assert!(out.is_empty());
        let out = m.lock_request(p(0), LockId(0), LockMode::Write, &c);
        let (_, Msg::LockGrant { grant, .. }) = &out[0] else { panic!() };
        assert_eq!(grant.demand.len(), 2);
        assert!(grant.demand.contains(&(Loc(0), p(1), 1)));
        assert!(grant.demand.contains(&(Loc(1), p(1), 1)));
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut m = Manager::new(2);
        let c = cfg();
        m.lock_request(p(0), LockId(0), LockMode::Write, &c);
        m.lock_release(p(1), LockId(0), VClock::new(0), 0, vec![], &c);
    }

    #[test]
    fn barrier_releases_after_all_arrive() {
        let mut m = Manager::new(3);
        assert!(m.barrier_arrive(p(0), BarrierId(0), 0, k(&[1, 0, 0]), &cfg()).is_empty());
        assert!(m.barrier_arrive(p(2), BarrierId(0), 0, k(&[0, 0, 3]), &cfg()).is_empty());
        let out = m.barrier_arrive(p(1), BarrierId(0), 0, k(&[0, 2, 0]), &cfg());
        assert_eq!(out.len(), 3);
        for (_, msg) in &out {
            let Msg::BarrierRelease { knowledge, round, .. } = msg else { panic!() };
            assert_eq!(*round, 0);
            assert_eq!(*knowledge, k(&[1, 2, 3]), "merged knowledge");
        }
    }

    #[test]
    fn barrier_rounds_are_independent() {
        let mut m = Manager::new(2);
        let c = DsmConfig::new(2, ProcModel::MIXED);
        assert!(m.barrier_arrive(p(0), BarrierId(0), 0, k(&[0, 0]), &c).is_empty());
        assert!(m.barrier_arrive(p(0), BarrierId(0), 1, k(&[0, 0]), &c).is_empty());
        assert_eq!(m.barrier_arrive(p(1), BarrierId(0), 0, k(&[0, 0]), &c).len(), 2);
        assert_eq!(m.barrier_arrive(p(1), BarrierId(0), 1, k(&[0, 0]), &c).len(), 2);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut m = Manager::new(2);
        let c = DsmConfig::new(2, ProcModel::MIXED);
        m.barrier_arrive(p(0), BarrierId(0), 0, VClock::new(0), &c);
        m.barrier_arrive(p(0), BarrierId(0), 0, VClock::new(0), &c);
    }

    #[test]
    fn subgroup_barrier_releases_only_the_group() {
        let mut m = Manager::new(3);
        let c =
            DsmConfig::new(3, ProcModel::MIXED).with_barrier_group(BarrierId(1), vec![p(0), p(2)]);
        assert!(m.barrier_arrive(p(0), BarrierId(1), 0, k(&[1, 0, 0]), &c).is_empty());
        let out = m.barrier_arrive(p(2), BarrierId(1), 0, k(&[0, 0, 2]), &c);
        assert_eq!(out.len(), 2, "only the two group members are released");
        let procs: Vec<ProcId> = out.iter().map(|(p, _)| *p).collect();
        assert!(procs.contains(&p(0)) && procs.contains(&p(2)));
    }

    #[test]
    #[should_panic(expected = "not a participant")]
    fn outsider_arrival_panics() {
        let mut m = Manager::new(3);
        let c =
            DsmConfig::new(3, ProcModel::MIXED).with_barrier_group(BarrierId(1), vec![p(0), p(2)]);
        m.barrier_arrive(p(1), BarrierId(1), 0, VClock::new(0), &c);
    }

    #[test]
    fn sc_read_write_roundtrip() {
        let mut m = Manager::new(2);
        let w = WriteId::new(p(0), 1);
        let out = m.sc_write(w, Loc(0), UpdatePayload::Set(Value::Int(5)));
        assert!(matches!(out[0].1, Msg::ScWriteAck));
        let out = m.sc_read(p(1), Loc(0));
        let (_, Msg::ScReadResp { value, writer }) = &out[0] else { panic!() };
        assert_eq!(*value, Value::Int(5));
        assert_eq!(*writer, Some(w));
        // Unwritten location returns the initial value.
        let out = m.sc_read(p(1), Loc(9));
        let (_, Msg::ScReadResp { value, writer }) = &out[0] else { panic!() };
        assert_eq!(*value, Value::INITIAL);
        assert_eq!(*writer, None);
    }

    #[test]
    fn sc_write_order_is_kept_only_when_recording() {
        let (a, b, c) = (WriteId::new(p(0), 1), WriteId::new(p(1), 1), WriteId::new(p(0), 2));
        let run = |m: &mut Manager| {
            m.sc_write(a, Loc(3), UpdatePayload::Set(Value::Int(1)));
            m.sc_write(b, Loc(3), UpdatePayload::Add(Value::Int(1)));
            m.sc_write(c, Loc(0), UpdatePayload::Set(Value::Int(7)));
            m.take_write_order()
        };
        assert!(run(&mut Manager::new(2)).is_empty());
        let mut m = Manager::new(2);
        m.record_write_order();
        assert_eq!(run(&mut m), BTreeMap::from([(Loc(0), vec![c]), (Loc(3), vec![a, b])]));
        assert!(m.take_write_order().is_empty(), "taken");
    }

    #[test]
    fn sc_await_fires_on_write() {
        let mut m = Manager::new(2);
        assert!(m.sc_await(p(1), Loc(0), Value::Int(3)).is_empty());
        let out = m.sc_write(WriteId::new(p(0), 1), Loc(0), UpdatePayload::Set(Value::Int(3)));
        assert_eq!(out.len(), 2, "ack + await response");
        assert!(out.iter().any(|(to, msg)| *to == p(1) && matches!(msg, Msg::ScAwaitResp { .. })));
    }

    #[test]
    fn sc_await_immediate_if_already_true() {
        let mut m = Manager::new(2);
        let out = m.sc_await(p(1), Loc(0), Value::INITIAL);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sc_counter_updates() {
        let mut m = Manager::new(2);
        m.sc_write(WriteId::new(p(0), 1), Loc(0), UpdatePayload::Add(Value::Int(-1)));
        let out = m.sc_write(WriteId::new(p(1), 1), Loc(0), UpdatePayload::Add(Value::Int(-1)));
        // value now -2
        let _ = out;
        let out = m.sc_read(p(0), Loc(0));
        let (_, Msg::ScReadResp { value, .. }) = &out[0] else { panic!() };
        assert_eq!(*value, Value::Int(-2));
        let out = m.sc_await(p(0), Loc(0), Value::Int(-2));
        let (_, Msg::ScAwaitResp { writers, .. }) = &out[0] else { panic!() };
        assert_eq!(writers.len(), 2);
    }
}
