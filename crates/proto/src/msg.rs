//! Wire messages of the DSM protocols.
//!
//! Payload byte sizes are *modeled* (they feed the simulator's latency and
//! byte counters) — the point the paper makes about PRAM is precisely that
//! its update messages need no vector timestamps, so the models differ per
//! mode.

use std::sync::Arc;

use mc_model::{BarrierId, Loc, LockId, LockMode, ProcId, VClock, Value, WriteId};

/// The payload of a memory update: overwrite or commutative increment
/// (the abstract-data-type extension of Section 5.3).
#[derive(Clone, Debug, PartialEq)]
pub enum UpdatePayload {
    /// Plain write `w(x)v`.
    Set(Value),
    /// Commutative `x += delta` (integer or float delta).
    Add(Value),
}

/// Everything a lock grant carries to the new holder.
#[derive(Clone, Debug, Default)]
pub struct GrantInfo {
    /// Accumulated knowledge vector of all previous critical sections
    /// (empty in PRAM mode).
    pub knowledge: VClock,
    /// The previous epoch's members with their own-write counts at release
    /// (the PRAM "immediately preceding process" information).
    pub preds: Vec<(ProcId, u32)>,
    /// Demand-driven invalidation set: locations written before earlier
    /// releases, with the required writer sequence number.
    pub demand: Vec<(Loc, ProcId, u32)>,
}

impl GrantInfo {
    /// Modeled wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        8 + 4 * self.knowledge.len() as u64
            + 8 * self.preds.len() as u64
            + 12 * self.demand.len() as u64
    }
}

/// One coalesced entry of a [`Msg::UpdateBatch`]: the surviving value
/// for a location after last-write-wins (`Set`) or summing (`Add`)
/// coalescing within the batch window.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchEntry {
    /// Location updated.
    pub loc: Loc,
    /// The coalesced payload: the last `Set`, or the summed `Add` delta.
    pub payload: UpdatePayload,
    /// The last member write coalesced into this entry (the surviving
    /// `last_writer` identity at the receiver).
    pub writer: WriteId,
    /// For `Add` entries: the own-sequence numbers of *every* member
    /// write, so the receiver can credit each writer identity to its
    /// counter (`await` on counters needs all of them, not just the
    /// last). Empty for `Set` entries.
    pub adds: Vec<u32>,
}

impl BatchEntry {
    /// Modeled wire size in bytes: location (4) + tagged payload (9:
    /// kind byte + 8-byte operand) + writer sequence (4) + member count
    /// (2) + padding (20 total; the writer's process id is implied by
    /// the enclosing batch header), plus 4 per extra coalesced `Add`
    /// member. Widened from the earlier modeled 16 when the binary
    /// codec made frames real: 16 bytes cannot physically hold the
    /// fields, and the model is pinned to what actually travels.
    pub fn wire_bytes(&self) -> u64 {
        20 + 4 * self.adds.len() as u64
    }
}

/// A protocol message.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Replicated-memory update broadcast (Section 6). `deps` is the
    /// writer's vector timestamp in causal/mixed mode, `None` in PRAM
    /// mode.
    Update {
        /// Identity of the write.
        writer: WriteId,
        /// Location updated.
        loc: Loc,
        /// Overwrite or increment.
        payload: UpdatePayload,
        /// Vector timestamp (causal/mixed only).
        deps: Option<VClock>,
    },
    /// A batch of coalesced updates from one process, covering its own
    /// writes `first_seq..=upto` in sequence order. Applied atomically
    /// at the receiver — indistinguishable, over a FIFO link, from the
    /// member [`Msg::Update`]s delivered back to back.
    UpdateBatch {
        /// The writing process.
        proc: ProcId,
        /// First own-write sequence number covered by this batch.
        first_seq: u32,
        /// Last own-write sequence number covered by this batch.
        upto: u32,
        /// Coalesced per-location entries, in batch-buffer order.
        /// Reference-counted so the per-peer broadcast fan-out and
        /// session retransmit copies share one buffer instead of deep-
        /// cloning the entries per peer.
        entries: Arc<[BatchEntry]>,
        /// Delta-compressed dependency clock (causal/mixed only): the
        /// components of the sender's vector timestamp *at the last
        /// member write* that changed since the previous update message
        /// on this directed link, as absolute values. The receiver
        /// reconstructs the full clock from its per-link shadow copy.
        /// `None` in PRAM mode.
        delta: Option<Vec<(ProcId, u32)>>,
        /// Piggybacked session acknowledgement for the reverse link —
        /// `(upto, epoch)`: highest in-order sequence number delivered,
        /// tagged with the receiver's link epoch so a pre-crash ack can
        /// never advance a reborn sender's watermark. Present only when
        /// the session layer is running.
        ack: Option<(u64, u64)>,
    },
    /// Eager unlock: "flush all updates" probe from a releasing process.
    Flush {
        /// The releasing process.
        from_proc: ProcId,
        /// Acknowledge once this many of its writes are applied.
        upto: u32,
    },
    /// Acknowledgement of a [`Msg::Flush`].
    FlushAck,
    /// Lock request to the manager.
    LockReq {
        /// Requesting process.
        proc: ProcId,
        /// Lock object.
        lock: LockId,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// Lock grant from the manager.
    LockGrant {
        /// Lock object.
        lock: LockId,
        /// Consistency payload.
        grant: GrantInfo,
    },
    /// Lock release to the manager.
    LockRel {
        /// Releasing process.
        proc: ProcId,
        /// Lock object.
        lock: LockId,
        /// Lock mode released.
        mode: LockMode,
        /// Releaser's knowledge vector (empty in PRAM mode).
        knowledge: VClock,
        /// Releaser's own-write count at release.
        own_count: u32,
        /// Demand-driven dirty set: locations this process wrote (latest
        /// own sequence number each) since its previous release of this
        /// lock.
        dirty: Vec<(Loc, u32)>,
    },
    /// Barrier arrival at the manager (carries the per-process knowledge
    /// vector — Section 6's message-count vector).
    BarrierArrive {
        /// Arriving process.
        proc: ProcId,
        /// Barrier object.
        barrier: BarrierId,
        /// Round index.
        round: u32,
        /// Arriving process's knowledge.
        knowledge: VClock,
    },
    /// Barrier release to every participant.
    BarrierRelease {
        /// Barrier object.
        barrier: BarrierId,
        /// Round index.
        round: u32,
        /// Merged knowledge of all participants.
        knowledge: VClock,
    },
    /// SC server: read request.
    ScRead {
        /// Requesting process.
        proc: ProcId,
        /// Location.
        loc: Loc,
    },
    /// SC server: read response.
    ScReadResp {
        /// Value at the server.
        value: Value,
        /// The write that produced it (None = initial).
        writer: Option<WriteId>,
    },
    /// SC server: write/update request.
    ScWrite {
        /// Identity of the write.
        writer: WriteId,
        /// Location.
        loc: Loc,
        /// Overwrite or increment.
        payload: UpdatePayload,
    },
    /// SC server: write acknowledgement.
    ScWriteAck,
    /// SC server: register an await watch.
    ScAwait {
        /// Requesting process.
        proc: ProcId,
        /// Location.
        loc: Loc,
        /// Value awaited.
        value: Value,
    },
    /// SC server: await satisfied.
    ScAwaitResp {
        /// The observed value.
        value: Value,
        /// The writes that produced it.
        writers: Vec<WriteId>,
    },
    /// Reliable-session wrapper (see [`crate::session`]): `inner` is the
    /// `seq`-th payload on its directed sender→receiver link within
    /// session epoch `epoch`.
    SessData {
        /// Per-link sequence number (first payload is 1).
        seq: u64,
        /// Session epoch: high 32 bits are the sender's persisted
        /// incarnation, low 32 bits a volatile reset counter. Strictly
        /// monotone per directed link across crashes, so a reborn node's
        /// link can never be confused with its pre-crash self.
        epoch: u64,
        /// The wrapped protocol message.
        inner: Box<Msg>,
    },
    /// Cumulative session acknowledgement: every payload with sequence
    /// number ≤ `upto` in epoch `epoch` on this link has been delivered
    /// in order.
    SessAck {
        /// Highest in-order sequence number delivered.
        upto: u64,
        /// The receiver's current epoch for this link. Senders ignore
        /// acks from any other epoch — a pre-crash cumulative ack must
        /// never advance a post-crash watermark.
        epoch: u64,
    },
    /// Recovery bootstrap, broadcast by a reborn replica after replaying
    /// its disk. Always sent raw (never session-wrapped): it is the
    /// message that resets the session.
    RecoverReq {
        /// The reborn process.
        proc: ProcId,
        /// Its new (post-bump) incarnation.
        incarnation: u32,
        /// Its applied vector after snapshot+log replay: peers answer
        /// with only the missing delta.
        applied: VClock,
    },
    /// A peer's answer to [`Msg::RecoverReq`]: how much of the reborn
    /// process's writes the peer holds (`seen`, the push-back trigger).
    /// Recovery answers carry no entries — the peer's missing writes
    /// follow as individual [`Msg::Update`]s, because a batch gated on
    /// its last member can deadlock against another survivor's. The
    /// entry form is how a write-ahead log records an
    /// [`Msg::UpdateBatch`] with its clock delta expanded.
    RecoverResp {
        /// The responding process.
        proc: ProcId,
        /// First own-write sequence covered (`applied[proc] + 1` from
        /// the request).
        first_seq: u32,
        /// Last own-write sequence covered (the peer's own count).
        upto: u32,
        /// One entry per missing own write, in sequence order.
        entries: Vec<BatchEntry>,
        /// Dependency vector of the last member (vector modes only).
        deps: Option<VClock>,
        /// How many of the *reborn* process's own writes the responder
        /// has applied — the reborn side pushes back its own suffix
        /// after this point.
        seen: u32,
    },
    /// Sharded-replication update, multicast only to the subscribers of
    /// its shard. Dependencies are a *sparse per-shard clock*: triples
    /// `(shard, proc, seq)` naming the latest write per writer per shard
    /// the sender had applied when it wrote — O(interested replicas) on
    /// the wire instead of O(cluster).
    ShardUpdate {
        /// Identity of the write (sequence numbers are global per
        /// process, shared with the full-replication protocol).
        writer: WriteId,
        /// Location updated.
        loc: Loc,
        /// Overwrite or increment.
        payload: UpdatePayload,
        /// The writer's previous own sequence number *in this shard*
        /// (0 if this is its first write there) — the per-shard FIFO
        /// chain receivers apply in order.
        prev: u32,
        /// Sparse per-shard dependency clock (empty in PRAM mode).
        deps: Vec<(u32, ProcId, u32)>,
    },
    /// A per-shard batch of coalesced sharded updates from one process;
    /// also the carrier of recovery and subscription backfills. Entries
    /// chain from `prev` (the writer's own sequence in the shard before
    /// the first member) to `upto`.
    ShardUpdateBatch {
        /// The writing process.
        proc: ProcId,
        /// The shard every entry belongs to.
        shard: u32,
        /// The writer's own sequence in this shard before the batch.
        prev: u32,
        /// Last own-write sequence covered by the batch.
        upto: u32,
        /// Coalesced per-location entries, in batch-buffer order.
        /// Reference-counted for the same fan-out sharing as
        /// [`Msg::UpdateBatch`].
        entries: Arc<[BatchEntry]>,
        /// Sparse per-shard dependency clock of the last member (empty
        /// in PRAM mode).
        deps: Vec<(u32, ProcId, u32)>,
    },
    /// Directory: subscribe `proc` to `shard` (dynamic first-touch).
    SubReq {
        /// The subscribing process.
        proc: ProcId,
        /// The shard of interest.
        shard: u32,
    },
    /// Directory answer to [`Msg::SubReq`]: the current subscriber set,
    /// unblocking the requester's first-touch access.
    SubAck {
        /// The shard subscribed.
        shard: u32,
        /// Every subscriber (including the requester).
        subs: Vec<ProcId>,
    },
    /// Directory notification to existing subscribers of `shard`: `proc`
    /// has joined. Each existing subscriber adds `proc` to its multicast
    /// set and pushes its *own* write suffix for the shard directly, so
    /// no third party's state is needed to close the join window.
    SubNotify {
        /// The shard joined.
        shard: u32,
        /// The new subscriber.
        proc: ProcId,
    },
    /// Sharded recovery bootstrap: like [`Msg::RecoverReq`] but carrying
    /// the reborn replica's *per-shard* applied clock, sent only to
    /// peers sharing at least one shard. Peers answer per shared shard,
    /// so recovery re-fetches only subscribed state.
    ShardRecoverReq {
        /// The reborn process.
        proc: ProcId,
        /// Its new (post-bump) incarnation.
        incarnation: u32,
        /// Sparse per-shard applied clock after log replay.
        applied: Vec<(u32, ProcId, u32)>,
    },
    /// A peer's per-shard answer to [`Msg::ShardRecoverReq`]: watermark
    /// metadata for one shared shard, plus how much of the reborn
    /// process's writes to that shard the responder has seen (the
    /// reborn side pushes back its own suffix past that point). The
    /// responder's missing writes travel separately as individual
    /// [`Msg::ShardUpdate`]s interleaved across shards in global
    /// sequence order — one atomic chain per shard can deadlock when
    /// two chains carry dependency triples into each other's shards.
    ShardRecoverResp {
        /// The responding process.
        proc: ProcId,
        /// The shared shard this answer covers.
        shard: u32,
        /// The responder's own sequence in the shard as known to the
        /// requester (chain start of `entries`).
        prev: u32,
        /// The responder's own sequence in the shard now.
        upto: u32,
        /// One entry per missing own write, in sequence order (always
        /// empty in recovery answers).
        entries: Vec<BatchEntry>,
        /// Sparse per-shard dependency clock of the last member.
        deps: Vec<(u32, ProcId, u32)>,
        /// The responder's applied sequence for the *reborn* process in
        /// this shard.
        seen: u32,
    },
}

impl Msg {
    /// Modeled wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Msg::Update { deps, .. } => 24 + deps.as_ref().map_or(0, |d| 4 * d.len() as u64),
            // Batch header: proc + first_seq + upto + entry count (16),
            // then the entries, 8 per transmitted clock-delta component,
            // and 16 for a piggybacked (upto, epoch) ack when present.
            Msg::UpdateBatch { entries, delta, ack, .. } => {
                16 + entries.iter().map(BatchEntry::wire_bytes).sum::<u64>()
                    + delta.as_ref().map_or(0, |d| 8 * d.len() as u64)
                    + ack.map_or(0, |_| 16)
            }
            Msg::Flush { .. } => 12,
            Msg::FlushAck => 8,
            Msg::LockReq { .. } => 13,
            // Lock-id header (8) on top of the grant payload — the
            // payload alone was counted before, undercounting every
            // grant by its header.
            Msg::LockGrant { grant, .. } => 8 + grant.wire_bytes(),
            Msg::LockRel { knowledge, dirty, .. } => {
                17 + 4 * knowledge.len() as u64 + 12 * dirty.len() as u64
            }
            Msg::BarrierArrive { knowledge, .. } => 16 + 4 * knowledge.len() as u64,
            Msg::BarrierRelease { knowledge, .. } => 12 + 4 * knowledge.len() as u64,
            Msg::ScRead { .. } => 12,
            Msg::ScReadResp { .. } => 24,
            Msg::ScWrite { .. } => 28,
            Msg::ScWriteAck => 8,
            Msg::ScAwait { .. } => 20,
            Msg::ScAwaitResp { writers, .. } => 16 + 8 * writers.len() as u64,
            // Session header: 8-byte sequence number plus 8-byte epoch
            // on top of the payload.
            Msg::SessData { inner, .. } => 16 + inner.wire_bytes(),
            Msg::SessAck { .. } => 20,
            Msg::RecoverReq { applied, .. } => 16 + 4 * applied.len() as u64,
            Msg::RecoverResp { entries, deps, .. } => {
                24 + entries.iter().map(BatchEntry::wire_bytes).sum::<u64>()
                    + deps.as_ref().map_or(0, |d| 4 * d.len() as u64)
            }
            // Sharded update: 28 header (writer + loc + payload + prev)
            // + 12 per sparse dependency triple.
            Msg::ShardUpdate { deps, .. } => 28 + 12 * deps.len() as u64,
            // Sharded batch: 20 header (proc + shard + prev + upto +
            // count) + entries + 12 per dependency triple.
            Msg::ShardUpdateBatch { entries, deps, .. } => {
                20 + entries.iter().map(BatchEntry::wire_bytes).sum::<u64>()
                    + 12 * deps.len() as u64
            }
            Msg::SubReq { .. } | Msg::SubNotify { .. } => 12,
            Msg::SubAck { subs, .. } => 12 + 4 * subs.len() as u64,
            Msg::ShardRecoverReq { applied, .. } => 16 + 12 * applied.len() as u64,
            // Sharded recovery answer: 28 header (proc + shard + prev +
            // upto + seen + count) + entries + 12 per dependency triple.
            Msg::ShardRecoverResp { entries, deps, .. } => {
                28 + entries.iter().map(BatchEntry::wire_bytes).sum::<u64>()
                    + 12 * deps.len() as u64
            }
        }
    }

    /// The metrics label of this message.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Update { .. } => "update",
            Msg::UpdateBatch { .. } => "update_batch",
            Msg::Flush { .. } => "flush",
            Msg::FlushAck => "flush_ack",
            Msg::LockReq { .. } => "lock_req",
            Msg::LockGrant { .. } => "lock_grant",
            Msg::LockRel { .. } => "lock_rel",
            Msg::BarrierArrive { .. } => "barrier_arrive",
            Msg::BarrierRelease { .. } => "barrier_release",
            Msg::ScRead { .. } => "sc_read",
            Msg::ScReadResp { .. } => "sc_read_resp",
            Msg::ScWrite { .. } => "sc_write",
            Msg::ScWriteAck => "sc_write_ack",
            Msg::ScAwait { .. } => "sc_await",
            Msg::ScAwaitResp { .. } => "sc_await_resp",
            Msg::SessData { .. } => "sess_data",
            Msg::SessAck { .. } => "session_ack",
            Msg::RecoverReq { .. } => "recover_req",
            Msg::RecoverResp { .. } => "recover_resp",
            Msg::ShardUpdate { .. } => "shard_update",
            Msg::ShardUpdateBatch { .. } => "shard_update_batch",
            Msg::SubReq { .. } => "sub_req",
            Msg::SubAck { .. } => "sub_ack",
            Msg::SubNotify { .. } => "sub_notify",
            Msg::ShardRecoverReq { .. } => "shard_recover_req",
            Msg::ShardRecoverResp { .. } => "shard_recover_resp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_bytes_depend_on_vectors() {
        let small = Msg::Update {
            writer: WriteId::new(ProcId(0), 1),
            loc: Loc(0),
            payload: UpdatePayload::Set(Value::Int(1)),
            deps: None,
        };
        let big = Msg::Update {
            writer: WriteId::new(ProcId(0), 1),
            loc: Loc(0),
            payload: UpdatePayload::Set(Value::Int(1)),
            deps: Some(VClock::new(8)),
        };
        assert_eq!(small.wire_bytes(), 24);
        assert_eq!(big.wire_bytes(), 24 + 32);
        assert_eq!(small.kind(), "update");
    }

    #[test]
    fn grant_bytes_scale_with_payload() {
        let mut g = GrantInfo::default();
        assert_eq!(g.wire_bytes(), 8);
        g.preds.push((ProcId(0), 3));
        g.demand.push((Loc(1), ProcId(0), 3));
        assert_eq!(g.wire_bytes(), 8 + 8 + 12);
    }

    #[test]
    fn all_kinds_are_labeled() {
        let msgs = [
            Msg::Flush { from_proc: ProcId(0), upto: 1 },
            Msg::FlushAck,
            Msg::LockReq { proc: ProcId(0), lock: LockId(0), mode: LockMode::Read },
            Msg::ScWriteAck,
        ];
        for m in msgs {
            assert!(!m.kind().is_empty());
            assert!(m.wire_bytes() > 0);
        }
    }

    /// Pins the byte formula of *every* message variant: any change to
    /// the wire model must be deliberate (it shifts every bench
    /// baseline). Notably, `LockGrant` counts its 8-byte lock-id header
    /// on top of the grant payload — an earlier version dropped it.
    #[test]
    fn wire_bytes_pinned_for_every_variant() {
        let wid = WriteId::new(ProcId(1), 7);
        let vc = |n: usize| VClock::new(n);
        let set = UpdatePayload::Set(Value::Int(5));

        // Update: 24 header/payload + 4 per clock component.
        let m = Msg::Update { writer: wid, loc: Loc(2), payload: set.clone(), deps: None };
        assert_eq!(m.wire_bytes(), 24);
        let m = Msg::Update { writer: wid, loc: Loc(2), payload: set.clone(), deps: Some(vc(3)) };
        assert_eq!(m.wire_bytes(), 24 + 4 * 3);

        // UpdateBatch: 16 header + Σ entry (20 + 4·adds) + 8 per delta
        // component + 16 if an epoch-tagged ack rides along.
        let entries: Arc<[BatchEntry]> = vec![
            BatchEntry { loc: Loc(0), payload: set.clone(), writer: wid, adds: vec![] },
            BatchEntry {
                loc: Loc(1),
                payload: UpdatePayload::Add(Value::Int(3)),
                writer: wid,
                adds: vec![5, 6, 7],
            },
        ]
        .into();
        let m = Msg::UpdateBatch {
            proc: ProcId(1),
            first_seq: 5,
            upto: 7,
            entries: entries.clone(),
            delta: None,
            ack: None,
        };
        assert_eq!(m.wire_bytes(), 16 + 20 + (20 + 4 * 3));
        let m = Msg::UpdateBatch {
            proc: ProcId(1),
            first_seq: 5,
            upto: 7,
            entries,
            delta: Some(vec![(ProcId(1), 7), (ProcId(2), 4)]),
            ack: Some((9, 1 << 32)),
        };
        assert_eq!(m.wire_bytes(), 16 + 20 + (20 + 4 * 3) + 8 * 2 + 16);
        assert_eq!(m.kind(), "update_batch");

        assert_eq!(Msg::Flush { from_proc: ProcId(0), upto: 1 }.wire_bytes(), 12);
        assert_eq!(Msg::FlushAck.wire_bytes(), 8);
        assert_eq!(
            Msg::LockReq { proc: ProcId(0), lock: LockId(0), mode: LockMode::Write }.wire_bytes(),
            13
        );

        // LockGrant: 8-byte lock id + grant payload
        // (8 + 4·knowledge + 8·preds + 12·demand).
        let grant = GrantInfo {
            knowledge: vc(3),
            preds: vec![(ProcId(0), 2)],
            demand: vec![(Loc(1), ProcId(0), 2), (Loc(2), ProcId(1), 1)],
        };
        let m = Msg::LockGrant { lock: LockId(4), grant };
        assert_eq!(m.wire_bytes(), 8 + (8 + 4 * 3 + 8 + 12 * 2));
        let empty = Msg::LockGrant { lock: LockId(4), grant: GrantInfo::default() };
        assert_eq!(empty.wire_bytes(), 8 + 8, "grant header must include the lock id");

        // LockRel: 17 + 4·knowledge + 12·dirty.
        let m = Msg::LockRel {
            proc: ProcId(0),
            lock: LockId(1),
            mode: LockMode::Write,
            knowledge: vc(2),
            own_count: 4,
            dirty: vec![(Loc(0), 4)],
        };
        assert_eq!(m.wire_bytes(), 17 + 4 * 2 + 12);

        let m = Msg::BarrierArrive {
            proc: ProcId(0),
            barrier: mc_model::BarrierId(0),
            round: 1,
            knowledge: vc(2),
        };
        assert_eq!(m.wire_bytes(), 16 + 4 * 2);
        let m = Msg::BarrierRelease { barrier: mc_model::BarrierId(0), round: 1, knowledge: vc(2) };
        assert_eq!(m.wire_bytes(), 12 + 4 * 2);

        assert_eq!(Msg::ScRead { proc: ProcId(0), loc: Loc(0) }.wire_bytes(), 12);
        assert_eq!(
            Msg::ScReadResp { value: Value::Int(0), writer: None }.wire_bytes(),
            24,
            "responses reserve the writer-id slot whether or not it is filled"
        );
        assert_eq!(Msg::ScWrite { writer: wid, loc: Loc(0), payload: set }.wire_bytes(), 28);
        assert_eq!(Msg::ScWriteAck.wire_bytes(), 8);
        assert_eq!(
            Msg::ScAwait { proc: ProcId(0), loc: Loc(0), value: Value::Int(1) }.wire_bytes(),
            20
        );
        assert_eq!(
            Msg::ScAwaitResp { value: Value::Int(1), writers: vec![wid, wid] }.wire_bytes(),
            16 + 8 * 2
        );

        // Session wrapper: 8-byte sequence + 8-byte epoch header on the
        // inner payload.
        let m = Msg::SessData { seq: 3, epoch: 1 << 32, inner: Box::new(Msg::FlushAck) };
        assert_eq!(m.wire_bytes(), 16 + 8);
        assert_eq!(Msg::SessAck { upto: 3, epoch: 1 << 32 }.wire_bytes(), 20);

        // Recovery: 16-byte request header + 4 per applied component;
        // 24-byte response header + entries (20 + 4·adds each) + 4 per
        // deps component.
        let m = Msg::RecoverReq { proc: ProcId(2), incarnation: 3, applied: vc(3) };
        assert_eq!(m.wire_bytes(), 16 + 4 * 3);
        assert_eq!(m.kind(), "recover_req");
        let entries = vec![
            BatchEntry {
                loc: Loc(0),
                payload: UpdatePayload::Set(Value::Int(1)),
                writer: wid,
                adds: vec![],
            },
            BatchEntry {
                loc: Loc(1),
                payload: UpdatePayload::Add(Value::Int(2)),
                writer: wid,
                adds: vec![6, 7],
            },
        ];
        let m = Msg::RecoverResp {
            proc: ProcId(1),
            first_seq: 6,
            upto: 7,
            entries,
            deps: Some(vc(3)),
            seen: 2,
        };
        assert_eq!(m.wire_bytes(), 24 + 20 + (20 + 4 * 2) + 4 * 3);
        assert_eq!(m.kind(), "recover_resp");
        let m = Msg::RecoverResp {
            proc: ProcId(1),
            first_seq: 1,
            upto: 0,
            entries: vec![],
            deps: None,
            seen: 0,
        };
        assert_eq!(m.wire_bytes(), 24, "an empty delta costs only the header");

        // Sharded update: 28 header + 12 per sparse dependency triple —
        // the wire width tracks the *interest* set, never the cluster.
        let sdeps = vec![(0u32, ProcId(0), 3u32), (1, ProcId(2), 5)];
        let m = Msg::ShardUpdate {
            writer: wid,
            loc: Loc(2),
            payload: UpdatePayload::Set(Value::Int(5)),
            prev: 4,
            deps: sdeps.clone(),
        };
        assert_eq!(m.wire_bytes(), 28 + 12 * 2);
        assert_eq!(m.kind(), "shard_update");

        // Sharded batch: 20 header + entries (20 + 4·adds each) + 12 per
        // dependency triple.
        let entries = vec![BatchEntry {
            loc: Loc(0),
            payload: UpdatePayload::Set(Value::Int(1)),
            writer: wid,
            adds: vec![],
        }];
        let m = Msg::ShardUpdateBatch {
            proc: ProcId(1),
            shard: 0,
            prev: 2,
            upto: 7,
            entries: entries.clone().into(),
            deps: sdeps.clone(),
        };
        assert_eq!(m.wire_bytes(), 20 + 20 + 12 * 2);
        assert_eq!(m.kind(), "shard_update_batch");

        // Subscription traffic: fixed 12-byte requests/notifies, acks
        // carry 4 bytes per subscriber.
        assert_eq!(Msg::SubReq { proc: ProcId(0), shard: 1 }.wire_bytes(), 12);
        assert_eq!(Msg::SubNotify { shard: 1, proc: ProcId(0) }.wire_bytes(), 12);
        let m = Msg::SubAck { shard: 1, subs: vec![ProcId(0), ProcId(2), ProcId(3)] };
        assert_eq!(m.wire_bytes(), 12 + 4 * 3);
        assert_eq!(m.kind(), "sub_ack");

        // Sharded recovery: 16 + 12 per applied triple on the request;
        // 28 + entries + 12 per dependency triple on the answer.
        let m = Msg::ShardRecoverReq { proc: ProcId(2), incarnation: 3, applied: sdeps.clone() };
        assert_eq!(m.wire_bytes(), 16 + 12 * 2);
        assert_eq!(m.kind(), "shard_recover_req");
        let m = Msg::ShardRecoverResp {
            proc: ProcId(1),
            shard: 0,
            prev: 2,
            upto: 3,
            entries,
            deps: sdeps,
            seen: 1,
        };
        assert_eq!(m.wire_bytes(), 28 + 20 + 12 * 2);
        assert_eq!(m.kind(), "shard_recover_resp");
    }
}
