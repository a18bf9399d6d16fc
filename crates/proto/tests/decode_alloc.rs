//! What decoding and logging cost the heap, measured.
//!
//! 1. No decoder allocates for what a count merely claims. Every count
//!    field of every wire frame, log record, snapshot and history frame
//!    is set to its largest value in turn (a log record's, snapshot's or
//!    history frame's CRC refreshed, so the parser and not the checksum
//!    confronts it) and the bytes are decoded: the peak heap while
//!    decoding stays under 64 KiB. A decoder that reserves before
//!    clamping the count to the bytes left — 65 535 batch entries for a
//!    16-byte body, or `u32::MAX` own writes for a torn history — fails
//!    here.
//! 2. Logging an arriving update allocates nothing. A durable node
//!    ingests 10 000 `Update`s, `RecoverResp`s and `ShardUpdate`s; from
//!    a message's arrival to its log record reaching the disk, nothing is
//!    allocated once the node's record buffer has grown.
//! 3. A volatile replica's heap does not grow with its writes: a million
//!    local writes to 64 locations peak under 64 KiB. A replica that keeps
//!    a word per own write (8 MiB here) fails.
//! 4. A batched write allocates only when it flushes. A causal node
//!    makes 10 000 batched writes over 32 locations, its link idle at
//!    every 16th operation's entry: a write that only buffers allocates
//!    nothing (its dependency vector is
//!    minted into the batch's clock, and the entry buffer keeps its
//!    capacity across flushes), and a flush allocates [`ALLOCS_PER_FLUSH`]
//!    times. A node that builds a fresh clock per write, or regrows its
//!    entry buffer per batch, fails.
//!
//! The allocator is process-global, so it counts only the thread that
//! asked to be measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::BytesMut;
use mc_model::{BarrierId, Loc, LockId, LockMode, ModelSpec, ProcId, VClock, Value, WriteId};
use mc_proto::durability::{decode_history, put_history, OwnUpdate, SnapBatch};
use mc_proto::wire::{decode_frame, encode_frame, FRAME_HEADER};
use mc_proto::{
    crc32, decode_wal, BatchEntry, BatchPolicy, DsmConfig, DurabilityPolicy, GrantInfo, Msg,
    NodeIo, ProcNode, Replica, Req, Resp, ShardConfig, Snapshot, UpdatePayload, WalRecord,
};
use mc_sim::{NodeId, Poll, SimTime};

struct Counting;

thread_local! {
    // Const-initialised and without destructors: reading them inside
    // the allocator neither allocates nor touches a torn-down slot.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn grew(by: isize) {
    if MEASURED.with(Cell::get) {
        let live = LIVE.with(|l| {
            l.set(l.get() + by);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        if by > 0 {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        grew(-(layout.size() as isize));
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn start_measuring() {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ALLOCS.with(|a| a.set(0));
    MEASURED.with(|m| m.set(true));
}

/// Stops measuring: `(peak live bytes, allocations)` since the start.
fn stop_measuring() -> (usize, u64) {
    MEASURED.with(|m| m.set(false));
    (PEAK.with(Cell::get) as usize, ALLOCS.with(Cell::get))
}

const PEAK_LIMIT: usize = 64 << 10;

/// The largest value a count field of each width can hold, little-endian
/// (a clock's `u16` count tops out one below the `0xFFFF` absent-clock
/// sentinel).
const MAX_COUNTS: [&[u8]; 4] = [&[0xFF], &[0xFF, 0xFF], &[0xFE, 0xFF], &[0xFF; 4]];

/// Every variant of `bytes[from..]` with one count-sized window set to a
/// maximal count; `refresh` re-seals each variant (its CRC).
fn max_count_variants(bytes: &[u8], from: usize, refresh: impl Fn(&mut Vec<u8>)) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for count in MAX_COUNTS {
        for at in from..=bytes.len() - count.len() {
            let mut v = bytes.to_vec();
            v[at..at + count.len()].copy_from_slice(count);
            refresh(&mut v);
            out.push(v);
        }
    }
    out
}

/// Decodes every variant under measurement; returns the worst peak.
fn worst_peak(variants: &[Vec<u8>], decode: impl Fn(&[u8])) -> usize {
    variants
        .iter()
        .map(|v| {
            start_measuring();
            decode(v);
            stop_measuring().0
        })
        .max()
        .unwrap_or(0)
}

fn clock(n: u32) -> VClock {
    (1..=n).collect()
}

fn entries(proc: u32) -> Vec<BatchEntry> {
    (1..=2)
        .map(|seq| BatchEntry {
            loc: Loc(seq),
            payload: UpdatePayload::Add(Value::Int(5)),
            writer: WriteId::new(ProcId(proc), seq),
            adds: vec![seq],
        })
        .collect()
}

fn triples() -> Vec<(u32, ProcId, u32)> {
    vec![(0, ProcId(1), 3), (1, ProcId(2), 4)]
}

/// One message of every variant, every list non-empty.
fn every_msg() -> Vec<Msg> {
    let (p, w, loc) = (ProcId(1), WriteId::new(ProcId(1), 7), Loc(3));
    let payload = UpdatePayload::Set(Value::Int(9));
    let grant = GrantInfo { knowledge: clock(3), preds: vec![(p, 2)], demand: vec![(loc, p, 2)] };
    let flush = Msg::Flush { from_proc: p, upto: 4 };
    vec![
        Msg::Update { writer: w, loc, payload: payload.clone(), deps: Some(clock(3)) },
        Msg::UpdateBatch {
            proc: p,
            first_seq: 1,
            upto: 2,
            entries: entries(1).into(),
            delta: Some(vec![(p, 2)]),
            ack: Some((3, 1)),
        },
        flush.clone(),
        Msg::FlushAck,
        Msg::LockReq { proc: p, lock: LockId(1), mode: LockMode::Write },
        Msg::LockGrant { lock: LockId(1), grant },
        Msg::LockRel {
            proc: p,
            lock: LockId(1),
            mode: LockMode::Read,
            knowledge: clock(3),
            own_count: 2,
            dirty: vec![(loc, 2)],
        },
        Msg::BarrierArrive { proc: p, barrier: BarrierId(0), round: 1, knowledge: clock(3) },
        Msg::BarrierRelease { barrier: BarrierId(0), round: 1, knowledge: clock(3) },
        Msg::ScRead { proc: p, loc },
        Msg::ScReadResp { value: Value::Int(1), writer: Some(w) },
        Msg::ScWrite { writer: w, loc, payload: payload.clone() },
        Msg::ScWriteAck,
        Msg::ScAwait { proc: p, loc, value: Value::Int(1) },
        Msg::ScAwaitResp { value: Value::Int(1), writers: vec![w, w] },
        Msg::SessData { seq: 5, epoch: 1 << 32, inner: Box::new(flush) },
        Msg::SessAck { upto: 5, epoch: 1 << 32 },
        Msg::RecoverReq { proc: p, incarnation: 2, applied: clock(3) },
        Msg::RecoverResp {
            proc: p,
            first_seq: 1,
            upto: 2,
            entries: entries(1),
            deps: Some(clock(3)),
            seen: 1,
        },
        Msg::ShardUpdate { writer: w, loc, payload, prev: 6, deps: triples() },
        Msg::ShardUpdateBatch {
            proc: p,
            shard: 1,
            prev: 0,
            upto: 2,
            entries: entries(1).into(),
            deps: triples(),
        },
        Msg::SubReq { proc: p, shard: 1 },
        Msg::SubAck { shard: 1, subs: vec![p, ProcId(2)] },
        Msg::SubNotify { shard: 1, proc: p },
        Msg::ShardRecoverReq { proc: p, incarnation: 2, applied: triples() },
        Msg::ShardRecoverResp {
            proc: p,
            shard: 1,
            prev: 0,
            upto: 2,
            entries: entries(1),
            deps: triples(),
            seen: 1,
        },
    ]
}

#[test]
fn max_count_wire_frames_decode_in_bounded_memory() {
    let msgs = every_msg();
    assert_eq!(msgs.len(), 26, "one message per variant");
    for msg in msgs {
        let mut buf = BytesMut::with_capacity(512);
        encode_frame(&mut buf, &msg);
        let body = &buf[FRAME_HEADER..];
        let peak = worst_peak(&max_count_variants(body, 1, |_| {}), |b| drop(decode_frame(b)));
        assert!(peak < PEAK_LIMIT, "{}: decoding peaked at {peak} bytes", msg.kind());
    }
}

/// Every record kind, ingest records of every kind they accept.
fn every_record() -> Vec<WalRecord> {
    let payload = UpdatePayload::Set(Value::Int(9));
    let ingests = every_msg().into_iter().filter(|m| {
        matches!(
            m,
            Msg::Update { .. }
                | Msg::RecoverResp { .. }
                | Msg::ShardUpdate { .. }
                | Msg::ShardUpdateBatch { .. }
                | Msg::ShardRecoverResp { .. }
        )
    });
    [
        WalRecord::OwnWrite { loc: Loc(1), payload: payload.clone(), deps: Some(clock(3)) },
        WalRecord::OwnWriteSharded { loc: Loc(1), payload, deps: triples() },
        WalRecord::Incarnation { incarnation: 3 },
        WalRecord::Subscribe { shard: 2 },
    ]
    .into_iter()
    .chain(ingests.map(WalRecord::Ingest))
    .collect()
}

#[test]
fn max_count_wal_records_decode_in_bounded_memory() {
    let records = every_record();
    assert_eq!(records.len(), 9);
    for rec in records {
        let frame = rec.encode();
        let reseal = |f: &mut Vec<u8>| {
            let crc = crc32(&f[8..]);
            f[4..8].copy_from_slice(&crc.to_le_bytes());
        };
        let peak = worst_peak(&max_count_variants(&frame, 8, reseal), |b| drop(decode_wal(b)));
        assert!(peak < PEAK_LIMIT, "{rec:?}: decoding peaked at {peak} bytes");
    }
}

#[test]
fn max_count_snapshots_decode_in_bounded_memory() {
    let snap = Snapshot {
        incarnation: 2,
        applied: clock(3),
        store: vec![(Loc(1), Value::Int(4), Some(WriteId::new(ProcId(1), 2)))],
        counter_updates: vec![(Loc(2), vec![WriteId::new(ProcId(0), 1)])],
        pending_batches: vec![SnapBatch {
            proc: ProcId(1),
            first_seq: 1,
            upto: 2,
            entries: entries(1),
            deps: clock(3),
        }],
        watermarks: vec![(ProcId(1), 9)],
    };
    let bytes = snap.encode();
    assert_eq!(Snapshot::decode(&bytes), Ok(snap));
    // magic(8) | len(4) | crc(4) | body
    let reseal = |s: &mut Vec<u8>| {
        let crc = crc32(&s[16..]);
        s[12..16].copy_from_slice(&crc.to_le_bytes());
    };
    let peak = worst_peak(&max_count_variants(&bytes, 16, reseal), |b| drop(Snapshot::decode(b)));
    assert!(peak < PEAK_LIMIT, "snapshot decoding peaked at {peak} bytes");
}

/// The history decoder under the same poisoning, and cut at every byte:
/// it stops at the torn frame, the failed CRC or the sequence number out
/// of turn without reserving for writes the bytes do not hold, however
/// many it is asked for.
#[test]
fn max_count_history_frames_decode_in_bounded_memory() {
    let own = |seq| OwnUpdate {
        seq,
        loc: Loc(1),
        payload: UpdatePayload::Add(Value::Int(1)),
        deps: Some(clock(3)),
    };
    let mut frame = Vec::new();
    put_history(&mut frame, &[own(1)]);
    let reseal = |f: &mut Vec<u8>| {
        let crc = crc32(&f[8..]);
        f[4..8].copy_from_slice(&crc.to_le_bytes());
    };
    let mut variants = max_count_variants(&frame, 0, reseal);
    let mut two = Vec::new();
    put_history(&mut two, &[own(1), own(3)]);
    variants.extend((0..=two.len()).map(|cut| two[..cut].to_vec()));
    let peak = worst_peak(&variants, |b| drop(decode_history(b, u32::MAX)));
    assert!(peak < PEAK_LIMIT, "history decoding peaked at {peak} bytes");
    assert_eq!(decode_history(&two, u32::MAX).0, vec![own(1)], "the gap ends the history");
}

/// A disk that records how many allocations happened between a
/// message's arrival and its log record's append.
#[derive(Default)]
struct AppendAllocs(Vec<u64>);

impl NodeIo for AppendAllocs {
    fn send(&mut self, _to: NodeId, _kind: &'static str, _msg: Msg) {}

    fn arm_timer(&mut self, _delay: SimTime, _token: u64) {}

    fn link_idle(&mut self, _to: NodeId) -> bool {
        true
    }

    fn wal_append(&mut self, _frame: &[u8]) {
        let (_, allocs) = stop_measuring();
        self.0.push(allocs);
    }

    fn wal_sync(&mut self) {}

    fn install_snapshot(&mut self, _snapshot: Vec<u8>, _history: &[u8]) {}

    fn truncate_history(&mut self, _len: usize) {}
}

/// Delivers each message to `node` and returns the allocations before
/// each one's log record reached the disk.
fn allocs_before_append(node: &mut ProcNode, msgs: Vec<(NodeId, Msg)>) -> Vec<u64> {
    let mut io = AppendAllocs::default();
    for (from, msg) in msgs {
        start_measuring();
        node.on_message(from, msg, &mut io);
        stop_measuring();
    }
    io.0
}

const RECORDS: u32 = 10_000;
const WARM_UP: usize = 16;

fn assert_no_allocs(kind: &str, allocs: &[u64]) {
    assert_eq!(allocs.len(), RECORDS as usize, "{kind}: one record per message");
    let steady = &allocs[WARM_UP..];
    let total: u64 = steady.iter().sum();
    assert_eq!(total, 0, "{kind}: {total} allocations logging {} records", steady.len());
}

#[test]
fn logging_an_arriving_update_allocates_nothing() {
    let durable = Some(DurabilityPolicy::new(u32::MAX));
    let cfg = DsmConfig::new(3, ModelSpec::CAUSAL).with_durability(durable);
    let mut node = ProcNode::new(ProcId(0), Arc::new(cfg));

    let updates = (1..=RECORDS).map(|seq| {
        let deps = [0, seq, 0].into_iter().collect();
        let payload = UpdatePayload::Set(Value::Int(seq.into()));
        let writer = WriteId::new(ProcId(1), seq);
        (NodeId(1), Msg::Update { writer, loc: Loc(seq % 8), payload, deps: Some(deps) })
    });
    assert_no_allocs("update", &allocs_before_append(&mut node, updates.collect()));

    let batches = (1..=RECORDS).map(|seq| {
        let mut entries = entries(2);
        entries.truncate(1);
        entries[0].writer.seq = seq;
        entries[0].adds = vec![seq];
        let deps = Some([0, 0, seq].into_iter().collect());
        let resp =
            Msg::RecoverResp { proc: ProcId(2), first_seq: seq, upto: seq, entries, deps, seen: 0 };
        (NodeId(2), resp)
    });
    assert_no_allocs("recover_resp", &allocs_before_append(&mut node, batches.collect()));

    let sharding = Some(ShardConfig::full(1, 3));
    let cfg = DsmConfig::new(3, ModelSpec::CAUSAL).with_durability(durable).with_sharding(sharding);
    let mut node = ProcNode::new(ProcId(0), Arc::new(cfg));
    let shard_updates = (1..=RECORDS).map(|seq| {
        let payload = UpdatePayload::Add(Value::Int(1));
        let writer = WriteId::new(ProcId(1), seq);
        let deps = vec![(0, ProcId(2), 0)];
        let update = Msg::ShardUpdate { writer, loc: Loc(0), payload, prev: seq - 1, deps };
        (NodeId(1), update)
    });
    assert_no_allocs("shard_update", &allocs_before_append(&mut node, shard_updates.collect()));
}

#[test]
fn a_volatile_replicas_heap_does_not_grow_with_its_writes() {
    const WRITES: u32 = 1_000_000;
    let cfg = DsmConfig::new(2, ModelSpec::CAUSAL);
    let mut replica = Replica::new(ProcId(0), 2);
    start_measuring();
    for i in 0..WRITES {
        replica.local_write(Loc(i % 64), UpdatePayload::Set(Value::Int(i.into())), &cfg);
    }
    let (peak, _) = stop_measuring();
    let grown = LIVE.with(Cell::get);
    println!("{WRITES} local writes to 64 locations: heap grew {grown} B, peaked at {peak} B");
    assert!(peak < PEAK_LIMIT, "{WRITES} writes grew the replica's heap to {peak} bytes");
    assert_eq!(replica.own_count(), WRITES);
}

/// A null executor that counts the messages a node sends, and whose
/// link is idle at every 16th question.
#[derive(Default)]
struct CountSends(usize, u32);

impl NodeIo for CountSends {
    fn send(&mut self, _to: NodeId, _kind: &'static str, _msg: Msg) {
        self.0 += 1;
    }

    fn arm_timer(&mut self, _delay: SimTime, _token: u64) {}

    fn link_idle(&mut self, _to: NodeId) -> bool {
        self.1 += 1;
        self.1.is_multiple_of(16)
    }

    fn wal_append(&mut self, _frame: &[u8]) {}

    fn wal_sync(&mut self) {}

    fn install_snapshot(&mut self, _snapshot: Vec<u8>, _history: &[u8]) {}

    fn truncate_history(&mut self, _len: usize) {}
}

/// Allocations of a batch flush with one peer: the entries' shared slice
/// and the link's clock delta.
const ALLOCS_PER_FLUSH: u64 = 2;

#[test]
fn a_batched_write_allocates_only_when_it_flushes() {
    const WRITES: u32 = 10_000;
    let cfg = DsmConfig::new(2, ModelSpec::CAUSAL).with_batching(Some(BatchPolicy::default()));
    let mut node = ProcNode::new(ProcId(0), Arc::new(cfg));
    let mut io = CountSends::default();
    let write = |node: &mut ProcNode, io: &mut CountSends, i: u32| {
        let req = Req::Write { loc: Loc(i % 32), value: Value::Int(i.into()) };
        node.enter(io);
        assert!(matches!(node.start(req, io), Poll::Ready(Resp::Wrote { .. })));
    };
    // Warm-up: every location written, the batch and link clocks grown.
    for i in 0..64 {
        write(&mut node, &mut io, i);
    }
    let (mut flushes, mut flush_allocs, mut write_allocs) = (0, 0, 0);
    for i in 0..WRITES {
        let sent = io.0;
        start_measuring();
        write(&mut node, &mut io, i);
        let (_, allocs) = stop_measuring();
        if io.0 > sent {
            flushes += 1;
            assert!(allocs <= ALLOCS_PER_FLUSH, "write {i} flushed with {allocs} allocations");
            flush_allocs += allocs;
        } else {
            write_allocs += allocs;
        }
    }
    println!("{WRITES} batched writes: {flushes} flushes, {flush_allocs} allocations");
    assert_eq!(flushes, WRITES / 16, "each idle link flushes the batch once");
    assert_eq!(write_allocs, 0, "{write_allocs} allocations in writes that did not flush");
}
