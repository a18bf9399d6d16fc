//! Binary codec for [`Msg`] — the format real TCP links carry, and the
//! workspace's only byte codec: the write-ahead log and snapshots
//! ([`crate::durability`]) are written with the primitives below and
//! read with the same bounds-checked `Cursor`.
//!
//! A frame is a 4-byte little-endian length prefix followed by the body.
//! **The body length of every message equals [`Msg::wire_bytes`]
//! exactly**: the modeled byte accounting that drives the simulator's
//! latency and bandwidth counters is the physical truth on the wire, not
//! an estimate. Fields are packed little-endian; where a variant's
//! modeled size exceeds its natural packing the body is zero-padded (the
//! model rounds small headers up to plausible aligned sizes), and the
//! decoder consumes the padding.
//!
//! Layout conventions:
//!
//! - The first body byte is a tag: variant id in the low 5 bits, up to
//!   three presence flags in the high 3 bits.
//! - A [`Value`] travels as a kind byte plus an 8-byte operand; an
//!   [`UpdatePayload`] packs its own kind into the same byte (payload
//!   kind in the high nibble, value kind in the low nibble) — 9 bytes.
//! - A dense [`VClock`] travels as a `u16` component count plus 4 bytes
//!   per component; an optional clock uses `0xFFFF` as the `None`
//!   sentinel (real clocks cover fewer than 65535 processes).
//! - Batch headers carry the writing process as a `u16` and omit the
//!   per-entry writer process: every entry of a batch is an own write of
//!   the batch's sender, so the codec reconstructs
//!   `WriteId { proc: header, seq: entry }` on decode.
//! - [`Msg::SessData`] packs its sequence number into 7 bytes (56 bits —
//!   asserted; at the simulator's message rates that is thousands of
//!   years of traffic) so header plus epoch fit the modeled 16, and the
//!   wrapped message follows as its own unprefixed body (every body is
//!   self-delimiting because its length is computable while decoding).
//!
//! Tags ≥ [`CONTROL_TAG_BASE`] never appear inside `Msg` traffic. Tags
//! 200–202 are [`Control`] frames, the TCP runtime's link-management
//! vocabulary, kept in the same framing so one reader loop handles both.
//! Tags 210–213 are the write-ahead log's own records; a logged remote
//! update is its `Msg` body unchanged.
//!
//! The decoder never trusts a count: `Cursor::count` clamps every
//! element count against the bytes left before anything is reserved, so
//! a short frame that claims 65 535 entries fails as
//! [`WireError::Truncated`] without allocating for them.

use bytes::{Bytes, BytesMut};
use mc_model::{BarrierId, Loc, LockId, LockMode, ProcId, VClock, Value, WriteId};

use crate::msg::{BatchEntry, GrantInfo, Msg, UpdatePayload};

/// Bytes of the frame length prefix.
pub const FRAME_HEADER: usize = 4;

/// Largest frame body any encoder writes ([`encode_frame`] asserts it).
/// A length prefix above it is hostile or corrupt, and a reader drops
/// the connection instead of buffering toward it ([`oversized_prefix`]).
pub const MAX_FRAME: usize = 16 << 20;

/// First tag value reserved for bodies that are not [`Msg`]s.
pub const CONTROL_TAG_BASE: u8 = 200;

const TAG_UPDATE: u8 = 0;
const TAG_UPDATE_BATCH: u8 = 1;
const TAG_FLUSH: u8 = 2;
const TAG_FLUSH_ACK: u8 = 3;
const TAG_LOCK_REQ: u8 = 4;
const TAG_LOCK_GRANT: u8 = 5;
const TAG_LOCK_REL: u8 = 6;
const TAG_BARRIER_ARRIVE: u8 = 7;
const TAG_BARRIER_RELEASE: u8 = 8;
const TAG_SC_READ: u8 = 9;
const TAG_SC_READ_RESP: u8 = 10;
const TAG_SC_WRITE: u8 = 11;
const TAG_SC_WRITE_ACK: u8 = 12;
const TAG_SC_AWAIT: u8 = 13;
const TAG_SC_AWAIT_RESP: u8 = 14;
const TAG_SESS_DATA: u8 = 15;
const TAG_SESS_ACK: u8 = 16;
const TAG_RECOVER_REQ: u8 = 17;
const TAG_RECOVER_RESP: u8 = 18;
const TAG_SHARD_UPDATE: u8 = 19;
const TAG_SHARD_UPDATE_BATCH: u8 = 20;
const TAG_SUB_REQ: u8 = 21;
const TAG_SUB_ACK: u8 = 22;
const TAG_SUB_NOTIFY: u8 = 23;
const TAG_SHARD_RECOVER_REQ: u8 = 24;
const TAG_SHARD_RECOVER_RESP: u8 = 25;

const TAG_CTRL_HELLO: u8 = 200;
const TAG_CTRL_SHUTDOWN: u8 = 201;
const TAG_CTRL_DONE: u8 = 202;

/// Write-ahead-log records that are not protocol messages.
pub(crate) const TAG_WAL_OWN_WRITE: u8 = 210;
pub(crate) const TAG_WAL_OWN_WRITE_SHARDED: u8 = 211;
pub(crate) const TAG_WAL_INCARNATION: u8 = 212;
pub(crate) const TAG_WAL_SUBSCRIBE: u8 = 213;

/// Presence flags in the tag's high bits.
const FLAG_A: u8 = 0x20;
const FLAG_B: u8 = 0x40;

const VCLOCK_NONE: u16 = u16::MAX;

/// Link-management frames of the TCP runtime, sharing `Msg` framing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// First frame on every connection: which node is dialing.
    Hello {
        /// The dialing node's id in the live topology.
        node: u32,
    },
    /// Coordinator broadcast: drain and exit.
    Shutdown,
    /// A process finished its program (sent to the coordinator).
    Done {
        /// The finished process.
        proc: u32,
    },
}

/// One decoded frame: protocol traffic or link management.
#[derive(Debug)]
pub enum Frame {
    /// A protocol message.
    Msg(Msg),
    /// A control frame.
    Control(Control),
}

/// Decode failure: the frame is not a valid encoding.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the fields it promised.
    Truncated,
    /// Unknown variant tag.
    BadTag(u8),
    /// Unknown value/payload kind byte.
    BadKind(u8),
    /// The body had bytes left over after the message (framing bug).
    TrailingBytes,
    /// A `SessData` wrapped inside a `SessData`: the session layer never
    /// nests, and unbounded nesting would be unbounded decoder recursion.
    NestedSession,
    /// Bytes that decode but that no encoder writes (non-zero padding, a
    /// stray flag bit, a boolean other than 0 or 1): a corrupted frame.
    NonCanonical,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadKind(k) => write!(f, "unknown value kind {k}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::NestedSession => write!(f, "session frame nested in a session frame"),
            WireError::NonCanonical => write!(f, "non-canonical encoding"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Where the encoders write: a connection's [`BytesMut`] arena, or the
/// `Vec<u8>` a log record or snapshot is built in.
pub(crate) trait Sink {
    fn put_slice(&mut self, s: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl Sink for BytesMut {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        BytesMut::put_slice(self, s);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

fn value_kind(v: &Value) -> u8 {
    match v {
        Value::Int(_) => 0,
        Value::F64(_) => 1,
        Value::Bool(_) => 2,
    }
}

fn value_operand(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        Value::F64(x) => x.to_bits(),
        Value::Bool(b) => *b as u64,
    }
}

pub(crate) fn put_value(buf: &mut impl Sink, v: &Value) {
    buf.put_u8(value_kind(v));
    buf.put_u64_le(value_operand(v));
}

pub(crate) fn put_payload(buf: &mut impl Sink, p: &UpdatePayload) {
    let (pk, v) = match p {
        UpdatePayload::Set(v) => (0u8, v),
        UpdatePayload::Add(v) => (1u8, v),
    };
    buf.put_u8((pk << 4) | value_kind(v));
    buf.put_u64_le(value_operand(v));
}

pub(crate) fn put_writer(buf: &mut impl Sink, w: WriteId) {
    buf.put_u32_le(w.proc.0);
    buf.put_u32_le(w.seq);
}

/// The components alone; the count travels wherever the layout puts it.
fn put_components(buf: &mut impl Sink, c: &VClock) {
    for (_, n) in c.iter() {
        buf.put_u32_le(n);
    }
}

pub(crate) fn put_vclock(buf: &mut impl Sink, c: &VClock) {
    assert!(c.len() < VCLOCK_NONE as usize, "clock too wide for the wire");
    buf.put_u16_le(c.len() as u16);
    put_components(buf, c);
}

pub(crate) fn put_vclock_opt(buf: &mut impl Sink, c: Option<&VClock>) {
    match c {
        None => buf.put_u16_le(VCLOCK_NONE),
        Some(c) => put_vclock(buf, c),
    }
}

pub(crate) fn put_triples(buf: &mut impl Sink, ts: &[(u32, ProcId, u32)]) {
    buf.put_u16_le(u16::try_from(ts.len()).expect("triple count fits u16"));
    for &(shard, p, seq) in ts {
        buf.put_u32_le(shard);
        buf.put_u32_le(p.0);
        buf.put_u32_le(seq);
    }
}

fn put_pad(buf: &mut impl Sink, n: usize) {
    for _ in 0..n {
        buf.put_u8(0);
    }
}

fn proc_u16(p: ProcId) -> u16 {
    u16::try_from(p.0).expect("process id fits u16 on the wire")
}

/// Batch entries, 20 bytes each plus 4 per extra `Add` member. The
/// writer's process id is implied by the enclosing header (`proc`); the
/// entry count travels in that header.
pub(crate) fn put_entries(buf: &mut impl Sink, proc: ProcId, entries: &[BatchEntry]) {
    for e in entries {
        debug_assert_eq!(e.writer.proc, proc, "batch entries are own writes of the sender");
        buf.put_u32_le(e.loc.0);
        put_payload(buf, &e.payload);
        buf.put_u32_le(e.writer.seq);
        buf.put_u16_le(u16::try_from(e.adds.len()).expect("adds count fits u16"));
        put_pad(buf, 1);
        for &a in &e.adds {
            buf.put_u32_le(a);
        }
    }
}

/// The body of a [`Msg::RecoverResp`] from borrowed parts: the node logs
/// a received batch as one without first building the message.
pub(crate) fn put_recover_resp(
    buf: &mut impl Sink,
    proc: ProcId,
    first_seq: u32,
    upto: u32,
    seen: u32,
    entries: &[BatchEntry],
    deps: Option<&VClock>,
) {
    buf.put_u8(TAG_RECOVER_RESP);
    buf.put_u32_le(proc.0);
    buf.put_u32_le(first_seq);
    buf.put_u32_le(upto);
    buf.put_u32_le(seen);
    buf.put_u16_le(u16::try_from(entries.len()).expect("entry count fits u16"));
    put_vclock_opt(buf, deps);
    put_pad(buf, 3);
    put_entries(buf, proc, entries);
}

/// Appends the body of `msg` (no length prefix) to `buf`. The number of
/// bytes appended is exactly `msg.wire_bytes()`.
pub(crate) fn encode_body(buf: &mut impl Sink, msg: &Msg) {
    match msg {
        Msg::Update { writer, loc, payload, deps } => {
            buf.put_u8(TAG_UPDATE);
            put_writer(buf, *writer);
            buf.put_u32_le(loc.0);
            put_payload(buf, payload);
            put_vclock_opt(buf, deps.as_ref());
        }
        Msg::UpdateBatch { proc, first_seq, upto, entries, delta, ack } => {
            let mut tag = TAG_UPDATE_BATCH;
            if delta.is_some() {
                tag |= FLAG_A;
            }
            if ack.is_some() {
                tag |= FLAG_B;
            }
            buf.put_u8(tag);
            buf.put_u16_le(proc_u16(*proc));
            buf.put_u32_le(*first_seq);
            buf.put_u32_le(*upto);
            buf.put_u16_le(u16::try_from(entries.len()).expect("entry count fits u16"));
            let dlen = delta.as_ref().map_or(0, Vec::len);
            buf.put_u16_le(u16::try_from(dlen).expect("delta count fits u16"));
            put_pad(buf, 1);
            if let Some((upto, epoch)) = ack {
                buf.put_u64_le(*upto);
                buf.put_u64_le(*epoch);
            }
            for &(p, c) in delta.iter().flatten() {
                buf.put_u32_le(p.0);
                buf.put_u32_le(c);
            }
            put_entries(buf, *proc, entries);
        }
        Msg::Flush { from_proc, upto } => {
            buf.put_u8(TAG_FLUSH);
            buf.put_u32_le(from_proc.0);
            buf.put_u32_le(*upto);
            put_pad(buf, 3);
        }
        Msg::FlushAck => {
            buf.put_u8(TAG_FLUSH_ACK);
            put_pad(buf, 7);
        }
        Msg::LockReq { proc, lock, mode } => {
            buf.put_u8(TAG_LOCK_REQ);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(lock.0);
            buf.put_u8(matches!(mode, LockMode::Write) as u8);
            put_pad(buf, 3);
        }
        Msg::LockGrant { lock, grant } => {
            buf.put_u8(TAG_LOCK_GRANT);
            buf.put_u32_le(lock.0);
            let GrantInfo { knowledge, preds, demand } = grant;
            assert!(knowledge.len() < VCLOCK_NONE as usize, "clock too wide for the wire");
            buf.put_u16_le(knowledge.len() as u16);
            buf.put_u16_le(u16::try_from(preds.len()).expect("pred count fits u16"));
            buf.put_u16_le(u16::try_from(demand.len()).expect("demand count fits u16"));
            put_pad(buf, 5);
            put_components(buf, knowledge);
            for &(p, c) in preds {
                buf.put_u32_le(p.0);
                buf.put_u32_le(c);
            }
            for &(loc, p, seq) in demand {
                buf.put_u32_le(loc.0);
                buf.put_u32_le(p.0);
                buf.put_u32_le(seq);
            }
        }
        Msg::LockRel { proc, lock, mode, knowledge, own_count, dirty } => {
            buf.put_u8(TAG_LOCK_REL);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(lock.0);
            buf.put_u8(matches!(mode, LockMode::Write) as u8);
            buf.put_u32_le(*own_count);
            // The modeled 17-byte header leaves exactly three count
            // bytes; a knowledge clock is one component per process, so
            // a u8 holds it for any cluster this workspace runs.
            buf.put_u8(u8::try_from(knowledge.len()).expect("release clock fits u8"));
            buf.put_u16_le(u16::try_from(dirty.len()).expect("dirty count fits u16"));
            put_components(buf, knowledge);
            // Dirty entries are modeled at 12 bytes (loc + seq + pad).
            for &(loc, seq) in dirty {
                buf.put_u32_le(loc.0);
                buf.put_u32_le(seq);
                put_pad(buf, 4);
            }
        }
        Msg::BarrierArrive { proc, barrier, round, knowledge } => {
            buf.put_u8(TAG_BARRIER_ARRIVE);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(barrier.0);
            buf.put_u32_le(*round);
            put_vclock(buf, knowledge);
            put_pad(buf, 1);
        }
        Msg::BarrierRelease { barrier, round, knowledge } => {
            buf.put_u8(TAG_BARRIER_RELEASE);
            buf.put_u32_le(barrier.0);
            buf.put_u32_le(*round);
            put_vclock(buf, knowledge);
            put_pad(buf, 1);
        }
        Msg::ScRead { proc, loc } => {
            buf.put_u8(TAG_SC_READ);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(loc.0);
            put_pad(buf, 3);
        }
        Msg::ScReadResp { value, writer } => {
            let mut tag = TAG_SC_READ_RESP;
            if writer.is_some() {
                tag |= FLAG_A;
            }
            buf.put_u8(tag);
            put_value(buf, value);
            match writer {
                Some(w) => {
                    put_writer(buf, *w);
                    put_pad(buf, 6);
                }
                None => put_pad(buf, 14),
            }
        }
        Msg::ScWrite { writer, loc, payload } => {
            buf.put_u8(TAG_SC_WRITE);
            put_writer(buf, *writer);
            buf.put_u32_le(loc.0);
            put_payload(buf, payload);
            put_pad(buf, 6);
        }
        Msg::ScWriteAck => {
            buf.put_u8(TAG_SC_WRITE_ACK);
            put_pad(buf, 7);
        }
        Msg::ScAwait { proc, loc, value } => {
            buf.put_u8(TAG_SC_AWAIT);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(loc.0);
            put_value(buf, value);
            put_pad(buf, 2);
        }
        Msg::ScAwaitResp { value, writers } => {
            buf.put_u8(TAG_SC_AWAIT_RESP);
            put_value(buf, value);
            buf.put_u16_le(u16::try_from(writers.len()).expect("writer count fits u16"));
            put_pad(buf, 4);
            for &w in writers {
                put_writer(buf, w);
            }
        }
        Msg::SessData { seq, epoch, inner } => {
            buf.put_u8(TAG_SESS_DATA);
            assert!(*seq < (1 << 56), "session sequence fits 56 bits");
            buf.put_slice(&seq.to_le_bytes()[..7]);
            buf.put_u64_le(*epoch);
            encode_body(buf, inner);
        }
        Msg::SessAck { upto, epoch } => {
            buf.put_u8(TAG_SESS_ACK);
            buf.put_u64_le(*upto);
            buf.put_u64_le(*epoch);
            put_pad(buf, 3);
        }
        Msg::RecoverReq { proc, incarnation, applied } => {
            buf.put_u8(TAG_RECOVER_REQ);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(*incarnation);
            put_vclock(buf, applied);
            put_pad(buf, 5);
        }
        Msg::RecoverResp { proc, first_seq, upto, entries, deps, seen } => {
            put_recover_resp(buf, *proc, *first_seq, *upto, *seen, entries, deps.as_ref());
        }
        Msg::ShardUpdate { writer, loc, payload, prev, deps } => {
            buf.put_u8(TAG_SHARD_UPDATE);
            put_writer(buf, *writer);
            buf.put_u32_le(loc.0);
            put_payload(buf, payload);
            buf.put_u32_le(*prev);
            put_triples(buf, deps);
        }
        Msg::ShardUpdateBatch { proc, shard, prev, upto, entries, deps } => {
            buf.put_u8(TAG_SHARD_UPDATE_BATCH);
            buf.put_u16_le(proc_u16(*proc));
            buf.put_u32_le(*shard);
            buf.put_u32_le(*prev);
            buf.put_u32_le(*upto);
            buf.put_u16_le(u16::try_from(entries.len()).expect("entry count fits u16"));
            put_triples(buf, deps);
            put_pad(buf, 1);
            put_entries(buf, *proc, entries);
        }
        Msg::SubReq { proc, shard } => {
            buf.put_u8(TAG_SUB_REQ);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(*shard);
            put_pad(buf, 3);
        }
        Msg::SubAck { shard, subs } => {
            buf.put_u8(TAG_SUB_ACK);
            buf.put_u32_le(*shard);
            buf.put_u16_le(u16::try_from(subs.len()).expect("sub count fits u16"));
            put_pad(buf, 5);
            for p in subs {
                buf.put_u32_le(p.0);
            }
        }
        Msg::SubNotify { shard, proc } => {
            buf.put_u8(TAG_SUB_NOTIFY);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(*shard);
            put_pad(buf, 3);
        }
        Msg::ShardRecoverReq { proc, incarnation, applied } => {
            buf.put_u8(TAG_SHARD_RECOVER_REQ);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(*incarnation);
            put_triples(buf, applied);
            put_pad(buf, 5);
        }
        Msg::ShardRecoverResp { proc, shard, prev, upto, entries, deps, seen } => {
            buf.put_u8(TAG_SHARD_RECOVER_RESP);
            buf.put_u32_le(proc.0);
            buf.put_u32_le(*shard);
            buf.put_u32_le(*prev);
            buf.put_u32_le(*upto);
            buf.put_u32_le(*seen);
            buf.put_u16_le(u16::try_from(entries.len()).expect("entry count fits u16"));
            put_triples(buf, deps);
            put_pad(buf, 3);
            put_entries(buf, *proc, entries);
        }
    }
}

/// Appends `msg` as one length-prefixed frame to `buf`. The body length
/// is exactly [`Msg::wire_bytes`] — asserted, so the modeled accounting
/// can never drift from the physical frames.
pub fn encode_frame(buf: &mut BytesMut, msg: &Msg) {
    let want = msg.wire_bytes();
    assert!(want <= MAX_FRAME as u64, "{} frame of {want} bytes exceeds MAX_FRAME", msg.kind());
    buf.put_u32_le(want as u32);
    let before = buf.len();
    encode_body(buf, msg);
    debug_assert_eq!(
        (buf.len() - before) as u64,
        want,
        "encoded size diverged from wire_bytes for {:?}",
        msg.kind()
    );
}

/// Appends a control frame (fixed 8-byte body).
pub fn encode_control(buf: &mut BytesMut, ctrl: &Control) {
    buf.put_u32_le(8);
    match ctrl {
        Control::Hello { node } => {
            buf.put_u8(TAG_CTRL_HELLO);
            buf.put_u32_le(*node);
            put_pad(buf, 3);
        }
        Control::Shutdown => {
            buf.put_u8(TAG_CTRL_SHUTDOWN);
            put_pad(buf, 7);
        }
        Control::Done { proc } => {
            buf.put_u8(TAG_CTRL_DONE);
            buf.put_u32_le(*proc);
            put_pad(buf, 3);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// The one bounds-checked reader over an encoded body: every getter
/// fails with [`WireError`] instead of panicking, and no count read from
/// the bytes reserves memory before [`Cursor::count`] has clamped it.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only if every byte was consumed.
    pub(crate) fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(WireError::TrailingBytes),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Consumes `n` bytes of padding, which every encoder writes as zeros.
    fn skip(&mut self, n: usize) -> Result<(), WireError> {
        if self.take(n)?.iter().any(|&b| b != 0) {
            return Err(WireError::NonCanonical);
        }
        Ok(())
    }

    /// A one-byte boolean: 0 or 1.
    pub(crate) fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::NonCanonical),
        }
    }

    /// `n` elements of at least `min_elem_bytes` each cannot follow in
    /// fewer bytes than that: a count the rest of the body cannot hold is
    /// [`WireError::Truncated`] before anything is reserved for it.
    pub(crate) fn count(&self, n: usize, min_elem_bytes: usize) -> Result<usize, WireError> {
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// `n` elements read by `elem`, each at least `min_elem_bytes` long.
    pub(crate) fn list<T>(
        &mut self,
        n: usize,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(n, min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    fn value_from(&mut self, kind: u8) -> Result<Value, WireError> {
        let operand = self.u64()?;
        match kind {
            0 => Ok(Value::Int(operand as i64)),
            1 => Ok(Value::F64(f64::from_bits(operand))),
            2 if operand <= 1 => Ok(Value::Bool(operand == 1)),
            2 => Err(WireError::NonCanonical),
            k => Err(WireError::BadKind(k)),
        }
    }

    pub(crate) fn value(&mut self) -> Result<Value, WireError> {
        let kind = self.u8()?;
        self.value_from(kind)
    }

    pub(crate) fn payload(&mut self) -> Result<UpdatePayload, WireError> {
        let kind = self.u8()?;
        let v = self.value_from(kind & 0x0F)?;
        match kind >> 4 {
            0 => Ok(UpdatePayload::Set(v)),
            1 => Ok(UpdatePayload::Add(v)),
            k => Err(WireError::BadKind(kind | (k << 4))),
        }
    }

    pub(crate) fn writer(&mut self) -> Result<WriteId, WireError> {
        Ok(WriteId { proc: ProcId(self.u32()?), seq: self.u32()? })
    }

    fn vclock_n(&mut self, n: usize) -> Result<VClock, WireError> {
        let mut c = VClock::new(self.count(n, 4)?);
        for i in 0..n {
            c.set(ProcId(i as u32), self.u32()?);
        }
        Ok(c)
    }

    pub(crate) fn vclock(&mut self) -> Result<VClock, WireError> {
        let n = self.u16()? as usize;
        self.vclock_n(n)
    }

    pub(crate) fn vclock_opt(&mut self) -> Result<Option<VClock>, WireError> {
        match self.u16()? {
            VCLOCK_NONE => Ok(None),
            n => Ok(Some(self.vclock_n(n as usize)?)),
        }
    }

    pub(crate) fn triples(&mut self) -> Result<Vec<(u32, ProcId, u32)>, WireError> {
        let n = self.u16()? as usize;
        self.list(n, 12, |c| Ok((c.u32()?, ProcId(c.u32()?), c.u32()?)))
    }

    /// `n` batch entries written by `proc` (see [`put_entries`]).
    pub(crate) fn entries(&mut self, proc: ProcId, n: usize) -> Result<Vec<BatchEntry>, WireError> {
        self.list(n, 20, |c| {
            let loc = Loc(c.u32()?);
            let payload = c.payload()?;
            let seq = c.u32()?;
            let nadds = c.u16()? as usize;
            c.skip(1)?;
            let adds = c.list(nadds, 4, Self::u32)?;
            Ok(BatchEntry { loc, payload, writer: WriteId { proc, seq }, adds })
        })
    }
}

/// Decodes one `Msg` body. `nested` is set while decoding the message a
/// `SessData` wraps.
pub(crate) fn decode_body(cur: &mut Cursor<'_>, nested: bool) -> Result<Msg, WireError> {
    let tag = cur.u8()?;
    let flags = tag & 0xE0;
    let variant = if tag >= CONTROL_TAG_BASE { tag } else { tag & 0x1F };
    let known_flags = match variant {
        TAG_UPDATE_BATCH => FLAG_A | FLAG_B,
        TAG_SC_READ_RESP => FLAG_A,
        _ => 0,
    };
    if tag < CONTROL_TAG_BASE && flags & !known_flags != 0 {
        return Err(WireError::NonCanonical);
    }
    let msg = match variant {
        TAG_UPDATE => {
            let writer = cur.writer()?;
            let loc = Loc(cur.u32()?);
            let payload = cur.payload()?;
            let deps = cur.vclock_opt()?;
            Msg::Update { writer, loc, payload, deps }
        }
        TAG_UPDATE_BATCH => {
            let proc = ProcId(cur.u16()? as u32);
            let first_seq = cur.u32()?;
            let upto = cur.u32()?;
            let ne = cur.u16()? as usize;
            let nd = cur.u16()? as usize;
            cur.skip(1)?;
            let ack = if flags & FLAG_B != 0 { Some((cur.u64()?, cur.u64()?)) } else { None };
            let delta = if flags & FLAG_A == 0 {
                if nd != 0 {
                    return Err(WireError::NonCanonical);
                }
                None
            } else {
                Some(cur.list(nd, 8, |c| Ok((ProcId(c.u32()?), c.u32()?)))?)
            };
            let entries = cur.entries(proc, ne)?;
            Msg::UpdateBatch { proc, first_seq, upto, entries: entries.into(), delta, ack }
        }
        TAG_FLUSH => {
            let m = Msg::Flush { from_proc: ProcId(cur.u32()?), upto: cur.u32()? };
            cur.skip(3)?;
            m
        }
        TAG_FLUSH_ACK => {
            cur.skip(7)?;
            Msg::FlushAck
        }
        TAG_LOCK_REQ => {
            let proc = ProcId(cur.u32()?);
            let lock = LockId(cur.u32()?);
            let mode = if cur.flag()? { LockMode::Write } else { LockMode::Read };
            cur.skip(3)?;
            Msg::LockReq { proc, lock, mode }
        }
        TAG_LOCK_GRANT => {
            let lock = LockId(cur.u32()?);
            let nk = cur.u16()? as usize;
            let np = cur.u16()? as usize;
            let nd = cur.u16()? as usize;
            cur.skip(5)?;
            let knowledge = cur.vclock_n(nk)?;
            let preds = cur.list(np, 8, |c| Ok((ProcId(c.u32()?), c.u32()?)))?;
            let demand = cur.list(nd, 12, |c| Ok((Loc(c.u32()?), ProcId(c.u32()?), c.u32()?)))?;
            Msg::LockGrant { lock, grant: GrantInfo { knowledge, preds, demand } }
        }
        TAG_LOCK_REL => {
            let proc = ProcId(cur.u32()?);
            let lock = LockId(cur.u32()?);
            let mode = if cur.flag()? { LockMode::Write } else { LockMode::Read };
            let own_count = cur.u32()?;
            let nk = cur.u8()? as usize;
            let nd = cur.u16()? as usize;
            let knowledge = cur.vclock_n(nk)?;
            let dirty = cur.list(nd, 12, |c| {
                let entry = (Loc(c.u32()?), c.u32()?);
                c.skip(4)?;
                Ok(entry)
            })?;
            Msg::LockRel { proc, lock, mode, knowledge, own_count, dirty }
        }
        TAG_BARRIER_ARRIVE => {
            let proc = ProcId(cur.u32()?);
            let barrier = BarrierId(cur.u32()?);
            let round = cur.u32()?;
            let knowledge = cur.vclock()?;
            cur.skip(1)?;
            Msg::BarrierArrive { proc, barrier, round, knowledge }
        }
        TAG_BARRIER_RELEASE => {
            let barrier = BarrierId(cur.u32()?);
            let round = cur.u32()?;
            let knowledge = cur.vclock()?;
            cur.skip(1)?;
            Msg::BarrierRelease { barrier, round, knowledge }
        }
        TAG_SC_READ => {
            let m = Msg::ScRead { proc: ProcId(cur.u32()?), loc: Loc(cur.u32()?) };
            cur.skip(3)?;
            m
        }
        TAG_SC_READ_RESP => {
            let value = cur.value()?;
            let writer = if flags & FLAG_A != 0 {
                let w = cur.writer()?;
                cur.skip(6)?;
                Some(w)
            } else {
                cur.skip(14)?;
                None
            };
            Msg::ScReadResp { value, writer }
        }
        TAG_SC_WRITE => {
            let writer = cur.writer()?;
            let loc = Loc(cur.u32()?);
            let payload = cur.payload()?;
            cur.skip(6)?;
            Msg::ScWrite { writer, loc, payload }
        }
        TAG_SC_WRITE_ACK => {
            cur.skip(7)?;
            Msg::ScWriteAck
        }
        TAG_SC_AWAIT => {
            let proc = ProcId(cur.u32()?);
            let loc = Loc(cur.u32()?);
            let value = cur.value()?;
            cur.skip(2)?;
            Msg::ScAwait { proc, loc, value }
        }
        TAG_SC_AWAIT_RESP => {
            let value = cur.value()?;
            let nw = cur.u16()? as usize;
            cur.skip(4)?;
            let writers = cur.list(nw, 8, Cursor::writer)?;
            Msg::ScAwaitResp { value, writers }
        }
        TAG_SESS_DATA => {
            let mut seq_bytes = [0u8; 8];
            seq_bytes[..7].copy_from_slice(cur.take(7)?);
            let seq = u64::from_le_bytes(seq_bytes);
            let epoch = cur.u64()?;
            if nested {
                return Err(WireError::NestedSession);
            }
            let inner = decode_body(cur, true)?;
            Msg::SessData { seq, epoch, inner: Box::new(inner) }
        }
        TAG_SESS_ACK => {
            let m = Msg::SessAck { upto: cur.u64()?, epoch: cur.u64()? };
            cur.skip(3)?;
            m
        }
        TAG_RECOVER_REQ => {
            let proc = ProcId(cur.u32()?);
            let incarnation = cur.u32()?;
            let applied = cur.vclock()?;
            cur.skip(5)?;
            Msg::RecoverReq { proc, incarnation, applied }
        }
        TAG_RECOVER_RESP => {
            let proc = ProcId(cur.u32()?);
            let first_seq = cur.u32()?;
            let upto = cur.u32()?;
            let seen = cur.u32()?;
            let ne = cur.u16()? as usize;
            let deps = cur.vclock_opt()?;
            cur.skip(3)?;
            let entries = cur.entries(proc, ne)?;
            Msg::RecoverResp { proc, first_seq, upto, entries, deps, seen }
        }
        TAG_SHARD_UPDATE => {
            let writer = cur.writer()?;
            let loc = Loc(cur.u32()?);
            let payload = cur.payload()?;
            let prev = cur.u32()?;
            let deps = cur.triples()?;
            Msg::ShardUpdate { writer, loc, payload, prev, deps }
        }
        TAG_SHARD_UPDATE_BATCH => {
            let proc = ProcId(cur.u16()? as u32);
            let shard = cur.u32()?;
            let prev = cur.u32()?;
            let upto = cur.u32()?;
            let ne = cur.u16()? as usize;
            let deps = cur.triples()?;
            cur.skip(1)?;
            let entries = cur.entries(proc, ne)?;
            Msg::ShardUpdateBatch { proc, shard, prev, upto, entries: entries.into(), deps }
        }
        TAG_SUB_REQ => {
            let m = Msg::SubReq { proc: ProcId(cur.u32()?), shard: cur.u32()? };
            cur.skip(3)?;
            m
        }
        TAG_SUB_ACK => {
            let shard = cur.u32()?;
            let ns = cur.u16()? as usize;
            cur.skip(5)?;
            let subs = cur.list(ns, 4, |c| Ok(ProcId(c.u32()?)))?;
            Msg::SubAck { shard, subs }
        }
        TAG_SUB_NOTIFY => {
            let proc = ProcId(cur.u32()?);
            let shard = cur.u32()?;
            cur.skip(3)?;
            Msg::SubNotify { shard, proc }
        }
        TAG_SHARD_RECOVER_REQ => {
            let proc = ProcId(cur.u32()?);
            let incarnation = cur.u32()?;
            let applied = cur.triples()?;
            cur.skip(5)?;
            Msg::ShardRecoverReq { proc, incarnation, applied }
        }
        TAG_SHARD_RECOVER_RESP => {
            let proc = ProcId(cur.u32()?);
            let shard = cur.u32()?;
            let prev = cur.u32()?;
            let upto = cur.u32()?;
            let seen = cur.u32()?;
            let ne = cur.u16()? as usize;
            let deps = cur.triples()?;
            cur.skip(3)?;
            let entries = cur.entries(proc, ne)?;
            Msg::ShardRecoverResp { proc, shard, prev, upto, entries, deps, seen }
        }
        t => return Err(WireError::BadTag(t)),
    };
    Ok(msg)
}

/// Decodes one frame body (everything after the length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    let mut cur = Cursor::new(body);
    let frame = match body.first() {
        Some(&t) if t >= CONTROL_TAG_BASE => {
            let tag = cur.u8()?;
            let ctrl = match tag {
                TAG_CTRL_HELLO => {
                    let node = cur.u32()?;
                    cur.skip(3)?;
                    Control::Hello { node }
                }
                TAG_CTRL_SHUTDOWN => {
                    cur.skip(7)?;
                    Control::Shutdown
                }
                TAG_CTRL_DONE => {
                    let proc = cur.u32()?;
                    cur.skip(3)?;
                    Control::Done { proc }
                }
                t => return Err(WireError::BadTag(t)),
            };
            Frame::Control(ctrl)
        }
        _ => Frame::Msg(decode_body(&mut cur, false)?),
    };
    cur.finish()?;
    Ok(frame)
}

/// Extracts the next complete frame from an accumulating receive buffer,
/// if one is fully buffered. The returned [`Bytes`] is the frame *body*
/// (prefix stripped), **sliced out of the buffer without copying** —
/// it shares the underlying allocation, which the buffer's `reserve`
/// reclaims once all outstanding bodies are dropped.
pub fn next_frame(buf: &mut BytesMut) -> Option<Bytes> {
    let len = prefix(buf)?;
    if buf.len() - FRAME_HEADER < len {
        return None;
    }
    let frame = buf.split_to(FRAME_HEADER + len);
    Some(frame.slice(FRAME_HEADER..frame.len()))
}

/// The body length the buffered bytes open with, once all four are in.
fn prefix(buf: &[u8]) -> Option<usize> {
    let header = buf.get(..FRAME_HEADER)?;
    Some(u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize)
}

/// `true` if what [`next_frame`] is waiting on is a frame longer than
/// [`MAX_FRAME`]: the connection is hostile or corrupt and must be
/// dropped, not buffered.
pub fn oversized_prefix(buf: &[u8]) -> bool {
    prefix(buf).is_some_and(|len| len > MAX_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::Value;

    fn roundtrip(msg: Msg) {
        let mut buf = BytesMut::with_capacity(256);
        encode_frame(&mut buf, &msg);
        assert_eq!(
            buf.len() as u64,
            FRAME_HEADER as u64 + msg.wire_bytes(),
            "frame length != prefix + wire_bytes for {}",
            msg.kind()
        );
        let body = next_frame(&mut buf).expect("one full frame buffered");
        assert!(buf.is_empty(), "no bytes beyond the frame");
        let Frame::Msg(decoded) = decode_frame(&body).expect("valid frame") else {
            panic!("decoded a control frame from a Msg");
        };
        assert_eq!(format!("{msg:?}"), format!("{decoded:?}"), "roundtrip identity");
    }

    #[test]
    fn update_roundtrips_with_and_without_deps() {
        let w = WriteId { proc: ProcId(3), seq: 17 };
        roundtrip(Msg::Update {
            writer: w,
            loc: Loc(5),
            payload: UpdatePayload::Set(Value::Int(-9)),
            deps: None,
        });
        let mut deps = VClock::new(4);
        deps.set(ProcId(2), 11);
        roundtrip(Msg::Update {
            writer: w,
            loc: Loc(5),
            payload: UpdatePayload::Add(Value::F64(2.5)),
            deps: Some(deps),
        });
    }

    #[test]
    fn batch_roundtrips_all_flag_combinations() {
        let entries: std::sync::Arc<[BatchEntry]> = vec![
            BatchEntry {
                loc: Loc(0),
                payload: UpdatePayload::Set(Value::Bool(true)),
                writer: WriteId { proc: ProcId(1), seq: 4 },
                adds: vec![],
            },
            BatchEntry {
                loc: Loc(9),
                payload: UpdatePayload::Add(Value::Int(7)),
                writer: WriteId { proc: ProcId(1), seq: 6 },
                adds: vec![5, 6],
            },
        ]
        .into();
        for delta in [None, Some(vec![(ProcId(0), 3), (ProcId(2), 1)])] {
            for ack in [None, Some((42u64, 7u64))] {
                roundtrip(Msg::UpdateBatch {
                    proc: ProcId(1),
                    first_seq: 4,
                    upto: 6,
                    entries: entries.clone(),
                    delta: delta.clone(),
                    ack,
                });
            }
        }
    }

    #[test]
    fn session_wrapper_nests_any_payload() {
        let inner = Msg::Flush { from_proc: ProcId(2), upto: 30 };
        roundtrip(Msg::SessData {
            seq: 123456789,
            epoch: (7u64 << 32) | 2,
            inner: Box::new(inner),
        });
    }

    #[test]
    fn control_frames_roundtrip() {
        for ctrl in [Control::Hello { node: 3 }, Control::Shutdown, Control::Done { proc: 1 }] {
            let mut buf = BytesMut::with_capacity(64);
            encode_control(&mut buf, &ctrl);
            let body = next_frame(&mut buf).expect("full frame");
            let Frame::Control(decoded) = decode_frame(&body).expect("valid") else {
                panic!("control decoded as Msg");
            };
            assert_eq!(ctrl, decoded);
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut whole = BytesMut::with_capacity(64);
        encode_frame(&mut whole, &Msg::FlushAck);
        let encoded: Vec<u8> = whole.to_vec();
        let mut buf = BytesMut::with_capacity(64);
        for &b in &encoded[..encoded.len() - 1] {
            buf.put_u8(b);
            assert!(next_frame(&mut buf).is_none(), "incomplete frame must not decode");
        }
        buf.put_u8(encoded[encoded.len() - 1]);
        assert!(next_frame(&mut buf).is_some());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(matches!(decode_frame(&[0xFFu8; 2]), Err(WireError::BadTag(0xFF))));
        assert!(matches!(decode_frame(&[TAG_FLUSH]), Err(WireError::Truncated)));
        let mut buf = BytesMut::with_capacity(64);
        encode_frame(&mut buf, &Msg::FlushAck);
        let mut body = next_frame(&mut buf).expect("frame").to_vec();
        body.push(0);
        assert!(matches!(decode_frame(&body), Err(WireError::TrailingBytes)));
    }

    /// Bytes that would decode to a message but that no encoder writes.
    #[test]
    fn non_canonical_encodings_are_rejected() {
        let body_of = |msg: &Msg| {
            let mut buf = BytesMut::with_capacity(64);
            encode_frame(&mut buf, msg);
            next_frame(&mut buf).expect("frame").to_vec()
        };
        let rejected = |body: &[u8]| decode_frame(body).err() == Some(WireError::NonCanonical);

        let mut padded = body_of(&Msg::FlushAck);
        *padded.last_mut().expect("padding") = 1;
        assert!(rejected(&padded), "non-zero padding");

        let mut flagged = body_of(&Msg::FlushAck);
        flagged[0] |= FLAG_A;
        assert!(rejected(&flagged), "a flag the variant does not define");

        let lock_req = Msg::LockReq { proc: ProcId(1), lock: LockId(2), mode: LockMode::Write };
        let mut moded = body_of(&lock_req);
        moded[9] = 2;
        assert!(rejected(&moded), "a lock mode other than 0 or 1");

        let mut truthy =
            body_of(&Msg::ScAwait { proc: ProcId(1), loc: Loc(2), value: Value::Bool(true) });
        truthy[10] = 2;
        assert!(rejected(&truthy), "a boolean operand other than 0 or 1");

        let mut counted = body_of(&Msg::UpdateBatch {
            proc: ProcId(1),
            first_seq: 1,
            upto: 1,
            entries: Vec::new().into(),
            delta: None,
            ack: None,
        });
        counted[13] = 1;
        assert!(rejected(&counted), "a delta count without the delta flag");
    }
}
