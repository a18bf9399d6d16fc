//! Durable storage for replicas: a per-replica write-ahead log,
//! compacted snapshots, and an append-only own-write history.
//!
//! The paper's crash model is amnesia — a crashed process simply vanishes
//! and a restarted one re-earns the memory from its peers. This module
//! earns durability back from disk instead: every ingested update is
//! framed as a CRC-guarded [`WalRecord`] and appended to a log
//! (append-before-ack for own writes), and the log is periodically
//! compacted into a [`Snapshot`] of the replica's live state, whose size
//! is O(locations + pending) and never O(run length). The own writes a
//! reborn peer may ask for (`Replica::writes_after`) live in a separate
//! history segment: each compaction appends only the writes minted since
//! the previous one ([`put_history`]), in the same step as the snapshot.
//! Recovery reads `snapshot → history prefix → log` and then fetches
//! only the missing delta from peers, so the bytes transferred on
//! recovery are bounded by the log tail, not the store size.
//!
//! There is no second codec here. A logged remote update *is* the
//! [`Msg`] the node applied, in its wire body; the records a message
//! cannot express (own writes, incarnations, subscriptions) take tags the
//! wire format reserves for them; and records, snapshots and disk images
//! are all written and read with [`crate::wire`]'s primitives and its one
//! bounds-checked cursor. Recovery therefore replays through the decoder
//! `tests/wire_props.rs` pins against hostile bytes.
//!
//! Two backends share the format: [`MemDisk`] models a disk inside the
//! deterministic simulator (with an explicit staged-vs-durable boundary so
//! crash points between append, fsync, and ack are explorable), and
//! [`FileDisk`] is the real thing for `mc-live` (`wal.log` headed by the
//! snapshot and preallocated with written zeros, so a per-write sync is
//! a data-only `sync_data`; `history.log` beside it; and one rename as
//! the commit point of a compaction).
//!
//! Both formats are truncation-tolerant: decoding stops at the first
//! torn or corrupt frame (for the history, also at a sequence gap) and
//! returns the valid prefix — a corrupt record is never applied. The
//! zero tail of a `wal.log` never reaches the decoder: [`FileDisk::load`]
//! returns only the written prefix.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

use mc_model::{Loc, ProcId, VClock, Value, WriteId};

use crate::msg::{BatchEntry, Msg, UpdatePayload};
use crate::wire::{
    self, Cursor, Sink as _, WireError, CONTROL_TAG_BASE, TAG_WAL_INCARNATION, TAG_WAL_OWN_WRITE,
    TAG_WAL_OWN_WRITE_SHARDED, TAG_WAL_SUBSCRIBE,
};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, no external deps.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `data`. Guards every WAL frame and the snapshot body.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = (c >> 8) ^ CRC_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// ---------------------------------------------------------------------------
// Durability policy
// ---------------------------------------------------------------------------

/// When to compact the write-ahead log into a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Compact after this many log records — the one compaction
    /// cadence, the same on every executor.
    pub snapshot_every: u32,
    /// Group commit: own-write records are *staged* on append and the
    /// fsync is deferred to the next externalization point — an
    /// outgoing protocol send, or a local read/await returning — so
    /// many appends share one sync. The acked-write discipline weakens
    /// from "durable before the write returns" to "durable before
    /// anything can observe it": a crash can lose the tail of
    /// purely-local unobserved writes, but never a write another
    /// process (or a local read) acted on. Pairs naturally with update
    /// batching, which defers the sends themselves.
    pub group_commit: bool,
}

impl DurabilityPolicy {
    /// Snapshot after every `snapshot_every` log records.
    pub fn new(snapshot_every: u32) -> Self {
        DurabilityPolicy { snapshot_every, ..Default::default() }
    }

    /// Enables (or disables) group commit; see
    /// [`DurabilityPolicy::group_commit`].
    pub fn with_group_commit(mut self, group_commit: bool) -> Self {
        self.group_commit = group_commit;
        self
    }
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy { snapshot_every: 64, group_commit: false }
    }
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

/// One write-ahead-log record. Records are written at *ingest* time (not
/// apply time), so replay feeds them back through the replica's normal
/// ingest machinery and the causal pending buffers reconstruct naturally.
/// Records compare by their encoding.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// A local write by the owning process (append-before-ack: this is
    /// fsynced before the write's outcome is acknowledged to the program).
    OwnWrite {
        /// Location written.
        loc: Loc,
        /// Overwrite or increment.
        payload: UpdatePayload,
        /// Dependency vector minted at the write (vector modes only).
        deps: Option<VClock>,
    },
    /// A local write in sharded mode (chain link recomputed at replay).
    OwnWriteSharded {
        /// Location written.
        loc: Loc,
        /// Overwrite or increment.
        payload: UpdatePayload,
        /// Sparse `(shard, proc, seq)` dependency triples.
        deps: Vec<(u32, ProcId, u32)>,
    },
    /// The replica's incarnation number, persisted (and fsynced) on every
    /// rebirth so stale pre-crash session state can never be mistaken for
    /// the reborn node's.
    Incarnation {
        /// The new incarnation.
        incarnation: u32,
    },
    /// A dynamic shard subscription, persisted so replay filters
    /// dependency triples with the same interest set it had live.
    Subscribe {
        /// The newly subscribed shard.
        shard: u32,
    },
    /// A remote update as the node applied it: a [`Msg::Update`],
    /// [`Msg::RecoverResp`], [`Msg::ShardUpdate`],
    /// [`Msg::ShardUpdateBatch`] or [`Msg::ShardRecoverResp`]. A
    /// [`Msg::UpdateBatch`] is logged as the `RecoverResp` it becomes once
    /// its per-link delta is expanded to the full vector, so replay needs
    /// no link shadow clock.
    Ingest(Msg),
}

impl PartialEq for WalRecord {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

/// How the tail of a write-ahead log ended during decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every frame decoded; the log ends on a record boundary.
    Clean,
    /// The last frame is incomplete (fewer bytes than its header
    /// promised, or a bare partial header) — the classic torn write.
    /// `at` is the byte offset where the torn frame starts.
    Torn {
        /// Byte offset of the start of the torn frame.
        at: usize,
    },
    /// A frame's CRC failed or its body was malformed. `at` is the byte
    /// offset where the corrupt frame starts. Nothing at or after `at`
    /// was decoded.
    Corrupt {
        /// Byte offset of the start of the corrupt frame.
        at: usize,
    },
}

impl WalTail {
    /// `true` when the log ended cleanly on a record boundary.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }
}

/// Appends one `len:u32 | crc:u32 | body` frame to `out`, the body being
/// whatever `put_body` writes — the shape of every log record and of a
/// snapshot after its magic.
pub(crate) fn frame(out: &mut Vec<u8>, put_body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.put_slice(&[0; 8]);
    put_body(out);
    let body = &out[start + 8..];
    let (len, crc) = (u32::try_from(body.len()).expect("frame fits u32"), crc32(body));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Reads one frame: its body and whether the CRC holds, or `None` if the
/// bytes end before the header or the body it promises.
fn unframe<'a>(cur: &mut Cursor<'a>) -> Option<(&'a [u8], bool)> {
    let len = cur.u32().ok()? as usize;
    let crc = cur.u32().ok()?;
    let body = cur.take(len).ok()?;
    Some((body, crc32(body) == crc))
}

impl WalRecord {
    /// Writes the record body (no frame) to `b`.
    pub(crate) fn put_body(&self, b: &mut Vec<u8>) {
        match self {
            WalRecord::OwnWrite { loc, payload, deps } => {
                b.put_u8(TAG_WAL_OWN_WRITE);
                b.put_u32_le(loc.0);
                wire::put_payload(b, payload);
                wire::put_vclock_opt(b, deps.as_ref());
            }
            WalRecord::OwnWriteSharded { loc, payload, deps } => {
                b.put_u8(TAG_WAL_OWN_WRITE_SHARDED);
                b.put_u32_le(loc.0);
                wire::put_payload(b, payload);
                wire::put_triples(b, deps);
            }
            WalRecord::Incarnation { incarnation } => {
                b.put_u8(TAG_WAL_INCARNATION);
                b.put_u32_le(*incarnation);
            }
            WalRecord::Subscribe { shard } => {
                b.put_u8(TAG_WAL_SUBSCRIBE);
                b.put_u32_le(*shard);
            }
            WalRecord::Ingest(msg) => wire::encode_body(b, msg),
        }
    }

    /// Encodes one framed record: `len:u32 | crc:u32 | body`, with the
    /// CRC covering the body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame(&mut out, |b| self.put_body(b));
        out
    }

    fn decode_body(body: &[u8]) -> Result<WalRecord, WireError> {
        let mut cur = Cursor::new(body);
        let rec = match body.first() {
            Some(&tag) if tag < CONTROL_TAG_BASE => match wire::decode_body(&mut cur, false)? {
                msg @ (Msg::Update { .. }
                | Msg::RecoverResp { .. }
                | Msg::ShardUpdate { .. }
                | Msg::ShardUpdateBatch { .. }
                | Msg::ShardRecoverResp { .. }) => WalRecord::Ingest(msg),
                _ => return Err(WireError::BadTag(tag)),
            },
            _ => match cur.u8()? {
                TAG_WAL_OWN_WRITE => WalRecord::OwnWrite {
                    loc: Loc(cur.u32()?),
                    payload: cur.payload()?,
                    deps: cur.vclock_opt()?,
                },
                TAG_WAL_OWN_WRITE_SHARDED => WalRecord::OwnWriteSharded {
                    loc: Loc(cur.u32()?),
                    payload: cur.payload()?,
                    deps: cur.triples()?,
                },
                TAG_WAL_INCARNATION => WalRecord::Incarnation { incarnation: cur.u32()? },
                TAG_WAL_SUBSCRIBE => WalRecord::Subscribe { shard: cur.u32()? },
                tag => return Err(WireError::BadTag(tag)),
            },
        };
        cur.finish()?;
        Ok(rec)
    }
}

/// Decodes a write-ahead log into its valid record prefix plus a tail
/// diagnostic. Decoding stops at the first frame that is incomplete
/// ([`WalTail::Torn`]) or fails its CRC / body parse
/// ([`WalTail::Corrupt`]); records before that point are always returned.
pub fn decode_wal(bytes: &[u8]) -> (Vec<WalRecord>, WalTail) {
    let mut cur = Cursor::new(bytes);
    let mut out = Vec::new();
    while cur.remaining() > 0 {
        let at = cur.pos();
        // A torn append or a corrupted length field: either way the
        // valid prefix is everything before this frame.
        let Some((body, crc_ok)) = unframe(&mut cur) else {
            return (out, WalTail::Torn { at });
        };
        match crc_ok.then(|| WalRecord::decode_body(body)) {
            Some(Ok(rec)) => out.push(rec),
            _ => return (out, WalTail::Corrupt { at }),
        }
    }
    (out, WalTail::Clean)
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A buffered (causally not yet ready) run of one sender's writes — a
/// batch, or a single update as a run of one — as persisted in a
/// snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapBatch {
    /// The writing process.
    pub proc: ProcId,
    /// First own-write sequence covered.
    pub first_seq: u32,
    /// Last own-write sequence covered.
    pub upto: u32,
    /// Coalesced per-location entries.
    pub entries: Vec<BatchEntry>,
    /// Dependency vector of the last member.
    pub deps: VClock,
}

/// One of this replica's own writes, retained (with its dependency
/// vector) so a reborn peer can be pushed exactly the suffix it misses —
/// even past log compaction. On disk, one history-segment frame
/// ([`put_history`]).
#[derive(Clone, Debug, PartialEq)]
pub struct OwnUpdate {
    /// Own-write sequence number (1-based).
    pub seq: u32,
    /// Location written.
    pub loc: Loc,
    /// Overwrite or increment.
    pub payload: UpdatePayload,
    /// Dependency vector minted at the write (vector modes only).
    pub deps: Option<VClock>,
}

/// A compacted image of one replica's live state: everything
/// `snapshot + history prefix + empty log` must reproduce. Nothing in it
/// grows with the own-write count: the own writes themselves are in the
/// history segment. Installing a snapshot truncates the write-ahead log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Replica incarnation at snapshot time.
    pub incarnation: u32,
    /// The applied vector.
    pub applied: VClock,
    /// Non-initial store contents: `(loc, value, last_writer)`.
    pub store: Vec<(Loc, Value, Option<WriteId>)>,
    /// Applied updates per counter location.
    pub counter_updates: Vec<(Loc, Vec<WriteId>)>,
    /// Buffered runs, single updates included.
    pub pending_batches: Vec<SnapBatch>,
    /// Session receiver watermarks per peer (in-order delivered counts),
    /// kept for post-recovery diagnostics.
    pub watermarks: Vec<(ProcId, u64)>,
}

/// Why a snapshot failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The magic prefix is wrong — not a snapshot file.
    BadMagic,
    /// Fewer bytes than the header promised.
    Truncated,
    /// The body CRC failed.
    BadCrc,
    /// The CRC passed but the body did not parse, or bytes follow it
    /// (codec bug or a collision-grade corruption).
    Malformed,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic (not a snapshot file)"),
            SnapshotError::Truncated => write!(f, "snapshot: truncated"),
            SnapshotError::BadCrc => write!(f, "snapshot: body CRC mismatch"),
            SnapshotError::Malformed => write!(f, "snapshot: malformed body"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Names the body format: a file from another format version is refused
/// as [`SnapshotError::BadMagic`], never parsed.
const SNAP_MAGIC: &[u8; 8] = b"MCSNAP04";

/// A snapshot list: a `u32` count, then each element.
fn put_list<T>(b: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    b.put_u32_le(u32::try_from(items.len()).expect("snapshot list fits u32"));
    for item in items {
        put(b, item);
    }
}

/// Reads a [`put_list`] list whose elements take at least `min_bytes`.
fn read_list<'a, T>(
    cur: &mut Cursor<'a>,
    min_bytes: usize,
    elem: impl FnMut(&mut Cursor<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = cur.u32()? as usize;
    cur.list(n, min_bytes, elem)
}

impl Snapshot {
    /// Encodes the snapshot: `magic | len:u32 | crc:u32 | body`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = SNAP_MAGIC.to_vec();
        frame(&mut out, |b| {
            b.put_u32_le(self.incarnation);
            wire::put_vclock(b, &self.applied);
            put_list(b, &self.store, |b, (loc, v, w)| {
                b.put_u32_le(loc.0);
                wire::put_value(b, v);
                b.put_u8(w.is_some() as u8);
                if let Some(w) = w {
                    wire::put_writer(b, *w);
                }
            });
            put_list(b, &self.counter_updates, |b, (loc, ws)| {
                b.put_u32_le(loc.0);
                put_list(b, ws, |b, w| wire::put_writer(b, *w));
            });
            put_list(b, &self.pending_batches, |b, pb| {
                b.put_u32_le(pb.proc.0);
                b.put_u32_le(pb.first_seq);
                b.put_u32_le(pb.upto);
                b.put_u32_le(pb.entries.len() as u32);
                wire::put_entries(b, pb.proc, &pb.entries);
                wire::put_vclock(b, &pb.deps);
            });
            put_list(b, &self.watermarks, |b, (p, delivered)| {
                b.put_u32_le(p.0);
                b.put_u64_le(*delivered);
            });
        });
        out
    }

    /// Decodes a snapshot, validating magic, length, and CRC.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut cur = Cursor::new(bytes);
        match cur.take(SNAP_MAGIC.len()) {
            Err(_) => return Err(SnapshotError::Truncated),
            Ok(magic) if magic != SNAP_MAGIC => return Err(SnapshotError::BadMagic),
            Ok(_) => {}
        }
        let (body, crc_ok) = unframe(&mut cur).ok_or(SnapshotError::Truncated)?;
        if !crc_ok {
            return Err(SnapshotError::BadCrc);
        }
        cur.finish().and_then(|()| Self::decode_body(body)).map_err(|_| SnapshotError::Malformed)
    }

    fn decode_body(body: &[u8]) -> Result<Snapshot, WireError> {
        let mut cur = Cursor::new(body);
        let c = &mut cur;
        let snap = Snapshot {
            incarnation: c.u32()?,
            applied: c.vclock()?,
            store: read_list(c, 14, |c| {
                let (loc, value) = (Loc(c.u32()?), c.value()?);
                let writer = if c.flag()? { Some(c.writer()?) } else { None };
                Ok((loc, value, writer))
            })?,
            counter_updates: read_list(c, 8, |c| {
                Ok((Loc(c.u32()?), read_list(c, 8, Cursor::writer)?))
            })?,
            pending_batches: read_list(c, 18, |c| {
                let (proc, first_seq, upto) = (ProcId(c.u32()?), c.u32()?, c.u32()?);
                let n = c.u32()? as usize;
                let entries = c.entries(proc, n)?;
                Ok(SnapBatch { proc, first_seq, upto, entries, deps: c.vclock()? })
            })?,
            watermarks: read_list(c, 12, |c| Ok((ProcId(c.u32()?), c.u64()?)))?,
        };
        cur.finish()?;
        Ok(snap)
    }
}

// ---------------------------------------------------------------------------
// Own-write history
// ---------------------------------------------------------------------------

/// Appends one `len:u32 | crc:u32 | seq | loc | payload | deps` frame per
/// own write to `out` — the history segment a compaction appends, in the
/// same step as its snapshot, for the writes minted since the previous
/// one.
pub fn put_history(out: &mut Vec<u8>, updates: &[OwnUpdate]) {
    for u in updates {
        frame(out, |b| {
            b.put_u32_le(u.seq);
            b.put_u32_le(u.loc.0);
            wire::put_payload(b, &u.payload);
            wire::put_vclock_opt(b, u.deps.as_ref());
        });
    }
}

/// Reads the first `upto` own writes of a history segment: the writes
/// and the bytes they take. Sequence numbers run 1, 2, 3, … with no gap;
/// decoding stops early at a torn frame, a failed CRC, a malformed body
/// or a sequence number out of turn, and nothing is reserved for frames
/// that are not there.
pub fn decode_history(bytes: &[u8], upto: u32) -> (Vec<OwnUpdate>, usize) {
    let mut cur = Cursor::new(bytes);
    let (mut out, mut end) = (Vec::new(), 0);
    while (out.len() as u32) < upto {
        let Some((body, true)) = unframe(&mut cur) else { break };
        match decode_own(body) {
            Ok(u) if u.seq as usize == out.len() + 1 => out.push(u),
            _ => break,
        }
        end = cur.pos();
    }
    (out, end)
}

/// Decodes one [`put_history`] frame body.
fn decode_own(body: &[u8]) -> Result<OwnUpdate, WireError> {
    let mut c = Cursor::new(body);
    let u = OwnUpdate {
        seq: c.u32()?,
        loc: Loc(c.u32()?),
        payload: c.payload()?,
        deps: c.vclock_opt()?,
    };
    c.finish()?;
    Ok(u)
}

// ---------------------------------------------------------------------------
// Simulated disk
// ---------------------------------------------------------------------------

/// A simulated per-replica disk with an explicit staged-vs-durable
/// boundary: [`MemDisk::append`] stages a framed record, [`MemDisk::sync`]
/// makes the staged tail durable (the modeled fsync), and
/// [`MemDisk::crash`] drops whatever was staged — exactly the crash point
/// between append and fsync that the explorer injects. A compaction
/// ([`MemDisk::install_snapshot`]) is one atomic step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemDisk {
    snapshot: Option<Vec<u8>>,
    history: Vec<u8>,
    log: Vec<u8>,
    staged: Vec<u8>,
    staged_records: u64,
}

impl MemDisk {
    /// An empty disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Stages one framed record (not yet durable).
    pub fn append(&mut self, frame: &[u8]) {
        self.staged.extend_from_slice(frame);
        self.staged_records += 1;
    }

    /// The modeled fsync: moves the staged tail into the durable log.
    /// Returns the number of records made durable.
    pub fn sync(&mut self) -> u64 {
        self.log.append(&mut self.staged);
        std::mem::take(&mut self.staged_records)
    }

    /// Number of staged (appended but not yet fsynced) records.
    pub fn staged_records(&self) -> u64 {
        self.staged_records
    }

    /// Atomically installs a snapshot, appends the history tail it
    /// covers ([`put_history`] frames) and truncates the durable log.
    /// The caller must [`MemDisk::sync`] first — compaction must never
    /// silently discard staged records.
    pub fn install_snapshot(&mut self, snapshot: Vec<u8>, history: &[u8]) {
        debug_assert_eq!(self.staged_records, 0, "sync before snapshotting");
        self.snapshot = Some(snapshot);
        self.history.extend_from_slice(history);
        self.log.clear();
    }

    /// Cuts the history segment to its first `len` bytes: recovery drops
    /// what lies past the prefix the snapshot covers.
    pub fn truncate_history(&mut self, len: usize) {
        self.history.truncate(len);
    }

    /// A crash: the staged tail is lost, the durable log, history and
    /// snapshot survive. Returns the number of records lost.
    pub fn crash(&mut self) -> u64 {
        self.staged.clear();
        std::mem::take(&mut self.staged_records)
    }

    /// What recovery reads: the installed snapshot (if any) and the
    /// durable log bytes.
    pub fn load(&self) -> (Option<&[u8]>, &[u8]) {
        (self.snapshot.as_deref(), &self.log)
    }

    /// The own-write history segment.
    pub fn history(&self) -> &[u8] {
        &self.history
    }

    /// Serializes the durable state (snapshot, history and log, staged
    /// excluded) into one image, for repro artifacts that capture disk
    /// contents: `has_snapshot:u8 | [len:u32 | snapshot] | len:u32 |
    /// history | log`.
    pub fn image(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u8(self.snapshot.is_some() as u8);
        if let Some(s) = &self.snapshot {
            out.put_u32_le(s.len() as u32);
            out.put_slice(s);
        }
        out.put_u32_le(self.history.len() as u32);
        out.put_slice(&self.history);
        out.put_slice(&self.log);
        out
    }

    /// Rebuilds a disk from an [`MemDisk::image`] (staged state is empty,
    /// as after a crash).
    pub fn from_image(bytes: &[u8]) -> Option<MemDisk> {
        let mut cur = Cursor::new(bytes);
        let region = |cur: &mut Cursor<'_>| {
            let n = cur.u32().ok()? as usize;
            Some(cur.take(n).ok()?.to_vec())
        };
        let snapshot = match cur.flag().ok()? {
            false => None,
            true => Some(region(&mut cur)?),
        };
        let history = region(&mut cur)?;
        let log = bytes[cur.pos()..].to_vec();
        Some(MemDisk { snapshot, history, log, ..MemDisk::default() })
    }
}

// ---------------------------------------------------------------------------
// Real files (mc-live)
// ---------------------------------------------------------------------------

/// Bytes of written zeros a `wal.log` holds ahead of its records: one
/// chunk follows the snapshot in every fresh log, and an append that
/// would cross the end of the file first extends it by as many more as
/// it needs. At the default cadence (a compaction every 64 records) a
/// two-process log stays well inside one chunk, so between two
/// compactions the file never grows and every sync is data-only.
pub const WAL_CHUNK: usize = 16 << 10;

/// The zeros a chunk is written from.
static ZEROS: [u8; WAL_CHUNK] = [0; WAL_CHUNK];

/// A real per-replica disk directory for `mc-live`: `wal.log`, whose
/// first frame is the installed snapshot (if any) and the rest the
/// records logged since, and the append-only `history.log`. The
/// staged-vs-durable boundary is the page cache: records appended but
/// not yet fsynced may or may not survive `kill -9`, and recovery
/// tolerates either via the truncation-tolerant decoders.
///
/// `wal.log` is preallocated: records overwrite zeros that were written
/// (not left as holes) and made durable before, inside the file's size,
/// so [`FileDisk::sync`] is a `sync_data` that flushes no metadata. The
/// log ends at the first all-zero frame header — no record has an empty
/// body — or at the end of the file. Only after an append extended the
/// file does the next sync flush its size as well (`sync_all`).
///
/// A compaction ([`FileDisk::compact`]) has one commit point: the rename
/// of a fresh `wal.tmp`, holding only the new snapshot and one zero
/// chunk, over `wal.log`. Before it the directory recovers to the old
/// snapshot and log (a history tail already appended lies past the old
/// snapshot's prefix and is dropped at recovery); after it, to the new
/// snapshot and an empty log. No state holds a snapshot together with a
/// log it already covers.
#[derive(Debug)]
pub struct FileDisk {
    dir: PathBuf,
    wal: fs::File,
    history: fs::File,
    /// Where the next record goes: just past the last valid frame.
    end: u64,
    /// The length of `wal.log`; every byte in `end..len` is zero.
    len: u64,
    /// The file's size changed since its last sync, which must flush it.
    resized: bool,
    staged_records: u64,
    full_syncs: u64,
}

/// Reads `path` whole; a missing file reads as empty.
fn read_or_empty(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// fsyncs a directory, so that the entries created or renamed in it
/// survive power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Where the parts of a `wal.log` image end: the snapshot frame (if
/// any) at `log`, the run of CRC-valid frames after it at `valid`, and
/// the written bytes at `written`.
///
/// The log stops at an all-zero frame header (or the end of the file)
/// — then `written == valid` — or at the first frame that is cut short
/// or fails its CRC. Such a frame followed only by zeros is a torn
/// tail: `written` then cuts it short of its end, so [`decode_wal`]
/// reads it as [`WalTail::Torn`] exactly as it reads a log whose file
/// ends mid-frame. A non-zero byte after it is kept, so the frame stays
/// whole and decodes as [`WalTail::Corrupt`].
struct Extent {
    log: usize,
    valid: usize,
    written: usize,
}

impl Extent {
    fn of(bytes: &[u8]) -> Extent {
        let log = match bytes.strip_prefix(SNAP_MAGIC) {
            None => 0,
            Some(rest) => {
                let mut cur = Cursor::new(rest);
                unframe(&mut cur).map_or(bytes.len(), |_| SNAP_MAGIC.len() + cur.pos())
            }
        };
        let mut cur = Cursor::new(&bytes[log..]);
        loop {
            let valid = log + cur.pos();
            let rest = &bytes[valid..];
            if rest.iter().take(8).all(|&b| b == 0) {
                return Extent { log, valid, written: valid };
            }
            match unframe(&mut cur) {
                Some((_, true)) => continue,
                frame => {
                    let nonzero = valid + rest.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                    let frame_end = frame.map_or(usize::MAX, |_| log + cur.pos());
                    let written =
                        if nonzero > frame_end { nonzero } else { nonzero.min(frame_end - 1) };
                    return Extent { log, valid, written };
                }
            }
        }
    }
}

impl FileDisk {
    /// Opens (creating if needed) the replica directory `dir`, ready to
    /// append right after the last valid frame of its log. Whatever
    /// follows that frame is cut, and a log left with no zero tail (new,
    /// cut, or written before preallocation) gains one chunk; a log this
    /// changes is fsynced before `open` returns (counted in
    /// [`FileDisk::take_full_syncs`]). When `open` creates the directory
    /// or a file in it, it fsyncs the directory and its parent too.
    ///
    /// A corrupt frame is cut like a torn one: recovery that must refuse
    /// corruption decodes [`FileDisk::load`] first, as `mc-live` does.
    pub fn open(dir: &Path) -> io::Result<FileDisk> {
        let (wal_path, history_path) = (dir.join("wal.log"), dir.join("history.log"));
        let created = !wal_path.exists() || !history_path.exists();
        fs::create_dir_all(dir)?;
        let bytes = read_or_empty(&wal_path)?;
        let valid = Extent::of(&bytes).valid;
        let mut disk = FileDisk {
            dir: dir.to_path_buf(),
            wal: fs::OpenOptions::new().create(true).truncate(false).write(true).open(&wal_path)?,
            history: fs::OpenOptions::new().create(true).append(true).open(&history_path)?,
            end: valid as u64,
            len: bytes.len() as u64,
            resized: false,
            staged_records: 0,
            full_syncs: 0,
        };
        if bytes[valid..].iter().any(|&b| b != 0) {
            disk.wal.set_len(disk.end)?;
            disk.len = disk.end;
            disk.resized = true;
        }
        disk.reserve(disk.end + 1)?;
        if disk.resized {
            disk.sync()?;
        }
        if created {
            disk.history.sync_all()?;
            sync_dir(dir)?;
            sync_dir(dir.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new(".")))?;
        }
        Ok(disk)
    }

    /// The replica directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Extends `wal.log` with zero chunks until it is at least `need`
    /// bytes long.
    fn reserve(&mut self, need: u64) -> io::Result<()> {
        while self.len < need {
            self.wal.write_all_at(&ZEROS, self.len)?;
            self.len += WAL_CHUNK as u64;
            self.resized = true;
        }
        Ok(())
    }

    /// Appends one framed record to `wal.log` (durable only after
    /// [`FileDisk::sync`]).
    pub fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        let next = self.end + frame.len() as u64;
        self.reserve(next)?;
        self.wal.write_all_at(frame, self.end)?;
        self.end = next;
        self.staged_records += 1;
        Ok(())
    }

    /// fsyncs the log: `sync_data`, or `sync_all` if the file grew since
    /// the last sync. Returns the number of records covered by this sync.
    pub fn sync(&mut self) -> io::Result<u64> {
        if self.resized {
            self.wal.sync_all()?;
            self.resized = false;
            self.full_syncs += 1;
        } else {
            self.wal.sync_data()?;
        }
        Ok(std::mem::take(&mut self.staged_records))
    }

    /// Number of appended-but-not-fsynced records.
    pub fn staged_records(&self) -> u64 {
        self.staged_records
    }

    /// The syncs since the last call that had to flush the log's size
    /// too: the one [`FileDisk::open`] makes when it creates, cuts or
    /// extends the log, and the first after an append extended it.
    pub fn take_full_syncs(&mut self) -> u64 {
        std::mem::take(&mut self.full_syncs)
    }

    /// Compacts: makes the `history` tail ([`put_history`] frames)
    /// durable in `history.log`, writes `snapshot` and one zero chunk to
    /// a fresh `wal.tmp` and fsyncs it, then renames it over `wal.log` —
    /// the one commit point — and fsyncs the directory so that the
    /// rename, and with it every record appended to the new log,
    /// survives power loss too. The old log is synced first only if it
    /// has staged records.
    pub fn compact(&mut self, snapshot: &[u8], history: &[u8]) -> io::Result<()> {
        if self.staged_records > 0 {
            self.sync()?;
        }
        if !history.is_empty() {
            self.history.write_all(history)?;
            self.history.sync_all()?;
        }
        let tmp = self.dir.join("wal.tmp");
        let mut wal = fs::File::create(&tmp)?;
        wal.write_all(snapshot)?;
        wal.write_all(&ZEROS)?;
        wal.sync_all()?;
        fs::rename(&tmp, self.dir.join("wal.log"))?;
        sync_dir(&self.dir)?;
        self.wal = wal;
        self.end = snapshot.len() as u64;
        self.len = self.end + WAL_CHUNK as u64;
        self.resized = false;
        Ok(())
    }

    /// [`FileDisk::compact`] with no history tail.
    pub fn install_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        self.compact(snapshot, &[])
    }

    /// Cuts `history.log` to its first `len` bytes (and fsyncs): recovery
    /// drops what lies past the prefix the snapshot covers.
    pub fn truncate_history(&mut self, len: usize) -> io::Result<()> {
        self.history.set_len(len as u64)?;
        self.history.sync_all()
    }

    /// What recovery reads from `dir`: the installed snapshot (if any)
    /// and the written log bytes after it — never the zero tail, so
    /// [`decode_wal`] sees the bytes of an EOF-terminated log. Static so
    /// it runs before the directory is re-opened for writing by the
    /// reborn process. A log frame never starts with the snapshot magic
    /// (its length field would read 1.3 GB), so the magic tells the two
    /// apart.
    ///
    /// # Errors
    ///
    /// Besides I/O errors, refuses a directory that still holds a
    /// `snapshot.bin` — the layout before the snapshot moved into
    /// `wal.log` — rather than recover from its log alone.
    pub fn load(dir: &Path) -> io::Result<(Option<Vec<u8>>, Vec<u8>)> {
        if dir.join("snapshot.bin").exists() {
            let msg = format!("{}: snapshot.bin is from an earlier format", dir.display());
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let mut bytes = read_or_empty(&dir.join("wal.log"))?;
        let extent = Extent::of(&bytes);
        bytes.truncate(extent.written);
        let log = bytes.split_off(extent.log);
        Ok(((extent.log > 0).then_some(bytes), log))
    }

    /// The own-write history segment of `dir` (`history.log`).
    pub fn load_history(dir: &Path) -> io::Result<Vec<u8>> {
        read_or_empty(&dir.join("history.log"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    fn entry(proc: u32, seq: u32, adds: Vec<u32>) -> BatchEntry {
        let payload = match adds.is_empty() {
            true => UpdatePayload::Set(Value::Bool(false)),
            false => UpdatePayload::Add(Value::Int(3)),
        };
        BatchEntry { loc: Loc(1), payload, writer: WriteId::new(p(proc), seq), adds }
    }

    fn sample_records() -> Vec<WalRecord> {
        let mut deps = VClock::new(3);
        deps.set(p(0), 2);
        deps.set(p(1), 1);
        vec![
            WalRecord::Incarnation { incarnation: 3 },
            WalRecord::OwnWrite {
                loc: Loc(4),
                payload: UpdatePayload::Set(Value::Int(-9)),
                deps: Some(deps.clone()),
            },
            WalRecord::OwnWrite {
                loc: Loc(0),
                payload: UpdatePayload::Add(Value::F64(0.5)),
                deps: None,
            },
            WalRecord::Ingest(Msg::Update {
                writer: WriteId::new(p(1), 7),
                loc: Loc(2),
                payload: UpdatePayload::Set(Value::Bool(true)),
                deps: Some(deps.clone()),
            }),
            WalRecord::Ingest(Msg::RecoverResp {
                proc: p(2),
                first_seq: 1,
                upto: 3,
                entries: vec![entry(2, 3, vec![1, 2, 3])],
                deps: Some(deps),
                seen: 0,
            }),
            WalRecord::OwnWriteSharded {
                loc: Loc(6),
                payload: UpdatePayload::Set(Value::Int(11)),
                deps: vec![(0, p(1), 2), (2, p(0), 5)],
            },
            WalRecord::Ingest(Msg::ShardUpdate {
                writer: WriteId::new(p(1), 4),
                loc: Loc(3),
                payload: UpdatePayload::Add(Value::Int(1)),
                prev: 2,
                deps: vec![(1, p(0), 3)],
            }),
            WalRecord::Ingest(Msg::ShardUpdateBatch {
                proc: p(0),
                shard: 1,
                prev: 0,
                upto: 5,
                entries: vec![entry(0, 5, vec![])].into(),
                deps: vec![(0, p(2), 1)],
            }),
            WalRecord::Ingest(Msg::ShardRecoverResp {
                proc: p(0),
                shard: 1,
                prev: 0,
                upto: 5,
                entries: vec![entry(0, 5, vec![])],
                deps: vec![],
                seen: 2,
            }),
            WalRecord::Subscribe { shard: 3 },
        ]
    }

    fn encode_all(recs: &[WalRecord]) -> Vec<u8> {
        recs.iter().flat_map(|r| r.encode()).collect()
    }

    #[test]
    fn crc32_check_value() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_roundtrip_every_kind() {
        let recs = sample_records();
        let bytes = encode_all(&recs);
        let (decoded, tail) = decode_wal(&bytes);
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded, recs);
    }

    #[test]
    fn torn_tail_yields_valid_prefix() {
        let recs = sample_records();
        let bytes = encode_all(&recs);
        // Chop mid-way through the last frame.
        let cut = bytes.len() - 3;
        let (decoded, tail) = decode_wal(&bytes[..cut]);
        assert_eq!(decoded, recs[..recs.len() - 1]);
        assert!(matches!(tail, WalTail::Torn { .. }));
    }

    #[test]
    fn bit_flip_yields_corrupt_not_garbage() {
        let recs = sample_records();
        let mut bytes = encode_all(&recs);
        // Flip a bit inside the second record's body.
        let second_start = recs[0].encode().len();
        bytes[second_start + 10] ^= 0x40;
        let (decoded, tail) = decode_wal(&bytes);
        assert_eq!(decoded, recs[..1]);
        assert_eq!(tail, WalTail::Corrupt { at: second_start });
    }

    /// A log written in the format before ingest records became wire
    /// bodies (one frame per old record kind, tags 1–8, CRCs intact) is
    /// refused at its first frame — `open_node` panics with its
    /// diagnostic instead of booting from an empty prefix.
    #[test]
    fn parent_format_frames_are_corrupt_at_zero() {
        const PARENT_FRAMES: [&str; 8] = [
            "1c000000284b251501000000000000070000000000000001020000000100000000000000",
            "24000000841463f7020100000001000000020000000000050000000000000001020000000100000000000000",
            "3c0000009dfc529d030100000002000000020000000100000001000000010003000000000000000100000002000000010000000200000001020000000100000000000000",
            "050000005699ab990402000000",
            "1f000000423b484805030000000002010000000000000001000000010000000100000001000000",
            "1f000000784db40006010000000300000004000000000009000000000000000000000000000000",
            "380000009acd7eca0701000000000000000000000002000000010000000100000001000300000000000000010000000200000001000000020000000000000001",
            "0500000057745b5c0802000000",
        ];
        for (tag, hex) in (1..).zip(PARENT_FRAMES) {
            let frame: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            assert_eq!(frame[8], tag, "one frame per old record kind");
            assert_eq!(decode_wal(&frame), (vec![], WalTail::Corrupt { at: 0 }));
        }
        // Old tags 1–8 are wire tags of no kind an ingest record accepts.
        for rec in sample_records().iter().filter(|r| matches!(r, WalRecord::Ingest(_))) {
            assert!(!(1..=8).contains(&rec.encode()[8]), "{rec:?}");
        }
        for msg in [Msg::FlushAck, Msg::SubReq { proc: p(0), shard: 1 }] {
            assert_eq!(decode_wal(&WalRecord::Ingest(msg).encode()).1, WalTail::Corrupt { at: 0 });
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut applied = VClock::new(2);
        applied.set(p(0), 4);
        let mut deps = VClock::new(2);
        deps.set(p(1), 1);
        let snap = Snapshot {
            incarnation: 2,
            applied,
            store: vec![
                (Loc(0), Value::Int(7), Some(WriteId::new(p(1), 1))),
                (Loc(3), Value::F64(1.5), None),
            ],
            counter_updates: vec![(Loc(0), vec![WriteId::new(p(0), 1), WriteId::new(p(1), 1)])],
            pending_batches: vec![SnapBatch {
                proc: p(1),
                first_seq: 2,
                upto: 2,
                entries: vec![BatchEntry {
                    loc: Loc(1),
                    payload: UpdatePayload::Set(Value::Int(1)),
                    writer: WriteId::new(p(1), 2),
                    adds: vec![],
                }],
                deps,
            }],
            watermarks: vec![(p(1), 17)],
        };
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn snapshot_rejects_damage() {
        let snap = Snapshot { incarnation: 1, applied: VClock::new(2), ..Default::default() };
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes[..10]), Err(SnapshotError::Truncated));
        let mut magic = bytes.clone();
        magic[0] ^= 0xFF;
        assert_eq!(Snapshot::decode(&magic), Err(SnapshotError::BadMagic));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(Snapshot::decode(&flipped), Err(SnapshotError::BadCrc));
    }

    /// Snapshots earlier formats wrote — `MCSNAP02` (it also held the
    /// own-write log and buffered singletons) and `MCSNAP03` (it also
    /// held the own-write history); CRCs intact — are refused by their
    /// magic, never parsed: a node booting from one panics with the
    /// diagnostic instead of reading fields that moved.
    #[test]
    fn previous_format_snapshot_is_refused_as_bad_magic() {
        const MCSNAP02: &str = "4d43534e415030328e000000af9725db000000000200010000000000000001000000\
            01000000000500000000000000010000000001000000000000000100000001000000010000000100\
            00000100000001000000000500000000000000020001000000000000000100000001000000020000\
            0000000000000700000000000000020000000000020000000000000001000000010000000300000000000000";
        const MCSNAP03: &str =
            "4d43534e4150303357000000f2e3dfd702000000020001000000000000000100000000\
            00000000050000000000000001000000000100000000000000010000000100000000000000000500\
            000000000000ffff0000000001000000010000000300000000000000";
        for (magic, hex) in [(b"MCSNAP02", MCSNAP02), (b"MCSNAP03", MCSNAP03)] {
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            assert_eq!(&bytes[..8], magic);
            let (body, crc_ok) = unframe(&mut Cursor::new(&bytes[8..])).unwrap();
            assert!(crc_ok && !body.is_empty(), "an intact image of an earlier format");
            assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::BadMagic));
        }
    }

    fn own(seq: u32, loc: u32) -> OwnUpdate {
        let deps = seq.is_multiple_of(2).then(|| [seq, 1].into_iter().collect());
        OwnUpdate { seq, loc: Loc(loc), payload: UpdatePayload::Set(Value::Int(seq.into())), deps }
    }

    fn history(seqs: impl IntoIterator<Item = u32>) -> (Vec<OwnUpdate>, Vec<u8>) {
        let updates: Vec<OwnUpdate> = seqs.into_iter().map(|s| own(s, s % 5)).collect();
        let mut bytes = Vec::new();
        put_history(&mut bytes, &updates);
        (updates, bytes)
    }

    #[test]
    fn history_reads_back_the_prefix_asked_for() {
        let (updates, bytes) = history(1..=6);
        assert_eq!(decode_history(&bytes, u32::MAX), (updates.clone(), bytes.len()));
        let (prefix, len) = decode_history(&bytes, 4);
        assert_eq!(prefix, updates[..4]);
        let mut four = Vec::new();
        put_history(&mut four, &updates[..4]);
        assert_eq!(len, four.len(), "the prefix length is where a truncation cuts");
        assert_eq!(decode_history(&bytes, 0), (vec![], 0));
    }

    /// A torn frame, a failed CRC and a sequence number out of turn each
    /// end the history at the last good frame.
    #[test]
    fn history_stops_at_a_torn_frame_a_bad_crc_or_a_seq_gap() {
        let (updates, bytes) = history(1..=3);
        let two = {
            let mut b = Vec::new();
            put_history(&mut b, &updates[..2]);
            b.len()
        };
        let expect = (updates[..2].to_vec(), two);
        assert_eq!(decode_history(&bytes[..bytes.len() - 1], u32::MAX), expect, "torn");
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x10;
        assert_eq!(decode_history(&flipped, u32::MAX), expect, "bad crc");
        let (_, gap) = history([1, 2, 4, 5]);
        assert_eq!(decode_history(&gap, u32::MAX), expect, "seq gap");
        let (_, late) = history([2, 3]);
        assert_eq!(decode_history(&late, u32::MAX), (vec![], 0), "must start at seq 1");
        let (_, dup) = history([1, 2, 2]);
        assert_eq!(decode_history(&dup, u32::MAX), expect, "a write recorded twice");
    }

    #[test]
    fn memdisk_staged_vs_durable() {
        let mut d = MemDisk::new();
        let rec = WalRecord::Incarnation { incarnation: 1 }.encode();
        d.append(&rec);
        d.append(&rec);
        assert_eq!(d.staged_records(), 2);
        assert_eq!(d.load().1.len(), 0, "staged bytes are not durable");
        assert_eq!(d.sync(), 2);
        d.append(&rec);
        assert_eq!(d.crash(), 1, "the unsynced tail is lost");
        let (snap, log) = d.load();
        assert!(snap.is_none());
        let (recs, tail) = decode_wal(log);
        assert_eq!(recs.len(), 2);
        assert!(tail.is_clean());
    }

    #[test]
    fn memdisk_snapshot_truncates_log() {
        let mut d = MemDisk::new();
        d.append(&WalRecord::Incarnation { incarnation: 1 }.encode());
        d.sync();
        let snap = Snapshot { incarnation: 1, applied: VClock::new(1), ..Default::default() };
        let (_, tail) = history(1..=2);
        d.install_snapshot(snap.encode(), &tail);
        let (s, log) = d.load();
        assert!(log.is_empty());
        assert_eq!(Snapshot::decode(s.unwrap()).unwrap(), snap);
        assert_eq!(d.history(), tail, "the history tail commits with the snapshot");
    }

    #[test]
    fn memdisk_image_roundtrip() {
        let mut d = MemDisk::new();
        d.append(&WalRecord::Incarnation { incarnation: 2 }.encode());
        d.sync();
        let (updates, history) = history(1..=3);
        let snap = Snapshot { incarnation: 2, applied: VClock::new(1), ..Default::default() };
        d.install_snapshot(snap.encode(), &history);
        d.append(&WalRecord::Incarnation { incarnation: 3 }.encode());
        d.sync();
        d.append(&WalRecord::Incarnation { incarnation: 9 }.encode()); // staged: excluded
        let img = d.image();
        let back = MemDisk::from_image(&img).unwrap();
        assert_eq!(back.staged_records(), 0);
        let (s, log) = back.load();
        assert_eq!(Snapshot::decode(s.unwrap()), Ok(snap));
        assert_eq!(decode_history(back.history(), u32::MAX), (updates, history.len()));
        let (recs, tail) = decode_wal(log);
        assert!(tail.is_clean());
        assert_eq!(recs, vec![WalRecord::Incarnation { incarnation: 3 }]);
        assert_eq!(back.image(), img);
        // Every cut of the image short of its log is refused, not misread.
        let log_starts = img.len() - log.len();
        for cut in 0..log_starts {
            assert_eq!(MemDisk::from_image(&img[..cut]), None, "cut at {cut}");
        }
    }

    /// A fresh scratch directory per call.
    fn scratch_dir() -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mc-filedisk-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = scratch_dir();
        let mut d = FileDisk::open(&dir).unwrap();
        d.append(&WalRecord::Incarnation { incarnation: 1 }.encode()).unwrap();
        assert_eq!(d.staged_records(), 1);
        assert_eq!(d.sync().unwrap(), 1);
        let snap = Snapshot { incarnation: 1, applied: VClock::new(2), ..Default::default() };
        let (_, first) = history(1..=2);
        d.compact(&snap.encode(), &first).unwrap();
        d.append(
            &WalRecord::OwnWrite {
                loc: Loc(0),
                payload: UpdatePayload::Set(Value::Int(5)),
                deps: None,
            }
            .encode(),
        )
        .unwrap();
        d.sync().unwrap();
        drop(d);

        let (s, log) = FileDisk::load(&dir).unwrap();
        let s = s.unwrap();
        assert_eq!(Snapshot::decode(&s).unwrap(), snap);
        let (recs, tail) = decode_wal(&log);
        assert!(tail.is_clean());
        assert_eq!(recs.len(), 1, "compaction replaced the pre-snapshot log");
        let file = fs::read(dir.join("wal.log")).unwrap();
        let (written, zeros) = file.split_at(s.len() + log.len());
        assert_eq!(written, [&s[..], &log[..]].concat(), "one file");
        assert!(zeros.len() >= WAL_CHUNK - log.len() && zeros.iter().all(|&b| b == 0));
        assert!(!dir.join("wal.tmp").exists() && !dir.join("snapshot.bin").exists());
        assert_eq!(FileDisk::load_history(&dir).unwrap(), first);

        // Re-open appends after the existing tail.
        let mut d = FileDisk::open(&dir).unwrap();
        d.append(&WalRecord::Incarnation { incarnation: 2 }.encode()).unwrap();
        d.sync().unwrap();
        let (_, log) = FileDisk::load(&dir).unwrap();
        let (recs, tail) = decode_wal(&log);
        assert!(tail.is_clean());
        assert_eq!(recs.len(), 2);

        // The next compaction appends only its own tail; a truncation
        // cuts back to a prefix.
        let (updates, both) = history(1..=4);
        d.compact(&snap.encode(), &both[first.len()..]).unwrap();
        let on_disk = FileDisk::load_history(&dir).unwrap();
        assert_eq!(decode_history(&on_disk, u32::MAX), (updates, both.len()));
        d.truncate_history(first.len()).unwrap();
        assert_eq!(FileDisk::load_history(&dir).unwrap(), first);
        assert_eq!(FileDisk::load(&dir).unwrap().1, Vec::<u8>::new());

        fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory in the layout before the snapshot moved into
    /// `wal.log` is refused, not recovered from its log alone.
    #[test]
    fn filedisk_refuses_a_separate_snapshot_file() {
        let dir = scratch_dir();
        drop(FileDisk::open(&dir).unwrap());
        fs::write(dir.join("snapshot.bin"), b"MCSNAP03").unwrap();
        let err = FileDisk::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
