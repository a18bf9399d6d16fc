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
//! There is one disk, [`FileDisk`], written once over a small [`Fs`]
//! trait: `wal.log` headed by the snapshot and preallocated with written
//! zeros, so a per-write sync is a data-only `sync_data`; `history.log`
//! beside it; and one rename as the commit point of a compaction.
//! `mc-live` runs it on the real file system ([`StdFs`]); the simulator
//! runs it on [`CrashFs`], an in-memory file system that keeps across a
//! crash only what POSIX promises, so the code the explorer crashes is
//! the code that ships. Both recover through [`FileDisk::recover`].
//!
//! Both formats are truncation-tolerant: decoding stops at the first
//! torn or corrupt frame (for the history, also at a sequence gap) and
//! returns the valid prefix — a corrupt record is never applied. The
//! zero tail of a `wal.log` never reaches the decoder: [`FileDisk::load`]
//! returns only the written prefix.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Seek as _, Write as _};
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
// File systems
// ---------------------------------------------------------------------------

/// The file operations [`FileDisk`] is written against, so that one disk
/// runs on every executor: [`StdFs`] on the real file system (`mc-live`,
/// `mc-net`) and [`CrashFs`] in the simulator.
pub trait Fs {
    /// An open, writable file.
    type File: fmt::Debug;

    /// Reads `path` whole, or `None` if no file has that name.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;

    /// Opens `path` for writing, creating it empty if it does not exist
    /// (then `true`).
    fn create(&mut self, path: &Path) -> io::Result<(Self::File, bool)>;

    /// Creates `dir` and every missing parent.
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;

    /// Writes all of `buf` at byte `at`, extending the file if needed.
    fn write_at(&mut self, file: &mut Self::File, buf: &[u8], at: u64) -> io::Result<()>;

    /// Writes all of `buf` at the end of the file.
    fn append(&mut self, file: &mut Self::File, buf: &[u8]) -> io::Result<()>;

    /// Cuts the file to `len` bytes, or extends it with zeros.
    fn set_len(&mut self, file: &mut Self::File, len: u64) -> io::Result<()>;

    /// Makes the file's data durable: the bytes inside the size that is
    /// durable already. A file that changed size needs [`Fs::sync_all`].
    fn sync_data(&mut self, file: &mut Self::File) -> io::Result<()>;

    /// Makes the file's data and size durable.
    fn sync_all(&mut self, file: &mut Self::File) -> io::Result<()>;

    /// Renames `from` to `to`, replacing any file named `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Makes the names created or renamed in `dir` durable.
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
}

/// The real file system, through `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdFs;

impl Fs for StdFs {
    type File = fs::File;

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            read => read.map(Some),
        }
    }

    fn create(&mut self, path: &Path) -> io::Result<(fs::File, bool)> {
        let mut open = fs::OpenOptions::new();
        open.write(true);
        match open.clone().create_new(true).open(path) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok((open.open(path)?, false)),
            created => Ok((created?, true)),
        }
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn write_at(&mut self, file: &mut fs::File, buf: &[u8], at: u64) -> io::Result<()> {
        file.write_all_at(buf, at)
    }

    fn append(&mut self, file: &mut fs::File, buf: &[u8]) -> io::Result<()> {
        file.seek(io::SeekFrom::End(0))?;
        file.write_all(buf)
    }

    fn set_len(&mut self, file: &mut fs::File, len: u64) -> io::Result<()> {
        file.set_len(len)
    }

    fn sync_data(&mut self, file: &mut fs::File) -> io::Result<()> {
        file.sync_data()
    }

    fn sync_all(&mut self, file: &mut fs::File) -> io::Result<()> {
        file.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }
}

/// An in-memory [`Fs`] that keeps, across a crash, only what POSIX
/// promises. This is the persistence model of ALICE (Pillai et al., "All
/// File Systems Are Not Created Equal", OSDI 2014):
///
/// - a write or size change that no sync covers may be lost;
/// - an overwrite inside the file's durable size is durable after
///   [`Fs::sync_data`];
/// - a size change, and the bytes past the old size, only after
///   [`Fs::sync_all`];
/// - a created or renamed name only after [`Fs::sync_dir`].
///
/// [`CrashFs::crashed`] is the state in which every un-synced operation
/// is lost: the simulator's crash. [`CrashFs::crash_states`] is every
/// state the rules permit. Directories are not modelled: every one
/// exists. The simulator keeps one `CrashFs` per durable replica, with
/// the replica's files at its root (the directory `""`).
#[derive(Clone, Debug, Default)]
pub struct CrashFs {
    /// Names and file contents (by inode) as reads see them.
    names: BTreeMap<PathBuf, usize>,
    files: Vec<Vec<u8>>,
    /// Names and file contents as they survive every crash.
    durable_names: BTreeMap<PathBuf, usize>,
    durable: Vec<Vec<u8>>,
    /// The writes and size changes no sync has covered, oldest first.
    pending: Vec<Op>,
    /// Mutating operations issued so far.
    ops: usize,
    /// The operation count at which the power goes out.
    cut: Option<usize>,
}

/// A write or size change of one [`CrashFs`] file.
#[derive(Clone, Debug)]
enum Op {
    Write { ino: usize, at: usize, bytes: Data },
    SetLen { ino: usize, len: usize },
}

/// What a [`CrashFs`] write wrote: its bytes, or a run of zeros — a
/// log's preallocated chunk, kept without a buffer.
#[derive(Clone, Debug)]
enum Data {
    Owned(Vec<u8>),
    Zeros(usize),
}

impl Data {
    fn of(buf: &[u8]) -> Data {
        if buf.iter().all(|&b| b == 0) {
            Data::Zeros(buf.len())
        } else {
            Data::Owned(buf.to_vec())
        }
    }

    fn len(&self) -> usize {
        match self {
            Data::Owned(bytes) => bytes.len(),
            &Data::Zeros(n) => n,
        }
    }

    /// Writes the first `dst.len()` bytes into `dst`.
    fn copy_to(&self, dst: &mut [u8]) {
        match self {
            Data::Owned(bytes) => dst.copy_from_slice(&bytes[..dst.len()]),
            Data::Zeros(_) => dst.fill(0),
        }
    }

    /// Drops the first `n` bytes.
    fn advance(&mut self, n: usize) {
        match self {
            Data::Owned(bytes) => drop(bytes.drain(..n)),
            Data::Zeros(len) => *len -= n,
        }
    }
}

impl Op {
    fn ino(&self) -> usize {
        match self {
            Op::Write { ino, .. } | Op::SetLen { ino, .. } => *ino,
        }
    }

    fn apply(&self, files: &mut [Vec<u8>]) {
        match self {
            Op::Write { ino, at, bytes } => {
                let (file, end) = (&mut files[*ino], at + bytes.len());
                if file.len() < end {
                    file.resize(end, 0);
                }
                bytes.copy_to(&mut file[*at..end]);
            }
            Op::SetLen { ino, len } => files[*ino].resize(*len, 0),
        }
    }
}

impl CrashFs {
    /// A file system that holds `names` over `files`, all of it durable.
    fn at(names: BTreeMap<PathBuf, usize>, files: Vec<Vec<u8>>) -> CrashFs {
        let (durable_names, durable) = (names.clone(), files.clone());
        CrashFs { names, files, durable_names, durable, ..CrashFs::default() }
    }

    /// Counts one mutating operation, or fails it once the power is out.
    fn tick(&mut self) -> io::Result<()> {
        if self.cut.is_some_and(|cut| self.ops >= cut) {
            return Err(io::Error::other("the power is out"));
        }
        self.ops += 1;
        Ok(())
    }

    /// Applies `op` to what reads see; it survives every crash once a
    /// sync covers it.
    fn issue(&mut self, op: Op) -> io::Result<()> {
        self.tick()?;
        op.apply(&mut self.files);
        self.pending.push(op);
        Ok(())
    }

    /// Mutating operations issued so far.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Cuts the power after `ops` more mutating operations: every later
    /// one fails and changes nothing.
    pub fn cut_power_after(&mut self, ops: usize) {
        self.cut = Some(self.ops.saturating_add(ops));
    }

    /// The state after a crash that loses every un-synced operation.
    pub fn crashed(&self) -> CrashFs {
        CrashFs::at(self.durable_names.clone(), self.durable.clone())
    }

    /// Every distinct state a crash may leave: any subset of the pending
    /// writes and size changes, each whole, over the durable contents,
    /// with the durable names or with the names as reads see them.
    ///
    /// # Panics
    ///
    /// Panics if more than 12 operations are pending.
    pub fn crash_states(&self) -> Vec<CrashFs> {
        let n = self.pending.len();
        assert!(n <= 12, "{n} un-synced operations: too many crash states to list");
        let mut states: Vec<CrashFs> = Vec::new();
        for kept in 0..1u32 << n {
            let mut files = self.durable.clone();
            let kept_ops = self.pending.iter().enumerate().filter(|(i, _)| kept >> i & 1 == 1);
            kept_ops.for_each(|(_, op)| op.apply(&mut files));
            for names in [&self.durable_names, &self.names] {
                let state = CrashFs::at(names.clone(), files.clone());
                if !states.iter().any(|s| s.view().eq(state.view())) {
                    states.push(state);
                }
            }
        }
        states
    }

    /// Each name with the contents of its file, as reads see them.
    fn view(&self) -> impl Iterator<Item = (&PathBuf, &Vec<u8>)> {
        self.names.iter().map(|(name, &ino)| (name, &self.files[ino]))
    }

    /// The durable files, for a repro artifact: per file `name_len:u32 |
    /// name | len:u32 | kept:u32 | bytes`, where the `len - kept` bytes
    /// not written out are zeros.
    pub fn image(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (name, file) in self.crashed().view() {
            let name = name.to_string_lossy();
            let kept = file.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            out.put_u32_le(name.len() as u32);
            out.put_slice(name.as_bytes());
            out.put_u32_le(file.len() as u32);
            out.put_u32_le(kept as u32);
            out.put_slice(&file[..kept]);
        }
        out
    }

    /// Rebuilds a file system from a [`CrashFs::image`], or `None` if the
    /// bytes are not one.
    pub fn from_image(bytes: &[u8]) -> Option<CrashFs> {
        let (mut cur, mut names, mut files) = (Cursor::new(bytes), BTreeMap::new(), Vec::new());
        while cur.remaining() > 0 {
            let n = cur.u32().ok()? as usize;
            let name = std::str::from_utf8(cur.take(n).ok()?).ok()?;
            let (len, kept) = (cur.u32().ok()? as usize, cur.u32().ok()? as usize);
            // A disk's zero tail is shorter than a chunk: a longer one is
            // not an image, and is never allocated.
            if len < kept || len - kept > WAL_CHUNK {
                return None;
            }
            let mut file = cur.take(kept).ok()?.to_vec();
            file.resize(len, 0);
            names.insert(name.into(), files.len());
            files.push(file);
        }
        Some(CrashFs::at(names, files))
    }
}

impl Fs for CrashFs {
    type File = usize;

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        Ok(self.names.get(path).map(|&ino| self.files[ino].clone()))
    }

    fn create(&mut self, path: &Path) -> io::Result<(usize, bool)> {
        if let Some(&ino) = self.names.get(path) {
            return Ok((ino, false));
        }
        self.tick()?;
        self.files.push(Vec::new());
        self.durable.push(Vec::new());
        self.names.insert(path.to_path_buf(), self.files.len() - 1);
        Ok((self.files.len() - 1, true))
    }

    fn create_dir_all(&mut self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn write_at(&mut self, &mut ino: &mut usize, buf: &[u8], at: u64) -> io::Result<()> {
        self.issue(Op::Write { ino, at: at as usize, bytes: Data::of(buf) })
    }

    fn append(&mut self, &mut ino: &mut usize, buf: &[u8]) -> io::Result<()> {
        let at = self.files[ino].len();
        self.issue(Op::Write { ino, at, bytes: Data::of(buf) })
    }

    fn set_len(&mut self, &mut ino: &mut usize, len: u64) -> io::Result<()> {
        self.issue(Op::SetLen { ino, len: len as usize })
    }

    fn sync_data(&mut self, &mut ino: &mut usize) -> io::Result<()> {
        self.tick()?;
        let durable = &mut self.durable[ino];
        let size = durable.len();
        self.pending.retain_mut(|op| match op {
            Op::Write { ino: i, at, bytes } if *i == ino && *at < size => {
                let inside = bytes.len().min(size - *at);
                bytes.copy_to(&mut durable[*at..*at + inside]);
                bytes.advance(inside);
                *at += inside;
                bytes.len() > 0
            }
            _ => true,
        });
        Ok(())
    }

    fn sync_all(&mut self, &mut ino: &mut usize) -> io::Result<()> {
        self.tick()?;
        let (synced, pending): (Vec<Op>, _) =
            std::mem::take(&mut self.pending).into_iter().partition(|op| op.ino() == ino);
        synced.iter().for_each(|op| op.apply(&mut self.durable));
        self.pending = pending;
        debug_assert_eq!(self.durable[ino], self.files[ino], "a synced file reads as it is");
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let ino = self.names.get(from).copied().ok_or(io::ErrorKind::NotFound)?;
        self.tick()?;
        self.names.remove(from);
        self.names.insert(to.to_path_buf(), ino);
        Ok(())
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        self.tick()?;
        let in_dir = |name: &PathBuf| name.parent() == Some(dir);
        self.durable_names.retain(|name, _| !in_dir(name));
        let names = self.names.iter().filter(|(name, _)| in_dir(name));
        self.durable_names.extend(names.map(|(name, &ino)| (name.clone(), ino)));
        // A file no name reaches any more holds nothing worth keeping.
        for ino in 0..self.files.len() {
            let named = |names: &BTreeMap<PathBuf, usize>| names.values().any(|&i| i == ino);
            if !named(&self.names) && !named(&self.durable_names) {
                (self.files[ino], self.durable[ino]) = (Vec::new(), Vec::new());
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The disk
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

/// A per-replica disk directory on file system `F`: `wal.log`, whose
/// first frame is the installed snapshot (if any) and the rest the
/// records logged since, and the append-only `history.log`. Records
/// appended but not yet synced may or may not survive a crash, and
/// recovery tolerates either via the truncation-tolerant decoders.
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
pub struct FileDisk<F: Fs = StdFs> {
    fs: F,
    dir: PathBuf,
    wal: F::File,
    history: F::File,
    /// Where the next record goes: just past the last valid frame.
    end: u64,
    /// The length of `wal.log`; every byte in `end..len` is zero.
    len: u64,
    /// The file's size changed since its last sync, which must flush it.
    resized: bool,
    staged_records: u64,
    full_syncs: u64,
}

/// What a replica directory held when [`FileDisk::recover`] opened it,
/// for [`ProcNode::recover`](crate::ProcNode::recover) to rebuild from.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The installed snapshot, if any.
    pub snapshot: Option<Vec<u8>>,
    /// The own-write history segment.
    pub history: Vec<u8>,
    /// The log's valid record prefix.
    pub records: Vec<WalRecord>,
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

/// [`FileDisk::load`] on `fs`. A log frame never starts with the
/// snapshot magic (its length field would read 1.3 GB), so the magic
/// tells the snapshot and the log apart.
fn load(fs: &impl Fs, dir: &Path) -> io::Result<(Option<Vec<u8>>, Vec<u8>)> {
    if fs.read(&dir.join("snapshot.bin"))?.is_some() {
        let msg = format!("{}: snapshot.bin is from an earlier format", dir.display());
        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    }
    let mut bytes = fs.read(&dir.join("wal.log"))?.unwrap_or_default();
    let extent = Extent::of(&bytes);
    bytes.truncate(extent.written);
    let log = bytes.split_off(extent.log);
    Ok(((extent.log > 0).then_some(bytes), log))
}

impl FileDisk {
    /// [`FileDisk::open_on`] the real file system.
    pub fn open(dir: &Path) -> io::Result<FileDisk> {
        FileDisk::open_on(StdFs, dir)
    }

    /// What recovery reads from `dir`: the installed snapshot (if any)
    /// and the written log bytes after it — never the zero tail, so
    /// [`decode_wal`] sees the bytes of an EOF-terminated log.
    ///
    /// # Errors
    ///
    /// Besides I/O errors, refuses a directory that still holds a
    /// `snapshot.bin` — the layout before the snapshot moved into
    /// `wal.log` — rather than recover from its log alone.
    pub fn load(dir: &Path) -> io::Result<(Option<Vec<u8>>, Vec<u8>)> {
        load(&StdFs, dir)
    }

    /// The own-write history segment of `dir` (`history.log`).
    pub fn load_history(dir: &Path) -> io::Result<Vec<u8>> {
        Ok(StdFs.read(&dir.join("history.log"))?.unwrap_or_default())
    }
}

impl<F: Fs> FileDisk<F> {
    /// Opens (creating if needed) the replica directory `dir` on `fs`,
    /// ready to append right after the last valid frame of its log.
    /// Whatever follows that frame is cut, and a log left with no zero
    /// tail (new, cut, or written before preallocation) gains one chunk;
    /// a log this changes is synced before `open_on` returns (counted in
    /// [`FileDisk::take_full_syncs`]). When it creates the directory or
    /// a file in it, it syncs the directory and its parent too.
    ///
    /// A corrupt frame is cut like a torn one: recovery, which must
    /// refuse corruption, opens through [`FileDisk::recover`].
    pub fn open_on(mut fs: F, dir: &Path) -> io::Result<FileDisk<F>> {
        fs.create_dir_all(dir)?;
        let bytes = fs.read(&dir.join("wal.log"))?.unwrap_or_default();
        let valid = Extent::of(&bytes).valid;
        let (wal, new_wal) = fs.create(&dir.join("wal.log"))?;
        let (history, new_history) = fs.create(&dir.join("history.log"))?;
        let mut disk = FileDisk {
            fs,
            dir: dir.to_path_buf(),
            wal,
            history,
            end: valid as u64,
            len: bytes.len() as u64,
            resized: false,
            staged_records: 0,
            full_syncs: 0,
        };
        if bytes[valid..].iter().any(|&b| b != 0) {
            disk.fs.set_len(&mut disk.wal, disk.end)?;
            disk.len = disk.end;
            disk.resized = true;
        }
        disk.reserve(disk.end + 1)?;
        if disk.resized {
            disk.sync()?;
        }
        if new_wal || new_history {
            disk.fs.sync_all(&mut disk.history)?;
            disk.fs.sync_dir(dir)?;
            let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
            disk.fs.sync_dir(parent.unwrap_or(Path::new(".")))?;
        }
        Ok(disk)
    }

    /// Opens `dir` for a node to recover from: the one recovery path of
    /// every executor. It loads the snapshot, history and log, decodes
    /// the log and refuses a corrupt frame, and only then opens the
    /// directory, which cuts a torn tail so that the reborn node appends
    /// right after the valid prefix. Returns the open disk and, unless
    /// the directory held nothing, what the node rebuilds from.
    ///
    /// # Errors
    ///
    /// I/O errors, a directory in an earlier layout (see
    /// [`FileDisk::load`]), and a log with a corrupt frame
    /// ([`WalTail::Corrupt`], as `InvalidData`): a CRC failure with
    /// written bytes behind it would make durable records vanish.
    pub fn recover(fs: F, dir: &Path) -> io::Result<(FileDisk<F>, Option<Recovery>)> {
        let (snapshot, log) = load(&fs, dir)?;
        let history = fs.read(&dir.join("history.log"))?.unwrap_or_default();
        let held = snapshot.is_some() || !log.is_empty() || !history.is_empty();
        let (records, tail) = decode_wal(&log);
        if let WalTail::Corrupt { at } = tail {
            let msg = format!("{}: wal.log has a corrupt frame at byte {at}", dir.display());
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let disk = FileDisk::open_on(fs, dir)?;
        Ok((disk, held.then_some(Recovery { snapshot, history, records })))
    }

    /// The replica directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file system the directory is on.
    pub fn fs(&self) -> &F {
        &self.fs
    }

    /// Extends `wal.log` with zero chunks until it is at least `need`
    /// bytes long.
    fn reserve(&mut self, need: u64) -> io::Result<()> {
        while self.len < need {
            self.fs.write_at(&mut self.wal, &ZEROS, self.len)?;
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
        self.fs.write_at(&mut self.wal, frame, self.end)?;
        self.end = next;
        self.staged_records += 1;
        Ok(())
    }

    /// Syncs the log: `sync_data`, or `sync_all` if the file grew since
    /// the last sync. Returns the number of records covered by this sync.
    pub fn sync(&mut self) -> io::Result<u64> {
        if self.resized {
            self.fs.sync_all(&mut self.wal)?;
            self.resized = false;
            self.full_syncs += 1;
        } else {
            self.fs.sync_data(&mut self.wal)?;
        }
        Ok(std::mem::take(&mut self.staged_records))
    }

    /// Number of appended-but-not-synced records.
    pub fn staged_records(&self) -> u64 {
        self.staged_records
    }

    /// The syncs since the last call that had to flush the log's size
    /// too: the one [`FileDisk::open_on`] makes when it creates, cuts or
    /// extends the log, and the first after an append extended it.
    pub fn take_full_syncs(&mut self) -> u64 {
        std::mem::take(&mut self.full_syncs)
    }

    /// Compacts: makes the `history` tail ([`put_history`] frames)
    /// durable in `history.log`, writes `snapshot` and one zero chunk to
    /// a fresh `wal.tmp` and syncs it, then renames it over `wal.log` —
    /// the one commit point — and syncs the directory so that the
    /// rename, and with it every record appended to the new log,
    /// survives power loss too. The old log is synced first only if it
    /// has staged records.
    pub fn compact(&mut self, snapshot: &[u8], history: &[u8]) -> io::Result<()> {
        if self.staged_records > 0 {
            self.sync()?;
        }
        self.append_history(history)?;
        let tmp = self.dir.join("wal.tmp");
        let (mut wal, created) = self.fs.create(&tmp)?;
        if !created {
            self.fs.set_len(&mut wal, 0)?;
        }
        self.fs.write_at(&mut wal, snapshot, 0)?;
        self.fs.write_at(&mut wal, &ZEROS, snapshot.len() as u64)?;
        self.fs.sync_all(&mut wal)?;
        self.fs.rename(&tmp, &self.dir.join("wal.log"))?;
        self.fs.sync_dir(&self.dir)?;
        self.wal = wal;
        self.end = snapshot.len() as u64;
        self.len = self.end + WAL_CHUNK as u64;
        self.resized = false;
        Ok(())
    }

    /// Appends `history` to `history.log` and makes it durable.
    fn append_history(&mut self, history: &[u8]) -> io::Result<()> {
        if history.is_empty() {
            return Ok(());
        }
        self.fs.append(&mut self.history, history)?;
        self.fs.sync_all(&mut self.history)
    }

    /// [`FileDisk::compact`] with no history tail.
    pub fn install_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        self.compact(snapshot, &[])
    }

    /// Cuts `history.log` to its first `len` bytes (and syncs): recovery
    /// drops what lies past the prefix the snapshot covers.
    pub fn truncate_history(&mut self, len: usize) -> io::Result<()> {
        self.fs.set_len(&mut self.history, len as u64)?;
        self.fs.sync_all(&mut self.history)
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

    /// A fresh simulated replica directory: a [`CrashFs`] with the
    /// replica's files at its root.
    fn crash_disk() -> FileDisk<CrashFs> {
        FileDisk::open_on(CrashFs::default(), Path::new("")).unwrap()
    }

    /// What recovery reads after the crash that loses every un-synced
    /// operation: `(snapshot, log, history)`.
    fn crash_load(d: &FileDisk<CrashFs>) -> (Option<Vec<u8>>, Vec<u8>, Vec<u8>) {
        let fs = d.fs().crashed();
        let (snapshot, log) = load(&fs, Path::new("")).unwrap();
        (snapshot, log, fs.read(Path::new("history.log")).unwrap().unwrap_or_default())
    }

    #[test]
    fn crashfs_staged_vs_durable() {
        let mut d = crash_disk();
        let rec = WalRecord::Incarnation { incarnation: 1 }.encode();
        d.append(&rec).unwrap();
        d.append(&rec).unwrap();
        assert_eq!(d.staged_records(), 2);
        assert_eq!(crash_load(&d).1.len(), 0, "staged bytes are not durable");
        assert_eq!(d.sync().unwrap(), 2);
        d.append(&rec).unwrap();
        assert_eq!(d.staged_records(), 1, "the unsynced tail is lost");
        let (snap, log, _) = crash_load(&d);
        assert!(snap.is_none());
        let (recs, tail) = decode_wal(&log);
        assert_eq!(recs.len(), 2);
        assert!(tail.is_clean());
    }

    #[test]
    fn crashfs_compaction_truncates_log() {
        let mut d = crash_disk();
        d.append(&WalRecord::Incarnation { incarnation: 1 }.encode()).unwrap();
        d.sync().unwrap();
        let snap = Snapshot { incarnation: 1, applied: VClock::new(1), ..Default::default() };
        let (_, tail) = history(1..=2);
        d.compact(&snap.encode(), &tail).unwrap();
        let (s, log, history) = crash_load(&d);
        assert!(log.is_empty());
        assert_eq!(Snapshot::decode(&s.unwrap()).unwrap(), snap);
        assert_eq!(history, tail, "the history tail commits with the snapshot");
    }

    #[test]
    fn crashfs_image_roundtrip() {
        let mut d = crash_disk();
        d.append(&WalRecord::Incarnation { incarnation: 2 }.encode()).unwrap();
        d.sync().unwrap();
        let (updates, history) = history(1..=3);
        let snap = Snapshot { incarnation: 2, applied: VClock::new(1), ..Default::default() };
        d.compact(&snap.encode(), &history).unwrap();
        d.append(&WalRecord::Incarnation { incarnation: 3 }.encode()).unwrap();
        d.sync().unwrap();
        d.append(&WalRecord::Incarnation { incarnation: 9 }.encode()).unwrap(); // staged: excluded
        let img = d.fs().image();
        let (back, found) =
            FileDisk::recover(CrashFs::from_image(&img).unwrap(), Path::new("")).unwrap();
        assert_eq!(back.staged_records(), 0);
        let found = found.expect("the image holds state");
        assert_eq!(Snapshot::decode(found.snapshot.as_deref().unwrap()), Ok(snap));
        assert_eq!(decode_history(&found.history, u32::MAX), (updates, history.len()));
        assert_eq!(found.records, vec![WalRecord::Incarnation { incarnation: 3 }]);
        assert_eq!(back.fs().image(), img);
        // Every cut of the image inside a file is refused, not misread.
        let whole: Vec<usize> =
            (0..=img.len()).filter(|&cut| CrashFs::from_image(&img[..cut]).is_some()).collect();
        assert_eq!(whole.len(), 3, "an empty image, one file, both files: {whole:?}");
        assert_eq!((whole[0], whole[2]), (0, img.len()));
    }

    /// The four persistence rules, one at a time: an operation no sync
    /// covers may be lost, an overwrite inside the durable size is durable
    /// after `sync_data`, a size change only after `sync_all`, a name only
    /// after `sync_dir`.
    #[test]
    fn crashfs_keeps_only_what_a_sync_made_durable() {
        let (dir, a, b) = (Path::new("d"), Path::new("d/a"), Path::new("d/b"));
        let survivors = |fs: &CrashFs, path| -> Vec<Option<Vec<u8>>> {
            fs.crash_states().iter().map(|s| s.read(path).unwrap()).collect()
        };
        let mut fs = CrashFs::default();
        let (mut f, created) = fs.create(a).unwrap();
        assert!(created);
        fs.write_at(&mut f, b"hello", 0).unwrap();
        assert_eq!(fs.read(a).unwrap().as_deref(), Some(&b"hello"[..]), "reads see it at once");
        assert_eq!(fs.crashed().read(a).unwrap(), None);
        assert_eq!(survivors(&fs, a), [None, Some(vec![]), Some(b"hello".to_vec())]);
        fs.sync_data(&mut f).unwrap();
        fs.sync_dir(dir).unwrap();
        assert_eq!(fs.crashed().read(a).unwrap(), Some(vec![]), "a name, but no size yet");
        fs.sync_all(&mut f).unwrap();
        assert_eq!(fs.crashed().read(a).unwrap(), Some(b"hello".to_vec()));
        fs.write_at(&mut f, b"J", 0).unwrap();
        fs.write_at(&mut f, b"!", 5).unwrap();
        fs.sync_data(&mut f).unwrap();
        assert_eq!(fs.crashed().read(a).unwrap(), Some(b"Jello".to_vec()), "inside the size");
        assert_eq!(survivors(&fs, a), [Some(b"Jello".to_vec()), Some(b"Jello!".to_vec())]);
        fs.sync_all(&mut f).unwrap();
        fs.rename(a, b).unwrap();
        assert_eq!((fs.read(a).unwrap(), fs.read(b).unwrap().is_some()), (None, true));
        assert_eq!(survivors(&fs, b), [None, Some(b"Jello!".to_vec())]);
        fs.sync_dir(dir).unwrap();
        assert_eq!(fs.crashed().read(b).unwrap(), Some(b"Jello!".to_vec()));
        assert_eq!(fs.crashed().read(a).unwrap(), None);
        // Once the power is out, nothing changes any more.
        let ops = fs.ops();
        fs.cut_power_after(1);
        fs.write_at(&mut f, b"h", 0).unwrap();
        assert!(fs.write_at(&mut f, b"x", 0).is_err() && fs.sync_all(&mut f).is_err());
        assert_eq!(fs.ops(), ops + 1);
        assert_eq!(fs.read(b).unwrap(), Some(b"hello!".to_vec()));
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
