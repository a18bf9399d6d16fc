//! The own-write history segment: a snapshot holds only live state, and
//! each compaction appends to the history just the own writes minted
//! since the previous one.
//!
//! 1. A snapshot's size does not depend on how many writes came before.
//! 2. Over many compactions and a recovery, on the simulator's
//!    `CrashFs` and in a real directory, the history holds
//!    each own write exactly once, in sequence order, and the reborn
//!    replica answers `writes_after` exactly as before the crash.
//! 3. A `FileDisk` compaction cut short before its commit point leaves
//!    a history tail past the snapshot; recovery cuts it off, and the
//!    next compactions append each write once again.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mc_model::{Loc, ModelSpec, ProcId, Value, WriteId};
use mc_proto::durability::{decode_history, put_history};
use mc_proto::{
    CrashFs, DsmConfig, DurabilityPolicy, FileDisk, Fs, Msg, NodeIo, ProcNode, Recovery, Replica,
    Req, Resp, StdFs, UpdatePayload, WalRecord,
};
use mc_sim::{NodeId, Poll, SimTime};

#[test]
fn a_snapshot_does_not_grow_with_the_own_write_count() {
    let cfg =
        DsmConfig::new(2, ModelSpec::CAUSAL).with_durability(Some(DurabilityPolicy::default()));
    let mut r = Replica::new(ProcId(0), 2);
    let mut sizes = Vec::new();
    for i in 0..100_000u32 {
        r.local_write(Loc(i % 32), UpdatePayload::Set(Value::Int(i.into())), &cfg);
        if i + 1 == 100 || i + 1 == 100_000 {
            sizes.push(r.to_snapshot(Vec::new()).encode().len());
        }
    }
    assert_eq!(r.own_updates().len(), 100_000, "the history itself is kept");
    assert_eq!(sizes[0], sizes[1], "snapshot bytes after 100 and after 100 000 own writes");
}

/// A replica directory under the system temp dir, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Dir {
        let path = std::env::temp_dir().join(format!("mc-history-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        Dir(path)
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A node's I/O over one disk; messages go nowhere. Records the size of
/// every history tail a compaction handed over.
struct OnDisk<F: Fs> {
    disk: FileDisk<F>,
    tails: Vec<usize>,
    /// What a crash keeps of the file system: on the simulator's
    /// `CrashFs`, only what a sync made durable; in a real directory,
    /// everything (a killed process leaves the page cache behind).
    power_loss: fn(&F) -> F,
}

impl<F: Fs> OnDisk<F> {
    fn new(fs: F, dir: &Path, power_loss: fn(&F) -> F) -> OnDisk<F> {
        let disk = FileDisk::open_on(fs, dir).expect("replica dir opens");
        OnDisk { disk, tails: Vec::new(), power_loss }
    }

    /// Power loss, then the recovery every executor runs: the disk
    /// reopens and hands back what the node rebuilds from.
    fn crash(&mut self) -> Recovery {
        let fs = (self.power_loss)(self.disk.fs());
        let (mut disk, found) = FileDisk::recover(fs, self.disk.dir()).expect("recovers");
        assert_eq!(disk.take_full_syncs(), 0, "the log ended clean: opening it cut nothing");
        self.disk = disk;
        found.unwrap_or_default()
    }
}

impl<F: Fs> NodeIo for OnDisk<F> {
    fn send(&mut self, _to: NodeId, _kind: &'static str, _msg: Msg) {}

    fn arm_timer(&mut self, _delay: SimTime, _token: u64) {}

    fn link_idle(&mut self, _to: NodeId) -> bool {
        true
    }

    fn wal_append(&mut self, frame: &[u8]) {
        self.disk.append(frame).expect("append");
    }

    fn wal_sync(&mut self) {
        self.disk.sync().expect("sync");
    }

    fn install_snapshot(&mut self, snapshot: Vec<u8>, history: &[u8]) {
        self.tails.push(history.len());
        self.disk.compact(&snapshot, history).expect("compaction");
    }

    fn truncate_history(&mut self, len: usize) {
        self.disk.truncate_history(len).expect("history truncates");
    }
}

fn config() -> Arc<DsmConfig> {
    let cfg = DsmConfig::new(2, ModelSpec::CAUSAL).with_durability(Some(DurabilityPolicy::new(8)));
    Arc::new(cfg)
}

/// `n` operations by process 0 — writes and counter updates over seven
/// locations — with a remote update from process 1 after every fifth,
/// so the own writes carry vectors that name the peer.
fn run<F: Fs>(node: &mut ProcNode, io: &mut OnDisk<F>, n: u32) {
    for i in 0..n {
        let loc = Loc(i % 7);
        let req = match i % 3 {
            0 => Req::Update { loc, delta: Value::Int(1) },
            _ => Req::Write { loc, value: Value::Int(i.into()) },
        };
        assert!(matches!(node.start(req, io), Poll::Ready(Resp::Wrote { .. })));
        if i % 5 == 4 {
            let seq = node.replica().applied[ProcId(1)] + 1;
            let deps = Some([0, seq].into_iter().collect());
            let payload = UpdatePayload::Set(Value::Int(-i64::from(seq)));
            let update = Msg::Update { writer: WriteId::new(ProcId(1), seq), loc, payload, deps };
            node.on_message(NodeId(1), update, io);
        }
    }
}

const AFTER: [u32; 6] = [0, 1, 17, 64, 99, 100];

/// What the node re-ships to a peer that has its first `k` writes, for
/// each `k` in [`AFTER`], as comparable records (a record compares by
/// its encoding).
fn answers(node: &ProcNode) -> Vec<Vec<WalRecord>> {
    let r = node.replica();
    AFTER
        .iter()
        .map(|&k| r.writes_after(&[(0, k)]).into_iter().map(WalRecord::Ingest).collect())
        .collect()
}

/// The history on disk holds own writes `1..=n` once each, in order, and
/// nothing else; `n` is what the last compaction covered.
fn assert_history_is_exact(history: &[u8], tails: &[usize], node: &ProcNode) {
    let (updates, len) = decode_history(history, u32::MAX);
    assert_eq!(len, history.len(), "every history byte is a frame in sequence");
    let seqs: Vec<u32> = updates.iter().map(|u| u.seq).collect();
    assert_eq!(seqs, (1..=updates.len() as u32).collect::<Vec<_>>(), "contiguous, once each");
    assert_eq!(updates, node.replica().own_updates()[..updates.len()], "the writes themselves");
    assert_eq!(tails.iter().sum::<usize>(), history.len(), "compactions appended only tails");
}

/// Crashes the disk under `io` and rebuilds process 0 from it.
fn reborn<F: Fs>(io: &mut OnDisk<F>) -> ProcNode {
    let found = io.crash();
    let mut node = ProcNode::new(ProcId(0), config());
    node.recover(found, io);
    node
}

fn compactions_then_recovery<F: Fs>(fs: F, dir: &Path, power_loss: fn(&F) -> F) {
    let mut io = OnDisk::new(fs, dir, power_loss);
    let mut node = ProcNode::new(ProcId(0), config());
    run(&mut node, &mut io, 100);
    assert!(io.tails.len() >= 10, "{} compactions", io.tails.len());
    // No tail carries more than the writes since the previous compaction.
    let mut one = Vec::new();
    put_history(&mut one, &node.replica().own_updates()[..1]);
    assert!(io.tails.iter().all(|&t| t <= 8 * (one.len() + 8)), "{:?}", io.tails);
    let before = answers(&node);
    let own = node.replica().own_count();

    let mut node = reborn(&mut io);
    let history = io.crash().history;
    assert_history_is_exact(&history, &io.tails, &node);
    assert_eq!(node.replica().own_count(), own);
    assert_eq!(answers(&node), before, "writes_after answers as before the crash");

    // The reborn node keeps compacting where the history left off.
    run(&mut node, &mut io, 60);
    let before = answers(&node);
    let node = reborn(&mut io);
    let history = io.crash().history;
    assert_history_is_exact(&history, &io.tails, &node);
    assert_eq!(node.replica().own_count(), own + 60);
    assert_eq!(answers(&node), before);
}

#[test]
fn compactions_write_each_own_write_once_on_a_crashfs() {
    compactions_then_recovery(CrashFs::default(), Path::new(""), CrashFs::crashed);
}

#[test]
fn compactions_write_each_own_write_once_in_a_directory() {
    let dir = Dir::new("once");
    compactions_then_recovery(StdFs, &dir.0, |_| StdFs);
}

/// A compaction that appended its history tail but died before the
/// rename that commits it: recovery reads the old log, cuts the history
/// back to the prefix the old snapshot covers, and the next compaction
/// appends each write once.
#[test]
fn a_history_tail_past_the_snapshot_is_cut_at_recovery() {
    let dir = Dir::new("window");
    let path = dir.0.clone();
    let mut io = OnDisk::new(StdFs, &path, |_| StdFs);
    let mut node = ProcNode::new(ProcId(0), config());
    run(&mut node, &mut io, 43);
    let covered = io.tails.iter().sum::<usize>();
    // Stage the next compaction by hand, then undo its commit.
    let log = fs::read(path.join("wal.log")).expect("log reads");
    let history = FileDisk::load_history(&path).expect("history loads");
    assert_eq!(history.len(), covered);
    let (persisted, _) = decode_history(&history, u32::MAX);
    let own = node.replica().own_updates();
    assert!(own.len() > persisted.len(), "the log holds own writes past the last compaction");
    let mut tail = Vec::new();
    put_history(&mut tail, &own[persisted.len()..]);
    let snapshot = node.replica().to_snapshot(Vec::new()).encode();
    io.disk.compact(&snapshot, &tail).expect("compaction");
    fs::write(path.join("wal.log"), &log).expect("the old log comes back");
    assert_eq!(FileDisk::load_history(&path).unwrap().len(), covered + tail.len());

    let before = answers(&node);
    let mut node = reborn(&mut io);
    assert_eq!(FileDisk::load_history(&path).unwrap().len(), covered, "the tail is cut off");
    assert_eq!(answers(&node), before);
    run(&mut node, &mut io, 30);
    let history = io.crash().history;
    assert_history_is_exact(&history, &io.tails, &node);
}
