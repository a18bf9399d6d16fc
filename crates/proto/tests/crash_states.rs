//! Every state a crash can leave a replica directory in, over one chunk
//! growth of `wal.log` and one compaction.
//!
//! A durable replica runs the shipped `FileDisk` on a `CrashFs` and acks
//! its own writes one sync each. The power is cut after each file-system
//! operation in turn; from every state the cut permits (any subset of the
//! un-synced writes, under the names as last synced or as last changed),
//! the one recovery path every executor takes rebuilds the replica, and:
//!
//! - no acked write is lost, and none is invented: the own count is
//!   between the acked and the attempted writes;
//! - the own writes and the `writes_after` answers are exactly those of
//!   an uncrashed replica with that many writes;
//! - the reborn replica's next write survives a second crash.

use std::path::Path;
use std::sync::Arc;

use mc_model::{Loc, ModelSpec, ProcId, Value};
use mc_proto::durability::WAL_CHUNK;
use mc_proto::{
    CrashFs, DsmConfig, DurabilityPolicy, FileDisk, Fs as _, Msg, NodeIo, ProcNode, Req, Resp,
    WalRecord,
};
use mc_sim::{NodeId, Poll, SimTime};

/// Processes: each own-write record carries a clock this wide, so a
/// 16 KiB chunk fills after about twenty records.
const NPROCS: usize = 200;
/// Own writes between two compactions: more than a chunk holds.
const EVERY: u32 = 24;
/// Own writes in one run: past the compaction.
const WRITES: u32 = EVERY + 4;

fn config() -> Arc<DsmConfig> {
    let policy = DurabilityPolicy::new(EVERY);
    Arc::new(DsmConfig::new(NPROCS, ModelSpec::CAUSAL).with_durability(Some(policy)))
}

/// A replica's I/O over a `CrashFs` disk whose power may go out; messages
/// go nowhere. Counts the compactions.
struct Powered {
    disk: FileDisk<CrashFs>,
    on: bool,
    compactions: u32,
}

impl Powered {
    fn new(disk: FileDisk<CrashFs>) -> Powered {
        Powered { disk, on: true, compactions: 0 }
    }

    /// The length of `wal.log` as reads see it.
    fn log_len(&self) -> usize {
        let log = self.disk.fs().read(Path::new("wal.log")).expect("reads");
        log.map_or(0, |log| log.len())
    }
}

impl NodeIo for Powered {
    fn send(&mut self, _to: NodeId, _kind: &'static str, _msg: Msg) {}

    fn arm_timer(&mut self, _delay: SimTime, _token: u64) {}

    fn link_idle(&mut self, _to: NodeId) -> bool {
        true
    }

    fn wal_append(&mut self, frame: &[u8]) {
        self.on &= self.disk.append(frame).is_ok();
    }

    fn wal_sync(&mut self) {
        self.on &= self.disk.sync().is_ok();
    }

    fn install_snapshot(&mut self, snapshot: Vec<u8>, history: &[u8]) {
        self.on &= self.disk.compact(&snapshot, history).is_ok();
        self.compactions += 1;
    }

    fn truncate_history(&mut self, len: usize) {
        self.on &= self.disk.truncate_history(len).is_ok();
    }
}

/// Own write `i`: an overwrite or, every third, a counter update.
fn op(i: u32) -> Req {
    let loc = Loc(i % 5);
    match i % 3 {
        0 => Req::Update { loc, delta: Value::Int(1) },
        _ => Req::Write { loc, value: Value::Int(i.into()) },
    }
}

/// Issues own write `i`; `true` if it was acked with the power on.
fn write(node: &mut ProcNode, io: &mut Powered, i: u32) -> bool {
    assert!(matches!(node.start(op(i), io), Poll::Ready(Resp::Wrote { .. })));
    io.on
}

/// What the replica re-ships to a peer that has its first `k` writes, for
/// every `k` up to its own count, as comparable records.
fn answers(node: &ProcNode) -> Vec<Vec<WalRecord>> {
    let r = node.replica();
    (0..=r.own_count())
        .map(|k| r.writes_after(&[(0, k)]).into_iter().map(WalRecord::Ingest).collect())
        .collect()
}

/// A fresh replica on a fresh disk whose power goes out after `ops`
/// file-system operations.
fn boot(ops: usize) -> (ProcNode, Powered) {
    let mut fs = CrashFs::default();
    fs.cut_power_after(ops);
    let disk = FileDisk::open_on(fs, Path::new("")).expect("a CrashFs opens");
    (ProcNode::new(ProcId(0), config()), Powered::new(disk))
}

/// Rebuilds process 0 from `fs` through the one recovery path.
fn recover(fs: CrashFs) -> (ProcNode, Powered) {
    let (disk, found) = FileDisk::recover(fs, Path::new("")).expect("every crash state recovers");
    let (mut node, mut io) = (ProcNode::new(ProcId(0), config()), Powered::new(disk));
    node.recover(found.unwrap_or_default(), &mut io);
    assert!(io.on);
    (node, io)
}

#[test]
fn every_crash_state_of_a_growth_and_a_compaction_keeps_every_acked_write() {
    // The uncrashed run, and its answers after each write.
    let (mut node, mut io) = boot(usize::MAX);
    let opened = io.disk.fs().ops();
    let (mut expected, mut grew) = (vec![answers(&node)], false);
    for i in 0..WRITES {
        assert!(write(&mut node, &mut io, i));
        expected.push(answers(&node));
        grew |= io.compactions == 0 && io.log_len() > WAL_CHUNK;
    }
    assert!(grew, "the log outgrew its first chunk before the compaction");
    assert_eq!(io.compactions, 1, "one compaction");
    let total = io.disk.fs().ops() - opened;

    let mut states = 0;
    for cut in 0..=total {
        let (mut node, mut io) = boot(opened + cut);
        let (mut acked, mut tried) = (0, 0);
        while tried < WRITES && io.on {
            tried += 1;
            if write(&mut node, &mut io, tried - 1) {
                acked = tried;
            }
        }
        for (s, fs) in io.disk.fs().crash_states().into_iter().enumerate() {
            let at = format!("power cut after {cut} of {total} operations, crash state {s}");
            let (mut node, mut io) = recover(fs);
            let own = node.replica().own_count();
            assert!(acked <= own && own <= tried, "{at}: {own} own writes, {acked} acked");
            assert_eq!(answers(&node), expected[own as usize], "{at}: writes_after");
            assert!(write(&mut node, &mut io, own), "{at}: the reborn replica writes");
            let (again, _) = recover(io.disk.fs().crashed());
            assert_eq!(again.replica().own_count(), own + 1, "{at}: the next write survives");
            states += 1;
        }
    }
    assert!(states > total, "{states} crash states over {total} operations");
}
