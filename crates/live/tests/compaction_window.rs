//! A compaction `kill -9` cuts short. Whatever a compaction has written
//! when the process dies, the reborn replica must re-mint each logged
//! own write exactly once: a snapshot that covers writes the log still
//! holds would replay them under fresh sequence numbers, doubling the
//! own-write count and shifting every `writes_after` answer.

use std::fs;

use mc_live::Threads;
use mc_model::{Loc, ProcId, ProcModel, Value};
use mc_proto::{DsmConfig, DurabilityPolicy, FileDisk, Replica, UpdatePayload, WalRecord};
use mixed_consistency::System;

const WRITES: u32 = 10;

/// The updates `r` re-ships to a peer that has its first `k` writes, as
/// comparable records (a record compares by its encoding).
fn answer(r: &Replica, k: u32) -> Vec<WalRecord> {
    r.writes_after(&[(0, k)]).into_iter().map(WalRecord::Ingest).collect::<Vec<_>>()
}

#[test]
fn a_compaction_killed_before_it_retires_the_log_recovers_each_write_once() {
    let dir = std::env::temp_dir().join(format!("mc-live-window-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let rdir = dir.join("replica-0");

    // A durable replica's log: ten acked own writes.
    let cfg =
        DsmConfig::new(1, ProcModel::CAUSAL).with_durability(Some(DurabilityPolicy::default()));
    let mut r = Replica::new(ProcId(0), 1);
    let mut disk = FileDisk::open(&rdir).expect("replica dir opens");
    for i in 0..WRITES {
        let (loc, payload) = (Loc(i % 4), UpdatePayload::Set(Value::Int(i.into())));
        let (_, deps) = r.local_write(loc, payload.clone(), &cfg);
        disk.append(&WalRecord::OwnWrite { loc, payload, deps }.encode()).expect("append");
    }
    disk.sync().expect("fsync");

    // The compaction does everything but retire the log it covers: the
    // directory a kill between its last two steps leaves behind.
    let log = fs::read(rdir.join("wal.log")).expect("log reads");
    disk.install_snapshot(&r.to_snapshot(Vec::new()).encode()).expect("snapshot installs");
    drop(disk);
    fs::write(rdir.join("wal.log"), &log).expect("log restores");

    let mut sys = System::on(Threads::default(), 1, ProcModel::CAUSAL)
        .durability(DurabilityPolicy::default(), &dir);
    sys.spawn(|ctx| {
        assert_eq!(ctx.read_causal(Loc(1)), Value::Int(9), "the last write to loc 1");
    });
    let out = sys.run().expect("the replica recovers");
    let back = out.replica(ProcId(0));
    assert_eq!(back.own_count(), WRITES, "each logged write re-minted exactly once");
    for k in [0, 3, WRITES - 1, WRITES] {
        assert_eq!(answer(back, k), answer(&r, k), "after {k}");
    }
    let _ = fs::remove_dir_all(&dir);
}
