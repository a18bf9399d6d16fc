//! The simulator's durable replicas run the shipped `FileDisk`, on a
//! `CrashFs`: its sync counters are the live executor's, and a torn log
//! tail in a seeded disk is cut the way a real directory's is.

use std::path::Path;

use mc_proto::{FileDisk, WalRecord};
use mixed_consistency::{
    CrashFs, DurabilityPolicy, FaultPlan, Loc, NodeId, ProcId, ProcModel, SimTime, System, Value,
};

/// The simulator twin of `mc-live`'s test of the same name: the shape of
/// mcbench's `durable_session` (two processes, reliable sessions, the
/// default compaction cadence, own writes acked one sync each and a peer
/// read every eighth write). Each replica opens its log with one full
/// sync; after that the preallocated log never grows, so no sync between
/// two compactions flushes metadata.
#[test]
fn durable_writes_between_compactions_sync_data_only() {
    const WRITES: u32 = 2_000;
    const OWN: u32 = 16;
    let mut sys = System::new(2, ProcModel::CAUSAL)
        .reliable(true)
        .durability(Some(DurabilityPolicy::default()));
    for p in 0..2u32 {
        sys.spawn(move |ctx| {
            let q = 1 - p;
            for k in 0..WRITES {
                ctx.write(Loc(p * OWN + k % OWN), i64::from(k) + 1);
                if k % 8 == 7 {
                    ctx.read_pram(Loc(q * OWN + k % OWN));
                }
            }
            ctx.write(Loc(2 * OWN + p), 1);
            ctx.await_eq(Loc(2 * OWN + q), 1);
        });
    }
    let wal = sys.run().expect("clean run").metrics.wal;
    assert!(wal.snapshots >= 2 * u64::from(WRITES) / 64, "compactions ran: {wal:?}");
    assert!(wal.fsyncs > 2 * u64::from(WRITES), "every own write synced: {wal:?}");
    assert_eq!(wal.full_syncs, 2, "one full sync per replica, at open: {wal:?}");
}

/// A seeded disk whose log ends in a torn frame, what a crash mid-append
/// leaves: the disk opens by cutting the torn bytes, so the writes of the
/// replica after it, acked across a crash-recover and another, are all
/// still there at the end.
#[test]
fn a_torn_tail_in_a_seeded_disk_loses_no_later_write() {
    const WRITES: i64 = 200;
    let mut disk = FileDisk::open_on(CrashFs::default(), Path::new("")).expect("a CrashFs opens");
    disk.append(&WalRecord::Incarnation { incarnation: 1 }.encode()).expect("append");
    // Its body's last bytes are not zeros: over the log's zero tail, a
    // frame cut short of trailing zeros would read whole again.
    let torn = WalRecord::Incarnation { incarnation: 0x0302_0100 }.encode();
    disk.append(&torn[..torn.len() - 3]).expect("append");
    disk.sync().expect("sync");
    let faults = FaultPlan::new()
        .crash_recover(NodeId(0), SimTime::from_micros(150))
        .crash_recover(NodeId(0), SimTime::from_micros(350));
    // No compaction: the log it would retire keeps the torn bytes.
    let mut sys = System::new(2, ProcModel::CAUSAL)
        .reliable(true)
        .durability(Some(DurabilityPolicy::new(1024)))
        .faults(faults)
        .seed_disk(ProcId(0), disk.fs().crashed());
    sys.spawn(|ctx| {
        for v in 1..=WRITES {
            ctx.write(Loc(0), v);
        }
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(0), WRITES);
    });
    let out = sys.run().expect("both recoveries complete");
    assert_eq!(out.metrics.wal.recoveries, 2);
    let wal = out.metrics.wal;
    assert_eq!(wal.full_syncs, 2, "one full sync per replica, at open: {wal:?}");
    let writer = out.replica(ProcId(0));
    assert_eq!(writer.own_count(), WRITES as u32, "every acked write survives both recoveries");
    assert_eq!(writer.peek(Loc(0)), Value::Int(WRITES));
}
