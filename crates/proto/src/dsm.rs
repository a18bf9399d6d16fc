//! The DSM protocol under the simulator: a [`mc_sim::Protocol`] over
//! one [`ProcNode`] per process and one [`ManagerNode`] per manager
//! shard, covering all four memory modes and the synchronization
//! subsystem.
//!
//! Topology: process `i` runs on node `i`; nodes `nprocs..` are the
//! manager shards (lock manager, barrier manager, and — in SC mode, on
//! the first — the central memory server). The protocol itself lives in
//! [`crate::node`]; this module only routes kernel events to the node
//! they concern and lends it the simulated network and disk: the shipped
//! [`FileDisk`], on a [`CrashFs`].

use std::path::Path;
use std::sync::Arc;

use mc_model::ProcId;
use mc_sim::{NetCtx, NodeId, Poll, ProcToken, Protocol, SimTime};

use crate::config::DsmConfig;
use crate::durability::{CrashFs, FileDisk, Recovery};
use crate::manager::Manager;
use crate::msg::Msg;
use crate::node::{ManagerNode, NodeIo, ProcNode, Req, Resp};
use crate::replica::Replica;

/// The complete DSM protocol state.
#[derive(Debug)]
pub struct Dsm {
    cfg: Arc<DsmConfig>,
    nodes: Vec<ProcNode>,
    managers: Vec<ManagerNode>,
    /// One disk per replica when [`DsmConfig::durability`] is on, none
    /// otherwise. Kept beside the nodes: a disk outlives the node it
    /// belongs to.
    disks: Vec<FileDisk<CrashFs>>,
}

/// The simulator's [`NodeIo`]: one node's view of the simulated network,
/// clock and (for replica nodes) disk.
struct SimIo<'a, 'n> {
    me: NodeId,
    net: &'a mut NetCtx<'n, Msg>,
    /// `None` on manager nodes and volatile replicas, which keep no
    /// durable state: the log operations are no-ops there.
    disk: Option<&'a mut FileDisk<CrashFs>>,
}

/// The directory of a simulated replica: the root of its [`CrashFs`].
const REPLICA_DIR: &str = "";

impl<'a, 'n> SimIo<'a, 'n> {
    fn new(me: NodeId, net: &'a mut NetCtx<'n, Msg>, disks: &'a mut [FileDisk<CrashFs>]) -> Self {
        SimIo { me, net, disk: disks.get_mut(me.index()) }
    }
}

/// Counts the disk's full syncs when the node's event ends: those of
/// its syncs, and after an open (a replica's first event, or its
/// recovery) the open's own, whether or not the replica ever syncs.
impl Drop for SimIo<'_, '_> {
    fn drop(&mut self) {
        if let Some(disk) = &mut self.disk {
            self.net.record_full_syncs(disk.take_full_syncs());
        }
    }
}

impl NodeIo for SimIo<'_, '_> {
    fn send(&mut self, to: NodeId, kind: &'static str, msg: Msg) {
        self.net.send(self.me, to, kind, msg.wire_bytes(), msg);
    }

    fn arm_timer(&mut self, delay: SimTime, token: u64) {
        self.net.set_timer(self.me, delay, token);
    }

    fn link_idle(&mut self, to: NodeId) -> bool {
        self.net.link_idle(self.me, to)
    }

    fn wal_append(&mut self, frame: &[u8]) {
        let Some(disk) = &mut self.disk else { return };
        disk.append(frame).expect("a CrashFs write fails only without power");
        self.net.record_wal_append(1);
    }

    fn wal_sync(&mut self) {
        let Some(disk) = &mut self.disk else { return };
        let n = disk.sync().expect("a CrashFs sync fails only without power");
        self.net.record_wal_sync(n);
    }

    fn install_snapshot(&mut self, snapshot: Vec<u8>, history: &[u8]) {
        let Some(disk) = &mut self.disk else { return };
        disk.compact(&snapshot, history).expect("a CrashFs compaction fails only without power");
        self.net.record_snapshot();
    }

    fn truncate_history(&mut self, len: usize) {
        let Some(disk) = &mut self.disk else { return };
        disk.truncate_history(len).expect("a CrashFs truncation fails only without power");
    }

    fn tracing(&self) -> bool {
        self.net.tracing()
    }

    fn annotate(&mut self, key: &'static str, value: String) {
        self.net.trace_annotate(key, value);
    }

    fn record_rto(&mut self, waited: SimTime) {
        self.net.record_rto(waited);
    }
}

/// Read-only view of every node's session links (tests, invariant
/// checks).
#[derive(Debug)]
pub struct Sessions<'a>(&'a Dsm);

impl Sessions<'_> {
    /// Total unacknowledged payloads across all links (zero once the
    /// session layer has fully drained).
    pub fn total_unacked(&self) -> usize {
        let procs = self.0.nodes.iter().map(ProcNode::session);
        let managers = self.0.managers.iter().map(ManagerNode::session);
        procs.chain(managers).flatten().map(|s| s.total_unacked()).sum()
    }
}

impl Dsm {
    /// Creates the protocol for a configuration.
    pub fn new(cfg: DsmConfig) -> Self {
        let cfg = Arc::new(cfg);
        let n = cfg.nprocs();
        Dsm {
            nodes: (0..n as u32).map(|i| ProcNode::new(ProcId(i), cfg.clone())).collect(),
            managers: (n..cfg.nnodes())
                .map(|node| ManagerNode::new(NodeId(node as u32), cfg.clone()))
                .collect(),
            disks: match cfg.durability {
                Some(_) => (0..n).map(|_| open(CrashFs::default())).collect(),
                None => Vec::new(),
            },
            cfg,
        }
    }

    /// The session layer (if enabled) — tests and invariant checks.
    pub fn session(&self) -> Option<Sessions<'_>> {
        self.cfg.reliable.then_some(Sessions(self))
    }

    /// The configuration.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Read access to a replica (tests, invariant checks).
    pub fn replica(&self, proc: ProcId) -> &Replica {
        self.nodes[proc.index()].replica()
    }

    /// The SC server (the first manager shard), to record and collect
    /// its write order.
    pub fn server_mut(&mut self) -> &mut Manager {
        self.managers[0].manager_mut()
    }

    /// Replaces a durable replica's file system — repro replay restores
    /// captured disk images before re-running a schedule. The disk opens
    /// on it at once: a torn log tail is cut there, as on a real
    /// directory. Does nothing when durability is off.
    pub fn set_disk(&mut self, proc: ProcId, fs: CrashFs) {
        if let Some(disk) = self.disks.get_mut(proc.index()) {
            *disk = open(fs);
        }
    }

    /// Ends the run: the final replicas, then the manager states.
    pub fn into_parts(self) -> (Vec<Replica>, Vec<Manager>) {
        let replicas = self.nodes.into_iter().map(ProcNode::into_replica).collect();
        (replicas, self.managers.into_iter().map(ManagerNode::into_manager).collect())
    }
}

/// Opens a simulated replica's disk on `fs`.
fn open(fs: CrashFs) -> FileDisk<CrashFs> {
    FileDisk::open_on(fs, Path::new(REPLICA_DIR)).expect("a CrashFs opens")
}

impl Protocol for Dsm {
    type Msg = Msg;
    type Req = Req;
    type Resp = Resp;

    fn on_request(
        &mut self,
        proc: ProcToken,
        node: NodeId,
        req: Req,
        net: &mut NetCtx<'_, Msg>,
    ) -> Poll<Resp> {
        let i = proc.index();
        debug_assert_eq!(node.index(), i, "process i runs on node i");
        self.nodes[i].start(req, &mut SimIo::new(node, net, &mut self.disks))
    }

    /// Operation entry ([`ProcNode::enter`]), where the program submits
    /// the request.
    fn on_submit(&mut self, proc: ProcToken, node: NodeId, net: &mut NetCtx<'_, Msg>) {
        self.nodes[proc.index()].enter(&mut SimIo::new(node, net, &mut self.disks));
    }

    /// A process that exits leaves no write buffered.
    fn on_exit(&mut self, proc: ProcToken, node: NodeId, net: &mut NetCtx<'_, Msg>) {
        self.nodes[proc.index()].flush_updates(&mut SimIo::new(node, net, &mut self.disks));
    }

    fn on_message(&mut self, to: NodeId, from: NodeId, msg: Msg, net: &mut NetCtx<'_, Msg>) {
        let i = to.index();
        let io = &mut SimIo::new(to, net, &mut self.disks);
        match i.checked_sub(self.cfg.nprocs()) {
            None => self.nodes[i].on_message(from, msg, io),
            Some(shard) => self.managers[shard].on_message(from, msg, io),
        }
    }

    fn poll_blocked(
        &mut self,
        proc: ProcToken,
        node: NodeId,
        net: &mut NetCtx<'_, Msg>,
    ) -> Option<Resp> {
        self.nodes[proc.index()].poll(&mut SimIo::new(node, net, &mut self.disks))
    }

    fn on_timer(&mut self, node: NodeId, token: u64, net: &mut NetCtx<'_, Msg>) {
        let i = node.index();
        let io = &mut SimIo::new(node, net, &mut self.disks);
        match i.checked_sub(self.cfg.nprocs()) {
            None => self.nodes[i].on_timer(token, io),
            Some(shard) => self.managers[shard].on_timer(token, io),
        }
    }

    /// Crash-recover a replica node: power loss drops every un-synced
    /// operation of its disk, and the node rebuilds from what survives
    /// through the recovery path every executor takes
    /// ([`FileDisk::recover`], then [`ProcNode::recover`]). A volatile
    /// replica has no disk and rebuilds from nothing.
    ///
    /// In the simulator the crash models the *memory system's* node, not
    /// the client: the program (and the read gates / lock bookkeeping it
    /// has earned) survives and keeps running against the reborn replica.
    fn on_crash_recover(&mut self, node: NodeId, net: &mut NetCtx<'_, Msg>) {
        assert!(
            !self.cfg.is_manager_node(node),
            "crash-recover of a manager node is unsupported (managers keep no durable state)"
        );
        let i = node.index();
        let mut found = Recovery::default();
        if let Some(disk) = self.disks.get_mut(i) {
            net.record_wal_lost(disk.staged_records());
            let (reopened, held) = FileDisk::recover(disk.fs().crashed(), Path::new(REPLICA_DIR))
                .unwrap_or_else(|e| panic!("p{i}: cannot recover: {e}"));
            *disk = reopened;
            found = held.unwrap_or_default();
            net.record_wal_replayed(found.records.len() as u64);
        }
        self.nodes[i].recover(found, &mut SimIo::new(node, net, &mut self.disks));
    }

    /// Staged (appended, unsynced) log records across all disks — the
    /// kernel samples this for the WAL conservation law.
    fn durable_staged(&self) -> u64 {
        self.disks.iter().map(FileDisk::staged_records).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LockPropagation;
    use mc_model::ProcModel;
    use mc_model::{BarrierId, Loc, LockId, LockMode, ReadLabel, Value};
    use mc_sim::{Kernel, SimConfig};
    use std::sync::{Arc, Mutex};

    fn kernel(mode: ProcModel, nprocs: usize) -> Kernel<Dsm> {
        kernel_cfg(DsmConfig::new(nprocs, mode), 1)
    }

    fn kernel_cfg(cfg: DsmConfig, seed: u64) -> Kernel<Dsm> {
        let nnodes = cfg.nnodes();
        Kernel::new(Dsm::new(cfg), nnodes, SimConfig::with_seed(seed))
    }

    fn read(ctx: &mut mc_sim::ProcCtx<Dsm>, loc: u32, label: ReadLabel) -> Value {
        match ctx.request(Req::Read { loc: Loc(loc), label }) {
            Resp::Value { value, .. } => value,
            other => panic!("{other:?}"),
        }
    }

    fn write(ctx: &mut mc_sim::ProcCtx<Dsm>, loc: u32, v: i64) {
        match ctx.request(Req::Write { loc: Loc(loc), value: Value::Int(v) }) {
            Resp::Wrote { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    fn barrier(ctx: &mut mc_sim::ProcCtx<Dsm>) {
        ctx.request(Req::Barrier { barrier: BarrierId(0) });
    }

    #[test]
    fn sharded_producer_consumer_await() {
        use crate::config::ShardConfig;
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            // Locs 0 and 1 land in shards 0 and 1; both procs subscribe
            // to both, the third proc to neither.
            let sc = ShardConfig::new(2, vec![vec![0, 1], vec![0, 1], vec![]]);
            let cfg = DsmConfig::new(3, mode).with_sharding(Some(sc));
            let mut k = kernel_cfg(cfg, 11);
            let seen = Arc::new(Mutex::new(Value::Int(-1)));
            let seen2 = seen.clone();
            k.spawn(NodeId(0), |ctx| {
                write(ctx, 0, 42);
                write(ctx, 1, 1);
            });
            k.spawn(NodeId(1), move |ctx| {
                ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
                *seen2.lock().unwrap() = read(ctx, 0, ReadLabel::Causal);
            });
            let report = k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(*seen.lock().unwrap(), Value::Int(42), "{mode}");
            // The uninterested third replica received nothing.
            assert!(report.metrics.messages > 0);
        }
    }

    #[test]
    fn sharded_updates_reach_only_subscribers() {
        let sc = crate::config::ShardConfig::new(2, vec![vec![0], vec![0], vec![1]]);
        let cfg = DsmConfig::new(3, ProcModel::CAUSAL).with_sharding(Some(sc));
        let mut k = kernel_cfg(cfg, 3);
        k.spawn(NodeId(0), |ctx| {
            write(ctx, 0, 7); // shard 0: subscriber set {p0, p1}
        });
        k.spawn(NodeId(1), |ctx| {
            ctx.request(Req::Await { loc: Loc(0), value: Value::Int(7) });
        });
        k.spawn(NodeId(2), |_ctx| {});
        let report = k.run().unwrap();
        let dsm = &report.protocol;
        assert_eq!(dsm.replica(ProcId(1)).value(Loc(0)), Value::Int(7));
        // p2 subscribes only to shard 1: the write never reached it.
        assert_eq!(dsm.replica(ProcId(2)).value(Loc(0)), Value::INITIAL);
        assert_eq!(dsm.replica(ProcId(2)).applied[ProcId(0)], 0);
    }

    #[test]
    fn dynamic_subscribe_on_first_touch() {
        let sc = crate::config::ShardConfig::new(2, vec![vec![0, 1], vec![0, 1], vec![0]])
            .with_dynamic(true);
        let cfg = DsmConfig::new(3, ProcModel::CAUSAL).with_sharding(Some(sc));
        let mut k = kernel_cfg(cfg, 5);
        let got = Arc::new(Mutex::new(Value::Int(-1)));
        let got2 = got.clone();
        k.spawn(NodeId(0), |ctx| {
            write(ctx, 1, 9); // shard 1
            write(ctx, 0, 1); // shard 0 flag
        });
        k.spawn(NodeId(1), |_ctx| {});
        k.spawn(NodeId(2), move |ctx| {
            // p2 statically subscribes only to shard 0; the read of loc 1
            // first-touches shard 1, subscribes through the directory,
            // and the backfill push delivers p0's write.
            ctx.request(Req::Await { loc: Loc(0), value: Value::Int(1) });
            ctx.request(Req::Await { loc: Loc(1), value: Value::Int(9) });
            *got2.lock().unwrap() = read(ctx, 1, ReadLabel::Causal);
        });
        let report = k.run().unwrap();
        assert_eq!(*got.lock().unwrap(), Value::Int(9));
        assert!(report.protocol.replica(ProcId(2)).shards().unwrap().subscribed(1));
    }

    #[test]
    fn sharded_batching_coalesces_per_shard() {
        let sc = crate::config::ShardConfig::full(2, 2);
        let cfg = DsmConfig::new(2, ProcModel::CAUSAL)
            .with_sharding(Some(sc))
            .with_batching(Some(crate::config::BatchPolicy::default()));
        let mut k = kernel_cfg(cfg, 9);
        k.spawn(NodeId(0), |ctx| {
            for i in 0..8 {
                write(ctx, i % 4, i as i64); // shards 0 and 1 interleaved
            }
            write(ctx, 5, 99); // flag in shard 1
        });
        k.spawn(NodeId(1), |ctx| {
            ctx.request(Req::Await { loc: Loc(5), value: Value::Int(99) });
        });
        let report = k.run().unwrap();
        assert_eq!(report.protocol.replica(ProcId(1)).value(Loc(5)), Value::Int(99));
        let batches = report.metrics.kind("shard_update_batch").count;
        assert!(batches > 0, "sharded batching sends shard_update_batch frames");
    }

    #[test]
    fn producer_consumer_await_all_modes() {
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
            let mut k = kernel(mode, 2);
            let seen = Arc::new(Mutex::new(Value::Int(-1)));
            let seen2 = seen.clone();
            k.spawn(NodeId(0), |ctx| {
                write(ctx, 0, 42); // data
                write(ctx, 1, 1); // flag
            });
            k.spawn(NodeId(1), move |ctx| {
                ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
                *seen2.lock().unwrap() = read(ctx, 0, ReadLabel::Pram);
            });
            let report = k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(*seen.lock().unwrap(), Value::Int(42), "{mode}");
            assert!(report.metrics.messages > 0);
        }
    }

    #[test]
    fn barrier_phases_visible_all_modes() {
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
            let mut k = kernel(mode, 3);
            let sums = Arc::new(Mutex::new(vec![0i64; 3]));
            for i in 0..3u32 {
                let sums = sums.clone();
                k.spawn(NodeId(i), move |ctx| {
                    write(ctx, i, i as i64 + 1);
                    barrier(ctx);
                    let mut s = 0;
                    for j in 0..3 {
                        s += read(ctx, j, ReadLabel::Pram).expect_i64();
                    }
                    sums.lock().unwrap()[i as usize] = s;
                });
            }
            k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(*sums.lock().unwrap(), vec![6, 6, 6], "{mode}");
        }
    }

    #[test]
    fn lock_mutual_exclusion_and_data_transfer() {
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
            for prop in LockPropagation::ALL {
                let cfg = DsmConfig::new(3, mode).with_lock_propagation(prop);
                let mut k = kernel_cfg(cfg, 7);
                let total = Arc::new(Mutex::new(0i64));
                for i in 0..3u32 {
                    let total = total.clone();
                    k.spawn(NodeId(i), move |ctx| {
                        for _ in 0..5 {
                            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
                            let v = read(ctx, 0, ReadLabel::Causal).expect_i64();
                            write(ctx, 0, v + 1);
                            ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
                        }
                        if i == 0 {
                            *total.lock().unwrap() = 1; // reached
                        }
                    });
                }
                let report = k.run().unwrap_or_else(|e| panic!("{mode}/{prop}: {e}"));
                // The run ends only after all deliveries drain, so every
                // replica has converged: 3 processes x 5 increments = 15.
                if mode != ProcModel::SC {
                    let dsm = &report.protocol;
                    for i in 0..3 {
                        assert_eq!(
                            dsm.replica(ProcId(i)).peek(Loc(0)),
                            Value::Int(15),
                            "{mode}/{prop} replica {i}"
                        );
                    }
                }
                assert_eq!(*total.lock().unwrap(), 1);
            }
        }
    }

    #[test]
    fn counter_increments_converge() {
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let mut k = kernel(mode, 3);
            let finals = Arc::new(Mutex::new(vec![0i64; 3]));
            for i in 0..3u32 {
                let finals = finals.clone();
                k.spawn(NodeId(i), move |ctx| {
                    for _ in 0..4 {
                        ctx.request(Req::Update { loc: Loc(0), delta: Value::Int(-1) });
                    }
                    ctx.request(Req::Await { loc: Loc(0), value: Value::Int(-12) });
                    finals.lock().unwrap()[i as usize] = read(ctx, 0, ReadLabel::Pram).expect_i64();
                });
            }
            k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(*finals.lock().unwrap(), vec![-12, -12, -12], "{mode}");
        }
    }

    #[test]
    fn sc_reads_are_serialized_at_server() {
        let mut k = kernel(ProcModel::SC, 2);
        let ok = Arc::new(Mutex::new(false));
        let ok2 = ok.clone();
        k.spawn(NodeId(0), |ctx| {
            write(ctx, 0, 1);
        });
        k.spawn(NodeId(1), move |ctx| {
            // Spin until we see the write; every read is a server RPC.
            loop {
                if read(ctx, 0, ReadLabel::Causal) == Value::Int(1) {
                    break;
                }
            }
            *ok2.lock().unwrap() = true;
        });
        let report = k.run().unwrap();
        assert!(*ok.lock().unwrap());
        assert!(report.metrics.kind("sc_read").count >= 1);
        assert_eq!(report.metrics.kind("update").count, 0, "no broadcasts in SC");
    }

    #[test]
    fn mixed_mode_pram_read_does_not_wait_for_causal_cut() {
        // p1 acquires a lock whose grant demands p0's write; a PRAM read
        // of an unrelated location returns immediately even before the
        // update arrives, while a causal read would have to wait. We
        // verify via message counts that no deadlock occurs and both
        // reads complete.
        let mut k = kernel(ProcModel::MIXED, 2);
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
            write(ctx, 0, 5);
            ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
            write(ctx, 9, 1); // ready flag: forces p1's CS after p0's
        });
        k.spawn(NodeId(1), |ctx| {
            ctx.request(Req::Await { loc: Loc(9), value: Value::Int(1) });
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
            // Causal read inside the CS must see the predecessor's write.
            assert_eq!(read(ctx, 0, ReadLabel::Causal), Value::Int(5));
            ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
        });
        k.run().unwrap();
    }

    #[test]
    fn eager_unlock_flushes_before_release() {
        let cfg = DsmConfig::new(3, ProcModel::MIXED).with_lock_propagation(LockPropagation::Eager);
        let mut k = kernel_cfg(cfg, 1);
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
            write(ctx, 0, 9);
            ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
            write(ctx, 9, 1); // ready flag
        });
        k.spawn(NodeId(1), |ctx| {
            ctx.request(Req::Await { loc: Loc(9), value: Value::Int(1) });
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
            assert_eq!(read(ctx, 0, ReadLabel::Causal), Value::Int(9));
            ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
        });
        let report = k.run().unwrap();
        assert_eq!(report.metrics.kind("flush").count, 4, "2 unlocks x 2 peers");
        assert_eq!(report.metrics.kind("flush_ack").count, 4);
    }

    #[test]
    fn lazy_vs_eager_message_counts() {
        let run = |prop: LockPropagation| {
            let cfg = DsmConfig::new(4, ProcModel::MIXED).with_lock_propagation(prop);
            let mut k = kernel_cfg(cfg, 3);
            for i in 0..4u32 {
                k.spawn(NodeId(i), move |ctx| {
                    for _ in 0..3 {
                        ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
                        write(ctx, 0, i as i64);
                        ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
                    }
                });
            }
            k.run().unwrap().metrics
        };
        let eager = run(LockPropagation::Eager);
        let lazy = run(LockPropagation::Lazy);
        assert!(
            eager.messages > lazy.messages,
            "eager flush traffic exceeds lazy ({} vs {})",
            eager.messages,
            lazy.messages
        );
    }

    #[test]
    fn demand_driven_blocks_only_touched_locations() {
        let cfg = DsmConfig::new(2, ProcModel::MIXED)
            .with_lock_propagation(LockPropagation::DemandDriven);
        let mut k = kernel_cfg(cfg, 1);
        let vals = Arc::new(Mutex::new((0i64, 0i64)));
        let vals2 = vals.clone();
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
            write(ctx, 0, 7);
            ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
            write(ctx, 9, 1); // ready flag
        });
        k.spawn(NodeId(1), move |ctx| {
            ctx.request(Req::Await { loc: Loc(9), value: Value::Int(1) });
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
            let a = read(ctx, 0, ReadLabel::Pram).expect_i64(); // demanded loc
            let b = read(ctx, 5, ReadLabel::Pram).expect_i64(); // untouched loc
            ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
            *vals2.lock().unwrap() = (a, b);
        });
        k.run().unwrap();
        assert_eq!(*vals.lock().unwrap(), (7, 0));
    }

    fn faulty_sim(seed: u64, faults: mc_sim::FaultPlan) -> SimConfig {
        let mut sim = SimConfig::with_seed(seed);
        sim.faults = faults;
        sim
    }

    #[test]
    fn session_masks_loss_duplication_and_reordering() {
        use mc_sim::{FaultPlan, SimTime};
        let faults =
            FaultPlan::new().drop_rate(0.1).duplicate_rate(0.1).reorder(SimTime::from_micros(40));
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let cfg = DsmConfig::new(3, mode).with_reliable(true);
            let nnodes = cfg.nnodes();
            let mut k = Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(9, faults.clone()));
            for i in 0..3u32 {
                k.spawn(NodeId(i), move |ctx| {
                    for _ in 0..5 {
                        ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
                        let v = read(ctx, 0, ReadLabel::Causal).expect_i64();
                        write(ctx, 0, v + 1);
                        ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
                    }
                });
            }
            let report = k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(report.metrics.faults.total() > 0, "{mode}: faults were injected");
            assert!(
                report.metrics.kind("retransmit").count > 0,
                "{mode}: losses forced retransmissions"
            );
            assert!(report.metrics.kind("session_ack").count > 0);
            let dsm = &report.protocol;
            assert_eq!(dsm.session().unwrap().total_unacked(), 0, "{mode}: session drained");
            for i in 0..3 {
                let r = dsm.replica(ProcId(i));
                // Every update was eventually delivered exactly once.
                for j in 0..3 {
                    assert_eq!(r.applied[ProcId(j)], 5, "{mode} replica {i} applied all of p{j}");
                }
                // The vector modes additionally order the lock-carried
                // writes causally, so every replica converges to the last
                // one; PRAM only promises per-sender order.
                if mode != ProcModel::PRAM {
                    assert_eq!(
                        r.peek(Loc(0)),
                        Value::Int(15),
                        "{mode} replica {i} converged despite faults"
                    );
                }
            }
        }
    }

    #[test]
    fn loss_without_session_deadlocks() {
        use mc_sim::{FaultPlan, SimError};
        let cfg = DsmConfig::new(2, ProcModel::PRAM);
        let nnodes = cfg.nnodes();
        let mut k =
            Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(1, FaultPlan::new().drop_rate(1.0)));
        k.spawn(NodeId(0), |ctx| {
            write(ctx, 0, 42);
            write(ctx, 1, 1);
        });
        k.spawn(NodeId(1), |ctx| {
            ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
        });
        match k.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked, vec![ProcToken(1)], "the consumer starves");
            }
            other => panic!("expected deadlock, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn partition_heal_triggers_redelivery() {
        use mc_sim::{FaultPlan, SimTime};
        // Nodes 0 and 1 are cut off from each other for 300µs; the
        // manager (node 2) stays reachable. The producer's updates are
        // retransmitted after the heal and the consumer completes.
        let faults = FaultPlan::new().partition(
            vec![NodeId(0)],
            vec![NodeId(1)],
            SimTime::ZERO,
            SimTime::from_micros(300),
        );
        let cfg = DsmConfig::new(2, ProcModel::MIXED).with_reliable(true);
        let nnodes = cfg.nnodes();
        let mut k = Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(4, faults));
        k.spawn(NodeId(0), |ctx| {
            write(ctx, 0, 42);
            write(ctx, 1, 1);
        });
        let seen = Arc::new(Mutex::new(Value::Int(-1)));
        let seen2 = seen.clone();
        k.spawn(NodeId(1), move |ctx| {
            ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
            *seen2.lock().unwrap() = read(ctx, 0, ReadLabel::Causal);
        });
        let report = k.run().unwrap();
        assert_eq!(*seen.lock().unwrap(), Value::Int(42));
        assert!(report.metrics.faults.partition_dropped > 0, "the cut bit");
        assert!(report.metrics.kind("retransmit").count > 0, "heal re-delivery");
        assert!(report.metrics.finish_time >= SimTime::from_micros(300));
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        use mc_sim::{FaultPlan, SimTime};
        let run = |seed: u64| {
            let faults = FaultPlan::new()
                .drop_rate(0.15)
                .duplicate_rate(0.1)
                .reorder(SimTime::from_micros(30));
            let cfg = DsmConfig::new(3, ProcModel::MIXED).with_reliable(true);
            let nnodes = cfg.nnodes();
            let mut k = Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(seed, faults));
            for i in 0..3u32 {
                k.spawn(NodeId(i), move |ctx| {
                    write(ctx, i, i as i64);
                    barrier(ctx);
                    let _ = read(ctx, (i + 1) % 3, ReadLabel::Causal);
                });
            }
            let m = k.run().unwrap().metrics;
            (m.faults, m.messages, m.events, m.finish_time)
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).0, run(22).0, "different seeds inject differently");
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = |seed| {
            let mut k = kernel_cfg(DsmConfig::new(3, ProcModel::MIXED), seed);
            for i in 0..3u32 {
                k.spawn(NodeId(i), move |ctx| {
                    write(ctx, i, 1);
                    barrier(ctx);
                    let _ = read(ctx, (i + 1) % 3, ReadLabel::Causal);
                });
            }
            let m = k.run().unwrap().metrics;
            (m.finish_time, m.messages, m.events, m.bytes)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "re-acquires")]
    fn double_lock_is_a_programming_error() {
        let mut k = kernel(ProcModel::MIXED, 1);
        k.spawn(NodeId(0), |ctx| {
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
            ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
        });
        // Protocol code panics on the process thread; `run` re-raises it.
        let _ = k.run();
    }

    #[test]
    fn batched_writes_converge_and_reduce_traffic() {
        use crate::config::BatchPolicy;
        let run = |batch: Option<BatchPolicy>| {
            let cfg = DsmConfig::new(3, ProcModel::CAUSAL).with_batching(batch);
            let mut k = kernel_cfg(cfg, 5);
            for i in 0..3u32 {
                k.spawn(NodeId(i), move |ctx| {
                    for j in 0..10 {
                        write(ctx, i, j as i64);
                    }
                    barrier(ctx);
                    let mut s = 0;
                    for q in 0..3 {
                        s += read(ctx, q, ReadLabel::Causal).expect_i64();
                    }
                    assert_eq!(s, 27, "every replica sees the final values");
                });
            }
            let report = k.run().unwrap();
            for i in 0..3 {
                for q in 0..3u32 {
                    assert_eq!(report.protocol.replica(ProcId(i)).peek(Loc(q)), Value::Int(9));
                }
            }
            report.metrics
        };
        let unbatched = run(None);
        let batched = run(Some(BatchPolicy::default()));
        // The first write finds the links idle and leaves alone, as its
        // own update; the nine behind it ride one batch to each peer.
        assert_eq!(batched.kind("update").count, 3 * 2);
        assert_eq!(batched.kind("update_batch").count, 3 * 2);
        assert!(
            batched.messages * 2 <= unbatched.messages,
            "10 same-location writes coalesce: {} vs {}",
            batched.messages,
            unbatched.messages
        );
        assert!(batched.bytes < unbatched.bytes, "{} vs {}", batched.bytes, unbatched.bytes);
    }

    /// The writer syncs with no one and exits: its exit flush delivers
    /// the last write.
    #[test]
    fn exit_flush_delivers_without_synchronization() {
        use crate::config::BatchPolicy;
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let cfg = DsmConfig::new(2, mode).with_batching(Some(BatchPolicy::default()));
            let mut k = kernel_cfg(cfg, 1);
            let seen = Arc::new(Mutex::new(Value::Int(-1)));
            let seen2 = seen.clone();
            k.spawn(NodeId(0), |ctx| {
                write(ctx, 0, 42);
                write(ctx, 1, 1); // flag — nothing ever syncs explicitly
            });
            k.spawn(NodeId(1), move |ctx| {
                ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
                *seen2.lock().unwrap() = read(ctx, 0, ReadLabel::Causal);
            });
            k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(*seen.lock().unwrap(), Value::Int(42), "{mode}");
        }
    }

    /// Behind a link busy for the whole burst, distinct-location writes
    /// leave in batches closed by the byte bound, none over it.
    #[test]
    fn byte_bound_closes_batches_behind_a_busy_link() {
        use crate::config::BatchPolicy;
        use crate::wire::BUF_CHUNK;
        use mc_sim::{LatencyModel, SimTime};
        const WRITES: u32 = 10_000;
        let cfg = DsmConfig::new(2, ProcModel::PRAM).with_batching(Some(BatchPolicy::default()));
        let mut sim = SimConfig::with_seed(2);
        sim.latency =
            LatencyModel { base: SimTime::from_micros(1_000_000), ..LatencyModel::INSTANT };
        let nnodes = cfg.nnodes();
        let mut k = Kernel::new(Dsm::new(cfg), nnodes, sim);
        k.enable_tracing();
        k.spawn(NodeId(0), |ctx| {
            for j in 0..WRITES {
                write(ctx, j, 1); // distinct locations: no coalescing
            }
        });
        k.spawn(NodeId(1), |_ctx| {});
        let report = k.run().unwrap();
        // The second write's entry sends the first alone, as its own
        // update; the link then stays busy: three batches of 3 276
        // twenty-byte entries close at the bound, and the exit flush
        // sends the last 171.
        let sizes: Vec<u64> = report
            .trace
            .expect("tracing on")
            .events()
            .filter(|e| e.cat == "msg" && e.name == "update_batch")
            .map(|e| e.args.iter().find(|(k, _)| *k == "bytes").unwrap().1.parse().unwrap())
            .collect();
        let batch = |entries: u64| 16 + 20 * entries;
        assert_eq!(sizes, [batch(3_276), batch(3_276), batch(3_276), batch(171)]);
        assert_eq!(report.metrics.kind("update").count, 1);
        assert!(sizes.iter().all(|&b| b <= BUF_CHUNK as u64), "{sizes:?}");
        assert_eq!(report.protocol.replica(ProcId(1)).peek(Loc(WRITES - 1)), Value::Int(1));
    }

    #[test]
    fn batched_counters_converge_on_await() {
        use crate::config::BatchPolicy;
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let cfg = DsmConfig::new(3, mode).with_batching(Some(BatchPolicy::default()));
            let mut k = kernel_cfg(cfg, 3);
            for i in 0..3u32 {
                k.spawn(NodeId(i), move |ctx| {
                    for _ in 0..4 {
                        ctx.request(Req::Update { loc: Loc(0), delta: Value::Int(-1) });
                    }
                    match ctx.request(Req::Await { loc: Loc(0), value: Value::Int(-12) }) {
                        Resp::Awaited { writers, .. } => {
                            assert_eq!(writers.len(), 12, "every member write is credited")
                        }
                        other => panic!("{other:?}"),
                    }
                });
            }
            k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
        }
    }

    #[test]
    fn batched_session_masks_faults_with_piggybacked_acks() {
        use crate::config::BatchPolicy;
        use mc_sim::{FaultPlan, SimTime};
        let faults =
            FaultPlan::new().drop_rate(0.1).duplicate_rate(0.1).reorder(SimTime::from_micros(40));
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let cfg = DsmConfig::new(3, mode)
                .with_reliable(true)
                .with_batching(Some(BatchPolicy::default()));
            let nnodes = cfg.nnodes();
            let mut k = Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(9, faults.clone()));
            for i in 0..3u32 {
                k.spawn(NodeId(i), move |ctx| {
                    for _ in 0..5 {
                        ctx.request(Req::Lock { lock: LockId(0), mode: LockMode::Write });
                        let v = read(ctx, 0, ReadLabel::Causal).expect_i64();
                        write(ctx, 0, v + 1);
                        ctx.request(Req::Unlock { lock: LockId(0), mode: LockMode::Write });
                    }
                });
            }
            let report = k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(report.metrics.faults.total() > 0, "{mode}: faults were injected");
            let dsm = &report.protocol;
            assert_eq!(dsm.session().unwrap().total_unacked(), 0, "{mode}: session drained");
            for i in 0..3 {
                let r = dsm.replica(ProcId(i));
                for j in 0..3 {
                    assert_eq!(r.applied[ProcId(j)], 5, "{mode} replica {i} applied all of p{j}");
                }
                if mode != ProcModel::PRAM {
                    assert_eq!(r.peek(Loc(0)), Value::Int(15), "{mode} replica {i} converged");
                }
            }
        }
    }

    #[test]
    fn durable_crash_recover_refetches_missing_delta() {
        use crate::durability::DurabilityPolicy;
        use mc_sim::{FaultPlan, SimTime};
        // p0 produces, p1 crash-recovers mid-stream, p2 is a bystander.
        // The reborn replica must re-earn everything it lost from disk
        // plus the peers' recovery deltas, and still converge.
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let cfg = DsmConfig::new(3, mode)
                .with_reliable(true)
                .with_durability(Some(DurabilityPolicy::new(4)));
            let nnodes = cfg.nnodes();
            let faults = FaultPlan::new().crash_recover(NodeId(1), SimTime::from_micros(30));
            let mut k = Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(7, faults));
            k.spawn(NodeId(0), |ctx| {
                for v in 1..=10 {
                    write(ctx, 0, v);
                }
                write(ctx, 1, 1); // flag
            });
            k.spawn(NodeId(1), |ctx| {
                ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
            });
            k.spawn(NodeId(2), |ctx| {
                ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
            });
            let report = k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(report.metrics.wal.recoveries, 1, "{mode}");
            assert!(report.metrics.wal.appends > 0, "{mode}: writes hit the log");
            assert!(report.metrics.wal.snapshots > 0, "{mode}: compaction ran");
            let dsm = &report.protocol;
            for i in 0..3 {
                let r = dsm.replica(ProcId(i));
                assert_eq!(r.peek(Loc(0)), Value::Int(10), "{mode} replica {i} converged");
                assert_eq!(r.applied[ProcId(0)], 11, "{mode} replica {i} applied all of p0");
            }
            assert!(dsm.replica(ProcId(1)).incarnation >= 1, "{mode}: incarnation bumped");
        }
    }

    #[test]
    fn acked_writes_survive_own_crash() {
        use crate::durability::DurabilityPolicy;
        use mc_sim::{FaultPlan, SimTime};
        // The *writer* crashes after its writes were acknowledged to the
        // program. Append-before-ack means they are on disk; recovery
        // replays them and pushes the suffix to peers that missed it.
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let cfg = DsmConfig::new(2, mode)
                .with_reliable(true)
                .with_durability(Some(DurabilityPolicy::default()));
            let nnodes = cfg.nnodes();
            let faults = FaultPlan::new().crash_recover(NodeId(0), SimTime::from_micros(20));
            let mut k = Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(3, faults));
            k.spawn(NodeId(0), |ctx| {
                for v in 1..=5 {
                    write(ctx, 0, v);
                }
            });
            k.spawn(NodeId(1), |ctx| {
                ctx.request(Req::Await { loc: Loc(0), value: Value::Int(5) });
            });
            let report = k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(report.metrics.wal.recoveries, 1, "{mode}");
            let dsm = &report.protocol;
            for i in 0..2 {
                let r = dsm.replica(ProcId(i));
                assert_eq!(r.peek(Loc(0)), Value::Int(5), "{mode} replica {i} has the value");
                assert_eq!(r.applied[ProcId(0)], 5, "{mode} replica {i}: no acked write lost");
            }
            assert_eq!(dsm.replica(ProcId(0)).own_updates().len(), 5, "{mode}: history durable");
        }
    }

    #[test]
    fn stale_epoch_traffic_cannot_corrupt_reborn_node() {
        use crate::durability::DurabilityPolicy;
        use mc_sim::{FaultPlan, SimTime};
        // Chaos on top of a crash-recover: drops, duplicates, and
        // reordering race pre-crash ghosts against the fresh epoch. The
        // epoch tags and recovery dup guards must keep counters exact
        // (commutative Adds double-applied would show up immediately).
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let cfg = DsmConfig::new(2, mode)
                .with_reliable(true)
                .with_durability(Some(DurabilityPolicy::new(8)));
            let nnodes = cfg.nnodes();
            let faults = FaultPlan::new()
                .drop_rate(0.1)
                .duplicate_rate(0.15)
                .reorder(SimTime::from_micros(25))
                .crash_recover(NodeId(1), SimTime::from_micros(40));
            let mut k = Kernel::new(Dsm::new(cfg), nnodes, faulty_sim(11, faults));
            k.spawn(NodeId(0), |ctx| {
                for _ in 0..8 {
                    ctx.request(Req::Update { loc: Loc(0), delta: Value::Int(1) });
                }
                write(ctx, 1, 1);
            });
            k.spawn(NodeId(1), move |ctx| {
                for _ in 0..8 {
                    ctx.request(Req::Update { loc: Loc(0), delta: Value::Int(1) });
                }
                ctx.request(Req::Await { loc: Loc(1), value: Value::Int(1) });
            });
            let report = k.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(report.metrics.wal.recoveries, 1, "{mode}");
            let dsm = &report.protocol;
            for i in 0..2 {
                let r = dsm.replica(ProcId(i));
                assert_eq!(
                    r.peek(Loc(0)),
                    Value::Int(16),
                    "{mode} replica {i}: counter exact despite ghosts"
                );
            }
        }
    }

    #[test]
    fn vector_bytes_larger_in_causal_than_pram() {
        let run = |mode| {
            let mut k = kernel(mode, 4);
            for i in 0..4u32 {
                k.spawn(NodeId(i), move |ctx| {
                    for j in 0..5 {
                        write(ctx, i * 8 + j, 1);
                    }
                });
            }
            k.run().unwrap().metrics
        };
        let pram = run(ProcModel::PRAM);
        let causal = run(ProcModel::CAUSAL);
        assert_eq!(pram.kind("update").count, causal.kind("update").count);
        assert!(causal.kind("update").bytes > pram.kind("update").bytes);
    }
}
