//! Cluster assembly: the same node mains as the threaded executor,
//! wired over TCP, in two shapes.
//!
//! - [`Tcp`], the executor of `System<Tcp>`: an *in-process* cluster
//!   whose process nodes are threads of this process and whose managers
//!   run on the reader threads of their links, but every message crosses
//!   a real loopback connection (port-0 listeners, full link mesh). It
//!   shares `mc_live::run_nodes` with `mc_live::Threads`.
//! - [`run_cluster_node`]: *one node of a multi-process* cluster, for the
//!   `mc-cluster` binary, where every node is an OS process listening on
//!   `base_port + node`. Node 0 doubles as the coordinator: peers report
//!   `Done` control frames to it, and it broadcasts `Shutdown` once
//!   every process has finished.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use mc_live::{
    run_nodes, run_proc_node, LiveCtx, LiveDriver, ManagerSlot, Net, NodeConfig, WalCounters, Wire,
};
use mc_model::ProcId;
use mc_proto::wire::Control;
use mc_proto::{DsmConfig, Manager, Replica};
use mixed_consistency::{Executor, Outcome, RunError, System, WallClock};

use crate::links::Links;
use crate::placement::Placement;
use crate::transport::{listen, Inbound, TcpTransportBuilder};

/// How long a settled in-process cluster may take to drain its last
/// in-flight frames before shutdown proceeds anyway.
const QUIESCE_LIMIT: Duration = Duration::from_secs(10);
/// Multi-process grace between the last `Done` and the `Shutdown`
/// broadcast (covers acks still in flight; data convergence is enforced
/// by the workloads' awaits before they signal done).
const SHUTDOWN_GRACE: Duration = Duration::from_millis(50);

/// Loopback TCP: every process a thread of this process, every message a
/// frame on a dialled loopback connection, every manager run on the
/// reader threads of its links.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tcp;

impl Executor for Tcp {
    type Driver<'a> = LiveDriver;

    /// Panics if loopback sockets cannot be bound.
    fn run(system: System<Tcp>) -> Result<Outcome, RunError> {
        let (nprocs, nnodes) = (system.cfg.nprocs(), system.cfg.nnodes());
        let links = Links::new();
        // Threads started from here on are link threads and share one
        // CPU — the managers run on their readers; from `nodes()` on they
        // are process threads and keep off it, so that a hop costs the
        // same wake-ups in every run.
        let placement = Placement::begin();
        placement.links();

        // One inbox and one port-0 loopback listener per node, then the
        // full mesh: every ordered pair is its own dialled connection.
        let delivered = Arc::new(AtomicU64::new(0));
        // Done travels on a local channel in-process; the listeners
        // still need an events sink for protocol completeness.
        let (ev_tx, _ev_rx) = unbounded::<Control>();
        let managers: Vec<ManagerSlot> = (nprocs..nnodes).map(|_| ManagerSlot::default()).collect();
        let mut b = TcpTransportBuilder::new(nnodes);
        let mut inboxes = Vec::with_capacity(nnodes);
        let mut addrs = Vec::with_capacity(nnodes);
        for node in 0..nnodes {
            let (tx, rx) = unbounded();
            let listener =
                std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
            addrs.push(listener.local_addr().expect("listener address"));
            let inbound =
                Inbound { inbox: tx.clone(), events: ev_tx.clone(), delivered: delivered.clone() };
            let manager = node.checked_sub(nprocs).map(|k| managers[k].clone());
            listen(listener, inbound, manager, &links);
            b.local(node, tx);
            inboxes.push(rx);
        }
        // A manager's frames run it on their readers: its inbox stays
        // empty.
        inboxes.truncate(nprocs);
        for from in 0..nnodes {
            for (to, addr) in addrs.iter().enumerate() {
                if from != to {
                    b.dial(from, to, *addr, &links);
                }
            }
        }
        let net = Net::new(Arc::new(b.build()));
        placement.nodes();

        // Unlike the in-process channels (where the coordinator's
        // Shutdown enqueues strictly after all data), the direct-inbox
        // shutdown could overtake frames still inside the TCP stack —
        // wait for every sent frame to reach its destination inbox
        // first. Acks generated while draining keep both counters
        // moving; they settle together.
        let outcome = run_nodes(system, net, inboxes, managers, |net| {
            let quiesce_deadline = Instant::now() + QUIESCE_LIMIT;
            loop {
                let sent = net.messages();
                if delivered.load(Ordering::SeqCst) >= sent && net.messages() == sent {
                    break;
                }
                if Instant::now() > quiesce_deadline {
                    break; // proceed; any real loss surfaces in the checks
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // `net` — every sender into the link queues — went with the node
        // threads and the managers, so each writer drains its queue and
        // ends; dropping the owner wakes the other link threads and joins
        // them all.
        drop(links);
        outcome
    }
}

impl WallClock for Tcp {}

/// Everything one node of a multi-process cluster needs to come up.
pub struct NodeOpts {
    /// This node's id (process nodes first, manager nodes after).
    pub node: mc_live::NodeId,
    /// The shared protocol configuration (identical across processes).
    pub cfg: DsmConfig,
    /// Node `i` listens on `127.0.0.1:base_port + i`.
    pub base_port: u16,
    /// Blocked-operation timeout.
    pub timeout: Duration,
    /// Durability root, as in `System::durability`.
    pub durability_dir: Option<PathBuf>,
}

/// What a cluster node reports when it exits cleanly.
pub struct NodeOutcome {
    /// The final replica state (process nodes only).
    pub replica: Option<Replica>,
    /// The final manager state (manager nodes only).
    pub manager: Option<Manager>,
    /// Protocol messages this node sent.
    pub messages: u64,
    /// Modeled wire bytes this node sent.
    pub bytes: u64,
}

/// Runs one node of a multi-process cluster to completion on the
/// calling thread (plus one thread per link and, on node 0, the
/// coordinator). A manager node's frames run it on their reader
/// threads; the calling thread only waits for `Shutdown`.
///
/// Node 0 is the coordinator: every process node reports a
/// [`Control::Done`] frame to it when its program body finishes, and it
/// broadcasts [`Control::Shutdown`] once all have. Workload bodies are
/// responsible for awaiting whatever convergence they intend to claim —
/// exactly the discipline the threaded executor's programs follow.
pub fn run_cluster_node(
    opts: NodeOpts,
    body: impl FnOnce(&mut LiveCtx) + Send + 'static,
) -> NodeOutcome {
    let NodeOpts { node, cfg, base_port, timeout, durability_dir } = opts;
    let nnodes = cfg.nnodes();
    assert!(node < nnodes, "node {node} out of range for {nnodes} nodes");
    // Declared first, so dropped last: by then the transport — every
    // sender into a link queue — is gone, each writer drains its queue to
    // its socket and exits, and the owner's drop joins them. No frame
    // (the coordinator's `Shutdown` broadcast above all) is left behind;
    // a writer still redialling a dead peer gives up at its next attempt.
    let links = Links::new();
    // As in `Tcp::run`: link threads on one CPU, the node off it.
    let placement = Placement::begin();
    placement.links();

    let (inbox_tx, inbox_rx) = unbounded::<Wire>();
    let (ev_tx, ev_rx) = unbounded::<Control>();
    let mut b = TcpTransportBuilder::new(nnodes);
    for to in 0..nnodes {
        if to != node {
            let addr = std::net::SocketAddr::from(([127, 0, 0, 1], base_port + to as u16));
            b.dial(node, to, addr, &links);
        }
    }
    b.local(node, inbox_tx.clone());
    let transport = Arc::new(b.build());
    let net = Net::new(transport.clone());
    // A manager shard is installed before its port opens: its frames run
    // it on their readers from the first one on.
    let manager = (node >= cfg.nprocs()).then(|| {
        let slot = ManagerSlot::default();
        slot.install(net.clone(), Arc::new(cfg.clone()), node, false);
        slot
    });
    // std binds a listener with `SO_REUSEADDR` (on every platform but
    // Windows), so a node reborn after `kill -9` reclaims its port while
    // the dead incarnation's connections linger in `TIME_WAIT`.
    let port = base_port + node as u16;
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| panic!("node {node}: cannot bind port {port}: {e}"));
    let delivered = Arc::new(AtomicU64::new(0));
    listen(
        listener,
        Inbound { inbox: inbox_tx.clone(), events: ev_tx.clone(), delivered },
        manager.clone(),
        &links,
    );
    placement.nodes();
    let walc = Arc::new(WalCounters::default());

    if let Some(slot) = manager {
        // This thread waits for the coordinator's Shutdown frame,
        // sweeping retransmissions meanwhile when the session layer is
        // on.
        slot.sweep(&inbox_rx, cfg.reliable);
        return NodeOutcome {
            replica: None,
            manager: Some(slot.take().expect("installed above")),
            messages: net.messages(),
            bytes: net.bytes(),
        };
    }

    let opts = NodeConfig { proc: ProcId(node as u32), cfg: cfg.clone(), timeout, durability_dir };
    let (replica, _) = if node == 0 {
        // Coordinator: the protocol node runs on its own thread while
        // this thread collects Done reports and broadcasts Shutdown.
        let ev_tx = ev_tx.clone();
        let proc_handle = {
            let net = net.clone();
            let walc = walc.clone();
            std::thread::spawn(move || {
                run_proc_node(opts, inbox_rx, net, walc, None, body, move || {
                    let _ = ev_tx.send(Control::Done { proc: 0 });
                })
            })
        };
        let mut done = vec![false; cfg.nprocs()];
        while done.contains(&false) {
            if let Control::Done { proc } = ev_rx.recv().expect("events channel healthy") {
                done[proc as usize] = true;
            }
        }
        std::thread::sleep(SHUTDOWN_GRACE);
        for to in 1..nnodes {
            transport.send_control(0, to, Control::Shutdown);
        }
        let _ = inbox_tx.send(Wire::Shutdown);
        match proc_handle.join() {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    } else {
        let done_transport = transport.clone();
        let me = node;
        run_proc_node(opts, inbox_rx, net.clone(), walc, None, body, move || {
            done_transport.send_control(me, 0, Control::Done { proc: me as u32 });
        })
    };
    NodeOutcome {
        replica: Some(replica),
        manager: None,
        messages: net.messages(),
        bytes: net.bytes(),
    }
}
