//! The TCP transport: one writer and one reader thread per directed
//! link beneath the transport-agnostic node mains of `mc-live` (written
//! as `async fn`s over the `compat/tokio` shim, which runs each on a
//! thread of its own with blocking socket calls).
//!
//! # Topology
//!
//! One TCP connection per *directed* link: the sending side dials, the
//! receiving side accepts. A freshly dialled connection opens with a
//! [`Control::Hello`] frame naming the sending node; every protocol
//! frame after it is attributed to that node (the session layer needs
//! the link identity for its per-link sequence numbers).
//!
//! # Zero-copy hot path
//!
//! Each link owns an *encode arena* (a [`BytesMut`]): `deliver` encodes
//! the frame there and splits it off as a [`Bytes`] view — no copy, no
//! fresh allocation. The frame travels through a bounded queue to the
//! link's writer task; once written and dropped, the arena's next
//! `reserve` reclaims the region in place (`bytes::pool_stats` counts
//! the reuses). The reader side mirrors it: one receive buffer per
//! connection, socket reads land in its spare capacity, and
//! [`next_frame`] carves complete frames off the front as views.
//!
//! # Reconnection and fencing
//!
//! A writer whose connection breaks redials with exponential backoff,
//! re-sends `Hello`, and retries the frame the failure interrupted (a
//! torn partial frame dies with the old connection — each connection is
//! a fresh framing context). A frame the peer received twice this way
//! is deduplicated by the session layer's sequence numbers, and a
//! *reborn* peer (crash + restart) is fenced by the session epochs that
//! `run_proc_node` derives from the replica incarnation — the same
//! machinery the lossy in-process executor exercises.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::Sender;
use mc_live::{NodeId, Transport, Wire};
use mc_proto::wire::{
    decode_frame, encode_control, encode_frame, next_frame, oversized_prefix, Control, Frame,
};
use mc_proto::Msg;
use tokio::net::{TcpListener, TcpStream};
use tokio::runtime::Handle;
use tokio::sync::mpsc;

fn trace() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("MC_NET_TRACE").is_some())
}

/// Outstanding frames per directed link before `deliver` blocks the
/// sending protocol thread — the backpressure point.
pub const SEND_QUEUE: usize = 1024;
/// Initial redial backoff; doubles per failed attempt.
const BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Backoff ceiling — a restarted peer is redialled at least this often.
const BACKOFF_MAX: Duration = Duration::from_millis(50);
/// Spare receive capacity kept ahead of each socket read, and the
/// initial encode-arena capacity.
const BUF_CHUNK: usize = 64 * 1024;

/// One directed link: the shared encode arena and the queue to the
/// writer task that owns the socket.
struct Link {
    arena: Mutex<BytesMut>,
    tx: mpsc::Sender<Bytes>,
}

impl Link {
    /// Encodes one frame into the arena and queues it, blocking when
    /// the writer is `SEND_QUEUE` frames behind. Returns `false` only
    /// if the writer task is gone (transport torn down).
    fn push(&self, encode: impl FnOnce(&mut BytesMut)) -> bool {
        let frame = {
            let mut arena = self.arena.lock().expect("arena healthy");
            debug_assert!(arena.is_empty(), "arena fully split between frames");
            encode(&mut arena);
            let len = arena.len();
            arena.split_to(len)
        };
        self.tx.blocking_send(frame).is_ok()
    }
}

/// Builder for a [`TcpTransport`]: declare every outgoing link (a
/// writer task is spawned per link) and every locally-hosted node's
/// inbox, then freeze.
pub struct TcpTransportBuilder {
    nnodes: usize,
    links: Vec<Option<Link>>,
    local: Vec<Option<Sender<Wire>>>,
}

impl TcpTransportBuilder {
    /// A transport over a topology of `nnodes` nodes with no links yet.
    pub fn new(nnodes: usize) -> TcpTransportBuilder {
        TcpTransportBuilder {
            nnodes,
            links: (0..nnodes * nnodes).map(|_| None).collect(),
            local: (0..nnodes).map(|_| None).collect(),
        }
    }

    /// Adds the directed link `from -> to`, dialled to `addr` by a
    /// writer task on `handle`'s runtime.
    pub fn link(&mut self, from: NodeId, to: NodeId, addr: SocketAddr, handle: &Handle) {
        assert_ne!(from, to, "nodes do not dial themselves");
        let (tx, rx) = mpsc::channel(SEND_QUEUE);
        handle.spawn(write_link(from as u32, addr, rx));
        self.links[from * self.nnodes + to] =
            Some(Link { arena: Mutex::new(BytesMut::with_capacity(BUF_CHUNK)), tx });
    }

    /// Registers the inbox of a node hosted in this process: the
    /// shutdown control plane bypasses TCP for it.
    pub fn local(&mut self, node: NodeId, inbox: Sender<Wire>) {
        self.local[node] = Some(inbox);
    }

    /// Freezes the topology.
    pub fn build(self) -> TcpTransport {
        TcpTransport { nnodes: self.nnodes, links: self.links, local: self.local }
    }
}

/// [`Transport`] over per-link TCP connections. In-process clusters
/// populate the full link mesh; a multi-process cluster node populates
/// only its own outgoing row.
pub struct TcpTransport {
    nnodes: usize,
    links: Vec<Option<Link>>,
    local: Vec<Option<Sender<Wire>>>,
}

impl TcpTransport {
    fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.links[from * self.nnodes + to].as_ref()
    }

    /// Sends a control frame on the `from -> to` link (coordination:
    /// `Done` upstream to the coordinator, `Shutdown` downstream from
    /// it). Returns `false` if no such link exists.
    pub fn send_control(&self, from: NodeId, to: NodeId, ctrl: Control) -> bool {
        match self.link(from, to) {
            Some(l) => l.push(|b| encode_control(b, &ctrl)),
            None => false,
        }
    }
}

impl Transport for TcpTransport {
    fn deliver(&self, from: NodeId, to: NodeId, msg: Msg) -> bool {
        if let Some(l) = self.link(from, to) {
            return l.push(|b| encode_frame(b, &msg));
        }
        // No TCP link: the destination must be hosted here.
        match &self.local[to] {
            Some(tx) => tx.send(Wire::Proto { from, msg }).is_ok(),
            None => false,
        }
    }

    fn shutdown(&self, to: NodeId) {
        if let Some(tx) = &self.local[to] {
            let _ = tx.send(Wire::Shutdown);
            return;
        }
        // Remote node: any link we own toward it carries the control
        // frame (a cluster node owns exactly one row of links).
        for from in 0..self.nnodes {
            if let Some(l) = self.link(from, to) {
                l.push(|b| encode_control(b, &Control::Shutdown));
                return;
            }
        }
    }
}

/// The writer task of one directed link: dial (with backoff), announce
/// `Hello`, then drain the frame queue into the socket, redialling on
/// any error with the interrupted frame carried over.
async fn write_link(me: u32, addr: SocketAddr, mut rx: mpsc::Receiver<Bytes>) {
    let mut pending: Option<Bytes> = None;
    let mut hello = BytesMut::with_capacity(64);
    loop {
        let mut backoff = BACKOFF_MIN;
        let mut stream = loop {
            match TcpStream::connect(addr).await {
                Ok(s) => break s,
                Err(_) => {
                    tokio::time::sleep(backoff).await;
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
        };
        let _ = stream.set_nodelay(true);
        encode_control(&mut hello, &Control::Hello { node: me });
        let greeting = {
            let len = hello.len();
            hello.split_to(len)
        };
        if stream.write_all(&greeting).await.is_err() {
            if trace() {
                eprintln!("NETTRACE write_link {me}->{addr}: greeting failed, redial");
            }
            continue;
        }
        if trace() {
            eprintln!("NETTRACE write_link {me}->{addr}: connected");
        }
        loop {
            let frame = match pending.take() {
                Some(f) => f,
                None => match rx.recv().await {
                    Some(f) => f,
                    None => return,
                },
            };
            if stream.write_all(&frame).await.is_err() {
                if trace() {
                    eprintln!("NETTRACE write_link {me}->{addr}: write failed, redial");
                }
                // The torn suffix dies with this connection; resend the
                // whole frame after redialling. The duplicate the peer
                // may see is absorbed by session sequencing.
                pending = Some(frame);
                break;
            }
        }
    }
}

/// Where a listener delivers what its connections carry: protocol
/// frames into the hosted node's inbox, `Done` control events to the
/// hosting coordinator, plus a count of enqueued protocol messages (the
/// in-process coordinator's quiescence signal).
#[derive(Clone)]
pub struct Inbound {
    /// The hosted node's inbox.
    pub inbox: Sender<Wire>,
    /// Control events (`Done`) surfaced to the coordinator.
    pub events: Sender<Control>,
    /// Protocol messages enqueued so far across this listener's
    /// connections.
    pub delivered: Arc<AtomicU64>,
}

/// Spawns the accept loop for one node's listening socket on `handle`'s
/// runtime; each accepted connection gets its own reader task.
pub fn spawn_listener(listener: std::net::TcpListener, inbound: Inbound, handle: &Handle) {
    let handle2 = handle.clone();
    handle.spawn(async move {
        let Ok(listener) = TcpListener::from_std(listener) else { return };
        loop {
            match listener.accept().await {
                Ok((stream, _)) => {
                    handle2.spawn(read_link(stream, inbound.clone()));
                }
                Err(_) => return,
            }
        }
    });
}

/// The reader task of one accepted connection: socket reads land in the
/// spare capacity of a single receive buffer, complete frames are carved
/// off the front as views and decoded straight into inbox entries.
async fn read_link(mut stream: TcpStream, inbound: Inbound) {
    let _ = stream.set_nodelay(true);
    let mut buf = BytesMut::with_capacity(BUF_CHUNK);
    // The dialler's Hello names the sending node; a protocol frame
    // before it is a framing error and drops the connection.
    let mut from: Option<NodeId> = None;
    loop {
        buf.reserve(BUF_CHUNK);
        let n = match stream.read(buf.spare_mut()).await {
            Ok(0) | Err(_) => {
                if trace() {
                    eprintln!("NETTRACE read_link from={from:?}: socket closed");
                }
                return;
            }
            Ok(n) => n,
        };
        buf.advance_written(n);
        while let Some(body) = next_frame(&mut buf) {
            match decode_frame(&body) {
                Ok(Frame::Msg(msg)) => {
                    let Some(f) = from else { return };
                    if inbound.inbox.send(Wire::Proto { from: f, msg }).is_err() {
                        // Node exited (shutdown); the link is done.
                        return;
                    }
                    inbound.delivered.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Frame::Control(Control::Hello { node })) => from = Some(node as usize),
                Ok(Frame::Control(Control::Shutdown)) => {
                    let _ = inbound.inbox.send(Wire::Shutdown);
                }
                Ok(Frame::Control(done @ Control::Done { .. })) => {
                    let _ = inbound.events.send(done);
                }
                Err(e) => {
                    eprintln!("mc-net: dropping connection on undecodable frame: {e}");
                    return;
                }
            }
        }
        if oversized_prefix(&buf) {
            // No encoder writes such a header; buffering toward it would
            // let one hostile peer claim gigabytes.
            eprintln!("mc-net: dropping connection on a frame header over MAX_FRAME");
            return;
        }
    }
}

/// Binds a loopback listener on `port` with `SO_REUSEADDR`, so a node
/// reborn after `kill -9` can reclaim its address while the dead
/// incarnation's connections linger in `TIME_WAIT`. (`std` exposes no
/// socket options pre-bind, hence the raw calls.)
///
/// # Errors
///
/// Any failing socket call, as an `io::Error`.
#[cfg(unix)]
pub fn bind_reusable(port: u16) -> std::io::Result<std::net::TcpListener> {
    use std::os::fd::{FromRawFd, RawFd};

    // Minimal FFI: libc is not a workspace dependency.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    unsafe {
        let fd: RawFd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let guard = |fd: RawFd, r: i32| {
            if r < 0 {
                let e = std::io::Error::last_os_error();
                close(fd);
                Err(e)
            } else {
                Ok(())
            }
        };
        let one: u32 = 1;
        guard(fd, setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4))?;
        let addr = SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: port.to_be(),
            sin_addr: u32::from_be_bytes([127, 0, 0, 1]).to_be(),
            sin_zero: [0; 8],
        };
        guard(fd, bind(fd, &addr, std::mem::size_of::<SockaddrIn>() as u32))?;
        guard(fd, listen(fd, 128))?;
        Ok(std::net::TcpListener::from_raw_fd(fd))
    }
}

/// Fallback without the `SO_REUSEADDR` fast-rebind (non-unix).
#[cfg(not(unix))]
pub fn bind_reusable(port: u16) -> std::io::Result<std::net::TcpListener> {
    std::net::TcpListener::bind(("127.0.0.1", port))
}
