//! The TCP transport: a writer and a reader thread per directed link
//! beneath the transport-agnostic nodes of `mc-live` (written as
//! `async fn`s over the `compat/tokio` shim, which runs each on a thread
//! of its own with blocking socket calls).
//!
//! # Topology
//!
//! One TCP connection per *directed* link: the sending side dials, the
//! receiving side accepts. A freshly dialled connection opens with a
//! [`Control::Hello`] frame naming the sending node; every protocol
//! frame after it is attributed to that node (the session layer needs
//! the link identity for its per-link sequence numbers).
//!
//! # Who does the I/O
//!
//! A round trip costs its wake-ups, not its bytes, so a frame is handled
//! by a thread that is awake anyway wherever that is safe:
//!
//! - *Sending.* A thread with nothing else to do until a reply arrives
//!   writes its own frame ([`Transport::deliver_inline`]): an
//!   application thread whose operation is about to park, or a reader
//!   running a manager. Every other frame goes through the link's queue
//!   to its writer — a loopback write runs the peer's whole receive path
//!   in the writing thread, and an application thread that keeps working
//!   would lose the writer's pipelining. A writer that wakes for a frame
//!   also takes every frame queued behind it, up to [`BUF_CHUNK`] bytes,
//!   and writes them all with one call: a streaming link costs a system
//!   call per burst, not per frame.
//! - *Receiving.* A reader hands a frame for a process node to that
//!   node's inbox; a frame for a manager node runs the manager on the
//!   reader itself ([`ManagerSlot`]).
//!
//! An SC operation thus crosses three threads: application → (socket) →
//! the manager's reader → (socket) → the process's reader → application.
//! Only the two readers are woken when the reply comes back quickly: the
//! parked application thread probes its inbox for a few tens of
//! microseconds before it sleeps (`mc_live`'s spin window), so it takes
//! the reply awake, and the reader's hand-off skips the wake-up call.
//!
//! # One order per link across both write paths
//!
//! A caller writes directly only when nothing on the link is queued or
//! in the writer's hands — a per-link in-flight count that the writer
//! decrements, by the number of frames written, after each write — and
//! the writer has published a greeted connection; otherwise it enqueues.
//! Two sends on a link that are ordered (one thread's, or one manager's
//! under its lock) therefore reach the socket in that order. The writer
//! holds the connection's lock across each write and only direct writers
//! take it, so enqueueing never waits behind a socket write.
//!
//! # Zero-copy hot path
//!
//! Each link owns an *encode arena* (a [`BytesMut`]): `deliver` encodes
//! the frame there and splits it off as a [`Bytes`] view — no copy, no
//! fresh allocation. Once written and dropped, the arena's next `reserve`
//! reclaims the region in place (`bytes::pool_stats` counts the reuses).
//! The reader side mirrors it: one receive buffer per connection, socket
//! reads land in its spare capacity, and [`next_frame`] carves complete
//! frames off the front as views.
//!
//! # Reconnection and fencing
//!
//! A writer whose connection breaks — on its own write or a caller's —
//! redials with exponential backoff, re-sends `Hello`, and resends its
//! gather from the first frame the failed write did not take whole (a
//! torn partial frame dies with the old connection — each connection is
//! a fresh framing context); a frame the socket took whole is never
//! resent. A frame the peer received twice this way is deduplicated by
//! the session layer's sequence numbers, and a *reborn* peer (crash +
//! restart) is fenced by the session epochs that `run_proc_node` derives
//! from the replica incarnation — the same machinery the lossy
//! in-process executor exercises.

use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::Sender;
use mc_live::{ManagerSlot, NodeId, Transport, Wire};
use mc_proto::wire::{
    decode_frame, encode_control, encode_frame, next_frame, oversized_prefix, Control, Frame,
};
use mc_proto::Msg;
use tokio::net::{TcpListener, TcpStream};
use tokio::runtime::Handle;
use tokio::sync::mpsc;

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

/// One directed link: the shared encode arena, the queue to the writer
/// task, and what the writer shares with callers that write directly.
struct Link {
    arena: Mutex<BytesMut>,
    tx: mpsc::Sender<Bytes>,
    wire: Arc<LinkWire>,
}

/// The writer's connection and its backlog, shared with direct writers.
#[derive(Default)]
struct LinkWire {
    /// The writer's connection once greeted; `None` while it (re)dials.
    conn: Mutex<Option<std::net::TcpStream>>,
    /// Frames queued or in the writer's hands; the writer decrements it
    /// after each write.
    inflight: AtomicUsize,
}

impl Link {
    fn encode(&self, encode: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut arena = self.arena.lock().expect("arena healthy");
        debug_assert!(arena.is_empty(), "arena fully split between frames");
        encode(&mut arena);
        let len = arena.len();
        arena.split_to(len)
    }

    /// Queues one frame for the writer, blocking when it is
    /// `SEND_QUEUE` frames behind. Returns `false` only if the writer
    /// task is gone (transport torn down).
    fn push(&self, encode: impl FnOnce(&mut BytesMut)) -> bool {
        self.enqueue(self.encode(encode))
    }

    fn enqueue(&self, frame: Bytes) -> bool {
        self.wire.inflight.fetch_add(1, Ordering::AcqRel);
        let sent = self.tx.blocking_send(frame).is_ok();
        if !sent {
            self.wire.inflight.fetch_sub(1, Ordering::AcqRel);
        }
        sent
    }

    /// Writes one frame on the calling thread when the link is up and
    /// idle; queues it otherwise, or when the write fails (the writer
    /// then redials and resends it whole).
    fn push_inline(&self, encode: impl FnOnce(&mut BytesMut)) -> bool {
        let frame = self.encode(encode);
        let wire = &self.wire;
        if wire.inflight.load(Ordering::Acquire) == 0 {
            let mut conn = wire.conn.lock().expect("connection healthy");
            if let Some(stream) =
                conn.as_mut().filter(|_| wire.inflight.load(Ordering::Acquire) == 0)
            {
                if stream.write_all(&frame).is_ok() {
                    return true;
                }
                *conn = None;
            }
        }
        self.enqueue(frame)
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
        let wire = Arc::new(LinkWire::default());
        handle.spawn(write_link(from as u32, addr, rx, wire.clone()));
        self.links[from * self.nnodes + to] =
            Some(Link { arena: Mutex::new(BytesMut::with_capacity(BUF_CHUNK)), tx, wire });
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

    /// Delivers to a node hosted here, for want of a TCP link to it.
    fn deliver_local(&self, from: NodeId, to: NodeId, msg: Msg) -> bool {
        match &self.local[to] {
            Some(tx) => tx.send(Wire::Proto { from, msg }).is_ok(),
            None => false,
        }
    }
}

impl Transport for TcpTransport {
    fn deliver(&self, from: NodeId, to: NodeId, msg: Msg) -> bool {
        match self.link(from, to) {
            Some(l) => l.push(|b| encode_frame(b, &msg)),
            None => self.deliver_local(from, to, msg),
        }
    }

    fn deliver_inline(&self, from: NodeId, to: NodeId, msg: Msg) -> bool {
        match self.link(from, to) {
            Some(l) => l.push_inline(|b| encode_frame(b, &msg)),
            None => self.deliver_local(from, to, msg),
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
/// `Hello`, publish the connection, then drain the frame queue into the
/// socket, redialling on any error with the frames it interrupted
/// carried over.
///
/// Each wake-up writes the frame it woke for together with every frame
/// already queued behind it, up to [`BUF_CHUNK`] bytes, copied back to
/// back into the link's gather buffer and written with one call. The
/// buffer is a pooled region like the encode arena: written bytes are
/// split off and dropped, so the next frames reclaim it in place. It
/// starts empty and grows only to the largest burst the link carries,
/// so a quiet link keeps no 64 KiB region.
async fn write_link(me: u32, addr: SocketAddr, mut rx: mpsc::Receiver<Bytes>, wire: Arc<LinkWire>) {
    // The frames taken off the queue and not yet written whole, back to
    // back, and the length of each.
    let mut gather = BytesMut::with_capacity(0);
    let mut lens: Vec<usize> = Vec::new();
    let mut hello = BytesMut::with_capacity(64);
    loop {
        let mut backoff = BACKOFF_MIN;
        let stream = loop {
            match TcpStream::connect(addr).await {
                Ok(s) => break s,
                Err(_) => {
                    tokio::time::sleep(backoff).await;
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
        };
        let Ok(mut stream) = stream.into_std() else { continue };
        let _ = stream.set_nodelay(true);
        encode_control(&mut hello, &Control::Hello { node: me });
        let greeting = {
            let len = hello.len();
            hello.split_to(len)
        };
        if stream.write_all(&greeting).is_err() {
            continue;
        }
        *wire.conn.lock().expect("connection healthy") = Some(stream);
        loop {
            if gather.is_empty() {
                let Some(frame) = rx.recv().await else {
                    wire.conn.lock().expect("connection healthy").take();
                    return;
                };
                gather.put_slice(&frame);
                lens.push(frame.len());
            }
            while gather.len() < BUF_CHUNK {
                let Ok(frame) = rx.try_recv() else { break };
                gather.put_slice(&frame);
                lens.push(frame.len());
            }
            let mut conn = wire.conn.lock().expect("connection healthy");
            let written = match conn.as_mut() {
                Some(stream) => write_counted(stream, &gather),
                None => Err(0),
            };
            let (frames, bytes) = match written {
                Ok(()) => (lens.len(), gather.len()),
                Err(took) => resend_point(&lens, took),
            };
            wire.inflight.fetch_sub(frames, Ordering::AcqRel);
            drop(gather.split_to(bytes));
            lens.drain(..frames);
            if written.is_err() {
                // A torn frame dies with this connection and is resent
                // whole after redialling. The duplicate the peer may see
                // is absorbed by session sequencing.
                *conn = None;
                break;
            }
        }
    }
}

/// Writes all of `buf`, or reports how many of its leading bytes the
/// socket took before the write failed.
fn write_counted(stream: &mut impl Write, buf: &[u8]) -> Result<(), usize> {
    let mut took = 0;
    while took < buf.len() {
        match stream.write(&buf[took..]) {
            Ok(0) => return Err(took),
            Ok(n) => took += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(took),
        }
    }
    Ok(())
}

/// Where a gather of frames of lengths `lens` resumes after a failed
/// write that took its first `written` bytes: the leading frames written
/// whole, as `(count, bytes)`. Those are never resent; the first frame
/// cut short and every one after it are.
fn resend_point(lens: &[usize], written: usize) -> (usize, usize) {
    let mut bytes = 0;
    for (i, &len) in lens.iter().enumerate() {
        if bytes + len > written {
            return (i, bytes);
        }
        bytes += len;
    }
    (lens.len(), bytes)
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
    listen(listener, inbound, None, handle);
}

/// [`spawn_listener`] for a node that is a manager hosted in `manager`:
/// its readers run it on every protocol frame instead of using the
/// inbox, which then carries only `Shutdown`.
pub(crate) fn listen(
    listener: std::net::TcpListener,
    inbound: Inbound,
    manager: Option<ManagerSlot>,
    handle: &Handle,
) {
    let handle2 = handle.clone();
    handle.spawn(async move {
        let Ok(listener) = TcpListener::from_std(listener) else { return };
        loop {
            match listener.accept().await {
                Ok((stream, _)) => {
                    handle2.spawn(read_link(stream, inbound.clone(), manager.clone()));
                }
                Err(_) => return,
            }
        }
    });
}

/// The reader task of one accepted connection: socket reads land in the
/// spare capacity of a single receive buffer, and [`ingest`] takes every
/// complete frame off its front.
async fn read_link(mut stream: TcpStream, inbound: Inbound, manager: Option<ManagerSlot>) {
    let _ = stream.set_nodelay(true);
    let mut buf = BytesMut::with_capacity(BUF_CHUNK);
    let mut from: Option<NodeId> = None;
    loop {
        buf.reserve(BUF_CHUNK);
        let n = match stream.read(buf.spare_mut()).await {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        buf.advance_written(n);
        match ingest(&mut buf, &mut from, &inbound, manager.as_ref()) {
            Ok(()) => {}
            // The node exited (shutdown); the link is done.
            Err(Dropped::Closed) => return,
            Err(Dropped::Broken(why)) => {
                eprintln!("mc-net: dropping connection {why}");
                return;
            }
        }
    }
}

/// Why a reader stops reading its connection.
#[derive(Debug, PartialEq)]
enum Dropped {
    /// The destination is gone: its inbox closed or its manager taken.
    Closed,
    /// The peer broke the framing protocol (logged).
    Broken(&'static str),
}

/// Decodes and delivers every complete frame at the front of `buf`. The
/// dialler's `Hello` sets `from`, which names the sender of every
/// protocol frame after it; a protocol frame before it is a framing
/// error.
fn ingest(
    buf: &mut BytesMut,
    from: &mut Option<NodeId>,
    inbound: &Inbound,
    manager: Option<&ManagerSlot>,
) -> Result<(), Dropped> {
    while let Some(body) = next_frame(buf) {
        match decode_frame(&body) {
            Ok(Frame::Msg(msg)) => {
                let f = from.ok_or(Dropped::Broken("on a protocol frame before Hello"))?;
                let delivered = match manager {
                    Some(m) => m.deliver(f, msg),
                    None => inbound.inbox.send(Wire::Proto { from: f, msg }).is_ok(),
                };
                if !delivered {
                    return Err(Dropped::Closed);
                }
                inbound.delivered.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Frame::Control(Control::Hello { node })) => *from = Some(node as usize),
            Ok(Frame::Control(Control::Shutdown)) => {
                let _ = inbound.inbox.send(Wire::Shutdown);
            }
            Ok(Frame::Control(done @ Control::Done { .. })) => {
                let _ = inbound.events.send(done);
            }
            Err(_) => return Err(Dropped::Broken("on an undecodable frame")),
        }
    }
    if oversized_prefix(buf) {
        // No encoder writes such a header; buffering toward it would let
        // one hostile peer claim gigabytes.
        return Err(Dropped::Broken("on a frame header over MAX_FRAME"));
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use mc_model::{Loc, ProcId};

    fn ping(loc: u32) -> Msg {
        Msg::ScRead { proc: ProcId(0), loc: Loc(loc) }
    }

    /// A protocol frame with no `Hello` before it breaks the connection,
    /// and nothing reaches the inbox.
    #[test]
    fn a_frame_before_hello_drops_the_connection() {
        let (inbox, rx) = unbounded();
        let (events, _) = unbounded();
        let inbound = Inbound { inbox, events, delivered: Arc::default() };
        let mut buf = BytesMut::with_capacity(256);
        encode_frame(&mut buf, &ping(1));
        let mut from = None;
        let dropped = ingest(&mut buf, &mut from, &inbound, None);
        assert_eq!(dropped, Err(Dropped::Broken("on a protocol frame before Hello")));
        assert!(rx.try_recv().is_err(), "nothing delivered");
        assert_eq!(inbound.delivered.load(Ordering::Relaxed), 0);

        // The same frame after a greeting is delivered.
        encode_control(&mut buf, &Control::Hello { node: 3 });
        encode_frame(&mut buf, &ping(2));
        assert_eq!(ingest(&mut buf, &mut from, &inbound, None), Ok(()));
        match rx.try_recv() {
            Ok(Wire::Proto { from: 3, msg: Msg::ScRead { loc: Loc(2), .. } }) => {}
            _ => panic!("the greeted frame reaches the inbox"),
        }
    }

    /// A failed gather write resumes at the first frame not written
    /// whole, at every byte offset of a three-frame gather.
    #[test]
    fn a_failed_gather_resends_from_the_first_torn_frame() {
        let lens = [5, 1, 7];
        let want = |written: usize| match written {
            0..=4 => (0, 0),
            5 => (1, 5),
            6..=12 => (2, 6),
            13 => (3, 13),
            _ => unreachable!(),
        };
        for written in 0..=13 {
            assert_eq!(resend_point(&lens, written), want(written), "{written} bytes written");
        }
        assert_eq!(resend_point(&[], 0), (0, 0));
    }

    /// The byte count a failed write reports is what the sink took.
    #[test]
    fn write_counted_reports_the_bytes_taken_before_a_failure() {
        /// Takes at most `room` bytes, three at a time, then fails.
        struct Sink {
            room: usize,
            got: Vec<u8>,
        }
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3).min(self.room - self.got.len());
                if n == 0 {
                    return Err(std::io::ErrorKind::BrokenPipe.into());
                }
                self.got.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf: Vec<u8> = (0..13).collect();
        for room in 0..=13 {
            let mut sink = Sink { room, got: Vec::new() };
            let res = write_counted(&mut sink, &buf);
            assert_eq!(res, if room == 13 { Ok(()) } else { Err(room) });
            assert_eq!(sink.got, buf[..room]);
        }
    }
}
