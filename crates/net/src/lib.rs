//! # mc-net — the mixed-consistency protocols over real TCP
//!
//! The third executor of the reproduction, completing the ladder:
//! deterministic simulation (`mc-sim`), real threads over channels
//! (`mc-live`), and — here — real processes over TCP ([`Tcp`]), a
//! blocking writer and a blocking reader thread per directed link.
//! **The protocol state machines and the node mains are the same
//! code**: `mc-net` plugs a [`TcpTransport`] into `mc-live`'s
//! [`Transport`](mc_live::Transport) seam and feeds decoded frames into
//! the identical `run_proc_node` loop and `ManagerSlot`, so a green
//! run here demonstrates the protocols survive genuine networking —
//! partial writes, reconnects, kernel buffering — not just genuine
//! concurrency.
//!
//! The wire format is `mc_proto::wire`: length-prefixed binary frames
//! whose encoded size is, byte for byte, the `Msg::wire_bytes` the
//! analytical model charges. The hot paths are zero-copy in steady
//! state — frames encode into per-link reusable arenas and decode as
//! views of per-connection receive buffers (see `transport`).
//!
//! ```no_run
//! use mc_net::Tcp;
//! use mixed_consistency::{Loc, ProcModel, System, Value};
//!
//! let mut sys = System::on(Tcp, 2, ProcModel::MIXED).record(true);
//! sys.spawn(|ctx| {
//!     ctx.write(Loc(0), 42);
//!     ctx.write(Loc(1), 1);
//! });
//! sys.spawn(|ctx| {
//!     ctx.await_eq(Loc(1), Value::Int(1));
//!     assert_eq!(ctx.read_pram(Loc(0)), Value::Int(42));
//! });
//! let outcome = sys.run().expect("cluster runs");
//! outcome.verify().expect("TCP, still mixed consistent");
//! ```

#![warn(missing_docs)]

pub mod cluster;
mod legacy;
mod links;
mod placement;
pub mod transport;
pub mod workload;

pub use cluster::{run_cluster_node, NodeOpts, NodeOutcome, Tcp};
#[doc(hidden)]
pub use legacy::*;
pub use links::Links;
pub use transport::{listen, Inbound, TcpTransport, TcpTransportBuilder};
pub use workload::Workload;

#[cfg(test)]
mod tests {
    //! Teardown and idle cost of the link threads, across the owner and
    //! the transport.

    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    use bytes::BytesMut;
    use crossbeam::channel::{unbounded, Receiver};
    use mc_live::{Transport, Wire};
    use mc_model::{Loc, ProcId};
    use mc_proto::wire::{decode_frame, encode_control, encode_frame, next_frame, Control, Frame};
    use mc_proto::Msg;

    use crate::{listen, Inbound, Links, TcpTransport, TcpTransportBuilder};

    /// Reads the link readers have completed, across every reader: the
    /// tests that start readers hold [`SERIAL`].
    pub(crate) static READS: AtomicUsize = AtomicUsize::new(0);
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn ping(seq: u32) -> Msg {
        Msg::ScRead { proc: ProcId(0), loc: Loc(seq) }
    }

    fn bound() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        (listener, addr)
    }

    /// A listener of `links` that hands what it reads to the returned inbox.
    fn listening(links: &Links) -> (SocketAddr, Receiver<Wire>) {
        let (listener, addr) = bound();
        let (inbox, rx) = unbounded();
        let (events, _) = unbounded();
        listen(listener, Inbound { inbox, events, delivered: Arc::default() }, None, links);
        (addr, rx)
    }

    /// The `0 -> 1` link of a two-node transport, dialling `addr`.
    fn link_to(addr: SocketAddr, links: &Links) -> TcpTransport {
        let mut b = TcpTransportBuilder::new(2);
        b.dial(0, 1, addr, links);
        b.build()
    }

    /// Drops `links` on another thread; a teardown that hangs fails.
    fn tear_down(links: Links) {
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            drop(links);
            let _ = done_tx.send(());
        });
        done.recv_timeout(Duration::from_secs(10)).expect("teardown ends");
    }

    /// One frame as a dialler writes it: after `Hello` when `greet`.
    fn burst(greet: bool, seq: u32) -> BytesMut {
        let mut buf = BytesMut::with_capacity(64);
        if greet {
            encode_control(&mut buf, &Control::Hello { node: 0 });
        }
        encode_frame(&mut buf, &ping(seq));
        buf
    }

    /// A silent link performs no reads; each arriving burst costs one.
    #[test]
    fn idle_link_costs_nothing() {
        let _serial = serial();
        let links = Links::new();
        let (addr, inbox) = listening(&links);
        let mut client = TcpStream::connect(addr).expect("connect");
        client.set_nodelay(true).expect("nodelay");
        let reads = READS.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(READS.load(Ordering::SeqCst), reads, "nothing was sent yet");
        for n in 1..=5 {
            client.write_all(&burst(n == 1, n)).expect("write");
            // Waiting for the frame keeps bursts from merging.
            inbox.recv_timeout(Duration::from_secs(10)).expect("burst arrives");
            assert_eq!(READS.load(Ordering::SeqCst), reads + n as usize, "one read per burst");
        }
        tear_down(links);
    }

    /// Every kind of parked link thread — an accept loop, a reader whose
    /// peer is still connected, a writer redialling a dead address —
    /// ends at teardown, and the listening port is free again.
    #[test]
    fn drop_wakes_every_parked_task_and_frees_the_port() {
        let _serial = serial();
        let links = Links::new();
        let (addr, inbox) = listening(&links);
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&burst(true, 1)).expect("write");
        inbox.recv_timeout(Duration::from_secs(10)).expect("the link comes up");
        let (dead, dead_addr) = bound();
        drop(dead);
        let redialling = link_to(dead_addr, &links);
        tear_down(links);
        TcpListener::bind(addr).expect("the listening port is free again");
        drop((peer, redialling));
    }

    /// Once teardown has ended a link's writer, a send on the link fails
    /// instead of blocking.
    #[test]
    fn send_fails_once_the_receiving_task_is_gone() {
        let (dead, dead_addr) = bound();
        drop(dead);
        let links = Links::new();
        let t = link_to(dead_addr, &links);
        tear_down(links);
        assert!(!t.deliver(0, 1, ping(1)), "the writer is gone");
    }

    /// Teardown joins a writer only after it has written every frame
    /// queued on its live connection.
    #[test]
    fn a_queued_frame_is_written_before_the_join() {
        const FRAMES: u32 = 1_000;
        let (listener, addr) = bound();
        let links = Links::new();
        let t = link_to(addr, &links);
        // Connected: the writer no longer checks for teardown.
        let (mut conn, _) = listener.accept().expect("the writer dials");
        for seq in 0..FRAMES {
            assert!(t.deliver(0, 1, ping(seq)), "the link is up");
        }
        drop(t);
        tear_down(links);
        let mut bytes = Vec::new();
        conn.read_to_end(&mut bytes).expect("the writer closed its connection");
        let mut buf = BytesMut::with_capacity(bytes.len());
        buf.put_slice(&bytes);
        let mut seqs = Vec::new();
        while let Some(body) = next_frame(&mut buf) {
            match decode_frame(&body).expect("well-formed frame") {
                Frame::Control(Control::Hello { node: 0 }) => assert!(seqs.is_empty()),
                Frame::Msg(Msg::ScRead { loc, .. }) => seqs.push(loc.0),
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert!(buf.is_empty(), "no torn frame");
        assert_eq!(seqs, (0..FRAMES).collect::<Vec<_>>(), "every queued frame, in order");
    }
}
