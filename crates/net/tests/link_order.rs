//! One link, two write paths, one order.
//!
//! A frame on a `TcpTransport` link is written either by the link's
//! writer thread (`deliver`, through the queue) or by the calling thread
//! itself (`deliver_inline`, when nothing is queued or in the writer's
//! hands). Whatever the mix, the receiver must see the link's frames in
//! send order, each exactly once — and still so when the connection
//! breaks mid-stream and the writer redials.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::unbounded;
use mc_live::{Transport, Wire};
use mc_model::{Loc, ProcId};
use mc_net::{spawn_listener, Inbound, TcpTransport, TcpTransportBuilder};
use mc_proto::wire::{decode_frame, next_frame, Control, Frame};
use mc_proto::Msg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tokio::runtime::Runtime;

const FRAMES: u32 = 10_000;

/// Frame `seq` of the stream: its sequence number rides in the location.
fn frame(seq: u32) -> Msg {
    Msg::ScRead { proc: ProcId(0), loc: Loc(seq) }
}

fn seq_of(msg: &Msg) -> u32 {
    match msg {
        Msg::ScRead { loc, .. } => loc.0,
        other => panic!("not a test frame: {other:?}"),
    }
}

/// The `0 -> 1` link of a two-node transport dialling `addr`.
fn link_to(addr: SocketAddr, rt: &Runtime) -> TcpTransport {
    let mut b = TcpTransportBuilder::new(2);
    b.link(0, 1, addr, rt.handle());
    b.build()
}

/// Sends frames `from..to` in a seeded mix: bursts through the queue
/// that leave the writer a deep backlog, runs written by the caller
/// whenever the link is idle, and runs that first wait until `received`
/// has caught up, so the caller's own writes certainly happen.
fn send_mix(t: &TcpTransport, rng: &mut StdRng, from: u32, to: u32, received: &AtomicUsize) {
    let mut seq = from;
    while seq < to {
        let (n, inline) = match rng.gen_range(0..10u32) {
            0..=3 => (rng.gen_range(1..300u32), false),
            4..=7 => (rng.gen_range(1..20u32), true),
            _ => {
                let deadline = Instant::now() + Duration::from_secs(20);
                while received.load(Ordering::SeqCst) < seq as usize {
                    assert!(Instant::now() < deadline, "frames below {seq} never arrived");
                    std::thread::yield_now();
                }
                (rng.gen_range(1..20u32), true)
            }
        };
        for s in seq..(seq + n).min(to) {
            let sent =
                if inline { t.deliver_inline(0, 1, frame(s)) } else { t.deliver(0, 1, frame(s)) };
            assert!(sent, "the link is up");
        }
        seq = (seq + n).min(to);
    }
}

#[test]
fn queued_and_caller_written_frames_arrive_in_send_order() {
    let rt = Runtime::with_workers(2);
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback binds");
    let addr = listener.local_addr().expect("a bound listener has an address");
    let (inbox, rx) = unbounded();
    let (events, _) = unbounded();
    let inbound = Inbound { inbox, events, delivered: Arc::default() };
    spawn_listener(listener, inbound.clone(), rt.handle());
    let t = link_to(addr, &rt);

    let received = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for want in 0..FRAMES {
                match rx.recv_timeout(Duration::from_secs(20)) {
                    Ok(Wire::Proto { from: 0, msg }) => assert_eq!(seq_of(&msg), want),
                    Ok(_) => panic!("only protocol frames from node 0 travel here"),
                    Err(e) => panic!("frame {want} never arrived: {e}"),
                }
                received.fetch_add(1, Ordering::SeqCst);
            }
        });
        send_mix(&t, &mut StdRng::seed_from_u64(29), 0, FRAMES, &received);
    });
    assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "no frame twice");
    assert_eq!(inbound.delivered.load(Ordering::SeqCst), u64::from(FRAMES));
}

/// Ends `sock` with a reset rather than a FIN, so the peer's next write
/// fails at once instead of vanishing into a closed connection.
#[cfg(unix)]
fn reset(sock: TcpStream) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        on: i32,
        secs: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { on: 1, secs: 0 };
    // SAFETY: a valid descriptor and an 8-byte `struct linger`.
    let r = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(r, 0, "SO_LINGER");
    drop(sock);
}

/// The frames one accepted connection carries after its `Hello`, each
/// counted in `seen`; ends at EOF, or — `stop_after` — once that many
/// have arrived.
fn frames_on(sock: &mut TcpStream, stop_after: Option<usize>, seen: &AtomicUsize) -> Vec<u32> {
    let mut buf = BytesMut::with_capacity(64 * 1024);
    let (mut greeted, mut got) = (false, Vec::new());
    loop {
        buf.reserve(64 * 1024);
        let n = sock.read(buf.spare_mut()).expect("read");
        if n == 0 {
            return got;
        }
        buf.advance_written(n);
        while let Some(body) = next_frame(&mut buf) {
            match decode_frame(&body).expect("well-formed frame") {
                Frame::Control(Control::Hello { node: 0 }) if !greeted => greeted = true,
                Frame::Msg(msg) if greeted => {
                    got.push(seq_of(&msg));
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        if stop_after.is_some_and(|k| got.len() >= k) {
            assert!(buf.is_empty(), "nothing past the break was sent yet");
            return got;
        }
    }
}

#[cfg(unix)]
#[test]
fn a_reset_mid_stream_redials_and_keeps_the_order() {
    const BREAK: u32 = FRAMES / 2;
    let rt = Runtime::with_workers(2);
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback binds");
    let addr = listener.local_addr().expect("a bound listener has an address");
    let t = link_to(addr, &rt);

    let received = AtomicUsize::new(0);
    let (broke_tx, broke) = mpsc::channel();
    let got = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let (mut first, _) = listener.accept().expect("the writer dials");
            let mut got = frames_on(&mut first, Some(BREAK as usize), &received);
            reset(first);
            broke_tx.send(()).expect("sender alive");
            let (mut second, _) = listener.accept().expect("the writer redials");
            got.extend(frames_on(&mut second, None, &received));
            got
        });
        let mut rng = StdRng::seed_from_u64(7);
        send_mix(&t, &mut rng, 0, BREAK, &received);
        broke.recv().expect("the receiver breaks the connection");
        // Nothing on the link is in flight now: the first frame after the
        // break meets the reset connection on whichever path writes it.
        send_mix(&t, &mut rng, BREAK, FRAMES, &received);
        drop(t); // the writer drains its queue and closes: EOF ends the read
        receiver.join().expect("receiver")
    });
    // The frame the reset interrupted may arrive twice; nothing else may.
    let mut want = 0u32;
    for (i, &seq) in got.iter().enumerate() {
        if seq + 1 == want && seq == BREAK && got[i - 1] == BREAK {
            continue;
        }
        assert_eq!(seq, want, "frame {i} of the stream");
        want += 1;
    }
    assert_eq!(want, FRAMES, "every frame arrived");
}
