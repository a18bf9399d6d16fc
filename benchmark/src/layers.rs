//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each crate's public functions, plus short *twin* runs of
//! the live bodies with one configuration field changed, plus the
//! selected workload re-run with spans on. The layer suite is the same
//! whichever workload is selected; only `bench.*` and the span file are
//! the workload's own. Below `FULL_SECONDS` every size shrinks in
//! proportion, for self-tests.

use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver};
use mc_live::{Transport, Wire};
use mc_model::check::{CheckError, CheckReport};
use mc_model::spec::check_model;
use mc_model::{History, Loc, ModelAssignment, ProcId, ReadLabel, VClock, Value, WriteId};
use mc_net::{spawn_listener, Inbound, TcpTransport, TcpTransportBuilder};
use mc_proto::{
    decode_frame, decode_wal, encode_frame, next_frame, BatchEntry, DsmConfig, DurabilityPolicy,
    FileDisk, LinkReceiver, LinkSender, Manager, Mode, Msg, Replica, SessionConfig, UpdatePayload,
    WalRecord, FRAME_HEADER,
};
use mixed_consistency::explore::{explore_with, ExploreOptions};
use mixed_consistency::{ProgSpec, SpecOp};
use tokio::runtime::Runtime;

use crate::live::{Exec, LiveConfig, ScratchDir, Trace};
use crate::simcheck::{self, SIM_PROCS};
use crate::slices::{slice_median, Plan, Slice};
use crate::spans::SpanSink;
use crate::stats::{iqr_frac, median, percentile};
use crate::workloads::{
    live_config, run_live, sim_iters, timed_simulation, Env, LiveRun, Report, Segments,
    FULL_SECONDS, MIN_SAMPLES,
};

/// Timed batches per micro-kernel; the metric is their median.
const BATCHES: usize = 5;
/// Segments of a twin run (one, once the traced run is late), and how
/// long each would last on the workload's own configuration at full size.
const TWIN_SEGMENTS: Segments = Segments { most: 3, least: 1, late_factor: 2.5 };
const TWIN_SEGMENT_SECONDS: f64 = 0.25;
/// Fewest rounds in a slice that only a rate and a median are read from.
const MIN_SLICE: u64 = 200;

/// The shared state of one traced run.
struct Suite<'a> {
    env: &'a Env,
    /// Share of full size this run works at: 1 from `FULL_SECONDS` up.
    scale: f64,
    sink: Arc<SpanSink>,
    /// The span enclosing the layer suite.
    root: usize,
    report: Report,
}

impl Suite<'_> {
    /// `full` iterations, scaled down for short runs.
    fn n(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(32)
    }

    /// Records `name` as the median of [`BATCHES`] values of `one`.
    fn batches(&mut self, name: &'static str, mut one: impl FnMut(&Self) -> f64) {
        let values: Vec<f64> = (0..BATCHES).map(|_| one(self)).collect();
        self.report.set(name, median(&values));
    }

    /// Records `name` as the nanoseconds one call of `f` takes, divided
    /// by `per` (1 000 for µs, 16 for a call that handles 16 updates):
    /// the median over batches of `iters` calls (scaled), one span each.
    fn kernel(&mut self, name: &'static str, iters: usize, per: f64, mut f: impl FnMut(usize)) {
        let iters = self.n(iters);
        self.batches(name, |s| {
            let ((), secs) = s.timed(name, || (0..iters).for_each(&mut f));
            secs * 1e9 / iters as f64 / per
        });
    }

    /// Runs `f` once inside a span and returns its result and seconds.
    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.sink.open(name, Some(self.root));
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.sink.close(span);
        (r, secs)
    }

    /// A short traced run of `cfg`; failures count against the report.
    fn twin(&mut self, name: &'static str, cfg: LiveConfig) -> (LiveRun, usize) {
        let span = self.sink.open(name, Some(self.root));
        let trace: Trace = Some((self.sink.clone(), span));
        // The work its workload does in `TWIN_SEGMENT_SECONDS`: a twin
        // several times slower (or faster) takes that much longer (or less).
        let rounds = cfg.rounds_per_second() * TWIN_SEGMENT_SECONDS * self.scale;
        let plan = Plan::sized(rounds as u64, MIN_SLICE);
        let run = run_live(cfg, TWIN_SEGMENTS, plan, self.env, name, &trace, || {});
        self.sink.close(span);
        self.tally(&run);
        (run, span)
    }

    fn tally(&mut self, run: &LiveRun) {
        self.report.attempted += run.attempted;
        self.report.failed += run.failed;
        self.report.violations += run.segments.iter().map(|s| s.diverged).sum::<u64>();
    }
}

/// Runs the traced benchmark for workload `name`: the layer suite, then
/// the workload with spans off and on. Writes the span file into
/// `trace_dir` and returns every per-layer metric.
pub fn traced(name: &str, env: &Env, trace_dir: &Path) -> Report {
    let sink = Arc::new(SpanSink::new(name));
    let root = sink.open("layers", None);
    let scale = (env.seconds / FULL_SECONDS).min(1.0);
    let mut suite = Suite { env, scale, sink: sink.clone(), root, report: Report::default() };
    wire_kernels(&mut suite);
    replica_kernels(&mut suite);
    session_kernels(&mut suite);
    wal_kernels(&mut suite);
    manager_kernels(&mut suite);
    net_kernels(&mut suite);
    simcheck::on_one_cpu(|_| model_and_sim_kernels(&mut suite));
    live_twins(&mut suite);
    sink.close(root);
    workload_overhead(name, &mut suite);

    let mut report = suite.report;
    std::fs::create_dir_all(trace_dir).expect("the build directory is writable");
    let path = trace_dir.join(format!("trace-{name}-{}.json", env.seed));
    match sink.write(&path) {
        Ok(n) => eprintln!("mcbench: {n} spans written to {}", path.display()),
        Err(e) => {
            eprintln!("mcbench: cannot write {}: {e}", path.display());
            report.failed += 1;
        }
    }
    report
}

fn clock2(a: u32, b: u32) -> VClock {
    let mut c = VClock::new(2);
    c.set(ProcId(0), a);
    c.set(ProcId(1), b);
    c
}

fn update_msg(seq: u32) -> Msg {
    Msg::Update {
        writer: WriteId::new(ProcId(0), seq),
        loc: Loc(seq % 32),
        payload: UpdatePayload::Set(Value::Int(i64::from(seq))),
        deps: Some(clock2(seq, 0)),
    }
}

fn batch_entries(first_seq: u32) -> Arc<[BatchEntry]> {
    (0..16)
        .map(|i| BatchEntry {
            loc: Loc(i),
            payload: UpdatePayload::Set(Value::Int(i64::from(first_seq + i))),
            writer: WriteId::new(ProcId(0), first_seq + i),
            adds: Vec::new(),
        })
        .collect()
}

fn batch_msg(first_seq: u32) -> Msg {
    Msg::UpdateBatch {
        proc: ProcId(0),
        first_seq,
        upto: first_seq + 15,
        entries: batch_entries(first_seq),
        delta: Some(vec![(ProcId(0), first_seq + 15)]),
        ack: None,
    }
}

/// `mc-proto::wire`: encode into a reused arena the way the transport
/// does (encode, split the frame off, drop it), decode from one body.
fn wire_kernels(s: &mut Suite) {
    let sc_write = Msg::ScWrite {
        writer: WriteId::new(ProcId(0), 7),
        loc: Loc(3),
        payload: UpdatePayload::Set(Value::Int(7)),
    };
    let sess = Msg::SessData { seq: 9, epoch: 0, inner: Box::new(batch_msg(1)) };
    let cases: [(&'static str, &'static str, &'static str, Msg); 4] = [
        (
            "wire.encode_ns.update",
            "wire.decode_ns.update",
            "wire.frame_bytes.update",
            update_msg(5),
        ),
        (
            "wire.encode_ns.batch16",
            "wire.decode_ns.batch16",
            "wire.frame_bytes.batch16",
            batch_msg(1),
        ),
        ("wire.encode_ns.sess_batch16", "wire.decode_ns.sess_batch16", "", sess),
        ("wire.encode_ns.sc_write", "wire.decode_ns.sc_write", "", sc_write),
    ];
    for (enc, dec, size, msg) in cases {
        let mut arena = BytesMut::with_capacity(64 * 1024);
        s.kernel(enc, 50_000, 1.0, |_| {
            encode_frame(&mut arena, black_box(&msg));
            let len = arena.len();
            black_box(arena.split_to(len));
        });
        encode_frame(&mut arena, &msg);
        let frame_len = arena.len();
        let body = next_frame(&mut arena).expect("one whole frame is buffered");
        s.kernel(dec, 50_000, 1.0, |_| {
            black_box(decode_frame(black_box(&body)).expect("the frame just encoded decodes"));
        });
        if !size.is_empty() {
            assert_eq!(frame_len as u64, FRAME_HEADER as u64 + msg.wire_bytes());
            s.report.set(size, frame_len as f64);
        }
    }
}

/// `mc-proto::replica` on the causal substrate, 2 processes.
fn replica_kernels(s: &mut Suite) {
    let cfg = DsmConfig::new(2, Mode::Causal);
    const N: usize = 100_000;
    let mut writer = Replica::new(ProcId(0), 2).with_store_capacity(64);
    s.kernel("replica.local_write_ns", N, 1.0, |i| {
        let payload = UpdatePayload::Set(Value::Int(i as i64));
        black_box(writer.local_write(Loc(i as u32 % 32), payload, &cfg));
    });

    // In order: every update is causally ready on arrival.
    let mut seq = 0u32;
    let mut r = Replica::new(ProcId(1), 2).with_store_capacity(64);
    s.kernel("replica.ingest_ns", N, 1.0, |_| {
        seq += 1;
        let payload = UpdatePayload::Set(Value::Int(i64::from(seq)));
        let deps = Some(clock2(seq, 0));
        black_box(r.ingest(
            WriteId::new(ProcId(0), seq),
            Loc(seq % 32),
            payload,
            deps,
            Mode::Causal,
        ));
    });

    let mut first = 1u32;
    let mut r = Replica::new(ProcId(1), 2).with_store_capacity(64);
    s.kernel("replica.ingest_batch16_ns_per_update", N / 16, 16.0, |_| {
        let deps = Some(clock2(first + 15, 0));
        black_box(r.ingest_batch(
            ProcId(0),
            first,
            first + 15,
            batch_entries(first),
            deps,
            Mode::Causal,
        ));
        first += 16;
    });

    // Gated: each group of 16 arrives newest first, so 15 updates park
    // and the oldest, arriving last, drains them through the causal gate.
    let mut base = 0u32;
    let mut peak = 0usize;
    let mut r = Replica::new(ProcId(1), 2).with_store_capacity(64);
    s.kernel("replica.ingest_gated_ns", N / 16, 16.0, |_| {
        for k in (1..=16).rev() {
            let seq = base + k;
            let payload = UpdatePayload::Set(Value::Int(i64::from(seq)));
            r.ingest(
                WriteId::new(ProcId(0), seq),
                Loc(seq % 32),
                payload,
                Some(clock2(seq, 0)),
                Mode::Causal,
            );
            peak = peak.max(r.pending_len());
        }
        base += 16;
    });
    assert_eq!(r.pending_len(), 0, "every gated update drained");
    s.report.set("replica.pending_peak", peak as f64);

    s.kernel("replica.causal_ready_ns", 1_000_000, 1.0, |i| {
        black_box(r.causal_ready(black_box(Loc(i as u32 % 32))));
    });
}

/// `mc-proto::session`: one directed link's sender and receiver.
fn session_kernels(s: &mut Suite) {
    let cfg = SessionConfig::default();
    let n = s.n(20_000);
    let msgs = |n: usize| -> Vec<Msg> { (1..=n as u32).map(update_msg).collect() };

    s.batches("session.wrap_ns", |s| {
        let (mut tx, input) = (LinkSender::new(&cfg, 0), msgs(n));
        let ((), secs) = s.timed("session.wrap_ns", || {
            input.into_iter().for_each(|m| {
                black_box(tx.wrap(m));
            })
        });
        secs * 1e9 / n as f64
    });

    s.batches("session.on_data_ns", |s| {
        let (mut rx, input) = (LinkReceiver::new(), msgs(n));
        let ((), secs) = s.timed("session.on_data_ns", || {
            input.into_iter().enumerate().for_each(|(i, m)| {
                black_box(rx.on_data(i as u64 + 1, 0, m));
            })
        });
        assert_eq!(rx.delivered(), n as u64);
        secs * 1e9 / n as f64
    });

    // Acks arrive one behind the other against a window of 64 in flight.
    s.batches("session.on_ack_ns", |_| {
        let mut tx = LinkSender::new(&cfg, 0);
        let mut acked = 0u64;
        let mut spent = Duration::ZERO;
        for _ in 0..n / 64 {
            msgs(64).into_iter().for_each(|m| {
                tx.wrap(m);
            });
            let t = Instant::now();
            for _ in 0..64 {
                acked += 1;
                tx.on_ack(black_box(acked), 0, &cfg);
            }
            spent += t.elapsed();
        }
        assert!(!tx.has_unacked());
        spent.as_nanos() as f64 / (n / 64 * 64) as f64
    });

    let mut tx = LinkSender::new(&cfg, 0);
    msgs(1_000).into_iter().for_each(|m| {
        tx.wrap(m);
    });
    s.kernel("session.on_timeout_ns_1k_unacked", 200, 1.0, |_| {
        black_box(tx.on_timeout(&cfg));
    });
}

/// `mc-proto::durability`: the record codec, the file-backed log on this
/// sandbox's disk (ext4 on a virtio device: not a claim about a device),
/// snapshots and replay.
fn wal_kernels(s: &mut Suite) {
    let record = |i: u32| WalRecord::OwnWrite {
        loc: Loc(i % 32),
        payload: UpdatePayload::Set(Value::Int(i64::from(i))),
        deps: Some(clock2(i, 0)),
    };
    s.kernel("wal.encode_ns", 200_000, 1.0, |i| {
        black_box(record(i as u32).encode());
    });
    let frame = record(1).encode();
    s.report.set("wal.bytes_per_record", frame.len() as f64);

    let log_len = s.n(10_000);
    let log: Vec<u8> = (1..=log_len as u32).flat_map(|i| record(i).encode()).collect();
    s.batches("wal.decode_ns_per_record", |s| {
        let ((records, tail), secs) =
            s.timed("wal.decode_ns_per_record", || decode_wal(black_box(&log)));
        assert!(records.len() == log_len && tail.is_clean());
        secs * 1e9 / log_len as f64
    });

    // Recovery's inner loop: decode the log, replay it into a fresh replica.
    s.batches("wal.replay_records_per_s", |s| {
        let ((), secs) = s.timed("wal.replay_records_per_s", || {
            let mut r = Replica::new(ProcId(0), 2).with_store_capacity(64);
            for rec in decode_wal(&log).0 {
                r.replay_record(rec, Mode::Causal);
            }
            assert_eq!(r.own_count() as usize, log_len);
        });
        log_len as f64 / secs
    });

    let dir = ScratchDir::create(&s.env.tmp, "wal-kernels").expect("scratch space is writable");
    let mut disk = FileDisk::open(dir.path()).expect("the WAL directory opens");
    s.kernel("wal.append_us", 2_000, 1e3, |_| {
        disk.append(black_box(&frame)).expect("append succeeds");
    });
    for (name, batch) in [("wal.fsync_us", 1), ("wal.fsync16_us", 16)] {
        let mut syncs = Vec::new();
        for _ in 0..s.n(100) {
            for _ in 0..batch {
                disk.append(&frame).expect("append succeeds");
            }
            let (synced, secs) = s.timed(name, || disk.sync().expect("fsync succeeds"));
            assert!(synced >= batch);
            syncs.push(secs * 1e6);
        }
        s.report.set(name, median(&syncs));
    }

    // A replica the size the durable workload reaches mid-segment.
    let cfg = DsmConfig::new(2, Mode::Causal).with_durability(Some(DurabilityPolicy::default()));
    let mut r = Replica::new(ProcId(0), 2).with_store_capacity(64);
    for i in 0..1_000u32 {
        r.local_write(Loc(i % 32), UpdatePayload::Set(Value::Int(i64::from(i))), &cfg);
    }
    s.kernel("wal.snapshot_encode_us", 200, 1e3, |_| {
        black_box(r.to_snapshot(Vec::new()).encode());
    });
    let snapshot = r.to_snapshot(Vec::new()).encode();
    s.kernel("wal.snapshot_install_us", 10, 1e3, |_| {
        disk.install_snapshot(&snapshot).expect("snapshot installs");
    });
}

/// `mc-proto::manager`: the SC server's two handlers, no transport.
fn manager_kernels(s: &mut Suite) {
    let mut m = Manager::new(2);
    s.kernel("manager.sc_write_ns", 500_000, 1.0, |i| {
        let payload = UpdatePayload::Set(Value::Int(i as i64));
        black_box(m.sc_write(WriteId::new(ProcId(0), i as u32 + 1), Loc(i as u32 % 32), payload));
    });
    s.kernel("manager.sc_read_ns", 500_000, 1.0, |i| {
        black_box(m.sc_read(ProcId(1), Loc(i as u32 % 32)));
    });
}

/// A mesh of `n` nodes on loopback: the listeners, the transport, and
/// each node's inbox. Dropping the runtime tears it down.
struct Mesh {
    _rt: Runtime,
    transport: TcpTransport,
    inboxes: Vec<Receiver<Wire>>,
}

fn mesh(n: usize) -> Mesh {
    let rt = Runtime::with_workers(2);
    let handle = rt.handle().clone();
    let (events, _) = unbounded();
    let delivered = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut builder = TcpTransportBuilder::new(n);
    let mut addrs = Vec::new();
    let mut inboxes = Vec::new();
    for _ in 0..n {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("loopback binds");
        addrs.push(listener.local_addr().expect("a bound listener has an address"));
        let (tx, rx) = unbounded();
        let inbound = Inbound { inbox: tx, events: events.clone(), delivered: delivered.clone() };
        spawn_listener(listener, inbound, &handle);
        inboxes.push(rx);
    }
    for from in 0..n {
        for (to, addr) in addrs.iter().enumerate() {
            if from != to {
                builder.link(from, to, *addr, &handle);
            }
        }
    }
    Mesh { _rt: rt, transport: builder.build(), inboxes }
}

fn recv_msg(rx: &Receiver<Wire>) -> Msg {
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(Wire::Proto { msg, .. }) => msg,
        Ok(Wire::Shutdown) => panic!("no shutdown is sent in a transport kernel"),
        Err(e) => panic!("a frame sent on loopback never arrived: {e}"),
    }
}

/// `mc-net::transport` and `compat/tokio`, with no protocol above them.
fn net_kernels(s: &mut Suite) {
    // Enough round trips for a p99 at any scale.
    let pings = s.n(4_000).max(1_100);
    let ping = Msg::ScRead { proc: ProcId(0), loc: Loc(1) };
    let frame_len = FRAME_HEADER + ping.wire_bytes() as usize;

    // The floor: the same bytes over bare blocking sockets, two threads.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("loopback binds");
    let addr = listener.local_addr().expect("a bound listener has an address");
    let (rtts, _) = s.timed("net.loopback_rtt_p50_us", || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut peer, _) = listener.accept().expect("the dial arrives");
                peer.set_nodelay(true).expect("nodelay");
                let mut buf = vec![0u8; frame_len];
                while peer.read_exact(&mut buf).is_ok() {
                    peer.write_all(&buf).expect("echo");
                }
            });
            let mut sock = std::net::TcpStream::connect(addr).expect("loopback connects");
            sock.set_nodelay(true).expect("nodelay");
            let mut buf = vec![7u8; frame_len];
            let mut rtts = Vec::with_capacity(pings);
            for _ in 0..pings {
                let t = Instant::now();
                sock.write_all(&buf).expect("ping");
                sock.read_exact(&mut buf).expect("pong");
                rtts.push(t.elapsed().as_nanos() as u64);
            }
            rtts
        })
    });
    s.report.set("net.loopback_rtt_p50_us", pct_us(rtts, 50.0));

    // The same frame through `Transport::deliver` to the peer's inbox
    // and back.
    let m = mesh(2);
    let (rtts, _) = s.timed("net.transport_rtt_p50_us", || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..pings {
                    let msg = recv_msg(&m.inboxes[1]);
                    assert!(m.transport.deliver(1, 0, msg));
                }
            });
            let mut rtts = Vec::with_capacity(pings);
            for _ in 0..pings {
                let t = Instant::now();
                assert!(m.transport.deliver(0, 1, ping.clone()));
                black_box(recv_msg(&m.inboxes[0]));
                rtts.push(t.elapsed().as_nanos() as u64);
            }
            rtts
        })
    });
    s.report.set("net.transport_rtt_p99_us", pct_us(rtts.clone(), 99.0));
    s.report.set("net.transport_rtt_p50_us", pct_us(rtts, 50.0));

    let flood = s.n(200_000);
    let ((), secs) = s.timed("net.transport_frames_per_s", || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..flood {
                    black_box(recv_msg(&m.inboxes[1]));
                }
            });
            for i in 0..flood {
                assert!(m.transport.deliver(0, 1, update_msg(i as u32 + 1)));
            }
        })
    });
    s.report.set("net.transport_frames_per_s", flood as f64 / secs);
    drop(m);

    // 3 nodes as in `sc_readwrite`: up means every one of the 6 directed
    // links has carried a frame.
    s.batches("net.connect_ms", |s| {
        let ((), secs) = s.timed("net.connect_ms", || {
            let m = mesh(3);
            for from in 0..3 {
                for to in (0..3).filter(|&to| to != from) {
                    assert!(m.transport.deliver(from, to, ping.clone()));
                }
            }
            for rx in &m.inboxes {
                recv_msg(rx);
                recv_msg(rx);
            }
        });
        secs * 1e3
    });

    // The timer wheel that also drives socket readiness retries.
    let rt = Runtime::with_workers(2);
    let sleeps = s.n(2_000);
    let (over, _) = s.timed("rt.timer_overshoot_p50_us", || {
        rt.block_on(async {
            let asked = Duration::from_micros(50);
            let mut over = Vec::with_capacity(sleeps);
            for _ in 0..sleeps {
                let t = Instant::now();
                tokio::time::sleep(asked).await;
                over.push(t.elapsed().saturating_sub(asked).as_nanos() as u64);
            }
            over
        })
    });
    s.report.set("rt.timer_overshoot_p50_us", pct_us(over, 50.0));
}

fn pct_us(mut samples: Vec<u64>, p: f64) -> f64 {
    samples.sort_unstable();
    percentile(&samples, p).expect("kernels take thousands of samples") as f64 / 1e3
}

/// Records `name` as the history operations `check` judges per second
/// (median of `repeats` checks of `h`), and counts its violations.
fn check_rate(
    s: &mut Suite,
    name: &'static str,
    repeats: usize,
    h: &History,
    check: impl Fn() -> Result<CheckReport, CheckError>,
) {
    let mut rates = Vec::new();
    for _ in 0..repeats {
        let (verdict, secs) = s.timed(name, &check);
        s.report.violations += simcheck::count_violations(&verdict);
        rates.push(h.len() as f64 / secs);
    }
    s.report.set(name, median(&rates));
}

/// `mc-model` (the checker's superlinearity curve) and `mc-sim` /
/// `mixed-consistency` (exact counters, recording cost, DPOR).
fn model_and_sim_kernels(s: &mut Suite) {
    let seed = s.env.seed;
    let models = ModelAssignment::mixed(SIM_PROCS);
    // 18 k operations at full size: the end-to-end history, and no larger.
    let full = sim_iters(s.env.seconds);
    let curve = [
        ("check.ops_per_s.n2k", full / 10, 5),
        ("check.ops_per_s.n6k", full / 3, 3),
        ("check.ops_per_s.n18k", full, 1),
    ];
    for (name, iters, repeats) in curve {
        let program = simcheck::program(seed, iters);
        let (metrics, history) = simcheck::simulate(&program, seed, true);
        let h = history.expect("recording was on");
        check_rate(s, name, repeats, &h, || check_model(&h, &models));
        if iters == full / 3 {
            // The hand-coded oracle ROADMAP item 2 demotes to tests.
            let legacy = "check.legacy_mixed_ops_per_s.n6k";
            check_rate(s, legacy, repeats, &h, || mc_model::check::check_mixed(&h));
        }
        if iters == full {
            let ops = h.len() as f64;
            s.report.set("sim.msgs_per_op", metrics.messages as f64 / ops);
            s.report.set("sim.bytes_per_op", metrics.bytes as f64 / ops);
            s.report.set("sim.virtual_ns_per_op", metrics.finish_time.as_nanos() as f64 / ops);
            let wall = |s: &Suite, record: bool| {
                let runs: Vec<f64> = (0..BATCHES)
                    .map(|_| s.timed("sim.run", || simcheck::simulate(&program, seed, record)).1)
                    .collect();
                median(&runs)
            };
            let (plain, recorded) = (wall(s, false), wall(s, true));
            s.report.set("sim.record_overhead_frac", (recorded - plain) / plain);
        }
    }

    // IRIW: 4 processes, 6 operations; DPOR exhausts its schedules.
    let w = |loc: u32| SpecOp::Write { loc: Loc(loc), value: 1 };
    let r = |loc: u32| SpecOp::Read { loc: Loc(loc), label: ReadLabel::Causal };
    let iriw = ProgSpec::new(Mode::Mixed)
        .proc(vec![w(0)])
        .proc(vec![w(1)])
        .proc(vec![r(0), r(1)])
        .proc(vec![r(1), r(0)]);
    let (out, secs) = s.timed("explore.dpor_scheds_per_s", || {
        explore_with(
            ExploreOptions::new().dpor(true),
            || iriw.build_system(),
            |o| {
                let h = o.history.as_ref().expect("ProgSpec systems record");
                check_model(h, &ModelAssignment::mixed(4)).map(|_| ()).map_err(|e| e.to_string())
            },
        )
    });
    let out = out.expect("IRIW is mixed-consistent on every schedule");
    assert!(out.complete, "DPOR exhausts IRIW");
    s.report.set("explore.dpor_scheds_per_s", out.runs as f64 / secs);
}

/// Short runs of the live bodies: each TCP workload's own configuration
/// (for `batch.*`, `op.*`, `net.teardown_ms`), then the same body with
/// one field changed.
fn live_twins(s: &mut Suite) {
    let tcp = |name: &str| live_config(name).expect("a live workload");
    let (stream, pingpong, sc) =
        (tcp("stream_causal"), tcp("pingpong_causal"), tcp("sc_readwrite"));
    let span_median = |s: &Suite, name: &str, parent: usize| {
        let d: Vec<f64> = s.sink.durations(name, parent).iter().map(|&ns| ns as f64).collect();
        if d.is_empty() {
            f64::NAN
        } else {
            median(&d)
        }
    };

    let (base, span) = s.twin("twin.stream", stream);
    if !base.segments.is_empty() {
        let msgs = base.median_of(|g| g.msgs as f64 / g.all_ops as f64);
        s.report.set("batch.msgs_per_op", msgs);
        // One entry per write: a batch of 16 holds 16 distinct
        // locations, so nothing coalesces.
        s.report.set("batch.entries_per_msg", base.median_of(|g| g.writes as f64 / g.msgs as f64));
        s.report.set("net.teardown_ms", base.median_of(|g| g.teardown.as_secs_f64() * 1e3));
    }
    let v = span_median(s, "op.write", span);
    s.report.set("op.write_ns", v);
    let (_, span) = s.twin("twin.pingpong", pingpong);
    let v = span_median(s, "op.await", span) / 1e3;
    s.report.set("op.await_us", v);
    let (_, span) = s.twin("twin.sc", sc);
    let v = span_median(s, "op.read", span);
    s.report.set("op.read_ns", v);

    let threads = |cfg: LiveConfig| LiveConfig { exec: Exec::Threads, ..cfg };
    let reliable = |cfg: LiveConfig| LiveConfig { reliable: true, ..cfg };
    let unbatched = |cfg: LiveConfig| LiveConfig { batch: None, ..cfg };
    type Read = fn(&LiveRun) -> f64;
    let (rate, p50): (Read, Read) = (LiveRun::ops_per_s, LiveRun::p50_us);
    let twins = [
        ("live.stream_ops_per_s", "twin.stream.threads", threads(stream), rate),
        ("live.vis_lag_p50_us", "twin.pingpong.threads", threads(pingpong), p50),
        ("live.sc_op_lat_p50_us", "twin.sc.threads", threads(sc), p50),
        ("session.stream_ops_per_s", "twin.stream.reliable", reliable(stream), rate),
        ("session.pingpong_vis_lag_p50_us", "twin.pingpong.reliable", reliable(pingpong), p50),
        ("session.sc_op_lat_p50_us", "twin.sc.reliable", reliable(sc), p50),
        ("batch.unbatched_stream_ops_per_s", "twin.stream.unbatched", unbatched(stream), rate),
        ("batch.unbatched_vis_lag_p50_us", "twin.pingpong.unbatched", unbatched(pingpong), p50),
    ];
    for (metric, span, cfg, read) in twins {
        let v = read(&s.twin(span, cfg).0);
        s.report.set(metric, v);
    }

    let durable = live_config("durable_session").expect("a live workload");
    let (base, _) = s.twin("twin.durable", durable);
    if !base.segments.is_empty() {
        s.report
            .set("wal.fsyncs_per_write", base.median_of(|g| g.wal.fsyncs as f64 / g.writes as f64));
        let per_k = base.median_of(|g| 1e3 * g.wal.snapshots as f64 / g.writes as f64);
        s.report.set("wal.snapshots_per_kwrite", per_k);
    }
    let policy = DurabilityPolicy::default().with_group_commit(true);
    let grouped = LiveConfig { durability: Some(policy), ..durable };
    let v = s.twin("twin.durable.group_commit", grouped).0.ops_per_s();
    s.report.set("wal.group_commit_ops_per_s", v);
}

/// `bench.*`: the selected workload with spans off, then on.
fn workload_overhead(name: &str, s: &mut Suite) {
    let (plain, traced): (Vec<Slice>, Vec<Slice>) = match live_config(name) {
        Some(cfg) => {
            let rounds = cfg.rounds_per_second() * s.env.seconds / 6.0 / 5.0;
            let plan = Plan::sized(rounds as u64, MIN_SAMPLES);
            // Off and on take turns, so that a slow spell of the host
            // falls on both alike.
            let one = Segments { most: 1, least: 1, late_factor: 0.0 };
            let span = s.sink.open("workload", None);
            let (mut plain, mut traced) = (Vec::new(), Vec::new());
            for pair in 0..5 {
                if pair >= 2 && s.env.late(3.0) {
                    break;
                }
                let on: Trace = Some((s.sink.clone(), span));
                for (trace, dir, slices) in
                    [(None, "plain", &mut plain), (on, "traced", &mut traced)]
                {
                    let run = run_live(cfg, one, plan, s.env, dir, &trace, || {});
                    s.tally(&run);
                    slices.extend(run.slices());
                }
            }
            s.sink.close(span);
            (plain, traced)
        }
        None => simcheck::on_one_cpu(|clock| {
            let iters = 2 * sim_iters(s.env.seconds);
            let plain = timed_simulation(s.env.seed, iters, clock);
            let span = s.sink.open("workload", None);
            let traced =
                s.sink.within("sim.run", Some(span), || timed_simulation(s.env.seed, iters, clock));
            s.sink.close(span);
            (plain, traced)
        }),
    };
    if plain.len() >= 2 && !traced.is_empty() {
        let rate = |slices: &[Slice]| slice_median(slices, |sl| Some(sl.ops_per_s));
        s.report.set("bench.trace_overhead_frac", 1.0 - rate(&traced) / rate(&plain));
        let rates: Vec<f64> = plain.iter().map(|sl| sl.ops_per_s).collect();
        s.report.set("bench.slice_spread", iqr_frac(&rates));
        // Not end to end: on this host it needed more than the 25 % a
        // bound may be to agree from run to run.
        let p99 = slice_median(&plain, |sl| sl.p99_ns.map(|ns| ns as f64 / 1e3));
        s.report.set("op_lat_p99_us", p99);
    }
}
