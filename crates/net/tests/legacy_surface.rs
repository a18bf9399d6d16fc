//! The old builder surface `benchmark/` compiles against, run in the
//! shapes it uses: the `run_on!` chain of `benchmark/src/live.rs`
//! (`run_segment`) on `LiveSystem` and `NetSystem`, the `LiveOutcome`
//! it reads, the simulated system of `benchmark/src/simcheck.rs`, every
//! call of `benchmark/src/layers.rs` that takes a `Mode`, and its `Mesh`,
//! built with a tokio runtime's handle.
//! `benchmark/` is a workspace of its own, so without this a break in
//! the `legacy` shims would show only when the benchmark is built.

use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver};
use mc_live::{LiveCtx, LiveError, LiveOutcome, LiveSystem, Transport, Wire};
use mc_model::{History, Loc, ModelAssignment, ProcId, ProcModel, ReadLabel, Value, WriteId};
use mc_net::{spawn_listener, Inbound, NetSystem, TcpTransport, TcpTransportBuilder};
use mc_proto::{
    BatchEntry, BatchPolicy, DsmConfig, DurabilityPolicy, Mode, Msg, Replica, Substrate,
    UpdatePayload, WalRecord,
};
use mixed_consistency::{Ctx, DurabilityStats, Metrics, ProgSpec, SpecOp, System};
use tokio::runtime::Runtime;

/// One `run_segment`-shaped run: two processes each write their own
/// location and await the other's.
fn segment(tcp: bool, durability: Option<DurabilityPolicy>, dir: &Path) -> LiveOutcome {
    let bodies = (0..2u32).map(|p| {
        move |ctx: &mut LiveCtx| {
            ctx.write(Loc(p), p as i64 + 1);
            ctx.await_eq(Loc(1 - p), Value::Int(2 - p as i64));
        }
    });
    macro_rules! run_on {
        ($system:expr) => {{
            let mut sys = $system
                .reliable(true)
                .batching(Some(BatchPolicy::default()))
                .locations(2)
                .record(true)
                .timeout(Duration::from_secs(20));
            if let Some(policy) = durability {
                sys = sys.durability(policy, dir);
            }
            bodies.for_each(|b| {
                sys.spawn(b);
            });
            sys.run()
        }};
    }
    let outcome: Result<LiveOutcome, LiveError> = if tcp {
        run_on!(NetSystem::new(2, Mode::Causal).workers(2))
    } else {
        run_on!(LiveSystem::new(2, Mode::Causal))
    };
    outcome.unwrap_or_else(|e| panic!("tcp={tcp}: {e}"))
}

#[test]
fn the_wall_clock_aliases_run_the_benchmark_chain() {
    let dir = std::env::temp_dir().join(format!("mc-legacy-surface-{}", std::process::id()));
    for tcp in [false, true] {
        for durability in [None, Some(DurabilityPolicy::new(16))] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut outcome = segment(tcp, durability, &dir);
            assert!(outcome.messages > 0 && outcome.bytes > 0, "tcp={tcp}");
            let wal: DurabilityStats = outcome.wal;
            assert_eq!(wal.appends > 0, durability.is_some(), "tcp={tcp}: {wal:?}");
            for p in 0..2 {
                assert_eq!(outcome.final_value(ProcId(p), Loc(0)), Value::Int(1));
                assert_eq!(outcome.final_value(ProcId(p), Loc(1)), Value::Int(2));
            }
            let history: History = outcome.history.take().expect("recorded");
            assert_eq!(history.len(), 4, "tcp={tcp}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn system(seed: u64, record: bool) -> System {
    System::new(2, Mode::Mixed).seed(seed).record(record)
}

#[test]
fn the_simulated_system_runs_the_benchmark_shape() {
    let mut sys = system(7, true);
    for p in 0..2u32 {
        sys.spawn(move |ctx: &mut Ctx<'_>| {
            ctx.write(Loc(p), 1);
            ctx.read_pram(Loc(1 - p));
        });
    }
    let out = sys.run().expect("a program of reads and writes runs to completion");
    let (metrics, history): (Metrics, Option<History>) = (out.metrics, out.history);
    assert!(metrics.messages > 0);
    assert_eq!(history.expect("recorded").len(), 4);
}

/// `benchmark/src/layers.rs`'s replica kernels: a configuration from
/// `Mode::Causal`, then `ingest`, `ingest_batch` and `replay_record`
/// passed `Mode::Causal`, which must run on the vector substrate.
#[test]
fn the_replica_kernels_take_a_mode() {
    let cfg = DsmConfig::new(2, Mode::Causal);
    assert_eq!(*cfg.models(), ModelAssignment::uniform(2, mc_model::ModelSpec::CAUSAL));
    assert_eq!(cfg.substrate(), Substrate::Vectors);
    let mut writer = Replica::new(ProcId(0), 2);
    let set = |v| UpdatePayload::Set(Value::Int(v));
    let (w1, d1) = writer.local_write(Loc(0), set(1), &cfg);
    let (w2, d2) = writer.local_write(Loc(1), set(2), &cfg);

    // Out of order: the second write waits for the first.
    let mut r = Replica::new(ProcId(1), 2);
    assert!(!r.ingest(w2, Loc(1), set(2), d2, Mode::Causal));
    assert_eq!(r.pending_len(), 1);
    assert!(r.ingest(w1, Loc(0), set(1), d1.clone(), Mode::Causal));
    assert_eq!(
        (r.peek(Loc(0)), r.peek(Loc(1)), r.pending_len()),
        (Value::Int(1), Value::Int(2), 0)
    );

    // A batch of the writer's third and fourth writes.
    writer.local_write(Loc(3), set(3), &cfg);
    let (_, deps) = writer.local_write(Loc(4), set(4), &cfg);
    let entries: Arc<[BatchEntry]> = (3..=4)
        .map(|seq| BatchEntry {
            loc: Loc(seq),
            payload: set(i64::from(seq)),
            writer: WriteId::new(ProcId(0), seq),
            adds: Vec::new(),
        })
        .collect();
    assert!(r.ingest_batch(ProcId(0), 3, 4, entries, deps, Mode::Causal));
    assert_eq!(r.peek(Loc(4)), Value::Int(4));

    let mut replayed = Replica::new(ProcId(0), 2);
    replayed.replay_record(
        WalRecord::OwnWrite { loc: Loc(0), payload: set(1), deps: d1 },
        Mode::Causal,
    );
    assert_eq!((replayed.own_count(), replayed.peek(Loc(0))), (1, Value::Int(1)));
}

/// `benchmark/src/layers.rs`'s DPOR kernel builds its IRIW program with
/// `ProgSpec::new(Mode::Mixed)`: every process judged by its labels.
#[test]
fn a_spec_takes_a_mode() {
    let spec = ProgSpec::new(Mode::Mixed)
        .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }])
        .proc(vec![SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal }]);
    assert_eq!(spec.models, vec![ProcModel::MIXED]);
    assert!(spec.to_text().starts_with("mode mixed\n"));
    spec.build_system().run().expect("the spec runs").verify().expect("mixed consistent");
}

/// `benchmark/src/layers.rs`'s `Mesh`: the runtime is declared first, so
/// it drops before the transport.
struct Mesh {
    _rt: Runtime,
    transport: TcpTransport,
    inboxes: Vec<Receiver<Wire>>,
}

/// `benchmark/src/layers.rs`'s `mesh`, line for line.
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

/// A frame goes each way on a 2-node mesh, and dropping the mesh —
/// runtime first, then the transport — returns.
#[test]
fn the_benchmark_mesh_carries_a_frame_each_way_and_drops() {
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let m = mesh(2);
        let ping = |loc| Msg::ScRead { proc: ProcId(0), loc: Loc(loc) };
        for (from, to) in [(0, 1), (1, 0)] {
            assert!(m.transport.deliver(from, to, ping(from as u32)));
            match m.inboxes[to].recv_timeout(Duration::from_secs(5)) {
                Ok(Wire::Proto { from: f, msg: Msg::ScRead { loc, .. } }) => {
                    assert_eq!((f, loc), (from, Loc(from as u32)));
                }
                _ => panic!("the frame {from} -> {to} arrives"),
            }
        }
        drop(m);
        let _ = done_tx.send(());
    });
    done.recv_timeout(Duration::from_secs(10)).expect("the mesh runs and drops within 10 s");
}
