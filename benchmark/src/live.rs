//! The four live workload bodies and the segment runner that drives
//! them over either executor (`mc_net::NetSystem` on loopback TCP or
//! `mc_live::LiveSystem` on threads).
//!
//! Load shape: closed loop, 2 DSM processes in one OS process — DSM
//! callers block on their own operations, and the host has 2 cores.
//! One *segment* is one whole cluster life: assemble, warm up, run the
//! timed part, converge, tear down — so every segment is a set-up
//! sample. Throughput and latency come from the slices of its timed
//! part (see [`crate::slices`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mc_live::{LiveCtx, LiveError, LiveOutcome, LiveSystem};
use mc_model::{History, Loc, ModelAssignment, ModelSpec, ProcId, Value};
use mc_net::NetSystem;
use mc_proto::{BatchPolicy, DurabilityPolicy, Mode};
use mixed_consistency::DurabilityStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{peak_rss_mb, reset_peak_rss, Sample, StealClock};
use crate::slices::{Plan, Slice, Sliced, Slicer};
use crate::spans::{OpTracer, SpanSink};

/// DSM processes per cluster.
pub const NPROCS: usize = 2;
/// Writes per `stream` window. Also the most unacknowledged writes a
/// process can have in flight: an unwindowed stream over a reliable
/// session was seen to queue 974 k entries (4 GB) before timing out.
pub const WINDOW: u64 = 256;
/// Own locations each process writes round-robin.
const OWN_LOCS: u32 = 32;
/// A blocked operation gives up (and fails the segment) after this long.
const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// Which executor carries the messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// `mc_net::NetSystem`: every message crosses a loopback socket.
    Tcp,
    /// `mc_live::LiveSystem`: every message crosses a channel.
    Threads,
}

/// What the two processes do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Body {
    /// Windows of [`WINDOW`] writes, then a write-once flag exchange.
    Stream,
    /// One write, one await, back and forth; times one-way visibility.
    PingPong,
    /// Seeded 50/50 reads of the peer's locations and writes of one's
    /// own, each a blocking round trip through the SC manager node.
    ScReadWrite,
    /// Writes acknowledged after the WAL fsync, a PRAM read every 8.
    Durable,
}

/// One cluster configuration: a workload is a [`Body`] on a `LiveConfig`,
/// and a twin is the same body with one field changed.
#[derive(Clone, Copy, Debug)]
pub struct LiveConfig {
    /// What the processes do.
    pub body: Body,
    /// What carries the messages.
    pub exec: Exec,
    /// Run the reliable-delivery session layer.
    pub reliable: bool,
    /// Update batching (`None`: one message per write).
    pub batch: Option<BatchPolicy>,
    /// Write-ahead logging (`None`: volatile replicas).
    pub durability: Option<DurabilityPolicy>,
}

impl LiveConfig {
    /// The memory protocol the body runs on.
    pub fn mode(&self) -> Mode {
        match self.body {
            Body::ScReadWrite => Mode::Sc,
            _ => Mode::Causal,
        }
    }

    /// The lattice assignment the recorded history is judged against.
    pub fn models(&self) -> ModelAssignment {
        let spec = match self.body {
            Body::ScReadWrite => ModelSpec::SC,
            _ => ModelSpec::CAUSAL,
        };
        ModelAssignment::uniform(NPROCS, spec)
    }

    /// Rounds per second one process of the workload's own
    /// configuration completes on the reference sandbox (2 vCPUs): what
    /// turns `--seconds` into a fixed amount of work. Fixed work, not a
    /// deadline, so that a seed names the whole operation sequence and
    /// byte and memory counters do not follow the speed of the run.
    pub fn rounds_per_second(&self) -> f64 {
        match self.body {
            Body::Stream => 2_400.0,
            Body::PingPong => 3_600.0,
            Body::ScReadWrite => 3_700.0,
            Body::Durable => 3_100.0,
        }
    }

    /// Program operations one process performs in `rounds` rounds (the
    /// durable body's closing flag exchange is not counted).
    fn ops_per_proc(&self, rounds: u64) -> u64 {
        match self.body {
            Body::Stream => rounds * (WINDOW + 2),
            Body::PingPong => rounds * 2,
            Body::ScReadWrite => rounds,
            Body::Durable => rounds + rounds / 8,
        }
    }
}

/// What one process reports when its body returns.
struct ProcReport {
    sliced: Sliced,
    /// Writes issued, warm-up included.
    writes: u64,
    /// Final value of every location this process wrote.
    wrote: Vec<(Loc, i64)>,
}

/// State the two bodies of one segment share.
struct Shared {
    /// Send stamps of the ping-pong body, ns since `epoch`: `[0]` by
    /// process 0 before it writes, `[1]` by process 1. All nodes share
    /// one OS process, so one monotonic clock gives a one-way lag.
    stamps: [AtomicU64; NPROCS],
    epoch: Instant,
    reports: Mutex<Vec<Option<ProcReport>>>,
}

/// One finished segment.
pub struct Segment {
    /// Program operations completed in the timed part, both processes.
    pub ops: u64,
    /// Operations including warm-up (what the byte counters cover).
    pub all_ops: u64,
    /// Writes including warm-up.
    pub writes: u64,
    /// `run()` called → first timed operation, in seconds, with the
    /// share of that time the hypervisor took away.
    pub setup: Sample,
    /// Last body returned → `run()` returned.
    pub teardown: Duration,
    /// Every process's slices of the timed part.
    pub slices: Vec<Slice>,
    /// Protocol messages sent.
    pub msgs: u64,
    /// Modeled wire bytes sent.
    pub bytes: u64,
    /// WAL counters (zero without durability).
    pub wal: DurabilityStats,
    /// Peak resident set of this OS process during the segment, MB.
    pub peak_rss_mb: f64,
    /// Replicas (or the SC server) that disagree with the last value
    /// written to a location.
    pub diverged: u64,
    /// The recorded history, when recording was on.
    pub history: Option<History>,
}

/// Why a segment produced no [`Segment`].
#[derive(Debug)]
pub struct SegmentFailed {
    /// Operations the plan would have attempted.
    pub attempted: u64,
    /// The executor's error.
    pub error: LiveError,
}

/// Tracing context of one segment: the sink and the span that encloses
/// the segment.
pub type Trace = Option<(Arc<SpanSink>, usize)>;

/// Runs one segment of `cfg` for `plan`, with operations drawn from
/// `seed`. `dir` is scratch space for the WAL (unused without
/// durability); `record` turns history recording on.
///
/// # Errors
///
/// [`SegmentFailed`] when a process panicked or timed out.
pub fn run_segment(
    cfg: LiveConfig,
    plan: Plan,
    seed: u64,
    dir: &Path,
    record: bool,
    trace: &Trace,
) -> Result<Segment, SegmentFailed> {
    reset_peak_rss();
    let clock = StealClock::machine();
    let (start, stolen_at_start) = (Instant::now(), clock.read());
    let shared = Arc::new(Shared {
        stamps: [AtomicU64::new(0), AtomicU64::new(0)],
        epoch: start,
        reports: Mutex::new((0..NPROCS).map(|_| None).collect()),
    });
    let rounds = plan.warm + plan.timed();
    // Flag locations are write-once, so each round of a stream needs a
    // fresh pair; presize the stores for them.
    let locations = match cfg.body {
        Body::Stream => 2 * OWN_LOCS as usize + 2 * rounds as usize,
        _ => 2 * OWN_LOCS as usize + NPROCS,
    };
    let bodies = (0..NPROCS as u32).map(|p| {
        let shared = shared.clone();
        let tracer = match trace {
            Some((sink, parent)) => OpTracer::new(Some(sink.clone()), Some(*parent), p),
            None => OpTracer::new(None, None, p),
        };
        move |ctx: &mut LiveCtx| {
            let report = run_body(cfg, p, plan, seed, &shared, tracer, ctx);
            shared.reports.lock().expect("reports healthy")[p as usize] = Some(report);
        }
    });
    // `NetSystem` mirrors `LiveSystem`'s builder surface without a shared trait.
    macro_rules! run_on {
        ($system:expr) => {{
            let mut sys = $system
                .reliable(cfg.reliable)
                .batching(cfg.batch)
                .locations(locations)
                .record(record)
                .timeout(OP_TIMEOUT);
            if let Some(policy) = cfg.durability {
                sys = sys.durability(policy, dir);
            }
            bodies.for_each(|b| {
                sys.spawn(b);
            });
            sys.run()
        }};
    }
    let outcome = match cfg.exec {
        Exec::Tcp => run_on!(NetSystem::new(NPROCS, cfg.mode()).workers(NPROCS)),
        Exec::Threads => run_on!(LiveSystem::new(NPROCS, cfg.mode())),
    };
    let returned = Instant::now();
    let attempted = NPROCS as u64 * cfg.ops_per_proc(plan.timed());
    let outcome = outcome.map_err(|error| SegmentFailed { attempted, error })?;
    let reports: Vec<ProcReport> = shared
        .reports
        .lock()
        .expect("reports healthy")
        .iter_mut()
        .map(|r| r.take().expect("a body that returned has reported"))
        .collect();
    Ok(assemble(cfg, plan, clock, (start, stolen_at_start), returned, reports, outcome))
}

fn assemble(
    cfg: LiveConfig,
    plan: Plan,
    clock: StealClock,
    (start, stolen_at_start): (Instant, u64),
    returned: Instant,
    reports: Vec<ProcReport>,
    mut outcome: LiveOutcome,
) -> Segment {
    let first = reports.iter().map(|r| &r.sliced).min_by_key(|s| s.began).expect("two processes");
    let last = reports.iter().map(|r| r.sliced.ended).max().expect("two processes");
    let setup = first.began - start;
    let mut diverged = 0;
    for (loc, v) in reports.iter().flat_map(|r| r.wrote.iter()) {
        for p in 0..NPROCS as u32 {
            if outcome.final_value(ProcId(p), *loc) != Value::Int(*v) {
                diverged += 1;
            }
        }
    }
    Segment {
        ops: NPROCS as u64 * cfg.ops_per_proc(plan.timed()),
        all_ops: NPROCS as u64 * cfg.ops_per_proc(plan.warm + plan.timed()),
        writes: reports.iter().map(|r| r.writes).sum(),
        setup: Sample {
            stolen: clock.share(stolen_at_start, first.stolen_at_start, setup),
            value: setup.as_secs_f64(),
        },
        teardown: returned - last,
        slices: reports.iter().flat_map(|r| r.sliced.slices.iter().copied()).collect(),
        msgs: outcome.messages,
        bytes: outcome.bytes,
        wal: outcome.wal,
        peak_rss_mb: peak_rss_mb(),
        diverged,
        history: outcome.history.take(),
    }
}

/// The last value written per own location, for the convergence check.
struct Written {
    base: u32,
    count: u64,
    last: [i64; OWN_LOCS as usize],
    extra: Vec<(Loc, i64)>,
}

impl Written {
    fn new(p: u32) -> Written {
        Written { base: p * OWN_LOCS, count: 0, last: [0; OWN_LOCS as usize], extra: Vec::new() }
    }

    fn own(&self, slot: u32) -> Loc {
        Loc(self.base + slot % OWN_LOCS)
    }

    fn note(&mut self, slot: u32, v: i64) {
        self.count += 1;
        self.last[(slot % OWN_LOCS) as usize] = v;
    }

    fn finish(self) -> Vec<(Loc, i64)> {
        let Written { base, last, mut extra, .. } = self;
        extra.extend(
            last.iter()
                .enumerate()
                .filter(|(_, v)| **v != 0)
                .map(|(i, v)| (Loc(base + i as u32), *v)),
        );
        extra
    }
}

fn run_body(
    cfg: LiveConfig,
    p: u32,
    plan: Plan,
    seed: u64,
    shared: &Shared,
    mut tr: OpTracer,
    ctx: &mut LiveCtx,
) -> ProcReport {
    let q = 1 - p;
    let rounds = plan.warm + plan.timed();
    let mut sl = Slicer::new(plan, cfg.ops_per_proc(plan.slice), StealClock::machine());
    let mut w = Written::new(p);
    let now_ns = || shared.epoch.elapsed().as_nanos() as u64;
    match cfg.body {
        Body::Stream => {
            // Values are seeded; locations go round-robin so every batch
            // of 16 holds 16 distinct locations and nothing coalesces.
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(p));
            let flag = |c: u64, who: u32| Loc(2 * OWN_LOCS + 2 * c as u32 + who);
            for c in 0..rounds {
                sl.begin_round(c);
                let t0 = Instant::now();
                for i in 0..WINDOW as u32 {
                    let v = rng.gen_range(1..i64::MAX);
                    tr.op("op.write", || ctx.write(w.own(i), v));
                    w.note(i, v);
                }
                // Await only write-once flags: `await_eq` is an equality
                // wait, and a location the peer keeps advancing can skip
                // past the awaited value for good.
                tr.op("op.write", || ctx.write(flag(c, p), 1i64));
                w.count += 1;
                tr.op("op.await", || ctx.await_eq(flag(c, q), 1i64));
                sl.sample(c, t0.elapsed().as_nanos() as u64);
            }
        }
        Body::PingPong => {
            // Both processes draw the same location sequence.
            let mut rng = StdRng::seed_from_u64(seed);
            for round in 0..rounds {
                sl.begin_round(round);
                let i = round as i64 + 1;
                let x = Loc(rng.gen_range(0..OWN_LOCS));
                let y = Loc(OWN_LOCS + rng.gen_range(0..OWN_LOCS));
                let (mine, theirs) = if p == 0 { (x, y) } else { (y, x) };
                // Lag: the peer stamped, then wrote; this side awaited,
                // then read the clock.
                let mut hear = |ctx: &mut LiveCtx, tr: &mut OpTracer| {
                    tr.op("op.await", || ctx.await_eq(theirs, i));
                    let lag = now_ns() - shared.stamps[q as usize].load(Ordering::SeqCst);
                    sl.sample(round, lag);
                };
                if p == 1 {
                    hear(ctx, &mut tr);
                }
                shared.stamps[p as usize].store(now_ns(), Ordering::SeqCst);
                tr.op("op.write", || ctx.write(mine, i));
                w.note(mine.0, i);
                if p == 0 {
                    hear(ctx, &mut tr);
                }
            }
        }
        Body::ScReadWrite => {
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(p));
            for k in 0..rounds {
                sl.begin_round(k);
                let slot = rng.gen_range(0..OWN_LOCS);
                let t0 = Instant::now();
                if rng.gen_bool(0.5) {
                    tr.op("op.read", || ctx.read_causal(Loc(q * OWN_LOCS + slot)));
                } else {
                    tr.op("op.write", || ctx.write(w.own(slot), k as i64 + 1));
                    w.note(slot, k as i64 + 1);
                }
                sl.sample(k, t0.elapsed().as_nanos() as u64);
            }
        }
        Body::Durable => {
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(p));
            for k in 0..rounds {
                sl.begin_round(k);
                let slot = rng.gen_range(0..OWN_LOCS);
                let t0 = Instant::now();
                tr.op("op.write", || ctx.write(w.own(slot), k as i64 + 1));
                w.note(slot, k as i64 + 1);
                sl.sample(k, t0.elapsed().as_nanos() as u64);
                if k % 8 == 7 {
                    let peer = Loc(q * OWN_LOCS + rng.gen_range(0..OWN_LOCS));
                    tr.op("op.read", || ctx.read_pram(peer));
                }
            }
        }
    }
    let sliced = sl.finish();
    if cfg.body == Body::Durable {
        // Converge before the coordinator shuts the cluster down.
        let flag = |who: u32| Loc(2 * OWN_LOCS + who);
        tr.op("op.write", || ctx.write(flag(p), 1i64));
        tr.op("op.await", || ctx.await_eq(flag(q), 1i64));
        w.count += 1;
        w.extra.push((flag(p), 1));
    }
    ProcReport { sliced, writes: w.count, wrote: w.finish() }
}

/// A scratch directory that removes itself.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `root/name`, replacing anything left there.
    ///
    /// # Errors
    ///
    /// Any I/O error removing or creating the directory.
    pub fn create(root: &Path, name: &str) -> std::io::Result<ScratchDir> {
        let dir = root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
