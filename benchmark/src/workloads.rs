//! The five workloads and their end-to-end measurement. A live workload
//! records a verification pass, whose history goes through `check_model`
//! — every run of the benchmark has its history checked — and then runs
//! five timed segments; `sim_check` runs three rounds of record, check,
//! simulate.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mc_model::spec::check_model;
use mc_model::{History, ModelAssignment};
use mc_proto::{BatchPolicy, DurabilityPolicy};

use crate::host::{clean_median, peak_rss_mb, reset_peak_rss, Sample, StealClock};
use crate::live::{
    run_segment, Body, Exec, LiveConfig, ScratchDir, Segment, SegmentFailed, Trace, NPROCS,
};
use crate::simcheck::{self, CHECK_ITERS, SIM_PROCS};
use crate::slices::{slice_median, Plan, Slice};
use crate::stats::median;

/// Timed segments (cluster lives) per run; `setup_s` is their median.
pub const SEGMENTS: usize = 5;
/// Fewest latency samples a slice may hold: p99 then has 10 beyond it.
pub const MIN_SAMPLES: u64 = 1_100;
/// How long one burst of checks of the verification history lasts; there
/// is one before the first segment and one after each.
const CHECK_BURST: Duration = Duration::from_millis(70);
/// `--seconds` at which fixed-size parts (`sim_check`'s history, the
/// layer suite's kernels) reach their full and largest size; it is the
/// `run_seconds` of `BENCHMARK.json`. Below it they shrink in
/// proportion, for self-tests.
pub const FULL_SECONDS: f64 = 12.0;

/// The cluster configuration behind a live workload name.
pub fn live_config(name: &str) -> Option<LiveConfig> {
    let tcp = |body| LiveConfig {
        body,
        exec: Exec::Tcp,
        reliable: false,
        batch: Some(BatchPolicy::default()),
        durability: None,
    };
    match name {
        "stream_causal" => Some(tcp(Body::Stream)),
        // Same configuration as `stream_causal` on purpose: a batching or
        // transport change that buys throughput by delaying flushes
        // shows here as a loss.
        "pingpong_causal" => Some(tcp(Body::PingPong)),
        "sc_readwrite" => Some(tcp(Body::ScReadWrite)),
        "durable_session" => Some(LiveConfig {
            body: Body::Durable,
            exec: Exec::Threads,
            reliable: true,
            batch: None,
            durability: Some(DurabilityPolicy::default()),
        }),
        _ => None,
    }
}

/// What a run is given.
pub struct Env {
    /// Drives location choice, read/write mix and written values.
    pub seed: u64,
    /// How long the timed segments last in total.
    pub seconds: f64,
    /// Scratch space (WAL directories); emptied as each segment ends.
    pub tmp: PathBuf,
    /// When the run began.
    pub started: Instant,
}

impl Env {
    /// Whether the run has fallen behind schedule — `factor` times the
    /// seconds it was given have passed. Work is fixed, so under heavy
    /// steal a run stretches; one that is late sheds what repeats (later
    /// segments, later rounds) rather than outlast the driver's budget.
    pub fn late(&self, factor: f64) -> bool {
        self.started.elapsed().as_secs_f64() > factor * self.seconds
    }
}

/// What a run measured.
#[derive(Default)]
pub struct Report {
    /// Metric name → value, in the metric's declared unit.
    pub metrics: BTreeMap<String, f64>,
    /// Program operations attempted in timed and verification passes.
    pub attempted: u64,
    /// Of those, operations that timed out, panicked or errored.
    pub failed: u64,
    /// `check_model` violations plus replicas whose final values disagree.
    pub violations: u64,
}

impl Report {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let old = self.metrics.insert(name.to_string(), value);
        assert!(old.is_none(), "metric {name} measured twice");
    }
}

/// Checks `h` over and over for `budget` and adds one sample per check
/// (history operations judged per second) to `samples`. Returns the
/// violations found.
pub fn check_burst(
    h: &History,
    models: &ModelAssignment,
    budget: Duration,
    samples: &mut Vec<Sample>,
) -> u64 {
    let (started, first) = (Instant::now(), samples.len());
    let (violations, _, stolen) = StealClock::machine().time(|| {
        let mut violations = 0;
        while samples.len() == first || started.elapsed() < budget {
            let t = Instant::now();
            let verdict = check_model(h, models);
            samples.push(Sample { stolen: 0.0, value: h.len() as f64 / t.elapsed().as_secs_f64() });
            violations = simcheck::count_violations(&verdict);
        }
        violations
    });
    samples[first..].iter_mut().for_each(|s| s.stolen = stolen);
    violations
}

/// The timed segments of one live run and what went wrong in them.
pub struct LiveRun {
    /// Segments that completed.
    pub segments: Vec<Segment>,
    /// Operations attempted, completed or not.
    pub attempted: u64,
    /// Operations of segments that failed.
    pub failed: u64,
}

impl LiveRun {
    /// The median over segments of `f`.
    pub fn median_of(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        median(&self.segments.iter().map(f).collect::<Vec<_>>())
    }

    /// Every slice of every process of every segment.
    pub fn slices(&self) -> Vec<Slice> {
        self.segments.iter().flat_map(|s| s.slices.iter().copied()).collect()
    }

    /// Completed operations per second: the median clean slice of one
    /// process, scaled to the cluster.
    pub fn ops_per_s(&self) -> f64 {
        slice_median(&self.slices(), |s| Some(s.ops_per_s * NPROCS as f64))
    }

    /// The median over clean slices of their median latency, in µs.
    pub fn p50_us(&self) -> f64 {
        slice_median(&self.slices(), |s| Some(s.p50_ns as f64 / 1e3))
    }
}

/// How many segments a live run does: `most`, or as few as `least` once
/// the run is late by `late_factor` (see [`Env::late`]).
#[derive(Clone, Copy, Debug)]
pub struct Segments {
    /// Segments of a run that is on schedule.
    pub most: usize,
    /// Segments even a late run does.
    pub least: usize,
    /// How late is late, in multiples of `Env::seconds`.
    pub late_factor: f64,
}

/// Runs segments of `cfg` to `plan` in scratch directory `dir` of
/// `env.tmp`, calling `between` after each. Segment `k` draws its
/// operations from `env.seed` and `k`.
pub fn run_live(
    cfg: LiveConfig,
    segments: Segments,
    plan: Plan,
    env: &Env,
    dir: &str,
    trace: &Trace,
    mut between: impl FnMut(),
) -> LiveRun {
    let tmp = ScratchDir::create(&env.tmp, dir).expect("scratch space is writable");
    let mut run = LiveRun { segments: Vec::new(), attempted: 0, failed: 0 };
    for k in 0..segments.most {
        if k >= segments.least && env.late(segments.late_factor) {
            eprintln!("mcbench: behind schedule: {k} of {} segments run", segments.most);
            break;
        }
        let dir =
            ScratchDir::create(tmp.path(), &format!("seg-{k}")).expect("scratch space is writable");
        let seg_seed = env.seed.wrapping_mul(1_000).wrapping_add(k as u64);
        match run_segment(cfg, plan, seg_seed, dir.path(), false, trace) {
            Ok(seg) => {
                run.attempted += seg.ops;
                run.segments.push(seg);
            }
            Err(e) => {
                eprintln!("mcbench: segment {k} failed: {}", e.error);
                run.attempted += e.attempted;
                run.failed += e.attempted;
            }
        }
        between();
    }
    run
}

/// The recorded verification pass of a live workload: the same body,
/// 2-6 k operations. Returns the history (`None` if the pass failed).
fn verification_history(cfg: LiveConfig, env: &Env, report: &mut Report) -> Option<History> {
    let rounds = match cfg.body {
        Body::Stream => 8,
        Body::PingPong => 500,
        Body::ScReadWrite => 1_000,
        Body::Durable => 900,
    };
    let dir = ScratchDir::create(&env.tmp, "verify").expect("scratch space is writable");
    let plan = Plan { warm: 0, slice: rounds, slices: 1 };
    match run_segment(cfg, plan, env.seed, dir.path(), true, &None) {
        Ok(seg) => {
            report.attempted += seg.ops;
            report.violations += seg.diverged;
            seg.history
        }
        Err(SegmentFailed { attempted, error }) => {
            eprintln!("mcbench: verification pass failed: {error}");
            report.attempted += attempted;
            report.failed += attempted;
            None
        }
    }
}

/// End-to-end metrics of live workload `cfg`: the recorded verification
/// pass, then the timed segments, with a burst of `check_model` on the
/// recorded history after each — so that the checker, which is pure
/// CPU work, is sampled across the whole run and not in one 0.4 s
/// window that a slow spell of the host can cover.
fn live_end_to_end(cfg: LiveConfig, env: &Env) -> Report {
    let mut report = Report::default();
    let history = verification_history(cfg, env, &mut report);
    let (mut checks, mut violations) = (Vec::new(), 0);
    let mut burst = || {
        if let Some(h) = &history {
            violations = check_burst(h, &cfg.models(), CHECK_BURST, &mut checks);
        }
    };
    burst();
    let rounds = cfg.rounds_per_second() * env.seconds / SEGMENTS as f64;
    let plan = Plan::sized(rounds as u64, MIN_SAMPLES);
    let segments = Segments { most: SEGMENTS, least: 3, late_factor: 1.5 };
    let run = run_live(cfg, segments, plan, env, "timed", &None, &mut burst);
    report.attempted += run.attempted;
    report.failed += run.failed;
    report.violations += violations;
    if let Some(h) = &history {
        eprintln!("mcbench: history checked: {} ops, {violations} violations", h.len());
        report.set("check_ops_per_s", clean_median(&checks, 8));
    }
    if !run.segments.is_empty() {
        report.violations += run.segments.iter().map(|s| s.diverged).sum::<u64>();
        let setups: Vec<Sample> = run.segments.iter().map(|s| s.setup).collect();
        report.set("setup_s", clean_median(&setups, 1));
        report.set("ops_per_s", run.ops_per_s());
        report.set("op_lat_p50_us", run.p50_us());
        report.set("wire_bytes_per_op", run.median_of(|s| s.bytes as f64 / s.all_ops as f64));
        report.set("peak_rss_mb", run.median_of(|s| s.peak_rss_mb));
    }
    report
}

/// How many iterations per process `sim_check` checks at `seconds`: the
/// full 18 k-operation history from [`FULL_SECONDS`] up, less below,
/// never more — the checker is superlinear.
pub fn sim_iters(seconds: f64) -> usize {
    ((CHECK_ITERS as f64 * (seconds / FULL_SECONDS).min(1.0)) as usize).max(50)
}

/// Operations per process in a slice of the timed simulation.
const SIM_SLICE: u64 = 10_000;

/// One unrecorded simulator run of the seeded program, every call
/// timed: each process's slices, throughput scaled to all processes.
pub fn timed_simulation(seed: u64, iters: usize, clock: StealClock) -> Vec<Slice> {
    let program = simcheck::program(seed, iters);
    let slice = SIM_SLICE.min(2 * iters as u64);
    let mut slices = simcheck::simulate_timed(&program, seed, slice, clock);
    slices.iter_mut().for_each(|s| s.ops_per_s *= SIM_PROCS as f64);
    slices
}

/// End-to-end metrics of `sim_check`: three rounds of (build the
/// program and record its history: the set-up; check it; run the
/// 10x-longer unrecorded simulation).
fn sim_end_to_end(env: &Env, clock: StealClock) -> Report {
    const ROUNDS: usize = 3;
    let mut report = Report::default();
    let iters = sim_iters(env.seconds);
    let models = ModelAssignment::mixed(SIM_PROCS);
    let (mut setups, mut checks, mut slices, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes_per_op = 0.0;
    for round in 0..ROUNDS {
        if round >= 2 && env.late(1.5) {
            eprintln!("mcbench: behind schedule: {round} of {ROUNDS} rounds run");
            break;
        }
        reset_peak_rss();
        let ((metrics, history), elapsed, stolen) = clock.time(|| {
            let program = simcheck::program(env.seed, iters);
            simcheck::simulate(&program, env.seed, true)
        });
        setups.push(Sample { stolen, value: elapsed.as_secs_f64() });
        let h = history.expect("recording was on");
        bytes_per_op = metrics.bytes as f64 / h.len() as f64;

        let (verdict, elapsed, stolen) = clock.time(|| check_model(&h, &models));
        checks.push(Sample { stolen, value: h.len() as f64 / elapsed.as_secs_f64() });
        let violations = simcheck::count_violations(&verdict);
        eprintln!("mcbench: history checked: {} ops, {violations} violations", h.len());
        report.attempted += h.len() as u64;
        report.violations += violations;

        slices.extend(timed_simulation(env.seed, 10 * iters, clock));
        report.attempted += (20 * iters * SIM_PROCS) as u64;
        peaks.push(peak_rss_mb());
    }
    report.set("setup_s", clean_median(&setups, 1));
    report.set("ops_per_s", slice_median(&slices, |s| Some(s.ops_per_s)));
    report.set("op_lat_p50_us", slice_median(&slices, |s| Some(s.p50_ns as f64 / 1e3)));
    report.set("check_ops_per_s", clean_median(&checks, 1));
    report.set("wire_bytes_per_op", bytes_per_op);
    report.set("peak_rss_mb", median(&peaks));
    report
}

/// Runs workload `name` untraced and returns its end-to-end metrics.
///
/// # Panics
///
/// Panics on a name `BENCHMARK.json` does not list.
pub fn end_to_end(name: &str, env: &Env) -> Report {
    match live_config(name) {
        Some(cfg) => live_end_to_end(cfg, env),
        None => {
            assert_eq!(name, "sim_check", "unknown workload {name}");
            simcheck::on_one_cpu(|clock| sim_end_to_end(env, clock))
        }
    }
}
