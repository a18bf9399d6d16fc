//! Nothing of a process outlives `Kernel::run`, however the run ends: a
//! normal finish, a deadlock, a process panic, the event limit, or a
//! panic in protocol code — which reaches the caller of `run` with its
//! original payload. After every run no fiber stack is held, every
//! process's locals (blocked ones' too) have been dropped, and no thread
//! is left; on x86_64 no thread is even started during a run.
//!
//! One test in a binary of its own (CI also passes `--test-threads=1`):
//! the stack and thread counts it compares are process-wide.
#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mc_sim::{
    live_fiber_stacks, Kernel, NetCtx, NodeId, Poll, ProcToken, Protocol, SimConfig, SimError,
};

const RUNS: usize = 200;
const PROCS: u32 = 3;

/// The panic payload of a process that gives up.
const PROC_PANIC: &str = "process gives up";
/// The panic payload of a poisoned delivery.
const PROTO_PANIC: &str = "poisoned message";

/// `Send(poison)` broadcasts a message and returns; `Wait` blocks
/// forever. A poisoned message panics in `on_message`.
#[derive(Debug)]
struct Probe;

enum Req {
    Send { poison: bool },
    Wait,
}

impl Protocol for Probe {
    type Msg = bool;
    type Req = Req;
    type Resp = ();

    fn on_request(
        &mut self,
        _: ProcToken,
        node: NodeId,
        req: Req,
        net: &mut NetCtx<'_, bool>,
    ) -> Poll<()> {
        match req {
            Req::Send { poison } => {
                net.broadcast(node, "probe", 1, poison);
                Poll::Ready(())
            }
            Req::Wait => Poll::Pending,
        }
    }

    fn on_message(&mut self, _: NodeId, _: NodeId, poison: bool, _: &mut NetCtx<'_, bool>) {
        assert!(!poison, "{PROTO_PANIC}");
    }

    fn poll_blocked(&mut self, _: ProcToken, _: NodeId, _: &mut NetCtx<'_, bool>) -> Option<()> {
        None
    }
}

#[derive(Clone, Copy, Debug)]
enum Ending {
    Finish,
    Deadlock,
    ProcPanic,
    EventLimit,
    ProtocolPanic,
}

const ENDINGS: [Ending; 5] = [
    Ending::Finish,
    Ending::Deadlock,
    Ending::ProcPanic,
    Ending::EventLimit,
    Ending::ProtocolPanic,
];

/// Locals of process bodies dropped so far.
static DROPPED: AtomicUsize = AtomicUsize::new(0);
/// The most threads a process body has seen running.
static THREADS_SEEN: AtomicUsize = AtomicUsize::new(0);

/// A process body's local: counts its drop.
struct Local;

impl Drop for Local {
    fn drop(&mut self) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// One kernel whose run ends as `ending` says; panics if it ends any
/// other way.
fn run_one(ending: Ending, seed: u64) {
    let config = SimConfig {
        max_events: if let Ending::EventLimit = ending { 5 } else { 10_000 },
        ..SimConfig::with_seed(seed)
    };
    let mut kernel = Kernel::new(Probe, PROCS as usize, config);
    for p in 0..PROCS {
        let local = Local;
        kernel.spawn(NodeId(p), move |ctx| {
            let _local = local;
            THREADS_SEEN.fetch_max(thread_count(), Ordering::Relaxed);
            for _ in 0..4 {
                ctx.request(Req::Send { poison: false });
            }
            match (ending, p) {
                (Ending::Deadlock, 1) => ctx.request(Req::Wait),
                (Ending::ProcPanic, 2) => panic!("{PROC_PANIC}"),
                (Ending::ProtocolPanic, 0) => ctx.request(Req::Send { poison: true }),
                _ => {}
            }
        });
    }
    let result = catch_unwind(AssertUnwindSafe(|| kernel.run()));
    match (ending, result) {
        (Ending::Finish, Ok(Ok(_))) => {}
        (Ending::Deadlock, Ok(Err(SimError::Deadlock { blocked, .. }))) => {
            assert_eq!(blocked, vec![ProcToken(1)]);
        }
        (Ending::ProcPanic, Ok(Err(SimError::ProcPanicked { proc, payload }))) => {
            assert_eq!(proc, ProcToken(2));
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some(PROC_PANIC));
        }
        (Ending::EventLimit, Ok(Err(SimError::EventLimit { limit: 5 }))) => {}
        (Ending::ProtocolPanic, Err(payload)) => {
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(PROTO_PANIC), "the original payload reaches the caller");
        }
        (ending, Ok(other)) => panic!("{ending:?}: ended as {:?}", other.map(|_| ())),
        (ending, Err(_)) => panic!("{ending:?}: an unexpected panic reached the caller"),
    }
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("a count")
}

/// Keeps the expected panics (the two above, and blocked processes
/// unwinding a shutdown) off stderr; any other panic is reported.
fn quiet_expected_panics() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !matches!(message, Some(PROC_PANIC | PROTO_PANIC | "kernel alive")) {
            report(info);
        }
    }));
}

#[test]
fn two_hundred_kernels_leave_no_stack_local_or_thread_behind() {
    quiet_expected_panics();
    let threads = thread_count();
    let stacks = live_fiber_stacks();
    for run in 0..RUNS {
        let ending = ENDINGS[run % ENDINGS.len()];
        let dropped = DROPPED.load(Ordering::Relaxed);
        run_one(ending, run as u64);
        assert_eq!(live_fiber_stacks(), stacks, "run {run} ({ending:?}) left a fiber stack");
        assert_eq!(
            DROPPED.load(Ordering::Relaxed) - dropped,
            PROCS as usize,
            "run {run} ({ending:?}) left a process's locals undropped"
        );
    }
    if cfg!(target_arch = "x86_64") {
        // Every process is a fiber on the caller's thread.
        assert_eq!(THREADS_SEEN.load(Ordering::Relaxed), threads, "a run started a thread");
    }
    // A joined thread leaves the kernel's count a moment after its
    // joiner is released, so the comparison allows it that moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() != threads {
        assert!(
            Instant::now() < deadline,
            "{} threads at the end, {threads} at the start",
            thread_count()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
