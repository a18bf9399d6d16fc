//! The `sim_check` workload's parts: a seeded 3-process program, the
//! deterministic simulator that runs it, and the checker that judges
//! the recorded history. No threads racing, no sockets, exact counters.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mc_model::check::{CheckError, CheckReport};
use mc_model::{History, Loc, ReadLabel};
use mixed_consistency::{Ctx, Metrics, Mode, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::StealClock;
use crate::slices::{Plan, Slice, Slicer};

/// Simulated processes.
pub const SIM_PROCS: usize = 3;
/// Locations the program touches.
const SIM_LOCS: u32 = 6;
/// Iterations per process of the history `check_model` is timed on:
/// 2 operations each, so an 18 000-operation history. Do not scale this
/// up: the checker is superlinear (317 MB peak at this size).
pub const CHECK_ITERS: usize = 3_000;

/// Runs `f` on a thread pinned to the CPU the caller is on; threads `f`
/// spawns inherit the pin.
///
/// The simulator runs its process threads strictly one at a time,
/// handing off through channels. Spread over two vCPUs, every hand-off
/// waits for a cross-CPU wake-up, which on this host was seen to cost
/// 5-20x in throughput and to swing with steal time; on one CPU it is a
/// context switch, and repeats.
///
/// `f` is handed the steal counter that covers where it runs: that one
/// CPU's, or the machine's if pinning failed.
pub fn on_one_cpu<R: Send>(f: impl FnOnce(StealClock) -> R + Send) -> R {
    std::thread::scope(|scope| {
        let pinned =
            scope.spawn(|| f(pin_this_thread().map_or(StealClock::machine(), StealClock::one_cpu)));
        pinned.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Pins the calling thread to the CPU it is on and returns that CPU.
#[cfg(target_os = "linux")]
fn pin_this_thread() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and returns a CPU
    // number or -1.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    if !(0..1024).contains(&cpu) {
        eprintln!("mcbench: cannot tell the current CPU; running unpinned");
        return None;
    }
    mask[cpu as usize / 64] = 1 << (cpu % 64);
    // SAFETY: `sched_setaffinity` reads `cpusetsize` bytes through
    // `mask`, which points at 128 valid bytes for the whole call; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("mcbench: could not pin to CPU {cpu}: {}", std::io::Error::last_os_error());
        return None;
    }
    Some(cpu as usize)
}

#[cfg(not(target_os = "linux"))]
fn pin_this_thread() -> Option<usize> {
    None
}

/// One operation of the generated program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOp {
    /// `write(loc, value)`.
    Write(Loc, i64),
    /// `read(loc, label)`.
    Read(Loc, ReadLabel),
}

/// The seeded program: per process, `iters` iterations of (a write or a
/// causal read) then a PRAM read. Written values are unique, so a read's
/// value names its writer.
pub fn program(seed: u64, iters: usize) -> Vec<Vec<SimOp>> {
    (0..SIM_PROCS as u64)
        .map(|p| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(SIM_PROCS as u64) + p);
            let mut ops = Vec::with_capacity(2 * iters);
            for i in 0..iters {
                let loc = Loc(rng.gen_range(0..SIM_LOCS));
                ops.push(if rng.gen_bool(0.5) {
                    SimOp::Write(loc, ((p as i64) << 32) | (i as i64 + 1))
                } else {
                    SimOp::Read(loc, ReadLabel::Causal)
                });
                ops.push(SimOp::Read(Loc(rng.gen_range(0..SIM_LOCS)), ReadLabel::Pram));
            }
            ops
        })
        .collect()
}

fn run_op(ctx: &mut Ctx<'_>, op: SimOp) {
    match op {
        SimOp::Write(loc, v) => {
            ctx.write(loc, v);
        }
        SimOp::Read(loc, label) => {
            ctx.read(loc, label);
        }
    }
}

fn system(seed: u64, record: bool) -> System {
    System::new(SIM_PROCS, Mode::Mixed).seed(seed).record(record)
}

/// Runs `program` on the simulator's mixed-consistency memory.
///
/// # Panics
///
/// Panics if the simulator reports an error: the program has no
/// blocking operations, so none is expected.
pub fn simulate(program: &[Vec<SimOp>], seed: u64, record: bool) -> (Metrics, Option<History>) {
    let mut sys = system(seed, record);
    for ops in program {
        let ops = ops.clone();
        sys.spawn(move |ctx| ops.into_iter().for_each(|op| run_op(ctx, op)));
    }
    let out = sys.run().expect("a program of reads and writes runs to completion");
    (out.metrics, out.history)
}

/// Runs `program` unrecorded, timing every call as its process sees it
/// (request handed to the simulator kernel → response), and returns
/// every process's slices of `slice` operations each.
///
/// # Panics
///
/// As [`simulate`].
pub fn simulate_timed(
    program: &[Vec<SimOp>],
    seed: u64,
    slice: u64,
    clock: StealClock,
) -> Vec<Slice> {
    let all = Arc::new(Mutex::new(Vec::new()));
    let mut sys = system(seed, false);
    for ops in program {
        let (ops, all) = (ops.clone(), all.clone());
        sys.spawn(move |ctx| {
            let plan = Plan { warm: 0, slice, slices: ops.len() as u64 / slice };
            let mut sl = Slicer::new(plan, slice, clock);
            for (k, op) in ops.into_iter().take(plan.timed() as usize).enumerate() {
                sl.begin_round(k as u64);
                let t = Instant::now();
                run_op(ctx, op);
                sl.sample(k as u64, t.elapsed().as_nanos() as u64);
            }
            all.lock().expect("slice vec healthy").extend(sl.finish().slices);
        });
    }
    sys.run().expect("a program of reads and writes runs to completion");
    let slices = std::mem::take(&mut *all.lock().expect("slice vec healthy"));
    slices
}

/// Violations in a `check_model` verdict (a cyclic causality relation
/// counts as one).
pub fn count_violations(verdict: &Result<CheckReport, CheckError>) -> u64 {
    match verdict {
        Ok(_) => 0,
        Err(CheckError::Causality(_)) => 1,
        Err(CheckError::Violations(r)) => (r.violations.len() + r.global.len()) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::ModelAssignment;

    #[test]
    fn the_seed_names_the_program() {
        assert_eq!(program(1, 200), program(1, 200));
        assert_ne!(program(1, 200), program(2, 200), "another seed, another operation sequence");
        assert!(program(1, 200).iter().all(|ops| ops.len() == 400));
    }

    #[test]
    fn a_simulated_history_passes_its_own_gate() {
        let p = program(2, 100);
        let (metrics, history) = simulate(&p, 2, true);
        let h = history.expect("recording was on");
        assert_eq!(h.len(), 600);
        assert!(metrics.bytes > 0);
        let verdict = mc_model::spec::check_model(&h, &ModelAssignment::mixed(SIM_PROCS));
        assert_eq!(count_violations(&verdict), 0);
        // Timed, unrecorded: 200 operations per process in slices of 100.
        assert_eq!(simulate_timed(&p, 2, 100, StealClock::machine()).len(), 2 * SIM_PROCS);
    }
}
