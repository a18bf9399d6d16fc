//! The three executors put the same traffic on the wire.
//!
//! One program — private writes, a barrier, a write-locked
//! read-modify-write, an await — runs on the simulator ([`System`]), on
//! real threads ([`LiveSystem`]) and over loopback TCP ([`NetSystem`]),
//! unbatched and with no session layer, in every memory mode, and the
//! total message and byte counts must be equal. All three drive the same
//! protocol state machines, so whatever a driver sent on its own account
//! (a stray ack, a second flush, a differently sized grant) would show up
//! here as a count mismatch — what DPOR explores is what ships over
//! sockets.
//!
//! The program is built so its traffic does not depend on scheduling:
//! only write locks are taken (every grant after the first carries
//! exactly one predecessor), the awaited value is produced by exactly
//! one `Set`, and nothing is batched (flush timing is the one thing
//! wall-clock and virtual time legitimately disagree on).

use mc_live::{LiveOutcome, LiveSystem};
use mc_net::NetSystem;
use mixed_consistency::{Driver, Loc, LockId, MemCtx, Mode, System, Value};

const NPROCS: usize = 3;
const SHARED: Loc = Loc(10);

/// The program of process `p`, written once for every executor.
fn program<D: Driver>(ctx: &mut MemCtx<D>, p: u32) {
    ctx.write(Loc(p), p as i64 + 1);
    ctx.write(Loc(p + 3), 7);
    ctx.barrier();
    for q in 0..NPROCS as u32 {
        assert_eq!(ctx.read_pram(Loc(q)), Value::Int(q as i64 + 1));
    }
    ctx.with_write_lock(LockId(0), |c| {
        let v = c.read_causal(SHARED).expect_i64();
        c.write(SHARED, v + 1);
    });
    ctx.await_eq(SHARED, Value::Int(NPROCS as i64));
    ctx.barrier();
}

fn simulated(mode: Mode) -> (u64, u64) {
    let mut sys = System::new(NPROCS, mode).batching(None);
    for p in 0..NPROCS as u32 {
        sys.spawn(move |ctx| program(ctx, p));
    }
    let outcome = sys.run().unwrap_or_else(|e| panic!("{mode} simulated: {e}"));
    (outcome.metrics.messages, outcome.metrics.bytes)
}

fn threads(mode: Mode) -> (u64, u64) {
    let mut sys = LiveSystem::new(NPROCS, mode).batching(None);
    for p in 0..NPROCS as u32 {
        sys.spawn(move |ctx| program(ctx, p));
    }
    traffic(sys.run().unwrap_or_else(|e| panic!("{mode} threads: {e}")))
}

fn tcp(mode: Mode) -> (u64, u64) {
    let mut sys = NetSystem::new(NPROCS, mode).batching(None);
    for p in 0..NPROCS as u32 {
        sys.spawn(move |ctx| program(ctx, p));
    }
    traffic(sys.run().unwrap_or_else(|e| panic!("{mode} tcp: {e}")))
}

fn traffic(outcome: LiveOutcome) -> (u64, u64) {
    (outcome.messages, outcome.bytes)
}

/// `real` sends what the simulator sends, in every mode. Real threads
/// race differently every time; the counts must not.
fn assert_matches_simulator(name: &str, real: fn(Mode) -> (u64, u64)) {
    for mode in Mode::ALL {
        let sim = simulated(mode);
        assert!(sim.0 > 0, "{mode}: the program communicates");
        for rep in 0..3 {
            assert_eq!(real(mode), sim, "{mode} rep {rep}: (messages, bytes) {name} vs simulated");
        }
    }
}

#[test]
fn simulator_and_threads_send_identical_traffic() {
    assert_matches_simulator("threads", threads);
}

#[test]
fn simulator_and_tcp_send_identical_traffic() {
    assert_matches_simulator("tcp", tcp);
}
