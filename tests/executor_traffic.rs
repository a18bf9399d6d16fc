//! The three executors put the same traffic on the wire.
//!
//! One program — private writes, a barrier, a write-locked
//! read-modify-write, an await — runs through one generic body on the
//! simulator ([`Sim`]), on real threads ([`Threads`]) and over loopback
//! TCP ([`Tcp`]), unbatched and with no session layer, in every memory
//! mode. Every run's recorded history must pass `Outcome::verify`, and
//! the total message and byte counts must be equal. All three drive the
//! same protocol state machines, so whatever a driver sent on its own account
//! (a stray ack, a second flush, a differently sized grant) would show up
//! here as a count mismatch — what DPOR explores is what ships over
//! sockets.
//!
//! The program is built so its traffic does not depend on scheduling:
//! only write locks are taken (every grant after the first carries
//! exactly one predecessor), the awaited value is produced by exactly
//! one write, and nothing is batched (flush timing is the one thing
//! wall-clock and virtual time legitimately disagree on). Under PRAM a
//! lock grant orders only the previous holder's writes, so an older
//! holder's `Set` of the count may land last and stay; there each lock
//! section adds one instead, and adds commute.

use mc_live::Threads;
use mc_net::Tcp;
use mixed_consistency::{Driver, Executor, Loc, LockId, MemCtx, ProcModel, Sim, System, Value};

const NPROCS: usize = 3;
const SHARED: Loc = Loc(10);

/// The program of process `p`, written once for every executor.
fn program<D: Driver>(ctx: &mut MemCtx<D>, mode: ProcModel, p: u32) {
    ctx.write(Loc(p), p as i64 + 1);
    ctx.write(Loc(p + 3), 7);
    ctx.barrier();
    for q in 0..NPROCS as u32 {
        assert_eq!(ctx.read_pram(Loc(q)), Value::Int(q as i64 + 1));
    }
    ctx.with_write_lock(LockId(0), |c| {
        let v = c.read_causal(SHARED).expect_i64();
        if mode == ProcModel::PRAM {
            c.add(SHARED, 1);
        } else {
            c.write(SHARED, v + 1);
        }
    });
    ctx.await_eq(SHARED, Value::Int(NPROCS as i64));
    ctx.barrier();
}

/// Runs the program on `exec`, recorded, checks the history against
/// `mode`'s definition and returns the (messages, bytes) the run sent.
fn traffic<E: Executor>(exec: E, mode: ProcModel) -> (u64, u64) {
    let name = std::any::type_name::<E>();
    let mut sys = System::on(exec, NPROCS, mode).batching(None).record(true);
    for p in 0..NPROCS as u32 {
        sys.spawn(move |ctx| program(ctx, mode, p));
    }
    let outcome = sys.run().unwrap_or_else(|e| panic!("{mode} on {name}: {e}"));
    outcome.verify().unwrap_or_else(|e| panic!("{mode} on {name}: {e}"));
    (outcome.messages, outcome.bytes)
}

/// `exec` sends what the simulator sends, in every mode. Real threads
/// race differently every time; the counts must not.
fn assert_matches_simulator<E: Executor + Copy>(exec: E) {
    for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
        let sim = traffic(Sim::default(), mode);
        assert!(sim.0 > 0, "{mode}: the program communicates");
        for rep in 0..3 {
            let name = std::any::type_name::<E>();
            assert_eq!(
                traffic(exec, mode),
                sim,
                "{mode} rep {rep}: (messages, bytes) {name} vs Sim"
            );
        }
    }
}

#[test]
fn simulator_and_threads_send_identical_traffic() {
    assert_matches_simulator(Threads::default());
}

#[test]
fn simulator_and_tcp_send_identical_traffic() {
    assert_matches_simulator(Tcp);
}
