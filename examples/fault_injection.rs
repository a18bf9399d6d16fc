//! Fault injection: attack the network's channel assumptions and watch
//! either the checkers catch the resulting violations (session layer
//! off) or the session layer earn the assumptions back (session layer
//! on).
//!
//! Three demonstrations:
//!
//! 1. **Duplication + reordering vs. raw PRAM.** The PRAM protocol
//!    applies updates on receipt, trusting the channels' FIFO guarantee
//!    (the paper's Section 6 assumption). A duplicated or reordered
//!    update regresses a replica's store and the Definition 3 checker
//!    catches it in the recorded history. The causal protocol is immune:
//!    its vector timestamps restore the order before applying.
//! 2. **The same plan plus 10% loss, session layer on.** Sequencing,
//!    retransmission, and duplicate suppression mask every fault; all
//!    modes stay consistent — and loss without the session layer is a
//!    guaranteed deadlock.
//! 3. **Crash/restart.** A replica's node goes dark mid-broadcast,
//!    wiping its in-flight deliveries. Without the session layer the
//!    replica never learns the writer finished (deadlock); with it, the
//!    retransmission timers re-deliver everything after the restart and
//!    the causal protocol re-converges.
//!
//! Run with: `cargo run --example fault_injection`

use mixed_consistency::{
    check, FaultPlan, Loc, NodeId, ProcId, ProcModel, RunError, SimError, SimTime, System, Value,
};

/// Duplication plus heavy reordering — FIFO-hostile, but lossless, so
/// even the raw protocols terminate.
fn noisy_plan() -> FaultPlan {
    FaultPlan::new().duplicate_rate(0.2).reorder(SimTime::from_micros(50))
}

/// A workload extremely sensitive to per-writer ordering: one writer
/// counts up a location, two readers poll it and record histories.
fn run_counter(
    mode: ProcModel,
    plan: FaultPlan,
    reliable: bool,
    seed: u64,
) -> Result<bool, RunError> {
    let mut sys = System::new(3, mode).seed(seed).record(true).faults(plan).reliable(reliable);
    sys.spawn(|ctx| {
        for v in 1..=20i64 {
            ctx.write(Loc(0), v);
        }
        ctx.write(Loc(1), 1); // done flag
    });
    for _ in 0..2 {
        sys.spawn(|ctx| {
            // Every read is recorded and must be monotone under PRAM.
            loop {
                let _ = ctx.read_pram(Loc(0));
                if ctx.read_pram(Loc(1)) == Value::Int(1) {
                    break;
                }
            }
        });
    }
    let outcome = sys.run()?;
    let history = outcome.history.expect("recording enabled");
    Ok(check::check_mixed(&history).is_ok())
}

/// Scans seeds until one produces a checker-detected violation (or none
/// does). Fault injection is probabilistic per seed but each seed is
/// fully deterministic.
fn scan(mode: ProcModel, plan: &FaultPlan, reliable: bool) -> Result<Option<u64>, RunError> {
    for seed in 0..20 {
        if !run_counter(mode, plan.clone(), reliable, seed)? {
            return Ok(Some(seed));
        }
    }
    Ok(None)
}

/// A crash victim's program: wait for the writer's flag, then read the
/// final counter causally.
fn crash_run(reliable: bool) -> Result<Value, RunError> {
    // Node 1 is dark from 40µs to 600µs — exactly while the writer
    // broadcasts — wiping every delivery to it in that window.
    let plan = FaultPlan::new().crash(
        NodeId(1),
        SimTime::from_micros(40),
        Some(SimTime::from_micros(600)),
    );
    let mut sys = System::new(3, ProcModel::CAUSAL).seed(11).faults(plan).reliable(reliable);
    sys.spawn(|ctx| {
        for v in 1..=10i64 {
            ctx.write(Loc(0), v);
            ctx.compute(SimTime::from_micros(25)); // stretch into the window
        }
        ctx.write(Loc(1), 1);
    });
    for _ in 0..2 {
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), 1);
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(10));
        });
    }
    let outcome = sys.run()?;
    Ok(outcome.final_value(ProcId(1), Loc(0)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== 1. duplication + reordering, session layer OFF ==");
    println!("{:<10} {:<36} note", "mode", "verdict");
    let cases = [
        (ProcModel::PRAM, true, "apply-on-receipt trusts FIFO"),
        (ProcModel::CAUSAL, false, "vector timestamps resequence"),
        (ProcModel::MIXED, false, "vector timestamps resequence"),
    ];
    for (mode, expect_violation, note) in cases {
        let broke_at = scan(mode, &noisy_plan(), false)?;
        let verdict = match broke_at {
            Some(seed) => format!("violation caught (seed {seed})"),
            None => "consistent on every seed".to_string(),
        };
        println!("{:<10} {:<36} [{note}]", mode.to_string(), verdict);
        assert_eq!(broke_at.is_some(), expect_violation, "{mode}");
    }

    println!("\n== 2. duplication + reordering + 10% loss, session layer ON ==");
    let lossy = noisy_plan().drop_rate(0.1);
    for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
        let broke_at = scan(mode, &lossy, true)?;
        assert!(broke_at.is_none(), "{mode}: the session layer must mask every fault");
        println!("{:<10} consistent on every seed", mode.to_string());
    }
    // Loss without retransmission stalls every *blocking* operation: a
    // consumer awaiting a dropped flag write waits forever. (The muted
    // panic hook hides the kernel's noisy-but-expected deadlock unwind.)
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut sys = System::new(2, ProcModel::PRAM).faults(FaultPlan::new().drop_rate(1.0));
    sys.spawn(|ctx| {
        ctx.write(Loc(0), 1);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(0), 1);
    });
    match sys.run() {
        Err(RunError::Sim(SimError::Deadlock { .. })) => {
            println!("(and loss without the session layer deadlocks awaits, as expected)")
        }
        other => panic!("loss without retransmission cannot terminate: {other:?}"),
    }

    println!("\n== 3. crash/restart of a causal replica ==");
    match crash_run(false) {
        Err(RunError::Sim(SimError::Deadlock { .. })) => {
            println!("session OFF: the crashed replica never recovers  -> deadlock")
        }
        other => panic!("wiped deliveries cannot be recovered without a session: {other:?}"),
    }
    std::panic::set_hook(default_hook);
    let v = crash_run(true)?;
    assert_eq!(v, Value::Int(10));
    println!("session ON:  re-delivered after restart, replica 1 converged to {v}");

    println!("\nthe checkers detect real protocol faults, and the session layer");
    println!("restores the paper's channel assumptions over a faulty network.");
    Ok(())
}
