//! Quickstart: a producer/consumer handshake on mixed-consistency memory.
//!
//! Demonstrates the core loop of the library: build a [`System`], spawn
//! processes that use labeled reads and `await` synchronization, run it on
//! the deterministic simulator, then verify the recorded history against
//! the paper's Definition 4.
//!
//! Run with: `cargo run --example quickstart`

use mixed_consistency::{check, Loc, ProcId, ProcModel, ReadLabel, System, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Shared locations: x0 carries data, x1 is the ready flag.
    let data = Loc(0);
    let flag = Loc(1);

    let mut sys = System::new(2, ProcModel::MIXED).seed(7).record(true);

    // The producer writes the payload, then raises the flag. Writes are
    // non-blocking: they update the local replica and broadcast.
    sys.spawn(move |ctx| {
        ctx.write(data, 42);
        ctx.write(flag, 1);
        println!("[p0] wrote data=42 and flag=1");
    });

    // The consumer awaits the flag (Section 3.1.3 of the paper), then
    // reads the data. A PRAM read suffices here: the await synchronizes
    // directly with the flag writer, and per-writer FIFO order makes the
    // earlier data write visible too.
    sys.spawn(move |ctx| {
        let observed = ctx.await_eq(flag, 1);
        let v = ctx.read(data, ReadLabel::Pram);
        println!("[p1] awaited flag={observed}, read data={v}");
        assert_eq!(v, Value::Int(42));
    });

    let outcome = sys.run()?;
    println!("\nvirtual time : {}", outcome.metrics.finish_time);
    println!("messages     : {}", outcome.metrics.messages);
    println!("final data   : {}", outcome.final_value(ProcId(1), data));

    // Every run yields a checkable history. `check_mixed` is Definition 4:
    // every PRAM-labeled read is a PRAM read, every causal-labeled read a
    // causal read.
    let history = outcome.history.expect("recording was enabled");
    println!("\nrecorded history:\n{}", history.to_pretty_string());
    check::check_mixed(&history)?;
    println!("history is mixed consistent (Definition 4) ✓");

    // This small history is even sequentially consistent — the exact
    // checker finds a witness serialization.
    let verdict = mixed_consistency::sc::check_sequential(&history)?;
    println!("sequentially consistent: {}", verdict.is_sc());
    Ok(())
}
