//! Structured tracing: run a faulty-but-reliable causal workload with
//! the event tracer on, then export the trace twice —
//!
//! * `target/trace/faulty_causal.jsonl` — one JSON object per event
//!   (virtual-time key, category, span duration, vector timestamps on
//!   update messages), greppable and diffable;
//! * `target/trace/faulty_causal.chrome.json` — the Chrome trace event
//!   format: open <https://ui.perfetto.dev> and drop the file in to see
//!   per-node tracks with message/syscall/stall spans and fault instants
//!   on the virtual timeline.
//!
//! Tracing is strictly opt-in: the same run without `.trace(true)`
//! records nothing and allocates nothing (the second half demonstrates
//! it), so the instrumented simulator stays byte-for-byte deterministic
//! and benchmark-neutral when the tracer is off.
//!
//! Run with: `cargo run --example tracing`

use std::collections::BTreeMap;

use mixed_consistency::{FaultPlan, Loc, ProcModel, RunError, System, Value};

/// One writer counts a location up and raises a flag; two consumers wait
/// on the flag and read the counter causally. Drops and duplicates force
/// the session layer to retransmit — all of it lands in the trace.
fn workload(trace: bool) -> System {
    let plan = FaultPlan::new().drop_rate(0.15).duplicate_rate(0.1);
    let mut sys = System::new(3, ProcModel::CAUSAL)
        .seed(7)
        .record(true)
        .trace(trace)
        .faults(plan)
        .reliable(true);
    sys.spawn(|ctx| {
        for v in 1..=20i64 {
            ctx.write(Loc(0), v);
        }
        ctx.write(Loc(1), 1);
    });
    for _ in 0..2 {
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), 1);
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(20));
        });
    }
    sys
}

fn main() -> Result<(), RunError> {
    let outcome = workload(true).run()?;
    let trace = outcome.trace.as_ref().expect("tracing was enabled");

    println!("== traced run: causal, 15% drop + 10% duplication, session layer on ==\n");
    println!("{}\n", outcome.metrics);

    let mut by_cat: BTreeMap<&str, usize> = BTreeMap::new();
    let mut retransmits = 0usize;
    let mut with_vclock = 0usize;
    for ev in trace.events() {
        *by_cat.entry(ev.cat).or_default() += 1;
        if ev.name == "retransmit" {
            retransmits += 1;
        }
        if ev.args.iter().any(|(k, _)| *k == "vclock") {
            with_vclock += 1;
        }
    }
    println!("trace: {} events", trace.len());
    for (cat, n) in &by_cat {
        println!("  {cat:<8} {n}");
    }
    println!("  retransmission spans: {retransmits}");
    println!("  update spans carrying a vector timestamp: {with_vclock}");
    assert!(by_cat.contains_key("fault"), "the fault plan must leave fault events");
    assert!(retransmits > 0, "drops under the session layer must retransmit");
    assert!(with_vclock > 0, "causal updates carry their vector timestamp");

    std::fs::create_dir_all("target/trace").expect("create target/trace");
    trace.write_jsonl("target/trace/faulty_causal.jsonl").expect("write JSONL");
    trace.write_chrome_trace("target/trace/faulty_causal.chrome.json").expect("write Chrome trace");
    println!("\nwrote target/trace/faulty_causal.jsonl");
    println!("wrote target/trace/faulty_causal.chrome.json");
    println!("  -> open https://ui.perfetto.dev and drop the .chrome.json in;");
    println!("     tracks are nodes, spans are messages/syscalls/stalls,");
    println!("     instants are faults and timers; click an update span to");
    println!("     see its vector timestamp under 'vclock'.");

    // The same workload with tracing off: identical metrics, no trace.
    let quiet = workload(false).run()?;
    assert!(quiet.trace.is_none(), "tracing is opt-in");
    assert_eq!(
        quiet.metrics.finish_time, outcome.metrics.finish_time,
        "tracing must not perturb the simulation"
    );
    println!(
        "\nuntraced rerun: same virtual finish time ({}), no trace kept",
        quiet.metrics.finish_time
    );
    Ok(())
}
