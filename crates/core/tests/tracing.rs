//! Cross-layer test of the structured tracing pipeline: a faulty
//! session-layer run traced through the public `System` API must yield
//! vclock-annotated message spans, fault instants, and retransmission
//! spans — deterministically, byte-for-byte across reruns — while an
//! untraced run of the same program keeps identical metrics and no trace.

use mixed_consistency::{FaultPlan, Loc, Outcome, ProcModel, RunError, System, Value};

fn traced_run(trace: bool) -> Result<Outcome, RunError> {
    let plan = FaultPlan::new().drop_rate(0.2).duplicate_rate(0.1);
    let mut sys =
        System::new(3, ProcModel::CAUSAL).seed(13).trace(trace).faults(plan).reliable(true);
    sys.spawn(|ctx| {
        for v in 1..=8i64 {
            ctx.write(Loc(0), v);
        }
        ctx.write(Loc(1), 1);
    });
    for _ in 0..2 {
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), 1);
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(8));
        });
    }
    sys.run()
}

#[test]
fn traced_faulty_run_exports_vclock_spans_deterministically() {
    let outcome = traced_run(true).expect("session layer masks the faults");
    let trace = outcome.trace.as_ref().expect("tracing enabled");

    let vclock_spans = trace
        .events()
        .filter(|ev| ev.args.iter().any(|(k, v)| *k == "vclock" && v.starts_with('⟨')))
        .count();
    let retransmits = trace.events().filter(|ev| ev.name == "retransmit").count();
    let faults = trace.events().filter(|ev| ev.cat == "fault").count();
    assert!(vclock_spans > 0, "causal update spans carry vector timestamps");
    assert!(retransmits > 0, "dropped updates must be retransmitted");
    assert!(faults as u64 >= outcome.metrics.faults.dropped, "every drop is traced");
    assert!(outcome.metrics.rto_hist.count() > 0, "retransmissions feed the RTO histogram");
    assert!(outcome.metrics.delivery_hist.count() > 0);

    // Same seed, same program → the exported artifacts are byte-identical.
    let again = traced_run(true).expect("deterministic");
    let tr2 = again.trace.as_ref().expect("tracing enabled");
    assert_eq!(trace.to_jsonl(), tr2.to_jsonl());
    assert_eq!(trace.to_chrome_trace(), tr2.to_chrome_trace());

    // Tracing off: no trace, identical simulation.
    let quiet = traced_run(false).expect("identical run");
    assert!(quiet.trace.is_none());
    assert_eq!(quiet.metrics.finish_time, outcome.metrics.finish_time);
    assert_eq!(quiet.metrics.messages, outcome.metrics.messages);
    assert_eq!(quiet.metrics.delivered, outcome.metrics.delivered);
}
