//! The knobs every executor shares, over loopback TCP: each lock
//! propagation variant, a barrier subgroup and tracing. Every run is
//! recorded and judged by `Outcome::verify`.

use mc_model::{BarrierId, Loc, LockId, ProcId, Value};
use mc_net::Tcp;
use mc_proto::{LockPropagation, Mode};
use mixed_consistency::System;

#[test]
fn every_lock_propagation_holds_over_tcp() {
    for prop in LockPropagation::ALL {
        let mut sys = System::on(Tcp, 3, Mode::Mixed).lock_propagation(prop).record(true);
        for _ in 0..3 {
            sys.spawn(|ctx| {
                for _ in 0..4 {
                    ctx.with_write_lock(LockId(0), |ctx| {
                        let v = ctx.read_causal(Loc(0)).expect_i64();
                        ctx.write(Loc(0), v + 1);
                    });
                }
            });
        }
        let outcome = sys.run().unwrap_or_else(|e| panic!("{prop}: {e}"));
        assert_eq!(outcome.final_value(ProcId(0), Loc(0)), Value::Int(12), "{prop}");
        outcome.verify().unwrap_or_else(|e| panic!("{prop}: {e}"));
        let h = outcome.history.expect("recorded");
        assert_eq!(h.lock_epochs()[&LockId(0)].len(), 12, "{prop}");
    }
}

#[test]
fn a_barrier_subgroup_synchronizes_only_its_group_over_tcp() {
    let mut sys = System::on(Tcp, 4, Mode::Mixed)
        .record(true)
        .barrier_group(BarrierId(1), vec![ProcId(0), ProcId(1)])
        .barrier_group(BarrierId(2), vec![ProcId(2), ProcId(3)]);
    for p in 0..4u32 {
        sys.spawn(move |ctx| {
            let bar = if p < 2 { BarrierId(1) } else { BarrierId(2) };
            let partner = Loc(p ^ 1);
            for round in 0..2i64 {
                ctx.write(Loc(p), round * 10 + p as i64);
                ctx.barrier_on(bar);
                assert_eq!(ctx.read_pram(partner), Value::Int(round * 10 + partner.0 as i64));
                ctx.barrier_on(bar);
            }
        });
    }
    let outcome = sys.run().expect("run");
    outcome.verify().expect("mixed consistent");
    let history = outcome.history.expect("recorded");
    let rounds = history.barrier_rounds();
    assert_eq!(rounds[&BarrierId(1)].len(), 4);
    assert_eq!(rounds[&BarrierId(2)].len(), 4);
    assert!(!rounds.contains_key(&BarrierId(0)), "no process entered the global barrier");
}

#[test]
fn a_tcp_trace_holds_one_event_per_message_sent() {
    let mut sys = System::on(Tcp, 2, Mode::Mixed).trace(true).record(true);
    sys.spawn(|ctx| {
        ctx.with_write_lock(LockId(0), |ctx| ctx.write(Loc(0), 7));
        ctx.write(Loc(1), 1);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(1), Value::Int(1));
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(7));
    });
    let outcome = sys.run().expect("run");
    outcome.verify().expect("mixed consistent");
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    assert!(!trace.is_empty());
    // Nothing is lost on purpose over TCP, so every send is a "msg".
    assert!(trace.events().all(|ev| ev.cat == "msg"));
    assert_eq!(trace.len() as u64, outcome.messages);
    assert!(trace.events().any(|ev| ev.name == "update"));
}
