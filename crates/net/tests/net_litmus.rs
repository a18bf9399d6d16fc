//! Litmus-shaped programs on real multi-node TCP clusters, judged by
//! the formal checkers — the classic shapes (store buffer, IRIW, WRC)
//! run as live programs over loopback sockets, with every recorded
//! history replayed through `check_model`/`check_*`. Genuine kernel
//! scheduling and genuine networking; same definitions as the
//! simulator's exhaustive litmus matrix.

use std::sync::{Arc, Mutex};

use mc_model::spec::{check_model, ModelAssignment, ModelSpec};
use mc_model::{check, Loc, ReadLabel, Value};
use mc_net::Tcp;
use mc_proto::Mode;
use mixed_consistency::System;

const REPS: usize = 5;

/// Store buffer (the paper's Fig. 1 shape): each process writes its own
/// flag then reads the other's. Under PRAM and causal consistency both
/// processes may read 0 — every interleaving the sockets produce must
/// still check.
#[test]
fn store_buffer_over_tcp() {
    for mode in [Mode::Pram, Mode::Causal] {
        for _ in 0..REPS {
            let mut sys = System::on(Tcp, 2, mode).record(true);
            for p in 0..2u32 {
                sys.spawn(move |ctx| {
                    ctx.write(Loc(p), 1);
                    let _ = ctx.read(Loc(1 - p), ReadLabel::Pram);
                });
            }
            let outcome = sys.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            let h = outcome.history.expect("recorded");
            check::check_pram(&h).unwrap_or_else(|e| panic!("{mode}: {e}"));
            if mode == Mode::Causal {
                check::check_causal(&h).unwrap_or_else(|e| panic!("{mode}: {e}"));
            }
        }
    }
}

/// IRIW: two writers to independent locations, two readers scanning in
/// opposite orders. Causal consistency admits the split (readers
/// disagreeing on the write order); the recorded histories must check
/// under the causal spec regardless of which interleaving the network
/// produced.
#[test]
fn iriw_over_tcp_checks_causal() {
    for _ in 0..REPS {
        let mut sys = System::on(Tcp, 4, Mode::Causal).record(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 1);
        });
        sys.spawn(|ctx| {
            ctx.write(Loc(1), 1);
        });
        for (a, b) in [(0u32, 1u32), (1, 0)] {
            sys.spawn(move |ctx| {
                let _ = ctx.read(Loc(a), ReadLabel::Causal);
                let _ = ctx.read(Loc(b), ReadLabel::Causal);
            });
        }
        let outcome = sys.run().expect("cluster runs");
        let h = outcome.history.expect("recorded");
        check_model(&h, &ModelAssignment::uniform(4, ModelSpec::CAUSAL))
            .unwrap_or_else(|e| panic!("IRIW history must satisfy causal: {e}"));
    }
}

/// IRIW under sequential consistency: with every process SC, the two
/// readers must *agree* on the write order — the server serializes. The
/// serialization check (`total_store_order`) judges the history.
#[test]
fn iriw_over_tcp_serializes_under_sc() {
    for _ in 0..REPS {
        let mut sys = System::on(Tcp, 4, Mode::Sc).record(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 1);
        });
        sys.spawn(|ctx| {
            ctx.write(Loc(1), 1);
        });
        for (a, b) in [(0u32, 1u32), (1, 0)] {
            sys.spawn(move |ctx| {
                let _ = ctx.read(Loc(a), ReadLabel::Causal);
                let _ = ctx.read(Loc(b), ReadLabel::Causal);
            });
        }
        let outcome = sys.run().expect("cluster runs");
        let h = outcome.history.expect("recorded");
        // Judged against the server's write order, which covers both
        // written locations.
        let order = h.write_order().expect("an SC run records its server's write order");
        assert_eq!(order.keys().copied().collect::<Vec<_>>(), [Loc(0), Loc(1)]);
        check_model(&h, &ModelAssignment::uniform(4, ModelSpec::SC))
            .unwrap_or_else(|e| panic!("SC cluster must serialize IRIW over TCP: {e}"));
    }
}

/// WRC (write-read causality): p1 observes p0's write before writing its
/// own flag; p2 observes the flag and must then observe the original
/// write — causal transitivity across two real sockets. The strongest
/// assertion here is on the *value*: a causal read may never return the
/// stale 0.
#[test]
fn wrc_transitivity_over_tcp() {
    for _ in 0..REPS {
        let mut sys = System::on(Tcp, 3, Mode::Causal).record(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 42);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(0), Value::Int(42));
            ctx.write(Loc(1), 1);
        });
        let seen = Arc::new(Mutex::new(Value::Int(0)));
        let seen2 = seen.clone();
        sys.spawn(move |ctx| {
            ctx.await_eq(Loc(1), Value::Int(1));
            *seen2.lock().unwrap() = ctx.read_causal(Loc(0));
        });
        let outcome = sys.run().expect("cluster runs");
        assert_eq!(
            *seen.lock().unwrap(),
            Value::Int(42),
            "causal transitivity broken across TCP hops"
        );
        let h = outcome.history.expect("recorded");
        check::check_causal(&h).expect("WRC history must check causal");
    }
}

/// The same WRC shape under Definition 4 (mixed): the final read carries
/// the causal label and is judged causal; the history must satisfy the
/// mixed model end to end.
#[test]
fn wrc_over_tcp_mixed_model() {
    for _ in 0..REPS {
        let mut sys = System::on(Tcp, 3, Mode::Mixed).record(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 42);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(0), Value::Int(42));
            ctx.write(Loc(1), 1);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), Value::Int(1));
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(42));
        });
        let outcome = sys.run().expect("cluster runs");
        let h = outcome.history.expect("recorded");
        check::check_mixed(&h).expect("mixed model over TCP");
        check_model(&h, &ModelAssignment::mixed(3))
            .unwrap_or_else(|e| panic!("lattice judgement over TCP: {e}"));
    }
}
