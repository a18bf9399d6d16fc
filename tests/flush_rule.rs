//! The batch flush rule on real threads and over loopback TCP: a batch
//! closes at an operation's entry once every peer link is idle, when an
//! operation parks, and at the byte bound (`mc_proto::BUF_CHUNK`).
//!
//! Each executor answers "is this link idle?" from its own state — the
//! in-process channels from a per-link count the receiver lowers when it
//! takes a message, TCP from the link writer's in-flight count. A link
//! that stays busy by mistake holds every later batch back; these
//! programs then stop making progress, and the deadlines below turn that
//! into a failure instead of a hang.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_live::Threads;
use mc_net::Tcp;
use mixed_consistency::{BatchPolicy, Driver, Executor, Loc, MemCtx, ProcModel, System, Value};

const DEADLINE: Duration = Duration::from_secs(20);
const X: Loc = Loc(0);
const Y: Loc = Loc(1);

/// `nprocs` processes on `exec`, batched, in mixed mode.
fn batched<E: Executor>(exec: E, nprocs: usize) -> System<E> {
    System::on(exec, nprocs, ProcModel::MIXED).batching(Some(BatchPolicy::default()))
}

/// Polls `loc` with non-blocking reads until it holds `value` or more.
/// Every poll is an operation entry, where a batch the poller holds
/// leaves once its links are idle.
fn poll_until<D: Driver>(ctx: &mut MemCtx<D>, loc: Loc, value: i64, what: &str) {
    let start = Instant::now();
    while !matches!(ctx.read_pram(loc), Value::Int(v) if v >= value) {
        assert!(start.elapsed() < DEADLINE, "{what}: {loc} never reached {value}");
    }
}

/// A frame the peer has taken frees its link: the poller's second write
/// leaves at the entry of a non-blocking read, with no park and no sync
/// point to push it. Each of the four writes leaves as one update.
fn one_update_per_write<E: Executor + Copy>(exec: E) {
    let name = std::any::type_name::<E>();
    for rep in 0..3 {
        let mut sys = batched(exec, 2).record(true);
        sys.spawn(|ctx| {
            for round in 1..=2 {
                ctx.write(X, round);
                poll_until(ctx, Y, round, "the echo");
            }
        });
        sys.spawn(|ctx| {
            for round in 1..=2 {
                ctx.await_eq(X, Value::Int(round));
                ctx.write(Y, round);
            }
        });
        let outcome = sys.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        outcome.verify().unwrap_or_else(|e| panic!("{name} rep {rep}: {e}"));
        assert_eq!(outcome.messages, 4, "{name} rep {rep}: one update per write");
    }
}

#[test]
fn a_write_leaves_once_the_peer_has_taken_the_previous_frame() {
    one_update_per_write(Threads::default());
    one_update_per_write(Tcp);
}

/// Two processes that only write, each to one location, and a third
/// that polls them. Every write after a batch's first coalesces into
/// its one entry, and on threads a writer with its batch open leaves
/// its inbox alone, so the two writers can keep each other's links busy
/// for good. The byte bound counts every write, coalesced or not, so
/// their batches still close and the poller sees values many batches
/// on. (When the two get stuck that way is up to the OS scheduler;
/// `node::tests::coalesced_writes_to_one_location_close_at_the_byte_bound`
/// pins the bound itself.) Unrecorded: the poller reads in a tight loop.
fn coalescing_writers_close_their_batches<E: Executor>(exec: E) {
    const TARGET: i64 = 20_000;
    let stop = Arc::new(AtomicBool::new(false));
    let mut sys = batched(exec, 3);
    for loc in [X, Y] {
        let stop = stop.clone();
        sys.spawn(move |ctx| {
            let (start, mut v) = (Instant::now(), 0);
            while !stop.load(Ordering::Relaxed) && start.elapsed() < DEADLINE {
                v += 1;
                ctx.write(loc, v);
            }
        });
    }
    sys.spawn(move |ctx| {
        poll_until(ctx, X, TARGET, "writer 0");
        poll_until(ctx, Y, TARGET, "writer 1");
        stop.store(true, Ordering::Relaxed);
    });
    sys.run().unwrap_or_else(|e| panic!("{}: {e}", std::any::type_name::<E>()));
}

#[test]
fn writers_to_one_location_each_still_close_their_batches() {
    coalescing_writers_close_their_batches(Threads::default());
    coalescing_writers_close_their_batches(Tcp);
}
