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

use mc_live::{LiveCtx, LiveOutcome, LiveSystem};
use mc_net::NetSystem;
use mixed_consistency::{BatchPolicy, Loc, Mode, Value};

const DEADLINE: Duration = Duration::from_secs(20);
const X: Loc = Loc(0);
const Y: Loc = Loc(1);

type Program = Box<dyn FnOnce(&mut LiveCtx) + Send>;

#[derive(Clone, Copy, Debug)]
enum Exec {
    Threads,
    Tcp,
}

/// Runs one program per process, batched, in mixed mode.
fn run(exec: Exec, programs: Vec<Program>) -> LiveOutcome {
    let (n, batch) = (programs.len(), Some(BatchPolicy::default()));
    let outcome = match exec {
        Exec::Threads => {
            let mut sys = LiveSystem::new(n, Mode::Mixed).batching(batch);
            programs.into_iter().for_each(|p| _ = sys.spawn(p));
            sys.run()
        }
        Exec::Tcp => {
            let mut sys = NetSystem::new(n, Mode::Mixed).batching(batch);
            programs.into_iter().for_each(|p| _ = sys.spawn(p));
            sys.run()
        }
    };
    outcome.unwrap_or_else(|e| panic!("{exec:?}: {e}"))
}

/// Polls `loc` with non-blocking reads until it holds `value` or more.
/// Every poll is an operation entry, where a batch the poller holds
/// leaves once its links are idle.
fn poll_until(ctx: &mut LiveCtx, loc: Loc, value: i64, what: &str) {
    let start = Instant::now();
    while !matches!(ctx.read_pram(loc), Value::Int(v) if v >= value) {
        assert!(start.elapsed() < DEADLINE, "{what}: {loc} never reached {value}");
    }
}

/// A frame the peer has taken frees its link: the poller's second write
/// leaves at the entry of a non-blocking read, with no park and no sync
/// point to push it. Each of the four writes leaves as one update.
#[test]
fn a_write_leaves_once_the_peer_has_taken_the_previous_frame() {
    for exec in [Exec::Threads, Exec::Tcp] {
        for rep in 0..3 {
            let poller: Program = Box::new(|ctx| {
                for round in 1..=2 {
                    ctx.write(X, round);
                    poll_until(ctx, Y, round, "the echo");
                }
            });
            let echo: Program = Box::new(|ctx| {
                for round in 1..=2 {
                    ctx.await_eq(X, Value::Int(round));
                    ctx.write(Y, round);
                }
            });
            let outcome = run(exec, vec![poller, echo]);
            assert_eq!(outcome.messages, 4, "{exec:?} rep {rep}: one update per write");
        }
    }
}

/// Two processes that only write, each to one location, and a third
/// that polls them. Every write after a batch's first coalesces into
/// its one entry, and on threads a writer with its batch open leaves
/// its inbox alone, so the two writers can keep each other's links busy
/// for good. The byte bound counts every write, coalesced or not, so
/// their batches still close and the poller sees values many batches
/// on. (When the two get stuck that way is up to the OS scheduler;
/// `node::tests::coalesced_writes_to_one_location_close_at_the_byte_bound`
/// pins the bound itself.)
#[test]
fn writers_to_one_location_each_still_close_their_batches() {
    const TARGET: i64 = 20_000;
    for exec in [Exec::Threads, Exec::Tcp] {
        let stop = Arc::new(AtomicBool::new(false));
        let writer = |loc: Loc| -> Program {
            let stop = stop.clone();
            Box::new(move |ctx| {
                let (start, mut v) = (Instant::now(), 0);
                while !stop.load(Ordering::Relaxed) && start.elapsed() < DEADLINE {
                    v += 1;
                    ctx.write(loc, v);
                }
            })
        };
        let (w0, w1, stop) = (writer(X), writer(Y), stop.clone());
        let poller: Program = Box::new(move |ctx| {
            poll_until(ctx, X, TARGET, "writer 0");
            poll_until(ctx, Y, TARGET, "writer 1");
            stop.store(true, Ordering::Relaxed);
        });
        run(exec, vec![w0, w1, poller]);
    }
}
