//! A parked operation first probes its inbox while awake, then sleeps on
//! it: `Outcome::parks` counts, per process, the parks, the replies
//! caught inside the spin window and the parks that slept. The window
//! counts toward the operation's timeout, and `Duration::MAX` means no
//! deadline. The last test drives the vendored channel the inbox is
//! built on, whose sends wake a receiver only when one is asleep.

use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, TryRecvError};
use mc_live::Threads;
use mc_model::{Loc, ProcId, Value};
use mc_net::Tcp;
use mixed_consistency::{Executor, Mode, Outcome, ParkStats, RunError, System};

/// Every park ended one way or the other.
fn assert_accounted(outcome: &Outcome) {
    for (p, s) in outcome.parks.iter().enumerate() {
        assert_eq!(s.parks, s.caught + s.slept, "p{p}: {s:?}");
    }
}

#[test]
fn a_reply_inside_the_window_is_caught_without_sleeping() {
    // One process on SC over channels: the manager runs on the caller's
    // thread as the request is sent, so each reply is in the inbox
    // before the operation parks.
    let mut sys = System::on(Threads::default(), 1, Mode::Sc);
    sys.spawn(|ctx| {
        for i in 0..50 {
            ctx.write(Loc(0), i);
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(i));
        }
    });
    let outcome = sys.run().expect("run");
    assert_accounted(&outcome);
    assert_eq!(outcome.parks, vec![ParkStats { parks: 100, caught: 100, slept: 0 }]);
}

/// Process 1 awaits a write that process 0 makes `delay` after process 1
/// said it is about to park.
fn delayed_reply<E: Executor>(delay: Duration) -> impl FnOnce(System<E>) -> Outcome {
    move |mut sys| {
        let (parking, parked) = mpsc::channel();
        sys.spawn(move |ctx| {
            parked.recv().unwrap();
            thread::sleep(delay);
            ctx.write(Loc(0), 1);
        });
        sys.spawn(move |ctx| {
            parking.send(()).unwrap();
            ctx.await_eq(Loc(0), Value::Int(1));
        });
        sys.run().expect("run")
    }
}

#[test]
fn a_reply_delayed_past_the_window_sleeps_and_completes() {
    let outcome =
        delayed_reply(Duration::from_millis(30))(System::on(Threads::default(), 2, Mode::Mixed));
    assert_accounted(&outcome);
    assert_eq!(outcome.parks[0], ParkStats::default(), "a write never parks");
    let awaiting = outcome.parks[1];
    assert!(awaiting.slept >= 1, "{awaiting:?}");
    assert_eq!(outcome.final_value(ProcId(1), Loc(0)), Value::Int(1));
}

#[test]
fn parks_are_counted_over_tcp_too() {
    let outcome = delayed_reply(Duration::from_millis(30))(System::on(Tcp, 2, Mode::Mixed));
    assert_accounted(&outcome);
    assert!(outcome.parks[1].slept >= 1, "{:?}", outcome.parks);

    let mut sys = System::on(Tcp, 1, Mode::Sc);
    sys.spawn(|ctx| {
        for i in 0..20 {
            ctx.write(Loc(0), i);
        }
    });
    let outcome = sys.run().expect("run");
    assert_accounted(&outcome);
    assert_eq!(outcome.parks[0].parks, 20, "{:?}", outcome.parks);
}

#[test]
fn an_unanswered_await_panics_at_its_timeout_with_the_spin_counted() {
    let timeout = Duration::from_millis(100);
    let mut sys = System::on(Threads::default(), 1, Mode::Mixed).timeout(timeout);
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(0), Value::Int(99)); // nobody writes it
    });
    let start = Instant::now();
    match sys.run() {
        Err(RunError::ProcPanicked { proc, message }) => {
            assert_eq!(proc, ProcId(0));
            assert!(message.contains("timed out after 100ms"), "{message}");
            let spun_then_slept = format!("{:?}", ParkStats { parks: 1, caught: 0, slept: 1 });
            assert!(message.contains(&spun_then_slept), "{message}");
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    let took = start.elapsed();
    assert!(took >= timeout, "panicked after {took:?}, before its timeout");
    assert!(took < timeout * 20, "panicked after {took:?}, long past its timeout");
}

#[test]
fn a_timeout_of_duration_max_means_no_deadline() {
    // Parked operations on both executors, with and without the session
    // layer (whose sleep is sliced into retransmission ticks).
    for reliable in [false, true] {
        let outcome = delayed_reply(Duration::from_millis(5))(
            System::on(Threads::default(), 2, Mode::Mixed)
                .reliable(reliable)
                .timeout(Duration::MAX),
        );
        assert_eq!(outcome.final_value(ProcId(1), Loc(0)), Value::Int(1));
        let outcome = delayed_reply(Duration::from_millis(5))(
            System::on(Tcp, 2, Mode::Mixed).reliable(reliable).timeout(Duration::MAX),
        );
        assert_eq!(outcome.final_value(ProcId(1), Loc(0)), Value::Int(1));
    }
    let mut sys = System::on(Threads::default(), 1, Mode::Sc).timeout(Duration::MAX);
    sys.spawn(|ctx| {
        ctx.write(Loc(0), 7);
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(7));
    });
    sys.run().expect("run");
}

#[test]
fn a_channel_loses_no_wake_up_under_mixed_receives() {
    const PER_PRODUCER: u64 = 100_000;
    let (tx, rx) = unbounded::<(u64, u64)>();
    // The producers keep their senders until the consumer has everything:
    // a disconnect would wake a receiver whose wake-up a send lost.
    let drained = Arc::new(Barrier::new(3));
    let producers: Vec<_> = (0..2u64)
        .map(|p| {
            let (tx, drained) = (tx.clone(), drained.clone());
            thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.send((p, i)).unwrap();
                    // Pauses let the consumer drain the queue and go to
                    // sleep on it, so sends find it asleep and awake.
                    if i % 1_000 == 0 {
                        thread::sleep(Duration::from_micros(50));
                    } else if i % 64 == 0 {
                        thread::yield_now();
                    }
                }
                drained.wait();
            })
        })
        .collect();
    drop(tx);
    // A lost wake-up leaves a receive blocked for good: the consumer runs
    // on a thread of its own, watched from here.
    let (finished, result) = mpsc::channel();
    let consumer = thread::spawn(move || {
        let mut next = [0u64; 2];
        for n in 0..2 * PER_PRODUCER {
            let (p, i) = match n % 3 {
                0 => rx.recv().expect("senders outlive the stream"),
                1 => {
                    rx.recv_timeout(Duration::from_secs(3600)).expect("senders outlive the stream")
                }
                _ => loop {
                    match rx.try_recv() {
                        Ok(m) => break m,
                        Err(TryRecvError::Empty) => thread::yield_now(),
                        Err(TryRecvError::Disconnected) => panic!("senders outlive the stream"),
                    }
                },
            };
            assert_eq!(i, next[p as usize], "FIFO per producer");
            next[p as usize] += 1;
        }
        finished.send(next).unwrap();
    });
    let next = result.recv_timeout(Duration::from_secs(60)).expect("no receive blocked for good");
    assert_eq!(next, [PER_PRODUCER; 2]);
    drained.wait();
    for t in producers.into_iter().chain([consumer]) {
        t.join().unwrap();
    }
}
