//! End-to-end tests of the live (threaded) executor. Scheduling here is
//! the OS's — every repetition is a fresh race — so each test loops a few
//! times and, where recording is on, replays the history through the
//! formal checkers: real concurrency, same definitions.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use mc_live::{ChannelTransport, Threads, Transport};
use mc_model::{check, BarrierId, Loc, LockId, ProcId, ProcModel, Value};
use mc_proto::{LockPropagation, Msg};
use mixed_consistency::{RunError, System};

const REPS: usize = 5;

/// The in-process answer to the batch flush rule's question: a link is
/// busy from a delivery until the receiver has taken every message on
/// it, and a manager, run by the sending thread, is never busy.
#[test]
fn a_channel_link_is_busy_from_deliver_until_taken() {
    let (to_0, inbox_0) = crossbeam::channel::unbounded();
    let (to_1, _inbox_1) = crossbeam::channel::unbounded();
    let t = ChannelTransport::new(vec![to_0, to_1], Vec::new());
    assert!(t.link_idle(1, 0), "nothing sent yet");
    assert!(t.deliver(1, 0, Msg::FlushAck) && t.deliver(1, 0, Msg::FlushAck));
    assert!(!t.link_idle(1, 0), "two messages on their way");
    assert!(t.link_idle(0, 1), "the reverse link is untouched");
    for left in [1, 0] {
        inbox_0.try_recv().expect("a delivered message");
        t.taken(1, 0);
        assert_eq!(t.link_idle(1, 0), left == 0, "{left} still on its way");
    }
    assert!(t.link_idle(0, 2), "a manager's link");
}

#[test]
fn producer_consumer_all_modes() {
    for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
        for _ in 0..REPS {
            let mut sys = System::on(Threads::default(), 2, mode).record(true);
            sys.spawn(|ctx| {
                ctx.write(Loc(0), 42);
                ctx.write(Loc(1), 1);
            });
            let seen = Arc::new(Mutex::new(Value::Int(0)));
            let seen2 = seen.clone();
            sys.spawn(move |ctx| {
                ctx.await_eq(Loc(1), Value::Int(1));
                *seen2.lock().unwrap() = ctx.read_pram(Loc(0));
            });
            let outcome = sys.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(*seen.lock().unwrap(), Value::Int(42), "{mode}");
            let h = outcome.history.expect("recorded");
            check::check_mixed(&h).unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(outcome.messages > 0);
        }
    }
}

#[test]
fn locked_increments_never_lose_updates() {
    for prop in LockPropagation::ALL {
        for _ in 0..REPS {
            let mut sys = System::on(Threads::default(), 3, ProcModel::MIXED)
                .lock_propagation(prop)
                .record(true);
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
            assert_eq!(
                outcome.final_value(ProcId(0), Loc(0)),
                Value::Int(12),
                "{prop}: lost updates on real threads"
            );
            let h = outcome.history.expect("recorded");
            check::check_mixed(&h).unwrap_or_else(|e| panic!("{prop}: {e}"));
            assert_eq!(h.lock_epochs()[&LockId(0)].len(), 12);
        }
    }
}

#[test]
fn barrier_phases_on_real_threads() {
    for _ in 0..REPS {
        let mut sys = System::on(Threads::default(), 3, ProcModel::PRAM).record(true);
        for p in 0..3u32 {
            sys.spawn(move |ctx| {
                for round in 0..3i64 {
                    ctx.write(Loc(p), round * 10 + p as i64);
                    ctx.barrier();
                    let v = ctx.read_pram(Loc((p + 1) % 3)).expect_i64();
                    assert_eq!(v, round * 10 + ((p as i64 + 1) % 3), "stale phase read");
                    ctx.barrier();
                }
            });
        }
        let outcome = sys.run().unwrap();
        let h = outcome.history.expect("recorded");
        check::check_pram(&h).unwrap();
        mc_model::programs::check_pram_consistent_program(&h).unwrap();
        assert_eq!(h.barrier_rounds()[&BarrierId(0)].len(), 6);
    }
}

#[test]
fn counters_converge_without_locks() {
    for _ in 0..REPS {
        let mut sys = System::on(Threads::default(), 3, ProcModel::CAUSAL);
        for _ in 0..3 {
            sys.spawn(|ctx| {
                for _ in 0..5 {
                    ctx.add(Loc(0), -1i64);
                }
                ctx.await_eq(Loc(0), Value::Int(-15));
            });
        }
        let outcome = sys.run().unwrap();
        for p in 0..3 {
            assert_eq!(outcome.final_value(ProcId(p), Loc(0)), Value::Int(-15));
        }
    }
}

#[test]
fn sc_mode_serializes_at_the_server() {
    for _ in 0..REPS {
        let mut sys = System::on(Threads::default(), 2, ProcModel::SC).record(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 7);
            ctx.write(Loc(1), 1);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), Value::Int(1));
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(7));
        });
        let outcome = sys.run().unwrap();
        assert_eq!(outcome.final_value(ProcId(0), Loc(0)), Value::Int(7));
        let h = outcome.history.expect("recorded");
        // The server's write order rides along and covers every write.
        let order = h.write_order().expect("an SC run records its server's write order");
        assert_eq!(order.keys().copied().collect::<Vec<_>>(), [Loc(0), Loc(1)]);
        let sc = mc_model::ModelAssignment::uniform(2, mc_model::ModelSpec::SC);
        mc_model::spec::check_model(&h, &sc).expect("serializable in the server's order");
    }
}

#[test]
fn subgroup_barriers_live() {
    let mut sys = System::on(Threads::default(), 4, ProcModel::MIXED)
        .barrier_group(BarrierId(1), vec![ProcId(0), ProcId(1)])
        .barrier_group(BarrierId(2), vec![ProcId(2), ProcId(3)]);
    for p in 0..4u32 {
        sys.spawn(move |ctx| {
            let bar = if p < 2 { BarrierId(1) } else { BarrierId(2) };
            let partner = Loc(p ^ 1);
            ctx.write(Loc(p), p as i64 + 1);
            ctx.barrier_on(bar);
            assert_eq!(ctx.read_pram(partner).expect_i64(), partner.0 as i64 + 1);
        });
    }
    sys.run().unwrap();
}

#[test]
fn manager_sharding_live() {
    let mut sys = System::on(Threads::default(), 3, ProcModel::MIXED).manager_shards(2);
    for p in 0..3u32 {
        sys.spawn(move |ctx| {
            for r in 0..3 {
                let lock = LockId((p + r) % 4);
                ctx.with_write_lock(lock, |ctx| {
                    let v = ctx.read_causal(Loc(lock.0)).expect_i64();
                    ctx.write(Loc(lock.0), v + 1);
                });
            }
        });
    }
    let outcome = sys.run().unwrap();
    let total: i64 = (0..4u32).map(|l| outcome.final_value(ProcId(0), Loc(l)).expect_i64()).sum();
    assert_eq!(total, 9);
}

#[test]
fn long_running_programs_outlive_the_op_timeout() {
    // Regression: the coordinator must not abort a program whose total
    // runtime exceeds the per-operation timeout — only a single *blocked
    // operation* may time out.
    let mut sys = System::on(Threads::default(), 2, ProcModel::MIXED)
        .timeout(Duration::from_millis(150))
        .record(true);
    sys.spawn(|ctx| {
        for i in 0..4i64 {
            std::thread::sleep(Duration::from_millis(100)); // local work
            ctx.write(Loc(0), i);
        }
        ctx.write(Loc(1), 1);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(1), Value::Int(1));
    });
    let outcome = sys.run().expect("long programs must not be aborted");
    check::check_mixed(&outcome.history.unwrap()).unwrap();
}

#[test]
fn deadlock_times_out_with_diagnostics() {
    let mut sys =
        System::on(Threads::default(), 1, ProcModel::MIXED).timeout(Duration::from_millis(200));
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(0), Value::Int(99)); // nobody writes it
    });
    match sys.run() {
        Err(RunError::ProcPanicked { proc, message }) => {
            assert_eq!(proc, ProcId(0));
            assert!(message.contains("timed out"), "{message}");
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn timeout_names_the_gate_the_read_is_parked_on() {
    // P0's update is the run's first send and the lossy shim (no session
    // layer) eats it; the barrier traffic behind it gets through, so the
    // release tells P1 to wait for a write that will never arrive. The
    // drop pattern is a function of the seed and the send order — scan
    // for the first seed that loses exactly that update.
    let run = |seed: u64| {
        let mut sys = System::on(Threads::lossy(0.25, seed), 2, ProcModel::MIXED)
            .timeout(Duration::from_millis(100));
        let (wrote, written) = std::sync::mpsc::channel();
        sys.spawn(move |ctx| {
            ctx.write(Loc(3), 1);
            wrote.send(()).unwrap();
            ctx.barrier();
        });
        sys.spawn(move |ctx| {
            written.recv().unwrap(); // the update is roll 0
            ctx.barrier();
            ctx.read_causal(Loc(3));
        });
        sys.run()
    };
    let message = (0..64)
        .find_map(|seed| match run(seed) {
            // Anything else: nothing was lost, or the barrier itself starved.
            Err(RunError::ProcPanicked { proc: ProcId(1), message }) => {
                Some(message).filter(|m| !m.contains("Barrier"))
            }
            _ => None,
        })
        .expect("some seed in 0..64 drops only the update");
    assert!(message.contains("timed out"), "{message}");
    assert!(message.contains("Read { loc: Loc(3), label: Causal }"), "{message}");
    assert!(message.contains("applied="), "{message}");
}

#[test]
fn lossy_channels_with_session_layer_still_converge() {
    // A quarter of all messages (updates, grants, acks alike) vanish;
    // the session layer's retransmission must mask every loss, for all
    // three lock-propagation variants, and the histories must still
    // satisfy Definition 4.
    for prop in LockPropagation::ALL {
        for rep in 0..3u64 {
            let mut sys = System::on(Threads::lossy(0.25, rep), 3, ProcModel::MIXED)
                .lock_propagation(prop)
                .reliable(true)
                .record(true);
            for _ in 0..3 {
                sys.spawn(|ctx| {
                    for _ in 0..3 {
                        ctx.with_write_lock(LockId(0), |ctx| {
                            let v = ctx.read_causal(Loc(0)).expect_i64();
                            ctx.write(Loc(0), v + 1);
                        });
                    }
                    ctx.barrier();
                    assert_eq!(ctx.read_causal(Loc(0)), Value::Int(9), "lost an increment");
                });
            }
            let outcome = sys.run().unwrap_or_else(|e| panic!("{prop} rep {rep}: {e}"));
            let dropped = outcome.metrics.faults.dropped;
            assert!(dropped > 0, "{prop} rep {rep}: the shim dropped nothing");
            let h = outcome.history.expect("recorded");
            check::check_mixed(&h).unwrap_or_else(|e| panic!("{prop} rep {rep}: {e}"));
        }
    }
}

#[test]
fn sc_server_survives_lossy_links_with_session() {
    for rep in 0..3u64 {
        let mut sys = System::on(Threads::lossy(0.3, 100 + rep), 2, ProcModel::SC).reliable(true);
        sys.spawn(|ctx| {
            ctx.write(Loc(0), 7);
            ctx.write(Loc(1), 1);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), Value::Int(1));
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(7));
        });
        let outcome = sys.run().unwrap_or_else(|e| panic!("rep {rep}: {e}"));
        assert_eq!(outcome.final_value(ProcId(0), Loc(0)), Value::Int(7));
        assert!(outcome.metrics.faults.dropped > 0, "rep {rep}");
    }
}

#[test]
fn clean_runs_report_zero_silent_drops() {
    // On a quiet network the lossy counter stays zero, and nothing is
    // lost on closed inboxes: the run would fail at teardown if it were.
    let mut sys = System::on(Threads::default(), 2, ProcModel::MIXED);
    sys.spawn(|ctx| {
        ctx.write(Loc(0), 1);
        ctx.write(Loc(1), 1);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(1), Value::Int(1));
    });
    let outcome = sys.run().unwrap();
    assert_eq!(outcome.metrics.faults.dropped, 0);
}

#[test]
fn histories_from_many_races_all_check() {
    // The live analogue of the seed sweep: repeat a racy mixed-label
    // program many times; every recorded history must satisfy
    // Definition 4.
    for rep in 0..20 {
        let mut sys = System::on(Threads::default(), 3, ProcModel::MIXED).record(true);
        for p in 0..3u32 {
            sys.spawn(move |ctx| {
                ctx.write(Loc(p), p as i64 + 10);
                let _ = ctx.read_pram(Loc((p + 1) % 3));
                let _ = ctx.read_causal(Loc((p + 2) % 3));
                ctx.write(Loc(p), p as i64 + 20);
            });
        }
        let outcome = sys.run().unwrap();
        let h = outcome.history.expect("recorded");
        check::check_mixed(&h).unwrap_or_else(|e| {
            panic!(
                "rep {rep}: real-thread execution violated Definition 4: {e}\n{}",
                h.to_pretty_string()
            )
        });
    }
}

#[test]
fn live_tracing_records_message_events() {
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL).trace(true).reliable(true);
    sys.spawn(|ctx| {
        ctx.write(Loc(0), 7);
        ctx.write(Loc(1), 1);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(1), Value::Int(1));
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(7));
    });
    let outcome = sys.run().unwrap();
    let trace = outcome.trace.expect("tracing enabled");
    assert!(!trace.is_empty());
    // Every event is a message (or a lossy drop, impossible here), on a
    // wall-clock timeline that only moves forward within the run.
    let mut update_events = 0;
    for ev in trace.events() {
        assert!(matches!(ev.cat, "msg" | "fault"), "unexpected category {}", ev.cat);
        if ev.name == "update" {
            update_events += 1;
        }
    }
    assert!(update_events > 0, "the causal writes must broadcast updates");
    // The exporters accept the live trace unchanged.
    assert!(trace.to_jsonl().contains("\"cat\": \"msg\""));
    assert!(trace.to_chrome_trace().contains("\"traceEvents\""));

    // Off by default: no tracer, no trace.
    let mut quiet = System::on(Threads::default(), 1, ProcModel::CAUSAL);
    quiet.spawn(|ctx| {
        ctx.write(Loc(0), 1);
    });
    assert!(quiet.run().unwrap().trace.is_none());
}

#[test]
fn batched_runs_converge_and_check_on_real_threads() {
    // Same programs, batching on: coalesced batches + delta-compressed
    // vectors must produce the same results the unbatched paths do, and
    // the recorded histories must still satisfy Definition 4.
    for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
        for _ in 0..REPS {
            let mut sys = System::on(Threads::default(), 3, mode)
                .batching(Some(mc_proto::BatchPolicy::default()))
                .record(true);
            for p in 0..3u32 {
                sys.spawn(move |ctx| {
                    for i in 0..10i64 {
                        ctx.write(Loc(p), i);
                    }
                    ctx.add(Loc(3), 1);
                    ctx.barrier();
                    for q in 0..3u32 {
                        assert_eq!(ctx.read_causal(Loc(q)), Value::Int(9), "{mode}: stale");
                    }
                    assert_eq!(ctx.read_causal(Loc(3)), Value::Int(3), "{mode}: lost add");
                });
            }
            let outcome = sys.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            let h = outcome.history.expect("recorded");
            check::check_mixed(&h).unwrap_or_else(|e| panic!("{mode}: {e}"));
        }
    }
}

#[test]
fn batched_writes_cut_live_traffic() {
    // 30 same-location writes per process coalesce into a handful of
    // batch frames: the batched run must move well under half the
    // messages of the unbatched one.
    let run = |batch: Option<mc_proto::BatchPolicy>| {
        let mut sys = System::on(Threads::default(), 3, ProcModel::CAUSAL).batching(batch);
        for p in 0..3u32 {
            sys.spawn(move |ctx| {
                for i in 0..30i64 {
                    ctx.write(Loc(p), i);
                }
                ctx.barrier();
                for q in 0..3u32 {
                    assert_eq!(ctx.read_causal(Loc(q)), Value::Int(29));
                }
            });
        }
        sys.run().expect("clean run")
    };
    let unbatched = run(None);
    let batched = run(Some(mc_proto::BatchPolicy::default()));
    assert!(
        batched.messages * 2 <= unbatched.messages,
        "batched {} vs unbatched {} messages",
        batched.messages,
        unbatched.messages
    );
    assert!(
        batched.bytes < unbatched.bytes,
        "batched {} vs unbatched {} bytes",
        batched.bytes,
        unbatched.bytes
    );
}

#[test]
fn durable_cluster_recovers_from_disk_across_restarts() {
    let dir = std::env::temp_dir().join(format!("mc-live-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First incarnation: a clean run that leaves durable state behind.
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
        .durability(mc_proto::DurabilityPolicy::new(4), &dir);
    sys.spawn(|ctx| {
        ctx.write(Loc(0), 42);
        ctx.write(Loc(1), 1);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(1), Value::Int(1));
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(42));
    });
    let first = sys.run().expect("first incarnation");
    assert!(first.wal.appends > 0, "durable writes must hit the log");
    assert_eq!(first.wal.appends, first.wal.synced, "shutdown leaves nothing staged");
    assert_eq!(first.wal.recoveries, 0);
    assert_eq!(first.replica(ProcId(0)).incarnation, 0);

    // Second incarnation from the same directory: both replicas replay
    // snapshot + log, bump their incarnation, and still hold the
    // pre-restart writes even though no process writes them again.
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
        .durability(mc_proto::DurabilityPolicy::new(4), &dir);
    sys.spawn(|ctx| {
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(42), "own durable write lost");
        ctx.write(Loc(2), 7);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(2), Value::Int(7));
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(42), "ingested durable write lost");
    });
    let second = sys.run().expect("second incarnation");
    assert_eq!(second.wal.recoveries, 2, "both replicas restart from disk");
    assert!(
        second.wal.replayed > 0 || first.wal.snapshots > 0,
        "recovery must come from the log tail or a snapshot"
    );
    assert_eq!(second.replica(ProcId(0)).incarnation, 1);
    assert_eq!(second.replica(ProcId(1)).incarnation, 1);
    assert_eq!(second.final_value(ProcId(1), Loc(0)), Value::Int(42));

    // Third incarnation with replica 1's disk wiped: the reborn node 0
    // learns from its RecoverReq round that the fresh peer has none of
    // its writes and pushes its whole own suffix back, so the peer
    // converges to a durable prefix it never observed in this process.
    let _ = std::fs::remove_dir_all(dir.join("replica-1"));
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
        .durability(mc_proto::DurabilityPolicy::new(4), &dir);
    sys.spawn(|ctx| {
        ctx.write(Loc(3), 1);
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(0), Value::Int(42));
        ctx.await_eq(Loc(2), Value::Int(7));
    });
    let third = sys.run().expect("third incarnation");
    assert_eq!(third.wal.recoveries, 1, "only replica 0 had state on disk");
    assert_eq!(third.replica(ProcId(0)).incarnation, 2);
    assert_eq!(third.replica(ProcId(1)).incarnation, 0);
    assert_eq!(third.final_value(ProcId(1), Loc(0)), Value::Int(42));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_lossy_session_still_converges() {
    // Batching stacked under the session layer on lossy links: the
    // piggybacked acks ride batch frames and retransmission masks every
    // drop.
    for rep in 0..3u64 {
        let mut sys = System::on(Threads::lossy(0.2, 900 + rep), 3, ProcModel::MIXED)
            .reliable(true)
            .batching(Some(mc_proto::BatchPolicy::default()))
            .record(true);
        for p in 0..3u32 {
            sys.spawn(move |ctx| {
                for i in 0..5i64 {
                    ctx.write(Loc(p), i);
                }
                ctx.barrier();
                for q in 0..3u32 {
                    assert_eq!(ctx.read_causal(Loc(q)), Value::Int(4), "rep {rep}: stale");
                }
            });
        }
        let outcome = sys.run().unwrap_or_else(|e| panic!("rep {rep}: {e}"));
        assert!(outcome.metrics.faults.dropped > 0, "rep {rep}: the shim dropped nothing");
        let h = outcome.history.expect("recorded");
        check::check_mixed(&h).unwrap_or_else(|e| panic!("rep {rep}: {e}"));
    }
}

#[test]
fn sharded_producer_consumer_live() {
    // The live twin of the simulator's sharded producer/consumer: locs
    // 0 and 1 land in shards 0 and 1, both active procs subscribe to
    // both, the third proc to neither — so it must receive nothing.
    for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
        for _ in 0..REPS {
            let sc = mc_proto::ShardConfig::new(2, vec![vec![0, 1], vec![0, 1], vec![]]);
            let mut sys = System::on(Threads::default(), 3, mode).sharding(Some(sc));
            let seen = Arc::new(Mutex::new(Value::Int(-1)));
            let seen2 = seen.clone();
            sys.spawn(|ctx| {
                ctx.write(Loc(0), 42);
                ctx.write(Loc(1), 1);
            });
            sys.spawn(move |ctx| {
                ctx.await_eq(Loc(1), Value::Int(1));
                *seen2.lock().unwrap() = ctx.read_causal(Loc(0));
            });
            sys.spawn(|_ctx| {});
            let outcome = sys.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(*seen.lock().unwrap(), Value::Int(42), "{mode}");
            // The uninterested third replica saw none of p0's writes.
            assert_eq!(outcome.replica(ProcId(2)).applied[ProcId(0)], 0, "{mode}");
            assert_eq!(outcome.final_value(ProcId(2), Loc(0)), Value::INITIAL, "{mode}");
        }
    }
}

#[test]
fn sharded_interest_cuts_live_traffic() {
    // Four procs, four shards. With full replication every write fans
    // out to 3 peers; with ring interest ({p, p+1}) each shard has two
    // subscribers, so each write travels to exactly one — the message
    // count must drop well below the full run's.
    let run = |interest: Vec<Vec<usize>>| {
        let sc = mc_proto::ShardConfig::new(4, interest);
        let mut sys = System::on(Threads::default(), 4, ProcModel::CAUSAL).sharding(Some(sc));
        for p in 0..4u32 {
            sys.spawn(move |ctx| {
                for i in 0..10i64 {
                    ctx.write(Loc(p), i);
                }
            });
        }
        sys.run().expect("clean run")
    };
    let full = run((0..4).map(|_| vec![0, 1, 2, 3]).collect());
    let ring = run((0..4).map(|p| vec![p, (p + 1) % 4]).collect());
    assert!(
        ring.messages * 2 <= full.messages,
        "ring interest {} vs full replication {} messages",
        ring.messages,
        full.messages
    );
}

#[test]
fn sharded_dynamic_first_touch_live() {
    // p1 statically subscribes only to shard 0; its await of loc 1
    // first-touches shard 1, subscribes through the directory, and the
    // backfill push delivers p0's earlier write.
    for _ in 0..REPS {
        let sc = mc_proto::ShardConfig::new(2, vec![vec![0, 1], vec![0]]).with_dynamic(true);
        let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL).sharding(Some(sc));
        sys.spawn(|ctx| {
            ctx.write(Loc(1), 9); // shard 1
            ctx.write(Loc(0), 1); // shard 0 flag
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(0), Value::Int(1));
            ctx.await_eq(Loc(1), Value::Int(9));
            assert_eq!(ctx.read_causal(Loc(1)), Value::Int(9));
        });
        let outcome = sys.run().unwrap();
        assert!(
            outcome.replica(ProcId(1)).shards().unwrap().subscribed(1),
            "the first touch must leave a durable subscription behind"
        );
    }
}

#[test]
fn sharded_batched_writes_coalesce_live() {
    // Batching stacked on sharding: interleaved writes to two shards
    // coalesce into per-shard chains, and the cross-shard dependency
    // triples still deliver causality on real threads.
    for _ in 0..REPS {
        let sc = mc_proto::ShardConfig::full(2, 2);
        let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
            .sharding(Some(sc))
            .batching(Some(mc_proto::BatchPolicy::default()));
        sys.spawn(|ctx| {
            for i in 0..8i64 {
                ctx.write(Loc((i % 4) as u32), i); // shards 0 and 1 interleaved
            }
            ctx.write(Loc(5), 99); // flag in shard 1
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(5), Value::Int(99));
            for (loc, want) in [(0u32, 4i64), (1, 5), (2, 6), (3, 7)] {
                assert_eq!(ctx.read_causal(Loc(loc)), Value::Int(want), "loc {loc} stale");
            }
        });
        sys.run().unwrap();
    }
}

#[test]
fn sharded_durable_cluster_recovers_across_restarts() {
    let dir = std::env::temp_dir().join(format!("mc-live-shard-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sc = || mc_proto::ShardConfig::new(2, vec![vec![0, 1], vec![0, 1]]);

    // First incarnation: a clean sharded run leaves durable per-shard
    // chains behind. `snapshot_every = 1` would compact eagerly in the
    // unsharded protocol; sharded replicas must stay log-only.
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
        .sharding(Some(sc()))
        .durability(mc_proto::DurabilityPolicy::new(1), &dir);
    sys.spawn(|ctx| {
        ctx.write(Loc(0), 42); // shard 0
        ctx.write(Loc(1), 1); // shard 1 flag
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(1), Value::Int(1));
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(42));
    });
    let first = sys.run().expect("first incarnation");
    assert!(first.wal.appends > 0, "durable sharded writes must hit the log");
    assert_eq!(first.wal.snapshots, 0, "sharded replicas are log-only");
    assert_eq!(first.wal.recoveries, 0);

    // Second incarnation from the same directory: both replicas replay
    // their WALs (own chains re-minted, remote chains re-ingested) and
    // still hold the pre-restart writes.
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
        .sharding(Some(sc()))
        .durability(mc_proto::DurabilityPolicy::new(1), &dir);
    sys.spawn(|ctx| {
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(42), "own durable write lost");
        ctx.write(Loc(2), 7); // shard 0
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(2), Value::Int(7));
        assert_eq!(ctx.read_causal(Loc(0)), Value::Int(42), "ingested durable write lost");
    });
    let second = sys.run().expect("second incarnation");
    assert_eq!(second.wal.recoveries, 2, "both replicas restart from disk");
    assert!(second.wal.replayed > 0, "sharded recovery replays the log");
    assert_eq!(second.replica(ProcId(0)).incarnation, 1);
    assert_eq!(second.replica(ProcId(1)).incarnation, 1);
    assert_eq!(second.final_value(ProcId(1), Loc(0)), Value::Int(42));

    // Third incarnation with replica 1's disk wiped: the fresh peer
    // re-fetches the shards it subscribes to through the per-shard
    // recovery answers of the reborn node 0.
    let _ = std::fs::remove_dir_all(dir.join("replica-1"));
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
        .sharding(Some(sc()))
        .durability(mc_proto::DurabilityPolicy::new(1), &dir);
    sys.spawn(|ctx| {
        ctx.write(Loc(3), 1); // shard 1
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(0), Value::Int(42));
        ctx.await_eq(Loc(2), Value::Int(7));
    });
    let third = sys.run().expect("third incarnation");
    assert_eq!(third.wal.recoveries, 1, "only replica 0 had state on disk");
    assert_eq!(third.final_value(ProcId(1), Loc(0)), Value::Int(42));
    assert_eq!(third.final_value(ProcId(1), Loc(2)), Value::Int(7));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_amortizes_live_fsyncs() {
    // Same program, per-write fsync vs group commit: the grouped run
    // must reach disk in fewer fsync calls — the amortization the
    // policy exists for. (Append counts vary run to run: consumer-side
    // ingest records depend on wall-clock batch flush timing.) Reads
    // and awaits are observation barriers, so nothing externalized is
    // ever staged when the program acts on it.
    let run = |gc: bool| {
        let dir = std::env::temp_dir().join(format!("mc-live-gc-{}-{}", gc, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
            .durability(mc_proto::DurabilityPolicy::new(1024).with_group_commit(gc), &dir)
            .batching(Some(mc_proto::BatchPolicy::default()));
        sys.spawn(|ctx| {
            for i in 0..8i64 {
                ctx.write(Loc(0), i);
            }
            ctx.write(Loc(1), 1);
        });
        sys.spawn(|ctx| {
            ctx.await_eq(Loc(1), Value::Int(1));
            assert_eq!(ctx.read_causal(Loc(0)), Value::Int(7));
        });
        let outcome = sys.run().expect("clean run");
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    };
    let per_write = run(false);
    let grouped = run(true);
    assert!(
        grouped.wal.fsyncs < per_write.wal.fsyncs,
        "group commit {} fsyncs vs per-write {}",
        grouped.wal.fsyncs,
        per_write.wal.fsyncs
    );
}

#[test]
fn durable_writes_between_compactions_sync_data_only() {
    // The shape of mcbench's `durable_session`: two processes, reliable
    // sessions, the default compaction cadence, own writes acked one
    // sync each and a peer read every eighth write. Each replica opens
    // its log with one full sync; after that the preallocated log never
    // grows, so no sync between two compactions flushes metadata.
    const WRITES: u32 = 2_000;
    const OWN: u32 = 16;
    let dir = std::env::temp_dir().join(format!("mc-live-prealloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sys = System::on(Threads::default(), 2, ProcModel::CAUSAL)
        .reliable(true)
        .durability(mc_proto::DurabilityPolicy::default(), &dir);
    for p in 0..2u32 {
        sys.spawn(move |ctx| {
            let q = 1 - p;
            for k in 0..WRITES {
                ctx.write(Loc(p * OWN + k % OWN), i64::from(k) + 1);
                if k % 8 == 7 {
                    ctx.read_pram(Loc(q * OWN + k % OWN));
                }
            }
            ctx.write(Loc(2 * OWN + p), 1);
            ctx.await_eq(Loc(2 * OWN + q), Value::Int(1));
        });
    }
    let out = sys.run().expect("clean run");
    assert!(out.wal.snapshots >= 2 * u64::from(WRITES) / 64, "compactions ran: {:?}", out.wal);
    assert!(out.wal.fsyncs > 2 * u64::from(WRITES), "every own write synced: {:?}", out.wal);
    assert_eq!(out.wal.full_syncs, 2, "one full sync per replica, at open: {:?}", out.wal);
    for p in 0..2 {
        let rdir = dir.join(format!("replica-{p}"));
        let (snapshot, _) = mc_proto::FileDisk::load(&rdir).expect("replica dir loads");
        let len = std::fs::metadata(rdir.join("wal.log")).expect("the log exists").len();
        let snapshot = snapshot.expect("a compaction committed").len();
        assert_eq!(
            len as usize,
            snapshot + mc_proto::durability::WAL_CHUNK,
            "replica-{p}'s log grew"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
