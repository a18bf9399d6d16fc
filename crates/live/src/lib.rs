//! # mc-live — the mixed-consistency protocols on real threads
//!
//! The deterministic simulator (`mc-sim`) is the primary test vehicle; this
//! crate is the *deployment-shaped* executor: every process is an OS
//! thread with one inbox, an in-process channel (`compat/crossbeam`,
//! FIFO per sender — the paper's channel assumption), and a manager
//! shard runs on whichever thread sends it a message ([`ManagerSlot`]).
//! An operation that must wait for a message parks: it probes its inbox
//! for a few tens of microseconds while awake, then sleeps on it
//! ([`ParkStats`] counts which of the two answered).
//! [`LiveSystem::lossy`] revokes the reliability half of that assumption
//! (seeded, deterministic per-message drops) and [`LiveSystem::reliable`]
//! earns it back with the same `mc_proto::session` layer the simulator
//! uses — retransmission driven by wall-clock ticks instead of virtual
//! timers.
//! **The protocol state machines are the exact same types** —
//! [`mc_proto::Replica`] and [`mc_proto::Manager`] — so a green run here
//! demonstrates the protocols survive genuine concurrency, not just
//! simulated interleavings.
//!
//! Executions still record checkable histories: the recorder's mutex
//! order is consistent with the message causality (a lock is recorded
//! after its grant arrives, which is after the previous holder recorded
//! its unlock), so the derived lock epochs and barrier rounds are valid
//! and the `mc-model` checkers apply unchanged — on real-thread runs.
//!
//! ```
//! use mc_model::{check, Loc, Value};
//! use mc_live::LiveSystem;
//! use mc_proto::Mode;
//!
//! let mut sys = LiveSystem::new(2, Mode::Mixed).record(true);
//! sys.spawn(|ctx| {
//!     ctx.write(Loc(0), 42);
//!     ctx.write(Loc(1), 1);
//! });
//! sys.spawn(|ctx| {
//!     ctx.await_eq(Loc(1), Value::Int(1));
//!     assert_eq!(ctx.read_pram(Loc(0)), Value::Int(42));
//! });
//! let outcome = sys.run()?;
//! check::check_mixed(&outcome.history.unwrap()).expect("real threads, still mixed consistent");
//! # Ok::<(), mc_live::LiveError>(())
//! ```

#![warn(missing_docs)]

mod system;

pub use system::{
    run_proc_node, ChannelTransport, Cluster, LiveCtx, LiveDriver, LiveError, LiveOutcome,
    LiveSystem, ManagerSlot, Net, NodeConfig, NodeId, ParkStats, Transport, WalCounters, Wire,
};
