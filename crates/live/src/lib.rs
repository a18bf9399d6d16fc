//! # mc-live — the mixed-consistency protocols on real threads
//!
//! The deterministic simulator (`mc-sim`) is the primary test vehicle; this
//! crate is the *deployment-shaped* executor, [`Threads`]: every process is
//! an OS thread with one inbox, an in-process channel (`compat/crossbeam`,
//! FIFO per sender — the paper's channel assumption), and a manager
//! shard runs on whichever thread sends it a message ([`ManagerSlot`]).
//! An operation that must wait for a message parks: it probes its inbox
//! for a few tens of microseconds while awake, then sleeps on it
//! ([`ParkStats`](mixed_consistency::ParkStats) counts which of the two
//! answered). [`Threads::lossy`] revokes the reliability half of that
//! assumption (seeded, deterministic per-message drops) and
//! `System::reliable` earns it back with the same `mc_proto::session`
//! layer the simulator uses — retransmission driven by wall-clock ticks
//! instead of virtual timers.
//! **The protocol state machines are the exact same types** —
//! [`mc_proto::Replica`] and [`mc_proto::Manager`] — so a green run here
//! demonstrates the protocols survive genuine concurrency, not just
//! simulated interleavings.
//!
//! Executions still record checkable histories: the recorder's mutex
//! order is consistent with the message causality (a lock is recorded
//! after its grant arrives, which is after the previous holder recorded
//! its unlock), so the derived lock epochs and barrier rounds are valid
//! and [`Outcome::verify`](mixed_consistency::Outcome::verify) applies
//! unchanged — on real-thread runs.
//!
//! ```
//! use mc_live::Threads;
//! use mixed_consistency::{Loc, ProcModel, System, Value};
//!
//! let mut sys = System::on(Threads::default(), 2, ProcModel::MIXED).record(true);
//! sys.spawn(|ctx| {
//!     ctx.write(Loc(0), 42);
//!     ctx.write(Loc(1), 1);
//! });
//! sys.spawn(|ctx| {
//!     ctx.await_eq(Loc(1), Value::Int(1));
//!     assert_eq!(ctx.read_pram(Loc(0)), Value::Int(42));
//! });
//! let outcome = sys.run()?;
//! outcome.verify().expect("real threads, still mixed consistent");
//! # Ok::<(), mixed_consistency::RunError>(())
//! ```

#![warn(missing_docs)]

mod legacy;
mod system;

#[doc(hidden)]
pub use legacy::*;
pub use system::{
    durable_own_writes, run_nodes, run_proc_node, ChannelTransport, LiveCtx, LiveDriver,
    ManagerSlot, Net, NodeConfig, NodeId, Threads, Transport, WalCounters, Wire,
};
