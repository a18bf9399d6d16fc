//! # mc-sim — a deterministic discrete-event simulator for message-passing
//! distributed systems
//!
//! This crate is the substrate on which the mixed-consistency DSM protocols
//! run (replacing the workstation LAN + Maya platform the paper used). It
//! provides:
//!
//! * **virtual time** ([`SimTime`]) and a latency model
//!   ([`LatencyModel`]): `base + per_byte·size + jitter`;
//! * a **network** of [`NodeId`] nodes with per-link FIFO delivery (the
//!   paper's channel assumption) and a composable [`FaultPlan`] that
//!   attacks it: seeded message drops, duplicates, reordering, timed
//!   partitions, and node crash/restart windows;
//! * **protocol timers** ([`NetCtx::set_timer`] /
//!   [`Protocol::on_timer`]) so protocols can retransmit and recover;
//! * a **kernel** ([`Kernel`]) that runs user closures as cooperative
//!   processes, each a fiber on the caller's thread (a stack of its own,
//!   switched to in user space; a thread per fiber off x86_64 Linux), and
//!   exactly one running at a time: every memory/synchronization
//!   operation is a syscall that the process yields to the kernel's
//!   loop, which steps the schedule and resumes whichever process it
//!   names. Executions are **bit-for-bit reproducible** from a seed
//!   while different seeds explore different interleavings;
//! * exact **metrics** ([`Metrics`]): virtual completion time, message and
//!   byte counts per message kind, blocking stalls — the quantities that
//!   differentiate PRAM, causal, and sequentially consistent memory.
//!
//! Protocols implement the [`Protocol`] trait; see `mc-proto` for the DSM
//! protocols of the paper and the crate-level example on [`Kernel`] for a
//! minimal one.

#![warn(missing_docs)]

mod fiber;
mod kernel;
mod metrics;
mod net;
pub mod schedule;
mod time;
pub mod trace;

#[doc(hidden)]
pub use fiber::live_fiber_stacks;
pub use kernel::{Kernel, Poll, ProcCtx, ProcToken, Protocol, RunReport, SimError};
pub use metrics::{DurabilityStats, FaultStats, Histogram, KindStats, Metrics, ProcStats};
pub use net::{Crash, FaultBudget, FaultPlan, LatencyModel, NetCtx, NodeId, Partition, SimConfig};
pub use schedule::{
    ActionId, DecisionTrace, RandomSchedule, ReplaySchedule, Schedule, StepInfo, StepKind, Touch,
};
pub use time::SimTime;
pub use trace::{TraceEvent, Tracer};
