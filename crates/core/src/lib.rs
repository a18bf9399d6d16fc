//! # mixed-consistency
//!
//! A from-scratch reproduction of **"Mixed Consistency: A Model for
//! Parallel Programming"** (Agrawal, Choy, Leong, Singh — PODC 1994): a
//! distributed-shared-memory programming model combining **causal memory**
//! and **PRAM** reads with explicit **read/write locks**, **barriers**, and
//! **await** synchronization.
//!
//! The crate ties together three layers:
//!
//! * [`mc_model`] (re-exported as [`model`]) — the formal model:
//!   histories, the causality relation, and executable checkers for
//!   Definitions 1–5, Theorem 1 and Corollaries 1–2;
//! * [`mc_sim`] — a deterministic discrete-event simulator (virtual time,
//!   FIFO links, seeded schedules);
//! * [`mc_proto`] — the DSM protocols: PRAM, causal, mixed, and a
//!   sequentially consistent central-server baseline, plus the lock
//!   manager (eager / lazy / demand-driven propagation), barrier manager,
//!   awaits, and counter objects.
//!
//! [`System<E>`] runs a program on an [`Executor`]: the simulator
//! ([`Sim`], the default) here, real threads (`mc_live::Threads`) and
//! loopback TCP (`mc_net::Tcp`) in their crates. Every run ends in the
//! same [`Outcome`], and [`Outcome::verify`] judges it.
//!
//! # Quick start
//!
//! ```
//! use mixed_consistency::{check, Loc, Mode, System, Value};
//!
//! // Two processes on mixed-consistency memory: a producer/consumer
//! // handshake through an await (Section 3.1.3 of the paper).
//! let mut sys = System::new(2, Mode::Mixed).record(true);
//! sys.spawn(|ctx| {
//!     ctx.write(Loc(0), 42);   // data
//!     ctx.write(Loc(1), 1);    // flag
//! });
//! sys.spawn(|ctx| {
//!     ctx.await_eq(Loc(1), 1);
//!     assert_eq!(ctx.read_pram(Loc(0)), Value::Int(42));
//! });
//!
//! let outcome = sys.run()?;
//! println!("virtual time: {}", outcome.metrics.finish_time);
//!
//! // Every execution yields a history checkable against the paper's
//! // definitions:
//! let history = outcome.history.expect("recording was enabled");
//! check::check_mixed(&history).expect("Definition 4 holds");
//! # Ok::<(), mixed_consistency::RunError>(())
//! ```
//!
//! # Choosing read labels
//!
//! * [`MemCtx::read_causal`] — observes everything causally before it
//!   (program order ∪ reads-from ∪ synchronization order, transitively);
//! * [`MemCtx::read_pram`] — cheaper: observes per-writer FIFO order and
//!   *direct* synchronization predecessors only.
//!
//! Corollary 1 (entry-consistent programs + causal reads) and Corollary 2
//! (barrier phase programs + PRAM reads) identify when the weak labels are
//! observationally sequentially consistent; both conditions have dynamic
//! checkers in [`model::programs`].

#![warn(missing_docs)]

pub mod explore;
mod legacy;
pub mod progspec;
pub mod repro;
mod system;
mod vars;

pub use progspec::{ProgSpec, SpecOp};
pub use repro::Repro;
pub use system::{
    Ctx, Executor, Outcome, ParkStats, RunError, Sim, SimDriver, System, VerifyError, WallClock,
};
pub use vars::{VarArray, VarMatrix, VarSpace};

/// The formal model (histories, causality, checkers), re-exported.
pub use mc_model as model;

pub use mc_model::{
    check, commute, litmus, programs, sc, trace, viz, BarrierId, History, Loc, LockId, LockMode,
    ModelAssignment, ModelSpec, OpKind, ProcId, ProcModel, ReadLabel, Value, WriteId,
};
pub use mc_proto::{
    BatchPolicy, CrashFs, Driver, DsmConfig, DurabilityPolicy, LockPropagation, MemCtx, Mode,
    SessionConfig, ShardConfig,
};
pub use mc_sim::{
    ActionId, Crash, DecisionTrace, DurabilityStats, FaultBudget, FaultPlan, FaultStats, Histogram,
    LatencyModel, Metrics, NodeId, Partition, SimConfig, SimError, SimTime, StepInfo, StepKind,
    Touch, TraceEvent, Tracer,
};
