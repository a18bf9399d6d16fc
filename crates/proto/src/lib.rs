//! # mc-proto — the DSM protocols of the mixed-consistency paper
//!
//! Implementations of the memory systems described (and implied) by
//! *Agrawal, Choy, Leong, Singh, PODC '94*. The per-process protocol is
//! one executor-independent state machine ([`node`]); [`Dsm`] drives it
//! as an [`mc_sim::Protocol`] over the deterministic simulator, and the
//! `mc-live` / `mc-net` executors drive the same code on threads and TCP:
//!
//! * [`Mode::Pram`] — pipelined RAM: FIFO update broadcast, local reads,
//!   no vector timestamps on the wire;
//! * [`Mode::Causal`] — causal memory: vector-timestamped updates applied
//!   in causal order;
//! * [`Mode::Mixed`] — the paper's contribution: one substrate, per-read
//!   labels (causal reads wait for the reader's causal cut, PRAM reads
//!   return the most recent local value);
//! * [`Mode::Sc`] — the sequentially consistent baseline: a central
//!   memory server, every access a blocking RPC.
//!
//! plus the synchronization subsystem of Sections 3.1 and 6: a read/write
//! **lock manager** with the three propagation variants
//! ([`LockPropagation::Eager`], [`LockPropagation::Lazy`],
//! [`LockPropagation::DemandDriven`]), a counting **barrier manager**, and
//! **await** operations, and the commutative **counter objects** of
//! Section 5.3.
//!
//! The user-facing API lives in the `mixed-consistency` crate; this crate
//! is the protocol engine.

#![warn(missing_docs)]

pub mod config;
pub mod ctx;
pub mod dsm;
pub mod durability;
pub mod manager;
pub mod msg;
pub mod node;
pub mod replica;
pub mod session;
pub mod wire;

pub use config::{BatchPolicy, DsmConfig, LockPropagation, Mode, ShardConfig};
pub use ctx::{Driver, MemCtx};
pub use dsm::Dsm;
pub use durability::{
    crc32, decode_wal, DurabilityPolicy, FileDisk, MemDisk, Snapshot, SnapshotError, WalRecord,
    WalTail,
};
pub use manager::Manager;
pub use msg::{BatchEntry, GrantInfo, Msg, UpdatePayload};
pub use node::{Blocked, ManagerNode, NodeIo, ProcNode, Req, Resp};
pub use replica::{Replica, ShardState};
pub use session::{LinkReceiver, LinkSender, Session, SessionConfig};
pub use wire::{
    decode_frame, encode_control, encode_frame, next_frame, Control, Frame, WireError,
    CONTROL_TAG_BASE, FRAME_HEADER,
};
