//! # mc-net — the mixed-consistency protocols over real TCP
//!
//! The third executor of the reproduction, completing the ladder:
//! deterministic simulation (`mc-sim`), real threads over channels
//! (`mc-live`), and — here — real processes over TCP ([`Tcp`]), a
//! blocking writer and a blocking reader thread per directed link.
//! **The protocol state machines and the node mains are the same
//! code**: `mc-net` plugs a [`TcpTransport`] into `mc-live`'s
//! [`Transport`](mc_live::Transport) seam and feeds decoded frames into
//! the identical `run_proc_node` loop and `ManagerSlot`, so a green
//! run here demonstrates the protocols survive genuine networking —
//! partial writes, reconnects, kernel buffering — not just genuine
//! concurrency.
//!
//! The wire format is `mc_proto::wire`: length-prefixed binary frames
//! whose encoded size is, byte for byte, the `Msg::wire_bytes` the
//! analytical model charges. The hot paths are zero-copy in steady
//! state — frames encode into per-link reusable arenas and decode as
//! views of per-connection receive buffers (see `transport`).
//!
//! ```no_run
//! use mc_net::Tcp;
//! use mixed_consistency::{Loc, Mode, System, Value};
//!
//! let mut sys = System::on(Tcp, 2, Mode::Mixed).record(true);
//! sys.spawn(|ctx| {
//!     ctx.write(Loc(0), 42);
//!     ctx.write(Loc(1), 1);
//! });
//! sys.spawn(|ctx| {
//!     ctx.await_eq(Loc(1), Value::Int(1));
//!     assert_eq!(ctx.read_pram(Loc(0)), Value::Int(42));
//! });
//! let outcome = sys.run().expect("cluster runs");
//! outcome.verify().expect("TCP, still mixed consistent");
//! ```

#![warn(missing_docs)]

pub mod cluster;
mod legacy;
mod placement;
pub mod transport;
pub mod workload;

pub use cluster::{run_cluster_node, NodeOpts, NodeOutcome, Tcp};
#[doc(hidden)]
pub use legacy::*;
pub use transport::{bind_reusable, spawn_listener, Inbound, TcpTransport, TcpTransportBuilder};
pub use workload::Workload;
