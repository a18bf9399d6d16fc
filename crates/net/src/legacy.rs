//! The old names `benchmark/` imports; its first change deletes them.
//!
//! `benchmark/src/layers.rs` builds its `Mesh` with its runtime's
//! `Handle`, which [`spawn_listener`] and [`TcpTransportBuilder::link`]
//! take and ignore: no [`Links`] owns their threads. A `Mesh` drops its
//! runtime before its transport, so nothing here may join a writer
//! whose queue is still open, and nothing does. Once the transport is
//! gone, each writer drains its queue, closes its connection and ends,
//! and each reader ends at that EOF. What outlives a `Mesh` is its
//! accept loops, blocked in `accept` with their ports open until the
//! process exits.
#![allow(clippy::new_ret_no_self)] // the old name's constructor builds the new type

use std::net::{SocketAddr, TcpListener};

use mc_live::NodeId;
use mc_proto::Mode;
use mixed_consistency::System;

use crate::{listen, Inbound, Links, Tcp, TcpTransportBuilder};

/// `System<Tcp>`'s old name, as a constructor (see the legacy module of mc-live).
pub struct NetSystem;

impl NetSystem {
    /// `System::on(Tcp, nprocs, mode)`.
    pub fn new(nprocs: usize, mode: Mode) -> System<Tcp> {
        System::on(Tcp, nprocs, mode)
    }
}

/// [`listen`] with no manager, on a thread nobody joins.
pub fn spawn_listener<H>(listener: TcpListener, inbound: Inbound, _handle: &H) {
    listen(listener, inbound, None, &Links::detached());
}

impl TcpTransportBuilder {
    /// [`dial`](TcpTransportBuilder::dial) with a writer nobody joins.
    pub fn link<H>(&mut self, from: NodeId, to: NodeId, addr: SocketAddr, _handle: &H) {
        self.dial(from, to, addr, &Links::detached());
    }
}
