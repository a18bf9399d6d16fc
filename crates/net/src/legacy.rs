//! The old name `benchmark/` imports; its first change deletes it.
#![allow(clippy::new_ret_no_self)] // the old name's constructor builds the new type

use mc_proto::Mode;
use mixed_consistency::System;

use crate::Tcp;

/// `System<Tcp>`'s old name, as a constructor (see the legacy module of mc-live).
pub struct NetSystem;

impl NetSystem {
    /// `System::on(Tcp, nprocs, mode)`.
    pub fn new(nprocs: usize, mode: Mode) -> System<Tcp> {
        System::on(Tcp, nprocs, mode)
    }
}
