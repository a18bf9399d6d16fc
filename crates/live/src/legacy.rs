//! Old names `benchmark/` imports; its first change deletes them.
#![allow(clippy::new_ret_no_self)] // the old name's constructor builds the new type

use mc_proto::Mode;
use mixed_consistency::{Outcome, RunError, System};

use crate::Threads;

/// `System<Threads>`'s old name, as a constructor: a `new` on
/// `System<Threads>` would make the simulator's `System::new` ambiguous.
pub struct LiveSystem;

impl LiveSystem {
    /// `System::on(Threads::default(), nprocs, mode)`.
    pub fn new(nprocs: usize, mode: Mode) -> System<Threads> {
        System::on(Threads::default(), nprocs, mode)
    }
}

/// [`Outcome`]'s old name.
pub type LiveOutcome = Outcome;
/// [`RunError`]'s old name.
pub type LiveError = RunError;
