//! The old surface `benchmark/` calls; its first change deletes this,
//! `mc_live::legacy` and `mc_net::legacy`.

pub use mc_proto::Mode;

use crate::system::{System, WallClock};

impl<E: WallClock> System<E> {
    /// Does nothing: no executor has a worker pool to size.
    #[doc(hidden)]
    pub fn workers(self, _workers: usize) -> Self {
        self
    }
}
