//! Canonical cluster workloads, shared by the `mc-cluster` binary, the
//! kill-smoke harness, and the saturation benchmarks.
//!
//! Every workload body *awaits the convergence it claims* before
//! returning: the coordinator broadcasts shutdown once all bodies have
//! finished, so anything a body did not wait for is not guaranteed to
//! have arrived anywhere.

use mc_model::{Loc, Value};
use mc_proto::{Driver, MemCtx};

/// A named per-process program over `nprocs` processes.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// Each process writes `writes` increasing values to its own
    /// location, then awaits its ring successor's last value — the same
    /// shape as the benchmark suite's ring workload.
    Ring {
        /// Writes per process.
        writes: u32,
    },
    /// Each process writes `writes` increasing values to its own
    /// location, then awaits *every* peer's last value (all-to-all
    /// convergence — the shape the kill-smoke harness storms with).
    Storm {
        /// Writes per process.
        writes: u32,
    },
}

impl Workload {
    /// Parses `ring:N` / `storm:N`.
    ///
    /// # Errors
    ///
    /// A usage string for anything else.
    pub fn parse(s: &str) -> Result<Workload, String> {
        let (name, n) = s.split_once(':').ok_or("workload must be NAME:WRITES")?;
        let writes: u32 = n.parse().map_err(|_| format!("bad write count {n:?}"))?;
        match name {
            "ring" => Ok(Workload::Ring { writes }),
            "storm" => Ok(Workload::Storm { writes }),
            other => Err(format!("unknown workload {other:?} (ring|storm)")),
        }
    }

    /// Runs the body of process `p` of `nprocs` on any executor's context.
    pub fn run<D: Driver>(self, ctx: &mut MemCtx<D>, p: u32, nprocs: usize) {
        match self {
            Workload::Ring { writes } => {
                for i in 1..=writes {
                    ctx.write(Loc(p), i as i64);
                }
                let next = (p + 1) % nprocs as u32;
                ctx.await_eq(Loc(next), Value::Int(writes as i64));
            }
            Workload::Storm { writes } => {
                for i in 1..=writes {
                    ctx.write(Loc(p), i as i64);
                }
                for q in 0..nprocs as u32 {
                    if q != p {
                        ctx.await_eq(Loc(q), Value::Int(writes as i64));
                    }
                }
            }
        }
    }
}
