//! The old builder surface `benchmark/` compiles against, run in the
//! shapes it uses: the `run_on!` chain of `benchmark/src/live.rs`
//! (`run_segment`) on `LiveSystem` and `NetSystem`, the `LiveOutcome`
//! it reads, and the simulated system of `benchmark/src/simcheck.rs`.
//! `benchmark/` is a workspace of its own, so without this a break in
//! the `legacy` shims would show only when the benchmark is built.

use std::path::Path;
use std::time::Duration;

use mc_live::{LiveCtx, LiveError, LiveOutcome, LiveSystem};
use mc_model::{History, Loc, ProcId, Value};
use mc_net::NetSystem;
use mc_proto::{BatchPolicy, DurabilityPolicy, Mode};
use mixed_consistency::{Ctx, DurabilityStats, Metrics, System};

/// One `run_segment`-shaped run: two processes each write their own
/// location and await the other's.
fn segment(tcp: bool, durability: Option<DurabilityPolicy>, dir: &Path) -> LiveOutcome {
    let bodies = (0..2u32).map(|p| {
        move |ctx: &mut LiveCtx| {
            ctx.write(Loc(p), p as i64 + 1);
            ctx.await_eq(Loc(1 - p), Value::Int(2 - p as i64));
        }
    });
    macro_rules! run_on {
        ($system:expr) => {{
            let mut sys = $system
                .reliable(true)
                .batching(Some(BatchPolicy::default()))
                .locations(2)
                .record(true)
                .timeout(Duration::from_secs(20));
            if let Some(policy) = durability {
                sys = sys.durability(policy, dir);
            }
            bodies.for_each(|b| {
                sys.spawn(b);
            });
            sys.run()
        }};
    }
    let outcome: Result<LiveOutcome, LiveError> = if tcp {
        run_on!(NetSystem::new(2, Mode::Causal).workers(2))
    } else {
        run_on!(LiveSystem::new(2, Mode::Causal))
    };
    outcome.unwrap_or_else(|e| panic!("tcp={tcp}: {e}"))
}

#[test]
fn the_wall_clock_aliases_run_the_benchmark_chain() {
    let dir = std::env::temp_dir().join(format!("mc-legacy-surface-{}", std::process::id()));
    for tcp in [false, true] {
        for durability in [None, Some(DurabilityPolicy::new(16))] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut outcome = segment(tcp, durability, &dir);
            assert!(outcome.messages > 0 && outcome.bytes > 0, "tcp={tcp}");
            let wal: DurabilityStats = outcome.wal;
            assert_eq!(wal.appends > 0, durability.is_some(), "tcp={tcp}: {wal:?}");
            for p in 0..2 {
                assert_eq!(outcome.final_value(ProcId(p), Loc(0)), Value::Int(1));
                assert_eq!(outcome.final_value(ProcId(p), Loc(1)), Value::Int(2));
            }
            let history: History = outcome.history.take().expect("recorded");
            assert_eq!(history.len(), 4, "tcp={tcp}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn system(seed: u64, record: bool) -> System {
    System::new(2, Mode::Mixed).seed(seed).record(record)
}

#[test]
fn the_simulated_system_runs_the_benchmark_shape() {
    let mut sys = system(7, true);
    for p in 0..2u32 {
        sys.spawn(move |ctx: &mut Ctx<'_>| {
            ctx.write(Loc(p), 1);
            ctx.read_pram(Loc(1 - p));
        });
    }
    let out = sys.run().expect("a program of reads and writes runs to completion");
    let (metrics, history): (Metrics, Option<History>) = (out.metrics, out.history);
    assert!(metrics.messages > 0);
    assert_eq!(history.expect("recorded").len(), 4);
}
