//! Kill-9 recovery smoke test: the live executor's durability claim under
//! a real crash, not a simulated one.
//!
//! The parent re-executes itself with `--child DIR [--group-commit]`; the
//! child runs a three-process write storm with durability enabled and is
//! `SIGKILL`ed mid-storm — no destructors, no final fsync, whatever the
//! page cache holds is what survives. The parent then:
//!
//! 1. loads every `replica-{i}` directory and checks the invariant the
//!    WAL format promises: the snapshot decodes, and the log is a valid
//!    prefix (a torn final frame is tolerated and truncated by recovery;
//!    a corrupt interior frame fails the smoke test);
//! 2. replays each replica to count its durably acked own writes;
//! 3. boots a fresh cluster from the same directories and asserts every
//!    one of those acked writes survived into the new incarnation —
//!    `applied[i][i] >= durable_own[i]` — the live analogue of the
//!    DPOR-checked "no acknowledged write is ever lost".
//!
//! The cycle runs twice: once with the default per-write fsync, once
//! with group commit plus update batching (`--group-commit`), where the
//! fsync is deferred to the first outgoing send. The durable-prefix
//! invariant is identical in both: a write any peer could have observed
//! is on disk, so replaying the log can never lose an acked write.
//!
//! Exit code 0 and a final `RECOVERY SMOKE PASS` line on success; any
//! assertion failure or corrupt frame aborts non-zero. CI runs this as
//! the recovery-smoke job.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use mc_live::{durable_own_writes, Threads};
use mc_model::{Loc, ProcId, ProcModel};
use mc_proto::{BatchPolicy, DsmConfig, DurabilityPolicy};
use mixed_consistency::System;

const NPROCS: usize = 3;
/// Far more writes than fit before the kill lands: the storm must still
/// be running when SIGKILL arrives (each write fsyncs, so the storm is
/// disk-bound and slow by design).
const STORM_WRITES: i64 = 50_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child") => {
            let dir = PathBuf::from(args.get(1).expect("--child needs a directory"));
            let group_commit = args.iter().any(|a| a == "--group-commit");
            child(&dir, group_commit);
        }
        Some(_) => {
            eprintln!("usage: recovery_smoke [--child DIR [--group-commit]]");
            std::process::exit(2);
        }
        None => {
            cycle("per-write fsync", false);
            cycle("group commit", true);
            println!("RECOVERY SMOKE PASS");
        }
    }
}

/// The victim: an ordinary durable cluster hammering the log until it is
/// killed from outside. Process 0 announces `storming` only after its
/// first writes have been durably acked, so the parent never kills a
/// cluster that has not yet touched disk.
fn child(dir: &Path, group_commit: bool) {
    let policy = DurabilityPolicy::new(32).with_group_commit(group_commit);
    let mut sys = System::on(Threads::default(), NPROCS, ProcModel::CAUSAL).durability(policy, dir);
    if group_commit {
        // Group commit's point is amortizing fsyncs over deferred sends,
        // so pair it with the batching it is designed for.
        sys = sys.batching(Some(BatchPolicy::default()));
    }
    for p in 0..NPROCS as u32 {
        sys.spawn(move |ctx| {
            for i in 0..STORM_WRITES {
                ctx.write(Loc(p), i);
                if p == 0 && i == 20 {
                    println!("storming");
                }
            }
        });
    }
    sys.run().expect("storm run (should be killed before finishing)");
}

/// One full kill-and-recover cycle under the given durability variant.
fn cycle(label: &str, group_commit: bool) {
    println!("--- cycle: {label} ---");
    let dir = std::env::temp_dir().join(format!(
        "mc-recovery-smoke-{}-{}",
        std::process::id(),
        group_commit as u8
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create smoke dir");

    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(&exe);
    cmd.arg("--child").arg(&dir);
    if group_commit {
        cmd.arg("--group-commit");
    }
    let mut victim = cmd.stdout(Stdio::piped()).spawn().expect("spawn child");

    let mut greeting = String::new();
    std::io::BufReader::new(victim.stdout.take().expect("piped stdout"))
        .read_line(&mut greeting)
        .expect("child greeting");
    assert_eq!(greeting.trim(), "storming", "unexpected child greeting: {greeting:?}");

    // Let the storm build up a log, then kill -9: no shutdown path runs.
    std::thread::sleep(Duration::from_millis(250));
    victim.kill().expect("SIGKILL the storm");
    let status = victim.wait().expect("reap child");
    println!("killed mid-storm ({status})");

    // Phase 1+2: every replica directory must hold a decodable snapshot
    // (if any) and a valid-prefix WAL; count the durably acked own
    // writes each replica had at the moment of death.
    let cfg = DsmConfig::new(NPROCS, ProcModel::CAUSAL);
    let durable_own: Vec<u32> =
        (0..NPROCS as u32).map(|p| durable_own_writes(&dir, ProcId(p), &cfg)).collect();
    assert!(
        durable_own.iter().any(|&d| d > 0),
        "the storm never made it to disk — smoke test proves nothing"
    );

    // Phase 3: a fresh cluster reborn from the same directories. Each
    // process performs one more write so the run exercises the full
    // recover-then-continue path (RecoverReq rounds included). The
    // reboot always uses per-write fsync: recovery durability does not
    // depend on the policy the victim died under.
    let mut sys = System::on(Threads::default(), NPROCS, ProcModel::CAUSAL)
        .durability(DurabilityPolicy::new(32), &dir);
    for p in 0..NPROCS as u32 {
        sys.spawn(move |ctx| {
            ctx.write(Loc(NPROCS as u32 + p), 1);
        });
    }
    let outcome = sys.run().expect("recovered cluster must run");
    println!(
        "recovered: recoveries={} replayed={} snapshots={}",
        outcome.wal.recoveries, outcome.wal.replayed, outcome.wal.snapshots
    );
    for (p, &durable) in durable_own.iter().enumerate() {
        let proc = ProcId(p as u32);
        let applied = outcome.replica(proc).applied[proc];
        assert!(
            applied > durable, // strictly >: the post-recovery write above
            "replica-{p}: acked writes lost — {durable} were durable, \
             only {applied} applied after recovery"
        );
        assert!(outcome.replica(proc).incarnation >= 1, "replica-{p} must bump its incarnation");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
