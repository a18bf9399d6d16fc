//! Kill-9 smoke test for the TCP runtime: one process of a live
//! multi-process cluster is SIGKILLed mid-write-storm and restarted,
//! while its peers keep running.
//!
//! This is the network twin of `mc-live`'s `recovery_smoke`, and it
//! exercises the one thing that harness cannot: *survivors* riding out
//! a peer's death — reconnect-with-backoff on the dead links, session
//! retransmission into the void, and the survivor-side epoch reset once
//! the reborn incarnation's `RecoverReq` arrives. The parent asserts:
//!
//! 1. the victim's on-disk state at the moment of death satisfies the
//!    WAL valid-prefix invariant, and some writes were durably acked;
//! 2. the restarted cluster re-converges: every process (the reborn
//!    victim included) runs to completion and exits cleanly, which
//!    requires every peer to observe every final value;
//! 3. no acked write was lost: the reborn victim's final own-write
//!    count covers the durable prefix plus the full re-run storm.
//!
//! The whole cycle runs under a hard wall-clock deadline — a hang (lost
//! frame, stuck epoch, dead reconnect) fails loudly rather than wedging
//! CI. Exit 0 and a final `NET SMOKE PASS` on success.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mc_live::{durable_own_writes, LiveCtx};
use mc_model::{Loc, ProcId, ProcModel, Value};
use mc_net::{run_cluster_node, NodeOpts};
use mc_proto::{DsmConfig, DurabilityPolicy};

const NPROCS: usize = 3;
/// The victim's storm: long enough (every write fsyncs) that SIGKILL
/// lands mid-storm.
const VICTIM_WRITES: u32 = 8_000;
/// The survivors finish their writes quickly and then block awaiting
/// the victim's final value — across its death and rebirth.
const PEER_WRITES: u32 = 200;
const VICTIM: usize = 1;
/// Hard deadline for the whole cycle.
const DEADLINE: Duration = Duration::from_secs(120);

fn cluster_cfg() -> DsmConfig {
    let mut cfg = DsmConfig::new(NPROCS, ProcModel::CAUSAL);
    cfg.reliable = true;
    cfg.durability = Some(DurabilityPolicy::new(64));
    cfg
}

fn writes_of(p: u32) -> u32 {
    if p as usize == VICTIM {
        VICTIM_WRITES
    } else {
        PEER_WRITES
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--node") => {
            let node: usize = args[1].parse().expect("--node I");
            let port: u16 = args[3].parse().expect("--port P");
            let dir = PathBuf::from(&args[5]);
            child(node, port, &dir);
        }
        Some(_) => {
            eprintln!("usage: net_smoke [--node I --port P --dir D]");
            std::process::exit(2);
        }
        None => parent(),
    }
}

/// One cluster node: the storm body for process nodes, the manager main
/// for the rest. The victim announces `storming` once its first writes
/// are durably acked, so the parent never kills an idle cluster.
fn child(node: usize, port: u16, dir: &Path) {
    let cfg = cluster_cfg();
    let opts = NodeOpts {
        node,
        cfg,
        base_port: port,
        timeout: Duration::from_secs(60),
        durability_dir: Some(dir.to_path_buf()),
    };
    let out = run_cluster_node(opts, move |ctx: &mut LiveCtx| {
        let p = node as u32;
        for i in 1..=writes_of(p) {
            ctx.write(Loc(p), i as i64);
            if node == VICTIM && i == 20 {
                println!("storming");
            }
        }
        for q in 0..NPROCS as u32 {
            if q != p {
                ctx.await_eq(Loc(q), Value::Int(writes_of(q) as i64));
            }
        }
    });
    if let Some(r) = &out.replica {
        println!("node {node} applied-own={} incarnation={}", r.applied[r.proc], r.incarnation);
    }
    std::process::exit(0);
}

fn spawn_node(exe: &Path, node: usize, port: u16, dir: &Path, piped: bool) -> Child {
    let mut cmd = Command::new(exe);
    cmd.arg("--node")
        .arg(node.to_string())
        .arg("--port")
        .arg(port.to_string())
        .arg("--dir")
        .arg(dir)
        .stdout(if piped { Stdio::piped() } else { Stdio::inherit() })
        .stderr(Stdio::inherit());
    cmd.spawn().unwrap_or_else(|e| panic!("spawn node {node}: {e}"))
}

/// Waits for `child` under the shared deadline; on overrun every child
/// is killed and the smoke test fails.
fn wait_deadline(label: &str, child: &mut Child, deadline: Instant, all: &mut [&mut Child]) {
    loop {
        match child.try_wait().expect("poll child") {
            Some(status) => {
                assert!(status.success(), "{label} exited with {status}");
                return;
            }
            None if Instant::now() > deadline => {
                eprintln!("net_smoke: deadline blown waiting for {label} — killing cluster");
                let _ = child.kill();
                for c in all.iter_mut() {
                    let _ = c.kill();
                }
                std::process::exit(1);
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn parent() {
    let deadline = Instant::now() + DEADLINE;
    let dir = std::env::temp_dir().join(format!("mc-net-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create smoke dir");
    // Below the kernel's ephemeral range (32768+): a redialling peer's
    // outbound source port must never steal a listener's address.
    let port = 21000 + (std::process::id() % 10000) as u16;
    let exe = std::env::current_exe().expect("own executable path");
    let nnodes = cluster_cfg().nnodes();

    let mut others: Vec<Child> = Vec::new();
    let mut victim = None;
    for node in 0..nnodes {
        if node == VICTIM {
            victim = Some(spawn_node(&exe, node, port, &dir, true));
        } else {
            others.push(spawn_node(&exe, node, port, &dir, false));
        }
    }
    let mut victim = victim.expect("victim spawned");

    // Kill only once the victim's storm is provably touching disk.
    let mut lines = std::io::BufReader::new(victim.stdout.take().expect("piped stdout")).lines();
    let greeting = lines.next().expect("victim greeting").expect("read greeting");
    assert_eq!(greeting.trim(), "storming", "unexpected victim greeting: {greeting:?}");
    std::thread::sleep(Duration::from_millis(150));
    victim.kill().expect("SIGKILL the victim");
    let status = victim.wait().expect("reap victim");
    println!("victim killed mid-storm ({status})");

    // The valid-prefix invariant at the moment of death, and the count
    // of durably acked own writes the rebirth must preserve.
    let durable_own = durable_own_writes(&dir, ProcId(VICTIM as u32), &cluster_cfg());
    assert!(durable_own > 0, "the storm never made it to disk — smoke test proves nothing");

    // Rebirth: same node id, same port (SO_REUSEADDR reclaims it), same
    // replica directory. The survivors have been retransmitting into the
    // void this whole time.
    let mut reborn = spawn_node(&exe, VICTIM, port, &dir, true);
    {
        let mut refs: Vec<&mut Child> = others.iter_mut().collect();
        wait_deadline("reborn victim", &mut reborn, deadline, &mut refs);
    }
    let out = reborn.stdout.take().expect("piped stdout");
    let mut applied_own = None;
    let mut incarnation = None;
    for line in std::io::BufReader::new(out).lines() {
        let line = line.expect("read reborn output");
        println!("reborn: {line}");
        if let Some(rest) = line.strip_prefix(&format!("node {VICTIM} applied-own=")) {
            let (a, inc) = rest.split_once(" incarnation=").expect("report format");
            applied_own = Some(a.parse::<u32>().expect("applied count"));
            incarnation = Some(inc.parse::<u32>().expect("incarnation"));
        }
    }
    let applied_own = applied_own.expect("reborn victim reported applied-own");
    let incarnation = incarnation.expect("reborn victim reported incarnation");

    let mut rest = std::mem::take(&mut others);
    for (i, c) in rest.iter_mut().enumerate() {
        let mut refs: Vec<&mut Child> = Vec::new();
        wait_deadline(&format!("survivor {i}"), c, deadline, &mut refs);
    }
    drop(rest);

    assert!(incarnation >= 1, "rebirth must bump the incarnation (got {incarnation})");
    assert!(
        applied_own >= durable_own + VICTIM_WRITES,
        "acked writes lost across rebirth: {durable_own} durable + {VICTIM_WRITES} re-run \
         > {applied_own} applied"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("NET SMOKE PASS");
}
