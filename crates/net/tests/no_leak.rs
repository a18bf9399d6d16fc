//! Teardown is complete: after a `System<Tcp>` run returns, no link
//! thread, socket or listening port of it is left in the process.
//!
//! One test in a binary of its own (CI also passes `--test-threads=1`):
//! the thread and descriptor counts it compares are process-wide.
#![cfg(target_os = "linux")]

use std::collections::HashSet;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mc_model::{Loc, ProcModel, Value};
use mc_net::Tcp;
use mixed_consistency::System;

const RUNS: usize = 50;

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("a count")
}

/// Inodes of the sockets this process holds open.
fn socket_inodes() -> HashSet<u64> {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter_map(|target| {
            target.to_str()?.strip_prefix("socket:[")?.strip_suffix(']')?.parse().ok()
        })
        .collect()
}

/// Loopback ports this process is listening on.
fn listening_ports() -> Vec<u16> {
    let mine = socket_inodes();
    let table = std::fs::read_to_string("/proc/self/net/tcp").expect("procfs");
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let (local, state, inode) = (cols.get(1)?, cols.get(3)?, cols.get(9)?);
            let listening = *state == "0A" && mine.contains(&inode.parse().ok()?);
            let port = u16::from_str_radix(local.rsplit(':').next()?, 16).ok()?;
            listening.then_some(port)
        })
        .collect()
}

/// A joined thread leaves the kernel's count a moment after its joiner
/// is released, so the comparison allows it that moment.
fn settles_to(what: &str, want: usize, now: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while now() != want {
        assert!(Instant::now() < deadline, "{what}: {} at the end, {want} at the start", now());
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn fifty_clusters_leave_no_thread_socket_or_port_behind() {
    let threads = thread_count();
    let sockets = socket_inodes().len();
    for run in 0..RUNS {
        let (ports_tx, ports_rx) = mpsc::channel();
        let mut sys = System::on(Tcp, 3, ProcModel::CAUSAL);
        for p in 0..3u32 {
            let ports_tx = ports_tx.clone();
            sys.spawn(move |ctx| {
                ctx.write(Loc(p), run as i64 + 1);
                ctx.await_eq(Loc((p + 1) % 3), Value::Int(run as i64 + 1));
                if p == 0 {
                    ports_tx.send(listening_ports()).expect("test alive");
                }
            });
        }
        sys.run().expect("cluster runs");
        let ports = ports_rx.recv().expect("process 0 reports");
        assert_eq!(ports.len(), 4, "three process nodes and one manager node listen");
        for port in ports {
            std::net::TcpListener::bind(("127.0.0.1", port))
                .unwrap_or_else(|e| panic!("run {run}: port {port} still held: {e}"));
        }
    }
    settles_to("threads", threads, thread_count);
    settles_to("sockets", sockets, || socket_inodes().len());
}
