//! A cluster places its threads: link threads on one CPU — the manager
//! runs on its links' reader threads, so on that CPU too — process
//! threads off it, and the thread that ran the cluster allowed what it
//! was.
//!
//! One test in a binary of its own: it tells link threads from the
//! harness's by looking at every thread of the process.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};

use mc_model::{Loc, Value};
use mc_net::Tcp;
use mc_proto::Mode;
use mixed_consistency::System;

/// `Cpus_allowed_list` of thread `tid` of this process ("self": the caller).
fn allowed(tid: &str) -> String {
    let dir =
        if tid == "self" { "/proc/thread-self".into() } else { format!("/proc/self/task/{tid}") };
    let status = std::fs::read_to_string(format!("{dir}/status")).expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
    line.expect("kernel reports affinity").trim().to_owned()
}

/// The CPUs a `Cpus_allowed_list` such as `0-1,3` names.
fn cpus(list: &str) -> Vec<usize> {
    let bound = |s: &str| s.parse::<usize>().expect("a CPU number");
    list.split(',')
        .flat_map(|part| match part.split_once('-') {
            Some((lo, hi)) => bound(lo)..=bound(hi),
            None => bound(part)..=bound(part),
        })
        .collect()
}

/// The affinity of every link thread alive now (the shim names them).
fn link_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|t| t.ok()?.file_name().into_string().ok())
        .filter(|tid| {
            std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|comm| comm.starts_with("tokio-compat"))
        })
        .map(|tid| allowed(&tid))
        .collect()
}

#[test]
fn link_threads_share_one_cpu_and_node_threads_keep_off_it() {
    let before = allowed("self");
    if cpus(&before).len() == 1 {
        return; // one CPU allowed: nothing to place
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sys = System::on(Tcp, 2, Mode::Sc);
    for p in 0..2u32 {
        let seen = seen.clone();
        sys.spawn(move |ctx| {
            // A round trip through the manager: every link that will
            // carry a frame in this run has its reader by now.
            ctx.write(Loc(p), 1);
            assert_eq!(ctx.read_causal(Loc(p)), Value::Int(1));
            seen.lock().expect("healthy").push((allowed("self"), link_threads()));
        });
    }
    sys.run().expect("cluster runs");
    assert_eq!(allowed("self"), before, "the caller is allowed what it was");

    let seen = seen.lock().expect("healthy");
    let home = &seen[0].1[0];
    assert_eq!(cpus(home).len(), 1, "link threads on one CPU: {home}");
    for (node, links) in seen.iter() {
        // 3 accept loops and 6 writers from the start, a reader per used
        // link; the manager runs on its readers, so it has no thread to
        // keep off the links' CPU.
        assert!(links.len() >= 9 + 2, "{} link threads", links.len());
        assert!(links.iter().all(|l| l == home), "all on the same one: {links:?}");
        assert!(!cpus(node).contains(&cpus(home)[0]), "process on {node}, links on {home}");
    }
}
