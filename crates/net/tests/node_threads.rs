//! The threads a run starts, by name: one `mc-proc-{i}` per process, the
//! link threads over TCP, and no thread for a manager — it runs on
//! whichever thread delivers it a message. Only with the session layer
//! on does a manager shard get `mc-mgr-tick-{k}`, which sweeps its
//! retransmissions.
//!
//! One test in a binary of its own: it reads every thread of the process.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mc_live::{LiveCtx, Threads};
use mc_model::{Loc, Value};
use mc_net::Tcp;
use mc_proto::Mode;
use mixed_consistency::System;

/// The name of every thread of this process (as the kernel keeps it:
/// at most 15 bytes).
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let comm = |tid: String| std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"));
    let mut names: Vec<String> = tasks
        .filter_map(|t| t.ok()?.file_name().into_string().ok())
        .filter_map(|tid| Some(comm(tid).ok()?.trim_end().to_owned()))
        .collect();
    names.sort();
    names
}

/// A process of a two-process SC run: it writes, awaits the other's
/// write — both through the manager, and both processes are up by then —
/// and process 0 lists the threads alive, once `want` is among them. A
/// new thread carries its spawner's name until it first runs, and on a
/// loaded host a sweeper may not have run yet; after 10 s the listing is
/// taken as it is.
fn body(
    seen: &Arc<Mutex<Vec<String>>>,
    p: u32,
    want: Option<&'static str>,
) -> impl FnOnce(&mut LiveCtx) + Send + 'static {
    let seen = seen.clone();
    move |ctx| {
        ctx.write(Loc(p), 1);
        ctx.await_eq(Loc(1 - p), Value::Int(1));
        if p == 0 {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut names = thread_names();
            while want.is_some_and(|w| !names.iter().any(|n| n == w)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                names = thread_names();
            }
            *seen.lock().expect("healthy") = names;
        }
    }
}

#[test]
fn a_manager_has_no_thread_unless_it_sweeps_retransmissions() {
    let harness = thread_names();
    let started = |seen: Arc<Mutex<Vec<String>>>| {
        let names = std::mem::take(&mut *seen.lock().expect("healthy"));
        names.into_iter().filter(|n| !harness.contains(n)).collect::<Vec<_>>()
    };

    let seen = Arc::default();
    let mut sys = System::on(Threads::default(), 2, Mode::Sc);
    for p in 0..2 {
        sys.spawn(body(&seen, p, None));
    }
    sys.run().expect("threads run");
    assert_eq!(started(seen), ["mc-proc-0", "mc-proc-1"], "threads, unreliable");

    let seen = Arc::default();
    let mut sys = System::on(Tcp, 2, Mode::Sc);
    for p in 0..2 {
        sys.spawn(body(&seen, p, None));
    }
    sys.run().expect("TCP runs");
    let names = started(seen);
    let nodes: Vec<_> = names.iter().filter(|n| !n.starts_with("tokio-compat")).collect();
    assert_eq!(nodes, ["mc-proc-0", "mc-proc-1"], "TCP, unreliable: {names:?}");

    let seen = Arc::default();
    let mut sys = System::on(Threads::default(), 2, Mode::Sc).reliable(true);
    for p in 0..2 {
        sys.spawn(body(&seen, p, Some("mc-mgr-tick-0")));
    }
    sys.run().expect("reliable threads run");
    assert_eq!(started(seen), ["mc-mgr-tick-0", "mc-proc-0", "mc-proc-1"], "threads, reliable");
}
