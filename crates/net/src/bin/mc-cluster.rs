//! `mc-cluster` — spawn and join a multi-process mixed-consistency
//! cluster over loopback TCP.
//!
//! Parent mode (the default) re-executes itself once per node — process
//! nodes first, manager nodes after — waits for all of them, and fails
//! if any child does. Each child runs one node via
//! [`mc_net::run_cluster_node`]; node 0 doubles as the coordinator
//! (`Done` frames in, `Shutdown` broadcast out).
//!
//! ```text
//! mc-cluster --procs 3 --mode causal --workload ring:1000
//! mc-cluster --procs 2 --spec prog.spec
//! mc-cluster --procs 3 --workload storm:500 --durable /tmp/dir --port 47000
//! ```
//!
//! Workloads come either from `--workload ring:N|storm:N` or from
//! `--spec FILE` — a `ProgSpec` text file (the same format `mc-check
//! --replay` consumes), whose per-process operation lists are run
//! through the one `SpecOp` interpreter. Exit code 0 means every node ran to
//! completion and shut down cleanly.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use mc_model::ProcModel;
use mc_net::{run_cluster_node, NodeOpts, Workload};
use mc_proto::{DsmConfig, DurabilityPolicy};
use mixed_consistency::progspec::run_ops;
use mixed_consistency::ProgSpec;

/// Everything both parent and children need to agree on, parsed from
/// the shared command line.
struct Opts {
    node: Option<usize>,
    procs: usize,
    model: ProcModel,
    workload: Option<Workload>,
    spec: Option<PathBuf>,
    port: u16,
    reliable: bool,
    durable: Option<PathBuf>,
    timeout: Duration,
}

fn usage() -> ! {
    let names: Vec<&str> = ProcModel::ALL.iter().map(ProcModel::name).collect();
    eprintln!(
        "usage: mc-cluster --procs N [--mode {}] \
         (--workload ring:K|storm:K | --spec FILE) [--port BASE] \
         [--raw] [--durable DIR] [--timeout SECS] [--node I]\n\
         --mode puts every process under one lattice point (default causal)",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        node: None,
        procs: 0,
        model: ProcModel::CAUSAL,
        workload: None,
        spec: None,
        port: 0,
        reliable: true,
        durable: None,
        timeout: Duration::from_secs(30),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).clone();
        match a.as_str() {
            "--node" => o.node = Some(val().parse().unwrap_or_else(|_| usage())),
            "--procs" => o.procs = val().parse().unwrap_or_else(|_| usage()),
            "--mode" => o.model = ProcModel::named(&val()).unwrap_or_else(|| usage()),
            "--workload" => match Workload::parse(&val()) {
                Ok(w) => o.workload = Some(w),
                Err(e) => {
                    eprintln!("mc-cluster: {e}");
                    usage();
                }
            },
            "--spec" => o.spec = Some(PathBuf::from(val())),
            "--port" => o.port = val().parse().unwrap_or_else(|_| usage()),
            "--raw" => o.reliable = false,
            "--durable" => o.durable = Some(PathBuf::from(val())),
            "--timeout" => {
                o.timeout = Duration::from_secs(val().parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    o
}

/// The cluster config both sides derive identically from the options.
/// A spec's `durability N` line sets the snapshot cadence under
/// `--durable`; without the flag there is no directory to keep the log
/// in, and the spec is refused.
fn config(o: &Opts, spec: Option<&ProgSpec>) -> Result<DsmConfig, String> {
    let mut cfg = match spec {
        Some(spec) => DsmConfig::new(o.procs, spec.assignment()),
        None => DsmConfig::new(o.procs, o.model),
    };
    cfg.reliable = o.reliable;
    if let Some(spec) = spec {
        cfg.lock_propagation = spec.lock_propagation;
        assert!(spec.shards.is_none(), "mc-cluster does not support sharded specs yet");
    }
    let every = spec.and_then(|spec| spec.durability);
    match (&o.durable, every) {
        (None, Some(n)) => {
            return Err(format!("the spec asks for `durability {n}`: run it with --durable DIR"))
        }
        (Some(_), every) => {
            cfg.durability = Some(DurabilityPolicy::new(every.unwrap_or(64)));
            cfg.reliable = true;
        }
        (None, None) => {}
    }
    Ok(cfg)
}

/// [`config`], or exit 2 with its complaint.
fn config_or_exit(o: &Opts, spec: Option<&ProgSpec>) -> DsmConfig {
    config(o, spec).unwrap_or_else(|e| {
        eprintln!("mc-cluster: {e}");
        std::process::exit(2);
    })
}

fn load_spec(o: &Opts) -> Option<ProgSpec> {
    let path = o.spec.as_ref()?;
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read spec {path:?}: {e}"));
    let spec = ProgSpec::parse(&text).unwrap_or_else(|e| panic!("bad spec {path:?}: {e}"));
    Some(spec)
}

fn child(o: &Opts) -> ! {
    let node = o.node.expect("child needs --node");
    let spec = load_spec(o);
    let cfg = config_or_exit(o, spec.as_ref());
    let nprocs = cfg.nprocs();
    let opts = NodeOpts {
        node,
        cfg,
        base_port: o.port,
        timeout: o.timeout,
        durability_dir: o.durable.clone(),
    };
    let workload = o.workload;
    let out = run_cluster_node(opts, move |ctx| {
        if let Some(spec) = spec {
            run_ops(ctx, &spec.procs[node]);
        } else if let Some(w) = workload {
            w.run(ctx, node as u32, nprocs);
        }
    });
    println!("node {node} done: messages={} bytes={}", out.messages, out.bytes);
    if let Some(r) = &out.replica {
        println!("node {node} applied-own={} incarnation={}", r.applied[r.proc], r.incarnation);
    }
    std::process::exit(0);
}

fn parent(o: &Opts) -> ! {
    if o.procs == 0 || (o.workload.is_none() && o.spec.is_none()) {
        usage();
    }
    let spec = load_spec(o);
    if let Some(spec) = &spec {
        assert_eq!(spec.procs.len(), o.procs, "--procs must match the spec's process count");
    }
    let cfg = config_or_exit(o, spec.as_ref());
    let nnodes = cfg.nnodes();
    let base_port = if o.port != 0 {
        o.port
    } else {
        // Derive a base port from the pid so concurrent clusters on one
        // machine do not collide — below the kernel's ephemeral range
        // (32768+) so no outbound source port can steal a listener's
        // address.
        21000 + (std::process::id() % 10000) as u16
    };
    let exe = std::env::current_exe().expect("own executable path");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::new();
    for node in 0..nnodes {
        let mut cmd = Command::new(&exe);
        cmd.args(&args)
            .arg("--node")
            .arg(node.to_string())
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        if o.port == 0 {
            cmd.arg("--port").arg(base_port.to_string());
        }
        children.push((node, cmd.spawn().expect("spawn cluster node")));
    }
    let mut failed = false;
    for (node, mut c) in children {
        let status = c.wait().expect("reap cluster node");
        if !status.success() {
            eprintln!("mc-cluster: node {node} failed ({status})");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("mc-cluster: all {nnodes} nodes done");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args);
    if o.node.is_some() {
        child(&o);
    } else {
        parent(&o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_proto::IntoModels;

    fn opts(args: &[&str]) -> Opts {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    const SPEC: &str = "mode causal\ndurability 7\nproc 0\n  w 0 1\nproc 1\n  r 0 causal\n";

    #[test]
    fn mode_names_any_lattice_point() {
        for &model in ProcModel::ALL {
            let o = opts(&["--procs", "2", "--mode", model.name()]);
            assert_eq!(*config(&o, None).unwrap().models(), model.into_models(2));
        }
    }

    #[test]
    fn a_durable_spec_sets_the_snapshot_cadence() {
        let spec = ProgSpec::parse(SPEC).expect("the spec parses");
        let cfg = config(&opts(&["--procs", "2", "--durable", "d"]), Some(&spec)).unwrap();
        assert_eq!(cfg.durability, Some(DurabilityPolicy::new(7)));
        assert!(cfg.reliable);
        let plain = ProgSpec { durability: None, ..spec };
        let cfg = config(&opts(&["--procs", "2", "--durable", "d"]), Some(&plain)).unwrap();
        assert_eq!(cfg.durability, Some(DurabilityPolicy::new(64)), "the default cadence");
    }

    #[test]
    fn a_durable_spec_without_a_directory_is_refused() {
        let spec = ProgSpec::parse(SPEC).expect("the spec parses");
        let err = config(&opts(&["--procs", "2"]), Some(&spec)).unwrap_err();
        assert!(err.contains("--durable"), "{err}");
        let plain = ProgSpec { durability: None, ..spec };
        assert_eq!(config(&opts(&["--procs", "2"]), Some(&plain)).unwrap().durability, None);
    }
}
